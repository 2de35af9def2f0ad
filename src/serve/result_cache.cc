#include "serve/result_cache.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace qarm {

ResultCache::ResultCache(size_t byte_budget, size_t num_shards)
    : byte_budget_(byte_budget),
      shard_budget_(byte_budget / std::max<size_t>(num_shards, 1)) {
  shards_.reserve(std::max<size_t>(num_shards, 1));
  for (size_t i = 0; i < std::max<size_t>(num_shards, 1); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ResultCache::EntryCost(const std::string& key,
                              const std::string& value) {
  // Strings plus an allowance for the hash-table node and Entry struct.
  return key.size() + value.size() + 96;
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  uint64_t h = SplitMix64(std::hash<std::string>{}(key));
  return *shards_[h % shards_.size()];
}

std::optional<std::string> ResultCache::Lookup(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  ++shard.stats.hits;
  ++it->second.frequency;
  return it->second.value;
}

void ResultCache::Insert(const std::string& key, const std::string& value) {
  const size_t cost = EntryCost(key, value);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (cost > shard_budget_) {
    ++shard.stats.oversized_rejects;
    return;
  }
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    shard.bytes -= EntryCost(key, it->second.value);
    shard.entries.erase(it);
  }
  while (shard.bytes + cost > shard_budget_ && !shard.entries.empty()) {
    auto victim = shard.entries.begin();
    for (auto cur = shard.entries.begin(); cur != shard.entries.end();
         ++cur) {
      if (cur->second.frequency < victim->second.frequency) victim = cur;
    }
    shard.bytes -= EntryCost(victim->first, victim->second.value);
    shard.entries.erase(victim);
    ++shard.stats.evictions;
  }
  shard.entries.emplace(key, Entry{value, 1});
  shard.bytes += cost;
  ++shard.stats.insertions;
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
    shard->bytes = 0;
  }
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  stats.byte_budget = byte_budget_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats += shard->stats;
    stats.entries += shard->entries.size();
    stats.bytes_used += shard->bytes;
  }
  return stats;
}

ResultCacheManager::ResultCacheManager(size_t total_byte_budget)
    : total_byte_budget_(total_byte_budget) {}

Result<std::shared_ptr<ResultCache>> ResultCacheManager::CreateCache(
    const std::string& name, size_t byte_budget) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [existing, cache] : caches_) {
    if (existing == name) {
      return Status::InvalidArgument("cache already exists: " + name);
    }
  }
  if (allocated_ + byte_budget > total_byte_budget_) {
    return Status::InvalidArgument(
        "cache budget exhausted: " + name + " wants " +
        std::to_string(byte_budget) + " bytes, " +
        std::to_string(total_byte_budget_ - allocated_) + " remain");
  }
  allocated_ += byte_budget;
  auto cache = std::make_shared<ResultCache>(byte_budget);
  caches_.emplace_back(name, cache);
  return cache;
}

std::vector<std::pair<std::string, ResultCacheStats>>
ResultCacheManager::AllStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, ResultCacheStats>> out;
  out.reserve(caches_.size());
  for (const auto& [name, cache] : caches_) {
    out.emplace_back(name, cache->Stats());
  }
  return out;
}

ResultCacheStats ResultCacheManager::TotalStats() const {
  ResultCacheStats total;
  for (const auto& [name, stats] : AllStats()) total += stats;
  return total;
}

}  // namespace qarm
