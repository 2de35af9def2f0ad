// Memory-budgeted concurrent result cache for serving, in the spirit of
// the ArangoDB cache subsystem: a global manager owns the total byte
// budget and hands out per-cache slices; each cache shards its entries
// into buckets with bucket-level locking so concurrent lookups on
// different shards never contend; eviction is frequency-based — when an
// insert would overflow a shard's budget, the least-frequently-hit
// entries of that shard are evicted until the new entry fits.
//
// Keys are canonicalized query strings, values are rendered responses.
// The cache is purely an accelerator: a hit must be byte-identical to
// recomputing, which the serving tests enforce.
#ifndef QARM_SERVE_RESULT_CACHE_H_
#define QARM_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/stats_fields.h"

namespace qarm {

// Counters of one cache (or the aggregate over a manager's caches).
// Within a single snapshot the counters are mutually consistent per shard
// but not across shards; they are monitoring data, not invariants.
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t oversized_rejects = 0;  // values too big to ever fit a shard
  size_t entries = 0;
  size_t bytes_used = 0;
  size_t byte_budget = 0;

  // The /statz cache objects (storage/stats_fields.h).
  static void Fields(auto&& f, auto&... s) {
    f("hits", s.hits...);
    f("misses", s.misses...);
    f("insertions", s.insertions...);
    f("evictions", s.evictions...);
    f("oversized_rejects", s.oversized_rejects...);
    f("entries", s.entries...);
    f("bytes_used", s.bytes_used...);
    f("byte_budget", s.byte_budget...);
  }
};

class ResultCache {
 public:
  // `byte_budget` is split evenly across `num_shards` buckets; an entry
  // larger than one bucket's slice is never cached (oversized_rejects).
  explicit ResultCache(size_t byte_budget, size_t num_shards = 16);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // The cached value for `key`, bumping its frequency; nullopt on miss.
  std::optional<std::string> Lookup(const std::string& key);

  // Caches `value` under `key`, evicting least-frequently-hit entries of
  // the shard until it fits. Overwrites an existing entry for `key`.
  void Insert(const std::string& key, const std::string& value);

  void Clear();

  ResultCacheStats Stats() const;
  size_t byte_budget() const { return byte_budget_; }

 private:
  struct Entry {
    std::string value;
    uint64_t frequency = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> entries;
    size_t bytes = 0;
    ResultCacheStats stats;  // the counters; Stats() fills in the sizes
  };

  // Accounted footprint of one entry (strings + bookkeeping overhead).
  static size_t EntryCost(const std::string& key, const std::string& value);

  Shard& ShardFor(const std::string& key);

  const size_t byte_budget_;
  const size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Owns the serving process's total cache budget and carves it into named
// caches (one per endpoint family). Purely an allocator plus a stats
// aggregation point — the caches themselves are independent.
class ResultCacheManager {
 public:
  explicit ResultCacheManager(size_t total_byte_budget);

  // Creates a cache taking `byte_budget` from the remaining global budget;
  // InvalidArgument when the budget is exhausted or the name is taken.
  Result<std::shared_ptr<ResultCache>> CreateCache(const std::string& name,
                                                   size_t byte_budget);

  // (name, stats) per cache, in creation order.
  std::vector<std::pair<std::string, ResultCacheStats>> AllStats() const;

  ResultCacheStats TotalStats() const;
  size_t total_byte_budget() const { return total_byte_budget_; }

 private:
  const size_t total_byte_budget_;
  size_t allocated_ = 0;
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::shared_ptr<ResultCache>>> caches_;
};

}  // namespace qarm

#endif  // QARM_SERVE_RESULT_CACHE_H_
