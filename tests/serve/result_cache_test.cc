// ResultCache: byte-budget enforcement, frequency-based eviction,
// manager budget accounting, and concurrent correctness under >= 8
// threads (a TSan target).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/result_cache.h"

namespace qarm {
namespace {

// Builds "prefix<i>" without the operator+(const char*, string&&) overload
// that GCC 12's -Wrestrict false-positives on.
std::string Key(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

TEST(ResultCacheTest, HitAfterInsertMissBefore) {
  ResultCache cache(64 * 1024, 4);
  EXPECT_FALSE(cache.Lookup("k1").has_value());
  cache.Insert("k1", "v1");
  auto hit = cache.Lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "v1");
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, StatsPlusEqualsSumsEveryField) {
  ResultCacheStats a{1, 2, 3, 4, 5, 6, 7, 8};
  a += ResultCacheStats{10, 20, 30, 40, 50, 60, 70, 80};
  EXPECT_EQ(a.hits, 11u);
  EXPECT_EQ(a.misses, 22u);
  EXPECT_EQ(a.insertions, 33u);
  EXPECT_EQ(a.evictions, 44u);
  EXPECT_EQ(a.oversized_rejects, 55u);
  EXPECT_EQ(a.entries, 66u);
  EXPECT_EQ(a.bytes_used, 77u);
  EXPECT_EQ(a.byte_budget, 88u);
}

TEST(ResultCacheTest, OverwriteReplacesValue) {
  ResultCache cache(64 * 1024, 1);
  cache.Insert("k", "old");
  cache.Insert("k", "new value that is longer");
  EXPECT_EQ(*cache.Lookup("k"), "new value that is longer");
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(ResultCacheTest, BudgetNeverExceededAndEvictionsHappen) {
  // Room for only a handful of entries per shard.
  const size_t budget = 4096;
  ResultCache cache(budget, 2);
  for (int i = 0; i < 500; ++i) {
    cache.Insert(Key("key", i),
                 std::string(100, static_cast<char>('a' + i % 26)));
    EXPECT_LE(cache.Stats().bytes_used, budget) << "after insert " << i;
  }
  const ResultCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_used, budget);
  EXPECT_GT(stats.entries, 0u);
}

TEST(ResultCacheTest, FrequentEntriesSurviveEviction) {
  // Single shard so every key competes for the same budget. The hot key
  // is looked up repeatedly; cold keys stream past it.
  ResultCache cache(2048, 1);
  cache.Insert("hot", std::string(64, 'h'));
  for (int i = 0; i < 50; ++i) {
    cache.Lookup("hot");
  }
  for (int i = 0; i < 200; ++i) {
    cache.Insert(Key("cold", i), std::string(64, 'c'));
  }
  EXPECT_TRUE(cache.Lookup("hot").has_value())
      << "hot entry evicted despite its frequency";
}

TEST(ResultCacheTest, OversizedValuesAreRejectedNotCached) {
  ResultCache cache(1024, 4);  // 256 bytes per shard
  cache.Insert("big", std::string(4096, 'x'));
  EXPECT_FALSE(cache.Lookup("big").has_value());
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.oversized_rejects, 1u);
  EXPECT_EQ(stats.bytes_used, 0u);
}

TEST(ResultCacheTest, ClearEmptiesEveryShard) {
  ResultCache cache(64 * 1024, 8);
  for (int i = 0; i < 50; ++i) {
    cache.Insert(Key("k", i), "v");
  }
  cache.Clear();
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_used, 0u);
}

TEST(ResultCacheManagerTest, BudgetAllocationAndExhaustion) {
  ResultCacheManager manager(10 * 1024);
  auto a = manager.CreateCache("a", 6 * 1024);
  ASSERT_TRUE(a.ok());
  auto duplicate = manager.CreateCache("a", 1024);
  EXPECT_FALSE(duplicate.ok());
  auto too_big = manager.CreateCache("b", 8 * 1024);
  EXPECT_FALSE(too_big.ok());
  auto b = manager.CreateCache("b", 4 * 1024);
  ASSERT_TRUE(b.ok());

  (*a)->Insert("k", "v");
  (*a)->Lookup("k");
  (*b)->Lookup("nope");
  const ResultCacheStats total = manager.TotalStats();
  EXPECT_EQ(total.hits, 1u);
  EXPECT_EQ(total.misses, 1u);
  EXPECT_EQ(total.byte_budget, 10u * 1024);
  EXPECT_EQ(manager.AllStats().size(), 2u);
}

// Concurrency: 8+ threads hammer a small cache with overlapping keys.
// Correctness here means no data race (TSan), no budget violation, and
// every hit returning the exact value inserted for that key.
TEST(ResultCacheTest, ConcurrentMixedWorkloadRespectsBudget) {
  const size_t budget = 16 * 1024;
  ResultCache cache(budget, 4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<int> wrong_values{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &wrong_values, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key_id = (t * 37 + i) % 300;
        const std::string key = Key("key", key_id);
        // The value is a pure function of the key, so cross-thread
        // clobbering is detectable.
        const std::string value(64 + key_id % 32,
                                static_cast<char>('a' + key_id % 26));
        if (i % 3 == 0) {
          cache.Insert(key, value);
        } else if (auto hit = cache.Lookup(key)) {
          if (*hit != value) wrong_values.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong_values.load(), 0);
  const ResultCacheStats stats = cache.Stats();
  EXPECT_LE(stats.bytes_used, budget);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace qarm
