#include "common/packed_key_table.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.h"

namespace qarm {
namespace {

TEST(PackedKeyTableTest, InsertAssignsDenseIdsInFirstInsertionOrder) {
  PackedKeyTable table(3);
  const int32_t a[] = {1, -1, 7};
  const int32_t b[] = {-1, 1, 7};
  EXPECT_EQ(table.Insert(a), std::make_pair(0u, true));
  EXPECT_EQ(table.Insert(b), std::make_pair(1u, true));
  EXPECT_EQ(table.Insert(a), std::make_pair(0u, false));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Find(b), 1u);
  const int32_t missing[] = {1, 7, -1};
  EXPECT_EQ(table.Find(missing), PackedKeyTable::kNotFound);
  EXPECT_EQ(std::vector<int32_t>(table.key(1), table.key(1) + 3),
            std::vector<int32_t>(b, b + 3));
}

TEST(PackedKeyTableTest, MatchesOrderedMapAcrossGrowth) {
  // Thousands of short small-integer keys force several rehashes; every id
  // must stay what a reference map assigned.
  Rng rng(5);
  PackedKeyTable table(2);
  std::map<std::vector<int32_t>, uint32_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const std::vector<int32_t> key = {
        static_cast<int32_t>(rng.UniformInt(0, 150)) - 2,
        static_cast<int32_t>(rng.UniformInt(0, 150))};
    const auto [it, inserted] =
        reference.emplace(key, static_cast<uint32_t>(reference.size()));
    EXPECT_EQ(table.Insert(key.data()),
              std::make_pair(it->second, inserted));
  }
  EXPECT_EQ(table.size(), reference.size());
  for (const auto& [key, id] : reference) {
    EXPECT_EQ(table.Find(key.data()), id);
  }
}

TEST(PackedKeyTableTest, AssignedKeysAreFoundAfterBuildIndex) {
  PackedKeyTable table(2);
  table.Assign({0, 1, 0, 2, 3, 4});
  table.BuildIndex();
  const int32_t second[] = {0, 2};
  const int32_t absent[] = {2, 0};
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Find(second), 1u);
  EXPECT_EQ(table.Find(absent), PackedKeyTable::kNotFound);
  // Inserting after an Assign indexes first, then appends.
  EXPECT_EQ(table.Insert(absent), std::make_pair(3u, true));
  EXPECT_EQ(table.Find(absent), 3u);

  PackedKeyTable empty(4);
  const int32_t key[] = {1, 2, 3, 4};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Find(key), PackedKeyTable::kNotFound);
}

}  // namespace
}  // namespace qarm
