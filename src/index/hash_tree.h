// The hash-tree of [AS94]: stores a set of sorted integer itemsets and, for
// a given sorted transaction, enumerates every stored itemset contained in
// it, visiting only a small fraction of the candidates. Used by the boolean
// Apriori baseline (candidates per pass). The quantitative miner's support
// counting (core/support_counting.h) matches categorical items with
// block-wide row masks instead.
#ifndef QARM_INDEX_HASH_TREE_H_
#define QARM_INDEX_HASH_TREE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace qarm {

// Itemsets are identified by dense ids 0..N-1 assigned by the caller.
// Items within an itemset must be sorted ascending and unique; itemsets of
// different lengths may coexist.
class HashTree {
 public:
  // `leaf_capacity`: max itemsets in a leaf before it splits;
  // `fanout`: hash buckets per interior node.
  explicit HashTree(size_t leaf_capacity = 8, size_t fanout = 32);
  ~HashTree();

  HashTree(const HashTree&) = delete;
  HashTree& operator=(const HashTree&) = delete;
  HashTree(HashTree&&) = default;
  HashTree& operator=(HashTree&&) = default;

  // Inserts a sorted itemset under id `id`. Ids must be dense (0..N-1 in any
  // order) — they index the dedup stamp table.
  void Insert(std::span<const int32_t> itemset, int32_t id);

  // Per-probe dedup state: a leaf can be reached through several transaction
  // items, so matches are deduplicated with per-id generation stamps. A
  // scratch belongs to one probing thread; concurrent ForEachSubset calls on
  // a shared (no longer mutated) tree are safe as long as each caller passes
  // its own scratch.
  struct SubsetScratch {
    std::vector<uint64_t> stamps;
    uint64_t generation = 0;
  };

  // Calls `fn(id)` exactly once for every stored itemset that is a subset of
  // the sorted `transaction`. The empty itemset, if inserted, matches every
  // transaction. This overload uses an internal scratch and must not be
  // called concurrently.
  void ForEachSubset(std::span<const int32_t> transaction,
                     const std::function<void(int32_t)>& fn) const;

  // Thread-safe overload: all tree state is read-only; the mutable probe
  // state lives in the caller-owned `scratch`.
  void ForEachSubset(std::span<const int32_t> transaction,
                     const std::function<void(int32_t)>& fn,
                     SubsetScratch* scratch) const;

  size_t size() const { return num_itemsets_; }

 private:
  struct Node;

  void InsertRec(Node* node, size_t depth, std::span<const int32_t> itemset,
                 int32_t id);
  void SplitLeaf(Node* node, size_t depth);
  void SearchRec(const Node* node, std::span<const int32_t> transaction,
                 size_t start, const std::function<void(int32_t)>& fn,
                 SubsetScratch& scratch) const;
  bool IsSubset(std::span<const int32_t> itemset,
                std::span<const int32_t> transaction) const;

  size_t leaf_capacity_;
  size_t fanout_;
  std::unique_ptr<Node> root_;
  size_t num_itemsets_ = 0;

  // Stored itemsets, indexed by id (for the leaf containment check).
  std::vector<std::vector<int32_t>> itemsets_;

  // Scratch backing the convenience (serial) ForEachSubset overload.
  mutable SubsetScratch scratch_;
};

}  // namespace qarm

#endif  // QARM_INDEX_HASH_TREE_H_
