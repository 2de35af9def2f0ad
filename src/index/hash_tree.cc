#include "index/hash_tree.h"

#include <algorithm>

#include "common/macros.h"

namespace qarm {

struct HashTree::Node {
  bool is_leaf = true;
  // Leaf payload: itemset ids.
  std::vector<int32_t> ids;
  // Itemsets whose length equals this node's depth: all their items were
  // consumed on the path here, so they are subsets of any transaction that
  // reaches this node.
  std::vector<int32_t> complete_ids;
  // Interior payload.
  std::vector<std::unique_ptr<Node>> children;
};

HashTree::HashTree(size_t leaf_capacity, size_t fanout)
    : leaf_capacity_(leaf_capacity),
      fanout_(fanout),
      root_(std::make_unique<Node>()) {
  QARM_CHECK_GT(leaf_capacity_, 0u);
  QARM_CHECK_GT(fanout_, 1u);
}

HashTree::~HashTree() = default;

void HashTree::Insert(std::span<const int32_t> itemset, int32_t id) {
  QARM_CHECK_GE(id, 0);
  for (size_t i = 1; i < itemset.size(); ++i) {
    QARM_CHECK_LT(itemset[i - 1], itemset[i]);
  }
  if (static_cast<size_t>(id) >= itemsets_.size()) {
    itemsets_.resize(static_cast<size_t>(id) + 1);
  }
  itemsets_[static_cast<size_t>(id)].assign(itemset.begin(), itemset.end());
  InsertRec(root_.get(), 0, itemset, id);
  ++num_itemsets_;
}

void HashTree::InsertRec(Node* node, size_t depth,
                         std::span<const int32_t> itemset, int32_t id) {
  if (!node->is_leaf) {
    if (itemset.size() == depth) {
      node->complete_ids.push_back(id);
      return;
    }
    size_t bucket =
        static_cast<size_t>(static_cast<uint32_t>(itemset[depth])) % fanout_;
    InsertRec(node->children[bucket].get(), depth + 1, itemset, id);
    return;
  }
  node->ids.push_back(id);
  if (node->ids.size() > leaf_capacity_) SplitLeaf(node, depth);
}

void HashTree::SplitLeaf(Node* node, size_t depth) {
  // Refuse to split if every resident itemset is exhausted at this depth
  // (they would all become complete_ids, and splitting gains nothing).
  bool any_splittable = false;
  for (int32_t id : node->ids) {
    if (itemsets_[static_cast<size_t>(id)].size() > depth) {
      any_splittable = true;
      break;
    }
  }
  if (!any_splittable) return;

  std::vector<int32_t> ids = std::move(node->ids);
  node->ids.clear();
  node->is_leaf = false;
  node->children.resize(fanout_);
  for (auto& child : node->children) child = std::make_unique<Node>();
  for (int32_t id : ids) {
    InsertRec(node, depth, itemsets_[static_cast<size_t>(id)], id);
  }
}

bool HashTree::IsSubset(std::span<const int32_t> itemset,
                        std::span<const int32_t> transaction) const {
  size_t t = 0;
  for (int32_t item : itemset) {
    while (t < transaction.size() && transaction[t] < item) ++t;
    if (t == transaction.size() || transaction[t] != item) return false;
    ++t;
  }
  return true;
}

void HashTree::ForEachSubset(std::span<const int32_t> transaction,
                             const std::function<void(int32_t)>& fn) const {
  ForEachSubset(transaction, fn, &scratch_);
}

void HashTree::ForEachSubset(std::span<const int32_t> transaction,
                             const std::function<void(int32_t)>& fn,
                             SubsetScratch* scratch) const {
  if (scratch->stamps.size() < itemsets_.size()) {
    scratch->stamps.resize(itemsets_.size(), 0);
  }
  ++scratch->generation;
  SearchRec(root_.get(), transaction, 0, fn, *scratch);
}

void HashTree::SearchRec(const Node* node,
                         std::span<const int32_t> transaction, size_t start,
                         const std::function<void(int32_t)>& fn,
                         SubsetScratch& scratch) const {
  auto report = [&](int32_t id) {
    uint64_t& stamp = scratch.stamps[static_cast<size_t>(id)];
    if (stamp == scratch.generation) return;
    stamp = scratch.generation;
    fn(id);
  };

  if (node->is_leaf) {
    for (int32_t id : node->ids) {
      const std::vector<int32_t>& set = itemsets_[static_cast<size_t>(id)];
      if (IsSubset(set, transaction)) report(id);
    }
    return;
  }
  // complete_ids were routed here by hashes of their items; different items
  // can collide into the same buckets, so containment must still be
  // verified.
  for (int32_t id : node->complete_ids) {
    const std::vector<int32_t>& set = itemsets_[static_cast<size_t>(id)];
    if (IsSubset(set, transaction)) report(id);
  }
  for (size_t i = start; i < transaction.size(); ++i) {
    size_t bucket =
        static_cast<size_t>(static_cast<uint32_t>(transaction[i])) % fanout_;
    SearchRec(node->children[bucket].get(), transaction, i + 1, fn, scratch);
  }
}

}  // namespace qarm
