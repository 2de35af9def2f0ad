// R*-tree [BKSS90] over low-dimensional rectangles: the paper's counter for
// a super-candidate whose array would need too much memory (Section 5.2),
// which here only the Section 5.2 counting-structure bench uses. Implements
// ChooseSubtree with overlap minimization at the leaf level, the R*
// topological split (axis by minimum margin, distribution by minimum
// overlap), and forced reinsertion.
#ifndef QARM_INDEX_RSTAR_TREE_H_
#define QARM_INDEX_RSTAR_TREE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace qarm {

// Compile-time cap on tree dimensionality. Super-candidates are bounded by
// the number of quantitative attributes in a rule; 16 is far beyond any
// practical itemset.
inline constexpr size_t kRStarMaxDims = 16;

// Closed rectangle with runtime dimensionality (<= kRStarMaxDims).
// Coordinates are doubles; mapped integer ids are represented exactly.
struct RStarRect {
  std::array<double, kRStarMaxDims> lo{};
  std::array<double, kRStarMaxDims> hi{};

  static RStarRect FromRanges(const std::vector<std::pair<double, double>>& r);

  bool ContainsPoint(const double* point, size_t dims) const {
    for (size_t d = 0; d < dims; ++d) {
      if (point[d] < lo[d] || point[d] > hi[d]) return false;
    }
    return true;
  }
};

// R*-tree mapping rectangles to int32 payload ids.
class RStarTree {
 public:
  // `dims`: dimensionality of all rectangles; `max_entries`: node capacity
  // (min fill is 40%, reinsert fraction 30%, per the paper's defaults).
  explicit RStarTree(size_t dims, size_t max_entries = 16);
  ~RStarTree();

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  // Inserts `rect` with payload `id`.
  void Insert(const RStarRect& rect, int32_t id);

  // Calls `fn(id)` for every stored rectangle containing `point`
  // (`dims()` coordinates). A rectangle inserted k times fires k times.
  // Touches no shared mutable state (the DFS stack is a local), so
  // concurrent calls on a tree that is no longer being mutated are safe —
  // the parallel support-counting scan relies on this.
  void ForEachContaining(const double* point,
                         const std::function<void(int32_t)>& fn) const;

  size_t size() const { return size_; }
  size_t dims() const { return dims_; }
  size_t height() const;

  // Validates tree invariants (MBR containment, fill factors); tests only.
  bool CheckInvariants() const;

 private:
  struct Node;
  struct Entry;

  void InsertEntry(Entry entry, int level, bool allow_reinsert);
  Node* ChooseSubtree(const RStarRect& rect, int target_level,
                      std::vector<Node*>* path);
  void OverflowTreatment(Node* node, std::vector<Node*>& path,
                         bool allow_reinsert);
  void Reinsert(Node* node, std::vector<Node*>& path);
  void Split(Node* node, std::vector<Node*>& path);
  void AdjustPath(std::vector<Node*>& path);

  size_t dims_;
  size_t max_entries_;
  size_t min_entries_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace qarm

#endif  // QARM_INDEX_RSTAR_TREE_H_
