// The n-dimensional counting array of Section 5.2: one cell per combination
// of quantitative-attribute values in a super-candidate. Per record the work
// is O(dims) (index into each dimension, bump one cell); at the end of the
// pass the support of each candidate rectangle is the sum over the cells it
// covers.
#ifndef QARM_INDEX_NDIM_ARRAY_H_
#define QARM_INDEX_NDIM_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qarm {

// Inclusive integer hyper-rectangle in the mapped domain: dimension d spans
// [lo[d], hi[d]].
struct IntRect {
  std::vector<int32_t> lo;
  std::vector<int32_t> hi;

  size_t dims() const { return lo.size(); }
  bool Contains(const int32_t* point) const {
    for (size_t d = 0; d < lo.size(); ++d) {
      if (point[d] < lo[d] || point[d] > hi[d]) return false;
    }
    return true;
  }
  // Number of integer cells covered.
  uint64_t CellCount() const {
    uint64_t cells = 1;
    for (size_t d = 0; d < lo.size(); ++d) {
      cells *= static_cast<uint64_t>(hi[d] - lo[d] + 1);
    }
    return cells;
  }
};

// dst[i] += src[i] for i in [0, n): the reduction and prefix-sum building
// block, shared by NDimArray and the tree-count shard reduce in
// core/support_counting.cc. A scalar and an AVX2 body, chosen per call by
// ActiveIsa(); both are exact. `dst` and `src` must not overlap within 8
// elements (callers keep them at least 8 apart).
void AddU32Span(uint32_t* dst, const uint32_t* src, size_t n);

// The most dimensions NDimArray::CountRects counts vectorized; its kernel
// keeps 2^dims corner vectors on the stack. Wider grids count scalar.
inline constexpr size_t kRectKernelMaxDims = 8;

// Dense counting grid over the cross product of the dimension sizes.
class NDimArray {
 public:
  // `dim_sizes[d]` is the number of distinct mapped values of dimension d;
  // valid coordinates are [0, dim_sizes[d]).
  explicit NDimArray(std::vector<int32_t> dim_sizes);

  size_t dims() const { return dim_sizes_.size(); }
  uint64_t num_cells() const { return cells_.size(); }
  const std::vector<int32_t>& dim_sizes() const { return dim_sizes_; }
  // Row-major strides (last dimension contiguous). The kernel scan derives
  // its int32 strides from these after checking FlatIndexFitsInt32().
  const std::vector<uint64_t>& strides() const { return strides_; }

  // Bytes this grid's cells occupy.
  uint64_t bytes() const { return cells_.size() * sizeof(uint32_t); }

  // Bytes a grid with these dimensions would occupy (the Section 5.2 memory
  // heuristic compares this against the R*-tree estimate). Saturates at
  // UINT64_MAX on overflow.
  static uint64_t EstimateBytes(const std::vector<int32_t>& dim_sizes);

  // Increments the cell at `point` (dims() coordinates).
  void Increment(const int32_t* point);

  // Flat-index increments for the SIMD scan kernels, which compute the cell
  // index vectorized (count_kernels.h flat_index) and scatter scalar.
  void IncrementFlat(size_t index) { ++cells_[index]; }

  // True when every flat index fits an int32 — the precondition of the
  // vectorized index computation (strides then fit int32 too).
  bool FlatIndexFitsInt32() const { return cells_.size() <= 0x7fffffffu; }

  // Adds every cell of `other` into this grid (same dimensions; neither may
  // have prefix sums built). Used to reduce per-thread grids after a
  // sharded scan.
  void AddFrom(const NDimArray& other);

  // Converts the grid to inclusive n-dimensional prefix sums, making
  // CountRect O(2^dims) instead of a cell sweep. Call once, after all
  // Increment()s; Increment must not be called afterwards.
  void BuildPrefixSums();
  bool prefix_sums_built() const { return prefix_built_; }

  // Sum of all cells covered by `rect` (clipped to the grid). Uses
  // inclusion-exclusion when BuildPrefixSums() has run, a sweep otherwise.
  uint64_t CountRect(const IntRect& rect) const;

  // Batched CountRect over `num` rectangles given dimension-major
  // ("structure of arrays") bounds: rectangle m spans [los[d * num + m],
  // his[d * num + m]] in dimension d. Requires BuildPrefixSums(); results
  // are exactly CountRect of each rectangle (counts fit uint32 because the
  // cells are uint32). The hot path of the per-pass reduce: grids of up to
  // kRectKernelMaxDims dimensions run one vectorized inclusion-exclusion
  // (AVX2 gathers, eight rectangles at a time) when the active ISA allows,
  // with a scalar allocation-free fallback elsewhere — every path is
  // exact, so results never depend on the ISA.
  void CountRects(const int32_t* los, const int32_t* his, size_t num,
                  uint32_t* out) const;

  // The cells in flat-index order (a distributed worker ships them, the
  // coordinator adds them up). Counts only before BuildPrefixSums.
  const uint32_t* cells() const { return cells_.data(); }
  uint32_t* mutable_cells() { return cells_.data(); }

  // Raw cell accessor (tests; invalid after BuildPrefixSums).
  uint64_t CellAt(const int32_t* point) const;

 private:
  size_t FlatIndex(const int32_t* point) const;
  uint64_t CountRectSweep(const std::vector<int32_t>& lo,
                          const std::vector<int32_t>& hi) const;
  // Allocation-free inclusion-exclusion over pre-clipped bounds (lo[d] >= 0,
  // hi[d] < dim_sizes_[d], lo[d] <= hi[d]).
  uint64_t CountRectPrefix(const int32_t* lo, const int32_t* hi) const;

  std::vector<int32_t> dim_sizes_;
  std::vector<uint64_t> strides_;
  std::vector<uint32_t> cells_;
  bool prefix_built_ = false;
};

}  // namespace qarm

#endif  // QARM_INDEX_NDIM_ARRAY_H_
