// Candidate generation for quantitative itemsets (Section 5.1): join L_{k-1}
// with itself on the first k-2 items with the *attributes* of the last two
// items differing (an itemset holds at most one item per attribute), then
// prune candidates with an infrequent (k-1)-subset. The Lemma 5 interest
// prune happens earlier, at item level (ItemCatalog).
//
// Both phases shard across a worker pool (num_threads > 1): the join over
// contiguous prefix runs (runs never split, so per-worker outputs
// concatenated in run order reproduce the serial candidate order exactly),
// the prune over candidate index ranges. Output is bit-identical to the
// serial path at any thread count.
#ifndef QARM_CORE_CANDIDATE_GEN_H_
#define QARM_CORE_CANDIDATE_GEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/frequent_items.h"

namespace qarm {

// A set of k-itemsets over item ids, stored flat (k consecutive ids per
// itemset) to keep large candidate sets compact.
class ItemsetSet {
 public:
  explicit ItemsetSet(size_t k) : k_(k) {}
  // Adopts `flat` (k ids per itemset) as the set's contents.
  ItemsetSet(size_t k, std::vector<int32_t> flat)
      : k_(k), flat_(std::move(flat)) {}

  size_t k() const { return k_; }
  size_t size() const { return k_ == 0 ? 0 : flat_.size() / k_; }
  bool empty() const { return flat_.empty(); }

  const int32_t* itemset(size_t i) const { return &flat_[i * k_]; }
  std::vector<int32_t> itemset_vector(size_t i) const {
    return std::vector<int32_t>(itemset(i), itemset(i) + k_);
  }

  void Append(const int32_t* ids) { flat_.insert(flat_.end(), ids, ids + k_); }
  void AppendVector(const std::vector<int32_t>& ids) { Append(ids.data()); }
  // Drops the itemsets but keeps the capacity (chunk buffer reuse).
  void Clear() { flat_.clear(); }
  // Concatenates another set of the same k (shard reduction).
  void AppendAll(const ItemsetSet& other);
  void Reserve(size_t n) { flat_.reserve(n * k_); }

  // Lexicographic binary search; requires the set to be sorted (itemsets
  // are generated in lexicographic order by construction).
  bool Contains(const int32_t* ids) const;

 private:
  size_t k_;
  std::vector<int32_t> flat_;
};

// Observability for one candidate-generation call.
struct CandidateGenStats {
  size_t threads_used = 1;
  // Candidates out of the join phase (before the subset prune).
  size_t join_candidates = 0;
  // Largest number of candidates resident at once. Equal to
  // join_candidates when the join materializes its output (k >= 3); bounded
  // by the chunk size when pass 2 streams the implicit cross product.
  size_t peak_materialized = 0;
  double join_seconds = 0.0;
  double prune_seconds = 0.0;
  double seconds = 0.0;
};

// A read-only sequence of k-itemset candidates in their serial generation
// order. Counting consumes candidates two ways — one sequential sweep to
// group them into super-candidates, then random-access decodes while
// building counters and collecting results — and this interface serves both
// without requiring the whole set to be resident. Pass 2's cross product
// (the largest candidate set of a run by far) streams in bounded chunks;
// every other pass wraps its materialized ItemsetSet for free.
class CandidateStream {
 public:
  virtual ~CandidateStream() = default;

  virtual size_t k() const = 0;
  virtual size_t size() const = 0;

  // Calls fn(first, chunk) for consecutive chunks covering all candidates
  // in order: `chunk` holds candidates [first, first + chunk.size()). The
  // chunk buffer is only valid during the call.
  virtual void ForEachChunk(
      const std::function<void(size_t first, const ItemsetSet& chunk)>& fn)
      const = 0;

  // Decodes candidate c into ids[0..k).
  virtual void Get(size_t c, int32_t* ids) const = 0;
};

// Non-owning CandidateStream over a materialized ItemsetSet (single chunk,
// zero copies). The set must outlive the view.
class ItemsetStreamView : public CandidateStream {
 public:
  explicit ItemsetStreamView(const ItemsetSet& set) : set_(set) {}

  size_t k() const override { return set_.k(); }
  size_t size() const override { return set_.size(); }
  void ForEachChunk(
      const std::function<void(size_t, const ItemsetSet&)>& fn) const override {
    if (!set_.empty()) fn(0, set_);
  }
  void Get(size_t c, int32_t* ids) const override {
    const int32_t* p = set_.itemset(c);
    for (size_t i = 0; i < set_.k(); ++i) ids[i] = p[i];
  }

 private:
  const ItemsetSet& set_;
};

// The pass-2 candidate set as a virtual cross product. L1 is always every
// catalog item, so C2 is exactly the pairs (i, j), i < j, with differing
// attributes — the same sequence GenerateCandidates' join emits, derived
// here from the catalog's per-attribute item ranges instead of being
// materialized (3.4M candidates on the financial benchmark was the largest
// single allocation of a run). Chunks materialize at most `chunk_rows`
// candidates at a time; Get is a binary search over per-outer-item prefix
// sums. The catalog must outlive the stream.
class ImplicitPairStream : public CandidateStream {
 public:
  static constexpr size_t kDefaultChunkRows = 65536;

  explicit ImplicitPairStream(const ItemCatalog& catalog,
                              size_t chunk_rows = kDefaultChunkRows);

  size_t k() const override { return 2; }
  size_t size() const override { return total_; }
  void ForEachChunk(const std::function<void(size_t, const ItemsetSet&)>& fn)
      const override;
  void Get(size_t c, int32_t* ids) const override;

 private:
  // partner_begin_[i]: first partner of outer item i (the end of i's
  // attribute's item range — ids are sorted by attribute, so everything
  // from there on differs in attribute). prefix_[i]: pairs with outer < i.
  std::vector<int32_t> partner_begin_;
  std::vector<uint64_t> prefix_;
  size_t total_ = 0;
  size_t chunk_rows_;
};

// apriori-gen over quantitative items: returns C_k from L_{k-1}.
// `frequent` must be lexicographically sorted by item id; item ids are
// sorted by (attribute, lo, hi), so itemsets are attribute-sorted.
// `num_threads` follows the MinerOptions convention (0 = all hardware
// cores, 1 = serial); the result does not depend on it.
ItemsetSet GenerateCandidates(const ItemCatalog& catalog,
                              const ItemsetSet& frequent,
                              size_t num_threads = 1,
                              CandidateGenStats* stats = nullptr);

}  // namespace qarm

#endif  // QARM_CORE_CANDIDATE_GEN_H_
