// The Apriori algorithm of [AS94] for boolean association rules. This is
// both the baseline the paper builds on (Section 5 reuses its structure and
// hash tree) and the engine behind the naive map-to-boolean bridge of
// Section 1.1.
#ifndef QARM_MINING_APRIORI_H_
#define QARM_MINING_APRIORI_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qarm {

// A transaction: sorted, unique item ids.
using Transaction = std::vector<int32_t>;

// A frequent itemset with its absolute support count.
struct FrequentItemset {
  std::vector<int32_t> items;  // sorted
  uint64_t count = 0;

  bool operator==(const FrequentItemset& other) const {
    return items == other.items && count == other.count;
  }
};

// Tuning knobs for the Apriori driver.
struct AprioriOptions {
  // Minimum support as a fraction of the transaction count.
  double minsup = 0.01;
  // Hash-tree shape.
  size_t leaf_capacity = 32;
  size_t fanout = 64;
  // Workers for the per-pass subset counting (1 = serial, 0 = all hardware
  // cores). Counts are accumulated per worker and reduced in shard order,
  // so the mined itemsets are identical at any thread count.
  size_t num_threads = 1;
};

// The smallest count that meets `minsup` over `num_records`:
// ceil(minsup * num_records), less a 1e-9 tolerance so that a product
// such as 0.3 * 10 that lands just above an integer rounds to it, and at
// least 1. Every miner applies this one rounding, so their frequent sets
// agree.
uint64_t MinSupportCount(double minsup, uint64_t num_records);

// Candidate generation (the apriori-gen function): joins L_{k-1} with itself
// on the first k-2 items and prunes joins with an infrequent (k-1)-subset.
// `frequent` must be lexicographically sorted; so is the result.
std::vector<std::vector<int32_t>> AprioriGen(
    const std::vector<std::vector<int32_t>>& frequent);

// The same over flat buffers: `frequent` holds sorted rows of m ids each,
// `candidates` receives the (m+1)-rows. `scratch` is reused across calls,
// so a caller looping over many small sets (ap-genrules' consequents)
// allocates nothing per call.
void AprioriGenFlat(const std::vector<int32_t>& frequent, size_t m,
                    std::vector<int32_t>* candidates,
                    std::vector<int32_t>* scratch);

// Mines all frequent itemsets (k >= 1) of `transactions`. Results are
// ordered by size, then lexicographically.
std::vector<FrequentItemset> AprioriMine(
    const std::vector<Transaction>& transactions,
    const AprioriOptions& options);

}  // namespace qarm

#endif  // QARM_MINING_APRIORI_H_
