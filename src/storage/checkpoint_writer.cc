#include <cstdint>
#include <string>

#include "storage/byte_reader.h"
#include "storage/checkpoint_format.h"

namespace qarm {
namespace {

void AppendValueCounts(const std::vector<std::vector<uint64_t>>& value_counts,
                       std::string* out) {
  QbtAppendU32(out, static_cast<uint32_t>(value_counts.size()));
  for (const std::vector<uint64_t>& counts : value_counts) {
    QbtAppendU64(out, counts.size());
    for (uint64_t count : counts) QbtAppendU64(out, count);
  }
}

std::string EncodePayload(const CheckpointState& state) {
  std::string out;
  QbtAppendU64(&out, state.fingerprint);
  QbtAppendU64(&out, state.num_rows);
  QbtAppendU32(&out, state.num_attributes);
  QbtAppendU32(&out, state.flags);
  QbtAppendU64(&out, state.options_fingerprint);
  QbtAppendU64(&out, state.base_num_blocks);
  QbtAppendU32(&out, state.base_index_crc);

  EncodeCheckpointCatalog(state.catalog, &out);

  QbtAppendU32(&out, static_cast<uint32_t>(state.passes.size()));
  for (const CheckpointPass& pass : state.passes) {
    QbtAppendU32(&out, pass.k);
    QbtAppendU64(&out, pass.num_candidates);
    QbtAppendU64(&out, pass.counts.size());
    for (int32_t id : pass.itemsets) QbtAppendI32(&out, id);
    for (uint64_t count : pass.counts) QbtAppendU64(&out, count);
    QbtAppendU64(&out, pass.candidate_counts.size());
    for (uint32_t count : pass.candidate_counts) QbtAppendU32(&out, count);
  }
  return out;
}

}  // namespace

void EncodeCheckpointCatalog(const CheckpointCatalog& catalog,
                             std::string* out) {
  QbtAppendU64(out, catalog.num_records);
  QbtAppendU64(out, catalog.items_pruned_by_interest);
  QbtAppendU64(out, catalog.item_counts.size());
  for (int32_t word : catalog.item_words) QbtAppendI32(out, word);
  for (uint64_t count : catalog.item_counts) QbtAppendU64(out, count);
  AppendValueCounts(catalog.value_counts, out);
}

void EncodeShardSnapshot(const ShardSnapshot& snapshot, std::string* out) {
  out->append(kShardSnapshotMagic, sizeof(kShardSnapshotMagic));
  QbtAppendU32(out, kShardSnapshotVersion);
  QbtAppendU64(out, snapshot.fingerprint);
  QbtAppendU32(out, snapshot.worker_id);
  QbtAppendU64(out, snapshot.block_begin);
  QbtAppendU64(out, snapshot.block_end);
  QbtAppendU64(out, snapshot.num_rows);
  AppendValueCounts(snapshot.value_counts, out);
  AppendStatsWire(snapshot.io, out);
}

Status WriteCheckpoint(const CheckpointState& state, const std::string& path,
                       uint64_t* bytes_written) {
  if (state.catalog.item_words.size() !=
      state.catalog.item_counts.size() * 3) {
    return Status::InvalidArgument(
        "checkpoint catalog item words/counts out of sync");
  }
  for (const CheckpointPass& pass : state.passes) {
    if (pass.k == 0 || pass.itemsets.size() != pass.counts.size() * pass.k) {
      return Status::InvalidArgument(
          "checkpoint pass itemsets/counts out of sync");
    }
    if (!pass.candidate_counts.empty() &&
        pass.candidate_counts.size() != pass.num_candidates) {
      return Status::InvalidArgument(
          "checkpoint pass candidate counts do not match the candidate "
          "count");
    }
  }

  const std::string bytes =
      EncodeEnvelope(kCheckpointFormat, /*header_word=*/0, "",
                     EncodePayload(state));
  QARM_RETURN_NOT_OK(WriteFileAtomic(path, bytes));
  if (bytes_written != nullptr) *bytes_written = bytes.size();
  return Status::OK();
}

}  // namespace qarm
