#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "storage/byte_reader.h"
#include "storage/checkpoint_format.h"
#include "storage/mmap_file.h"

namespace qarm {
namespace {

Status ParseValueCounts(ByteReader* reader,
                        std::vector<std::vector<uint64_t>>* value_counts) {
  uint32_t num_value_vectors = 0;
  QARM_RETURN_NOT_OK(reader->ReadU32(&num_value_vectors));
  QARM_RETURN_NOT_OK(reader->NeedCount(num_value_vectors, 8));
  value_counts->resize(num_value_vectors);
  for (std::vector<uint64_t>& counts : *value_counts) {
    uint64_t num_values = 0;
    QARM_RETURN_NOT_OK(reader->ReadU64(&num_values));
    QARM_RETURN_NOT_OK(reader->ReadU64Array(num_values, &counts));
  }
  return Status::OK();
}

Status ParseCatalogSection(ByteReader* reader, CheckpointCatalog* catalog) {
  QARM_RETURN_NOT_OK(reader->ReadU64(&catalog->num_records));
  QARM_RETURN_NOT_OK(reader->ReadU64(&catalog->items_pruned_by_interest));
  uint64_t num_items = 0;
  QARM_RETURN_NOT_OK(reader->ReadU64(&num_items));
  QARM_RETURN_NOT_OK(reader->NeedCount(num_items, 3 * 4 + 8));
  QARM_RETURN_NOT_OK(reader->ReadI32Array(num_items * 3, &catalog->item_words));
  QARM_RETURN_NOT_OK(reader->ReadU64Array(num_items, &catalog->item_counts));
  return ParseValueCounts(reader, &catalog->value_counts);
}

Status ParsePayload(const uint8_t* data, size_t size,
                    CheckpointState* state) {
  ByteReader reader(data, size, "checkpoint payload",
                    StatusCode::kInvalidArgument);
  QARM_RETURN_NOT_OK(reader.ReadU64(&state->fingerprint));
  QARM_RETURN_NOT_OK(reader.ReadU64(&state->num_rows));
  QARM_RETURN_NOT_OK(reader.ReadU32(&state->num_attributes));
  QARM_RETURN_NOT_OK(reader.ReadU32(&state->flags));
  QARM_RETURN_NOT_OK(reader.ReadU64(&state->options_fingerprint));
  QARM_RETURN_NOT_OK(reader.ReadU64(&state->base_num_blocks));
  QARM_RETURN_NOT_OK(reader.ReadU32(&state->base_index_crc));

  CheckpointCatalog& catalog = state->catalog;
  QARM_RETURN_NOT_OK(ParseCatalogSection(&reader, &catalog));
  if (catalog.value_counts.size() != state->num_attributes) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint has %zu value-count vectors for %u attributes",
        catalog.value_counts.size(), state->num_attributes));
  }

  uint32_t num_passes = 0;
  QARM_RETURN_NOT_OK(reader.ReadU32(&num_passes));
  QARM_RETURN_NOT_OK(reader.NeedCount(num_passes, 4 + 8 + 8));
  state->passes.resize(num_passes);
  for (CheckpointPass& pass : state->passes) {
    QARM_RETURN_NOT_OK(reader.ReadU32(&pass.k));
    if (pass.k == 0) {
      return Status::InvalidArgument("checkpoint pass has k == 0");
    }
    QARM_RETURN_NOT_OK(reader.ReadU64(&pass.num_candidates));
    uint64_t num_frequent = 0;
    QARM_RETURN_NOT_OK(reader.ReadU64(&num_frequent));
    // Each itemset costs k * 4 bytes of ids plus 8 bytes of count.
    QARM_RETURN_NOT_OK(
        reader.NeedCount(num_frequent, static_cast<size_t>(pass.k) * 4 + 8));
    QARM_RETURN_NOT_OK(
        reader.ReadI32Array(num_frequent * pass.k, &pass.itemsets));
    QARM_RETURN_NOT_OK(reader.ReadU64Array(num_frequent, &pass.counts));
    uint64_t num_candidate_counts = 0;
    QARM_RETURN_NOT_OK(reader.ReadU64(&num_candidate_counts));
    if (num_candidate_counts != 0 &&
        num_candidate_counts != pass.num_candidates) {
      return Status::InvalidArgument(
          "checkpoint pass candidate counts do not match the candidate count");
    }
    QARM_RETURN_NOT_OK(
        reader.ReadU32Array(num_candidate_counts, &pass.candidate_counts));
  }
  return reader.ExpectEnd();
}

}  // namespace

Result<CheckpointCatalog> ParseCheckpointCatalog(const uint8_t* data,
                                                 size_t size) {
  ByteReader reader(data, size, "catalog section",
                    StatusCode::kInvalidArgument);
  CheckpointCatalog catalog;
  QARM_RETURN_NOT_OK(ParseCatalogSection(&reader, &catalog));
  QARM_RETURN_NOT_OK(reader.ExpectEnd());
  return catalog;
}

Result<ShardSnapshot> ParseShardSnapshot(const uint8_t* data, size_t size) {
  ByteReader reader(data, size, "shard snapshot",
                    StatusCode::kInvalidArgument);
  if (size < sizeof(kShardSnapshotMagic) ||
      std::memcmp(data, kShardSnapshotMagic, sizeof(kShardSnapshotMagic)) !=
          0) {
    return Status::InvalidArgument("not a QCP shard snapshot (bad magic)");
  }
  QARM_RETURN_NOT_OK(reader.Skip(sizeof(kShardSnapshotMagic)));
  uint32_t version = 0;
  QARM_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kShardSnapshotVersion) {
    return Status::InvalidArgument(StrFormat(
        "unsupported shard snapshot version %u (expected %u)", version,
        kShardSnapshotVersion));
  }
  ShardSnapshot snapshot;
  QARM_RETURN_NOT_OK(reader.ReadU64(&snapshot.fingerprint));
  QARM_RETURN_NOT_OK(reader.ReadU32(&snapshot.worker_id));
  QARM_RETURN_NOT_OK(reader.ReadU64(&snapshot.block_begin));
  QARM_RETURN_NOT_OK(reader.ReadU64(&snapshot.block_end));
  QARM_RETURN_NOT_OK(reader.ReadU64(&snapshot.num_rows));
  QARM_RETURN_NOT_OK(ParseValueCounts(&reader, &snapshot.value_counts));
  QARM_RETURN_NOT_OK(ReadStatsWire(&reader, "io", &snapshot.io));
  QARM_RETURN_NOT_OK(reader.ExpectEnd());
  return snapshot;
}

Result<CheckpointState> ParseCheckpoint(const uint8_t* data, size_t size) {
  QARM_ASSIGN_OR_RETURN(Envelope envelope,
                        ParseEnvelope(kCheckpointFormat, data, size));
  CheckpointState state;
  QARM_RETURN_NOT_OK(
      ParsePayload(envelope.payload, envelope.payload_size, &state));
  return state;
}

Result<CheckpointState> ReadCheckpoint(const std::string& path) {
  Result<std::unique_ptr<MmapFile>> file = MmapFile::Open(path);
  // A missing checkpoint is the miner's cue to start from scratch.
  if (!file.ok()) return Status::NotFound(file.status().message());
  return ParseCheckpoint((*file)->data(), (*file)->size());
}

}  // namespace qarm
