// QCP ("Quantitative Checkpoint") — the on-disk snapshot the miner writes
// at pass boundaries so a crashed or killed run resumes at pass k+1 instead
// of restarting from scratch. The level-wise algorithm makes pass
// boundaries natural durable points: the item catalog plus the frequent
// itemsets of every completed pass fully determine the rest of the run, so
// a resumed run emits bit-identical rules to an uninterrupted one.
//
// The checkpoint is expressed in storage-neutral vectors (item triples,
// flat id sequences) rather than core types, keeping this layer free of
// core dependencies; src/core/mining_checkpoint.{h,cc} converts to and from
// the miner's structures.
//
// Layout (version 2, the only version the reader accepts; all integers
// little-endian via the QBT helpers):
//
//   Header (24 bytes)
//     [0]  u8[4]  magic "QCP1"
//     [4]  u32    endian marker 0x0A0B0C0D (shared with QBT)
//     [8]  u32    format version (kCheckpointVersion)
//     [12] u32    reserved (0)
//     [16] u64    payload_size
//
//   Payload (payload_size bytes)
//     u64 fingerprint        run identity: output-affecting options + the
//                            source's shape (rows, attributes, domains);
//                            a mismatch means the checkpoint is stale
//     u64 num_rows
//     u32 num_attributes
//     u32 flags                  bit 0: the run COMPLETED (the file is
//                                an incremental-mining base, not resume
//                                progress)
//     u64 options_fingerprint    fingerprint of the output-affecting
//                                options + attribute schema, EXCLUDING the
//                                row count — decides whether a completed
//                                base is reusable after the file grew
//     u64 base_num_blocks        QBT blocks covered by this state
//     u32 base_index_crc         CRC-32 of those blocks' index entries
//                                (QbtReader::IndexPrefixCrc)
//     -- catalog --
//     u64 num_records
//     u64 items_pruned_by_interest
//     u64 num_items
//       per item: i32 attr, i32 lo, i32 hi
//       per item: u64 count
//     u32 value-count vector count (== num_attributes)
//       per attribute: u64 size, then u64 per value
//     -- completed passes --
//     u32 num_passes
//       per pass: u32 k, u64 num_candidates, u64 num_frequent,
//                 i32 * (k * num_frequent) item ids,
//                 u64 * num_frequent supports,
//                 u64 num_candidate_counts (0 = absent, else ==
//                 num_candidates), u32 * num_candidate_counts — the FULL
//                 per-candidate counts in generation order, which is what
//                 lets an incremental run add delta counts positionally
//                 instead of recounting the base
//
//   Tail (8 bytes)
//     u32    CRC-32 of the payload bytes
//     u8[4]  end magic "QCPE"
//
// The header and tail are the CRC envelope shared with QRS, and the file is
// written with WriteFileAtomic (storage/byte_reader.h): to "<path>.tmp",
// flushed and (on POSIX) fsynced, then renamed over <path>, so a crash
// mid-write leaves the previous checkpoint intact. The reader maps the file
// and validates the envelope (magic, endianness, version, size, CRC), then
// decodes the payload with ByteReader, which checks every declared count
// against the remaining bytes (in division form, before any allocation);
// any mismatch is a clean Status and the miner restarts from scratch.
#ifndef QARM_STORAGE_CHECKPOINT_FORMAT_H_
#define QARM_STORAGE_CHECKPOINT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/byte_reader.h"
#include "storage/record_source.h"

namespace qarm {

inline constexpr char kCheckpointMagic[4] = {'Q', 'C', 'P', '1'};
inline constexpr char kCheckpointEndMagic[4] = {'Q', 'C', 'P', 'E'};
inline constexpr uint32_t kCheckpointVersion = 2;

// CheckpointState::flags bit: the run this state describes ran to
// completion — the state is a reusable incremental-mining base rather than
// mid-run resume progress.
inline constexpr uint32_t kCheckpointFlagComplete = 1u;
inline constexpr size_t kCheckpointHeaderSize = kEnvelopeHeaderSize;
inline constexpr size_t kCheckpointTailSize = kEnvelopeTailSize;
inline constexpr FileFormat kCheckpointFormat = {
    "checkpoint", kCheckpointMagic, kCheckpointEndMagic, kCheckpointVersion,
    0};

// The item catalog's serialized state (see core/frequent_items.h).
struct CheckpointCatalog {
  uint64_t num_records = 0;
  uint64_t items_pruned_by_interest = 0;
  std::vector<int32_t> item_words;    // 3 per item: attr, lo, hi
  std::vector<uint64_t> item_counts;  // parallel to items
  std::vector<std::vector<uint64_t>> value_counts;  // per attribute
};

// One completed pass: its frequent k-itemsets (flat, k item ids each) with
// their support counts. The last entry's itemsets are the frontier the
// resumed run continues from.
struct CheckpointPass {
  uint32_t k = 0;
  uint64_t num_candidates = 0;
  std::vector<int32_t> itemsets;  // k ids per itemset
  std::vector<uint64_t> counts;   // one per itemset
  // Full per-candidate support counts in generation order (empty = not
  // recorded, or num_candidates entries). Incremental mining merges delta
  // counts into these positionally.
  std::vector<uint32_t> candidate_counts;
};

struct CheckpointState {
  uint64_t fingerprint = 0;
  uint64_t num_rows = 0;
  uint32_t num_attributes = 0;
  // kCheckpointFlag* bits.
  uint32_t flags = 0;
  // Row-count-independent run identity: the same options and attribute
  // schema over a grown file keep this fingerprint, while `fingerprint`
  // (which mixes the row count) changes.
  uint64_t options_fingerprint = 0;
  // The QBT block range this state covers and the CRC of those blocks'
  // index entries: an incremental run re-validates that the base blocks
  // are byte-identical before adding delta counts on top.
  uint64_t base_num_blocks = 0;
  uint32_t base_index_crc = 0;
  CheckpointCatalog catalog;
  std::vector<CheckpointPass> passes;
};

// Serializes `state` and writes it atomically (temp file + rename) to
// `path`. The file size lands in `*bytes_written` when non-null. IOError on
// any filesystem failure; the previous checkpoint at `path`, if any, is
// left untouched on failure.
Status WriteCheckpoint(const CheckpointState& state, const std::string& path,
                       uint64_t* bytes_written = nullptr);

// Parses a checkpoint from an in-memory buffer (the fuzz entry point; the
// file reader delegates here). Every declared size is validated against the
// remaining bytes before allocation.
Result<CheckpointState> ParseCheckpoint(const uint8_t* data, size_t size);

// Reads and validates the checkpoint at `path`.
Result<CheckpointState> ReadCheckpoint(const std::string& path);

// --- Shard snapshots (distributed mining, src/dist) -----------------------
//
// A shard snapshot is the QCP format's message variant: one worker's pass-1
// marginals (per-attribute value counts) over its contiguous block range,
// exchanged over the coordinator transport instead of written to disk. It
// reuses the checkpoint catalog's value-count encoding so the merge format
// and the durable format stay one format. The outer transport frames and
// CRC-protects the bytes; the snapshot carries its own magic and version so
// a stray or stale message is rejected with a clean Status.
//
// Layout: u8[4] magic "QCPS", u32 version, u64 fingerprint, u32 worker_id,
// u64 block_begin, u64 block_end, u64 num_rows, then the value-count
// vectors (u32 vector count, per attribute u64 size + u64 per value) and
// the shard's ScanIoStats in its wire form (storage/stats_fields.h).

inline constexpr char kShardSnapshotMagic[4] = {'Q', 'C', 'P', 'S'};
inline constexpr uint32_t kShardSnapshotVersion = 4;

struct ShardSnapshot {
  uint64_t fingerprint = 0;  // same run fingerprint as the checkpoint
  uint32_t worker_id = 0;
  uint64_t block_begin = 0;  // the shard: blocks [block_begin, block_end)
  uint64_t block_end = 0;
  uint64_t num_rows = 0;  // rows scanned in the shard
  std::vector<std::vector<uint64_t>> value_counts;  // per attribute
  ScanIoStats io;  // the shard's pass-1 I/O, summed by the coordinator
};

void EncodeShardSnapshot(const ShardSnapshot& snapshot, std::string* out);
Result<ShardSnapshot> ParseShardSnapshot(const uint8_t* data, size_t size);

// The catalog section of the checkpoint payload as a standalone buffer —
// the coordinator broadcasts the merged catalog to workers in exactly the
// bytes a checkpoint would persist.
void EncodeCheckpointCatalog(const CheckpointCatalog& catalog,
                             std::string* out);
Result<CheckpointCatalog> ParseCheckpointCatalog(const uint8_t* data,
                                                 size_t size);

}  // namespace qarm

#endif  // QARM_STORAGE_CHECKPOINT_FORMAT_H_
