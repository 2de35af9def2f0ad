// The checkpoint reader treats the file as untrusted input: corrupt,
// truncated, or foreign bytes must come back as a clean Status — never a
// crash or a silently wrong resume.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/checkpoint_format.h"

namespace qarm {
namespace {

CheckpointState SampleState() {
  CheckpointState state;
  state.fingerprint = 0xfeedface12345678ULL;
  state.num_rows = 1000;
  state.num_attributes = 2;
  state.catalog.num_records = 1000;
  state.catalog.items_pruned_by_interest = 1;
  // Two items: (attr 0, [0,1]) and (attr 1, [2,2]).
  state.catalog.item_words = {0, 0, 1, 1, 2, 2};
  state.catalog.item_counts = {400, 300};
  state.catalog.value_counts = {{100, 200, 300}, {50, 60, 70}};
  CheckpointPass pass1;
  pass1.k = 1;
  pass1.num_candidates = 5;
  pass1.itemsets = {0, 1};
  pass1.counts = {400, 300};
  CheckpointPass pass2;
  pass2.k = 2;
  pass2.num_candidates = 1;
  pass2.itemsets = {0, 1};
  pass2.counts = {250};
  state.passes = {pass1, pass2};
  return state;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

TEST(CheckpointFormatTest, RoundTrip) {
  const CheckpointState state = SampleState();
  const std::string path = TempPath("checkpoint_roundtrip.qcp");
  uint64_t bytes = 0;
  ASSERT_TRUE(WriteCheckpoint(state, path, &bytes).ok());
  EXPECT_GT(bytes, kCheckpointHeaderSize + kCheckpointTailSize);

  Result<CheckpointState> loaded = ReadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, state.fingerprint);
  EXPECT_EQ(loaded->num_rows, state.num_rows);
  EXPECT_EQ(loaded->num_attributes, state.num_attributes);
  EXPECT_EQ(loaded->catalog.num_records, state.catalog.num_records);
  EXPECT_EQ(loaded->catalog.items_pruned_by_interest,
            state.catalog.items_pruned_by_interest);
  EXPECT_EQ(loaded->catalog.item_words, state.catalog.item_words);
  EXPECT_EQ(loaded->catalog.item_counts, state.catalog.item_counts);
  EXPECT_EQ(loaded->catalog.value_counts, state.catalog.value_counts);
  ASSERT_EQ(loaded->passes.size(), state.passes.size());
  for (size_t p = 0; p < state.passes.size(); ++p) {
    EXPECT_EQ(loaded->passes[p].k, state.passes[p].k);
    EXPECT_EQ(loaded->passes[p].num_candidates,
              state.passes[p].num_candidates);
    EXPECT_EQ(loaded->passes[p].itemsets, state.passes[p].itemsets);
    EXPECT_EQ(loaded->passes[p].counts, state.passes[p].counts);
  }
}

TEST(CheckpointFormatTest, OverwriteReplacesAtomically) {
  const std::string path = TempPath("checkpoint_overwrite.qcp");
  CheckpointState state = SampleState();
  ASSERT_TRUE(WriteCheckpoint(state, path).ok());
  state.passes.resize(1);  // "earlier" pass set, different payload
  state.fingerprint = 99;
  ASSERT_TRUE(WriteCheckpoint(state, path).ok());
  Result<CheckpointState> loaded = ReadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->fingerprint, 99u);
  EXPECT_EQ(loaded->passes.size(), 1u);
}

TEST(CheckpointFormatTest, MissingFileIsNotFound) {
  Result<CheckpointState> loaded =
      ReadCheckpoint(TempPath("no_such_checkpoint.qcp"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointFormatTest, EveryPayloadByteFlipIsCaughtByCrc) {
  const std::string path = TempPath("checkpoint_flip.qcp");
  ASSERT_TRUE(WriteCheckpoint(SampleState(), path).ok());
  const std::vector<uint8_t> good = ReadAll(path);
  ASSERT_GT(good.size(), kCheckpointHeaderSize + kCheckpointTailSize);

  // Flip one bit in every 7th payload byte (all of them would be slow).
  for (size_t i = kCheckpointHeaderSize;
       i < good.size() - kCheckpointTailSize; i += 7) {
    std::vector<uint8_t> bad = good;
    bad[i] ^= 0x40;
    Result<CheckpointState> loaded =
        ParseCheckpoint(bad.data(), bad.size());
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << i;
  }
}

TEST(CheckpointFormatTest, EveryTruncationIsRejected) {
  const std::string path = TempPath("checkpoint_trunc.qcp");
  ASSERT_TRUE(WriteCheckpoint(SampleState(), path).ok());
  const std::vector<uint8_t> good = ReadAll(path);
  for (size_t len = 0; len < good.size(); len += 3) {
    Result<CheckpointState> loaded = ParseCheckpoint(good.data(), len);
    EXPECT_FALSE(loaded.ok()) << "truncated to " << len << " bytes";
  }
  // Trailing garbage is just as invalid as missing bytes.
  std::vector<uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(ParseCheckpoint(padded.data(), padded.size()).ok());
}

TEST(CheckpointFormatTest, BadMagicAndVersionAreRejected) {
  const std::string path = TempPath("checkpoint_magic.qcp");
  ASSERT_TRUE(WriteCheckpoint(SampleState(), path).ok());
  const std::vector<uint8_t> good = ReadAll(path);

  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseCheckpoint(bad_magic.data(), bad_magic.size()).ok());

  // Version lives at offset 8; an unknown version must be refused even
  // though the CRC would still need fixing — the version check fires first.
  // Version 1 is one of them: the reader accepts exactly kCheckpointVersion.
  for (uint8_t version : {uint8_t{1}, uint8_t{0x7f}}) {
    std::vector<uint8_t> bad_version = good;
    bad_version[8] = version;
    Result<CheckpointState> loaded =
        ParseCheckpoint(bad_version.data(), bad_version.size());
    ASSERT_FALSE(loaded.ok()) << int{version};
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
        << loaded.status().ToString();
  }

  std::vector<uint8_t> bad_end = good;
  bad_end[bad_end.size() - 1] = '?';
  EXPECT_FALSE(ParseCheckpoint(bad_end.data(), bad_end.size()).ok());
}

TEST(CheckpointFormatTest, CrcErrorNamesTheMismatch) {
  const std::string path = TempPath("checkpoint_crc.qcp");
  ASSERT_TRUE(WriteCheckpoint(SampleState(), path).ok());
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[kCheckpointHeaderSize] ^= 0xff;  // first payload byte
  Result<CheckpointState> loaded =
      ParseCheckpoint(bytes.data(), bytes.size());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

// Internal-consistency lies the CRC cannot catch (the payload is intact,
// just nonsense) are caught by the structural validation instead: a count
// that overruns the byte budget must be rejected before allocation.
TEST(CheckpointFormatTest, WriterRejectsInconsistentState) {
  CheckpointState state = SampleState();
  state.catalog.item_words.pop_back();  // no longer 3 * item_counts
  const std::string path = TempPath("checkpoint_inconsistent.qcp");
  EXPECT_FALSE(WriteCheckpoint(state, path).ok());

  state = SampleState();
  state.passes[1].counts.push_back(7);  // itemsets != counts * k
  EXPECT_FALSE(WriteCheckpoint(state, path).ok());
}

TEST(CheckpointFormatTest, WriteToUnwritablePathFailsCleanly) {
  const std::string path = "/nonexistent-dir/checkpoint.qcp";
  Status status = WriteCheckpoint(SampleState(), path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace qarm
