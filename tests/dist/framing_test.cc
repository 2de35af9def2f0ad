// The distributed transport layer in isolation: frame round-trips over a
// real socketpair (the channel a forked worker is launched with), every corruption the coordinator treats as a dead
// worker (bad magic, truncation, CRC mismatch, oversize length), and the
// message encoders against truncated/hostile payloads.
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "dist/framing.h"
#include "dist/handshake.h"
#include "dist/messages.h"
#include "dist/transport.h"
#include "storage/checkpoint_format.h"
#include "storage/crc32.h"
#include "storage/qbt_format.h"

namespace qarm {
namespace {

class DistFramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer_ = std::make_unique<TcpTransport>(fds[0], kTimeoutMs, kTimeoutMs);
    reader_ = std::make_unique<TcpTransport>(fds[1], kTimeoutMs, kTimeoutMs);
  }
  void CloseWriter() { writer_->Close(); }
  // Raw bytes straight onto the wire, bypassing SendFrame.
  void WriteRaw(const std::string& bytes) {
    ASSERT_TRUE(writer_->Write(bytes.data(), bytes.size()).ok());
  }

  // The socket transport's deadlines, generous enough to never trip here.
  static constexpr uint64_t kTimeoutMs = 10000;

  std::unique_ptr<TcpTransport> writer_;
  std::unique_ptr<TcpTransport> reader_;
};

TEST_F(DistFramingTest, RoundTripsPayloadsOfEverySize) {
  // The 1 MiB payload exceeds any socketpair buffer, so the send must run
  // on its own thread while this one drains — exactly the full-duplex shape
  // the coordinator and workers use.
  const std::vector<std::string> payloads = {
      "", "x", std::string(100, 'a'), std::string(1 << 20, 'b')};
  for (size_t i = 0; i < payloads.size(); ++i) {
    uint64_t sent = 0;
    Status send_status;
    std::thread sender([&]() {
      send_status = SendFrame(*writer_, static_cast<uint32_t>(i + 1),
                              payloads[i], &sent);
    });
    uint64_t received = 0;
    Result<DistFrame> frame = RecvFrame(*reader_, &received);
    sender.join();
    ASSERT_TRUE(send_status.ok()) << send_status.ToString();
    EXPECT_EQ(sent, kDistFrameHeaderSize + payloads[i].size() + 4);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, i + 1);
    EXPECT_EQ(frame->payload, payloads[i]);
    EXPECT_EQ(received, sent);
  }
}

TEST_F(DistFramingTest, EofBeforeAnyByteIsIoError) {
  CloseWriter();
  Result<DistFrame> frame = RecvFrame(*reader_);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIOError);
}

TEST_F(DistFramingTest, EofMidFrameIsIoError) {
  WriteRaw(std::string(kDistFrameMagic, 4));  // header cut short
  CloseWriter();
  Result<DistFrame> frame = RecvFrame(*reader_);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIOError);
}

TEST_F(DistFramingTest, BadMagicIsIoError) {
  std::string bytes = "NOPE";
  QbtAppendU32(&bytes, 1);
  QbtAppendU64(&bytes, 0);
  QbtAppendU32(&bytes, Crc32("", 0));
  WriteRaw(bytes);
  Result<DistFrame> frame = RecvFrame(*reader_);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().ToString().find("magic"), std::string::npos);
}

TEST_F(DistFramingTest, OversizeLengthIsRejectedWithoutAllocating) {
  std::string bytes(kDistFrameMagic, 4);
  QbtAppendU32(&bytes, 1);
  QbtAppendU64(&bytes, kDistMaxPayload + 1);
  WriteRaw(bytes);
  Result<DistFrame> frame = RecvFrame(*reader_);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().ToString().find("exceeds limit"),
            std::string::npos);
}

TEST_F(DistFramingTest, CorruptPayloadFailsTheCrc) {
  // A valid frame with one payload byte flipped on the wire.
  const std::string payload = "count data";
  std::string bytes(kDistFrameMagic, 4);
  QbtAppendU32(&bytes, 5);
  QbtAppendU64(&bytes, payload.size());
  bytes += payload;
  QbtAppendU32(&bytes, Crc32(payload.data(), payload.size()));
  bytes[kDistFrameHeaderSize + 2] ^= 0x40;
  WriteRaw(bytes);
  Result<DistFrame> frame = RecvFrame(*reader_);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().ToString().find("CRC"), std::string::npos);
}

TEST(DistMessagesTest, CountRequestRoundTripsMaterializedIds) {
  DistCountRequest request;
  request.k = 3;
  request.num_candidates = 2;
  request.ids = {0, 4, 9, 1, 4, 11};
  std::string payload;
  EncodeCountRequest(request, &payload);
  Result<DistCountRequest> parsed = ParseCountRequest(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->k, 3u);
  EXPECT_FALSE(parsed->implicit_pairs);
  EXPECT_EQ(parsed->num_candidates, 2u);
  EXPECT_EQ(parsed->ids, request.ids);
}

TEST(DistMessagesTest, CountRequestRoundTripsImplicitPairs) {
  DistCountRequest request;
  request.k = 2;
  request.implicit_pairs = true;
  request.num_candidates = 3400000;  // no ids travel with the flag
  std::string payload;
  EncodeCountRequest(request, &payload);
  EXPECT_EQ(payload.size(), 4u + 4u + 8u);
  Result<DistCountRequest> parsed = ParseCountRequest(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->implicit_pairs);
  EXPECT_EQ(parsed->num_candidates, 3400000u);
  EXPECT_TRUE(parsed->ids.empty());
}

TEST(DistMessagesTest, CountRequestRejectsTruncationAndOverflowCounts) {
  DistCountRequest request;
  request.k = 2;
  request.num_candidates = 4;
  request.ids = {0, 1, 0, 2, 1, 2, 1, 3};
  std::string payload;
  EncodeCountRequest(request, &payload);
  for (size_t cut : {payload.size() - 1, payload.size() - 9, size_t{3}}) {
    EXPECT_FALSE(ParseCountRequest(
                     reinterpret_cast<const uint8_t*>(payload.data()), cut)
                     .ok())
        << "cut=" << cut;
  }
  // A hostile candidate count far past the payload must not allocate.
  std::string hostile;
  QbtAppendU32(&hostile, 2);
  QbtAppendU32(&hostile, 0);
  QbtAppendU64(&hostile, ~0ull);
  EXPECT_FALSE(ParseCountRequest(
                   reinterpret_cast<const uint8_t*>(hostile.data()),
                   hostile.size())
                   .ok());
}

// EncodeCountRequest writes the implicit-pairs word as 0 or 1; any other
// value is a non-canonical encoding and is rejected.
TEST(DistMessagesTest, CountRequestRejectsNonCanonicalImplicitFlag) {
  DistCountRequest request;
  request.k = 2;
  request.implicit_pairs = true;
  request.num_candidates = 6;
  std::string payload;
  EncodeCountRequest(request, &payload);
  payload[4] = 2;
  Result<DistCountRequest> parsed = ParseCountRequest(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
}

// The payload of seed `name` of the frame fuzz corpus: the file after its
// first byte, the harness's selector. Empty when the seed is missing.
std::string SeedPayload(const char* name) {
  std::ifstream in(std::string(QARM_FRAME_CORPUS_DIR) + "/" + name,
                   std::ios::binary);
  const std::string seed((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return seed.empty() ? seed : seed.substr(1);
}

// Decodes the valid seed `name` and re-encodes it.
template <typename Message>
void ExpectSeedRoundTrips(const char* name,
                          Result<Message> (*parse)(const uint8_t*, size_t),
                          void (*encode)(const Message&, std::string*)) {
  const std::string payload = SeedPayload(name);
  ASSERT_FALSE(payload.empty()) << name;
  Result<Message> parsed = parse(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
  std::string reencoded;
  encode(*parsed, &reencoded);
  EXPECT_EQ(reencoded, payload) << name;
}

// The checked-in seeds are bytes written by earlier builds' encoders; every
// message must still accept them and re-encode them byte for byte, so a
// decoder or encoder change that moves the wire format fails here.
TEST(DistMessagesTest, CorpusSeedsDecodeAndReencodeByteForByte) {
  ExpectSeedRoundTrips("hello_ok", &ParseHello, &EncodeHello);
  ExpectSeedRoundTrips("ack_ok", &ParseHelloAck, &EncodeHelloAck);
  ExpectSeedRoundTrips("request_ok", &ParseCountRequest, &EncodeCountRequest);
  ExpectSeedRoundTrips("request_implicit", &ParseCountRequest,
                       &EncodeCountRequest);
  ExpectSeedRoundTrips("reply_ok", &ParseCountReply, &EncodeCountReply);
  ExpectSeedRoundTrips("snapshot_ok", &ParseShardSnapshot,
                       &EncodeShardSnapshot);
  ExpectSeedRoundTrips("catalog_ok", &ParseCheckpointCatalog,
                       &EncodeCheckpointCatalog);
}

// Hello and HelloAck bytes of earlier protocol versions: a peer that still
// speaks one is refused by version, with both versions named, before any
// field of the changed layout is read.
TEST(DistMessagesTest, EarlierProtocolSeedsAreRejectedByVersion) {
  for (const auto& [name, version] :
       {std::pair{"hello_v1", 1}, {"hello_v2", 2}, {"hello_v3", 3},
        {"ack_v1", 1}, {"ack_v2", 2}, {"ack_v3", 3}}) {
    const std::string payload = SeedPayload(name);
    ASSERT_FALSE(payload.empty()) << name;
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(payload.data());
    const Status status = name[0] == 'h'
                              ? ParseHello(bytes, payload.size()).status()
                              : ParseHelloAck(bytes, payload.size()).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(status.ToString().find(StrFormat(
                  "peer speaks %d, this binary speaks %u", version,
                  kDistProtocolVersion)),
              std::string::npos)
        << status.ToString();
  }
}

// A reply whose every CountingStats field, io included, is distinct.
DistCountReply EveryFieldReply() {
  DistCountReply reply;
  reply.worker_id = 3;
  reply.counts = {7, 9};
  CountingStats& stats = reply.stats;
  stats.num_super_candidates = 11;
  stats.num_array_counters = 12;
  stats.num_tree_counters = 13;
  stats.num_direct = 14;
  stats.num_degraded = 15;
  stats.threads_used = 17;
  stats.isa = SimdIsa::kAvx2;
  stats.io = {18, 19, 0.5, 21};
  stats.counter_bytes = 22;
  stats.replicated_bytes = 23;
  stats.group_seconds = 0.25;
  stats.build_seconds = 0.125;
  stats.scan_seconds = 1.5;
  stats.reduce_seconds = 2.75;
  return reply;
}

std::string Hex(const std::string& bytes) {
  std::string out;
  for (unsigned char c : bytes) {
    out += "0123456789abcdef"[c >> 4];
    out += "0123456789abcdef"[c & 15];
  }
  return out;
}

TEST(DistMessagesTest, CountReplyRoundTripsCountsAndStats) {
  const DistCountReply reply = EveryFieldReply();
  std::string payload;
  EncodeCountReply(reply, &payload);
  // worker_id, count list, then the stats in wire order: the six counter
  // u64s, the isa u32, the four io fields, the two byte counts and the four
  // phase times (little-endian IEEE doubles).
  EXPECT_EQ(Hex(payload),
            "03000000" "0200000000000000" "07000000" "09000000"
            "0b00000000000000" "0c00000000000000" "0d00000000000000"
            "0e00000000000000" "0f00000000000000" "1100000000000000"
            "02000000"
            "1200000000000000" "1300000000000000" "000000000000e03f"
            "1500000000000000"
            "1600000000000000" "1700000000000000"
            "000000000000d03f" "000000000000c03f" "000000000000f83f"
            "0000000000000640");
  Result<DistCountReply> parsed = ParseCountReply(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->worker_id, 3u);
  EXPECT_EQ(parsed->counts, reply.counts);
  const CountingStats& got = parsed->stats;
  EXPECT_EQ(got.num_super_candidates, 11u);
  EXPECT_EQ(got.num_array_counters, 12u);
  EXPECT_EQ(got.num_tree_counters, 13u);
  EXPECT_EQ(got.num_direct, 14u);
  EXPECT_EQ(got.num_degraded, 15u);
  EXPECT_EQ(got.threads_used, 17u);
  EXPECT_EQ(got.isa, SimdIsa::kAvx2);
  EXPECT_EQ(got.io.blocks_read, 18u);
  EXPECT_EQ(got.io.bytes_read, 19u);
  EXPECT_EQ(got.io.checksum_seconds, 0.5);
  EXPECT_EQ(got.io.faults_injected, 21u);
  EXPECT_EQ(got.counter_bytes, 22u);
  EXPECT_EQ(got.replicated_bytes, 23u);
  EXPECT_EQ(got.group_seconds, 0.25);
  EXPECT_EQ(got.build_seconds, 0.125);
  EXPECT_EQ(got.scan_seconds, 1.5);
  EXPECT_EQ(got.reduce_seconds, 2.75);
  // Trailing garbage is a framing bug, not something to ignore.
  payload += 'x';
  EXPECT_FALSE(ParseCountReply(
                   reinterpret_cast<const uint8_t*>(payload.data()),
                   payload.size())
                   .ok());
}

// A count reply written byte by byte: worker 1, no counts, then stats
// whose isa is `isa` and whose scan time is `scan_seconds`.
std::string HandMadeReply(uint32_t isa, double scan_seconds) {
  std::string payload;
  QbtAppendU32(&payload, 1);  // worker_id
  QbtAppendU64(&payload, 0);  // no counts
  for (int i = 0; i < 6; ++i) QbtAppendU64(&payload, 1);  // counters
  QbtAppendU32(&payload, isa);
  QbtAppendU64(&payload, 2);     // io.blocks_read
  QbtAppendU64(&payload, 3);     // io.bytes_read
  QbtAppendF64(&payload, 0.5);   // io.checksum_seconds
  QbtAppendU64(&payload, 0);     // io.faults_injected
  QbtAppendU64(&payload, 4);     // counter_bytes
  QbtAppendU64(&payload, 0);     // replicated_bytes
  QbtAppendF64(&payload, 0.25);  // group_seconds
  QbtAppendF64(&payload, 0.25);  // build_seconds
  QbtAppendF64(&payload, scan_seconds);
  QbtAppendF64(&payload, 0.25);  // reduce_seconds
  return payload;
}

Result<DistCountReply> ParseReplyBytes(const std::string& payload) {
  return ParseCountReply(reinterpret_cast<const uint8_t*>(payload.data()),
                         payload.size());
}

// Rejects `payloads` with an IOError that names `field`.
void ExpectReplyRejected(const std::vector<std::string>& payloads,
                         const char* field) {
  for (const std::string& payload : payloads) {
    ASSERT_FALSE(payload.empty());
    Result<DistCountReply> parsed = ParseReplyBytes(payload);
    ASSERT_FALSE(parsed.ok()) << Hex(payload);
    EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
    EXPECT_NE(parsed.status().ToString().find(field), std::string::npos)
        << parsed.status().ToString();
  }
}

// The last payload of each is the frame corpus seed for the check.
TEST(DistMessagesTest, CountReplyRejectsAnIsaOutsideTheLadder) {
  Result<DistCountReply> ok = ParseReplyBytes(HandMadeReply(2, 1.0));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->stats.isa, SimdIsa::kAvx2);
  // 1 is off the ladder too: SimdIsa has no value between scalar and avx2.
  ExpectReplyRejected({HandMadeReply(1, 1.0), HandMadeReply(3, 1.0),
                       HandMadeReply(0xffffffff, 1.0),
                       SeedPayload("reply_bad_isa")},
                      "isa");
}

TEST(DistMessagesTest, CountReplyRejectsNonFiniteSeconds) {
  const double inf = std::numeric_limits<double>::infinity();
  ExpectReplyRejected(
      {HandMadeReply(2, std::numeric_limits<double>::quiet_NaN()),
       HandMadeReply(2, inf), HandMadeReply(2, -inf),
       SeedPayload("reply_nan_seconds")},
      "scan_seconds");
}

TEST(DistMessagesTest, ShardSnapshotRoundTrips) {
  ShardSnapshot snapshot;
  snapshot.fingerprint = 0xfeedfacecafef00dULL;
  snapshot.worker_id = 2;
  snapshot.block_begin = 10;
  snapshot.block_end = 20;
  snapshot.num_rows = 2560;
  snapshot.value_counts = {{5, 0, 12}, {}, {7, 7}};
  snapshot.io = {10, 123456, 0.75, 2};
  std::string payload;
  EncodeShardSnapshot(snapshot, &payload);
  Result<ShardSnapshot> parsed = ParseShardSnapshot(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->fingerprint, snapshot.fingerprint);
  EXPECT_EQ(parsed->worker_id, 2u);
  EXPECT_EQ(parsed->block_begin, 10u);
  EXPECT_EQ(parsed->block_end, 20u);
  EXPECT_EQ(parsed->num_rows, 2560u);
  EXPECT_EQ(parsed->value_counts, snapshot.value_counts);
  EXPECT_EQ(parsed->io.blocks_read, 10u);
  EXPECT_EQ(parsed->io.bytes_read, 123456u);
  EXPECT_EQ(parsed->io.checksum_seconds, 0.75);
  EXPECT_EQ(parsed->io.faults_injected, 2u);
}

TEST(DistMessagesTest, ShardSnapshotRejectsCorruption) {
  ShardSnapshot snapshot;
  snapshot.value_counts = {{1, 2}};
  std::string payload;
  EncodeShardSnapshot(snapshot, &payload);
  // Wrong magic.
  std::string bad = payload;
  bad[0] = 'X';
  EXPECT_FALSE(ParseShardSnapshot(
                   reinterpret_cast<const uint8_t*>(bad.data()), bad.size())
                   .ok());
  // Unknown version.
  bad = payload;
  bad[4] = static_cast<char>(kShardSnapshotVersion + 1);
  EXPECT_FALSE(ParseShardSnapshot(
                   reinterpret_cast<const uint8_t*>(bad.data()), bad.size())
                   .ok());
  // Every truncation point fails cleanly.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(ParseShardSnapshot(
                     reinterpret_cast<const uint8_t*>(payload.data()), cut)
                     .ok())
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace qarm
