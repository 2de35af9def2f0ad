// The distributed transport layer in isolation: frame round-trips over a
// real socketpair (the channel a forked worker is launched with), every corruption the coordinator treats as a dead
// worker (bad magic, truncation, CRC mismatch, oversize length), and the
// message encoders against truncated/hostile payloads.
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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

// Decodes the valid seed `name` of the frame fuzz corpus (byte 0 is the
// harness's selector) and re-encodes it.
template <typename Message>
void ExpectSeedRoundTrips(const char* name,
                          Result<Message> (*parse)(const uint8_t*, size_t),
                          void (*encode)(const Message&, std::string*)) {
  std::ifstream in(std::string(QARM_FRAME_CORPUS_DIR) + "/" + name,
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << name;
  const std::string seed((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(seed.empty()) << name;
  const std::string payload = seed.substr(1);
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

TEST(DistMessagesTest, CountReplyRoundTripsCountsAndStats) {
  DistCountReply reply;
  reply.worker_id = 7;
  reply.counts = {0, 12, 99, 4};
  reply.stats.num_super_candidates = 5;
  reply.stats.num_array_counters = 3;
  reply.stats.threads_used = 4;
  reply.stats.io.blocks_read = 17;
  reply.stats.io.bytes_read = 4096;
  reply.stats.scan_seconds = 0.25;
  std::string payload;
  EncodeCountReply(reply, &payload);
  Result<DistCountReply> parsed = ParseCountReply(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->worker_id, 7u);
  EXPECT_EQ(parsed->counts, reply.counts);
  EXPECT_EQ(parsed->stats.num_super_candidates, 5u);
  EXPECT_EQ(parsed->stats.num_array_counters, 3u);
  EXPECT_EQ(parsed->stats.threads_used, 4u);
  EXPECT_EQ(parsed->stats.io.blocks_read, 17u);
  EXPECT_EQ(parsed->stats.io.bytes_read, 4096u);
  EXPECT_DOUBLE_EQ(parsed->stats.scan_seconds, 0.25);
  // Trailing garbage is a framing bug, not something to ignore.
  payload += 'x';
  EXPECT_FALSE(ParseCountReply(
                   reinterpret_cast<const uint8_t*>(payload.data()),
                   payload.size())
                   .ok());
}

TEST(DistMessagesTest, ShardSnapshotRoundTrips) {
  ShardSnapshot snapshot;
  snapshot.fingerprint = 0xfeedfacecafef00dULL;
  snapshot.worker_id = 2;
  snapshot.block_begin = 10;
  snapshot.block_end = 20;
  snapshot.num_rows = 2560;
  snapshot.value_counts = {{5, 0, 12}, {}, {7, 7}};
  snapshot.blocks_read = 10;
  snapshot.bytes_read = 123456;
  snapshot.read_retries = 1;
  snapshot.faults_injected = 2;
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
  EXPECT_EQ(parsed->blocks_read, 10u);
  EXPECT_EQ(parsed->bytes_read, 123456u);
  EXPECT_EQ(parsed->read_retries, 1u);
  EXPECT_EQ(parsed->faults_injected, 2u);
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
