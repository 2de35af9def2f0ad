// The Hello/HelloAck handshake codecs against the wire's worst: every
// truncation point, version skew (a readable diagnostic naming both
// versions, not a CRC error), hostile length prefixes that must be
// rejected before any allocation, out-of-range execution knobs, and
// trailing bytes.
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "core/options.h"
#include "dist/handshake.h"
#include "storage/qbt_format.h"

namespace qarm {
namespace {

DistHello SampleHello() {
  DistHello hello;
  hello.worker_id = 3;
  hello.generation = 2;
  hello.fingerprint = 0xabcdef0123456789ULL;
  hello.num_threads = 4;
  hello.counter_memory_budget_bytes = 1 << 20;
  hello.heartbeat_ms = 250;
  hello.io_timeout_ms = 5000;
  hello.inject_faults_spec = "seed=5,rate=1,kinds=conn_reset";
  return hello;
}

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

TEST(DistHandshakeTest, HelloRoundTripsEveryField) {
  const DistHello hello = SampleHello();
  std::string payload;
  EncodeHello(hello, &payload);
  Result<DistHello> parsed = ParseHello(Bytes(payload), payload.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, kDistProtocolVersion);
  EXPECT_EQ(parsed->worker_id, 3u);
  EXPECT_EQ(parsed->generation, 2u);
  EXPECT_EQ(parsed->fingerprint, hello.fingerprint);
  EXPECT_EQ(parsed->num_threads, 4u);
  EXPECT_EQ(parsed->counter_memory_budget_bytes, hello.counter_memory_budget_bytes);
  EXPECT_EQ(parsed->heartbeat_ms, 250u);
  EXPECT_EQ(parsed->io_timeout_ms, 5000u);
  EXPECT_EQ(parsed->inject_faults_spec, hello.inject_faults_spec);
}

TEST(DistHandshakeTest, HelloAckRoundTripsEveryField) {
  DistHelloAck ack;
  ack.worker_id = 9;
  ack.generation = 1;
  ack.fingerprint = 42;
  ack.num_rows = 123456;
  ack.num_blocks = 97;
  ack.index_crc = 0xdeadbeef;
  std::string payload;
  EncodeHelloAck(ack, &payload);
  Result<DistHelloAck> parsed = ParseHelloAck(Bytes(payload), payload.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->worker_id, 9u);
  EXPECT_EQ(parsed->generation, 1u);
  EXPECT_EQ(parsed->fingerprint, 42u);
  EXPECT_EQ(parsed->num_rows, 123456u);
  EXPECT_EQ(parsed->num_blocks, 97u);
  EXPECT_EQ(parsed->index_crc, 0xdeadbeefu);
}

TEST(DistHandshakeTest, VersionMismatchNamesBothVersions) {
  std::string payload;
  EncodeHello(SampleHello(), &payload);
  // The version is the FIRST field precisely so this check can run before
  // any layout assumption; patch it to a future value.
  const uint32_t future = kDistProtocolVersion + 7;
  std::memcpy(payload.data(), &future, sizeof(future));
  Result<DistHello> parsed = ParseHello(Bytes(payload), payload.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  const std::string message = parsed.status().ToString();
  EXPECT_NE(message.find("version mismatch"), std::string::npos) << message;
  EXPECT_NE(message.find(std::to_string(future)), std::string::npos)
      << message;
  EXPECT_NE(message.find(std::to_string(kDistProtocolVersion)),
            std::string::npos)
      << message;

  std::string ack_payload;
  EncodeHelloAck(DistHelloAck(), &ack_payload);
  std::memcpy(ack_payload.data(), &future, sizeof(future));
  Result<DistHelloAck> ack =
      ParseHelloAck(Bytes(ack_payload), ack_payload.size());
  ASSERT_FALSE(ack.ok());
  EXPECT_NE(ack.status().ToString().find("version mismatch"),
            std::string::npos);
}

TEST(DistHandshakeTest, EveryHelloTruncationFailsCleanly) {
  std::string payload;
  EncodeHello(SampleHello(), &payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(ParseHello(Bytes(payload), cut).ok()) << "cut=" << cut;
  }
}

TEST(DistHandshakeTest, EveryHelloAckTruncationFailsCleanly) {
  std::string payload;
  EncodeHelloAck(DistHelloAck(), &payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(ParseHelloAck(Bytes(payload), cut).ok()) << "cut=" << cut;
  }
}

TEST(DistHandshakeTest, TrailingBytesAreRejected) {
  std::string payload;
  EncodeHello(SampleHello(), &payload);
  payload += '\0';
  EXPECT_FALSE(ParseHello(Bytes(payload), payload.size()).ok());

  std::string ack_payload;
  EncodeHelloAck(DistHelloAck(), &ack_payload);
  ack_payload += 'x';
  EXPECT_FALSE(ParseHelloAck(Bytes(ack_payload), ack_payload.size()).ok());
}

TEST(DistHandshakeTest, FaultSpecLengthBombIsRejectedBeforeAllocation) {
  // A Hello whose fault-spec length claims ~2^64 bytes: the parse must
  // fail on the remaining-size check, not die allocating. Build a valid
  // Hello with an empty spec, then overwrite the trailing length field.
  DistHello hello = SampleHello();
  hello.inject_faults_spec.clear();
  std::string payload;
  EncodeHello(hello, &payload);
  std::string bomb = payload.substr(0, payload.size() - 8);
  QbtAppendU64(&bomb, ~0ull);
  EXPECT_FALSE(ParseHello(Bytes(bomb), bomb.size()).ok());
  // And a length past the cap but within the payload's own claim.
  bomb = payload.substr(0, payload.size() - 8);
  QbtAppendU64(&bomb, kDistMaxFaultSpecBytes + 1);
  EXPECT_FALSE(ParseHello(Bytes(bomb), bomb.size()).ok());
}

// The Hello's thread count obeys MinerOptions::Validate's bound: a worker,
// forked or TCP, must answer an oversized one with kError instead of
// trying to start that many scan threads.
TEST(DistHandshakeTest, ThreadCountAboveTheOptionsCapIsRejected) {
  DistHello hello = SampleHello();
  hello.num_threads = MinerOptions::kMaxThreads;
  std::string payload;
  EncodeHello(hello, &payload);
  EXPECT_TRUE(ParseHello(Bytes(payload), payload.size()).ok());

  hello.num_threads = MinerOptions::kMaxThreads + 1;
  payload.clear();
  EncodeHello(hello, &payload);
  Result<DistHello> parsed = ParseHello(Bytes(payload), payload.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().ToString().find("num_threads"),
            std::string::npos)
      << parsed.status().ToString();
}

}  // namespace
}  // namespace qarm
