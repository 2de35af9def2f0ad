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
#include "storage/byte_reader.h"
#include "storage/crc32.h"
#include "storage/qbt_format.h"

namespace qarm {
namespace {

using namespace std::string_literals;

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

std::string Hex(const std::string& bytes) {
  std::string out;
  for (unsigned char c : bytes) {
    out += "0123456789abcdef"[c >> 4];
    out += "0123456789abcdef"[c & 15];
  }
  return out;
}

// A plan with one group of every counter kind.
CountPlan EveryKindPlan() {
  CountPlan plan;
  plan.groups.resize(3);
  plan.groups[0].kind = CounterKind::kDirect;
  plan.groups[0].cat_item_ids = {3, 7};
  plan.groups[1].kind = CounterKind::kArray;
  plan.groups[1].quant_attrs = {0, 2};
  plan.groups[1].cat_item_ids = {5};
  plan.groups[1].num_members = 300;
  plan.groups[2].kind = CounterKind::kMembers;
  plan.groups[2].quant_attrs = {0, 1};
  plan.groups[2].num_members = 2;
  plan.groups[2].member_items = {3, 9, 4, 200};
  return plan;
}

Result<DistCountRequest> ParseRequestBytes(const std::string& payload) {
  return ParseCountRequest(reinterpret_cast<const uint8_t*>(payload.data()),
                           payload.size());
}

// The plan of a count request, the range [0, 0) followed by `plan_bytes`.
Result<CountPlan> ParsePlanBytes(const std::string& plan_bytes) {
  QARM_ASSIGN_OR_RETURN(DistCountRequest request,
                        ParseRequestBytes("\x00\x00"s + plan_bytes));
  return std::move(request.plan);
}

// The count request codec as a function of one message, for the round
// trips.
void EncodeRequest(const DistCountRequest& request, std::string* out) {
  EncodeCountRequest(request.blocks, request.plan, out);
}

TEST(DistMessagesTest, CountRequestRoundTripsAPlan) {
  const CountPlan plan = EveryKindPlan();
  std::string payload;
  EncodeCountRequest(IndexRange{2, 300}, plan, &payload);
  // The block range, then the group count, then per group its kind, its
  // dimensions and items (each a varint count and varints), and for
  // counted groups the member count and, for member groups, the members'
  // item ids, one per dimension (a varint count and varints).
  EXPECT_EQ(Hex(payload),
            "02" "ac02"
            "03"
            "00" "00" "020307"
            "01" "020002" "0105" "ac02"
            "02" "020001" "00" "02" "04030904c801");
  Result<DistCountRequest> request = ParseRequestBytes(payload);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->blocks.begin, 2u);
  EXPECT_EQ(request->blocks.end, 300u);
  const CountPlan* parsed = &request->plan;
  ASSERT_EQ(parsed->groups.size(), 3u);
  for (size_t g = 0; g < 3; ++g) {
    const CounterGroup& want = plan.groups[g];
    const CounterGroup& got = parsed->groups[g];
    EXPECT_EQ(got.kind, want.kind) << g;
    EXPECT_EQ(got.quant_attrs, want.quant_attrs) << g;
    EXPECT_EQ(got.cat_item_ids, want.cat_item_ids) << g;
    EXPECT_EQ(got.num_members, want.num_members) << g;
    EXPECT_EQ(got.member_items, want.member_items) << g;
  }
  // Member runs stay with the coordinator.
  EXPECT_TRUE(parsed->member_runs.empty());
}

TEST(DistMessagesTest, CountRequestRejectsTruncationAndOverflowCounts) {
  std::string payload;
  EncodeCountRequest(IndexRange{2, 300}, EveryKindPlan(), &payload);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(ParseRequestBytes(payload.substr(0, cut)).ok())
        << "cut=" << cut;
  }
  // Hostile group and member counts far past the payload must not
  // allocate.
  std::string groups_bomb;
  AppendVarint(&groups_bomb, ~0ull);
  groups_bomb += std::string(8, '\0');
  Result<CountPlan> parsed = ParsePlanBytes(groups_bomb);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
  for (uint64_t members : {uint64_t{3}, uint64_t{~0ull >> 1}}) {
    std::string members_bomb;
    AppendVarint(&members_bomb, 1);
    members_bomb += "\x02\x01\x00\x00"s;  // a member group over attribute 0
    AppendVarint(&members_bomb, members);
    AppendVarint(&members_bomb, ~0ull >> 1);  // item ids
    members_bomb += std::string(8, '\0');
    EXPECT_FALSE(ParsePlanBytes(members_bomb).ok()) << members;
  }
  // Item ids that do not give each member one per dimension: three ids
  // for two members of two dimensions.
  std::string short_items;
  AppendVarint(&short_items, 1);
  short_items += "\x02\x02\x00\x01\x00\x02\x03\x00\x01\x02"s;
  Result<CountPlan> short_parsed = ParsePlanBytes(short_items);
  ASSERT_FALSE(short_parsed.ok());
  EXPECT_NE(short_parsed.status().ToString().find("3 member items for 2"),
            std::string::npos)
      << short_parsed.status().ToString();
}

// Every accepted plan re-encodes to its own bytes: overlong varints, a kind
// past kMembers (3 among them, a retired one), an index past int32, a kind
// that disagrees with the dimensions and a group without items or
// dimensions are rejected.
TEST(DistMessagesTest, CountRequestRejectsNonCanonicalVarints) {
  for (const std::string& bytes : {
           std::string("\x81\x00\x00\x00\x01\x03", 6),  // overlong count
           std::string("\x01\x00\x00\x02\x83\x00\x07", 7),  // overlong id
           std::string("\x01\x03\x00\x00", 4),              // kind 3
           std::string("\x01\x04\x00\x00", 4),              // kind 4
           std::string("\x01\x00\x01\x00\x00", 5),  // direct, 1 dimension
           std::string("\x01\x01\x00\x00\x05", 5),  // array, 0 dimensions
           std::string("\x01\x00\x00\x01\x80\x80\x80\x80\x08", 9),  // 2^31
       }) {
    Result<CountPlan> parsed = ParsePlanBytes(bytes);
    ASSERT_FALSE(parsed.ok()) << Hex(bytes);
    EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
  }
  // A direct group without items, alone or after a good group.
  for (const std::string& bytes : {
           std::string("\x01\x00\x00\x00", 4),
           std::string("\x02\x00\x00\x01\x03\x00\x00\x00", 8),
       }) {
    Result<CountPlan> parsed = ParsePlanBytes(bytes);
    ASSERT_FALSE(parsed.ok()) << Hex(bytes);
    EXPECT_NE(parsed.status().ToString().find("counts no item"),
              std::string::npos)
        << parsed.status().ToString();
  }
  // The largest int32 index is accepted.
  EXPECT_TRUE(
      ParsePlanBytes(std::string("\x01\x00\x00\x01\xff\xff\xff\xff\x07", 9))
          .ok());
}

// A scan request's block range round-trips as two varints, and an
// inverted one is refused by both requests before anything else is read.
TEST(DistMessagesTest, RequestBlockRangesRoundTripAndInvertedOnesAreRefused) {
  std::string payload;
  EncodePass1Request(IndexRange{7, 1000}, &payload);
  EXPECT_EQ(Hex(payload), "07" "e807");
  Result<IndexRange> blocks = ParsePass1Request(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(blocks.ok()) << blocks.status().ToString();
  EXPECT_EQ(blocks->begin, 7u);
  EXPECT_EQ(blocks->end, 1000u);
  // Empty ranges are ranges; trailing bytes are not.
  for (const std::string& bytes : {"\x05\x05"s, "\x00\x00\x00"s}) {
    EXPECT_EQ(ParsePass1Request(
                  reinterpret_cast<const uint8_t*>(bytes.data()),
                  bytes.size())
                  .ok(),
              bytes.size() == 2)
        << Hex(bytes);
  }
  const std::string inverted = "\x05\x04"s;
  Result<IndexRange> pass1 = ParsePass1Request(
      reinterpret_cast<const uint8_t*>(inverted.data()), inverted.size());
  ASSERT_FALSE(pass1.ok());
  EXPECT_EQ(pass1.status().code(), StatusCode::kIOError);
  EXPECT_NE(pass1.status().ToString().find("[5, 4) is inverted"),
            std::string::npos)
      << pass1.status().ToString();
  std::string good_plan;
  EncodeCountRequest(IndexRange{}, EveryKindPlan(), &good_plan);
  Result<DistCountRequest> count =
      ParseRequestBytes(inverted + good_plan.substr(2));
  ASSERT_FALSE(count.ok());
  EXPECT_NE(count.status().ToString().find("inverted"), std::string::npos)
      << count.status().ToString();
}

// The counters every reply seed of the frame corpus (and fuzz_frame's
// selector 4) decodes into: a direct count, a 3x4 grid, three member counts
// and a 5-cell grid.
PassCounters ReplyShape() {
  PassCounters counters(4);
  counters[1].grid = std::make_unique<NDimArray>(std::vector<int32_t>{3, 4});
  counters[2].members.assign(3, 0);
  counters[3].grid = std::make_unique<NDimArray>(std::vector<int32_t>{5});
  return counters;
}

// The rows of the shard behind ReplyShape's replies.
constexpr uint64_t kShardRows = 1000;

Result<DistCountReply> ParseReplyBytes(const std::string& payload,
                                       PassCounters* counters) {
  return MergeCountReply(reinterpret_cast<const uint8_t*>(payload.data()),
                         payload.size(), kShardRows, counters);
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
  ExpectSeedRoundTrips("request_ok", &ParseCountRequest, &EncodeRequest);
  // A protocol-5 member-rectangle group of the retired kind 3 is refused.
  const std::string kind_3 = SeedPayload("request_kind_3");
  ASSERT_FALSE(kind_3.empty());
  Result<DistCountRequest> kind_3_parsed = ParseRequestBytes(kind_3);
  ASSERT_FALSE(kind_3_parsed.ok());
  EXPECT_NE(kind_3_parsed.status().ToString().find("kind 3"),
            std::string::npos)
      << kind_3_parsed.status().ToString();
  // The range seeds: an inverted range is refused by the decoder, and one
  // past any file's end decodes (the worker refuses it against its file).
  EXPECT_FALSE(ParseRequestBytes(SeedPayload("request_range_inverted")).ok());
  ExpectSeedRoundTrips("request_range_past_end", &ParseCountRequest,
                       &EncodeRequest);
  ExpectSeedRoundTrips("snapshot_ok", &ParseShardSnapshot,
                       &EncodeShardSnapshot);
  ExpectSeedRoundTrips("catalog_ok", &ParseCheckpointCatalog,
                       &EncodeCheckpointCatalog);
  // A reply decodes into counters of its plan's shape.
  const std::string reply = SeedPayload("reply_ok");
  ASSERT_FALSE(reply.empty());
  PassCounters counters = ReplyShape();
  Result<DistCountReply> parsed = ParseReplyBytes(reply, &counters);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string reencoded;
  EncodeCountReply(*parsed, counters, &reencoded);
  EXPECT_EQ(reencoded, reply);
}

// Hello and HelloAck bytes of earlier protocol versions: a peer that still
// speaks one is refused by version, with both versions named, before any
// field of the changed layout is read.
TEST(DistMessagesTest, EarlierProtocolSeedsAreRejectedByVersion) {
  for (const auto& [name, version] :
       {std::pair{"hello_v1", 1}, {"hello_v2", 2}, {"hello_v3", 3},
        {"hello_v4", 4}, {"hello_v5", 5}, {"hello_v6", 6}, {"ack_v1", 1},
        {"ack_v2", 2}, {"ack_v3", 3}, {"ack_v4", 4}, {"ack_v5", 5},
        {"ack_v6", 6}}) {
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

// A reply whose every counter kind and every stats field, io included, is
// distinct.
DistCountReply EveryFieldReply(PassCounters* counters) {
  *counters = ReplyShape();
  (*counters)[0].direct = 17;
  uint32_t* cells = (*counters)[1].grid->mutable_cells();
  cells[2] = 5;
  cells[8] = 200;
  cells[11] = 1;
  (*counters)[2].members = {3, 0, 9};
  DistCountReply reply;
  reply.worker_id = 3;
  CountingStats& stats = reply.stats;
  stats.num_super_candidates = 11;
  stats.num_array_counters = 12;
  stats.num_direct = 14;
  stats.num_member_counters = 15;
  stats.threads_used = 17;
  stats.isa = SimdIsa::kAvx2;
  stats.io = {18, 19, 0.5};
  stats.counter_bytes = 21;
  stats.replicated_bytes = 23;
  stats.group_seconds = 0.25;
  stats.build_seconds = 0.125;
  stats.scan_seconds = 1.5;
  stats.reduce_seconds = 0.75;
  return reply;
}

TEST(DistMessagesTest, CountReplyRoundTripsCountsAndStats) {
  PassCounters sent;
  const DistCountReply reply = EveryFieldReply(&sent);
  std::string payload;
  EncodeCountReply(reply, sent, &payload);
  // worker_id, the group count, then each group's counters as varints: the
  // direct count; the 3x4 grid as zero runs and non-zero cells (2 zeros,
  // 5, 5 zeros, 200, 2 zeros, 1, and the final empty run); the member
  // counts; the all-zero 5-cell grid as one run. Then the CountingStats
  // in wire order: four counter counts and threads u64, isa u32, the
  // three io fields, counter and replicated bytes u64 and the four phase
  // times (little-endian IEEE doubles).
  EXPECT_EQ(Hex(payload),
            "03000000" "04"
            "11"
            "0205" "05c801" "0201" "00"
            "030009"
            "05"
            "0b00000000000000" "0c00000000000000" "0e00000000000000"
            "0f00000000000000"
            "1100000000000000" "02000000"
            "1200000000000000" "1300000000000000" "000000000000e03f"
            "1500000000000000" "1700000000000000"
            "000000000000d03f" "000000000000c03f" "000000000000f83f"
            "000000000000e83f");
  PassCounters merged = ReplyShape();
  Result<DistCountReply> parsed = ParseReplyBytes(payload, &merged);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->worker_id, 3u);
  EXPECT_EQ(merged[0].direct, 17u);
  for (uint64_t c = 0; c < 12; ++c) {
    EXPECT_EQ(merged[1].grid->cells()[c], sent[1].grid->cells()[c]) << c;
  }
  EXPECT_EQ(merged[2].members, sent[2].members);
  const CountingStats& got = parsed->stats;
  EXPECT_EQ(got.num_super_candidates, 11u);
  EXPECT_EQ(got.num_array_counters, 12u);
  EXPECT_EQ(got.num_direct, 14u);
  EXPECT_EQ(got.num_member_counters, 15u);
  EXPECT_EQ(got.threads_used, 17u);
  EXPECT_EQ(got.isa, SimdIsa::kAvx2);
  EXPECT_EQ(got.io.blocks_read, 18u);
  EXPECT_EQ(got.io.bytes_read, 19u);
  EXPECT_EQ(got.io.checksum_seconds, 0.5);
  EXPECT_EQ(got.counter_bytes, 21u);
  EXPECT_EQ(got.replicated_bytes, 23u);
  EXPECT_EQ(got.group_seconds, 0.25);
  EXPECT_EQ(got.build_seconds, 0.125);
  EXPECT_EQ(got.scan_seconds, 1.5);
  EXPECT_EQ(got.reduce_seconds, 0.75);
  // A second shard's reply adds into the same counters.
  ASSERT_TRUE(ParseReplyBytes(payload, &merged).ok());
  EXPECT_EQ(merged[0].direct, 34u);
  EXPECT_EQ(merged[1].grid->cells()[8], 400u);
  EXPECT_EQ(merged[2].members, (std::vector<uint32_t>{6, 0, 18}));
  // Trailing garbage is a framing bug, not something to ignore.
  payload += 'x';
  PassCounters fresh = ReplyShape();
  EXPECT_FALSE(ParseReplyBytes(payload, &fresh).ok());
}

// A count reply written byte by byte: worker 1, the ReplyShape counters
// `counters` (a direct count of 1 by default), then a worker's
// CountingStats whose isa is `isa` and whose scan time is `scan_seconds`.
std::string HandMadeReply(
    uint32_t isa, double scan_seconds,
    const std::string& counters = "\x04\x01\x0c\x00\x00\x00\x05"s) {
  std::string payload;
  QbtAppendU32(&payload, 1);  // worker_id
  payload += counters;
  for (int i = 0; i < 4; ++i) QbtAppendU64(&payload, 0);  // plan counts
  QbtAppendU64(&payload, 1);     // threads_used
  QbtAppendU32(&payload, isa);
  QbtAppendU64(&payload, 2);     // io.blocks_read
  QbtAppendU64(&payload, 3);     // io.bytes_read
  QbtAppendF64(&payload, 0.5);   // io.checksum_seconds
  QbtAppendU64(&payload, 0);     // counter_bytes
  QbtAppendU64(&payload, 0);     // replicated_bytes
  QbtAppendF64(&payload, 0.0);   // group_seconds
  QbtAppendF64(&payload, 0.25);  // build_seconds
  QbtAppendF64(&payload, scan_seconds);
  QbtAppendF64(&payload, 0.0);   // reduce_seconds
  return payload;
}

// Rejects `payloads` with an IOError that names `field`.
void ExpectReplyRejected(const std::vector<std::string>& payloads,
                         const char* field) {
  for (const std::string& payload : payloads) {
    ASSERT_FALSE(payload.empty());
    PassCounters counters = ReplyShape();
    Result<DistCountReply> parsed = ParseReplyBytes(payload, &counters);
    ASSERT_FALSE(parsed.ok()) << Hex(payload);
    EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
    EXPECT_NE(parsed.status().ToString().find(field), std::string::npos)
        << parsed.status().ToString();
  }
}

// The last payload of each is the frame corpus seed for the check.
TEST(DistMessagesTest, CountReplyRejectsAnIsaOutsideTheLadder) {
  PassCounters counters = ReplyShape();
  Result<DistCountReply> ok =
      ParseReplyBytes(HandMadeReply(2, 1.0), &counters);
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

// Counters that do not fit the plan: another group count, a zero run past
// a grid, a cell listed as zero, or a reply cut inside its counters.
TEST(DistMessagesTest, CountReplyRejectsAShapeOtherThanThePlans) {
  ExpectReplyRejected({HandMadeReply(2, 1.0, "\x03\x01\x0c\x00\x00\x00"s),
                       HandMadeReply(2, 1.0,
                                     "\x05\x01\x0c\x00\x00\x00\x05\x00"s),
                       SeedPayload("reply_count_bomb")},
                      "groups");
  ExpectReplyRejected({HandMadeReply(2, 1.0, "\x04\x01\x0d\x00\x00\x00\x05"s),
                       HandMadeReply(2, 1.0, "\x04\x01\x0c\x00\x00\x00\x06"s)},
                      "runs past");
  ExpectReplyRejected({HandMadeReply(
                          2, 1.0, "\x04\x01\x00\x00\x0b\x00\x00\x00\x00\x05"s)},
                      "zero cell");
  ExpectReplyRejected({std::string("\x01\x00\x00\x00\x04\x01\x02", 7)},
                      "count reply");
}

// No counter can count more rows than the shard holds: a direct count,
// one member count, or a grid's cells added up.
TEST(DistMessagesTest, CountReplyRejectsCountsBeyondTheShardsRows) {
  std::string direct("\x04", 1);
  AppendVarint(&direct, kShardRows + 1);
  direct += std::string("\x0c\x00\x00\x00\x05", 5);
  std::string member("\x04\x01\x0c\x00", 4);
  AppendVarint(&member, kShardRows + 1);
  member += std::string("\x00\x05", 2);
  // Two cells of 600 rows each: each fits, the sum does not.
  std::string grid("\x04\x01\x00", 3);
  AppendVarint(&grid, 600);
  grid += '\x00';
  AppendVarint(&grid, 600);
  grid += std::string("\x0a\x00\x00\x00\x05", 5);
  ExpectReplyRejected({HandMadeReply(2, 1.0, direct),
                       HandMadeReply(2, 1.0, member),
                       HandMadeReply(2, 1.0, grid),
                       SeedPayload("reply_rows_bomb")},
                      "more rows than its shard holds");
  // Exactly the shard's rows is fine.
  std::string full("\x04", 1);
  AppendVarint(&full, kShardRows);
  full += std::string("\x0c\x00\x00\x00\x05", 5);
  PassCounters counters = ReplyShape();
  EXPECT_TRUE(ParseReplyBytes(HandMadeReply(2, 1.0, full), &counters).ok());
}

TEST(DistMessagesTest, ShardSnapshotRoundTrips) {
  ShardSnapshot snapshot;
  snapshot.fingerprint = 0xfeedfacecafef00dULL;
  snapshot.worker_id = 2;
  snapshot.block_begin = 10;
  snapshot.block_end = 20;
  snapshot.num_rows = 2560;
  snapshot.value_counts = {{5, 0, 12}, {}, {7, 7}};
  snapshot.io = {10, 123456, 0.75};
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
