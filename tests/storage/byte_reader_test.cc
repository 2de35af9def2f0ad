// ByteReader is the one bounds-checked decoder under every file format and
// wire message, so its checks are tested here directly, table-driven: every
// truncation, a count one element past the remaining bytes, a string one
// byte past its cap, and trailing bytes — each under both status codes its
// callers use. The preamble, CRC envelope and atomic write shared by QCP and
// QRS are covered below it.
#include "storage/byte_reader.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qarm {
namespace {

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

// One of every read, in the order Record() encodes them.
std::string Record() {
  std::string out;
  out.push_back(7);
  QbtAppendU32(&out, 0xdeadbeefu);
  QbtAppendI32(&out, -5);
  QbtAppendU64(&out, 1ull << 40);
  QbtAppendF64(&out, 0.25);
  QbtAppendString(&out, "abc");
  QbtAppendU64(&out, 2);
  out.append("xy");
  for (int32_t v : {-1, 2}) QbtAppendI32(&out, v);
  for (uint32_t v : {3u, 4u, 5u}) QbtAppendU32(&out, v);
  QbtAppendU64(&out, 6);
  return out;
}

Status DecodeRecord(ByteReader* reader) {
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  int32_t i32 = 0;
  uint64_t u64 = 0;
  double f64 = 0;
  std::string s, s64;
  std::vector<int32_t> i32s;
  std::vector<uint32_t> u32s;
  std::vector<uint64_t> u64s;
  QARM_RETURN_NOT_OK(reader->ReadU8(&u8));
  QARM_RETURN_NOT_OK(reader->ReadU32(&u32));
  QARM_RETURN_NOT_OK(reader->ReadI32(&i32));
  QARM_RETURN_NOT_OK(reader->ReadU64(&u64));
  QARM_RETURN_NOT_OK(reader->ReadF64(&f64));
  QARM_RETURN_NOT_OK(reader->ReadString(&s, 16));
  QARM_RETURN_NOT_OK(reader->ReadString64(&s64, 16));
  QARM_RETURN_NOT_OK(reader->ReadI32Array(2, &i32s));
  QARM_RETURN_NOT_OK(reader->ReadU32Array(3, &u32s));
  QARM_RETURN_NOT_OK(reader->ReadU64Array(1, &u64s));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(i32, -5);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(f64, 0.25);
  EXPECT_EQ(s, "abc");
  EXPECT_EQ(s64, "xy");
  EXPECT_EQ(i32s, (std::vector<int32_t>{-1, 2}));
  EXPECT_EQ(u32s, (std::vector<uint32_t>{3, 4, 5}));
  EXPECT_EQ(u64s, (std::vector<uint64_t>{6}));
  return reader->ExpectEnd();
}

std::string U32Then(uint32_t count, size_t payload_bytes) {
  std::string out;
  QbtAppendU32(&out, count);
  out.append(payload_bytes, '\0');
  return out;
}

struct Case {
  const char* name;
  std::string bytes;
  std::function<Status(ByteReader*)> decode;
  const char* error;  // substring of the error; null when the decode passes
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  const std::string record = Record();
  cases.push_back({"whole record", record, DecodeRecord, nullptr});
  for (size_t cut = 0; cut < record.size(); ++cut) {
    // A cut inside an array fails its count check, elsewhere the read.
    cases.push_back({"record truncated", record.substr(0, cut), DecodeRecord,
                     "test bytes"});
  }
  // 12 bytes remain after the count word: three u32s or one u64 fit.
  auto u32_array = [](uint32_t count) {
    return [count](ByteReader* r) {
      std::vector<uint32_t> out;
      uint32_t declared = 0;
      QARM_RETURN_NOT_OK(r->ReadU32(&declared));
      QARM_RETURN_NOT_OK(r->ReadU32Array(count, &out));
      return Status::OK();
    };
  };
  auto u64_array = [](uint64_t count) {
    return [count](ByteReader* r) {
      std::vector<uint64_t> out;
      uint32_t declared = 0;
      QARM_RETURN_NOT_OK(r->ReadU32(&declared));
      QARM_RETURN_NOT_OK(r->ReadU64Array(count, &out));
      return Status::OK();
    };
  };
  cases.push_back({"u32 count at remaining / 4", U32Then(3, 12),
                   u32_array(3), nullptr});
  cases.push_back({"u32 count one above remaining / 4", U32Then(4, 12),
                   u32_array(4), "declares 4 elements"});
  cases.push_back({"u64 count one above remaining / 8", U32Then(2, 12),
                   u64_array(2), "declares 2 elements"});
  cases.push_back({"count bomb", U32Then(0, 12), u64_array(~0ull),
                   "elements but only 12 bytes remain"});
  auto need_count = [](uint64_t count, size_t element_size) {
    return [=](ByteReader* r) { return r->NeedCount(count, element_size); };
  };
  cases.push_back({"NeedCount of 20-byte elements", std::string(40, '\0'),
                   need_count(2, 20), nullptr});
  cases.push_back({"NeedCount one above", std::string(40, '\0'),
                   need_count(3, 20), "declares 3 elements"});

  auto string_capped = [](uint64_t cap) {
    return [cap](ByteReader* r) {
      std::string s;
      return r->ReadString(&s, cap);
    };
  };
  std::string five;
  QbtAppendString(&five, "hello");
  cases.push_back({"string at its cap", five, string_capped(5), nullptr});
  cases.push_back({"string one above its cap", five, string_capped(4),
                   "5 bytes exceeds the 4-byte cap"});
  std::string bomb;
  QbtAppendU64(&bomb, ~0ull);
  cases.push_back({"u64 string length above its cap", bomb,
                   [](ByteReader* r) {
                     std::string s;
                     return r->ReadString64(&s, 4096);
                   },
                   "exceeds the 4096-byte cap"});
  cases.push_back({"uncapped string longer than the bytes",
                   five.substr(0, 6), string_capped(~0ull), "truncated"});

  cases.push_back({"one trailing byte", record + "z", DecodeRecord,
                   "has 1 trailing bytes"});
  cases.push_back({"skip past the end", std::string(3, '\0'),
                   [](ByteReader* r) { return r->Skip(4); }, "truncated"});
  return cases;
}

TEST(ByteReaderTest, TableOfCasesUnderBothStatusCodes) {
  for (StatusCode code : {StatusCode::kInvalidArgument, StatusCode::kIOError}) {
    for (const Case& c : Cases()) {
      ByteReader reader(Bytes(c.bytes), c.bytes.size(), "test bytes", code);
      const Status status = c.decode(&reader);
      SCOPED_TRACE(std::string(c.name) + " (" + std::to_string(c.bytes.size()) +
                   " bytes): " + status.ToString());
      if (c.error == nullptr) {
        EXPECT_TRUE(status.ok());
        continue;
      }
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), code);
      EXPECT_NE(status.message().find("test bytes"), std::string::npos);
      EXPECT_NE(status.message().find(c.error), std::string::npos);
    }
  }
}

constexpr char kMagic[4] = {'T', 'S', 'T', '1'};
constexpr char kEndMagic[4] = {'T', 'S', 'T', 'E'};
constexpr FileFormat kFormat = {"test file", kMagic, kEndMagic, 3, 8};

std::string SampleEnvelope() {
  std::string extra;
  QbtAppendU64(&extra, 42);
  return EncodeEnvelope(kFormat, /*header_word=*/9, extra, "payload");
}

TEST(ByteReaderEnvelopeTest, RoundTripsHeaderWordExtraHeaderAndPayload) {
  const std::string bytes = SampleEnvelope();
  ASSERT_EQ(bytes.size(), kEnvelopeHeaderSize + 8 + 7 + kEnvelopeTailSize);
  Result<Envelope> parsed = ParseEnvelope(kFormat, Bytes(bytes), bytes.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->header_word, 9u);
  EXPECT_EQ(QbtReadU64(parsed->extra_header), 42u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(parsed->payload),
                        parsed->payload_size),
            "payload");
}

TEST(ByteReaderEnvelopeTest, EveryDefectIsRejectedWithItsCode) {
  struct Defect {
    const char* name;
    size_t offset;
    char value;
    StatusCode code;
    const char* error;
  };
  const size_t payload_at = kEnvelopeHeaderSize + 8;
  const Defect defects[] = {
      {"magic", 0, 'X', StatusCode::kInvalidArgument, "bad magic"},
      {"endian marker", 4, 0x0A, StatusCode::kInvalidArgument, "endian"},
      {"older version", 8, 2, StatusCode::kInvalidArgument, "version 2"},
      {"newer version", 8, 4, StatusCode::kInvalidArgument, "version 4"},
      {"payload size", 16, 1, StatusCode::kInvalidArgument, "payload size"},
      {"payload byte", payload_at, 'P', StatusCode::kIOError, "checksum"},
      {"end magic", payload_at + 7 + 4, 'X', StatusCode::kInvalidArgument,
       "end magic"},
  };
  for (const Defect& d : defects) {
    std::string bytes = SampleEnvelope();
    bytes[d.offset] = d.value;
    Result<Envelope> parsed =
        ParseEnvelope(kFormat, Bytes(bytes), bytes.size());
    ASSERT_FALSE(parsed.ok()) << d.name;
    EXPECT_EQ(parsed.status().code(), d.code) << d.name;
    EXPECT_NE(parsed.status().message().find(d.error), std::string::npos)
        << d.name << ": " << parsed.status().ToString();
  }
  const std::string bytes = SampleEnvelope();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(ParseEnvelope(kFormat, Bytes(bytes), cut).ok()) << cut;
  }
}

TEST(ByteReaderEnvelopeTest, WriteFileAtomicReplacesAndLeavesNoTempFile) {
  const std::string path = ::testing::TempDir() + "/byte_reader_atomic.bin";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char buf[16] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf), file);
  std::fclose(file);
  EXPECT_EQ(std::string(buf, n), "second");
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "rb"), nullptr);
  const Status failed = WriteFileAtomic("/nonexistent-dir/x.bin", "x");
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace qarm
