// Fuzz harness for the distributed wire decoders. The first input byte
// selects the decoder — 0: RecvFrame over an in-memory transport (magic,
// length-cap, CRC checks, reassembly from single-byte reads), 1:
// ParseHello, 2: ParseHelloAck (version gate first), 3: ParseCountRequest
// (a block range and a counting plan), 4: MergeCountReply (a shard's
// counters, decoded into the fixed ReplyShape below), 5:
// ParseShardSnapshot, 6: ParseCheckpointCatalog (every count bounds-checked in division form
// before allocation).
// Property: hostile bytes never crash, hang, or trigger an absurd
// allocation — every defect surfaces as a Status. Decoded messages are
// re-encoded and compared with the input, so an accepting parse that loses
// information or accepts a non-canonical encoding is also a crash.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "dist/framing.h"
#include "dist/handshake.h"
#include "dist/messages.h"
#include "dist/transport.h"
#include "storage/checkpoint_format.h"

namespace {

// Serves the fuzz input as a byte stream in single-byte reads — the worst
// legal delivery — and EOF after.
class FuzzTransport : public qarm::Transport {
 public:
  FuzzTransport(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  qarm::Status Read(void* out, size_t size, size_t* bytes_read) override {
    const size_t n = std::min(size_t{1}, std::min(size, size_ - pos_));
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    *bytes_read = n;
    return qarm::Status::OK();
  }
  qarm::Status Write(const void*, size_t) override {
    return qarm::Status::OK();
  }
  void Close() override {}

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// An accepted payload must re-encode to exactly its input bytes.
template <typename Message>
void CheckRoundTrip(const qarm::Result<Message>& parsed,
                    void (*encode)(const Message&, std::string*),
                    const uint8_t* payload, size_t size) {
  if (!parsed.ok()) return;
  std::string reencoded;
  encode(*parsed, &reencoded);
  QARM_CHECK(reencoded.size() == size);
  QARM_CHECK(size == 0 || std::memcmp(reencoded.data(), payload, size) == 0);
}

// The counters every selector-4 input decodes into, from a shard of
// kShardRows rows: a direct count, a 3x4 grid, three member counts and a
// 5-cell grid. tests/dist/framing_test.cc decodes the reply seeds of the
// corpus into the same shape.
qarm::PassCounters ReplyShape() {
  qarm::PassCounters counters(4);
  counters[1].grid =
      std::make_unique<qarm::NDimArray>(std::vector<int32_t>{3, 4});
  counters[2].members.assign(3, 0);
  counters[3].grid = std::make_unique<qarm::NDimArray>(std::vector<int32_t>{5});
  return counters;
}

constexpr uint64_t kShardRows = 1000;

void EncodeRequest(const qarm::DistCountRequest& request, std::string* out) {
  qarm::EncodeCountRequest(request.blocks, request.plan, out);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t selector = data[0] % 7;
  const uint8_t* payload = data + 1;
  const size_t payload_size = size - 1;

  switch (selector) {
    case 0: {
      FuzzTransport transport(payload, payload_size);
      auto frame = qarm::RecvFrame(transport);
      // Whatever decoded must fit in the bytes consumed.
      if (frame.ok()) QARM_CHECK(frame->payload.size() <= payload_size);
      break;
    }
    case 1:
      CheckRoundTrip(qarm::ParseHello(payload, payload_size),
                     &qarm::EncodeHello, payload, payload_size);
      break;
    case 2:
      CheckRoundTrip(qarm::ParseHelloAck(payload, payload_size),
                     &qarm::EncodeHelloAck, payload, payload_size);
      break;
    case 3:
      CheckRoundTrip(qarm::ParseCountRequest(payload, payload_size),
                     &EncodeRequest, payload, payload_size);
      break;
    case 4: {
      // Decoded into zeroed counters, an accepted reply's counters are its
      // own, so it re-encodes to the input.
      qarm::PassCounters counters = ReplyShape();
      auto reply =
          qarm::MergeCountReply(payload, payload_size, kShardRows, &counters);
      if (!reply.ok()) break;
      std::string reencoded;
      qarm::EncodeCountReply(*reply, counters, &reencoded);
      QARM_CHECK(reencoded.size() == payload_size);
      QARM_CHECK(payload_size == 0 ||
                 std::memcmp(reencoded.data(), payload, payload_size) == 0);
      break;
    }
    case 5:
      CheckRoundTrip(qarm::ParseShardSnapshot(payload, payload_size),
                     &qarm::EncodeShardSnapshot, payload, payload_size);
      break;
    default:
      CheckRoundTrip(qarm::ParseCheckpointCatalog(payload, payload_size),
                     &qarm::EncodeCheckpointCatalog, payload, payload_size);
      break;
  }
  return 0;
}
