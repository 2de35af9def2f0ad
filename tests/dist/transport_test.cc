// The byte-stream transports under hostile delivery: frames reassembled
// from reads split at every byte boundary, mid-frame EOF at every
// truncation length (clean IOError, never a hang), real loopback TCP with
// read deadlines, and the deterministic network-fault injector
// (conn_reset / partial_write / generation gating) that the coordinator's
// reconnect path is built on.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "dist/framing.h"
#include "dist/transport.h"

namespace qarm {
namespace {

// In-memory transport that serves reads from a captured byte string in
// chunks of at most `chunk` bytes — the short-read torture device. Reads
// past the end return 0 (EOF). Writes append to `written`.
class ChunkedTransport : public Transport {
 public:
  ChunkedTransport(std::string bytes, size_t chunk)
      : bytes_(std::move(bytes)), chunk_(chunk) {}

  Status Read(void* data, size_t size, size_t* bytes_read) override {
    const size_t n = std::min({size, chunk_, bytes_.size() - pos_});
    std::memcpy(data, bytes_.data() + pos_, n);
    pos_ += n;
    *bytes_read = n;
    return Status::OK();
  }
  Status Write(const void* data, size_t size) override {
    written.append(static_cast<const char*>(data), size);
    return Status::OK();
  }
  void Close() override {}

  std::string written;

 private:
  std::string bytes_;
  size_t chunk_ = 1;
  size_t pos_ = 0;
};

std::string FrameBytes(uint32_t type, const std::string& payload) {
  ChunkedTransport capture("", 1);
  const Status sent = SendFrame(capture, type, payload);
  QARM_CHECK(sent.ok());
  return capture.written;
}

TEST(DistTransportTest, SendFrameIssuesASingleWrite) {
  // One Write per frame is what lets the partial-write fault tear a real
  // frame boundary; the test pins the contract.
  class CountingTransport : public ChunkedTransport {
   public:
    CountingTransport() : ChunkedTransport("", 1) {}
    Status Write(const void* data, size_t size) override {
      ++writes;
      return ChunkedTransport::Write(data, size);
    }
    size_t writes = 0;
  };
  CountingTransport transport;
  ASSERT_TRUE(SendFrame(transport, 3, "payload").ok());
  EXPECT_EQ(transport.writes, 1u);
  EXPECT_EQ(transport.written.size(),
            kDistFrameHeaderSize + std::strlen("payload") + 4);
}

TEST(DistTransportTest, FrameSurvivesEveryReadGranularity) {
  const std::string payload = "quantitative association rules";
  const std::string bytes = FrameBytes(6, payload);
  for (size_t chunk = 1; chunk <= bytes.size(); ++chunk) {
    ChunkedTransport transport(bytes, chunk);
    Result<DistFrame> frame = RecvFrame(transport);
    ASSERT_TRUE(frame.ok()) << "chunk=" << chunk << ": "
                            << frame.status().ToString();
    EXPECT_EQ(frame->type, 6u);
    EXPECT_EQ(frame->payload, payload);
  }
}

TEST(DistTransportTest, EveryTruncationIsACleanIoError) {
  const std::string bytes = FrameBytes(2, "torn mid-flight");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ChunkedTransport transport(bytes.substr(0, cut), 3);
    Result<DistFrame> frame = RecvFrame(transport);
    ASSERT_FALSE(frame.ok()) << "cut=" << cut;
    EXPECT_EQ(frame.status().code(), StatusCode::kIOError) << "cut=" << cut;
  }
}

// Loopback server: accepts one connection and hands the fd to the test.
class LoopbackPeer {
 public:
  void Listen() {
    auto fd = TcpListen("127.0.0.1", 0, &port_);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    listen_fd_ = *fd;
  }
  int Accept() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    EXPECT_GE(fd, 0);
    return fd;
  }
  ~LoopbackPeer() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
};

TEST(DistTransportTest, TcpLoopbackRoundTripsFrames) {
  LoopbackPeer peer;
  peer.Listen();
  std::thread server([&]() {
    TcpTransport transport(peer.Accept(), /*io_timeout_ms=*/5000,
                           /*read_timeout_ms=*/5000);
    Result<DistFrame> request = RecvFrame(transport);
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    EXPECT_EQ(request->payload, "ping");
    ASSERT_TRUE(SendFrame(transport, request->type + 1, "pong").ok());
  });
  auto fd = TcpConnect("127.0.0.1", peer.port(), 5000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  TcpTransport transport(*fd, 5000, 5000);
  ASSERT_TRUE(SendFrame(transport, 1, "ping").ok());
  Result<DistFrame> reply = RecvFrame(transport);
  server.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, 2u);
  EXPECT_EQ(reply->payload, "pong");
}

TEST(DistTransportTest, HostnamesResolve) {
  uint16_t port = 0;
  auto listen_fd = TcpListen("localhost", 0, &port);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
  auto fd = TcpConnect("localhost", port, 2000);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (fd.ok()) ::close(*fd);
  ::close(*listen_fd);
  EXPECT_FALSE(TcpConnect("no.such.host.invalid", 1, 500).ok());
}

TEST(DistTransportTest, ReadDeadlineTripsInsteadOfHanging) {
  LoopbackPeer peer;
  peer.Listen();
  std::thread server([&]() {
    // Accept, then go silent: the client's read deadline must fire.
    const int fd = peer.Accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
    ::close(fd);
  });
  auto fd = TcpConnect("127.0.0.1", peer.port(), 2000);
  ASSERT_TRUE(fd.ok());
  TcpTransport transport(*fd, /*io_timeout_ms=*/200, /*read_timeout_ms=*/200);
  Result<DistFrame> frame = RecvFrame(transport);
  server.join();
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().ToString().find("timed out"), std::string::npos)
      << frame.status().ToString();
}

// Runs one faulted exchange: the server sends `frames` frames through a
// transport armed with `faults`; returns the client-side outcome of
// reading them all.
struct FaultOutcome {
  std::vector<Status> server_sends;
  std::vector<Result<DistFrame>> client_reads;
};

FaultOutcome ExchangeWithFaults(const NetFaultInjection& faults,
                                size_t frames) {
  FaultOutcome outcome;
  LoopbackPeer peer;
  peer.Listen();
  // The server sends only once the client's connect has returned: an
  // injected RST that lands while TcpConnect is still checking SO_ERROR
  // would otherwise fail the connect instead of the read under test.
  std::promise<void> connected;
  std::thread server([&]() {
    TcpTransport transport(peer.Accept(), 5000, 5000, faults);
    connected.get_future().wait();
    for (size_t i = 0; i < frames; ++i) {
      outcome.server_sends.push_back(
          SendFrame(transport, 1, "frame " + std::to_string(i)));
    }
  });
  auto fd = TcpConnect("127.0.0.1", peer.port(), 5000);
  QARM_CHECK(fd.ok());
  connected.set_value();
  TcpTransport transport(*fd, 5000, 5000);
  server.join();  // all sends (and any RST) land before the client reads
  for (size_t i = 0; i < frames; ++i) {
    outcome.client_reads.push_back(RecvFrame(transport));
  }
  return outcome;
}

NetFaultInjection EveryWriteFaults(FaultKind kind) {
  NetFaultInjection faults;
  faults.enabled = true;
  faults.seed = 11;
  faults.rate = 1.0;
  faults.after_writes = 1;  // first frame lands, second faults
  faults.generation = 0;
  faults.fails = 1;
  faults.kinds = static_cast<uint32_t>(kind);
  return faults;
}

TEST(DistTransportTest, ConnResetFaultSurfacesAsIoError) {
  const FaultOutcome outcome =
      ExchangeWithFaults(EveryWriteFaults(FaultKind::kConnReset), 2);
  ASSERT_TRUE(outcome.server_sends[0].ok());
  EXPECT_NE(outcome.server_sends[1].ToString().find("connection reset"),
            std::string::npos);
  ASSERT_TRUE(outcome.client_reads[0].ok());
  EXPECT_EQ(outcome.client_reads[0]->payload, "frame 0");
  ASSERT_FALSE(outcome.client_reads[1].ok());
  EXPECT_EQ(outcome.client_reads[1].status().code(), StatusCode::kIOError);
}

TEST(DistTransportTest, PartialWriteTearsTheFrameCleanly) {
  const FaultOutcome outcome =
      ExchangeWithFaults(EveryWriteFaults(FaultKind::kPartialWrite), 2);
  ASSERT_TRUE(outcome.server_sends[0].ok());
  EXPECT_NE(outcome.server_sends[1].ToString().find("partial write"),
            std::string::npos);
  ASSERT_TRUE(outcome.client_reads[0].ok());
  // Half a frame then RST: IOError (EOF, reset, or CRC), never a hang.
  ASSERT_FALSE(outcome.client_reads[1].ok());
  EXPECT_EQ(outcome.client_reads[1].status().code(), StatusCode::kIOError);
}

TEST(DistTransportTest, FaultsAreGatedByGeneration) {
  // The same schedule at generation >= fails delivers everything — this is
  // what makes a reconnected session's replay run clean.
  NetFaultInjection faults = EveryWriteFaults(FaultKind::kConnReset);
  faults.generation = 1;  // == fails
  const FaultOutcome outcome = ExchangeWithFaults(faults, 2);
  EXPECT_TRUE(outcome.server_sends[1].ok());
  ASSERT_TRUE(outcome.client_reads[1].ok());
  EXPECT_EQ(outcome.client_reads[1]->payload, "frame 1");
}

TEST(DistTransportTest, FaultScheduleIsDeterministic) {
  NetFaultInjection faults;
  faults.enabled = true;
  faults.seed = 77;
  faults.rate = 0.5;
  faults.fails = 1;
  faults.kinds = static_cast<uint32_t>(FaultKind::kConnReset) |
                 static_cast<uint32_t>(FaultKind::kPartialWrite);
  // Two independent exchanges with the same seed fault at the same write
  // ordinal with the same kind.
  const FaultOutcome first = ExchangeWithFaults(faults, 6);
  const FaultOutcome second = ExchangeWithFaults(faults, 6);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(first.server_sends[i].ToString(),
              second.server_sends[i].ToString())
        << "write " << i;
  }
  // And the 0.5 rate actually split the schedule.
  size_t faulted = 0;
  for (const Status& status : first.server_sends) {
    if (!status.ok()) ++faulted;
  }
  EXPECT_GT(faulted, 0u);
}

}  // namespace
}  // namespace qarm
