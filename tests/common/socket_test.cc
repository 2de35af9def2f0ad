// SendAll's deadline over loopback, against a reader that stalls or
// trickles, and TcpConnect's timeout under an interrupting signal.
#include "common/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/timer.h"

namespace qarm {
namespace {

// A connected loopback pair: `sender` from TcpConnect, `receiver` from
// TcpAccept. The receiver's buffer is shrunk (through the listener, which
// accepted sockets inherit it from) and so is the sender's, so a large
// send blocks on the reader almost at once.
struct LoopbackPair {
  int sender = -1;
  int receiver = -1;

  void Open() {
    uint16_t port = 0;
    Result<int> listener = TcpListen("127.0.0.1", 0, &port);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    const int rcvbuf = 2048;
    ::setsockopt(*listener, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    Result<int> connected = TcpConnect("127.0.0.1", port, 2000);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    sender = *connected;
    Result<int> accepted = TcpAccept(*listener);
    ::close(*listener);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    receiver = *accepted;
    const int sndbuf = 4096;
    ::setsockopt(sender, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  }
  ~LoopbackPair() {
    if (sender >= 0) ::close(sender);
    if (receiver >= 0) ::close(receiver);
  }
};

// Sends 4 MB against `drain_bytes` read every 50 ms (0 = never read) under
// a 300 ms deadline; returns the send's status and its wall time.
Status SendToSlowReader(size_t drain_bytes, double* elapsed_ms) {
  LoopbackPair pair;
  pair.Open();
  constexpr uint64_t kDeadlineMs = 300;
  SetSocketTimeouts(pair.sender, 0, kDeadlineMs);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    char chunk[1024];
    while (!done.load()) {
      if (drain_bytes > 0 &&
          ::recv(pair.receiver, chunk, drain_bytes, MSG_DONTWAIT) == 0) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  const std::string message(4 * 1024 * 1024, 't');
  const Timer timer;
  const Status sent =
      SendAll(pair.sender, message.data(), message.size(), kDeadlineMs);
  *elapsed_ms = timer.ElapsedMillis();
  done.store(true);
  reader.join();
  return sent;
}

// A reader that keeps draining 1 KB every 50 ms never lets send() time
// out, yet the message is still cut off: the clock is read after every
// send, so it takes under twice the deadline.
TEST(SocketTest, SendAllCutsOffATricklingReader) {
  double elapsed_ms = 0;
  const Status sent = SendToSlowReader(1024, &elapsed_ms);
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), StatusCode::kIOError);
  EXPECT_NE(sent.message().find("timed out"), std::string::npos)
      << sent.ToString();
  EXPECT_LT(elapsed_ms, 2 * 300 + 200);
}

TEST(SocketTest, SendAllCutsOffAStalledReader) {
  double elapsed_ms = 0;
  const Status sent = SendToSlowReader(0, &elapsed_ms);
  ASSERT_FALSE(sent.ok());
  EXPECT_NE(sent.message().find("timed out"), std::string::npos)
      << sent.ToString();
  EXPECT_LT(elapsed_ms, 2 * 300 + 200);
}

void IgnoreSignal(int) {}

// A signal that interrupts TcpConnect's wait is not a completed connect.
// The listener's backlog is 0 and already holds one queued connection, so
// the kernel drops the next SYN and that connect stays in progress; a
// SIGUSR1 whose handler does not restart syscalls lands 200 ms into it.
// The connect must still fail "timed out" after its timeout, not return a
// socket that is still connecting.
TEST(SocketTest, ConnectInterruptedBySignalStillTimesOut) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 0), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);
  Result<int> queued = TcpConnect("127.0.0.1", port, 2000);
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();

  struct sigaction action {};
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: poll() returns EINTR
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  const pthread_t connecting = ::pthread_self();
  std::thread interrupter([connecting] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::pthread_kill(connecting, SIGUSR1);
  });
  constexpr uint64_t kTimeoutMs = 1000;
  const Timer timer;
  Result<int> stuck = TcpConnect("127.0.0.1", port, kTimeoutMs);
  const double elapsed_ms = timer.ElapsedMillis();
  interrupter.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  if (stuck.ok()) ::close(*stuck);
  ::close(*queued);
  ::close(listener);

  ASSERT_FALSE(stuck.ok()) << "an interrupted connect returned a socket";
  EXPECT_EQ(stuck.status().code(), StatusCode::kIOError);
  EXPECT_NE(stuck.status().message().find("timed out"), std::string::npos)
      << stuck.status().ToString();
  EXPECT_GE(elapsed_ms, kTimeoutMs - 50.0);
  EXPECT_LT(elapsed_ms, kTimeoutMs + 1000.0);
}

}  // namespace
}  // namespace qarm
