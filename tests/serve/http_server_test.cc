// End-to-end serving tests: RuleService semantics through a real HTTP
// server and client, cache byte-identity (enabled vs disabled), counters
// in /statz, and the concurrent mixed-query workload (>= 8 threads, a
// TSan target) with the cache under a tiny byte budget.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "common/string_util.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/rule_catalog.h"
#include "serve/rule_service.h"
#include "serve/serve_testutil.h"

namespace qarm {
namespace {

struct Harness {
  std::shared_ptr<const RuleCatalog> catalog;
  std::shared_ptr<RuleService> service;
  std::unique_ptr<HttpServer> server;
};

Harness StartHarness(size_t cache_bytes, size_t threads = 2) {
  Harness h;
  auto catalog = RuleCatalog::Build(servetest::MakeRuleSet());
  EXPECT_TRUE(catalog.ok());
  h.catalog = *catalog;
  RuleServiceOptions options;
  options.cache_bytes = cache_bytes;
  h.service = std::make_shared<RuleService>(h.catalog, options);
  HttpServerOptions server_options;
  server_options.port = 0;
  server_options.num_threads = threads;
  auto server = HttpServer::Start(
      server_options,
      [service = h.service](const HttpRequest& request) {
        return service->Handle(request);
      });
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  h.server = std::move(*server);
  return h;
}

TEST(ServeHttpTest, HealthzAndNotFound) {
  Harness h = StartHarness(0);
  auto ok = HttpGet("127.0.0.1", h.server->port(), "/healthz");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(ok->body, "{\"status\":\"ok\"}");

  auto missing = HttpGet("127.0.0.1", h.server->port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
}

TEST(ServeHttpTest, MatchOverHttpEqualsDirectService) {
  Harness h = StartHarness(0);
  const std::string target = "/match?married=yes&cars=1";
  auto http = HttpGet("127.0.0.1", h.server->port(), target);
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 200);

  HttpRequest direct;
  direct.path = "/match";
  direct.params = {{"married", "yes"}, {"cars", "1"}};
  EXPECT_EQ(http->body, h.service->Handle(direct).body);
  // married=yes & cars=1 matches rule 0 (married=yes => cars[0..1]).
  EXPECT_NE(http->body.find("\"count\":1"), std::string::npos) << http->body;
}

TEST(ServeHttpTest, BadParamsAre400) {
  Harness h = StartHarness(0);
  const uint16_t port = h.server->port();
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/match?age=old")->status, 400);
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/match?nope=1")->status, 400);
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/match?mode=sideways")->status, 400);
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/topk?metric=coolness")->status,
            400);
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/topk?attr=nope")->status, 404);
  EXPECT_EQ(HttpGet("127.0.0.1", port, "/rules?min_conf=x")->status, 400);
}

TEST(ServeHttpTest, KeepAliveServesManyRequestsOneConnection) {
  Harness h = StartHarness(0);
  auto client = HttpClient::Connect("127.0.0.1", h.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 20; ++i) {
    auto response = (*client)->Get("/topk?k=2&metric=support");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }
  // All 20 requests rode one connection.
  EXPECT_EQ(h.server->connections_accepted(), 1u);
}

// Acceptance criterion: /match results byte-identical with the cache
// enabled vs disabled — including across param orderings, which
// canonicalization folds into one cache entry.
TEST(ServeHttpTest, CacheByteIdentity) {
  Harness cached = StartHarness(4 * 1024 * 1024);
  Harness uncached = StartHarness(0);
  const std::vector<std::string> targets = {
      "/match?married=yes&cars=1",
      "/match?cars=1&married=yes",  // same query, different spelling
      "/match?age=25&married=no&cars=2",
      "/match?age=0&cars=2&mode=antecedent",
      "/topk?metric=lift&k=3",
      "/rules?min_conf=0.7&limit=2",
  };
  for (int round = 0; round < 3; ++round) {
    for (const std::string& target : targets) {
      auto a = HttpGet("127.0.0.1", cached.server->port(), target);
      auto b = HttpGet("127.0.0.1", uncached.server->port(), target);
      ASSERT_TRUE(a.ok() && b.ok()) << target;
      EXPECT_EQ(a->body, b->body) << target << " round " << round;
    }
  }
  const ResultCacheStats stats = cached.service->cache_manager()->TotalStats();
  EXPECT_GT(stats.hits, 0u) << "repeat queries never hit the cache";
  // The two spellings of the first query share one canonical entry.
  const auto all = cached.service->cache_manager()->AllStats();
  for (const auto& [name, cache_stats] : all) {
    if (name == "match") {
      EXPECT_EQ(cache_stats.insertions, 3u)
          << "canonicalization failed to fold equivalent queries";
    }
  }
}

TEST(ServeHttpTest, StatzCountsRequestsAndCache) {
  Harness h = StartHarness(1024 * 1024);
  const uint16_t port = h.server->port();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(HttpGet("127.0.0.1", port, "/match?married=yes").ok());
    ASSERT_TRUE(HttpGet("127.0.0.1", port, "/topk?k=1").ok());
  }
  auto statz = HttpGet("127.0.0.1", port, "/statz");
  ASSERT_TRUE(statz.ok());
  const std::string& body = statz->body;
  EXPECT_NE(body.find("\"match\":2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"topk\":2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"qps\":"), std::string::npos);
  EXPECT_NE(body.find("\"hits\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"index_bytes\":"), std::string::npos);
  EXPECT_NE(body.find("\"build_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"num_rules\":4"), std::string::npos);
}

// The object that follows `"key":` in `body` (balanced braces; no string
// in a /statz body holds one).
std::string JsonObjectAt(const std::string& body, const std::string& key) {
  const size_t at = body.find("\"" + key + "\":{");
  if (at == std::string::npos) return "";
  const size_t begin = body.find('{', at);
  int depth = 0;
  for (size_t i = begin; i < body.size(); ++i) {
    if (body[i] == '{') ++depth;
    if (body[i] == '}' && --depth == 0) {
      return body.substr(begin, i + 1 - begin);
    }
  }
  return "";
}

// The catalog and cache objects of /statz over the handcrafted rule set,
// after a fixed request sequence. Catalog build time is measured, so its
// value is checked for its format and then masked.
TEST(StatzJsonTest, CatalogAndCacheObjects) {
  auto catalog = RuleCatalog::Build(servetest::MakeRuleSet());
  ASSERT_TRUE(catalog.ok());
  RuleServiceOptions options;
  options.cache_bytes = 64 * 1024;
  RuleService service(*catalog, options);
  const HttpRequest match{"GET", "/match", {{"married", "yes"}}};
  ASSERT_EQ(service.Handle(match).status, 200);
  ASSERT_EQ(service.Handle(match).status, 200);  // a hit
  ASSERT_EQ(service.Handle({"GET", "/topk", {{"k", "2"}}}).status, 200);
  ASSERT_EQ(service.Handle({"GET", "/rules", {{"limit", "1"}}}).status, 200);
  // Larger than a 1 KB shard of the rules cache: rejected, not cached.
  ASSERT_EQ(service.Handle({"GET", "/rules", {{"limit", "4"}}}).status, 200);
  const std::string body = service.Handle({"GET", "/statz", {}}).body;

  std::string cat = JsonObjectAt(body, "catalog");
  const std::string key = "\"build_seconds\":";
  const size_t at = cat.find(key);
  ASSERT_NE(at, std::string::npos) << body;
  const size_t begin = at + key.size();
  const std::string seconds = cat.substr(begin, cat.size() - 1 - begin);
  EXPECT_EQ(seconds, StrFormat("%.6f", std::stod(seconds))) << body;
  cat.replace(begin, seconds.size(), "T");
  EXPECT_EQ(cat,
            "{\"num_rules\":4,\"num_attributes\":3,\"num_records\":1000,"
            "\"interval_entries\":10,\"grid_cells\":17,"
            "\"grid_attributes\":3,\"scan_attributes\":0,"
            "\"index_bytes\":292,\"build_seconds\":T}");
  EXPECT_EQ(JsonObjectAt(body, "cache"),
            "{\"enabled\":true,"
            "\"total\":{\"hits\":1,\"misses\":4,\"insertions\":3,"
            "\"evictions\":0,\"oversized_rejects\":1,\"entries\":3,"
            "\"bytes_used\":1290,\"byte_budget\":65536},"
            "\"match\":{\"hits\":1,\"misses\":1,\"insertions\":1,"
            "\"evictions\":0,\"oversized_rejects\":0,\"entries\":1,"
            "\"bytes_used\":136,\"byte_budget\":32768},"
            "\"topk\":{\"hits\":0,\"misses\":1,\"insertions\":1,"
            "\"evictions\":0,\"oversized_rejects\":0,\"entries\":1,"
            "\"bytes_used\":740,\"byte_budget\":16384},"
            "\"rules\":{\"hits\":0,\"misses\":2,\"insertions\":1,"
            "\"evictions\":0,\"oversized_rejects\":1,\"entries\":1,"
            "\"bytes_used\":414,\"byte_budget\":16384}}");
}

TEST(ServeHttpTest, UrlEncodedParamsDecode) {
  Harness h = StartHarness(0);
  // %6d%61%72%72%69%65%64 = "married", '+' = space (stripped values are
  // not — the label must match exactly, so "yes" encoded oddly).
  auto response = HttpGet("127.0.0.1", h.server->port(),
                          "/match?%6d%61%72%72%69%65%64=%79es&cars=1");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"count\":1"), std::string::npos)
      << response->body;
}

// Acceptance criterion: a concurrent mixed-query workload (>= 8 threads)
// against one server with a deliberately tiny cache budget. Every
// response must equal the uncached server's answer (byte identity under
// eviction pressure), the budget must hold, and evictions must occur.
TEST(ServeHttpTest, ConcurrentMixedQueriesWithTinyCache) {
  Harness cached = StartHarness(8 * 1024, /*threads=*/4);
  Harness uncached = StartHarness(0, /*threads=*/4);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 120;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      auto cached_client =
          HttpClient::Connect("127.0.0.1", cached.server->port());
      auto uncached_client =
          HttpClient::Connect("127.0.0.1", uncached.server->port());
      if (!cached_client.ok() || !uncached_client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::vector<std::string> married = {"yes", "no"};
      for (int i = 0; i < kQueriesPerThread; ++i) {
        std::string target;
        switch (rng() % 3) {
          case 0:
            target = "/match?married=" + married[rng() % 2] +
                     "&cars=" + std::to_string(rng() % 4) +
                     "&age=" + std::to_string(rng() % 100);
            break;
          case 1:
            target = "/topk?metric=" +
                     std::string(RankMeasureName(
                         static_cast<RankMeasure>(rng() % 3))) +
                     "&k=" + std::to_string(1 + rng() % 5);
            break;
          default:
            target = "/rules?offset=" + std::to_string(rng() % 4) +
                     "&limit=" + std::to_string(1 + rng() % 4);
        }
        auto a = (*cached_client)->Get(target);
        auto b = (*uncached_client)->Get(target);
        if (!a.ok() || !b.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (a->body != b->body) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const ResultCacheStats stats = cached.service->cache_manager()->TotalStats();
  EXPECT_LE(stats.bytes_used, stats.byte_budget)
      << "cache exceeded its byte budget";
  EXPECT_GT(stats.evictions, 0u)
      << "tiny budget saw no evictions — budget not enforced?";
}

// A raw client socket with a deliberately tiny receive buffer, so the
// server's tiny SO_SNDBUF fills and its send() blocks on the reader.
int ConnectRaw(uint16_t port, int rcvbuf_bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// Regression for the half-written-response bug: a blocked send() returns
// short or times out while a slow reader drains a large body, and an old
// SendAll treated the resulting EAGAIN like a broken pipe and abandoned
// the response mid-body. A slow-but-alive reader must receive every byte
// within the deadline.
TEST(ServeHttpTest, SlowReaderStillGetsTheWholeResponse) {
  const std::string big_body(512 * 1024, 'x');
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.send_buffer_bytes = 4096;  // kernel-clamped, still tiny
  options.send_deadline_ms = 30000;
  auto server = HttpServer::Start(options, [&](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = big_body;
    return response;
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const int fd = ConnectRaw((*server)->port(), 2048);
  const std::string request =
      "GET /big HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  // Trickle-read the response. With both socket buffers tiny, the server's
  // send() blocks mid-body at every periodic stall, repeatedly.
  std::string received;
  char chunk[8 * 1024];
  size_t reads = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    received.append(chunk, static_cast<size_t>(n));
    if (++reads % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
  }
  ::close(fd);

  const size_t head_end = received.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos) << "no response head";
  EXPECT_NE(received.find("200 OK"), std::string::npos);
  EXPECT_EQ(received.substr(head_end + 4), big_body)
      << "body truncated at " << (received.size() - head_end - 4) << " of "
      << big_body.size() << " bytes";
}

// The flip side: a reader that stops draining entirely must be cut off at
// the wall-clock deadline (not retried forever), freeing the server thread
// for the next connection.
TEST(ServeHttpTest, StalledReaderIsCutOffAtDeadline) {
  const std::string big_body(4 * 1024 * 1024, 'y');
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.send_buffer_bytes = 4096;
  options.send_deadline_ms = 300;
  auto server = HttpServer::Start(options, [&](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.path == "/big" ? big_body : "pong";
    return response;
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Send a request and then never read the response.
  const int stalled = ConnectRaw((*server)->port(), 2048);
  const std::string request = "GET /big HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(stalled, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  // Once the deadline passes, the single server thread must be free again:
  // a fresh well-behaved request gets served promptly. (The follow-up body
  // is small on purpose — a multi-megabyte response through this test's
  // deliberately tiny SO_SNDBUF could itself outlast the short deadline.)
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  auto after = HttpGet("127.0.0.1", (*server)->port(), "/ping", 5000);
  ASSERT_TRUE(after.ok())
      << "server thread still stuck on the stalled connection: "
      << after.status().ToString();
  EXPECT_EQ(after->body, "pong");
  ::close(stalled);
  // Stop() joins the accept threads — it would hang if the stalled
  // connection were still being retried.
  (*server)->Stop();
}

// A reader that keeps draining, but too slowly, is cut off at the
// deadline just like one that drains nothing: the deadline is checked
// after every send(), not only when one times out, so the trickle cannot
// keep the single server thread.
TEST(ServeHttpTest, TricklingReaderIsCutOffAtDeadline) {
  const std::string big_body(4 * 1024 * 1024, 'z');
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.send_buffer_bytes = 4096;
  options.send_deadline_ms = 300;
  auto server = HttpServer::Start(options, [&](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.path == "/big" ? big_body : "pong";
    return response;
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const int trickler = ConnectRaw((*server)->port(), 2048);
  const std::string request = "GET /big HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(trickler, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  // Drain 1 KB every 50 ms until the server closes the connection; give up
  // after 5 s so a server that never cuts the trickle off fails the test
  // instead of hanging it.
  int64_t closed_ms = -1;
  std::thread reader([&] {
    char chunk[1024];
    while (elapsed_ms() < 5000) {
      if (::recv(trickler, chunk, sizeof(chunk), 0) <= 0) {
        closed_ms = elapsed_ms();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto ping = HttpGet("127.0.0.1", (*server)->port(), "/ping", 2000);
  const int64_t ping_ms = elapsed_ms();
  reader.join();
  // Closing the trickler also frees a server thread still sending to it.
  ::close(trickler);
  ASSERT_TRUE(ping.ok()) << "server thread still held by the trickler: "
                         << ping.status().ToString();
  EXPECT_EQ(ping->body, "pong");
  EXPECT_LT(ping_ms, 1500);
  EXPECT_GE(closed_ms, 0) << "the trickler was never cut off";
  EXPECT_LT(closed_ms, 1500);
  (*server)->Stop();
}

// A client that trickles its request head, one byte per 100 ms, is cut off
// once recv_timeout_ms has passed since the server began waiting for the
// head: each byte does not restart the timeout, so the trickle cannot keep
// the single server thread for 100 bytes x 300 ms.
TEST(ServeHttpTest, TricklingRequestHeadIsCutOffAtDeadline) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.recv_timeout_ms = 300;
  auto server = HttpServer::Start(options, [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::string head = "GET /slow HTTP/1.1\r\nX-Pad: ";
  head += std::string(100 - head.size() - 4, 'p') + "\r\n\r\n";
  ASSERT_EQ(head.size(), 100u);
  const int trickler = ConnectRaw((*server)->port(), 0);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (char c : head) {
      if (done.load() || ::send(trickler, &c, 1, MSG_NOSIGNAL) != 1) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto ping = HttpGet("127.0.0.1", (*server)->port(), "/ping", 5000);
  const int64_t ping_ms = elapsed_ms();
  done.store(true);
  writer.join();
  ::close(trickler);
  ASSERT_TRUE(ping.ok()) << "server thread still held by the trickler: "
                         << ping.status().ToString();
  EXPECT_EQ(ping->body, "pong");
  EXPECT_LT(ping_ms, 1000);
  (*server)->Stop();
}

// The client's twin: a server trickling its response, one byte per 50 ms,
// fails HttpClient::Get within twice the client's timeout instead of
// holding it for as long as the trickle lasts.
TEST(ServeHttpTest, ClientCutsOffATricklingResponse) {
  uint16_t port = 0;
  Result<int> listener = TcpListen("127.0.0.1", 0, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::atomic<bool> done{false};
  std::thread trickler([&] {
    Result<int> fd = TcpAccept(*listener);
    if (!fd.ok()) return;
    char chunk[1024];
    ::recv(*fd, chunk, sizeof(chunk), 0);  // the request
    const std::string response =
        "HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n" +
        std::string(20, 'b');
    // Stops after 3 s, so a client that never cuts it off fails on the
    // elapsed time below rather than hanging the test.
    for (size_t i = 0; i < response.size() && i < 60 && !done.load(); ++i) {
      if (::send(*fd, &response[i], 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::close(*fd);
  });

  const auto start = std::chrono::steady_clock::now();
  auto client = HttpClient::Connect("127.0.0.1", port, 300);
  Result<HttpResponse> got =
      client.ok() ? (*client)->Get("/slow") : Result<HttpResponse>(
                                                  client.status());
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  done.store(true);
  ::shutdown(*listener, SHUT_RDWR);  // frees an accept() nobody reached
  trickler.join();
  ::close(*listener);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_FALSE(got.ok()) << "a 3 s trickle was read to the end";
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  EXPECT_NE(got.status().message().find("timed out"), std::string::npos)
      << got.status().ToString();
  EXPECT_LT(elapsed_ms, 600);
}

// The server and the client take a host name as well as an IPv4 literal.
TEST(ServeHttpTest, HostNamesResolve) {
  HttpServerOptions options;
  options.host = "localhost";
  options.num_threads = 1;
  auto server = HttpServer::Start(options, [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto ping = HttpGet("localhost", (*server)->port(), "/ping", 2000);
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping->body, "pong");
}

// A request head longer than max_request_bytes gets a 413 and the
// connection closes; these are its exact bytes.
TEST(HttpServerTest, OverlongRequestHeadGets413) {
  HttpServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.max_request_bytes = 64;
  auto server = HttpServer::Start(
      options, [](const HttpRequest&) { return HttpResponse(); });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const int fd = ConnectRaw((*server)->port(), 0);
  const std::string request = "GET /" + std::string(100, 'a');
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string received;
  char chunk[1024];
  for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(received,
            "HTTP/1.1 413 Payload Too Large\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: 29\r\n"
            "Connection: close\r\n"
            "\r\n"
            "{\"error\":\"request too large\"}");
}

// The whitespace around a header value is optional (RFC 9110), so
// "Connection:close" and "Connection:  close" close the connection right
// after the response like "Connection: close" does, rather than keeping it
// open until the server's receive timeout.
TEST(ServeHttpTest, ConnectionCloseWithoutSpaceCloses) {
  Harness h = StartHarness(0);
  for (const char* header : {"Connection:close", "Connection:  close",
                             "connection:\tCLOSE"}) {
    const int fd = ConnectRaw(h.server->port(), 0);
    SetSocketTimeouts(fd, 3000, 0);  // a kept-alive connection fails fast
    const std::string request =
        std::string("GET /healthz HTTP/1.1\r\n") + header + "\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    const auto start = std::chrono::steady_clock::now();
    std::string received;
    char chunk[1024];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      received.append(chunk, static_cast<size_t>(n));
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ::close(fd);
    EXPECT_EQ(n, 0) << header << ": no EOF";
    EXPECT_NE(received.find("200 OK"), std::string::npos) << header;
    EXPECT_NE(received.find("Connection: close"), std::string::npos)
        << header << ": " << received;
    EXPECT_LT(elapsed, std::chrono::milliseconds(1000)) << header;
  }
}

TEST(ServeHttpTest, StopIsIdempotentAndPromptly) {
  Harness h = StartHarness(0);
  ASSERT_TRUE(HttpGet("127.0.0.1", h.server->port(), "/healthz").ok());
  h.server->Stop();
  h.server->Stop();  // second call is a no-op
  EXPECT_FALSE(HttpGet("127.0.0.1", h.server->port(), "/healthz", 500).ok());
}

}  // namespace
}  // namespace qarm
