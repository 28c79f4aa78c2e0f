// RpcEndpoint::Call over TCP loopback: the waiting caller reads its own
// reply from its endpoint's own connection (DESIGN.md §10), whichever
// side has routes to the other, and every way a wait can end — reply
// (on its own connection or on another), deadline, Stop(), Shutdown(), a
// peer close — ends it promptly.
//
// Which thread read each response comes from the process-wide
// net.tcp.responses_read_by_caller / net.tcp.responses_read_by_reactor
// counters, so the gates hold on any host.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/latch.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"

namespace chariots::net {
namespace {

using namespace std::chrono_literals;

constexpr uint16_t kEchoOp = 1;   // served inline, answers at once
constexpr uint16_t kBlockOp = 2;  // served on the strand, waits for release

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Default().GetCounter(name)->Value();
}

int64_t MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A server with an inline echo and a strand opcode that blocks until
/// released, plus a client transport routed to it.
class CallFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_side_.Listen(0).ok());
    client_side_.AddRoute("srv", "127.0.0.1", server_side_.port());
    server_.HandleInline(kEchoOp, [](const NodeId&, const std::string& q)
                                      -> Result<std::string> { return q; });
    server_.Handle(kBlockOp, [this](const NodeId&, const std::string& q)
                                 -> Result<std::string> {
      block_entered_.CountDown();
      release_.WaitFor(10s);
      return q;
    });
    ASSERT_TRUE(server_.Start().ok());
  }

  void TearDown() override {
    release_.CountDown();
    // A released handler may still be returning: the transport's fence
    // waits it out before the fixture destroys the endpoint and latches
    // it uses (RpcEndpoint::Stop orders only handlers already returned).
    server_side_.Shutdown();
  }

  TcpTransport server_side_;
  TcpTransport client_side_;
  RpcEndpoint server_{&server_side_, "srv/node"};
  CountDownLatch block_entered_{1};
  CountDownLatch release_{1};
};

TEST_F(CallFixture, SequentialCallsReadTheirOwnReplies) {
  RpcEndpoint client(&client_side_, "cli/a");
  ASSERT_TRUE(client.Start().ok());
  constexpr int kCalls = 50;
  const uint64_t by_caller0 =
      CounterValue("net.tcp.responses_read_by_caller");
  const uint64_t by_reactor0 =
      CounterValue("net.tcp.responses_read_by_reactor");
  const uint64_t skipped0 = CounterValue("net.tcp.read_events_skipped");
  for (int i = 0; i < kCalls; ++i) {
    auto r = client.Call("srv/node", kEchoOp, std::to_string(i), 2000ms);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(*r, std::to_string(i));
  }
  // The read side is taken before each request leaves, so no reply can
  // reach the reactor first, however the threads are scheduled.
  EXPECT_EQ(CounterValue("net.tcp.responses_read_by_caller") - by_caller0,
            static_cast<uint64_t>(kCalls));
  EXPECT_EQ(CounterValue("net.tcp.responses_read_by_reactor") - by_reactor0,
            0u);
  // EPOLLIN was withdrawn for each wait, so the reactor never woke for a
  // reply it could not read (level-triggered, it would spin on it).
  EXPECT_EQ(CounterValue("net.tcp.read_events_skipped") - skipped0, 0u);
}

TEST_F(CallFixture, ConcurrentCallersOnOneConnectionDeliverEachOthersReplies) {
  // Several threads share one endpoint, so one connection: at most one
  // reads it at a time, and the others' replies reach them through
  // whichever thread — caller or reactor — holds the read side.
  RpcEndpoint client(&client_side_, "cli/a");
  ASSERT_TRUE(client.Start().ok());
  constexpr int kThreads = 4;
  constexpr int kCallsEach = 200;
  const uint64_t by_caller0 =
      CounterValue("net.tcp.responses_read_by_caller");
  const uint64_t by_reactor0 =
      CounterValue("net.tcp.responses_read_by_reactor");
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsEach; ++i) {
        std::string q = std::to_string(t) + "/" + std::to_string(i);
        auto r = client.Call("srv/node", kEchoOp, q, 5000ms);
        if (!r.ok() || *r != q) ++wrong;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(CounterValue("net.tcp.responses_read_by_caller") - by_caller0 +
                CounterValue("net.tcp.responses_read_by_reactor") -
                by_reactor0,
            static_cast<uint64_t>(kThreads * kCallsEach));
}

TEST_F(CallFixture, EndpointsGetTheirOwnConnectionAndStrand) {
  // Two endpoints of one process reach one listener over two connections,
  // so a read from B is not queued behind A's blocked strand request.
  RpcEndpoint a(&client_side_, "cli/a");
  RpcEndpoint b(&client_side_, "cli/b");
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  const uint64_t accepted0 = CounterValue("net.tcp.connections_accepted");
  std::thread appender([&] {
    auto r = a.Call("srv/node", kBlockOp, "append", 5000ms);
    EXPECT_TRUE(r.ok()) << r.status();
  });
  ASSERT_TRUE(block_entered_.WaitFor(2s));
  auto start = std::chrono::steady_clock::now();
  auto r = b.Call("srv/node", kEchoOp, "read", 1000ms);
  ASSERT_TRUE(r.ok()) << "read queued behind another endpoint: "
                      << r.status();
  EXPECT_EQ(*r, "read");
  EXPECT_LT(MillisSince(start), 500);
  EXPECT_EQ(CounterValue("net.tcp.connections_accepted") - accepted0, 2u);
  release_.CountDown();
  appender.join();
}

TEST_F(CallFixture, ReplyOnAnotherConnectionStillEndsTheCallersWait) {
  // The client's node reaches the server process over two addresses, so
  // over two connections, and the server answers a node on the one it last
  // heard it on. A reply can then reach the client on a connection its
  // caller is not reading: whoever delivers it must wake the caller.
  RpcEndpoint alt(&server_side_, "alt/node");
  alt.HandleInline(kEchoOp, [](const NodeId&, const std::string& q)
                                -> Result<std::string> { return q; });
  ASSERT_TRUE(alt.Start().ok());
  client_side_.AddRoute("alt", "127.0.0.2", server_side_.port());
  RpcEndpoint client(&client_side_, "cli/a");
  ASSERT_TRUE(client.Start().ok());
  const uint64_t by_caller0 =
      CounterValue("net.tcp.responses_read_by_caller");
  const uint64_t by_reactor0 =
      CounterValue("net.tcp.responses_read_by_reactor");

  Status status;
  std::chrono::steady_clock::time_point returned;
  std::thread caller([&] {
    status = client.Call("srv/node", kBlockOp, "blocked", 5000ms).status();
    returned = std::chrono::steady_clock::now();
  });
  ASSERT_TRUE(block_entered_.WaitFor(2s));
  // Same node, second connection: the server now answers cli/a there.
  auto r = client.Call("alt/node", kEchoOp, "other", 2000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "other");
  const auto released = std::chrono::steady_clock::now();
  release_.CountDown();
  caller.join();
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(returned -
                                                                  released)
                .count(),
            500)
      << "the caller waited out its timeout";
  // The echo was read by its caller; the blocked call's reply came in on
  // the echo's connection, which nobody was reading, so the reactor read it.
  EXPECT_EQ(CounterValue("net.tcp.responses_read_by_caller") - by_caller0,
            1u);
  EXPECT_EQ(CounterValue("net.tcp.responses_read_by_reactor") - by_reactor0,
            1u);
  // Fence alt's handlers before it is destroyed.
  server_side_.Shutdown();
}

TEST_F(CallFixture, StopEndsACallerReadAtOnceAndRestartReconnects) {
  RpcEndpoint client(&client_side_, "cli/a");
  ASSERT_TRUE(client.Start().ok());
  Status status;
  int64_t waited_ms = -1;
  std::thread caller([&] {
    auto start = std::chrono::steady_clock::now();
    status = client.Call("srv/node", kBlockOp, "x", 5000ms).status();
    waited_ms = MillisSince(start);
  });
  // The request reached the server, so the caller is reading its socket.
  ASSERT_TRUE(block_entered_.WaitFor(2s));
  std::this_thread::sleep_for(20ms);
  client.Stop();
  caller.join();
  EXPECT_TRUE(status.IsUnavailable()) << status;
  EXPECT_LT(waited_ms, 1000);

  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("srv/node", kEchoOp, "again", 2000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "again");
}

TEST_F(CallFixture, ShutdownEndsACallerReadAtOnce) {
  RpcEndpoint client(&client_side_, "cli/a");
  ASSERT_TRUE(client.Start().ok());
  Status status;
  int64_t waited_ms = -1;
  std::thread caller([&] {
    auto start = std::chrono::steady_clock::now();
    status = client.Call("srv/node", kBlockOp, "x", 5000ms).status();
    waited_ms = MillisSince(start);
  });
  ASSERT_TRUE(block_entered_.WaitFor(2s));
  std::this_thread::sleep_for(20ms);
  client_side_.Shutdown();
  caller.join();
  EXPECT_TRUE(status.IsUnavailable()) << status;
  EXPECT_LT(waited_ms, 1000);

  // A shut-down transport opens no new connection: the next Call fails
  // at once instead of waiting out its timeout.
  auto start = std::chrono::steady_clock::now();
  auto r = client.Call("srv/node", kEchoOp, "again", 5000ms);
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status();
  EXPECT_LT(MillisSince(start), 1000);
}

TEST_F(CallFixture, PeerCloseEndsACallerReadAtOnceAndNextCallReconnects) {
  // A raw listener that accepts, takes the request and hangs up.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  std::thread hangup([lfd] {
    int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    char buf[256];
    (void)::recv(fd, buf, sizeof(buf), 0);
    std::this_thread::sleep_for(20ms);
    ::close(fd);
  });

  TcpTransport client_side;
  client_side.AddRoute("srv", "127.0.0.1", ntohs(sa.sin_port));
  RpcEndpoint client(&client_side, "cli/a");
  ASSERT_TRUE(client.Start().ok());
  auto start = std::chrono::steady_clock::now();
  auto r = client.Call("srv/node", kEchoOp, "x", 5000ms);
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status();
  EXPECT_LT(MillisSince(start), 1000);
  hangup.join();
  ::close(lfd);

  // The lost connection is forgotten: the next Call connects afresh (the
  // later route, to the real server, wins the equal-length prefix).
  client_side.AddRoute("srv", "127.0.0.1", server_side_.port());
  r = client.Call("srv/node", kEchoOp, "again", 2000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "again");
}

TEST_F(CallFixture, DeadlineExpiresWhileTheCallerReads) {
  RpcEndpoint client(&client_side_, "cli/a");
  ASSERT_TRUE(client.Start().ok());
  const uint64_t timeouts0 = CounterValue("net.rpc.call_timeouts");

  CallOptions options;
  options.deadline =
      Deadline::After(100'000'000, SystemClock::Default());  // 100 ms
  auto start = std::chrono::steady_clock::now();
  auto r = client.Call("srv/node", kBlockOp, "late", options);
  const int64_t waited_ms = MillisSince(start);
  EXPECT_EQ(r.status().code(), StatusCode::kTimedOut) << r.status();
  EXPECT_NE(r.status().message().find("deadline exceeded"),
            std::string::npos)
      << r.status();
  EXPECT_GE(waited_ms, 100);
  EXPECT_LT(waited_ms, 1000);

  // A plain per-call timeout ends the same way, without the deadline text.
  start = std::chrono::steady_clock::now();
  r = client.Call("srv/node", kBlockOp, "later", 100ms);
  EXPECT_EQ(r.status().code(), StatusCode::kTimedOut) << r.status();
  EXPECT_EQ(r.status().message().find("deadline exceeded"), std::string::npos)
      << r.status();
  EXPECT_LT(MillisSince(start), 1000);
  EXPECT_EQ(CounterValue("net.rpc.call_timeouts") - timeouts0, 2u);

  // The late replies are dropped; the connection keeps working.
  release_.CountDown();
  auto ok = client.Call("srv/node", kEchoOp, "fresh", 2000ms);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(*ok, "fresh");
}

TEST(TcpRoutesBothWaysTest, CallersReadTheirRepliesWhenEachSideRoutesBack) {
  // Two processes with static routes to each other, as every chariots_node
  // has: each reply must come back on the connection its request left on,
  // not on a connection of the server's own, so the caller reads it at
  // once instead of waiting out its timeout.
  TcpTransport a_side, b_side;
  ASSERT_TRUE(a_side.Listen(0).ok());
  ASSERT_TRUE(b_side.Listen(0).ok());
  a_side.AddRoute("b", "127.0.0.1", b_side.port());
  b_side.AddRoute("a", "127.0.0.1", a_side.port());
  RpcEndpoint a(&a_side, "a/node");
  RpcEndpoint b(&b_side, "b/node");
  for (RpcEndpoint* e : {&a, &b}) {
    e->HandleInline(kEchoOp, [](const NodeId&, const std::string& q)
                                 -> Result<std::string> { return q; });
    ASSERT_TRUE(e->Start().ok());
  }
  constexpr int kCalls = 20;
  const uint64_t by_caller0 =
      CounterValue("net.tcp.responses_read_by_caller");
  const uint64_t by_reactor0 =
      CounterValue("net.tcp.responses_read_by_reactor");
  for (int i = 0; i < kCalls; ++i) {
    for (auto [from, to] : {std::pair{&a, "b/node"}, std::pair{&b, "a/node"}}) {
      auto start = std::chrono::steady_clock::now();
      auto r = from->Call(to, kEchoOp, std::to_string(i), 5000ms);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(*r, std::to_string(i));
      EXPECT_LT(MillisSince(start), 500) << "call " << i << " to " << to;
    }
  }
  EXPECT_EQ(CounterValue("net.tcp.responses_read_by_caller") - by_caller0,
            static_cast<uint64_t>(2 * kCalls));
  EXPECT_EQ(CounterValue("net.tcp.responses_read_by_reactor") - by_reactor0,
            0u);
  a_side.Shutdown();
  b_side.Shutdown();
}

TEST(TcpCloseTest, ShutdownFencesStrandOfConnectionClosedEarlier) {
  // A strand handler is still running when its connection closes (the
  // client went away). Shutdown() must wait for it like for any other.
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  CountDownLatch entered(1);
  CountDownLatch release(1);
  std::atomic<bool> returned{false};
  ASSERT_TRUE(server_side
                  .Register("srv/node",
                            [&](Message) {
                              entered.CountDown();
                              release.WaitFor(5s);
                              std::this_thread::sleep_for(20ms);
                              returned = true;
                            })
                  .ok());
  {
    TcpTransport client_side;
    client_side.AddRoute("srv", "127.0.0.1", server_side.port());
    Message m;
    m.from = "cli/node";
    m.to = "srv/node";
    ASSERT_TRUE(client_side.Send(std::move(m)).ok());
    ASSERT_TRUE(entered.WaitFor(2s));
  }
  // The server reads the client's EOF and closes the connection.
  std::this_thread::sleep_for(50ms);
  std::thread releaser([&] {
    std::this_thread::sleep_for(50ms);
    release.CountDown();
  });
  server_side.Shutdown();
  EXPECT_TRUE(returned.load())
      << "Shutdown() returned while a strand handler was running";
  releaser.join();
}

}  // namespace
}  // namespace chariots::net
