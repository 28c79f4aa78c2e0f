// Tests for the message/RPC substrate: in-process transport (latency,
// bandwidth, partitions), RPC request/response, and the TCP transport.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/latch.h"
#include "common/metrics.h"
#include "net/inproc_transport.h"
#include "net/message.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"

namespace chariots::net {
namespace {

using namespace std::chrono_literals;

/// The wire bytes of `m`, via the one encoder (flattened slice chain).
std::string WireBytes(const Message& m, std::string_view prepend = {}) {
  Message copy = m;
  return EncodeMessageSlices(std::move(copy), prepend).Flatten();
}

TEST(MessageCodecTest, RoundTrip) {
  Message m;
  m.from = "dc0/client/1";
  m.to = "dc0/maintainer/2";
  m.type = 17;
  m.rpc_id = 0xfeed;
  m.is_response = true;
  m.error_code = 3;
  m.payload = std::string("\x00\x01 binary \xff", 12);
  auto decoded = DecodeMessage(WireBytes(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->from, m.from);
  EXPECT_EQ(decoded->to, m.to);
  EXPECT_EQ(decoded->type, m.type);
  EXPECT_EQ(decoded->rpc_id, m.rpc_id);
  EXPECT_EQ(decoded->is_response, m.is_response);
  EXPECT_EQ(decoded->error_code, m.error_code);
  EXPECT_EQ(decoded->payload, m.payload);
}

// Pins the wire layout field by field, so a change to the encoder is a
// visible format change rather than a silent one.
TEST(MessageCodecTest, WireLayoutIsPinned) {
  Message m;
  m.from = "a";
  m.to = "bc";
  m.type = 0x0102;
  m.rpc_id = 0x0807060504030201;
  m.is_response = true;
  m.error_code = 9;
  m.payload = "xyz";
  const std::string expected =
      std::string("\x01\x00\x00\x00" "a" "\x02\x00\x00\x00" "bc", 11) +
      std::string("\x02\x01", 2) +
      std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8) +
      std::string("\x01\x09", 2) +
      std::string("\x03\x00\x00\x00" "xyz", 7);
  EXPECT_EQ(WireBytes(m), expected);
  EXPECT_EQ(WireBytes(m, "len!"), "len!" + expected);
}

TEST(MessageCodecTest, GarbageIsRejected) {
  EXPECT_FALSE(DecodeMessage("not a message").ok());
  EXPECT_FALSE(DecodeMessage("").ok());
}

// WireSize() feeds the bandwidth simulation and the TCP frame length; it
// must not drift from what the codec actually puts on the wire.
TEST(MessageCodecTest, WireSizeMatchesEncodedSize) {
  Message m;
  EXPECT_EQ(m.WireSize(), WireBytes(m).size());

  m.from = "dc0/client/1";
  m.to = "dc1/maintainer/2";
  m.type = 42;
  m.rpc_id = 0x1234567890;
  m.payload = std::string(1000, 'x');
  EXPECT_EQ(m.WireSize(), WireBytes(m).size());

  // Active multi-hop trace: the trailer bytes must be counted too.
  m.trace.trace_id = 0xabcdef;
  m.trace.hops.push_back({"client", 0, 123});
  m.trace.hops.push_back({"batcher", 0, 456});
  m.trace.hops.push_back({"remote-receiver", 1, 789});
  EXPECT_EQ(m.WireSize(), WireBytes(m).size());
}

// ------------------------------------------------------ slice-chain encode

// Every message shape — inline or borrowed payload, request or error
// response, with or without a trace trailer, with or without a prepend —
// flattens to prepend + WireSize() bytes that decode back to the original.
// That is what lets the TCP transport frame and scatter-gather write the
// chain without ever flattening it.
TEST(MessageCodecTest, SlicesRoundTripEveryShape) {
  auto expect_round_trip = [](const Message& m, std::string_view prepend) {
    Message moved = m;
    SliceChain chain = EncodeMessageSlices(std::move(moved), prepend);
    EXPECT_EQ(chain.size(), prepend.size() + m.WireSize());
    std::string flat = chain.Flatten();
    EXPECT_EQ(flat.substr(0, prepend.size()), prepend);
    auto decoded =
        DecodeMessage(std::string_view(flat).substr(prepend.size()));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->from, m.from);
    EXPECT_EQ(decoded->to, m.to);
    EXPECT_EQ(decoded->type, m.type);
    EXPECT_EQ(decoded->rpc_id, m.rpc_id);
    EXPECT_EQ(decoded->is_response, m.is_response);
    EXPECT_EQ(decoded->error_code, m.error_code);
    EXPECT_EQ(decoded->payload, m.payload);
    EXPECT_EQ(decoded->trace.trace_id, m.trace.trace_id);
    EXPECT_EQ(decoded->trace.hops, m.trace.hops);
    EXPECT_EQ(decoded->trace.spans, m.trace.spans);
  };

  Message m;
  expect_round_trip(m, "");  // default everything

  m.from = "dc0/client/1";
  m.to = "dc1/maintainer/2";
  m.type = 42;
  m.rpc_id = 0x1234567890;
  expect_round_trip(m, "");  // empty payload

  m.payload = "small";  // below the inline threshold: single slice
  expect_round_trip(m, "len!");
  {
    Message moved = m;
    SliceChain chain = EncodeMessageSlices(std::move(moved), "");
    EXPECT_EQ(chain.slices().size(), 1u);
  }

  m.payload = std::string(kInlineMessagePayloadBytes, 'p');  // borrowed
  expect_round_trip(m, "len!");

  m.is_response = true;
  m.error_code = 7;
  expect_round_trip(m, "");  // response + error shape

  m.payload = std::string("\x00\x01 binary \xff", 12);
  expect_round_trip(m, std::string_view("\x00\x00\x00\x00", 4));

  // Active multi-hop, multi-span trace: the trailer must land after the
  // payload slice.
  m.payload = std::string(4096, 't');
  m.trace.trace_id = 0xabcdef;
  m.trace.hops.push_back({"client", 0, 123});
  m.trace.hops.push_back({"remote-receiver", 1, 789});
  expect_round_trip(m, "");
  m.payload = "tiny";  // active trace + inline payload
  expect_round_trip(m, "x");
}

TEST(MessageCodecTest, SlicesBorrowLargePayloadWithoutCopy) {
  Message m;
  m.payload = std::string(4096, 'p');
  const char* payload_data = m.payload.data();
  SliceChain chain = EncodeMessageSlices(std::move(m), "");
  // The payload slice must alias the original string's heap bytes — moved
  // into the chain's refcounted Buffer, not copied.
  bool borrowed = false;
  for (const IoSlice& s : chain.slices()) {
    if (s.data.size() == 4096 && s.data.data() == payload_data) {
      borrowed = true;
    }
  }
  EXPECT_TRUE(borrowed);
  // Copying the chain shares the buffers; the bytes survive the original.
  SliceChain copy = chain;
  chain.Clear();
  EXPECT_EQ(copy.Flatten().substr(copy.size() - 4096), std::string(4096, 'p'));
}

TEST(MessageCodecTest, InlinePayloadStaysBelowOneSliceThreshold) {
  // Payloads below the threshold are deliberately copied (one small memcpy
  // beats an extra iovec entry); at or above, they are borrowed.
  Message small;
  small.payload = std::string(kInlineMessagePayloadBytes - 1, 's');
  EXPECT_EQ(EncodeMessageSlices(std::move(small), "").slices().size(), 1u);
  Message big;
  big.payload = std::string(kInlineMessagePayloadBytes, 'b');
  EXPECT_EQ(EncodeMessageSlices(std::move(big), "").slices().size(), 2u);
}

// --------------------------------------------------------- InProcTransport

TEST(InProcTransportTest, DeliversToRegisteredNode) {
  InProcTransport t;
  CountDownLatch latch(1);
  std::string got;
  ASSERT_TRUE(t.Register("b", [&](Message m) {
                 got = m.payload;
                 latch.CountDown();
               }).ok());
  Message m;
  m.from = "a";
  m.to = "b";
  m.payload = "hello";
  ASSERT_TRUE(t.Send(m).ok());
  latch.Wait();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(t.messages_delivered(), 1u);
}

TEST(InProcTransportTest, UnknownDestinationFails) {
  InProcTransport t;
  Message m;
  m.to = "ghost";
  EXPECT_TRUE(t.Send(m).IsNotFound());
}

TEST(InProcTransportTest, DuplicateRegistrationFails) {
  InProcTransport t;
  ASSERT_TRUE(t.Register("x", [](Message) {}).ok());
  EXPECT_EQ(t.Register("x", [](Message) {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(InProcTransportTest, FifoPerSender) {
  InProcTransport t;
  std::vector<int> order;
  std::mutex mu;
  CountDownLatch latch(100);
  ASSERT_TRUE(t.Register("sink", [&](Message m) {
                 std::lock_guard<std::mutex> lock(mu);
                 order.push_back(std::stoi(m.payload));
                 latch.CountDown();
               }).ok());
  for (int i = 0; i < 100; ++i) {
    Message m;
    m.from = "src";
    m.to = "sink";
    m.payload = std::to_string(i);
    ASSERT_TRUE(t.Send(m).ok());
  }
  latch.Wait();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(InProcTransportTest, LatencyDelaysDelivery) {
  InProcTransport t;
  CountDownLatch latch(1);
  ASSERT_TRUE(t.Register("dc1/n", [&](Message) { latch.CountDown(); }).ok());
  LinkOptions wan;
  wan.latency_nanos = 50'000'000;  // 50ms
  t.SetLink("dc0", "dc1", wan);
  Message m;
  m.from = "dc0/n";
  m.to = "dc1/n";
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(t.Send(m).ok());
  latch.Wait();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 40ms);
}

TEST(InProcTransportTest, MostSpecificLinkRuleWins) {
  InProcTransport t;
  CountDownLatch latch(1);
  ASSERT_TRUE(t.Register("dc1/fast", [&](Message) { latch.CountDown(); }).ok());
  LinkOptions slow;
  slow.latency_nanos = 2'000'000'000;  // 2s — must NOT apply
  t.SetLink("dc0", "dc1", slow);
  t.SetLink("dc0", "dc1/fast", LinkOptions{});  // specific: no delay
  Message m;
  m.from = "dc0/n";
  m.to = "dc1/fast";
  ASSERT_TRUE(t.Send(m).ok());
  EXPECT_TRUE(latch.WaitFor(500ms));
}

TEST(InProcTransportTest, PartitionDropsAndHealRestores) {
  InProcTransport t;
  std::atomic<int> received{0};
  ASSERT_TRUE(t.Register("dc1/n", [&](Message) { ++received; }).ok());
  t.Partition("dc0", "dc1");
  Message m;
  m.from = "dc0/n";
  m.to = "dc1/n";
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Send(m).ok());
  EXPECT_EQ(t.messages_dropped(), 10u);
  EXPECT_EQ(received.load(), 0);

  t.Heal("dc0", "dc1");
  CountDownLatch latch(1);
  ASSERT_TRUE(t.Unregister("dc1/n").ok());
  ASSERT_TRUE(t.Register("dc1/n", [&](Message) { latch.CountDown(); }).ok());
  ASSERT_TRUE(t.Send(m).ok());
  EXPECT_TRUE(latch.WaitFor(1s));
}

TEST(InProcTransportTest, UnregisterStopsDelivery) {
  InProcTransport t;
  ASSERT_TRUE(t.Register("n", [](Message) {}).ok());
  ASSERT_TRUE(t.Unregister("n").ok());
  Message m;
  m.to = "n";
  EXPECT_TRUE(t.Send(m).IsNotFound());
  EXPECT_TRUE(t.Unregister("n").IsNotFound());
}

// -------------------------------------------------------------------- RPC

class RpcTest : public ::testing::Test {
 protected:
  InProcTransport transport_;
};

TEST_F(RpcTest, CallRoundTrip) {
  RpcEndpoint server(&transport_, "server");
  server.Handle(1, [](const NodeId& from, const std::string& payload)
                       -> Result<std::string> {
    EXPECT_EQ(from, "client");
    return "echo:" + payload;
  });
  ASSERT_TRUE(server.Start().ok());

  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("server", 1, "ping");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "echo:ping");
}

TEST_F(RpcTest, ErrorStatusTravelsBack) {
  RpcEndpoint server(&transport_, "server");
  server.Handle(1, [](const NodeId&, const std::string&)
                       -> Result<std::string> {
    return Status::NotFound("no such record");
  });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("server", 1, "");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.status().message(), "no such record");
}

TEST_F(RpcTest, UnknownOpcodeIsNotSupported) {
  RpcEndpoint server(&transport_, "server");
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("server", 99, "");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST_F(RpcTest, CallTimesOutThroughPartition) {
  RpcEndpoint server(&transport_, "dc1/server");
  server.Handle(1, [](const NodeId&, const std::string&)
                       -> Result<std::string> { return std::string(); });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "dc0/client");
  ASSERT_TRUE(client.Start().ok());
  transport_.Partition("dc0", "dc1");
  auto r = client.Call("dc1/server", 1, "", 50ms);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimedOut());
}

TEST_F(RpcTest, OneWayNotify) {
  CountDownLatch latch(3);
  RpcEndpoint server(&transport_, "server");
  server.HandleOneWay(2, [&](const NodeId&, std::string) {
    latch.CountDown();
  });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Notify("server", 2, "x").ok());
  }
  EXPECT_TRUE(latch.WaitFor(1s));
}

TEST_F(RpcTest, ConcurrentCallsCorrelate) {
  RpcEndpoint server(&transport_, "server");
  server.Handle(1, [](const NodeId&, const std::string& payload)
                       -> Result<std::string> { return payload; });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());

  std::atomic<int> ok{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&, t] {
      for (int i = t; i < 64; i += 8) {
        auto r = client.Call("server", 1, std::to_string(i));
        if (r.ok() && *r == std::to_string(i)) ++ok;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(ok.load(), 64);
}

TEST_F(RpcTest, InlineHandlerIsServedOnTheStrandInProc) {
  // InProcTransport ignores the inline predicate: an inline handler is
  // served like any other, so virtual-time runs are unchanged.
  RpcEndpoint server(&transport_, "server");
  server.HandleInline(1, [](const NodeId&, const std::string& p)
                             -> Result<std::string> { return "in:" + p; });
  ASSERT_TRUE(server.Start().ok());
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("server", 1, "x");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "in:x");
}

TEST_F(RpcTest, StopFailsPendingCalls) {
  RpcEndpoint client(&transport_, "client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("nobody", 1, "");
  EXPECT_FALSE(r.ok());  // NotFound from transport
}

// ---------------------------------------------------------- TcpTransport

TEST(TcpTransportTest, LoopbackRoundTrip) {
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  CountDownLatch latch(1);
  std::string got;
  ASSERT_TRUE(server_side.Register("srv/node", [&](Message m) {
                 got = m.payload;
                 latch.CountDown();
               }).ok());

  TcpTransport client_side;
  client_side.AddRoute("srv", "127.0.0.1", server_side.port());
  Message m;
  m.from = "cli/node";
  m.to = "srv/node";
  m.payload = "over tcp";
  ASSERT_TRUE(client_side.Send(m).ok());
  EXPECT_TRUE(latch.WaitFor(2s));
  EXPECT_EQ(got, "over tcp");
}

TEST(TcpTransportTest, LocalDeliveryShortCircuits) {
  TcpTransport t;
  CountDownLatch latch(1);
  ASSERT_TRUE(t.Register("local", [&](Message) { latch.CountDown(); }).ok());
  Message m;
  m.to = "local";
  ASSERT_TRUE(t.Send(m).ok());
  EXPECT_TRUE(latch.WaitFor(1s));
}

TEST(TcpTransportTest, NoRouteFails) {
  TcpTransport t;
  Message m;
  m.to = "elsewhere/node";
  EXPECT_TRUE(t.Send(m).IsNotFound());
}

TEST(TcpTransportTest, LearnsPeersFromInboundConnections) {
  // A "server" with no static route back to the client must still be able
  // to answer: the client's node id is learned from its connection.
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  RpcEndpoint server(&server_side, "srv/echo");
  server.Handle(1, [](const NodeId&, const std::string& p)
                       -> Result<std::string> { return "re:" + p; });
  ASSERT_TRUE(server.Start().ok());

  TcpTransport client_side;
  client_side.AddRoute("srv", "127.0.0.1", server_side.port());
  RpcEndpoint client(&client_side, "ephemeral/client/1234");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("srv/echo", 1, "hello", 2000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "re:hello");
}

TEST(TcpTransportTest, SurvivesGarbageBytes) {
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  CountDownLatch latch(1);
  ASSERT_TRUE(server_side.Register("srv/node", [&](Message) {
                 latch.CountDown();
               }).ok());

  // Throw raw garbage at the port: the server must drop the connection
  // without crashing or delivering anything.
  {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<uint16_t>(server_side.port()));
    inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
              0);
    // A plausible-length header followed by junk that fails the decode.
    std::string junk = "\x10\x00\x00\x00 this is not a message ";
    ASSERT_GT(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL), 0);
    ::close(fd);
  }
  std::this_thread::sleep_for(50ms);

  // The transport still works for a well-formed client afterwards.
  TcpTransport client_side;
  client_side.AddRoute("srv", "127.0.0.1", server_side.port());
  Message m;
  m.from = "cli/x";
  m.to = "srv/node";
  m.payload = "real";
  ASSERT_TRUE(client_side.Send(m).ok());
  EXPECT_TRUE(latch.WaitFor(2s));
}

TEST(TcpTransportTest, OversizedFrameRejected) {
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  std::atomic<int> delivered{0};
  ASSERT_TRUE(server_side.Register("srv/node", [&](Message) {
                 ++delivered;
               }).ok());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(server_side.port()));
  inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  // Claim a 1 GiB frame: connection must be closed, not allocated.
  uint32_t huge = 1u << 30;
  char header[4];
  for (int i = 0; i < 4; ++i) header[i] = static_cast<char>(huge >> (8 * i));
  ASSERT_GT(::send(fd, header, 4, MSG_NOSIGNAL), 0);
  std::this_thread::sleep_for(50ms);
  ::close(fd);
  EXPECT_EQ(delivered.load(), 0);
}

TEST(TcpTransportTest, RpcOverTcpBothDirections) {
  TcpTransport a, b;
  ASSERT_TRUE(a.Listen(0).ok());
  ASSERT_TRUE(b.Listen(0).ok());
  a.AddRoute("b", "127.0.0.1", b.port());
  b.AddRoute("a", "127.0.0.1", a.port());

  RpcEndpoint server(&b, "b/server");
  server.Handle(1, [](const NodeId&, const std::string& p)
                       -> Result<std::string> { return "tcp:" + p; });
  ASSERT_TRUE(server.Start().ok());

  RpcEndpoint client(&a, "a/client");
  ASSERT_TRUE(client.Start().ok());
  auto r = client.Call("b/server", 1, "hi", 2000ms);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "tcp:hi");
}

// ------------------------------------------- TcpTransport: inline requests

constexpr uint16_t kReadOp = 1;    // served inline (never blocks)
constexpr uint16_t kAppendOp = 2;  // served on the strand (may block)

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Default().GetCounter(name)->Value();
}

/// A server transport plus a client transport routed to it; `server` and
/// `client` endpoints are started by the test after registering handlers.
struct TcpPair {
  TcpPair() {
    EXPECT_TRUE(server_side.Listen(0).ok());
    client_side.AddRoute("srv", "127.0.0.1", server_side.port());
  }
  TcpTransport server_side;
  TcpTransport client_side;
  RpcEndpoint server{&server_side, "srv/node"};
  RpcEndpoint client{&client_side, "cli/node"};
};

TEST(TcpInlineTest, RemoteReadsCostNoExecutorHandoff) {
  TcpPair p;
  p.server.HandleInline(kReadOp, [](const NodeId&, const std::string& q)
                                     -> Result<std::string> { return q; });
  p.server.Handle(kAppendOp, [](const NodeId&, const std::string& q)
                                 -> Result<std::string> { return q; });
  ASSERT_TRUE(p.server.Start().ok());
  ASSERT_TRUE(p.client.Start().ok());

  // Sequential calls: each request finds its connection's strand idle.
  constexpr int kCalls = 50;
  const uint64_t inline0 = CounterValue("net.tcp.requests_inline");
  const uint64_t queued0 = CounterValue("net.tcp.requests_queued");
  for (int i = 0; i < kCalls; ++i) {
    auto r = p.client.Call("srv/node", kReadOp, std::to_string(i), 2000ms);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(*r, std::to_string(i));
  }
  EXPECT_EQ(CounterValue("net.tcp.requests_inline") - inline0,
            static_cast<uint64_t>(kCalls));
  EXPECT_EQ(CounterValue("net.tcp.requests_queued") - queued0, 0u);

  // A strand opcode pays exactly one handoff.
  auto r = p.client.Call("srv/node", kAppendOp, "a", 2000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(CounterValue("net.tcp.requests_queued") - queued0, 1u);
  EXPECT_EQ(CounterValue("net.tcp.requests_inline") - inline0,
            static_cast<uint64_t>(kCalls));
}

TEST(TcpInlineTest, InlineRequestWaitsBehindBusyStrand) {
  // Per-connection FIFO: a read arriving while an append on the same
  // connection is still running must queue behind it, not overtake it —
  // and must not park the reactor either: a read on another connection is
  // still served inline meanwhile.
  TcpPair p;
  CountDownLatch append_entered(1);
  CountDownLatch release_append(1);
  std::atomic<bool> append_done{false};
  std::atomic<bool> read_ran{false};
  std::atomic<bool> read_overtook{false};
  p.server.Handle(kAppendOp, [&](const NodeId&, const std::string&)
                                 -> Result<std::string> {
    append_entered.CountDown();
    release_append.WaitFor(5s);
    append_done = true;
    return std::string("appended");
  });
  // Only the read sent on the append's connection is tracked.
  p.server.HandleInline(kReadOp, [&](const NodeId&, const std::string& q)
                                     -> Result<std::string> {
    if (q != "same") return std::string("other");
    if (!append_done.load()) read_overtook = true;
    read_ran = true;
    return std::string("read");
  });
  ASSERT_TRUE(p.server.Start().ok());
  ASSERT_TRUE(p.client.Start().ok());

  std::thread appender([&] {
    auto r = p.client.Call("srv/node", kAppendOp, "", 5000ms);
    EXPECT_TRUE(r.ok()) << r.status();
  });
  ASSERT_TRUE(append_entered.WaitFor(2s));
  const uint64_t queued0 = CounterValue("net.tcp.requests_queued");
  // Same client transport, so the same connection as the append.
  std::thread reader([&] {
    auto r = p.client.Call("srv/node", kReadOp, "same", 5000ms);
    EXPECT_TRUE(r.ok()) << r.status();
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(read_ran.load()) << "read ran while the strand was busy";
  {
    TcpTransport other_side;
    other_side.AddRoute("srv", "127.0.0.1", p.server_side.port());
    RpcEndpoint other(&other_side, "cli/other");
    ASSERT_TRUE(other.Start().ok());
    const uint64_t inline0 = CounterValue("net.tcp.requests_inline");
    auto r = other.Call("srv/node", kReadOp, "", 1000ms);
    EXPECT_TRUE(r.ok()) << "reactor stalled behind a busy strand: "
                        << r.status();
    EXPECT_EQ(CounterValue("net.tcp.requests_inline") - inline0, 1u);
  }
  EXPECT_FALSE(append_done.load());
  EXPECT_FALSE(read_ran.load());
  release_append.CountDown();
  appender.join();
  reader.join();
  EXPECT_TRUE(read_ran.load());
  EXPECT_FALSE(read_overtook.load());
  EXPECT_EQ(CounterValue("net.tcp.requests_queued") - queued0, 1u);
}

TEST(TcpInlineTest, StrandHandlerCanMakeNestedCallOverSameConnection) {
  // A strand handler calls back to its caller: the nested request travels
  // over the connection whose strand the handler occupies, and its response
  // must still be delivered (responses never wait on a strand).
  TcpPair p;
  p.client.HandleInline(kReadOp, [](const NodeId&, const std::string& q)
                                     -> Result<std::string> {
    return "inner:" + q;
  });
  p.server.Handle(kAppendOp, [&](const NodeId& from, const std::string& q)
                                 -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(
        std::string inner, p.server.Call(from, kReadOp, q, 1000ms));
    return "outer:" + inner;
  });
  ASSERT_TRUE(p.server.Start().ok());
  ASSERT_TRUE(p.client.Start().ok());
  auto r = p.client.Call("srv/node", kAppendOp, "x", 3000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "outer:inner:x");
}

TEST(TcpInlineTest, ConditionPicksInlineOrStrandPerRequest) {
  // The same handler runs inline while its condition holds and on the
  // strand when it does not; the condition is read per request.
  TcpPair p;
  std::atomic<bool> cannot_wait{true};
  p.server.HandleInline(
      kAppendOp,
      [](const NodeId&, const std::string& q) -> Result<std::string> {
        return q;
      },
      [&] { return cannot_wait.load(); });
  ASSERT_TRUE(p.server.Start().ok());
  ASSERT_TRUE(p.client.Start().ok());

  const uint64_t inline0 = CounterValue("net.tcp.requests_inline");
  const uint64_t queued0 = CounterValue("net.tcp.requests_queued");
  auto r = p.client.Call("srv/node", kAppendOp, "a", 2000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(CounterValue("net.tcp.requests_inline") - inline0, 1u);
  EXPECT_EQ(CounterValue("net.tcp.requests_queued") - queued0, 0u);

  cannot_wait = false;
  r = p.client.Call("srv/node", kAppendOp, "b", 2000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "b");
  EXPECT_EQ(CounterValue("net.tcp.requests_inline") - inline0, 1u);
  EXPECT_EQ(CounterValue("net.tcp.requests_queued") - queued0, 1u);
}

TEST(TcpInlineTest, CallFromInlineHandlerFailsFast) {
  // An inline handler that breaks its promise and makes a Call over TCP:
  // the reply would come back on a connection this reactor serves, so
  // waiting would park the reactor for the whole timeout. The guard fails
  // the Call at once and sends nothing; the reactor keeps serving.
  TcpPair p;
  TcpTransport peer_side;
  ASSERT_TRUE(peer_side.Listen(0).ok());
  p.server_side.AddRoute("peer", "127.0.0.1", peer_side.port());
  std::atomic<int> peer_requests{0};
  RpcEndpoint peer(&peer_side, "peer/node");
  peer.Handle(kReadOp, [&](const NodeId&, const std::string&)
                           -> Result<std::string> {
    ++peer_requests;
    return std::string("pong");
  });
  ASSERT_TRUE(peer.Start().ok());

  std::atomic<int> nested_code{-1};
  std::atomic<int64_t> nested_us{-1};
  p.server.HandleInline(kReadOp, [&](const NodeId&, const std::string& q)
                                     -> Result<std::string> {
    if (q != "nested") return std::string("plain");
    auto start = std::chrono::steady_clock::now();
    Result<std::string> r = p.server.Call("peer/node", kReadOp, "ping", 2000ms);
    nested_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    nested_code = static_cast<int>(r.status().code());
    return std::string("nested");
  });
  ASSERT_TRUE(p.server.Start().ok());
  ASSERT_TRUE(p.client.Start().ok());

  const uint64_t inline0 = CounterValue("net.tcp.requests_inline");
  auto r = p.client.Call("srv/node", kReadOp, "nested", 5000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(nested_code.load(), static_cast<int>(StatusCode::kUnavailable));
  EXPECT_GE(nested_us.load(), 0);
  EXPECT_LT(nested_us.load(), 50'000) << "the inline Call parked the reactor";

  // Another connection is served inline right after.
  TcpTransport other_side;
  other_side.AddRoute("srv", "127.0.0.1", p.server_side.port());
  RpcEndpoint other(&other_side, "cli/other");
  ASSERT_TRUE(other.Start().ok());
  r = other.Call("srv/node", kReadOp, "", 1000ms);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "plain");
  EXPECT_EQ(CounterValue("net.tcp.requests_inline") - inline0, 2u);
  // Nothing went out: the peer never saw the refused request.
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(peer_requests.load(), 0);

  // Off the reactor the same Call goes through.
  auto direct = p.server.Call("peer/node", kReadOp, "ping", 2000ms);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(*direct, "pong");
}

TEST(TcpInlineTest, ShutdownFencesInlineHandlers) {
  // Shutdown() waits for an inline handler in flight, and no inline
  // handler starts after it returns, though requests keep arriving.
  TcpTransport server_side;
  ASSERT_TRUE(server_side.Listen(0).ok());
  CountDownLatch first_entered(1);
  std::atomic<bool> shutdown_called{false};
  std::atomic<bool> shutdown_returned{false};
  std::atomic<bool> first_returned{false};
  std::atomic<uint64_t> handled{0};
  std::atomic<uint64_t> late{0};
  ASSERT_TRUE(
      server_side
          .Register(
              "srv/node",
              [&](Message) {
                if (shutdown_returned.load()) ++late;
                if (handled++ == 0) {
                  // Hold the first request until Shutdown() is under way.
                  first_entered.CountDown();
                  for (int i = 0; i < 2000 && !shutdown_called.load(); ++i) {
                    std::this_thread::sleep_for(1ms);
                  }
                  std::this_thread::sleep_for(20ms);
                  first_returned = true;
                }
              },
              [](const Message&) { return true; })
          .ok());
  const uint64_t inline0 = CounterValue("net.tcp.requests_inline");

  TcpTransport client_side;
  client_side.AddRoute("srv", "127.0.0.1", server_side.port());
  std::atomic<bool> stop{false};
  std::thread sender([&] {
    // Keeps requests flowing across the shutdown; Sends fail once the
    // server is gone, which is expected.
    while (!stop.load()) {
      Message m;
      m.from = "cli/node";
      m.to = "srv/node";
      m.payload = "x";
      (void)client_side.Send(std::move(m));
      std::this_thread::sleep_for(100us);
    }
  });
  ASSERT_TRUE(first_entered.WaitFor(2s));
  shutdown_called = true;
  server_side.Shutdown();
  shutdown_returned = true;
  EXPECT_TRUE(first_returned.load())
      << "Shutdown() returned while an inline handler was running";
  const uint64_t at_shutdown = handled.load();
  std::this_thread::sleep_for(100ms);
  stop = true;
  sender.join();
  EXPECT_EQ(late.load(), 0u);
  EXPECT_EQ(handled.load(), at_shutdown);
  EXPECT_GT(CounterValue("net.tcp.requests_inline") - inline0, 0u);
}

}  // namespace
}  // namespace chariots::net
