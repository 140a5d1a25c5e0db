#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/errors.hpp"
#include "tcp_client.hpp"

namespace geoproof::net {
namespace {

using test::TcpClient;

/// Raw loopback connection for wire-level edge cases the channel classes
/// refuse to produce (oversized headers, partial frames).
Socket raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return Socket(fd);
}

/// Spin (politely) until `done` or a generous deadline.
template <typename Pred>
bool wait_until(Pred done) {
  const SteadyAuditTimer timer;
  while (!done() && timer.now() < Millis{5000.0}) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

void raw_send(const Socket& sock, BytesView data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(sock.fd(), data.data() + sent,
                             data.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// The 4-byte big-endian length header the server frames with.
Bytes frame_header(std::uint32_t len) {
  return {static_cast<std::uint8_t>(len >> 24),
          static_cast<std::uint8_t>(len >> 16),
          static_cast<std::uint8_t>(len >> 8), static_cast<std::uint8_t>(len)};
}

void write_frame(const Socket& sock, BytesView payload) {
  Bytes wire = frame_header(static_cast<std::uint32_t>(payload.size()));
  append(wire, payload);
  raw_send(sock, wire);
}

/// Blocking read of `len` bytes; throws NetError on EOF or failure.
Bytes read_exact(const Socket& sock, std::size_t len) {
  Bytes out(len);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(sock.fd(), out.data() + got, len - got, 0);
    if (n <= 0) throw NetError("peer closed connection");
    got += static_cast<std::size_t>(n);
  }
  return out;
}

Bytes read_frame(const Socket& sock) {
  const Bytes h = read_exact(sock, 4);
  const std::uint32_t len = (std::uint32_t{h[0]} << 24) |
                            (std::uint32_t{h[1]} << 16) |
                            (std::uint32_t{h[2]} << 8) | std::uint32_t{h[3]};
  return read_exact(sock, len);
}

TEST(TcpServer, EchoRoundTrip) {
  TcpServer server([](BytesView req) { return Bytes(req.begin(), req.end()); });
  TcpClient client(server.port());
  EXPECT_EQ(client.request(bytes_of("hello")), bytes_of("hello"));
  EXPECT_EQ(client.request(bytes_of("again")), bytes_of("again"));
}

TEST(TcpServer, EmptyFrames) {
  TcpServer server([](BytesView) { return Bytes{}; });
  TcpClient client(server.port());
  EXPECT_TRUE(client.request({}).empty());
}

TEST(TcpServer, LargePayload) {
  TcpServer server([](BytesView req) {
    Bytes out(req.begin(), req.end());
    out.push_back(0x42);
    return out;
  });
  TcpClient client(server.port());
  const Bytes big(1 << 20, 0xab);  // 1 MiB
  const Bytes resp = client.request(big);
  ASSERT_EQ(resp.size(), big.size() + 1);
  EXPECT_EQ(resp.back(), 0x42);
}

TEST(TcpServer, SequentialClients) {
  TcpServer server([](BytesView req) { return Bytes(req.begin(), req.end()); });
  {
    TcpClient c1(server.port());
    EXPECT_EQ(c1.request(bytes_of("one")), bytes_of("one"));
  }  // c1 disconnects
  TcpClient c2(server.port());
  EXPECT_EQ(c2.request(bytes_of("two")), bytes_of("two"));
}

TEST(TcpServer, ManySmallRequests) {
  TcpServer server([](BytesView req) {
    Bytes out(req.begin(), req.end());
    for (auto& b : out) b = static_cast<std::uint8_t>(b + 1);
    return out;
  });
  TcpClient client(server.port());
  for (int i = 0; i < 200; ++i) {
    const Bytes req = {static_cast<std::uint8_t>(i)};
    const Bytes resp = client.request(req);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(resp[0], static_cast<std::uint8_t>(i + 1));
  }
}

TEST(TcpServer, PortZeroReportsKernelChosenPort) {
  TcpServer server([](BytesView req) { return Bytes(req.begin(), req.end()); },
                   TcpServer::Options{.host = "127.0.0.1", .port = 0});
  ASSERT_GT(server.port(), 0);
  TcpClient client(server.port());
  EXPECT_EQ(client.request(bytes_of("ping")), bytes_of("ping"));
}

TEST(TcpServer, ExplicitPortBindsAndRebinds) {
  // Grab a kernel-chosen port, release it, and rebind it explicitly:
  // SO_REUSEADDR means the second bind succeeds even while the first
  // server's accepted connection lingers in TIME_WAIT.
  std::uint16_t port = 0;
  {
    TcpServer first([](BytesView req) { return Bytes(req.begin(), req.end()); });
    port = first.port();
    TcpClient client(port);
    EXPECT_EQ(client.request(bytes_of("one")), bytes_of("one"));
  }
  TcpServer second([](BytesView) { return bytes_of("two"); },
                   TcpServer::Options{.port = port});
  EXPECT_EQ(second.port(), port);
  TcpClient client(port);
  EXPECT_EQ(client.request({}), bytes_of("two"));
}

TEST(TcpServer, BadBindAddressThrows) {
  EXPECT_THROW((TcpServer([](BytesView) { return Bytes{}; },
                          TcpServer::Options{.host = "not-an-address"})),
               NetError);
}

TEST(TcpServer, StopUnblocksAccept) {
  auto server = std::make_unique<TcpServer>(
      [](BytesView req) { return Bytes(req.begin(), req.end()); });
  server->stop();     // no client ever connected
  server.reset();     // must not hang
  SUCCEED();
}

TEST(AsyncTcpChannel, ConnectToClosedPortFails) {
  std::uint16_t dead_port;
  {
    TcpServer server([](BytesView req) { return Bytes(req.begin(), req.end()); });
    dead_port = server.port();
  }  // server gone
  EventLoop loop;
  EXPECT_THROW(AsyncTcpChannel(loop, "127.0.0.1", dead_port), NetError);
}

TEST(AsyncTcpChannel, BadAddressThrows) {
  EventLoop loop;
  EXPECT_THROW(AsyncTcpChannel(loop, "not-an-ip", 1234), NetError);
}

TEST(TcpServer, ConcurrentClientsServedInterleaved) {
  // Regression for the historical sequential accept loop: a second client
  // used to block forever while the first held its connection. The
  // multiplexing server must serve both, interleaved, on open
  // connections.
  TcpServer server([](BytesView req) { return Bytes(req.begin(), req.end()); });
  TcpClient c1(server.port());
  EXPECT_EQ(c1.request(bytes_of("a1")), bytes_of("a1"));

  TcpClient c2(server.port());  // c1 still connected
  EXPECT_EQ(c2.request(bytes_of("b1")), bytes_of("b1"));
  EXPECT_EQ(c1.request(bytes_of("a2")), bytes_of("a2"));
  EXPECT_EQ(c2.request(bytes_of("b2")), bytes_of("b2"));
}

TEST(TcpServer, ManyConcurrentClients) {
  TcpServer server([](BytesView req) {
    Bytes out(req.begin(), req.end());
    out.push_back(0x01);
    return out;
  });
  std::vector<std::unique_ptr<TcpClient>> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<TcpClient>(server.port()));
  }
  // Round-robin over all held-open connections, twice.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i) {
      const Bytes req = {static_cast<std::uint8_t>(i)};
      const Bytes resp = clients[static_cast<std::size_t>(i)]->request(req);
      ASSERT_EQ(resp.size(), 2u);
      EXPECT_EQ(resp[0], static_cast<std::uint8_t>(i));
    }
  }
}

TEST(TcpServer, OversizedFrameHeaderDropsOnlyThatConnection) {
  TcpServer server([](BytesView req) { return Bytes(req.begin(), req.end()); });
  {
    Socket rogue = raw_connect(server.port());
    // Header claiming kMaxFrameBytes + 1: the server must hang up before
    // buffering any payload.
    raw_send(rogue,
             frame_header(static_cast<std::uint32_t>(kMaxFrameBytes + 1)));
    EXPECT_THROW((void)read_frame(rogue), NetError);  // EOF from the server
  }
  // The server survives and keeps serving well-behaved clients.
  TcpClient good(server.port());
  EXPECT_EQ(good.request(bytes_of("fine")), bytes_of("fine"));
}

TEST(TcpServer, FrameSplitAcrossManyWritesReassembled) {
  TcpServer server([](BytesView req) { return Bytes(req.begin(), req.end()); });
  Socket client = raw_connect(server.port());

  const Bytes payload = bytes_of("split across events");
  Bytes wire = frame_header(static_cast<std::uint32_t>(payload.size()));
  append(wire, payload);

  // Drip the frame one byte at a time with pauses: each byte is its own
  // readiness event at the server.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    raw_send(client, BytesView(&wire[i], 1));
    if (i % 5 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(read_frame(client), payload);
}

TEST(TcpServer, PeerCloseMidFrameKeepsServing) {
  TcpServer server([](BytesView req) { return Bytes(req.begin(), req.end()); });
  {
    Socket quitter = raw_connect(server.port());
    const Bytes partial_header = {0x00, 0x00};
    raw_send(quitter, partial_header);
  }  // orderly close mid-header
  {
    Socket quitter = raw_connect(server.port());
    const Bytes partial_payload = {0x00, 0x00, 0x00, 0x08, 0xab};
    raw_send(quitter, partial_payload);
  }  // orderly close mid-payload
  // Give the loop a beat to process the closes, then prove it still works.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  TcpClient good(server.port());
  EXPECT_EQ(good.request(bytes_of("ok")), bytes_of("ok"));
}

TEST(TcpServer, HandlerDelayVisibleInWallClock) {
  // The real-network analogue of the timing measurement: a slow handler
  // (e.g. a relayed look-up) shows up in the client-observed RTT.
  TcpServer server([](BytesView req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Bytes(req.begin(), req.end());
  });
  TcpClient client(server.port());
  SteadyAuditTimer timer;
  const Millis before = timer.now();
  (void)client.request(bytes_of("x"));
  const double rtt = (timer.now() - before).count();
  EXPECT_GE(rtt, 19.0);
}

// --------------------------------------------------------------------------
// Deferred replies
// --------------------------------------------------------------------------

/// Echo server that answers a request whose first byte is N after N ms on
/// its loop's timers, and inline when N is 0.
TcpServer delayed_echo() {
  return TcpServer([](BytesView req, TcpServer::Reply reply) {
    const Bytes echo(req.begin(), req.end());
    if (echo.empty() || echo[0] == 0) {
      reply.send(echo);
      return;
    }
    auto held = std::make_shared<TcpServer::Reply>(std::move(reply));
    held->loop().schedule_after(Millis{static_cast<double>(echo[0])},
                                [held, echo] { held->send(echo); });
  });
}

TEST(TcpServer, DeferredRepliesLeaveInRequestOrder) {
  // Pipelined: the first request finishes last, the third inline at once;
  // the wire still carries the answers in request order, and the three
  // waits overlap on the one loop thread.
  TcpServer server = delayed_echo();
  Socket client = raw_connect(server.port());
  const SteadyAuditTimer timer;
  write_frame(client, Bytes{60, 1});
  write_frame(client, Bytes{30, 2});
  write_frame(client, Bytes{0, 3});
  EXPECT_EQ(read_frame(client), (Bytes{60, 1}));
  EXPECT_EQ(read_frame(client), (Bytes{30, 2}));
  EXPECT_EQ(read_frame(client), (Bytes{0, 3}));
  EXPECT_GE(timer.now().count(), 60.0);
  EXPECT_LT(timer.now().count(), 85.0);
}

TEST(TcpServer, ConnectionsDeferIndependently) {
  // A slow reply on one connection does not hold up another's.
  TcpServer server = delayed_echo();
  Socket slow = raw_connect(server.port());
  write_frame(slow, Bytes{200});
  TcpClient fast(server.port());
  const SteadyAuditTimer timer;
  EXPECT_EQ(fast.request(Bytes{5}), Bytes{5});
  EXPECT_LT(timer.now().count(), 100.0);
  EXPECT_EQ(read_frame(slow), Bytes{200});
}

TEST(TcpServer, PeerCloseCancelsOutstandingReplies) {
  std::atomic<int> received{0};
  std::atomic<int> cancelled{0};
  std::vector<TcpServer::Reply> held;  // loop thread only
  TcpServer server([&](BytesView, TcpServer::Reply reply) {
    reply.on_cancel([&] { ++cancelled; });
    held.push_back(std::move(reply));
    ++received;
  });
  {
    Socket client = raw_connect(server.port());
    write_frame(client, bytes_of("a"));
    write_frame(client, bytes_of("b"));
    ASSERT_TRUE(wait_until([&] { return received.load() == 2; }));
    EXPECT_EQ(cancelled.load(), 0);
  }  // the requester hangs up with both replies outstanding
  ASSERT_TRUE(wait_until([&] { return cancelled.load() == 2; }));

  // The handles are no-ops now, and the server keeps serving.
  std::atomic<bool> answered{false};
  server.loop().post([&] {
    for (TcpServer::Reply& reply : held) reply.send(bytes_of("late"));
    answered = true;
  });
  ASSERT_TRUE(wait_until([&] { return answered.load(); }));
  EXPECT_EQ(cancelled.load(), 2);
}

TEST(TcpServer, HalfClosedPeerStillGetsCompletedReplies) {
  TcpServer server([](BytesView req) { return Bytes(req.begin(), req.end()); });
  Socket client = raw_connect(server.port());
  write_frame(client, bytes_of("one"));
  write_frame(client, bytes_of("two"));
  ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
  EXPECT_EQ(read_frame(client), bytes_of("one"));
  EXPECT_EQ(read_frame(client), bytes_of("two"));
  EXPECT_THROW((void)read_frame(client), NetError);  // then EOF
}

TEST(TcpServer, ReplyDroppedUnsentDropsOnlyThatConnection) {
  TcpServer server([](BytesView req, TcpServer::Reply reply) {
    if (Bytes(req.begin(), req.end()) == bytes_of("drop")) return;
    reply.send(Bytes(req.begin(), req.end()));
  });
  {
    Socket rogue = raw_connect(server.port());
    write_frame(rogue, bytes_of("drop"));
    EXPECT_THROW((void)read_frame(rogue), NetError);  // EOF from the server
  }
  TcpClient good(server.port());
  EXPECT_EQ(good.request(bytes_of("fine")), bytes_of("fine"));
}

TEST(TcpServer, StopCancelsOutstandingReplies) {
  std::atomic<int> received{0};
  std::atomic<int> cancelled{0};
  std::vector<TcpServer::Reply> held;  // loop thread, then stop()'s thread
  TcpServer server([&](BytesView, TcpServer::Reply reply) {
    reply.on_cancel([&] { ++cancelled; });
    held.push_back(std::move(reply));
    ++received;
  });
  Socket client = raw_connect(server.port());
  write_frame(client, bytes_of("x"));
  ASSERT_TRUE(wait_until([&] { return received.load() == 1; }));
  server.stop();
  EXPECT_EQ(cancelled.load(), 1);
  EXPECT_THROW((void)read_frame(client), NetError);
}

}  // namespace
}  // namespace geoproof::net
