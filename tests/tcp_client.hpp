// Test-side helpers for net::AsyncTcpChannel: pump a loop until a condition
// holds, and a one-answer-at-a-time client for tests that just need a
// server's response.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "common/units.hpp"
#include "net/async.hpp"
#include "net/channel.hpp"
#include "net/tcp.hpp"

namespace geoproof::test {

/// Pump `loop` until `done()` holds or `timeout` passes; returns done().
template <typename Pred>
bool pump_until(net::EventLoop& loop, Pred done,
                Millis timeout = Millis{5000.0}) {
  const net::SteadyAuditTimer timer;
  while (!done() && timer.now() < timeout) loop.pump(Millis{5.0});
  return done();
}

/// One connection on its own loop. request() sends a frame and pumps until
/// its answer; a failure (or no answer within 10 s) throws NetError.
class TcpClient {
 public:
  explicit TcpClient(std::uint16_t port, const std::string& host = "127.0.0.1")
      : channel_(loop_, host, port) {}

  Bytes request(BytesView message) {
    std::optional<net::AsyncResult> result;
    channel_.begin_request(
        message, [&result](net::AsyncResult&& r) { result = std::move(r); },
        Millis{10000.0});
    while (!result) loop_.pump(Millis{50.0});
    if (!result->ok()) throw NetError(result->error);
    return std::move(result->payload);
  }

 private:
  net::EventLoop loop_;
  net::AsyncTcpChannel channel_;
};

}  // namespace geoproof::test
