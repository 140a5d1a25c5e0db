// The request/response interface every protocol engine in the library is
// written against, plus the simulated channel and the audit timer.
//
// net::AsyncChannel is the one request interface: begin_request() with a
// completion callback, a per-request deadline and cancellation, pumped by
// an EventLoop (real sockets, net/tcp.hpp) or an EventQueue (virtual time,
// net/async.hpp). GeoProof's timed phase is strictly sequential per session
// (send index, await segment), but nothing requires the *auditor* to serve
// sessions one at a time, so VerifierDevice, AuditScheme and AuditService
// advance a session one round per completion.
//
// net::RequestChannel is the simulator's blocking form of the same
// interface: a subclass implements request(), and begin_request() calls it
// and completes inline, with exceptions propagating to the caller.
// SimRequestChannel, CloudProvider's relay and the blocking entry points
// (VerifierDevice::run_audit, AuditScheme::audit_once) rely on that.
//
// Thread-safety contract: a channel, its completions and the
// EventLoop/EventQueue pumping them are confined to one thread at a time
// (see net/async.hpp); only EventLoop::post()/stop() may be called
// cross-thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/latency.hpp"

namespace geoproof::net {

/// How an asynchronous request concluded.
enum class AsyncStatus {
  kOk,         // response delivered
  kError,      // transport or handler failure (see AsyncResult::error)
  kTimeout,    // per-request deadline expired before the response
  kCancelled,  // cancel() or channel teardown
};

/// Completion payload for one begin_request(): the response bytes on kOk,
/// a diagnostic message otherwise.
struct AsyncResult {
  AsyncStatus status = AsyncStatus::kError;
  Bytes payload;
  std::string error;

  bool ok() const { return status == AsyncStatus::kOk; }
};

/// Request/response transport. begin_request() returns once the request
/// is issued and the completion fires when the response (or a failure)
/// arrives, on the thread pumping the channel's EventLoop (or EventQueue,
/// in simulation). Completions MAY fire inline within begin_request (a
/// RequestChannel always completes inline); callers must tolerate both.
class AsyncChannel {
 public:
  /// Correlation id of one in-flight request, unique per channel; used to
  /// cancel and to match deadline bookkeeping.
  using RequestId = std::uint64_t;
  using CompletionFn = std::function<void(AsyncResult&&)>;

  virtual ~AsyncChannel() = default;

  /// Issue a request. `deadline` (zero = none) bounds the wait for the
  /// response; expiry completes the request with kTimeout and any late
  /// response is discarded.
  virtual RequestId begin_request(BytesView message, CompletionFn done,
                                  Millis deadline) = 0;
  RequestId begin_request(BytesView message, CompletionFn done) {
    return begin_request(message, std::move(done), Millis{0});
  }

  /// Cancel an in-flight request: its completion fires with kCancelled
  /// before cancel() returns, and any late response is discarded. Returns
  /// false when the id is unknown or already completed.
  virtual bool cancel(RequestId id) = 0;
};

/// Blocking transport: subclasses implement request(). begin_request()
/// runs it and completes inline; an exception from request() propagates
/// to the begin_request caller unchanged. `deadline` is unenforceable on
/// a blocking call and is ignored; nothing is ever in flight to cancel.
class RequestChannel : public AsyncChannel {
 public:
  virtual Bytes request(BytesView message) = 0;

  RequestId begin_request(BytesView message, CompletionFn done,
                          Millis deadline) final;
  using AsyncChannel::begin_request;
  bool cancel(RequestId) final { return false; }

 private:
  RequestId next_id_ = 1;
};

/// The server side of a channel: consumes a request, produces a response.
using RequestHandler = std::function<Bytes(BytesView)>;

/// Monotone timer the verifier device uses to stamp its stopwatch. The
/// simulated variant reads the shared SimClock; the wall-clock variant reads
/// std::chrono::steady_clock.
class AuditTimer {
 public:
  virtual ~AuditTimer() = default;
  virtual Millis now() const = 0;
};

class SimAuditTimer final : public AuditTimer {
 public:
  explicit SimAuditTimer(const SimClock& clock) : clock_(&clock) {}
  Millis now() const override { return to_millis(clock_->now()); }

 private:
  const SimClock* clock_;
};

class SteadyAuditTimer final : public AuditTimer {
 public:
  SteadyAuditTimer();
  Millis now() const override;

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Simulated channel: charges per-direction latency to a SimClock around a
/// handler that executes "at the far end" (and may itself charge latency,
/// e.g. a SimulatedDiskStore look-up).
class SimRequestChannel final : public RequestChannel {
 public:
  /// One-way latency as a function of message size.
  using LatencyFn = std::function<Millis(std::size_t bytes)>;

  SimRequestChannel(SimClock& clock, LatencyFn one_way, RequestHandler handler);

  Bytes request(BytesView message) override;

  /// Number of completed request/response exchanges.
  std::uint64_t exchanges() const { return exchanges_; }

 private:
  SimClock* clock_;
  LatencyFn one_way_;
  RequestHandler handler_;
  std::uint64_t exchanges_ = 0;
};

/// One-way LAN latency function at a fixed distance (with optional jitter
/// drawn from an owned deterministic Rng).
SimRequestChannel::LatencyFn lan_latency(LanModel model, Kilometers distance,
                                         std::uint64_t jitter_seed = 0);

/// One-way Internet latency at a fixed distance (bytes-independent; the
/// Internet model works in RTT terms). Used to build relay paths.
SimRequestChannel::LatencyFn internet_latency(InternetModel model,
                                              Kilometers distance,
                                              std::uint64_t jitter_seed = 0);

}  // namespace geoproof::net
