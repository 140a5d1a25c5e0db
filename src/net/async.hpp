// The non-blocking transport core: the event-loop reactor and the
// simulated async channel that replays the virtual-latency model on the
// net::AsyncChannel interface (net/channel.hpp).
//
// Asynchrony lives here, where a socket needs it. One thread pumping one
// EventLoop drives many in-flight request/response exchanges:
// daemon::AuditorClient fans one measurement out to every vantage over
// AsyncTcpChannel this way (the GeoFINDR multi-vantage shape), every
// vantage runs its concurrent sweeps as sessions on its server's loop, and
// VerifierDevice::begin_audit holds many devices' audit sessions on one
// loop. SimAsyncChannel replays the virtual-latency model on the same API,
// pumped by an EventQueue, so the session form stays deterministic under
// test. The simulated measurement layers above (distbound, locate) stay
// plain sequential loops, and the simulator's blocking RequestChannel
// completes inline on the same interface.
//
// ## Thread-safety contract
//
// Everything here is loop-thread-only unless stated otherwise: a channel
// and the EventLoop/EventQueue driving it belong to one pumping thread at
// a time. The exceptions are EventLoop::post() and EventLoop::stop(),
// which are safe from any thread (they signal the loop via its wakeup fd).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "net/channel.hpp"

namespace geoproof::net {

/// RAII file-descriptor wrapper (move-only). Centralises close(2)
/// semantics for every fd the library owns: sockets, epoll instances,
/// event fds. POSIX leaves the descriptor state unspecified when close()
/// fails with EINTR, but on Linux the descriptor is always released, so
/// retrying would race a concurrently reused fd — close() therefore calls
/// ::close exactly once and never retries. The fd slot is cleared before
/// the syscall, so a second close() (or the destructor after a failed
/// move-assign) can never double-close.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Simulated async channel: completions are EventQueue events, so many
/// in-flight requests overlap in virtual time — K concurrent sessions of
/// round-trip L complete after ~L, not K*L (the blocking SimRequestChannel
/// serialises them).
///
/// Latency model per request: the request arrives one_way(|req|) after
/// begin_request; the handler then runs; the response lands a further
/// service + one_way(|resp|) later, where `service` is how much the
/// handler advanced `service_clock` (pass the provider's own private
/// clock). A null service_clock means any clock time the handler consumes
/// is charged to the shared world clock directly — which serialises
/// concurrent handlers, the honest model only when the far end really is
/// one sequential resource.
class SimAsyncChannel final : public AsyncChannel {
 public:
  using LatencyFn = SimRequestChannel::LatencyFn;

  SimAsyncChannel(SimClock& clock, EventQueue& queue, LatencyFn one_way,
                  RequestHandler handler, SimClock* service_clock = nullptr);

  RequestId begin_request(BytesView message, CompletionFn done,
                          Millis deadline) override;
  using AsyncChannel::begin_request;
  bool cancel(RequestId id) override;

  /// Completed request/response exchanges (kOk only).
  std::uint64_t exchanges() const { return exchanges_; }
  std::size_t in_flight() const { return live_.size(); }

 private:
  struct Pending {
    CompletionFn done;
    bool settled = false;
  };

  void settle(RequestId id, const std::shared_ptr<Pending>& p,
              AsyncResult&& result);

  SimClock* clock_;
  EventQueue* queue_;
  LatencyFn one_way_;
  RequestHandler handler_;
  SimClock* service_clock_;
  std::map<RequestId, std::shared_ptr<Pending>> live_;
  RequestId next_id_ = 1;
  std::uint64_t exchanges_ = 0;
};

/// One-shot timers ordered by (due, id). A timer is due exactly when `now`
/// reaches its due time: no delay is rounded to a tick, so an emulated
/// path delay lands in a timed window at its own length. Coincident
/// timers fire in scheduling order, which keeps the loop deterministic;
/// explicit time points let tests pin all of it without a clock.
class TimerSet {
 public:
  using TimerId = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  TimerId schedule(Clock::time_point now, Millis delay,
                   std::function<void()> fn);
  bool cancel(TimerId id);
  /// Fire the timers due at `now`, earliest first. A timer scheduled by a
  /// firing one waits for the next call, even at zero delay.
  std::size_t fire_due(Clock::time_point now);
  /// Time until the earliest timer, zero once it is due (nullopt when none).
  std::optional<Nanos> until_next(Clock::time_point now) const;
  std::size_t pending() const { return timers_.size(); }

 private:
  using Key = std::pair<Clock::time_point, TimerId>;

  std::map<Key, std::function<void()>> timers_;
  std::unordered_map<TimerId, Clock::time_point> due_;  // for cancel()
  TimerId next_id_ = 1;
};

/// The epoll reactor: fd readiness callbacks, exact timers (the wait is
/// epoll_pwait2's nanosecond timeout, so a timer fires at its due time
/// plus the kernel's wake-up latency, not rounded up to a millisecond),
/// a cross-thread wakeup fd for post()/stop(). Single-threaded by design —
/// every method except post() and stop() must be called from the pumping
/// thread (or before any thread pumps).
class EventLoop final {
 public:
  /// (readable, writable, error) — error covers EPOLLERR/EPOLLHUP.
  using FdHandler = std::function<void(bool, bool, bool)>;
  using TimerId = TimerSet::TimerId;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register interest in `fd`. The handler is looked up (and copied)
  /// per dispatch, so it may remove_fd itself or any other fd safely.
  void add_fd(int fd, bool want_read, bool want_write, FdHandler handler);
  void set_interest(int fd, bool want_read, bool want_write);
  void remove_fd(int fd);

  TimerId schedule_after(Millis delay, std::function<void()> fn);
  bool cancel_timer(TimerId id);

  /// Thread-safe: run `fn` on the loop thread at the next pump.
  void post(std::function<void()> fn) GEOPROOF_EXCLUDES(post_mu_);
  /// Thread-safe: make run() return after the current pump.
  void stop();

  /// One reactor iteration: wait up to min(max_wait, next timer) for fd
  /// readiness, dispatch, fire due timers, drain posted tasks. Returns
  /// the number of handlers/timers/tasks run.
  std::size_t pump(Millis max_wait);
  /// Pump until stop() is called. Guarantee: any task whose post()
  /// happened-before the stop() runs before run() returns (a final
  /// zero-wait pump drains the posted queue after the stop flag is seen).
  void run();

  /// No timers pending, no posted tasks, no fds beyond the wakeup fd.
  bool idle() const;
  std::size_t fds() const { return handlers_.size(); }

 private:
  Socket epoll_;
  Socket wake_;
  std::unordered_map<int, FdHandler> handlers_;  // loop thread only
  TimerSet timers_;                              // loop thread only
  bool coarse_wait_ = false;  // epoll_pwait2 unavailable: whole-ms waits
  std::atomic<bool> stopping_{false};
  /// The one cross-thread door: post() appends under post_mu_ from any
  /// thread, the loop thread swaps the queue out under it each pump.
  mutable Mutex post_mu_;
  std::vector<std::function<void()>> posted_ GEOPROOF_GUARDED_BY(post_mu_);
};

}  // namespace geoproof::net
