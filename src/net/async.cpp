#include "net/async.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

#include "common/errors.hpp"

namespace geoproof::net {

// --------------------------------------------------------------------------
// Socket
// --------------------------------------------------------------------------

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() noexcept {
  // Clear the slot before the syscall so no path — destructor, a repeated
  // close(), move-assign over a half-dead socket — can ever issue a second
  // ::close on the same value. EINTR is deliberately not retried: on Linux
  // the descriptor is released regardless, and retrying races an fd the
  // kernel may already have handed to another thread.
  const int fd = std::exchange(fd_, -1);
  if (fd >= 0) ::close(fd);
}

// --------------------------------------------------------------------------
// BlockingChannelAdapter
// --------------------------------------------------------------------------

AsyncChannel::RequestId BlockingChannelAdapter::begin_request(
    BytesView message, CompletionFn done, Millis /*deadline*/) {
  const RequestId id = next_id_++;
  Bytes response = inner_->request(message);
  done(AsyncResult{AsyncStatus::kOk, std::move(response), {}});
  return id;
}

// --------------------------------------------------------------------------
// SimAsyncChannel
// --------------------------------------------------------------------------

SimAsyncChannel::SimAsyncChannel(SimClock& clock, EventQueue& queue,
                                 LatencyFn one_way, RequestHandler handler,
                                 SimClock* service_clock)
    : clock_(&clock),
      queue_(&queue),
      one_way_(std::move(one_way)),
      handler_(std::move(handler)),
      service_clock_(service_clock) {
  if (!one_way_) throw InvalidArgument("SimAsyncChannel: null latency fn");
  if (!handler_) throw InvalidArgument("SimAsyncChannel: null handler");
}

void SimAsyncChannel::settle(RequestId id, const std::shared_ptr<Pending>& p,
                             AsyncResult&& result) {
  if (p->settled) return;
  p->settled = true;
  live_.erase(id);
  if (result.ok()) ++exchanges_;
  // Last: the completion may re-enter begin_request (session state
  // machines issue the next round from here).
  p->done(std::move(result));
}

AsyncChannel::RequestId SimAsyncChannel::begin_request(BytesView message,
                                                       CompletionFn done,
                                                       Millis deadline) {
  if (!done) throw InvalidArgument("SimAsyncChannel: null completion");
  const RequestId id = next_id_++;
  auto p = std::make_shared<Pending>();
  p->done = std::move(done);
  live_.emplace(id, p);

  if (deadline > Millis{0}) {
    // Scheduled before the response chain, so on a virtual-time tie the
    // deadline wins: a response landing exactly at the deadline is late.
    queue_->schedule_after(to_nanos(deadline), [this, id, p] {
      settle(id, p, AsyncResult{AsyncStatus::kTimeout, {},
                                "request deadline expired"});
    });
  }

  Bytes msg(message.begin(), message.end());
  const Nanos uplink = to_nanos(one_way_(msg.size()));
  queue_->schedule_after(uplink, [this, id, p, msg = std::move(msg)] {
    if (p->settled) return;  // timed out / cancelled before arrival
    Bytes response;
    Nanos service{0};
    try {
      if (service_clock_ != nullptr) {
        const Nanos before = service_clock_->now();
        response = handler_(msg);
        service = service_clock_->now() - before;
      } else {
        response = handler_(msg);
      }
    } catch (const std::exception& e) {
      settle(id, p, AsyncResult{AsyncStatus::kError, {}, e.what()});
      return;
    }
    const Nanos downlink = to_nanos(one_way_(response.size()));
    queue_->schedule_at(
        clock_->now() + service + downlink,
        [this, id, p, response = std::move(response)]() mutable {
          settle(id, p, AsyncResult{AsyncStatus::kOk, std::move(response), {}});
        });
  });
  return id;
}

bool SimAsyncChannel::cancel(RequestId id) {
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  // Copy out: settle() erases the map entry, which would otherwise destroy
  // the very shared_ptr reference passed in.
  const std::shared_ptr<Pending> p = it->second;
  settle(id, p, AsyncResult{AsyncStatus::kCancelled, {}, "request cancelled"});
  return true;
}

// --------------------------------------------------------------------------
// TimerSet
// --------------------------------------------------------------------------

TimerSet::TimerId TimerSet::schedule(Clock::time_point now, Millis delay,
                                     std::function<void()> fn) {
  if (!fn) throw InvalidArgument("TimerSet: null timer fn");
  const Clock::time_point due =
      now + std::max(Nanos{0}, std::chrono::round<Nanos>(delay));
  const TimerId id = next_id_++;
  timers_.emplace(Key{due, id}, std::move(fn));
  due_.emplace(id, due);
  return id;
}

bool TimerSet::cancel(TimerId id) {
  const auto it = due_.find(id);
  if (it == due_.end()) return false;
  timers_.erase(Key{it->second, id});
  due_.erase(it);
  return true;
}

std::size_t TimerSet::fire_due(Clock::time_point now) {
  std::vector<Key> batch;
  for (auto it = timers_.begin(); it != timers_.end() && it->first.first <= now;
       ++it) {
    batch.push_back(it->first);
  }
  std::size_t fired = 0;
  for (const Key& key : batch) {
    const auto it = timers_.find(key);
    // A timer fired earlier in this batch may have cancelled this one.
    if (it == timers_.end()) continue;
    const std::function<void()> fn = std::move(it->second);
    timers_.erase(it);
    due_.erase(key.second);
    fn();
    ++fired;
  }
  return fired;
}

std::optional<Nanos> TimerSet::until_next(Clock::time_point now) const {
  if (timers_.empty()) return std::nullopt;
  return std::max(Nanos{0}, timers_.begin()->first.first - now);
}

// --------------------------------------------------------------------------
// EventLoop
// --------------------------------------------------------------------------

EventLoop::EventLoop() {
  const int efd = ::epoll_create1(EPOLL_CLOEXEC);
  if (efd < 0) throw NetError("EventLoop: epoll_create1 failed");
  epoll_ = Socket(efd);
  const int wfd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wfd < 0) throw NetError("EventLoop: eventfd failed");
  wake_ = Socket(wfd);
  add_fd(wfd, /*want_read=*/true, /*want_write=*/false,
         [wfd](bool readable, bool, bool) {
           if (!readable) return;
           std::uint64_t drain = 0;
           while (::read(wfd, &drain, sizeof drain) > 0) {
           }
         });
}

EventLoop::~EventLoop() = default;

namespace {
std::uint32_t epoll_mask(bool want_read, bool want_write) {
  std::uint32_t events = 0;
  if (want_read) events |= EPOLLIN;
  if (want_write) events |= EPOLLOUT;
  return events;
}
}  // namespace

void EventLoop::add_fd(int fd, bool want_read, bool want_write,
                       FdHandler handler) {
  if (!handler) throw InvalidArgument("EventLoop::add_fd: null handler");
  epoll_event ev{};
  ev.events = epoll_mask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw NetError(std::string("EventLoop: epoll_ctl(ADD) failed: ") +
                   std::strerror(errno));
  }
  handlers_[fd] = std::move(handler);
}

void EventLoop::set_interest(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = epoll_mask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw NetError(std::string("EventLoop: epoll_ctl(MOD) failed: ") +
                   std::strerror(errno));
  }
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

EventLoop::TimerId EventLoop::schedule_after(Millis delay,
                                             std::function<void()> fn) {
  return timers_.schedule(TimerSet::Clock::now(), delay, std::move(fn));
}

bool EventLoop::cancel_timer(TimerId id) { return timers_.cancel(id); }

void EventLoop::post(std::function<void()> fn) {
  {
    MutexLock lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_.fd(), &one, sizeof one);
}

void EventLoop::stop() {
  stopping_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_.fd(), &one, sizeof one);
}

std::size_t EventLoop::pump(Millis max_wait) {
  Nanos wait = std::max(Nanos{0}, to_nanos(max_wait));
  if (const auto next = timers_.until_next(TimerSet::Clock::now())) {
    wait = std::min(wait, *next);
  }
  {
    MutexLock lock(post_mu_);
    if (!posted_.empty()) wait = Nanos{0};
  }

  epoll_event events[64];
  int n = -1;
  if (!coarse_wait_) {
    const timespec timeout{static_cast<time_t>(wait.count() / 1'000'000'000),
                           static_cast<long>(wait.count() % 1'000'000'000)};
    n = ::epoll_pwait2(epoll_.fd(), events, 64, &timeout, nullptr);
    // A kernel or syscall filter older than epoll_pwait2 (Linux 5.11):
    // fall back to whole milliseconds, rounded up so no timer fires early.
    if (n < 0 && (errno == ENOSYS || errno == EPERM)) coarse_wait_ = true;
  }
  if (coarse_wait_) {
    n = ::epoll_wait(epoll_.fd(), events, 64,
                     static_cast<int>((wait.count() + 999'999) / 1'000'000));
  }
  if (n < 0) {
    if (errno != EINTR) {
      throw NetError(std::string("EventLoop: epoll_wait failed: ") +
                     std::strerror(errno));
    }
    n = 0;
  }

  std::size_t handled = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    const auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;  // removed by an earlier handler
    // Copy: the handler may remove itself (destroying the stored fn).
    const FdHandler handler = it->second;
    const std::uint32_t mask = events[i].events;
    handler((mask & EPOLLIN) != 0, (mask & EPOLLOUT) != 0,
            (mask & (EPOLLERR | EPOLLHUP)) != 0);
    ++handled;
  }

  handled += timers_.fire_due(TimerSet::Clock::now());

  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) {
    task();
    ++handled;
  }
  return handled;
}

void EventLoop::run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pump(Millis{100.0});
  }
  // Final non-blocking drain: a task posted before stop() may have landed
  // after the last pump swapped the queue out (post and stop race from
  // other threads), and the stop flag is only checked between pumps. One
  // more zero-wait pump makes the guarantee deterministic: everything
  // posted happens-before stop() runs before run() returns — daemons rely
  // on this for teardown work queued from signal context.
  pump(Millis{0});
  stopping_.store(false, std::memory_order_release);  // allow a later run()
}

bool EventLoop::idle() const {
  if (timers_.pending() > 0) return false;
  {
    MutexLock lock(post_mu_);
    if (!posted_.empty()) return false;
  }
  return handlers_.size() <= 1;  // only the wakeup fd
}

}  // namespace geoproof::net
