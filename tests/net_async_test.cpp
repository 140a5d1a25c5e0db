// The async transport core: exact timers, frame assembler, the inline
// RequestChannel completion, the simulated async channel (including the
// session-overlap property the event-loop redesign exists for) and the
// real epoll loop + multiplexing TCP channel.
#include "net/async.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/errors.hpp"
#include "net/tcp.hpp"

namespace geoproof::net {
namespace {

using Clock = TimerSet::Clock;
using std::chrono::microseconds;
using std::chrono::milliseconds;

// --------------------------------------------------------------------------
// TimerSet (driven with explicit time points: fully deterministic)
// --------------------------------------------------------------------------

TEST(TimerSet, FiresInDeadlineOrder) {
  const Clock::time_point t0 = Clock::now();
  TimerSet timers;
  std::vector<int> fired;
  timers.schedule(t0, Millis{5.0}, [&] { fired.push_back(5); });
  timers.schedule(t0, Millis{2.0}, [&] { fired.push_back(2); });
  timers.schedule(t0, Millis{3.0}, [&] { fired.push_back(3); });
  timers.schedule(t0, Millis{2.0}, [&] { fired.push_back(22); });

  EXPECT_EQ(timers.fire_due(t0 + milliseconds(1)), 0u);
  EXPECT_EQ(timers.fire_due(t0 + milliseconds(10)), 4u);
  // Coincident deadlines fire in scheduling order.
  EXPECT_EQ(fired, (std::vector<int>{2, 22, 3, 5}));
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerSet, LongDelaysNeverFireEarly) {
  // A 20 ms timer stays put through any number of earlier checks.
  const Clock::time_point t0 = Clock::now();
  TimerSet timers;
  int fired = 0;
  timers.schedule(t0, Millis{20.0}, [&] { ++fired; });
  EXPECT_EQ(timers.fire_due(t0 + milliseconds(8)), 0u);
  EXPECT_EQ(timers.fire_due(t0 + milliseconds(16)), 0u);
  EXPECT_EQ(timers.fire_due(t0 + milliseconds(21)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerSet, CancelPreventsFiring) {
  const Clock::time_point t0 = Clock::now();
  TimerSet timers;
  int fired = 0;
  const auto id = timers.schedule(t0, Millis{2.0}, [&] { ++fired; });
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_FALSE(timers.cancel(id));  // already gone
  EXPECT_EQ(timers.fire_due(t0 + milliseconds(5)), 0u);
  EXPECT_EQ(fired, 0);
  // A timer may cancel a later one due in the same batch.
  TimerSet::TimerId later = 0;
  timers.schedule(t0, Millis{1.0}, [&] { timers.cancel(later); });
  later = timers.schedule(t0, Millis{2.0}, [&] { ++fired; });
  EXPECT_EQ(timers.fire_due(t0 + milliseconds(5)), 1u);
  EXPECT_EQ(fired, 0);
}

TEST(TimerSet, UntilNextReportsEarliestDeadline) {
  const Clock::time_point t0 = Clock::now();
  TimerSet timers;
  EXPECT_FALSE(timers.until_next(t0).has_value());
  timers.schedule(t0, Millis{7.0}, [] {});
  timers.schedule(t0, Millis{3.0}, [] {});
  EXPECT_EQ(timers.until_next(t0), Nanos{milliseconds(3)});
  EXPECT_EQ(timers.until_next(t0 + milliseconds(1)), Nanos{milliseconds(2)});
  EXPECT_EQ(timers.until_next(t0 + milliseconds(4)), Nanos{0});  // overdue
}

TEST(TimerSet, FiresAtItsDueTimeNotOnAMillisecondTick) {
  // An emulated 14.83 ms leg: a 1 ms tick would hold it until 15 ms and
  // add the difference to every measured round trip.
  const Clock::time_point t0 = Clock::now();
  TimerSet timers;
  int fired = 0;
  timers.schedule(t0, Millis{14.83}, [&] { ++fired; });
  EXPECT_EQ(timers.until_next(t0), Nanos{microseconds(14830)});
  EXPECT_EQ(timers.fire_due(t0 + microseconds(14820)), 0u);
  EXPECT_EQ(timers.until_next(t0 + microseconds(14820)),
            Nanos{microseconds(10)});
  EXPECT_EQ(timers.fire_due(t0 + microseconds(14830)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerSet, TimerScheduledWhileFiringWaitsForTheNextCall) {
  const Clock::time_point t0 = Clock::now();
  TimerSet timers;
  int fired = 0;
  timers.schedule(t0, Millis{1.0}, [&] {
    ++fired;
    timers.schedule(t0, Millis{0.0}, [&] { ++fired; });
  });
  EXPECT_EQ(timers.fire_due(t0 + milliseconds(1)), 1u);
  EXPECT_EQ(timers.fire_due(t0 + milliseconds(1)), 1u);
  EXPECT_EQ(fired, 2);
}

// --------------------------------------------------------------------------
// FrameAssembler
// --------------------------------------------------------------------------

Bytes frame_bytes(BytesView payload) {
  Bytes out;
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<std::uint8_t>(len >> 24));
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len));
  append(out, payload);
  return out;
}

TEST(FrameAssembler, ReassemblesByteByByte) {
  // The hardest split: every byte of header and payload arrives alone.
  FrameAssembler fa;
  const Bytes wire = frame_bytes(bytes_of("hello"));
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(fa.next().has_value());
    fa.feed(BytesView(&wire[i], 1));
  }
  const auto frame = fa.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, bytes_of("hello"));
  EXPECT_FALSE(fa.mid_frame());
}

TEST(FrameAssembler, ManyFramesInOneFeed) {
  FrameAssembler fa;
  Bytes wire = frame_bytes(bytes_of("a"));
  append(wire, frame_bytes({}));
  append(wire, frame_bytes(bytes_of("ccc")));
  fa.feed(wire);
  EXPECT_EQ(*fa.next(), bytes_of("a"));
  EXPECT_EQ(*fa.next(), Bytes{});
  EXPECT_EQ(*fa.next(), bytes_of("ccc"));
  EXPECT_FALSE(fa.next().has_value());
}

TEST(FrameAssembler, OversizedHeaderRejectedBeforePayload) {
  FrameAssembler fa;
  const Bytes header = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB claim
  EXPECT_THROW(fa.feed(header), NetError);
}

TEST(FrameAssembler, MidFrameVisible) {
  FrameAssembler fa;
  const Bytes wire = frame_bytes(bytes_of("partial"));
  fa.feed(BytesView(wire.data(), 6));  // header + 2 payload bytes
  EXPECT_TRUE(fa.mid_frame());
  EXPECT_FALSE(fa.next().has_value());
}

// --------------------------------------------------------------------------
// RequestChannel as an AsyncChannel
// --------------------------------------------------------------------------

TEST(RequestChannel, CompletesInlineAndPropagatesExceptions) {
  SimClock clock;
  SimRequestChannel sim(
      clock, [](std::size_t) { return Millis{1.0}; },
      [](BytesView req) {
        if (req.empty()) throw StorageError("no such segment");
        return Bytes(req.begin(), req.end());
      });
  AsyncChannel& channel = sim;

  bool completed = false;
  channel.begin_request(bytes_of("x"), [&](AsyncResult&& r) {
    completed = true;
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.payload, bytes_of("x"));
  });
  EXPECT_TRUE(completed);  // inline, by contract
  EXPECT_EQ(clock.now(), to_nanos(Millis{2.0}));  // both legs charged
  EXPECT_FALSE(channel.cancel(1));  // nothing is ever in flight

  // Handler exceptions surface to the begin_request caller (the blocking
  // contract run_audit relies on).
  EXPECT_THROW(channel.begin_request({}, [](AsyncResult&&) {}), StorageError);
}

// --------------------------------------------------------------------------
// SimAsyncChannel
// --------------------------------------------------------------------------

TEST(SimAsyncChannel, MatchesBlockingLatencyAccounting) {
  SimClock clock;
  EventQueue queue(clock);
  SimAsyncChannel ch(
      clock, queue, [](std::size_t) { return Millis{1.0}; },
      [](BytesView req) { return Bytes(req.begin(), req.end()); });

  bool done = false;
  ch.begin_request(bytes_of("ping"), [&](AsyncResult&& r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.payload, bytes_of("ping"));
    done = true;
  });
  EXPECT_FALSE(done);  // nothing happens until the world is pumped
  queue.run_all();
  EXPECT_TRUE(done);
  EXPECT_NEAR(to_millis(clock.now()).count(), 2.0, 1e-9);
  EXPECT_EQ(ch.exchanges(), 1u);
}

TEST(SimAsyncChannel, ConcurrentRequestsOverlapInVirtualTime) {
  // The property the whole redesign exists for: K in-flight requests of
  // round trip L complete after L total, not K*L (the blocking channel
  // serialises them to K*L).
  constexpr int kConcurrent = 8;
  SimClock clock;
  EventQueue queue(clock);
  SimAsyncChannel ch(
      clock, queue, [](std::size_t) { return Millis{5.0}; },
      [](BytesView req) { return Bytes(req.begin(), req.end()); });

  int completed = 0;
  for (int i = 0; i < kConcurrent; ++i) {
    ch.begin_request(bytes_of("r"), [&](AsyncResult&& r) {
      ASSERT_TRUE(r.ok());
      ++completed;
    });
  }
  EXPECT_EQ(ch.in_flight(), static_cast<std::size_t>(kConcurrent));
  queue.run_all();
  EXPECT_EQ(completed, kConcurrent);
  // All 8 round trips overlapped: 10 ms total, not 80 ms.
  EXPECT_NEAR(to_millis(clock.now()).count(), 10.0, 1e-9);
}

TEST(SimAsyncChannel, DeadlineExpiryBeatsSlowResponse) {
  SimClock clock;
  EventQueue queue(clock);
  SimAsyncChannel ch(
      clock, queue, [](std::size_t) { return Millis{30.0}; },  // 60 ms RTT
      [](BytesView req) { return Bytes(req.begin(), req.end()); });

  AsyncStatus status = AsyncStatus::kOk;
  ch.begin_request(
      bytes_of("slow"),
      [&](AsyncResult&& r) { status = r.status; }, Millis{10.0});
  queue.run_all();
  EXPECT_EQ(status, AsyncStatus::kTimeout);
  EXPECT_EQ(ch.exchanges(), 0u);  // the late response was discarded
  EXPECT_EQ(ch.in_flight(), 0u);
}

TEST(SimAsyncChannel, CancelSettlesImmediately) {
  SimClock clock;
  EventQueue queue(clock);
  SimAsyncChannel ch(
      clock, queue, [](std::size_t) { return Millis{5.0}; },
      [](BytesView req) { return Bytes(req.begin(), req.end()); });

  AsyncStatus status = AsyncStatus::kOk;
  const auto id =
      ch.begin_request(bytes_of("x"), [&](AsyncResult&& r) { status = r.status; });
  EXPECT_TRUE(ch.cancel(id));
  EXPECT_EQ(status, AsyncStatus::kCancelled);
  EXPECT_FALSE(ch.cancel(id));  // already settled
  queue.run_all();              // stale events are inert
  EXPECT_EQ(ch.exchanges(), 0u);
}

TEST(SimAsyncChannel, HandlerExceptionDeliversError) {
  SimClock clock;
  EventQueue queue(clock);
  SimAsyncChannel ch(
      clock, queue, [](std::size_t) { return Millis{1.0}; },
      [](BytesView) -> Bytes { throw StorageError("unknown segment"); });

  AsyncResult result;
  ch.begin_request(bytes_of("x"), [&](AsyncResult&& r) { result = std::move(r); });
  queue.run_all();
  EXPECT_EQ(result.status, AsyncStatus::kError);
  EXPECT_NE(result.error.find("unknown segment"), std::string::npos);
}

TEST(SimAsyncChannel, PrivateServiceClockKeepsConcurrentServiceHonest) {
  // Two providers, each 3 ms of private disk time per request, shared
  // 1 ms-per-leg world. Overlapped, both responses land at 5 ms — the
  // service times do not stack onto the shared clock the way a legacy
  // handler advancing the world clock would stack them.
  SimClock world;
  EventQueue queue(world);
  SimClock disk_a, disk_b;
  auto handler = [](SimClock& disk) {
    return [&disk](BytesView req) {
      disk.advance(Millis{3.0});
      return Bytes(req.begin(), req.end());
    };
  };
  SimAsyncChannel ch_a(world, queue, [](std::size_t) { return Millis{1.0}; },
                       handler(disk_a), &disk_a);
  SimAsyncChannel ch_b(world, queue, [](std::size_t) { return Millis{1.0}; },
                       handler(disk_b), &disk_b);

  std::vector<double> completion_ms;
  const auto record = [&](AsyncResult&& r) {
    ASSERT_TRUE(r.ok());
    completion_ms.push_back(to_millis(world.now()).count());
  };
  ch_a.begin_request(bytes_of("a"), record);
  ch_b.begin_request(bytes_of("b"), record);
  queue.run_all();
  ASSERT_EQ(completion_ms.size(), 2u);
  EXPECT_NEAR(completion_ms[0], 5.0, 1e-9);
  EXPECT_NEAR(completion_ms[1], 5.0, 1e-9);
  EXPECT_NEAR(to_millis(world.now()).count(), 5.0, 1e-9);
}

// --------------------------------------------------------------------------
// EventLoop
// --------------------------------------------------------------------------

TEST(EventLoop, TimersFireOnPump) {
  EventLoop loop;
  std::vector<int> fired;
  loop.schedule_after(Millis{1.0}, [&] { fired.push_back(1); });
  loop.schedule_after(Millis{3.0}, [&] { fired.push_back(3); });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (fired.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    loop.pump(Millis{10.0});
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoop, TimerFiresAtItsDueTimeNotBefore) {
  // The wait itself is exact (epoll_pwait2's nanosecond timeout): no
  // early wake-up fires a timer before its due time.
  EventLoop loop;
  const Clock::time_point start = Clock::now();
  Clock::time_point fired_at{};
  loop.schedule_after(Millis{2.5}, [&] { fired_at = Clock::now(); });
  while (fired_at == Clock::time_point{} &&
         Clock::now() - start < std::chrono::seconds(5)) {
    loop.pump(Millis{100.0});
  }
  EXPECT_GE(fired_at - start, microseconds(2500));
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  int fired = 0;
  const auto id = loop.schedule_after(Millis{1.0}, [&] { ++fired; });
  EXPECT_TRUE(loop.cancel_timer(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  loop.pump(Millis{0.0});
  EXPECT_EQ(fired, 0);
}

TEST(EventLoop, PostRunsTasksFromOtherThreads) {
  EventLoop loop;
  std::atomic<int> ran{0};
  std::thread poster([&] {
    for (int i = 0; i < 10; ++i) loop.post([&] { ++ran; });
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (ran.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    loop.pump(Millis{10.0});
  }
  poster.join();
  EXPECT_EQ(ran.load(), 10);
}

TEST(EventLoop, StopUnblocksRun) {
  EventLoop loop;
  std::thread runner([&] { loop.run(); });
  loop.post([] {});  // prove the loop is alive
  loop.stop();
  runner.join();
  SUCCEED();
}

// --------------------------------------------------------------------------
// Deterministic shutdown ordering: the daemon teardown path relies on
// run()'s guarantee that every task posted happens-before stop() executes
// before run() returns. These run under TSan in CI.
// --------------------------------------------------------------------------

TEST(EventLoop, StopDrainsTasksPostedBeforeIt) {
  // All posts happen-before stop() on the poster thread; none may be lost,
  // however the post/stop signals interleave with the runner's pumps.
  constexpr int kTasks = 100;
  EventLoop loop;
  std::atomic<int> ran{0};
  std::thread runner([&] { loop.run(); });
  for (int i = 0; i < kTasks; ++i) loop.post([&] { ++ran; });
  loop.stop();
  runner.join();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(EventLoop, PostBeforeStopRunsBeforeRunReturns) {
  // Single-threaded worst case: the stop flag is already set when run()
  // starts, so only the final drain can execute the task.
  EventLoop loop;
  bool ran = false;
  loop.post([&] { ran = true; });
  loop.stop();
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, StopFromPostedTaskStillRunsLaterPosts) {
  // A task may stop the loop and queue teardown work behind itself (the
  // daemons' signal handler path); the teardown work must still run.
  EventLoop loop;
  std::vector<int> order;
  loop.post([&] {
    order.push_back(1);
    loop.stop();
    loop.post([&] { order.push_back(2); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, ShutdownDrainPreservesFifoOrder) {
  constexpr int kTasks = 32;
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < kTasks; ++i) {
    loop.post([&order, i] { order.push_back(i); });
  }
  loop.stop();
  loop.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, RunIsReusableAfterStop) {
  EventLoop loop;
  loop.stop();
  loop.run();  // returns immediately, resets the stop flag
  bool ran = false;
  loop.post([&] { ran = true; });
  std::thread stopper([&] { loop.stop(); });
  loop.run();
  stopper.join();
  EXPECT_TRUE(ran);
}

// --------------------------------------------------------------------------
// AsyncTcpChannel over a real server
// --------------------------------------------------------------------------

TEST(AsyncTcpChannel, MultiplexesPipelinedRequests) {
  TcpServer server([](BytesView req) {
    Bytes out(req.begin(), req.end());
    out.push_back(0x21);
    return out;
  });
  EventLoop loop;
  AsyncTcpChannel ch(loop, "127.0.0.1", server.port());

  constexpr int kRequests = 16;
  int completed = 0;
  for (int i = 0; i < kRequests; ++i) {
    const Bytes req = {static_cast<std::uint8_t>(i)};
    ch.begin_request(req, [&completed, i](AsyncResult&& r) {
      ASSERT_TRUE(r.ok()) << r.error;
      ASSERT_EQ(r.payload.size(), 2u);
      EXPECT_EQ(r.payload[0], static_cast<std::uint8_t>(i));
      EXPECT_EQ(r.payload[1], 0x21);
      ++completed;
    });
  }
  EXPECT_EQ(ch.in_flight(), static_cast<std::size_t>(kRequests));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (completed < kRequests &&
         std::chrono::steady_clock::now() < deadline) {
    loop.pump(Millis{10.0});
  }
  EXPECT_EQ(completed, kRequests);
  EXPECT_FALSE(ch.broken());
}

TEST(AsyncTcpChannel, DeadlineTimeoutThenStreamStaysInSync) {
  // First request times out (slow handler); its late response must be
  // consumed silently so the next request still gets *its* response.
  std::atomic<int> delay_ms{80};
  TcpServer server([&delay_ms](BytesView req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms.load()));
    return Bytes(req.begin(), req.end());
  });
  EventLoop loop;
  AsyncTcpChannel ch(loop, "127.0.0.1", server.port());

  AsyncStatus first = AsyncStatus::kOk;
  ch.begin_request(bytes_of("slow"),
                   [&](AsyncResult&& r) { first = r.status; }, Millis{10.0});
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (first == AsyncStatus::kOk &&
         std::chrono::steady_clock::now() < deadline) {
    loop.pump(Millis{10.0});
  }
  EXPECT_EQ(first, AsyncStatus::kTimeout);

  delay_ms = 0;
  AsyncResult second;
  second.status = AsyncStatus::kTimeout;
  ch.begin_request(bytes_of("fast"),
                   [&](AsyncResult&& r) { second = std::move(r); });
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (second.status == AsyncStatus::kTimeout &&
         std::chrono::steady_clock::now() < deadline) {
    loop.pump(Millis{10.0});
  }
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(second.payload, bytes_of("fast"));  // not the stale "slow" echo
  EXPECT_FALSE(ch.broken());
}

TEST(AsyncTcpChannel, ConnectionDeathFailsPendingAndFutureRequests) {
  // The server drops the connection without answering (handler rejects):
  // the in-flight request must fail, the channel is broken, and further
  // requests fail inline.
  TcpServer server(
      [](BytesView) -> Bytes { throw StorageError("no such segment"); });
  EventLoop loop;
  AsyncTcpChannel ch(loop, "127.0.0.1", server.port());

  AsyncStatus status = AsyncStatus::kOk;
  ch.begin_request(bytes_of("x"), [&](AsyncResult&& r) { status = r.status; });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (status == AsyncStatus::kOk &&
         std::chrono::steady_clock::now() < deadline) {
    loop.pump(Millis{10.0});
  }
  EXPECT_EQ(status, AsyncStatus::kError);
  EXPECT_TRUE(ch.broken());

  bool late_completed = false;
  ch.begin_request(bytes_of("y"), [&](AsyncResult&& r) {
    late_completed = true;
    EXPECT_EQ(r.status, AsyncStatus::kError);
  });
  EXPECT_TRUE(late_completed);  // broken channels complete inline
}

TEST(AsyncTcpChannel, ResponsesBeforeOrderlyCloseStillDelivered) {
  // The peer answers and then closes: responses that fully arrived before
  // the EOF must be delivered, not failed retroactively with the close.
  auto server = std::make_unique<TcpServer>(
      [](BytesView req) { return Bytes(req.begin(), req.end()); });
  EventLoop loop;
  AsyncTcpChannel ch(loop, "127.0.0.1", server->port());

  AsyncResult result;
  result.status = AsyncStatus::kTimeout;  // sentinel
  ch.begin_request(bytes_of("answered"),
                   [&](AsyncResult&& r) { result = std::move(r); });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (result.status == AsyncStatus::kTimeout &&
         std::chrono::steady_clock::now() < deadline) {
    loop.pump(Millis{10.0});
  }
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.payload, bytes_of("answered"));

  // Now the server goes away entirely; the channel notices on next use.
  server.reset();
  AsyncStatus late = AsyncStatus::kOk;
  ch.begin_request(bytes_of("z"), [&](AsyncResult&& r) { late = r.status; });
  const auto deadline2 = std::chrono::steady_clock::now() +
                         std::chrono::seconds(10);
  while (late == AsyncStatus::kOk && !ch.broken() &&
         std::chrono::steady_clock::now() < deadline2) {
    loop.pump(Millis{10.0});
  }
  EXPECT_TRUE(ch.broken());
}

TEST(AsyncTcpChannel, OversizedRequestFailsWithoutPoisoningConnection) {
  TcpServer server([](BytesView req) { return Bytes(req.begin(), req.end()); });
  EventLoop loop;
  AsyncTcpChannel ch(loop, "127.0.0.1", server.port());

  // kMaxFrameBytes + 1 would allocate 64 MiB here; fake it with a Bytes
  // view over a small buffer is impossible — so actually allocate once.
  Bytes huge(kMaxFrameBytes + 1, 0x00);
  AsyncStatus status = AsyncStatus::kOk;
  ch.begin_request(huge, [&](AsyncResult&& r) { status = r.status; });
  EXPECT_EQ(status, AsyncStatus::kError);
  EXPECT_FALSE(ch.broken());

  Bytes ok;
  ch.begin_request(bytes_of("still alive"),
                   [&](AsyncResult&& r) { ok = std::move(r.payload); });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (ok.empty() && std::chrono::steady_clock::now() < deadline) {
    loop.pump(Millis{10.0});
  }
  EXPECT_EQ(ok, bytes_of("still alive"));
}

}  // namespace
}  // namespace geoproof::net
