#include "core/sharded_engine.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>
#include <thread>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace geoproof::core {

namespace {

/// How long a pool thread polls for its next step (the next dispatch, or
/// the last worker of this one) before it sleeps on a condition variable.
/// Back-to-back sweeps dispatch every few tens of milliseconds, and a shard
/// that finishes early waits for the slowest. On a virtual machine a
/// sleeping thread idles its vCPU, the hypervisor may give the core to
/// another guest, and the wake-up then waits until the vCPU runs again;
/// every sweep pays that wait, so the shorter the sweep the larger and the
/// more variable its share. Polling keeps the vCPUs running across those
/// gaps. The bound spans about two sweeps of a 4096-registration, 4-shard
/// registry, so a shard still polls while the host delays the slowest
/// one, and an engine that stops sweeping parks its pool soon after.
constexpr auto kPoolSpin = std::chrono::milliseconds(50);

/// Poll `ready` until it holds or kPoolSpin has passed.
template <typename Ready>
void spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kPoolSpin;
  while (!ready() && std::chrono::steady_clock::now() < deadline) {
#if defined(__x86_64__) || defined(__i386__)
    for (int i = 0; i < 64; ++i) __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }
}

}  // namespace

/// One shard's run queue. The owning worker pops from the front; thieves
/// pop from the back, so an owner and a thief contend only on the lock,
/// never on the same end's ordering.
struct ShardedAuditEngine::ShardQueue {
  Mutex mu;
  std::deque<std::uint64_t> items GEOPROOF_GUARDED_BY(mu);

  void assign(const std::vector<std::uint64_t>& ids) {
    MutexLock lock(mu);
    items.assign(ids.begin(), ids.end());
  }

  std::optional<std::uint64_t> pop_front() {
    MutexLock lock(mu);
    if (items.empty()) return std::nullopt;
    const std::uint64_t id = items.front();
    items.pop_front();
    return id;
  }

  std::optional<std::uint64_t> pop_back() {
    MutexLock lock(mu);
    if (items.empty()) return std::nullopt;
    const std::uint64_t id = items.back();
    items.pop_back();
    return id;
  }
};

ShardedAuditEngine::ShardedAuditEngine(AuditService& service)
    : ShardedAuditEngine(service, Options{}) {}

ShardedAuditEngine::~ShardedAuditEngine() {
  // Deregister the stats snapshot first: a registry outliving this engine
  // must never evaluate a callback into freed members mid-scrape.
  if (metrics_ != nullptr) metrics_->remove_snapshot(metrics_snapshot_id_);
  {
    MutexLock lock(pool_mu_);
    pool_shutdown_ = true;
    pool_signal_.fetch_add(1, std::memory_order_release);
  }
  pool_cv_.notify_all();
  // Join the workers *here*, while pool_mu_/pool_cv_ are still alive —
  // implicit member destruction would tear the condition variable down
  // before the jthreads (declared earlier, destroyed later) finish
  // waking out of it.
  pool_.clear();
}

ShardedAuditEngine::ShardedAuditEngine(AuditService& service, Options options)
    : service_(&service),
      options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.shards == 0) {
    throw InvalidArgument("ShardedAuditEngine: shards must be >= 1");
  }
  if (options_.batch_size == 0) {
    throw InvalidArgument("ShardedAuditEngine: batch_size must be >= 1");
  }
  if (!options_.partitioner) {
    options_.partitioner = [](std::uint64_t file_id, std::size_t shards) {
      return static_cast<std::size_t>(file_id % shards);
    };
  }
  if (!options_.clock_source) {
    // Wall-clock mode: every shard stamps entries with the time since
    // engine construction.
    options_.clock_source = [this](std::size_t /*shard*/) -> ShardClock {
      return [this] {
        return std::chrono::duration_cast<Nanos>(
            std::chrono::steady_clock::now() - epoch_);
      };
    };
  }
  clocks_.reserve(options_.shards);
  steal_order_.resize(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    clocks_.push_back(options_.clock_source(s));
    if (!clocks_.back()) {
      throw InvalidArgument("ShardedAuditEngine: clock_source returned an "
                            "empty shard clock");
    }
    // Fixed per-shard victim order from an independent per-shard Rng
    // stream: deterministic given (seed, shards), and no two workers share
    // a generator.
    std::vector<std::size_t>& victims = steal_order_[s];
    for (std::size_t v = 0; v < options_.shards; ++v) {
      if (v != s) victims.push_back(v);
    }
    Rng rng = Rng::stream(options_.seed, s);
    shuffle(victims, rng);
  }
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
    queue_depth_ = &metrics_->gauge(
        "geoproof_engine_queue_depth", {},
        "registrations still queued in the current sweep");
    audit_latency_ = &metrics_->histogram(
        "geoproof_engine_audit_seconds", {},
        "per-audit latency of unbatched sweeps on the shard's own clock");
    sweep_latency_ = &metrics_->histogram(
        "geoproof_engine_sweep_seconds", {},
        "whole-sweep latency on shard 0's clock");
    metrics_snapshot_id_ = metrics_->add_snapshot(
        "geoproof_engine", [this] { return stats().to_fields(); });
  }
}

std::size_t ShardedAuditEngine::shard_of(std::uint64_t file_id) const {
  const std::size_t shard = options_.partitioner(file_id, options_.shards);
  if (shard >= options_.shards) {
    throw InvalidArgument("ShardedAuditEngine: partitioner returned shard "
                          "out of range");
  }
  return shard;
}

std::vector<std::vector<std::uint64_t>> ShardedAuditEngine::shard_plan()
    const {
  std::vector<std::vector<std::uint64_t>> plan(options_.shards);
  // file_ids() is ascending (map order), so each shard's queue is too.
  for (const std::uint64_t id : service_->file_ids()) {
    plan[shard_of(id)].push_back(id);
  }
  return plan;
}

void ShardedAuditEngine::refresh_verifier_mutexes() {
  // Rebuild from the live registry so devices removed between sweeps do
  // not accumulate as dangling keys; mutexes for devices still registered
  // are carried over (they are never held between sweeps, but recreating
  // them for free is pointless).
  std::map<const VerifierDevice*, std::unique_ptr<Mutex>> fresh;
  for (const std::uint64_t id : service_->file_ids()) {
    const VerifierDevice* verifier = service_->registration(id).verifier;
    auto& slot = fresh[verifier];
    if (!slot) {
      const auto old = verifier_mu_.find(verifier);
      slot = old != verifier_mu_.end() ? std::move(old->second)
                                       : std::make_unique<Mutex>();
    }
  }
  verifier_mu_.swap(fresh);
}

void ShardedAuditEngine::count_result(
    std::size_t shard, std::uint64_t file_id, const AuditReport& report,
    std::atomic<std::uint64_t>& sweep_passed) {
  audits_.fetch_add(1, std::memory_order_relaxed);
  if (report.failed(AuditFailure::kAborted)) {
    aborted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (report.accepted) {
    // Release: pairs with compliance_all()'s acquire load, so a reader
    // that observes this pass also observes the audits_ increment above
    // (passed <= total even mid-sweep).
    passed_.fetch_add(1, std::memory_order_release);
    sweep_passed.fetch_add(1, std::memory_order_relaxed);
  }
  if (queue_depth_ != nullptr) queue_depth_->sub(1);
  if (options_.report_hook) options_.report_hook(file_id, report, shard);
}

void ShardedAuditEngine::audit_one(
    std::size_t shard, std::uint64_t file_id,
    std::atomic<std::uint64_t>& sweep_passed) {
  const ShardClock& now = clocks_[shard];
  Mutex& device_mu =
      *verifier_mu_.at(service_->registration(file_id).verifier);
  const Nanos t0 = audit_latency_ != nullptr ? now() : Nanos{0};
  AuditReport report;
  {
    // Serialise the whole audit per device: run_audit consumes one-time
    // signing keys, and the device's channel/stopwatch advance the
    // world's clock. A scheme/device fault becomes this registration's
    // kAborted entry; every other shard's work keeps flowing.
    MutexLock lock(device_mu);
    report = service_->audit_isolated(file_id);
  }
  if (audit_latency_ != nullptr) audit_latency_->record(now() - t0);
  service_->record(file_id, now(), report);
  count_result(shard, file_id, report, sweep_passed);
}

void ShardedAuditEngine::audit_run(std::size_t shard,
                                   const std::vector<std::uint64_t>& run,
                                   std::atomic<std::uint64_t>& sweep_passed) {
  const ShardClock& now = clocks_[shard];
  const auto hook = [this, shard, &sweep_passed](std::uint64_t file_id,
                                                 const AuditReport& report) {
    count_result(shard, file_id, report, sweep_passed);
  };
  // Walk the run group by group (the service owns the grouping rule):
  // each group consumes one signing key, and the device mutex need only be
  // held for the group actually using that device. Scheme/device faults
  // are isolated inside run_group (kAborted records reach the hook); a
  // throwing report_hook propagates out of the sweep.
  for (std::size_t begin = 0; begin < run.size();) {
    const std::size_t end = service_->group_end(run, begin);
    Mutex& device_mu =
        *verifier_mu_.at(service_->registration(run[begin]).verifier);
    MutexLock lock(device_mu);
    (void)service_->run_group(now, run, begin, end, hook);
    begin = end;
  }
}

void ShardedAuditEngine::worker(std::size_t shard,
                                std::vector<ShardQueue>& queues,
                                std::atomic<std::uint64_t>& sweep_passed) {
  // Drain the home queue first (front: preserves ascending-id order),
  // in runs of batch_size when batched signing is enabled.
  if (options_.batch_size > 1) {
    std::vector<std::uint64_t> run;
    run.reserve(options_.batch_size);
    for (;;) {
      run.clear();
      while (run.size() < options_.batch_size) {
        if (const auto id = queues[shard].pop_front()) {
          run.push_back(*id);
        } else {
          break;
        }
      }
      if (run.empty()) break;
      audit_run(shard, run, sweep_passed);
    }
  } else {
    while (const auto id = queues[shard].pop_front()) {
      audit_one(shard, *id, sweep_passed);
    }
  }
  if (!options_.work_stealing) return;
  // Then steal from the back of busy shards until every queue is empty.
  // No work is enqueued mid-sweep, so one clean pass over all victims
  // finding nothing means the sweep's queues are drained.
  for (;;) {
    bool stole = false;
    for (const std::size_t victim : steal_order_[shard]) {
      if (const auto id = queues[victim].pop_back()) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        audit_one(shard, *id, sweep_passed);
        stole = true;
        break;
      }
    }
    if (!stole) return;
  }
}

void ShardedAuditEngine::ensure_pool() {
  if (!pool_.empty()) return;
  // Polling pays only while every shard has a CPU of its own; with more
  // shards than CPUs a polling thread holds a CPU a working shard needs.
  pool_spin_ = options_.shards <= std::thread::hardware_concurrency();
  pool_.reserve(options_.shards - 1);
  for (std::size_t s = 1; s < options_.shards; ++s) {
    pool_.emplace_back([this, s] { pool_worker(s); });
  }
}

void ShardedAuditEngine::pool_worker(std::size_t shard) {
  std::uint64_t seen_epoch = 0;
  MutexLock lock(pool_mu_);
  for (;;) {
    if (pool_spin_) {
      lock.unlock();
      spin_until([this, seen_epoch] {
        return pool_signal_.load(std::memory_order_acquire) != seen_epoch;
      });
      lock.lock();
    }
    // Explicit wait loop (not the predicate overload): the guarded reads
    // stay in this function's body, where the analysis sees pool_mu_ held.
    while (!pool_shutdown_ && pool_epoch_ == seen_epoch) {
      pool_cv_.wait(lock.native_lock());
    }
    if (pool_shutdown_) return;
    seen_epoch = pool_epoch_;
    const std::function<void(std::size_t)>* job = pool_job_;
    lock.unlock();
    (*job)(shard);  // exceptions already stashed by dispatch's wrapper
    lock.lock();
    pool_running_.fetch_sub(1, std::memory_order_release);
    if (--pool_remaining_ == 0) pool_done_cv_.notify_one();
  }
}

void ShardedAuditEngine::dispatch_to_shards(
    const std::function<void(std::size_t)>& job) {
  // A worker exception (engine mis-wiring; individual audit faults are
  // already isolated as kAborted records) must reach the caller, not
  // std::terminate a worker thread — stash per-shard and rethrow after
  // every shard has finished.
  std::vector<std::exception_ptr> worker_errors(options_.shards);
  const std::function<void(std::size_t)> guarded =
      [&job, &worker_errors](std::size_t s) {
        try {
          job(s);
        } catch (...) {
          worker_errors[s] = std::current_exception();
        }
      };
  // Shard 0 runs on the calling thread: with one shard no other thread is
  // involved at all, which is what makes single-shard sweeps bit-identical
  // (and directly comparable) to AuditService::run_all.
  if (options_.shards == 1) {
    guarded(0);
  } else {
    ensure_pool();
    {
      MutexLock lock(pool_mu_);
      pool_job_ = &guarded;
      pool_remaining_ = options_.shards - 1;
      pool_running_.store(pool_remaining_, std::memory_order_relaxed);
      ++pool_epoch_;
      pool_signal_.store(pool_epoch_, std::memory_order_release);
    }
    pool_cv_.notify_all();
    guarded(0);
    if (pool_spin_) {
      spin_until([this] {
        return pool_running_.load(std::memory_order_acquire) == 0;
      });
    }
    MutexLock lock(pool_mu_);
    while (pool_remaining_ != 0) pool_done_cv_.wait(lock.native_lock());
    pool_job_ = nullptr;
  }
  for (const std::exception_ptr& error : worker_errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ShardedAuditEngine::run_on_shards(
    const std::function<void(std::size_t shard)>& job) {
  if (!job) throw InvalidArgument("ShardedAuditEngine: null shard job");
  dispatch_to_shards(job);
}

std::uint64_t ShardedAuditEngine::sweep_once() {
  refresh_verifier_mutexes();
  const std::vector<std::vector<std::uint64_t>> plan = shard_plan();
  std::vector<ShardQueue> queues(options_.shards);
  std::size_t planned = 0;
  for (std::size_t s = 0; s < options_.shards; ++s) {
    queues[s].assign(plan[s]);
    planned += plan[s].size();
  }
  // Queue-depth gauge counts down through count_result as audits finish.
  if (queue_depth_ != nullptr) {
    queue_depth_->set(static_cast<std::int64_t>(planned));
  }
  const Nanos sweep_t0 = sweep_latency_ != nullptr ? clocks_[0]() : Nanos{0};

  std::atomic<std::uint64_t> sweep_passed{0};
  dispatch_to_shards([this, &queues, &sweep_passed](std::size_t s) {
    worker(s, queues, sweep_passed);
  });
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  if (sweep_latency_ != nullptr) {
    sweep_latency_->record(clocks_[0]() - sweep_t0);
  }
  return sweep_passed.load(std::memory_order_relaxed);
}

ShardedAuditEngine::RunReport ShardedAuditEngine::run_for(
    std::chrono::nanoseconds budget) {
  const auto start = std::chrono::steady_clock::now();
  const Stats before = stats();
  do {
    sweep_once();
  } while (std::chrono::steady_clock::now() - start < budget);
  const Stats after = stats();

  RunReport report;
  report.delta.audits = after.audits - before.audits;
  report.delta.passed = after.passed - before.passed;
  report.delta.aborted = after.aborted - before.aborted;
  report.delta.steals = after.steals - before.steals;
  report.delta.sweeps = after.sweeps - before.sweeps;
  report.elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  const double seconds =
      std::chrono::duration<double>(report.elapsed).count();
  report.audits_per_second =
      seconds > 0.0 ? static_cast<double>(report.delta.audits) / seconds : 0.0;
  return report;
}

AuditService::Compliance ShardedAuditEngine::compliance_all() const {
  AuditService::Compliance c;
  // Acquire-load passed before audits: every observed pass release-
  // published its preceding audits_ increment, so a mid-sweep read may
  // undercount passes but never reports passed > total.
  c.passed = passed_.load(std::memory_order_acquire);
  c.total = audits_.load(std::memory_order_relaxed);
  c.epoch = c.total;
  return c;
}

ShardedAuditEngine::Stats ShardedAuditEngine::stats() const {
  Stats s;
  s.passed = passed_.load(std::memory_order_acquire);
  s.audits = audits_.load(std::memory_order_relaxed);
  s.aborted = aborted_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.sweeps = sweeps_.load(std::memory_order_relaxed);
  return s;
}

obs::Fields ShardedAuditEngine::Stats::to_fields() const {
  return {{"audits_total", audits},
          {"passed_total", passed},
          {"aborted_total", aborted},
          {"steals_total", steals},
          {"sweeps_total", sweeps}};
}

std::string ShardedAuditEngine::summary() const {
  const Stats s = stats();
  const AuditService::Compliance c = compliance_all();
  std::ostringstream os;
  os << "shards=" << options_.shards;
  for (const obs::FieldValue& f : s.to_fields()) {
    os << ' ' << f.name << '=' << f.value;
  }
  os << " rate=" << c.rate();
  return os.str();
}

}  // namespace geoproof::core
