// The sharded audit engine: N worker shards draining one AuditService
// registry concurrently — the throughput layer the ROADMAP's "heavy
// traffic from millions of users" north star asks for, and the concurrent
// audit fan-out that GeoFINDR-style multicloud sweeps and BFT-PoLoc-style
// many-challenger measurements presuppose.
//
// Registrations are partitioned across shards by file id (partitioner
// injectable); each shard drains its run queue on a std::jthread worker,
// and idle workers steal queued registrations from the back of busy
// shards' queues. Results merge into a thread-safe aggregate view
// (compliance_all) kept in atomic counters, plus the usual per-file
// histories inside the AuditService.
//
// ## Determinism
//
// Per-shard clocks are injectable, so the engine runs both in wall-clock
// mode (default: one steady clock since construction) and under the
// deterministic virtual SimClock worlds tests use. With one shard the
// engine runs on the calling thread, in ascending-file-id order — results
// are bit-identical to AuditService::run_all. With many shards, per-file
// outcomes are deterministic whenever each scheme's mutable challenge
// state is confined to one shard (or stateless); shared schemes stay
// *correct* across shards (see the AuditScheme thread-safety contract)
// but may interleave nonce/challenge draws.
//
// ## Fault isolation
//
// Every audit runs under AuditService's one fault-isolation rule: an
// exception from the scheme, device or channel is recorded as that
// registration's kAborted entry (its whole batch group's, when batched)
// and the sweep carries on. Recording and the report_hook run outside the
// isolation, so each audit is recorded exactly once and a throwing hook
// propagates out of sweep_once.
//
// ## What the caller must uphold
//
//  - no AuditService::add/remove while a sweep is running;
//  - registrations whose timed paths share mutable simulation state (one
//    SimClock, one SimRequestChannel) must be co-located on one shard by
//    the injected partitioner AND run with work_stealing off — otherwise
//    concurrent audits (a foreign shard's, or a thief's) would charge
//    latency to each other's stopwatches;
//  - sharing a VerifierDevice across shards is fine: the engine serialises
//    run_audit per device (one-time signing keys must not race).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/audit_service.hpp"
#include "obs/fields.hpp"

namespace geoproof::obs {
class Gauge;
class Histogram;
class Registry;
}  // namespace geoproof::obs

namespace geoproof::core {

class ShardedAuditEngine {
 public:
  /// file id -> shard index in [0, shards).
  using Partitioner =
      std::function<std::size_t(std::uint64_t file_id, std::size_t shards)>;
  /// Per-shard timestamp source for history entries (virtual in tests,
  /// wall-clock in production).
  using ShardClock = std::function<Nanos()>;

  struct Options {
    /// Worker shard count (>= 1).
    std::size_t shards = 1;
    /// Defaults to file_id % shards. Must co-locate registrations that
    /// share a simulated world — see the class comment.
    Partitioner partitioner;
    /// shard index -> that shard's clock. Defaults to one wall clock
    /// (nanoseconds since engine construction) for every shard.
    std::function<ShardClock(std::size_t shard)> clock_source;
    /// Root seed of the per-shard Rng streams (work-stealing victim
    /// order); the whole schedule is reproducible from (seed, shards).
    std::uint64_t seed = 0x5a4d;
    /// Idle workers steal queued work from the back of busy shards. A
    /// stolen registration runs on the thief's thread, so disable this
    /// whenever the partitioner co-locates registrations that share a
    /// simulated world — stealing would undo that co-location.
    bool work_stealing = true;
    /// Run granularity: each worker drains its home queue in
    /// runs of up to batch_size registrations and audits each
    /// AuditService::group_end group through AuditService::run_group —
    /// one device signature and one TPA
    /// signature check per group instead of per audit. 1 (default)
    /// preserves the historical one-signature-per-audit behaviour bit for
    /// bit. Stolen work always runs singly (a thief holds a foreign
    /// device's mutex as briefly as possible).
    std::size_t batch_size = 1;
    /// Sweep-output tap: called once per completed audit — including
    /// kAborted entries — from the shard worker (or thief) that ran it,
    /// after the audit is recorded and before the sweep returns. An
    /// exception it throws propagates out of sweep_once. This is how a
    /// streaming consumer (track::TrackService) subscribes to sweep
    /// output without polling histories. Called concurrently from many
    /// worker threads: the callee must be thread-safe, and fast — it sits
    /// on the audit hot path. Null (default) = no tap.
    std::function<void(std::uint64_t file_id, const AuditReport& report,
                       std::size_t shard)>
        report_hook;
    /// Observability registry (not owned; must outlive the engine). When
    /// set, the engine registers a stats snapshot plus a queued-work gauge
    /// (geoproof_engine_queue_depth), a per-audit latency histogram
    /// (geoproof_engine_audit_seconds, unbatched sweeps, timed on the
    /// shard's own clock) and a per-sweep histogram
    /// (geoproof_engine_sweep_seconds) — and deregisters the snapshot on
    /// destruction. Null = no metrics.
    obs::Registry* metrics = nullptr;
  };

  /// Monotone engine counters (atomically maintained; safe to read while
  /// workers are mid-sweep).
  struct Stats {
    std::uint64_t audits = 0;   // completed audits, incl. aborted
    std::uint64_t passed = 0;
    std::uint64_t aborted = 0;  // recorded as AuditFailure::kAborted
    std::uint64_t steals = 0;   // work items run on a foreign shard
    std::uint64_t sweeps = 0;

    /// One field list feeding logfmt, the JSON writer and the obs
    /// Registry snapshot (summary() renders through this too).
    obs::Fields to_fields() const;
  };

  /// What one run_for() call achieved.
  struct RunReport {
    Stats delta;  // counters attributable to this run alone
    std::chrono::nanoseconds elapsed{0};
    double audits_per_second = 0.0;
  };

  /// The engine schedules over, but does not own, `service`.
  ShardedAuditEngine(AuditService& service, Options options);
  /// Default options: one shard, modulo partitioning, wall clock.
  explicit ShardedAuditEngine(AuditService& service);
  /// Unparks and joins any pooled workers.
  ~ShardedAuditEngine();

  ShardedAuditEngine(const ShardedAuditEngine&) = delete;
  ShardedAuditEngine& operator=(const ShardedAuditEngine&) = delete;

  std::size_t shards() const { return options_.shards; }
  /// Shard the partitioner assigns `file_id` to (throws InvalidArgument if
  /// the partitioner returns an out-of-range shard).
  std::size_t shard_of(std::uint64_t file_id) const;
  /// Deterministic partition of the current registry: ascending file ids
  /// per shard. This is each sweep's initial run-queue content.
  std::vector<std::vector<std::uint64_t>> shard_plan() const;

  /// Audit every registration exactly once, fanned across the shards;
  /// blocks until the sweep completes. A scheme/device/channel error
  /// aborts only that registration (recorded as kAborted) — other shards
  /// keep running.
  /// Returns the number of audits that passed.
  ///
  /// Shard 0 always runs on the caller, so 1-shard sweeps are thread-free
  /// and bit-identical to AuditService::run_all. The shards-1 worker
  /// jthreads are spawned on the first multi-shard dispatch and parked
  /// between dispatches, so every later sweep reuses them.
  std::uint64_t sweep_once();

  /// Run `job(shard)` exactly once per shard, fanned across the engine's
  /// workers (shard 0 on the calling thread), and block until every shard
  /// returns. This is the generic measurement-round hook: work that is
  /// not an AuditService registration — locate::VantageFleet's per-shard
  /// delay-measurement pumps — reuses the engine's parked pool and shard
  /// layout instead of spawning its own threads. The job must confine
  /// itself to shard-local state exactly as audit workers do; a thrown
  /// exception in any shard propagates to the caller after all shards
  /// finish.
  void run_on_shards(const std::function<void(std::size_t shard)>& job);

  /// Sweep repeatedly until `budget` wall time has elapsed (at least one
  /// sweep always completes).
  RunReport run_for(std::chrono::nanoseconds budget);

  /// Aggregate compliance across every shard, merged from the engine's
  /// atomic counters — safe to read concurrently with a running sweep.
  /// Quiescent, it equals AuditService::compliance() restricted to
  /// engine-driven audits.
  AuditService::Compliance compliance_all() const;
  Stats stats() const;

  /// One line: shards, audits, pass rate, aborts, steals, sweeps.
  std::string summary() const;

 private:
  struct ShardQueue;

  /// Fan `job` across all shards (shard 0 on the caller, the rest on the
  /// parked pool), collecting one exception_ptr per shard and rethrowing
  /// the first after everyone has returned.
  void dispatch_to_shards(const std::function<void(std::size_t)>& job);
  void ensure_pool();
  void pool_worker(std::size_t shard);
  void refresh_verifier_mutexes();
  void worker(std::size_t shard, std::vector<ShardQueue>& queues,
              std::atomic<std::uint64_t>& sweep_passed);
  /// Audit one registration under the service's fault-isolation rule
  /// (AuditService::audit_isolated), then record and count it.
  void audit_one(std::size_t shard, std::uint64_t file_id,
                 std::atomic<std::uint64_t>& sweep_passed);
  /// Audit a run of registrations popped together (batch_size > 1): the
  /// run is split into AuditService::group_end groups, each audited under
  /// its device's mutex through AuditService::run_group.
  void audit_run(std::size_t shard, const std::vector<std::uint64_t>& run,
                 std::atomic<std::uint64_t>& sweep_passed);
  /// Count into the engine aggregates and fan the report out to the
  /// options' report_hook (if any). Runs on the worker that produced the
  /// report.
  void count_result(std::size_t shard, std::uint64_t file_id,
                    const AuditReport& report,
                    std::atomic<std::uint64_t>& sweep_passed);

  AuditService* service_;
  Options options_;
  std::vector<ShardClock> clocks_;
  /// Per shard: the other shards in this worker's steal order (seeded
  /// shuffle, fixed for the engine's lifetime).
  std::vector<std::vector<std::size_t>> steal_order_;
  /// One mutex per distinct VerifierDevice (its Merkle signer consumes
  /// one-time keys). Refreshed between sweeps, never during one.
  std::map<const VerifierDevice*, std::unique_ptr<Mutex>> verifier_mu_;
  std::chrono::steady_clock::time_point epoch_;

  /// Parked worker pool (shards > 1): one jthread per non-zero shard,
  /// spawned on first dispatch. Between dispatches each polls briefly
  /// (kPoolSpin in the .cpp), then parks on pool_cv_.
  /// pool_job_ points at the current dispatch's job for the duration of
  /// one epoch; pool_remaining_ counts workers still in it.
  /// All pool protocol state is guarded by pool_mu_ (machine-checked under
  /// -Wthread-safety); the condition variables wait on its native handle.
  std::vector<std::jthread> pool_;
  Mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable pool_done_cv_;
  const std::function<void(std::size_t)>* pool_job_
      GEOPROOF_GUARDED_BY(pool_mu_) = nullptr;
  std::uint64_t pool_epoch_ GEOPROOF_GUARDED_BY(pool_mu_) = 0;
  std::size_t pool_remaining_ GEOPROOF_GUARDED_BY(pool_mu_) = 0;
  bool pool_shutdown_ GEOPROOF_GUARDED_BY(pool_mu_) = false;
  /// Unlocked hints for the short poll before a pool thread sleeps:
  /// pool_signal_ is the latest pool_epoch_ (bumped once more at
  /// shutdown), pool_running_ the pool workers not yet done with it. Both
  /// are written under pool_mu_ next to the state they mirror, and a
  /// thread whose poll succeeds still re-checks that state under the lock.
  std::atomic<std::uint64_t> pool_signal_{0};
  std::atomic<std::size_t> pool_running_{0};
  /// Set with the pool: poll only when every shard can have its own CPU.
  bool pool_spin_ = false;

  std::atomic<std::uint64_t> audits_{0};
  std::atomic<std::uint64_t> passed_{0};
  std::atomic<std::uint64_t> aborted_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> sweeps_{0};

  /// Observability hooks (all null when Options::metrics is unset). The
  /// registry owns the instruments; the engine only deregisters its
  /// snapshot callback in the destructor.
  obs::Registry* metrics_ = nullptr;
  std::uint64_t metrics_snapshot_id_ = 0;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* audit_latency_ = nullptr;
  obs::Histogram* sweep_latency_ = nullptr;
};

}  // namespace geoproof::core
