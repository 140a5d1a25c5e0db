// Continuous compliance auditing: the operational loop a data owner would
// actually run on top of GeoProof — periodic audits, history, SLA verdicts.
// (The paper's protocol is a single interaction; this is the service layer
// that makes "the measurements could be tested every time" of §V-C(b)
// concrete.)
//
// One service instance drives *many* (scheme, file, verifier) registrations
// through the polymorphic core::AuditScheme interface: heterogeneous
// flavours (MAC, sentinel, dynamic), heterogeneous providers, one registry
// keyed by file id with per-registration history and compliance. This is
// the API surface the sharded audit engine and the multicloud sweep
// workloads build on.
//
// ## Registry at scale
//
// Registrations live in a contiguous arena: a dense slot vector plus an
// id -> slot hash index, so lookups are O(1) and a slot's address is stable
// while the registry is unmutated (run_group holds slot references across
// a group; add() may grow the arena, which the
// no-mutation-during-audits contract already serialises against audits).
// Removed slots go on a free list and are
// reused; slot_of() exposes the dense handle so a partitioner can balance
// shards even when file ids are clustered. Compliance is maintained as
// compact per-registration counters at record time — compliance() is a
// counter read, never a history walk — and the service-wide aggregate is a
// set of monotone atomics read as an epoch-consistent snapshot (passed <=
// total always holds, even for a reader racing an 8-shard sweep). History
// is unbounded by default (the conformance suites' full-retention mode);
// Options::history_limit turns each registration's history into a bounded
// ring while the counters stay exact.
//
// Concurrency contract: run_once / audit_isolated / run_batch / run_group /
// record may be called concurrently for *distinct* file ids provided (a)
// the registry is not mutated (add/remove) while audits run, (b) schemes
// follow the AuditScheme thread-safety contract (scheme.hpp), and (c) a
// VerifierDevice shared by concurrently-audited registrations is
// externally serialised. Every call returns with its audits complete and
// recorded — no audit outlives the call that started it. The sharded
// engine enforces all three.
// compliance() and compliance(file_id) are safe from any thread at any
// time; history() reads require quiescence, like mutation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "core/scheme.hpp"
#include "core/verifier.hpp"

namespace geoproof::obs {
class Registry;
class SpanRecorder;
}  // namespace geoproof::obs

namespace geoproof::core {

class AuditService {
 public:
  struct Entry {
    Nanos at{0};  // virtual time the audit finished
    AuditReport report;
  };

  struct Compliance {
    std::uint64_t total = 0;
    std::uint64_t passed = 0;
    /// Snapshot epoch: how many record events had been folded into the
    /// aggregate when this snapshot was taken. Monotone under the
    /// no-remove-during-sweeps contract, so two reads can be ordered.
    std::uint64_t epoch = 0;
    double rate() const {
      return total == 0 ? 1.0 : static_cast<double>(passed) / total;
    }
    /// SLA verdict at a required pass rate (e.g. 0.99).
    bool meets(double required_rate) const { return rate() >= required_rate; }
  };

  /// One audited target: which scheme judges it, which device runs the
  /// timed phase, which file, and how many rounds per audit. `history` is
  /// ring storage when Options::history_limit is set — read it through
  /// AuditService::history(), which canonicalises to chronological order.
  struct Registration {
    std::uint64_t file_id = 0;
    std::string label;  // defaults to "<scheme>/file-<id>"
    AuditScheme* scheme = nullptr;
    VerifierDevice* verifier = nullptr;
    FileRecord file;
    std::uint32_t challenge_size = 0;
    std::vector<Entry> history;
  };

  struct Options {
    /// Per-registration history retention. 0 (default) keeps every entry —
    /// the historical behaviour the conformance suite depends on. N > 0
    /// keeps the most recent N entries in a bounded ring; compliance and
    /// consecutive-failure counters stay exact regardless, so a
    /// million-registration service does not grow without bound.
    std::size_t history_limit = 0;
  };

  AuditService() = default;
  explicit AuditService(Options options) : options_(options) {}

  /// Movable while audits are quiescent (the atomics are copied with
  /// relaxed loads); fixtures build services and move them into place.
  AuditService(AuditService&& other) noexcept;
  AuditService& operator=(AuditService&& other) noexcept;

  /// Register a target; the registry is keyed by file id (one registration
  /// per file id — re-registering an id throws). Returns the file id.
  std::uint64_t add(AuditScheme& scheme, VerifierDevice& verifier,
                    FileRecord file, std::uint32_t challenge_size,
                    std::string label = {});
  void remove(std::uint64_t file_id);
  bool has(std::uint64_t file_id) const;
  std::size_t size() const { return index_.size(); }
  /// Ascending file ids (the deterministic sweep order).
  std::vector<std::uint64_t> file_ids() const;
  const Registration& registration(std::uint64_t file_id) const;
  /// The registration's dense arena slot: assigned at add(), stable until
  /// remove(), reused afterwards. Partitioners that shard on slot instead
  /// of file id stay balanced even when ids are clustered.
  std::uint32_t slot_of(std::uint64_t file_id) const;

  /// Timestamp source for history entries, sampled *after* an audit
  /// completes (the audit itself advances a virtual clock). The SimClock
  /// overloads wrap the clock in one of these; the sharded engine passes
  /// its per-shard clocks (virtual or wall) through here.
  using Now = std::function<Nanos()>;

  /// Run one audit of `file_id` immediately; records and returns the report.
  /// A thin adapter over the async session path (AuditScheme::audit_once).
  /// Scheme/device errors propagate to the caller, recording nothing.
  const AuditReport& run_once(const SimClock& clock, std::uint64_t file_id);
  const AuditReport& run_once(const Now& now, std::uint64_t file_id);

  /// The fault-isolation rule every sweep path applies (schedule, the
  /// sharded engine, run_group per group): the scheme, device and channel
  /// work of one audit of `file_id` runs inside the isolation, and any
  /// exception it throws becomes AuditReport::aborted(). Records nothing
  /// and calls no hook — the caller records the result exactly once and
  /// runs its hooks outside the isolation, so a hook's exception reaches
  /// the caller instead of posing as an aborted audit.
  AuditReport audit_isolated(std::uint64_t file_id);
  /// Audit every registration once; returns how many passed.
  std::uint64_t run_all(const SimClock& clock);

  /// Audit `ids` with batched signing and verification: the run is split
  /// into maximal consecutive groups sharing one (scheme, verifier) pair
  /// (group_end), and each group consumes ONE device signature
  /// (VerifierDevice::run_audit_batch) and ONE TPA signature check
  /// (AuditScheme::verify_batch) — the 10-100x lever on the per-audit
  /// hot path, since WOTS chain hashing dominates a single MAC audit.
  /// Every audit still runs its own timed rounds and is recorded into
  /// history exactly as run_once would. A scheme/device error aborts only
  /// the failing group (recorded as kAborted entries — the audit_isolated
  /// rule, applied per group); later groups still run. `on_report`, when
  /// given, sees every recorded report, called once a group's members are
  /// all recorded; an exception it throws propagates to the caller. Returns
  /// how many audits passed.
  using BatchReportHook =
      std::function<void(std::uint64_t file_id, const AuditReport& report)>;
  std::uint64_t run_batch(const Now& now,
                          const std::vector<std::uint64_t>& ids,
                          const BatchReportHook& on_report = {});

  /// The batch-grouping rule: the end of the maximal run of `ids` starting
  /// at `begin` whose registrations share `ids[begin]`'s (scheme,
  /// verifier) pair. Callers that must act per group — the sharded engine
  /// takes each group's device lock — walk groups with this and hand each
  /// to run_group, exactly as run_batch does.
  std::size_t group_end(const std::vector<std::uint64_t>& ids,
                        std::size_t begin) const;
  /// Audit one group `ids[begin..end)` (as delimited by group_end) through
  /// the batched sign/verify path; returns how many passed. Faults abort
  /// only this group, as in run_batch. Throws InvalidArgument, recording
  /// nothing, for an empty or out-of-range group or one whose members do
  /// not share ids[begin]'s (scheme, verifier) pair.
  std::uint64_t run_group(const Now& now,
                          const std::vector<std::uint64_t>& ids,
                          std::size_t begin, std::size_t end,
                          const BatchReportHook& on_report = {});

  /// Append an externally-judged entry to `file_id`'s history — how the
  /// sharded engine records the audit_isolated result of each audit.
  void record(std::uint64_t file_id, Nanos at, AuditReport report);

  /// Schedule `count` audits of `file_id` on `queue`, one every `interval`,
  /// starting at `start`. Results land in history() as the queue runs.
  void schedule(EventQueue& queue, const SimClock& clock,
                std::uint64_t file_id, Nanos start, Nanos interval,
                unsigned count);
  /// Schedule the same cadence for every registration.
  void schedule(EventQueue& queue, const SimClock& clock, Nanos start,
                Nanos interval, unsigned count);

  const std::vector<Entry>& history(std::uint64_t file_id) const;
  /// O(1) counter reads (no history walk; exact even with a bounded ring).
  Compliance compliance(std::uint64_t file_id) const;
  /// Consecutive failures at the tail of the registration's history — the
  /// usual paging trigger for an operator.
  std::uint64_t consecutive_failures(std::uint64_t file_id) const;

  /// Aggregate compliance across the whole registry as an epoch-consistent
  /// atomic snapshot (safe to call while sweeps run; passed <= total holds
  /// for every read).
  Compliance compliance() const;

  /// One line per registration: label, audits, pass rate, tail failures.
  std::string summary() const;

  /// Export the service-wide compliance aggregate into `registry` as a
  /// "geoproof_registry" snapshot (audits_total / passed_total / epoch) —
  /// the million-registration compliance view on the scrape endpoint.
  /// Call once the service sits at its final address (moving a service
  /// with metrics registered is unsupported); the destructor deregisters.
  void register_metrics(obs::Registry& registry);

  /// Attach per-batch span tracing: run_batch records one "batch" span per
  /// (scheme, verifier) group, with challenge-build / bit-exchange /
  /// verify+record phases timed on the caller's Now clock. Null detaches.
  /// The recorder must outlive the service or be detached first.
  void set_span_recorder(obs::SpanRecorder* spans) { spans_ = spans; }

  ~AuditService();

 private:
  /// Per-registration compact compliance counters, maintained at record
  /// time. Atomics because aggregate/per-id compliance may be read while
  /// shards record for distinct ids; each id's writers are serialised by
  /// the concurrency contract. Writer order (total relaxed, then passed
  /// release) pairs with the reader's (passed acquire, then total
  /// relaxed), so passed <= total for any interleaving — the same
  /// discipline ShardedAuditEngine's counters use.
  struct Counters {
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> passed{0};
    std::atomic<std::uint64_t> tail_failures{0};
  };

  /// One arena cell: the registration plus its counters and ring cursor.
  /// Movable only while audits are quiescent (vector growth happens in
  /// add(), which the contract already serialises against audits).
  struct Slot {
    Registration reg;
    Counters counters;
    std::size_t history_head = 0;  // oldest ring entry when bounded
    bool live = false;

    Slot() = default;
    Slot(Slot&& other) noexcept;
    Slot& operator=(Slot&& other) noexcept;
  };

  Slot& find_slot(std::uint64_t file_id);
  const Slot& find_slot(std::uint64_t file_id) const;
  const std::vector<std::uint64_t>& ordered_ids() const;
  /// Record `entry` into the slot: ring append + counters + aggregate
  /// snapshot publication. Returns the recorded report.
  const AuditReport& append_entry(Slot& slot, Entry entry);
  static Compliance compliance_of(const Counters& counters);

  Options options_;
  /// The arena: dense slots, tombstones recycled through free_.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  /// Ascending-id iteration order, rebuilt lazily after add/remove so 1e6
  /// adds cost one sort, not a per-add ordered insert.
  mutable std::vector<std::uint64_t> ordered_ids_;
  mutable bool order_dirty_ = false;

  /// Service-wide aggregate, published per record event: total (relaxed),
  /// then passed (release), then epoch (release). Readers reverse the
  /// order with acquires, giving passed <= total and a monotone epoch
  /// without locking or walking the registry.
  std::atomic<std::uint64_t> agg_total_{0};
  std::atomic<std::uint64_t> agg_passed_{0};
  std::atomic<std::uint64_t> agg_epoch_{0};

  /// Observability hooks; deliberately NOT transferred by the move
  /// operations (register after final placement — see register_metrics).
  obs::Registry* metrics_ = nullptr;
  std::uint64_t metrics_snapshot_id_ = 0;
  obs::SpanRecorder* spans_ = nullptr;
  std::atomic<std::uint64_t> span_seq_{0};
};

}  // namespace geoproof::core
