#include "core/audit_service.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/errors.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace geoproof::core {

namespace {
void copy_counter(std::atomic<std::uint64_t>& dst,
                  const std::atomic<std::uint64_t>& src) {
  dst.store(src.load(std::memory_order_relaxed), std::memory_order_relaxed);
}
}  // namespace

// Slots move only while audits are quiescent (arena growth in add()), so
// relaxed counter copies are exact.
AuditService::Slot::Slot(Slot&& other) noexcept
    : reg(std::move(other.reg)),
      history_head(other.history_head),
      live(other.live) {
  copy_counter(counters.total, other.counters.total);
  copy_counter(counters.passed, other.counters.passed);
  copy_counter(counters.tail_failures, other.counters.tail_failures);
}

AuditService::Slot& AuditService::Slot::operator=(Slot&& other) noexcept {
  reg = std::move(other.reg);
  history_head = other.history_head;
  live = other.live;
  copy_counter(counters.total, other.counters.total);
  copy_counter(counters.passed, other.counters.passed);
  copy_counter(counters.tail_failures, other.counters.tail_failures);
  return *this;
}

AuditService::AuditService(AuditService&& other) noexcept
    : options_(other.options_),
      slots_(std::move(other.slots_)),
      free_(std::move(other.free_)),
      index_(std::move(other.index_)),
      ordered_ids_(std::move(other.ordered_ids_)),
      order_dirty_(other.order_dirty_) {
  copy_counter(agg_total_, other.agg_total_);
  copy_counter(agg_passed_, other.agg_passed_);
  copy_counter(agg_epoch_, other.agg_epoch_);
}

AuditService& AuditService::operator=(AuditService&& other) noexcept {
  options_ = other.options_;
  slots_ = std::move(other.slots_);
  free_ = std::move(other.free_);
  index_ = std::move(other.index_);
  ordered_ids_ = std::move(other.ordered_ids_);
  order_dirty_ = other.order_dirty_;
  copy_counter(agg_total_, other.agg_total_);
  copy_counter(agg_passed_, other.agg_passed_);
  copy_counter(agg_epoch_, other.agg_epoch_);
  return *this;
}

AuditService::~AuditService() {
  if (metrics_ != nullptr) metrics_->remove_snapshot(metrics_snapshot_id_);
}

void AuditService::register_metrics(obs::Registry& registry) {
  if (metrics_ != nullptr) metrics_->remove_snapshot(metrics_snapshot_id_);
  metrics_ = &registry;
  metrics_snapshot_id_ = registry.add_snapshot("geoproof_registry", [this] {
    const Compliance c = compliance();
    return obs::Fields{{"audits_total", c.total},
                       {"passed_total", c.passed},
                       {"epoch", c.epoch},
                       {"registrations", size()}};
  });
}

std::uint64_t AuditService::add(AuditScheme& scheme, VerifierDevice& verifier,
                                FileRecord file, std::uint32_t challenge_size,
                                std::string label) {
  if (challenge_size == 0) {
    throw InvalidArgument("AuditService: challenge_size must be >= 1");
  }
  const std::uint32_t slot_idx =
      free_.empty() ? static_cast<std::uint32_t>(slots_.size()) : free_.back();
  // Single hash probe for the duplicate check and the insert.
  const auto [it, inserted] = index_.try_emplace(file.file_id, slot_idx);
  if (!inserted) {
    throw InvalidArgument("AuditService: file id already registered");
  }
  if (free_.empty()) {
    slots_.emplace_back();
  } else {
    free_.pop_back();
  }
  Slot& slot = slots_[slot_idx];
  Registration& reg = slot.reg;
  reg.file_id = file.file_id;
  reg.label = label.empty()
                  ? scheme.name() + "/file-" + std::to_string(file.file_id)
                  : std::move(label);
  reg.scheme = &scheme;
  reg.verifier = &verifier;
  reg.file = file;
  reg.challenge_size = challenge_size;
  reg.history.clear();
  slot.counters.total.store(0, std::memory_order_relaxed);
  slot.counters.passed.store(0, std::memory_order_relaxed);
  slot.counters.tail_failures.store(0, std::memory_order_relaxed);
  slot.history_head = 0;
  slot.live = true;
  order_dirty_ = true;
  return file.file_id;
}

void AuditService::remove(std::uint64_t file_id) {
  const auto it = index_.find(file_id);
  if (it == index_.end()) {
    throw InvalidArgument("AuditService: unknown file id");
  }
  Slot& slot = slots_[it->second];
  // Registry mutation is quiescent by contract, so folding this
  // registration's contribution out of the aggregate needs no ordering —
  // the epoch bump still publishes the change to later snapshot readers.
  agg_passed_.fetch_sub(slot.counters.passed.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  agg_total_.fetch_sub(slot.counters.total.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  agg_epoch_.fetch_add(1, std::memory_order_release);
  slot.reg = Registration{};
  slot.counters.total.store(0, std::memory_order_relaxed);
  slot.counters.passed.store(0, std::memory_order_relaxed);
  slot.counters.tail_failures.store(0, std::memory_order_relaxed);
  slot.history_head = 0;
  slot.live = false;
  free_.push_back(it->second);
  index_.erase(it);
  order_dirty_ = true;
}

bool AuditService::has(std::uint64_t file_id) const {
  return index_.find(file_id) != index_.end();
}

const std::vector<std::uint64_t>& AuditService::ordered_ids() const {
  if (order_dirty_) {
    ordered_ids_.clear();
    ordered_ids_.reserve(index_.size());
    for (const auto& [id, slot_idx] : index_) ordered_ids_.push_back(id);
    std::sort(ordered_ids_.begin(), ordered_ids_.end());
    order_dirty_ = false;
  }
  return ordered_ids_;
}

std::vector<std::uint64_t> AuditService::file_ids() const {
  return ordered_ids();
}

AuditService::Slot& AuditService::find_slot(std::uint64_t file_id) {
  const auto it = index_.find(file_id);
  if (it == index_.end()) {
    throw InvalidArgument("AuditService: unknown file id");
  }
  return slots_[it->second];
}

const AuditService::Slot& AuditService::find_slot(
    std::uint64_t file_id) const {
  const auto it = index_.find(file_id);
  if (it == index_.end()) {
    throw InvalidArgument("AuditService: unknown file id");
  }
  return slots_[it->second];
}

const AuditService::Registration& AuditService::registration(
    std::uint64_t file_id) const {
  return find_slot(file_id).reg;
}

std::uint32_t AuditService::slot_of(std::uint64_t file_id) const {
  const auto it = index_.find(file_id);
  if (it == index_.end()) {
    throw InvalidArgument("AuditService: unknown file id");
  }
  return it->second;
}

const AuditReport& AuditService::append_entry(Slot& slot, Entry entry) {
  Registration& reg = slot.reg;
  const bool accepted = entry.report.accepted;
  std::size_t pos;
  if (options_.history_limit != 0 &&
      reg.history.size() >= options_.history_limit) {
    // Bounded ring: overwrite the oldest entry in place; history() rotates
    // back to chronological order on read.
    pos = slot.history_head;
    reg.history[pos] = std::move(entry);
    slot.history_head = (slot.history_head + 1) % options_.history_limit;
  } else {
    reg.history.push_back(std::move(entry));
    pos = reg.history.size() - 1;
  }
  // Publish counters in the order the snapshot readers reverse: total
  // (relaxed), passed (release), epoch (release). See the header.
  slot.counters.total.fetch_add(1, std::memory_order_relaxed);
  if (accepted) {
    slot.counters.passed.fetch_add(1, std::memory_order_release);
    slot.counters.tail_failures.store(0, std::memory_order_relaxed);
  } else {
    slot.counters.tail_failures.fetch_add(1, std::memory_order_relaxed);
  }
  agg_total_.fetch_add(1, std::memory_order_relaxed);
  if (accepted) agg_passed_.fetch_add(1, std::memory_order_release);
  agg_epoch_.fetch_add(1, std::memory_order_release);
  return reg.history[pos].report;
}

const AuditReport& AuditService::run_once(const SimClock& clock,
                                          std::uint64_t file_id) {
  return run_once(Now{[&clock] { return clock.now(); }}, file_id);
}

const AuditReport& AuditService::run_once(const Now& now,
                                          std::uint64_t file_id) {
  Slot& slot = find_slot(file_id);
  Entry entry;
  entry.report = slot.reg.scheme->audit_once(
      slot.reg.file, slot.reg.challenge_size, *slot.reg.verifier);
  entry.at = now();
  return append_entry(slot, std::move(entry));
}

AuditReport AuditService::audit_isolated(std::uint64_t file_id) {
  const Registration& reg = find_slot(file_id).reg;
  try {
    return reg.scheme->audit_once(reg.file, reg.challenge_size,
                                  *reg.verifier);
  } catch (const std::exception&) {
    // A scheme/device/channel error (sentinel or signing-key exhaustion, a
    // dead provider) is this registration's problem alone: report it as an
    // audit that could not run and let every other audit keep flowing.
    return AuditReport::aborted();
  }
}

void AuditService::record(std::uint64_t file_id, Nanos at,
                          AuditReport report) {
  Entry entry;
  entry.at = at;
  entry.report = std::move(report);
  (void)append_entry(find_slot(file_id), std::move(entry));
}

std::uint64_t AuditService::run_all(const SimClock& clock) {
  std::uint64_t passed = 0;
  for (const std::uint64_t id : ordered_ids()) {
    if (run_once(clock, id).accepted) ++passed;
  }
  return passed;
}

std::uint64_t AuditService::run_batch(const Now& now,
                                      const std::vector<std::uint64_t>& ids,
                                      const BatchReportHook& on_report) {
  std::uint64_t passed = 0;
  for (std::size_t begin = 0; begin < ids.size();) {
    const std::size_t end = group_end(ids, begin);
    passed += run_group(now, ids, begin, end, on_report);
    begin = end;
  }
  return passed;
}

std::size_t AuditService::group_end(const std::vector<std::uint64_t>& ids,
                                    std::size_t begin) const {
  // Maximal consecutive run sharing one (scheme, verifier) pair: one
  // device signature and one TPA signature check per group.
  if (begin >= ids.size()) {
    throw InvalidArgument("AuditService::group_end: begin out of range");
  }
  const Registration& lead = find_slot(ids[begin]).reg;
  std::size_t end = begin + 1;
  while (end < ids.size()) {
    const Registration& next = find_slot(ids[end]).reg;
    if (next.scheme != lead.scheme || next.verifier != lead.verifier) break;
    ++end;
  }
  return end;
}

std::uint64_t AuditService::run_group(const Now& now,
                                      const std::vector<std::uint64_t>& ids,
                                      std::size_t begin, std::size_t end,
                                      const BatchReportHook& on_report) {
  if (begin >= end || end > ids.size()) {
    throw InvalidArgument("AuditService::run_group: empty or out-of-range "
                          "group");
  }
  const Registration& lead = find_slot(ids[begin]).reg;
  AuditScheme& scheme = *lead.scheme;
  VerifierDevice& verifier = *lead.verifier;
  // One lookup per member; slot addresses are stable while audits run.
  std::vector<Slot*> members;
  members.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    Slot& slot = find_slot(ids[i]);
    if (slot.reg.scheme != &scheme || slot.reg.verifier != &verifier) {
      throw InvalidArgument("AuditService::run_group: group members must "
                            "share one (scheme, verifier) pair");
    }
    members.push_back(&slot);
  }
  // Span phases ride the caller's clock (no clock reads of our own): the
  // group's timeline is challenge build -> bit-exchange rounds -> verify
  // plus record. Zero-duration phases are fine under a virtual Now.
  obs::SpanRecorder* const spans = spans_;
  const Nanos t0 = spans != nullptr ? now() : Nanos{0};
  Nanos t1 = t0;
  Nanos t2 = t0;
  std::vector<AuditReport> reports;
  bool ran = true;
  try {
    std::vector<FileRecord> files;
    std::vector<AuditRequest> requests;
    files.reserve(end - begin);
    requests.reserve(end - begin);
    for (const Slot* slot : members) {
      files.push_back(slot->reg.file);
      requests.push_back(
          scheme.make_request(slot->reg.file, slot->reg.challenge_size));
    }
    t1 = spans != nullptr ? now() : Nanos{0};
    const BatchedTranscripts batch = verifier.run_audit_batch(requests);
    t2 = spans != nullptr ? now() : Nanos{0};
    reports = scheme.verify_batch(files, batch);
  } catch (const std::exception&) {
    // The audit_isolated rule, per group: a scheme/device/channel error
    // (key exhaustion, sentinel supply, a dead provider) aborts this
    // group's audits alone and the remaining groups still run.
    reports.assign(end - begin, AuditReport::aborted());
    ran = false;
  }
  // Record every member exactly once before any hook runs, so a throwing
  // hook can neither skip a member nor get one recorded twice.
  std::uint64_t passed = 0;
  for (std::size_t i = begin; i < end; ++i) {
    Entry entry;
    entry.report = reports[i - begin];
    entry.at = now();
    if (append_entry(*members[i - begin], std::move(entry)).accepted) {
      ++passed;
    }
  }
  if (spans != nullptr) {
    const Nanos t3 = now();
    obs::Span span;
    span.id = span_seq_.fetch_add(1, std::memory_order_relaxed);
    span.kind = "batch";
    span.ok = passed == end - begin;
    span.start = t0;
    if (ran) {
      span.set_phase(obs::Phase::kChallenge, t1 - t0);
      span.set_phase(obs::Phase::kExchange, t2 - t1);
      span.set_phase(obs::Phase::kVerify, t3 - t2);
    }
    span.total = t3 - t0;
    spans->record(span);
  }
  if (on_report) {
    for (std::size_t i = begin; i < end; ++i) {
      on_report(ids[i], reports[i - begin]);
    }
  }
  return passed;
}

void AuditService::schedule(EventQueue& queue, const SimClock& clock,
                            std::uint64_t file_id, Nanos start, Nanos interval,
                            unsigned count) {
  (void)find_slot(file_id);  // fail fast on unknown registrations
  for (unsigned i = 0; i < count; ++i) {
    queue.schedule_at(start + interval * static_cast<std::int64_t>(i),
                      [this, &clock, file_id] {
                        // The registration may have been remove()d after
                        // scheduling; a stale event must not abort the
                        // queue (and every other registration's audits).
                        if (!has(file_id)) return;
                        record(file_id, clock.now(), audit_isolated(file_id));
                      });
  }
}

void AuditService::schedule(EventQueue& queue, const SimClock& clock,
                            Nanos start, Nanos interval, unsigned count) {
  for (const std::uint64_t id : ordered_ids()) {
    schedule(queue, clock, id, start, interval, count);
  }
}

const std::vector<AuditService::Entry>& AuditService::history(
    std::uint64_t file_id) const {
  const Slot& slot = find_slot(file_id);
  // Canonicalise a bounded ring to chronological order on read. History
  // reads require quiescence (see the header contract), so the mutation is
  // invisible to concurrent audits; amortised O(1) per recorded entry.
  Slot& mut = const_cast<Slot&>(slot);
  if (mut.history_head != 0) {
    std::rotate(mut.reg.history.begin(),
                mut.reg.history.begin() +
                    static_cast<std::ptrdiff_t>(mut.history_head),
                mut.reg.history.end());
    mut.history_head = 0;
  }
  return slot.reg.history;
}

AuditService::Compliance AuditService::compliance_of(
    const Counters& counters) {
  Compliance c;
  // passed (acquire) before total (relaxed): any observed pass increment
  // synchronises with its release, making the matching total increment
  // visible — so passed <= total for every interleaving.
  c.passed = counters.passed.load(std::memory_order_acquire);
  c.total = counters.total.load(std::memory_order_relaxed);
  c.epoch = c.total;
  return c;
}

AuditService::Compliance AuditService::compliance(
    std::uint64_t file_id) const {
  return compliance_of(find_slot(file_id).counters);
}

AuditService::Compliance AuditService::compliance() const {
  Compliance c;
  // Epoch first (acquire): the record events it counts have fully
  // published their passed/total increments by the time we read them.
  c.epoch = agg_epoch_.load(std::memory_order_acquire);
  c.passed = agg_passed_.load(std::memory_order_acquire);
  c.total = agg_total_.load(std::memory_order_relaxed);
  return c;
}

std::uint64_t AuditService::consecutive_failures(
    std::uint64_t file_id) const {
  return find_slot(file_id).counters.tail_failures.load(
      std::memory_order_relaxed);
}

std::string AuditService::summary() const {
  std::ostringstream os;
  for (const std::uint64_t id : ordered_ids()) {
    const Slot& slot = find_slot(id);
    const Compliance c = compliance_of(slot.counters);
    os << slot.reg.label << ": audits=" << c.total << " passed=" << c.passed
       << " rate=" << c.rate() << " consecutive_failures="
       << slot.counters.tail_failures.load(std::memory_order_relaxed)
       << '\n';
  }
  return os.str();
}

}  // namespace geoproof::core
