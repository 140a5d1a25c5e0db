// The benchmark's own arithmetic: order statistics, the tail-percentile
// rule, failure tallies, in-memory spans and the per-request layer ladder.
// Everything here is pure and covered by `geobench --selftest`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace geobench {

/// Milliseconds on the benchmark's monotonic clock.
double now_ms();

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 on empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Samples that lie strictly beyond percentile `p` of `n` samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile from {99.9, 99, 95, 90, 75, 66, 50} that leaves
/// at least `min_beyond` of `n` samples beyond it; 0 when even the median
/// leaves fewer. Each workload fixes the one this gives at its usual count.
double tail_percentile(std::size_t n, std::size_t min_beyond = 10);

/// Counts attempted and failed items, keeping the first few reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  /// Count one item; a non-empty `failure` marks it failed.
  void count(const std::string& failure = {});
  /// A run-level correctness gate, counted as one more attempted item.
  void check(bool ok, const std::string& what);
  double failed_ratio() const;
};

/// One timed interval. Spans of one request share `request`; `parent`
/// indexes the same trace (-1 for the request's root).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t request = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// One request's layer ladder: its latency and each layer's self time —
/// the layer's span time not covered by child spans, unioned across the
/// layer's spans so parallel siblings are not double-counted.
struct Ladder {
  double request_ms = 0.0;
  std::map<std::string, double> self_ms;
  double sum_self_ms() const;
};

/// The ladder of the request rooted at span index `root`.
Ladder ladder_of(const std::vector<Span>& spans, int root);

/// Unattributed time over many requests: |sum latency - sum self time| /
/// sum latency (0 with no requests).
double gap_ratio(const std::vector<Ladder>& ladders);

/// Append-only in-memory span store for one thread, written out when the
/// run ends. A span opened with parent -1 starts a new request.
class Trace {
 public:
  int open(std::string name, int parent);
  void close(int span);
  int add(std::string name, double start_ms, double end_ms, int parent);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(int span) const {
    return spans_[static_cast<std::size_t>(span)];
  }
  /// Concatenate another thread's trace (parents and requests re-indexed).
  void append(const Trace& other);
  /// Ladders of every root span named `root_name`.
  std::vector<Ladder> ladders(const std::string& root_name) const;
  /// One JSON object per line; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t next_request_ = 0;
};

/// A named value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered metrics; set() overwrites an existing name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, Metric>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

/// Raw measurements of one untraced run.
struct EndToEnd {
  std::vector<double> setup_s;       // one per repeated set-up
  double measured_s = 0.0;           // wall time of the measured phase
  std::uint64_t ops = 0;             // ops attempted in the measured phase
  std::vector<double> latency_ms;    // one per request
  double tail_pct = 0.0;             // fixed per workload
  std::vector<double> fix_error_km;  // one per op
  double cpu_ms = 0.0;               // CPU of the measured phase
  double rss_mb = 0.0;
};

/// The end-to-end metric set every workload reports, plus the note lines
/// naming the tail percentile and the failed ratio.
void set_end_to_end(const EndToEnd& e, const Tally& tally, Metrics& m,
                    std::vector<std::string>& notes);

}  // namespace geobench
