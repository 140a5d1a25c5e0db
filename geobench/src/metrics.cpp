#include "metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace geobench {

namespace {

using Interval = std::pair<double, double>;

/// Sort and merge overlapping intervals in place.
void merge_intervals(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  v = std::move(out);
}

double total_length(const std::vector<Interval>& merged) {
  double sum = 0.0;
  for (const Interval& iv : merged) sum += iv.second - iv.first;
  return sum;
}

/// [lo, hi] minus the (merged) `holes`.
std::vector<Interval> subtract(double lo, double hi,
                               const std::vector<Interval>& holes) {
  std::vector<Interval> out;
  double cursor = lo;
  for (const Interval& h : holes) {
    if (h.second <= cursor) continue;
    if (h.first >= hi) break;
    if (h.first > cursor) out.emplace_back(cursor, h.first);
    cursor = std::max(cursor, h.second);
  }
  if (cursor < hi) out.emplace_back(cursor, hi);
  return out;
}

}  // namespace

double now_ms() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

double tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 66.0, 50.0}) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

void Tally::count(const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  if (reasons.size() < 8) reasons.push_back(failure);
}

void Tally::check(bool ok, const std::string& what) {
  count(ok ? std::string{} : "check failed: " + what);
}

double Tally::failed_ratio() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

int Trace::open(std::string name, int parent) {
  const double t = now_ms();
  return add(std::move(name), t, t, parent);
}

void Trace::close(int span) {
  spans_[static_cast<std::size_t>(span)].end_ms = now_ms();
}

int Trace::add(std::string name, double start_ms, double end_ms, int parent) {
  const std::uint64_t request =
      parent < 0 ? next_request_++ : at(parent).request;
  spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::append(const Trace& other) {
  const int offset = static_cast<int>(spans_.size());
  const std::uint64_t request_offset = next_request_;
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    s.request += request_offset;
    spans_.push_back(std::move(s));
  }
  next_request_ += other.next_request_;
}

std::vector<Ladder> Trace::ladders(const std::string& root_name) const {
  std::vector<Ladder> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0 && spans_[i].name == root_name) {
      out.push_back(ladder_of(spans_, static_cast<int>(i)));
    }
  }
  return out;
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

double Ladder::sum_self_ms() const {
  double sum = 0.0;
  for (const auto& [name, ms] : self_ms) sum += ms;
  return sum;
}

Ladder ladder_of(const std::vector<Span>& spans, int root) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  Ladder ladder;
  ladder.request_ms = spans[static_cast<std::size_t>(root)].duration_ms();

  // Each span contributes its own interval minus its children's; a
  // layer's contributions are unioned.
  std::map<std::string, std::vector<Interval>> layer_self;
  std::vector<int> stack = children[static_cast<std::size_t>(root)];
  while (!stack.empty()) {
    const int idx = stack.back();
    stack.pop_back();
    const Span& s = spans[static_cast<std::size_t>(idx)];
    std::vector<Interval> holes;
    for (const int c : children[static_cast<std::size_t>(idx)]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      holes.emplace_back(child.start_ms, child.end_ms);
      stack.push_back(c);
    }
    merge_intervals(holes);
    std::vector<Interval>& own = layer_self[s.name];
    for (const Interval& iv : subtract(s.start_ms, s.end_ms, holes)) {
      own.push_back(iv);
    }
  }
  for (auto& [name, intervals] : layer_self) {
    merge_intervals(intervals);
    ladder.self_ms[name] = total_length(intervals);
  }
  return ladder;
}

double gap_ratio(const std::vector<Ladder>& ladders) {
  double latency = 0.0;
  double self = 0.0;
  for (const Ladder& l : ladders) {
    latency += l.request_ms;
    self += l.sum_self_ms();
  }
  return latency <= 0.0 ? 0.0 : std::abs(latency - self) / latency;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [n, m] : items_) {
    if (n == name) {
      m = Metric{value, unit};
      return;
    }
  }
  items_.emplace_back(name, Metric{value, unit});
}

void set_end_to_end(const EndToEnd& e, const Tally& tally, Metrics& m,
                    std::vector<std::string>& notes) {
  m.set("setup_s", median(e.setup_s), "s");
  m.set("ops_per_s",
        e.measured_s > 0.0 ? static_cast<double>(e.ops) / e.measured_s : 0.0,
        "1/s");
  m.set("latency_p50_ms", median(e.latency_ms), "ms");
  m.set("latency_tail_ms", percentile(e.latency_ms, e.tail_pct), "ms");
  m.set("fix_error_km_p50", median(e.fix_error_km), "km");
  m.set("cpu_ms_per_op",
        e.ops == 0 ? 0.0 : e.cpu_ms / static_cast<double>(e.ops), "ms");
  m.set("rss_peak_mb", e.rss_mb, "MB");

  std::string setups = "setup_s is the median of";
  for (const double s : e.setup_s) {
    char one[32];
    std::snprintf(one, sizeof one, " %.3f", s);
    setups += one;
  }
  notes.push_back(setups);
  char line[200];
  std::snprintf(line, sizeof line,
                "latency_tail_ms is p%g of %zu requests (%zu beyond; at this "
                "count the ten-beyond rule gives p%g)",
                e.tail_pct, e.latency_ms.size(),
                samples_beyond(e.latency_ms.size(), e.tail_pct),
                tail_percentile(e.latency_ms.size()));
  notes.emplace_back(line);
  std::snprintf(line, sizeof line, "failed_ratio %.6g ratio (%llu of %llu)",
                tally.failed_ratio(),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
  notes.emplace_back(line);
}

}  // namespace geobench
