// Self-tests of the benchmark's own arithmetic: percentiles and the tail
// rule, failure counting, and the ladder's self time and gap. Run with
// `geobench --selftest`; run.py runs them after every build.
#include <cmath>
#include <cstdio>
#include <string>

#include "metrics.hpp"

namespace geobench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_percentiles() {
  expect(near(percentile({}, 50.0), 0.0), "empty percentile is 0");
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median interpolates");
  expect(near(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 75.0), 4.0), "p75");
  expect(near(percentile({10.0, 20.0}, 90.0), 19.0), "p90 interpolates");
}

void test_tail_rule() {
  // 45 samples: p75 leaves 11 beyond, p90 leaves 5.
  expect(samples_beyond(45, 75.0) == 11, "45 samples beyond p75");
  expect(samples_beyond(45, 90.0) == 5, "45 samples beyond p90");
  expect(tail_percentile(37) == 66.0, "37 samples -> p66");
  expect(tail_percentile(45) == 75.0, "45 samples -> p75");
  expect(tail_percentile(100) == 90.0, "100 samples -> p90");
  expect(tail_percentile(200) == 95.0, "200 samples -> p95");
  expect(tail_percentile(1001) == 99.0, "1001 samples -> p99");
  expect(tail_percentile(10001) == 99.9, "10001 samples -> p99.9");
  expect(tail_percentile(15) == 0.0, "too few samples for a tail");
  for (std::size_t n = 20; n < 3000; n += 7) {
    const double p = tail_percentile(n);
    expect(samples_beyond(n, p) >= 10,
           "chosen tail keeps ten beyond at n=" + std::to_string(n));
  }
}

void test_tally() {
  Tally t;
  expect(near(t.failed_ratio(), 0.0), "empty tally ratio is 0");
  t.count();
  t.count();
  t.count("lost file passed");
  t.check(true, "scrape");
  expect(t.attempted == 4 && t.failed == 1, "counts attempted and failed");
  expect(near(t.failed_ratio(), 0.25), "failed ratio");
  t.check(false, "teardown");
  expect(t.failed == 2 && t.reasons.size() == 2, "failed check recorded");
  expect(t.reasons[1] == "check failed: teardown", "check reason text");
}

void test_ladder() {
  // root [0,10]: A [0,4] with child B [1,2], C [5,9]; 1 ms unattributed.
  Trace tr;
  const int root = tr.add("req", 0.0, 10.0, -1);
  const int a = tr.add("A", 0.0, 4.0, root);
  tr.add("B", 1.0, 2.0, a);
  tr.add("C", 5.0, 9.0, root);
  const Ladder l = ladder_of(tr.spans(), root);
  expect(near(l.request_ms, 10.0), "request latency");
  expect(near(l.self_ms.at("A"), 3.0), "self time excludes the child");
  expect(near(l.self_ms.at("B"), 1.0), "leaf self time");
  expect(near(l.self_ms.at("C"), 4.0), "sibling self time");
  expect(near(l.sum_self_ms(), 8.0), "sum of self times");
  expect(near(gap_ratio({l}), 0.2), "gap ratio");

  // Parallel same-layer spans are unioned, not summed.
  Trace par;
  const int r2 = par.add("req", 0.0, 10.0, -1);
  par.add("measure", 0.0, 8.0, r2);
  par.add("measure", 1.0, 6.0, r2);
  par.add("decode", 8.0, 9.0, r2);
  const Ladder p = ladder_of(par.spans(), r2);
  expect(near(p.self_ms.at("measure"), 8.0), "parallel spans unioned");
  expect(near(gap_ratio({p}), 0.1), "parallel gap ratio");

  // Requests are numbered per root; append re-indexes parents.
  Trace joined;
  joined.append(tr);
  joined.append(par);
  expect(joined.spans()[5].parent == 4, "append re-indexes parents");
  expect(joined.spans()[5].request == 1, "append re-numbers requests");
  expect(joined.ladders("req").size() == 2, "one ladder per root");
  expect(near(gap_ratio(joined.ladders("req")), 0.15), "aggregate gap");
}

}  // namespace

int selftest() {
  test_percentiles();
  test_tail_rule();
  test_tally();
  test_ladder();
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace geobench
