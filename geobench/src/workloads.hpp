// The three workloads. Each has an untraced entry point that reports the
// end-to-end metric set and a traced one that replays requests through the
// layers' public calls and reports per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace geobench {

struct Config {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string bin_dir;  // holds geoproofd and geoproof-vantage
  std::string out_dir;  // daemon logs and span dumps
};

/// What one run produced.
struct Outcome {
  Tally tally;
  Metrics metrics;
  std::vector<std::string> notes;
};

void fleet_audit(const Config& cfg, Outcome& out);
void registry_sweep(const Config& cfg, Outcome& out);
void track_sweep(const Config& cfg, Outcome& out);

/// Traced runs measure for `seconds` and write their spans to out_dir.
void fleet_audit_traced(const Config& cfg, double seconds, Outcome& out);
void registry_sweep_traced(const Config& cfg, double seconds, Outcome& out);
void track_sweep_traced(const Config& cfg, double seconds, Outcome& out);

}  // namespace geobench
