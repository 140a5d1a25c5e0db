// geobench: the GeoProof benchmark binary (normally started through run.py,
// which builds it). One run measures one workload and prints human-
// readable "# " lines followed by one JSON result line:
//
//   geobench --workload NAME --seed N --seconds S --trace 0|1
//            --bin-dir DIR --out-dir DIR [--git-sha SHA]
//   geobench --selftest
//
// Exit status: 0 when every op and correctness gate passed, 1 when any
// failed or the run aborted (the result line is still printed, with
// "correct": false), 2 on a usage or build error.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "common/log.hpp"
#include "workloads.hpp"

#ifndef GEOBENCH_BUILD_TYPE
#define GEOBENCH_BUILD_TYPE ""
#endif
#ifndef GEOBENCH_CXX_FLAGS
#define GEOBENCH_CXX_FLAGS ""
#endif
#ifndef GEOBENCH_COMPILER
#define GEOBENCH_COMPILER ""
#endif

namespace geobench {
int selftest();
}  // namespace geobench

namespace {

using namespace geobench;

struct Workload {
  void (*run)(const Config&, Outcome&);
  void (*traced)(const Config&, double, Outcome&);
};

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> w = {
      {"fleet_audit", {fleet_audit, fleet_audit_traced}},
      {"registry_sweep", {registry_sweep, registry_sweep_traced}},
      {"track_sweep", {track_sweep, track_sweep_traced}},
  };
  return w;
}

/// Layers a workload does not exercise still get a row in a traced run:
/// each other workload's traced replay runs this long first, and the
/// primary workload's replay runs last so its rows (and its ladder) win.
constexpr double kSecondarySeconds = 1.0;

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "geobench: %s\nusage: geobench --workload NAME --seed N "
               "--seconds S --trace 0|1 --bin-dir DIR --out-dir DIR "
               "[--git-sha SHA] | --selftest\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") return selftest();
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage("bad argument");
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "bin-dir", "out-dir"}) {
    if (!args.count(required)) return usage("missing argument");
  }
  const auto w = workloads().find(args["workload"]);
  if (w == workloads().end()) return usage("unknown workload");

  // Build stamp: numbers from an unoptimised build are refused outright.
  const std::string build_type = GEOBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr,
                 "geobench: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release or RelWithDebInfo\n",
                 build_type.c_str());
    return 2;
  }

  Config cfg;
  try {
    cfg.seed = std::stoull(args["seed"]);
    cfg.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return usage("seed and seconds must be numbers");
  }
  if (!(cfg.seconds > 0.0)) return usage("seconds must be positive");
  cfg.bin_dir = args["bin-dir"];
  cfg.out_dir = args["out-dir"];
  const bool trace = args["trace"] == "1";
  geoproof::log::set_level(geoproof::log::Level::kWarn);

  std::printf("# stamp build_type=%s cxx_flags=\"%s\" compiler=\"%s\" "
              "git_sha=%s nproc=%u\n",
              build_type.c_str(), GEOBENCH_CXX_FLAGS, GEOBENCH_COMPILER,
              args.count("git-sha") ? args["git-sha"].c_str() : "unknown",
              std::thread::hardware_concurrency());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              w->first.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, trace ? 1 : 0);
  std::fflush(stdout);

  Outcome out;
  try {
    if (trace) {
      for (const auto& [name, other] : workloads()) {
        if (name != w->first) other.traced(cfg, kSecondarySeconds, out);
      }
      w->second.traced(cfg, cfg.seconds, out);
    } else {
      w->second.run(cfg, out);
    }
  } catch (const std::exception& err) {
    // Still a result: an aborted run is an incorrect one.
    std::fprintf(stderr, "geobench: run aborted: %s\n", err.what());
    out.tally.check(false, std::string("run aborted: ") + err.what());
  }

  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& reason : out.tally.reasons) {
    std::printf("# FAILED %s\n", reason.c_str());
  }
  bool finite = true;
  std::string metrics;
  for (const auto& [name, m] : out.metrics.items()) {
    std::printf("# %-26s %14.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) finite = false;
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " +
               json_number(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  const bool correct = out.tally.failed == 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.tally.attempted),
              static_cast<unsigned long long>(out.tally.failed),
              metrics.c_str());
  return correct ? 0 : 1;
}
