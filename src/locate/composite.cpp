#include "locate/composite.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/errors.hpp"
#include "locate/multilaterate.hpp"

namespace geoproof::locate {

TriangulationCheck verify_position_by_triangulation(
    const net::GeoPoint& claimed,
    const std::vector<geoloc::Landmark>& landmarks,
    const geoloc::RttProbe& probe, const DelayModel& model,
    Kilometers tolerance) {
  TriangulationCheck check;
  std::vector<VantageRange> ranges;
  for (const geoloc::Landmark& lm : landmarks) {
    const Millis rtt = probe(lm);
    VantageRange range = model.range_for(lm, rtt, SampleStats::of({&rtt, 1}));
    // The auditor client's rule: an unusable range costs this landmark's
    // evidence, not the whole check.
    if (range.solvable()) {
      ranges.push_back(std::move(range));
    } else {
      check.unusable.push_back(lm.name);
    }
  }
  if (ranges.size() < 3) return check;

  // Delay only lengthens a range, so a landmark the device sits farther
  // from than the claim disputes the claim however the provider delays;
  // one disputing landmark is what one delayed or dead path looks like.
  const PositionEstimate fix = Multilaterator{}.estimate(ranges);
  std::size_t disputed = check.unusable.size();
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const bool trimmed = std::binary_search(fix.outliers.begin(),
                                            fix.outliers.end(), i);
    if (trimmed) check.trimmed.push_back(ranges[i].vantage.name);
    const double off_claim =
        net::haversine(ranges[i].vantage.pos, claimed).value -
        ranges[i].distance.value;
    if (trimmed || std::abs(off_claim) > tolerance.value) ++disputed;
  }
  check.discrepancy = net::haversine(fix.position, claimed);
  check.consistent =
      fix.converged && check.discrepancy <= tolerance && disputed <= 1;
  return check;
}

std::string CompositeReport::summary() const {
  std::ostringstream os;
  os << (accepted ? "ACCEPTED" : "REJECTED");
  os << " [geoproof: " << geoproof.summary() << "]";
  os << " [triangulation: "
     << (triangulation.consistent ? "consistent" : "INCONSISTENT")
     << " discrepancy=" << triangulation.discrepancy.value << "km";
  const auto list = [&os](const char* label,
                          const std::vector<std::string>& names) {
    os << label << "=[";
    for (std::size_t i = 0; i < names.size(); ++i) {
      os << (i > 0 ? "," : "") << names[i];
    }
    os << "]";
  };
  list(" trimmed", triangulation.trimmed);
  list(" unusable", triangulation.unusable);
  os << "]";
  return os.str();
}

MultiAuditor::MultiAuditor(Config config) : config_(std::move(config)) {
  Kilometers extent{0.0};
  for (const geoloc::Landmark& a : config_.landmarks) {
    for (const geoloc::Landmark& b : config_.landmarks) {
      extent = std::max(extent, net::haversine(a.pos, b.pos));
    }
  }
  // Without two distinct landmarks there is no ladder to calibrate over;
  // the uncalibrated model ranges by the physical bound instead.
  if (extent.value > 0.0) {
    delay_model_ = DelayModel::from_internet_model(config_.internet, extent);
  }
}

void MultiAuditor::set_path_delay(const std::string& landmark_name,
                                  Millis delay) {
  if (delay.count() < 0) {
    throw InvalidArgument("set_path_delay: negative delay");
  }
  path_delays_[landmark_name] = delay;
}

CompositeReport MultiAuditor::audit(core::SimulatedDeployment& world,
                                    const core::FileRecord& file,
                                    std::uint32_t k) {
  CompositeReport report;
  report.geoproof = world.run_audit(file, k);

  // The landmark auditors measure RTT to the device's *physical* network
  // location (where its packets actually originate), plus any delay the
  // provider inserted on that auditor's path (§V-C); the device's claim is
  // whatever its (possibly spoofed) GPS reports.
  const geoloc::RttProbe honest = geoloc::honest_probe(
      config_.internet, world.verifier().gps().true_position(),
      config_.probe_seed);
  const auto probe = [&](const geoloc::Landmark& lm) {
    const auto it = path_delays_.find(lm.name);
    return honest(lm) + (it == path_delays_.end() ? Millis{0} : it->second);
  };
  report.triangulation = verify_position_by_triangulation(
      world.verifier().gps().report(), config_.landmarks, probe, delay_model_,
      config_.triangulation_tolerance);

  report.accepted =
      report.geoproof.accepted && report.triangulation.consistent;
  return report;
}

}  // namespace geoproof::locate
