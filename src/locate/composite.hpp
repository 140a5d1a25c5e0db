// Composite audit: GeoProof plus landmark triangulation of the verifier
// device itself (§V-C). The provider can spoof the device's GPS, so "we
// could consider the triangulation of V from multiple landmarks" — though
// the provider "may introduce delays to the communication paths". The
// fleet's trimmed Multilaterator solves the ranges, so a delayed path is
// trimmed instead of displacing the fix. Delay only lengthens ranges, so a
// landmark farther from the device than from the claim disputes the claim
// whatever the provider does; the check forgives one disputing landmark
// (one delayed or dead path) and no more. Its limit: a device at X passes
// for a claim C only if at most one landmark is more than the tolerance
// farther from X than from C, and a relocation with exactly one such
// landmark looks like an honest device with that path delayed.
#pragma once

#include <limits>
#include <map>

#include "core/deployment.hpp"
#include "locate/delay_model.hpp"

namespace geoproof::locate {

struct TriangulationCheck {
  bool consistent = false;
  /// Claim to triangulated fix; stays infinite with < 3 usable ranges.
  Kilometers discrepancy{std::numeric_limits<double>::infinity()};
  std::vector<std::string> trimmed;   // landmarks the solver trimmed
  std::vector<std::string> unusable;  // landmarks whose RTT gave no range
};

/// §V-C's cross-check (citing [41]): one `probe` RTT per landmark, ranged
/// by `model` and solved by a default Multilaterator. Consistent when the
/// fix converged within `tolerance` of `claimed` and at most one landmark
/// disputes the claim: unusable, trimmed, or ranged more than `tolerance`
/// off its distance to `claimed`. A range failing VantageRange::solvable()
/// drops its landmark; probe values never throw.
TriangulationCheck verify_position_by_triangulation(
    const net::GeoPoint& claimed,
    const std::vector<geoloc::Landmark>& landmarks,
    const geoloc::RttProbe& probe, const DelayModel& model,
    Kilometers tolerance);

struct CompositeReport {
  core::AuditReport geoproof;
  TriangulationCheck triangulation;
  /// Accepted only if both the protocol audit and the device-position
  /// cross-check pass.
  bool accepted = false;

  std::string summary() const;
};

class MultiAuditor {
 public:
  struct Config {
    std::vector<geoloc::Landmark> landmarks = geoloc::australian_landmarks();
    net::InternetModel internet{net::InternetModelParams{}};
    /// Accept the triangulated fix within this distance of the claim.
    Kilometers triangulation_tolerance{250.0};
    /// Jitter seed for landmark probes (0 = deterministic).
    std::uint64_t probe_seed = 0;
  };

  /// Calibrates the delay model once, out to the landmarks' widest pair
  /// (uncalibrated when the landmarks have no two distinct positions).
  explicit MultiAuditor(Config config);

  /// Delay the provider inserts on the path between one landmark auditor
  /// and the device (the §V-C attack). Cleared with Millis{0}.
  void set_path_delay(const std::string& landmark_name, Millis delay);

  /// Run the composite audit on a deployment: the normal GeoProof audit
  /// plus triangulation of the device's *actual* network position against
  /// its claimed (possibly spoofed) GPS position.
  CompositeReport audit(core::SimulatedDeployment& world,
                        const core::FileRecord& file, std::uint32_t k);

 private:
  Config config_;
  DelayModel delay_model_;
  std::map<std::string, Millis> path_delays_;
};

}  // namespace geoproof::locate
