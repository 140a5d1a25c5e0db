// Composite audit: GeoProof plus landmark triangulation of the verifier
// device itself.
//
// §V-C: the GPS signal at the device can be spoofed by the provider, so
// "for extra assurance we may want to verify the position of V ... we could
// consider the triangulation of V from multiple landmarks", with the caveat
// that the provider controls the network around the device and "may
// introduce delays to the communication paths between these multiple
// auditors". This module implements exactly that composition and the
// delay-insertion attack surface: added delay inflates distance estimates,
// so it can make an honest device look suspicious (availability attack) but
// can never make a relocated device look like it is at the contract site.
#pragma once

#include <map>

#include "core/deployment.hpp"
#include "core/gps.hpp"
#include "core/scheme.hpp"
#include "geoloc/schemes.hpp"

namespace geoproof::core {

struct CompositeReport {
  AuditReport geoproof;
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

  explicit MultiAuditor(Config config) : config_(std::move(config)) {}

  /// Delay the provider inserts on the path between one landmark auditor
  /// and the device (the §V-C attack). Cleared with Millis{0}.
  void set_path_delay(const std::string& landmark_name, Millis delay);

  /// Run the composite audit on a deployment: the normal GeoProof audit
  /// plus triangulation of the device's *actual* network position against
  /// its claimed (possibly spoofed) GPS position.
  CompositeReport audit(SimulatedDeployment& world,
                        const FileRecord& file, std::uint32_t k);

 private:
  Config config_;
  std::map<std::string, Millis> path_delays_;
};

}  // namespace geoproof::core
