// One simulated GeoProof world, wired exactly like Fig. 4: a data owner, a
// cloud provider with disks at some location, the tamper-proof verifier on
// the provider's LAN, and the TPA. Tests, benches and examples assemble
// scenarios (honest, corrupted, relayed, moved, cached) through this single
// front door so the wiring is uniform.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/clock.hpp"
#include "core/provider.hpp"
#include "core/scheme.hpp"
#include "core/verifier.hpp"
#include "net/channel.hpp"
#include "por/encoder.hpp"

namespace geoproof::core {

struct DeploymentConfig {
  por::PorParams por{};
  CloudProvider::Config provider{};
  /// Verifier placement on the provider LAN (§V-E suggests "very close").
  Kilometers verifier_distance{0.1};
  net::LanModelParams lan{};
  /// 0 disables LAN jitter (deterministic runs).
  std::uint64_t lan_jitter_seed = 0x1a4;
  VerifierDevice::Config verifier{};
  /// When true (the default), the policy's look-up budget is calibrated to
  /// the provider's contracted disk via LatencyPolicy::for_disk — the
  /// "measurements made at contract time" of §V-C(b). The paper's flat
  /// 16 ms budget assumes average look-ups; real (sampled) look-ups reach
  /// seek*1.7 + a full revolution, so an uncalibrated max-RTT check would
  /// reject honest providers.
  bool calibrate_policy_to_disk = true;
  LatencyPolicy policy{};
  Kilometers position_tolerance{5.0};
  net::InternetModelParams internet{};  // used by relay scenarios
  std::uint64_t internet_jitter_seed = 0x1e7;
  Bytes master_key = bytes_of("deployment-master-key");
};

class SimulatedDeployment {
 public:
  explicit SimulatedDeployment(DeploymentConfig config = {});

  SimClock& clock() { return clock_; }
  EventQueue& queue() { return queue_; }
  CloudProvider& provider() { return provider_; }
  VerifierDevice& verifier() { return *verifier_; }
  /// The TPA: the paper's MAC flavour, registered with AuditService and
  /// the sharded engine through its AuditScheme base.
  MacAuditScheme& scheme() { return *scheme_; }
  const DeploymentConfig& config() const { return config_; }

  /// Owner-side setup: encode F, upload F~ to the provider, register the
  /// file with the TPA. The encoded copy is retained so relay scenarios can
  /// mirror it to a remote data centre.
  FileRecord upload(BytesView file, std::uint64_t file_id);

  /// One end-to-end audit (TPA request -> verifier protocol -> TPA verdict).
  AuditReport run_audit(const FileRecord& file, std::uint32_t k);

  /// §V-C(b): empirical contract-time calibration. Runs `probe_rounds`
  /// un-judged probe fetches against the live installation, sets the
  /// budget to the observed max RTT scaled by `margin`, installs it on
  /// the scheme and returns it. Call while the provider is known-honest
  /// (at contract signing); afterwards every audit is judged against the
  /// measured reality of this specific data centre.
  LatencyPolicy calibrate_policy(const FileRecord& file,
                                 unsigned probe_rounds = 50,
                                 double margin = 1.2);

  /// Fig. 6 relay attack: stand up a remote data centre `distance` away
  /// using `disk`, mirror the file there, and switch the local provider to
  /// pure relaying. Returns the remote for further tampering.
  CloudProvider& deploy_remote_relay(std::uint64_t file_id,
                                     Kilometers distance,
                                     const storage::DiskSpec& disk);

  /// Partial-storage attack: keep `keep_fraction` of the file's segments
  /// locally, offload the rest to a remote DC `distance` away. Returns the
  /// remote provider.
  CloudProvider& deploy_partial_offload(std::uint64_t file_id,
                                        double keep_fraction,
                                        Kilometers distance,
                                        const storage::DiskSpec& disk,
                                        std::uint64_t rng_seed = 0x0ff1);

  /// Undo relaying (provider serves locally again).
  void restore_local_service() { provider_.clear_relay(); }

 private:
  DeploymentConfig config_;
  SimClock clock_;
  EventQueue queue_;
  CloudProvider provider_;
  std::unique_ptr<net::SimRequestChannel> lan_channel_;
  net::SimAuditTimer timer_;
  std::unique_ptr<VerifierDevice> verifier_;
  std::unique_ptr<MacAuditScheme> scheme_;
  std::map<std::uint64_t, por::EncodedFile> encoded_files_;
  std::vector<std::unique_ptr<CloudProvider>> remotes_;
};

}  // namespace geoproof::core
