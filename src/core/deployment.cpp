#include "core/deployment.hpp"

#include "common/errors.hpp"

namespace geoproof::core {

SimulatedDeployment::SimulatedDeployment(DeploymentConfig config)
    : config_(std::move(config)),
      queue_(clock_),
      provider_(config_.provider, clock_),
      timer_(clock_) {
  if (config_.calibrate_policy_to_disk) {
    config_.policy = LatencyPolicy::for_disk(config_.provider.disk);
  }
  // Verifier device on the provider's LAN.
  lan_channel_ = std::make_unique<net::SimRequestChannel>(
      clock_,
      net::lan_latency(net::LanModel(config_.lan), config_.verifier_distance,
                       config_.lan_jitter_seed),
      provider_.handler());
  VerifierDevice::Config vcfg = config_.verifier;
  // The device sits at the provider site unless a test says otherwise.
  if (vcfg.position == net::GeoPoint{}) {
    vcfg.position = config_.provider.location;
  }
  verifier_ = std::make_unique<VerifierDevice>(vcfg, *lan_channel_, timer_);

  AuditorConfig acfg;
  acfg.master_key = config_.master_key;
  acfg.verifier_pk = verifier_->public_key();
  acfg.expected_position = config_.provider.location;
  acfg.position_tolerance = config_.position_tolerance;
  acfg.policy = config_.policy;
  scheme_ = std::make_unique<MacAuditScheme>(acfg, config_.por);
}

FileRecord SimulatedDeployment::upload(BytesView file,
                                                std::uint64_t file_id) {
  const por::PorEncoder encoder(config_.por);
  por::EncodedFile encoded = encoder.encode(file, file_id, config_.master_key);
  provider_.store(encoded);
  const FileRecord record{file_id, encoded.n_segments};
  encoded_files_[file_id] = std::move(encoded);
  return record;
}

AuditReport SimulatedDeployment::run_audit(const FileRecord& file,
                                           std::uint32_t k) {
  const AuditRequest request = scheme_->make_request(file, k);
  const SignedTranscript transcript = verifier_->run_audit(request);
  return scheme_->verify(file, transcript);
}

CloudProvider& SimulatedDeployment::deploy_remote_relay(
    std::uint64_t file_id, Kilometers distance,
    const storage::DiskSpec& disk) {
  const auto it = encoded_files_.find(file_id);
  if (it == encoded_files_.end()) {
    throw InvalidArgument("deploy_remote_relay: unknown file");
  }
  CloudProvider::Config rcfg;
  rcfg.name = config_.provider.name + "-remote";
  rcfg.disk = disk;
  rcfg.sample_disk_latency = config_.provider.sample_disk_latency;
  rcfg.seed = config_.provider.seed ^ 0xdeadbeef;
  auto remote = std::make_unique<CloudProvider>(rcfg, clock_);
  remote->store(it->second);

  auto internet_channel = std::make_shared<net::SimRequestChannel>(
      clock_,
      net::internet_latency(net::InternetModel(config_.internet), distance,
                            config_.internet_jitter_seed),
      remote->handler());
  provider_.set_relay(std::move(internet_channel));

  remotes_.push_back(std::move(remote));
  return *remotes_.back();
}

LatencyPolicy SimulatedDeployment::calibrate_policy(
    const FileRecord& file, unsigned probe_rounds, double margin) {
  if (probe_rounds == 0) {
    throw InvalidArgument("calibrate_policy: probe_rounds must be >= 1");
  }
  if (margin < 1.0) {
    throw InvalidArgument("calibrate_policy: margin must be >= 1");
  }
  // Probe fetches straight through the LAN channel; no signing, no keys
  // consumed - this is the contract-time measurement, not an audit.
  Rng rng(0xca11b);
  SimStopwatch watch(clock_);
  Millis max_rtt{0};
  for (unsigned i = 0; i < probe_rounds; ++i) {
    const SegmentRequest req{
        file.file_id, rng.next_below(file.n_segments)};
    const Bytes wire = req.serialize();
    watch.start();
    (void)lan_channel_->request(wire);
    max_rtt = std::max(max_rtt, watch.elapsed_ms());
  }
  LatencyPolicy policy;
  policy.max_network_rtt = Millis{0};
  policy.max_lookup = Millis{max_rtt.count() * margin};
  policy.slack = Millis{0};
  scheme_->set_policy(policy);
  return policy;
}

CloudProvider& SimulatedDeployment::deploy_partial_offload(
    std::uint64_t file_id, double keep_fraction, Kilometers distance,
    const storage::DiskSpec& disk, std::uint64_t rng_seed) {
  const auto it = encoded_files_.find(file_id);
  if (it == encoded_files_.end()) {
    throw InvalidArgument("deploy_partial_offload: unknown file");
  }
  CloudProvider::Config rcfg;
  rcfg.name = config_.provider.name + "-offload";
  rcfg.disk = disk;
  rcfg.sample_disk_latency = config_.provider.sample_disk_latency;
  rcfg.seed = config_.provider.seed ^ 0x0ff10ad;
  auto remote = std::make_unique<CloudProvider>(rcfg, clock_);
  remote->store(it->second);

  auto internet_channel = std::make_shared<net::SimRequestChannel>(
      clock_,
      net::internet_latency(net::InternetModel(config_.internet), distance,
                            config_.internet_jitter_seed),
      remote->handler());
  Rng rng(rng_seed);
  provider_.offload_segments(file_id, keep_fraction,
                             std::move(internet_channel), rng);

  remotes_.push_back(std::move(remote));
  return *remotes_.back();
}

}  // namespace geoproof::core
