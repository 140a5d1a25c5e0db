#include "core/dynamic_geoproof.hpp"

#include "core/transcript.hpp"

namespace geoproof::core {

DynamicProviderService::DynamicProviderService(
    por::DynamicPorProvider& provider, SimClock& clock,
    storage::DiskModel disk, bool sample_latency, std::uint64_t seed)
    : provider_(&provider),
      clock_(&clock),
      disk_(std::move(disk)),
      sample_latency_(sample_latency),
      rng_(seed) {}

net::RequestHandler DynamicProviderService::handler() {
  return [this](BytesView request) {
    const SegmentRequest req = SegmentRequest::deserialize(request);
    const Millis latency = sample_latency_
                               ? disk_.sample_lookup(512, rng_)
                               : disk_.lookup_time(512);
    clock_->advance(latency);
    return provider_->read(req.index).serialize();
  };
}

}  // namespace geoproof::core
