// GeoProof composed with dynamic POR (§IV: "GeoProof could be modified to
// encompass other POS schemes that support verifying dynamic data such as
// DPOR by Wang et al.").
//
// The provider serves (segment || Merkle proof) for each timed challenge;
// the TPA tracks the Merkle root across verified updates, so an audit now
// proves three things at once: the data is intact (tag), *current*
// (membership under the latest root — a provider serving pre-update state
// fails), and nearby (timing). The verifier device is reused unchanged.
//
// The TPA side is core::DynamicAuditScheme (scheme.hpp); this header holds
// the provider-side wire service.
#pragma once

#include "common/clock.hpp"
#include "core/scheme.hpp"
#include "net/channel.hpp"
#include "storage/disk_model.hpp"

namespace geoproof::core {

/// Provider-side service: wraps DynamicPorProvider behind the wire handler,
/// charging disk latency for the segment read (tree nodes are assumed
/// memory-resident — they are a tiny fraction of the data and any real
/// provider caches them).
class DynamicProviderService {
 public:
  DynamicProviderService(por::DynamicPorProvider& provider, SimClock& clock,
                         storage::DiskModel disk, bool sample_latency = true,
                         std::uint64_t seed = 0xd1);

  net::RequestHandler handler();

 private:
  por::DynamicPorProvider* provider_;
  SimClock* clock_;
  storage::DiskModel disk_;
  bool sample_latency_;
  Rng rng_;
};

}  // namespace geoproof::core
