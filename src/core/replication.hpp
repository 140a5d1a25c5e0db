// Replica placement auditing: one file stored at several sites, each
// carrying its own verifier device, audited jointly.
//
// The paper's related-work discussion (Benson et al. [6]) asks for
// "assurance that a cloud storage provider replicates the data in diverse
// geolocations"; GeoProof gives the per-site location proof, and this
// module supplies the fleet view: run an audit at every site, then check
// the placement policy — every replica accepted, enough replicas, and
// pairwise geographic diversity (no two replicas closer than a minimum
// separation, e.g. different failure domains).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/deployment.hpp"

namespace geoproof::core {

struct ReplicaPolicy {
  unsigned min_replicas = 2;
  /// Replicas must be at least this far apart (diversity / disaster
  /// isolation).
  Kilometers min_separation{100.0};
};

struct SiteReport {
  std::string name;
  net::GeoPoint location;
  AuditReport report;
};

struct ReplicationReport {
  std::vector<SiteReport> sites;
  bool all_accepted = false;
  bool diverse = false;       // pairwise separation satisfied
  bool policy_met = false;    // replicas + acceptance + diversity

  std::string summary() const;
};

/// Owns one simulated deployment per site, all storing the same file.
class ReplicatedStore {
 public:
  /// `sites` are (name, location, disk) triples; every site gets the same
  /// file under the same master key.
  struct SiteSpec {
    std::string name;
    net::GeoPoint location;
    storage::DiskSpec disk = storage::wd2500jd();
  };

  ReplicatedStore(std::vector<SiteSpec> sites, const por::PorParams& por,
                  Bytes master_key);

  std::size_t site_count() const { return sites_.size(); }
  SimulatedDeployment& site(std::size_t i) { return *sites_.at(i).world; }
  const std::string& site_name(std::size_t i) const {
    return sites_.at(i).spec.name;
  }

  /// Upload the file to every site.
  void upload(BytesView file, std::uint64_t file_id);

  /// Audit every replica and evaluate the placement policy.
  ReplicationReport audit_all(std::uint32_t k, const ReplicaPolicy& policy);

 private:
  struct Site {
    SiteSpec spec;
    std::unique_ptr<SimulatedDeployment> world;
    FileRecord record{};
    bool has_file = false;
  };

  std::vector<Site> sites_;
};

}  // namespace geoproof::core
