// The verifier device's GPS receiver, including the spoofing surface the
// paper discusses (§V-C: "GPS satellite simulators can spoof the GPS
// signal"). The landmark-triangulation cross-check it proposes as the
// countermeasure is locate::verify_position_by_triangulation.
#pragma once

#include <optional>

#include "net/geo.hpp"

namespace geoproof::core {

class GpsDevice {
 public:
  explicit GpsDevice(net::GeoPoint true_position)
      : true_position_(true_position) {}

  /// What the receiver reports: the spoofed position if an attacker is
  /// overpowering the satellite signal, else the truth.
  net::GeoPoint report() const {
    return spoofed_ ? *spoofed_ : true_position_;
  }

  net::GeoPoint true_position() const { return true_position_; }
  bool is_spoofed() const { return spoofed_.has_value(); }

  void spoof(net::GeoPoint fake) { spoofed_ = fake; }
  void clear_spoof() { spoofed_.reset(); }

 private:
  net::GeoPoint true_position_;
  std::optional<net::GeoPoint> spoofed_;
};

}  // namespace geoproof::core
