#include "core/gps.hpp"

#include <gtest/gtest.h>

namespace geoproof::core {
namespace {

using net::GeoPoint;

TEST(GpsDevice, ReportsTruthByDefault) {
  const GeoPoint brisbane{-27.47, 153.02};
  GpsDevice gps(brisbane);
  EXPECT_EQ(gps.report(), brisbane);
  EXPECT_FALSE(gps.is_spoofed());
}

TEST(GpsDevice, SpoofOverridesReport) {
  GpsDevice gps({-27.47, 153.02});
  const GeoPoint fake{-33.87, 151.21};
  gps.spoof(fake);
  EXPECT_TRUE(gps.is_spoofed());
  EXPECT_EQ(gps.report(), fake);
  EXPECT_EQ(gps.true_position(), (GeoPoint{-27.47, 153.02}));
  gps.clear_spoof();
  EXPECT_FALSE(gps.is_spoofed());
  EXPECT_EQ(gps.report(), (GeoPoint{-27.47, 153.02}));
}

}  // namespace
}  // namespace geoproof::core
