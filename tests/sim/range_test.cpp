#include "sim/range_experiment.h"

#include <gtest/gtest.h>

namespace ms {
namespace {

TEST(Range, LosMaxRangesMatchFig13) {
  // Fig 13a: max LoS ranges 28 m (WiFi), 22 m (ZigBee), 20 m (BLE).
  // Reproduction band: same ordering, within ~6 m.
  const RangeSweepConfig cfg = los_sweep_config();
  const double wifi = max_range_m(Protocol::WifiB, cfg);
  const double zigbee = max_range_m(Protocol::Zigbee, cfg);
  const double ble = max_range_m(Protocol::Ble, cfg);
  EXPECT_GE(wifi, zigbee);
  EXPECT_GE(zigbee, ble - 1.0);
  EXPECT_NEAR(wifi, 28.0, 7.0);
  EXPECT_NEAR(ble, 20.0, 7.0);
}

TEST(Range, NlosShorterThanLos) {
  // Fig 14: NLoS ranges uniformly shorter (22/18/16 m).
  for (Protocol p : kAllProtocols) {
    const double los = max_range_m(p, los_sweep_config());
    const double nlos = max_range_m(p, nlos_sweep_config());
    EXPECT_LT(nlos, los) << protocol_name(p);
    EXPECT_GT(nlos, 4.0) << protocol_name(p);
  }
}

TEST(Range, RssiMonotoneDecreasing) {
  const auto pts = range_sweep(Protocol::WifiB, los_sweep_config());
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_LT(pts[i].rssi_dbm, pts[i - 1].rssi_dbm);
}

TEST(Range, BerLowAt16mThenClimbs) {
  // Fig 13b: low BERs out to ~16 m.
  const auto pts = range_sweep(Protocol::WifiB, los_sweep_config());
  for (const RangePoint& pt : pts) {
    if (pt.distance_m <= 16.0) {
      EXPECT_LT(std::max(pt.productive_ber, pt.tag_ber), 0.05)
          << pt.distance_m;
    }
  }
  EXPECT_GT(pts.back().productive_ber + pts.back().tag_ber,
            pts.front().productive_ber + pts.front().tag_ber);
}

TEST(Range, ThroughputZeroBeyondMaxRange) {
  const RangeSweepConfig cfg = los_sweep_config();
  const double max_r = max_range_m(Protocol::Ble, cfg);
  for (const RangePoint& pt : range_sweep(Protocol::Ble, cfg)) {
    if (pt.distance_m > max_r + 1.0) {
      EXPECT_EQ(pt.aggregate_kbps, 0.0);
    }
  }
}

TEST(Range, AggregateOrderingNearTagMatchesFig13c) {
  // Fig 13c near the tag: BLE (278) > 802.11b (220) > 802.11n (101) >
  // ZigBee (26).
  const RangeSweepConfig cfg = los_sweep_config();
  auto agg_at_4m = [&](Protocol p) {
    for (const RangePoint& pt : range_sweep(p, cfg))
      if (pt.distance_m >= 4.0) return pt.aggregate_kbps;
    return 0.0;
  };
  const double ble = agg_at_4m(Protocol::Ble);
  const double wifi_b = agg_at_4m(Protocol::WifiB);
  const double wifi_n = agg_at_4m(Protocol::WifiN);
  const double zigbee = agg_at_4m(Protocol::Zigbee);
  EXPECT_GT(ble, wifi_b);
  EXPECT_GT(wifi_b, wifi_n);
  EXPECT_GT(wifi_n, zigbee);
}

}  // namespace
}  // namespace ms
