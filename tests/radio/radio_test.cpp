#include <gtest/gtest.h>

#include "radio/energy.h"
#include "radio/tdma.h"

namespace wnet::radio {
namespace {

TEST(Tdma, DerivedQuantities) {
  TdmaConfig cfg;  // paper defaults: 16 x 1 ms slots, 50 B @ 250 kbps, 30 s
  EXPECT_DOUBLE_EQ(cfg.superframe_s(), 0.016);
  EXPECT_DOUBLE_EQ(cfg.packet_airtime_s(), 50 * 8.0 / 250e3);  // 1.6 ms
  EXPECT_EQ(cfg.slots_per_packet(), 2);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Tdma, ValidationCatchesNonsense) {
  TdmaConfig cfg;
  cfg.slots_per_superframe = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.report_period_s = 1e-6;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.packet_bytes = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.bitrate_bps = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Energy, SleepOnlyNodeChargeFloor) {
  const TdmaConfig tdma;
  const DeviceCurrents c{30, 25, 8, 0.01};
  const NodeTraffic idle{0, 0, 1.0};
  // Pure sleep: 0.01 mA * 30 s.
  EXPECT_NEAR(charge_per_cycle_mas(c, idle, tdma), 0.01 * 30.0, 1e-12);
}

TEST(Energy, TrafficIncreasesCharge) {
  const TdmaConfig tdma;
  const DeviceCurrents c{30, 25, 8, 0.01};
  const double idle = charge_per_cycle_mas(c, {0, 0, 1.0}, tdma);
  const double one_tx = charge_per_cycle_mas(c, {1, 0, 1.0}, tdma);
  const double one_rx = charge_per_cycle_mas(c, {0, 1, 1.0}, tdma);
  EXPECT_GT(one_tx, idle);
  EXPECT_GT(one_rx, idle);
  // TX draws more than RX for these currents.
  EXPECT_GT(one_tx, one_rx);
  // Retransmissions scale the radio term.
  const double retry = charge_per_cycle_mas(c, {1, 0, 2.0}, tdma);
  EXPECT_GT(retry, one_tx);
}

TEST(Energy, RejectsInvalidTraffic) {
  const TdmaConfig tdma;
  const DeviceCurrents c;
  EXPECT_THROW((void)charge_per_cycle_mas(c, {-1, 0, 1.0}, tdma), std::invalid_argument);
  EXPECT_THROW((void)charge_per_cycle_mas(c, {0, 0, 0.5}, tdma), std::invalid_argument);
}

TEST(Energy, LifetimeInRealisticBallpark) {
  // A leaf sensor sending one packet per 30 s on 2xAA should live for
  // years — the regime the paper's Table 1 reports (5-12 y).
  const TdmaConfig tdma;
  const DeviceCurrents c{29, 24, 8, 0.004};
  const double years = lifetime_years(3000.0, c, {1, 0, 1.0}, tdma);
  EXPECT_GT(years, 4.0);
  EXPECT_LT(years, 80.0);
  // A busy relay forwarding 20 sensors lives much shorter.
  const double busy = lifetime_years(3000.0, c, {20, 20, 1.0}, tdma);
  EXPECT_LT(busy, years / 4.0);
  EXPECT_GT(busy, 0.1);
}

TEST(Energy, LifetimeRejectsBadBattery) {
  const TdmaConfig tdma;
  EXPECT_THROW((void)lifetime_years(0.0, {}, {0, 0, 1.0}, tdma), std::invalid_argument);
}

TEST(Energy, AverageCurrentConsistentWithCharge) {
  const TdmaConfig tdma;
  const DeviceCurrents c{30, 25, 8, 0.01};
  const NodeTraffic t{3, 2, 1.2};
  EXPECT_NEAR(average_current_ma(c, t, tdma) * tdma.report_period_s,
              charge_per_cycle_mas(c, t, tdma), 1e-12);
}

}  // namespace
}  // namespace wnet::radio
