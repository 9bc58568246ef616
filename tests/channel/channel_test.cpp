#include <gtest/gtest.h>

#include "channel/link_budget.h"
#include "channel/link_metrics.h"
#include "channel/propagation.h"

namespace wnet::channel {
namespace {

TEST(FreeSpace, MatchesClosedForm) {
  const FreeSpaceModel m(2.4e9);
  // FSPL at 1 m, 2.4 GHz is ~40.05 dB.
  EXPECT_NEAR(m.path_loss_db({0, 0}, {1, 0}), 40.05, 0.05);
  // +20 dB per decade of distance.
  EXPECT_NEAR(m.path_loss_db({0, 0}, {10, 0}) - m.path_loss_db({0, 0}, {1, 0}), 20.0, 1e-9);
}

TEST(FreeSpace, ClampsBelowOneMeter) {
  const FreeSpaceModel m(2.4e9);
  EXPECT_DOUBLE_EQ(m.path_loss_db({0, 0}, {0.1, 0}), m.path_loss_db({0, 0}, {1, 0}));
}

TEST(FreeSpace, RejectsBadFrequency) {
  EXPECT_THROW(FreeSpaceModel(0.0), std::invalid_argument);
}

TEST(LogDistance, ExponentControlsSlope) {
  const LogDistanceModel m(2.4e9, 3.0);
  EXPECT_NEAR(m.path_loss_db({0, 0}, {10, 0}) - m.path_loss_db({0, 0}, {1, 0}), 30.0, 1e-9);
  // Exponent 2 coincides with free space.
  const LogDistanceModel fs_like(2.4e9, 2.0);
  const FreeSpaceModel fs(2.4e9);
  EXPECT_NEAR(fs_like.path_loss_db({0, 0}, {25, 0}), fs.path_loss_db({0, 0}, {25, 0}), 1e-9);
}

TEST(LogDistance, RejectsBadParams) {
  EXPECT_THROW(LogDistanceModel(2.4e9, 0.0), std::invalid_argument);
  EXPECT_THROW(LogDistanceModel(2.4e9, 2.0, -1.0), std::invalid_argument);
}

TEST(MultiWall, AddsWallLosses) {
  geom::FloorPlan plan(20, 10);
  plan.add_wall({5, 0}, {5, 10}, geom::WallMaterial::kConcrete);
  const LogDistanceModel base(2.4e9, 2.8);
  const MultiWallModel mw(2.4e9, 2.8, plan);
  const geom::Vec2 a{1, 5};
  const geom::Vec2 b{9, 5};
  EXPECT_NEAR(mw.path_loss_db(a, b) - base.path_loss_db(a, b),
              geom::default_wall_loss_db(geom::WallMaterial::kConcrete), 1e-9);
  // Same side of the wall: no extra loss.
  EXPECT_NEAR(mw.path_loss_db({1, 5}, {4, 5}), base.path_loss_db({1, 5}, {4, 5}), 1e-9);
}

TEST(LinkBudget, RssAndSnr) {
  LinkBudget lb;
  lb.tx_power_dbm = 4.5;
  lb.tx_gain_dbi = 3.0;
  lb.rx_gain_dbi = 1.0;
  lb.path_loss_db = 70.0;
  EXPECT_DOUBLE_EQ(lb.rss_dbm(), 4.5 + 3.0 + 1.0 - 70.0);
  EXPECT_DOUBLE_EQ(lb.snr_db(-100.0), lb.rss_dbm() + 100.0);
}

TEST(Ber, MonotoneDecreasingInSnr) {
  double prev = 1.0;
  for (double snr = -10; snr <= 20; snr += 2) {
    const double ber = bit_error_rate(Modulation::kQpsk, snr);
    EXPECT_LE(ber, prev);
    prev = ber;
  }
  // At 20 dB SNR, QPSK BER is essentially zero.
  EXPECT_LT(bit_error_rate(Modulation::kQpsk, 20.0), 1e-12);
  // At very low SNR it approaches 1/2.
  EXPECT_GT(bit_error_rate(Modulation::kQpsk, -20.0), 0.3);
}

TEST(Ber, FskWorseThanPsk) {
  for (double snr = 0; snr <= 12; snr += 3) {
    EXPECT_GE(bit_error_rate(Modulation::kFsk, snr), bit_error_rate(Modulation::kBpsk, snr));
  }
}

TEST(Per, PacketErrorRateBounds) {
  EXPECT_DOUBLE_EQ(packet_error_rate(0.0, 50), 0.0);
  EXPECT_NEAR(packet_error_rate(1.0, 50), 1.0, 1e-12);
  // 400-bit packet at BER 1e-3: PER = 1 - (1-1e-3)^400 ~ 0.33.
  EXPECT_NEAR(packet_error_rate(1e-3, 50), 1.0 - std::pow(1.0 - 1e-3, 400), 1e-12);
  EXPECT_THROW((void)packet_error_rate(0.5, 0), std::invalid_argument);
}

TEST(Etx, ExpectedTransmissions) {
  EXPECT_DOUBLE_EQ(expected_transmissions(0.0), 1.0);
  EXPECT_DOUBLE_EQ(expected_transmissions(0.5), 2.0);
  EXPECT_DOUBLE_EQ(expected_transmissions(1.0, 100.0), 100.0);  // clamped
}

TEST(Etx, CleanLinkCostsOneTransmission) {
  EXPECT_NEAR(etx_from_snr(Modulation::kQpsk, 20.0, 50), 1.0, 1e-9);
  EXPECT_GT(etx_from_snr(Modulation::kQpsk, 3.0, 50), 1.5);
}

TEST(EtxStaircase, ConservativeUpperApproximation) {
  const auto table = build_etx_staircase(Modulation::kQpsk, 50, 0.0, 20.0, 41);
  ASSERT_EQ(table.size(), 41u);
  // Staircase is non-increasing in SNR.
  for (size_t i = 1; i < table.size(); ++i) EXPECT_LE(table[i].etx, table[i - 1].etx + 1e-12);
  // Lookup never underestimates the true ETX inside the range.
  for (double snr = 0.0; snr <= 20.0; snr += 0.37) {
    EXPECT_GE(etx_staircase_lookup(table, snr) + 1e-9,
              etx_from_snr(Modulation::kQpsk, snr, 50))
        << "snr " << snr;
  }
  // Below the range: worst case of the table.
  EXPECT_DOUBLE_EQ(etx_staircase_lookup(table, -5.0), table.front().etx);
}

TEST(EtxStaircase, RejectsBadArguments) {
  EXPECT_THROW((void)build_etx_staircase(Modulation::kQpsk, 50, 0.0, 20.0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)build_etx_staircase(Modulation::kQpsk, 50, 5.0, 5.0, 4),
               std::invalid_argument);
  EXPECT_THROW((void)etx_staircase_lookup({}, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace wnet::channel
