#include "radio/csma.h"

#include <gtest/gtest.h>

namespace wnet::radio {
namespace {

TEST(Csma, IdleListeningDominatesSleep) {
  const TdmaConfig timing;
  const DeviceCurrents c{30, 25, 8, 0.005};
  const CsmaConfig csma{0.02, 2.0};
  const NodeTraffic idle{0, 0, 1.0};
  const double q_tdma = charge_per_cycle_mas(c, idle, timing);
  const double q_csma = charge_per_cycle_csma_mas(c, idle, timing, csma);
  // Duty-cycled listening burns far more than pure sleep.
  EXPECT_GT(q_csma, q_tdma * 5.0);
  // Roughly rx * duty * period.
  EXPECT_NEAR(q_csma, 25.0 * 0.02 * 30.0 + 0.005 * 0.98 * 30.0, 1e-9);
}

TEST(Csma, BackoffChargesTransmitters) {
  const TdmaConfig timing;
  const DeviceCurrents c{30, 25, 8, 0.005};
  const CsmaConfig no_backoff{0.0, 0.0};
  const CsmaConfig heavy_backoff{0.0, 10.0};
  const NodeTraffic t{5, 0, 1.0};
  EXPECT_GT(charge_per_cycle_csma_mas(c, t, timing, heavy_backoff),
            charge_per_cycle_csma_mas(c, t, timing, no_backoff));
  // Receivers are unaffected by the backoff parameter.
  const NodeTraffic rx_only{0, 5, 1.0};
  EXPECT_DOUBLE_EQ(charge_per_cycle_csma_mas(c, rx_only, timing, heavy_backoff),
                   charge_per_cycle_csma_mas(c, rx_only, timing, no_backoff));
}

TEST(Csma, LifetimeShorterThanTdma) {
  const TdmaConfig timing;
  const DeviceCurrents c{29, 24, 8, 0.004};
  const CsmaConfig csma{0.01, 2.0};
  const NodeTraffic t{2, 1, 1.0};
  EXPECT_LT(lifetime_years_csma(3000.0, c, t, timing, csma),
            lifetime_years(3000.0, c, t, timing));
}

TEST(Csma, RejectsBadArguments) {
  const TdmaConfig timing;
  const DeviceCurrents c;
  EXPECT_THROW((void)charge_per_cycle_csma_mas(c, {-1, 0, 1.0}, timing, {}),
               std::invalid_argument);
  EXPECT_THROW((void)charge_per_cycle_csma_mas(c, {0, 0, 0.1}, timing, {}),
               std::invalid_argument);
  EXPECT_THROW((void)charge_per_cycle_csma_mas(c, {0, 0, 1.0}, timing, {1.5, 2.0}),
               std::invalid_argument);
  EXPECT_THROW((void)lifetime_years_csma(0.0, c, {0, 0, 1.0}, timing, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wnet::radio
