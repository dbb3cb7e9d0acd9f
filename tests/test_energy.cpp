// EnergyModel: linear radio cost accounting and battery death.
#include <gtest/gtest.h>

#include <limits>

#include "net/energy.hpp"

namespace {

using p2p::net::EnergyModel;
using p2p::net::EnergyParams;

TEST(Energy, DefaultBatteryIsInfinite) {
  EnergyModel model;
  for (int i = 0; i < 1000; ++i) model.consume_tx(1500);
  EXPECT_TRUE(model.alive());
  EXPECT_EQ(model.remaining_j(), std::numeric_limits<double>::infinity());
}

TEST(Energy, LinearCostModel) {
  EnergyParams params;
  params.tx_base_j = 1.0;
  params.tx_per_byte_j = 0.5;
  params.rx_base_j = 0.25;
  params.rx_per_byte_j = 0.125;
  EnergyModel model(params);
  model.consume_tx(100);  // 1 + 50
  EXPECT_DOUBLE_EQ(model.consumed_j(), 51.0);
  model.consume_rx(8);  // 0.25 + 1
  EXPECT_DOUBLE_EQ(model.consumed_j(), 52.25);
}

TEST(Energy, DiesWhenBatteryEmpty) {
  EnergyParams params;
  params.battery_j = 10.0;
  params.tx_base_j = 3.0;
  params.tx_per_byte_j = 0.0;
  EnergyModel model(params);
  EXPECT_TRUE(model.alive());
  model.consume_tx(0);
  model.consume_tx(0);
  model.consume_tx(0);
  EXPECT_TRUE(model.alive());  // 9 < 10
  model.consume_tx(0);
  EXPECT_FALSE(model.alive());  // 12 >= 10
}

TEST(Energy, OverdrawnBatteryIsDeadWithNegativeRemaining) {
  EnergyParams params;
  params.battery_j = 1.0;
  params.tx_base_j = 2.0;
  EnergyModel model(params);
  model.consume_tx(0);
  EXPECT_FALSE(model.alive());
  EXPECT_DOUBLE_EQ(model.remaining_j(), -1.0);
}

TEST(Energy, CountsFramesAndBytes) {
  EnergyModel model;
  model.consume_tx(100);
  model.consume_tx(50);
  model.consume_rx(25);
  EXPECT_EQ(model.frames_sent(), 2U);
  EXPECT_EQ(model.frames_received(), 1U);
  EXPECT_EQ(model.bytes_sent(), 150U);
  EXPECT_EQ(model.bytes_received(), 25U);
}

TEST(Energy, RxAndTxCostsAreIndependent) {
  EnergyParams params;
  params.tx_base_j = 5.0;
  params.tx_per_byte_j = 0.0;
  params.rx_base_j = 1.0;
  params.rx_per_byte_j = 0.0;
  EnergyModel model(params);
  model.consume_rx(1000);
  EXPECT_DOUBLE_EQ(model.consumed_j(), 1.0);
  model.consume_tx(1000);
  EXPECT_DOUBLE_EQ(model.consumed_j(), 6.0);
}

}  // namespace
