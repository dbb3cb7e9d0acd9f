// Per-node energy accounting.
//
// The paper's motivation is energy economy ("each message transmitted or
// received consumes energy, which is a restrict resource"). We use the
// standard linear radio model: cost = base_per_frame + per_byte * size,
// with distinct tx and rx coefficients. A node whose battery empties is
// dead: it neither transmits nor receives (the churn bench exercises
// this; figure reproductions run with an effectively infinite battery, as
// the paper reports message counts rather than node deaths).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace p2p::net {

struct EnergyParams {
  double battery_j = std::numeric_limits<double>::infinity();
  double tx_base_j = 50e-6;       // per-frame transmit overhead
  double tx_per_byte_j = 1.0e-6;  // transmit cost per byte
  double rx_base_j = 25e-6;       // per-frame receive overhead
  double rx_per_byte_j = 0.5e-6;  // receive cost per byte
};

class EnergyModel {
 public:
  EnergyModel() = default;
  explicit EnergyModel(const EnergyParams& params) noexcept : params_(params) {}

  bool alive() const noexcept { return consumed_ < params_.battery_j; }

  double consumed_j() const noexcept { return consumed_; }
  double remaining_j() const noexcept {
    return params_.battery_j == std::numeric_limits<double>::infinity()
               ? params_.battery_j
               : params_.battery_j - consumed_;
  }
  void consume_tx(std::size_t bytes) noexcept;
  void consume_rx(std::size_t bytes) noexcept;

  std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  std::uint64_t frames_received() const noexcept { return frames_received_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  std::uint64_t bytes_received() const noexcept { return bytes_received_; }

 private:
  EnergyParams params_;
  double consumed_ = 0.0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace p2p::net
