#include "net/energy.hpp"

namespace p2p::net {

void EnergyModel::consume_tx(std::size_t bytes) noexcept {
  consumed_ += params_.tx_base_j + params_.tx_per_byte_j * static_cast<double>(bytes);
  ++frames_sent_;
  bytes_sent_ += bytes;
}

void EnergyModel::consume_rx(std::size_t bytes) noexcept {
  consumed_ += params_.rx_base_j + params_.rx_per_byte_j * static_cast<double>(bytes);
  ++frames_received_;
  bytes_received_ += bytes;
}

}  // namespace p2p::net
