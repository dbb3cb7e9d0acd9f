// Packet-level tracing — the ns-2 workflow the paper's methodology
// implies: simulations emit a trace of link-layer events, figures are
// post-processed from it.
//
// trace::Writer is a net::NetObserver that renders one ns-2-like line per
// transmit / delivery / drop (`p2pmanet_sim --trace`). With no writer
// attached the network pays one null check per event.
#pragma once

#include <cstddef>
#include <iosfwd>

#include "net/network.hpp"
#include "net/types.hpp"

namespace p2p::trace {

/// Renders link-layer events as text lines:
///   <code> <time> <node> <peer|bcast> <bytes>
/// with code 's' (node transmitted to peer), 'r' (node received from
/// peer) or 'd' (a frame from node toward peer was lost).
class Writer final : public net::NetObserver {
 public:
  /// Takes over `network`'s observer slot and forwards every event to the
  /// observer that held it (the invariant checker, when enabled), so
  /// tracing never detaches it. Must outlive the network's last event.
  Writer(std::ostream& os, net::Network& network);

  void on_transmit(double time, net::NodeId node, net::NodeId dst,
                   std::size_t bytes) override;
  void on_deliver(double time, net::NodeId node, net::NodeId sender,
                  std::size_t bytes) override;
  void on_drop(double time, net::NodeId sender, net::NodeId dst,
               std::size_t bytes) override;

 private:
  void line(char code, double time, net::NodeId node, net::NodeId peer,
            std::size_t bytes);

  std::ostream* os_;
  net::NetObserver* next_;  // the replaced observer, or nullptr
};

}  // namespace p2p::trace
