#include "trace/trace.hpp"

#include <ostream>

namespace p2p::trace {

Writer::Writer(std::ostream& os, net::Network& network)
    : os_(&os), next_(network.observer()) {
  network.set_observer(nullptr);
  network.set_observer(this);
}

void Writer::on_transmit(double time, net::NodeId node, net::NodeId dst,
                         std::size_t bytes) {
  line('s', time, node, dst, bytes);
  if (next_ != nullptr) next_->on_transmit(time, node, dst, bytes);
}

void Writer::on_deliver(double time, net::NodeId node, net::NodeId sender,
                        std::size_t bytes) {
  line('r', time, node, sender, bytes);
  if (next_ != nullptr) next_->on_deliver(time, node, sender, bytes);
}

void Writer::on_drop(double time, net::NodeId sender, net::NodeId dst,
                     std::size_t bytes) {
  line('d', time, sender, dst, bytes);
  if (next_ != nullptr) next_->on_drop(time, sender, dst, bytes);
}

void Writer::line(char code, double time, net::NodeId node, net::NodeId peer,
                  std::size_t bytes) {
  (*os_) << code << ' ' << time << ' ' << node << ' ';
  if (peer == net::kBroadcast) {
    (*os_) << "bcast";
  } else {
    (*os_) << peer;
  }
  (*os_) << ' ' << bytes << '\n';
}

}  // namespace p2p::trace
