#include "serve/metrics.hpp"

#include <cstdio>

namespace p2p::serve {

Counter& Metrics::counter(std::string_view name) {
  std::scoped_lock lock(mutex_);
  for (auto& [n, c] : counters_) {
    if (n == name) return c;
  }
  counters_.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(name),
                         std::forward_as_tuple());
  return counters_.back().second;
}

std::string Metrics::to_json() const {
  std::scoped_lock lock(mutex_);
  std::string out = "{\"type\":\"stats\"";
  char buf[64];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof buf, ",\"%s\":%llu", name.c_str(),
                  static_cast<unsigned long long>(c.value()));
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace p2p::serve
