// Key/value configuration store with INI-style parsing.
//
// Scenario parameters (paper Table 2 plus the timers the paper leaves
// unspecified) have strongly-typed defaults in scenario/parameters.hpp;
// Config is the stringly-typed layer used to override them from files or
// command lines ("key=value" pairs).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace p2p::util {

class Config {
 public:
  Config() = default;

  /// Parse INI-style text: `key = value` lines, `#`/`;` comments,
  /// `[section]` headers turn keys into "section.key".
  /// Returns false (and stops) on the first malformed line; `error` gets a
  /// human-readable description.
  bool parse_ini(std::string_view text, std::string* error = nullptr);

  /// Parse a single "key=value" override (as given on a command line).
  bool parse_override(std::string_view kv, std::string* error = nullptr);

  void set(std::string key, std::string value);
  bool contains(std::string_view key) const noexcept;

  /// Raw value text; typing and range checks are the reader's job
  /// (scenario::Parameters::apply).
  std::optional<std::string> get_string(std::string_view key) const;

  /// Keys in lexicographic order (stable dumps for EXPERIMENTS.md).
  std::vector<std::string> keys() const;

  std::size_t size() const noexcept { return values_.size(); }

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace p2p::util
