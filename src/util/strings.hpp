// Small string utilities shared across modules: trimming and
// non-throwing parsers for configuration input.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace p2p::util {

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Parse helpers returning nullopt on any syntax error (recoverable input
/// errors must not assert).
std::optional<long long> parse_int(std::string_view s) noexcept;
std::optional<double> parse_double(std::string_view s) noexcept;
std::optional<bool> parse_bool(std::string_view s) noexcept;

/// Lower-case ASCII copy.
std::string to_lower(std::string_view s);

}  // namespace p2p::util
