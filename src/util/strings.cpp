#include "util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace p2p::util {

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::optional<long long> parse_int(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::optional<bool> parse_bool(std::string_view s) noexcept {
  const std::string v = to_lower(trim(s));
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return std::nullopt;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace p2p::util
