#include "util/log.hpp"

#include <cstdio>
#include <mutex>

namespace p2p::util {
namespace {
std::mutex g_log_mutex;
}  // namespace

const char* log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

Logger& Logger::instance() noexcept {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, std::string_view component, double sim_time,
                   std::string_view message) {
  std::scoped_lock lock(g_log_mutex);
  if (sim_time >= 0.0) {
    std::fprintf(stderr, "[%10.4f] %-5s %-8.*s %.*s\n", sim_time,
                 log_level_name(level), static_cast<int>(component.size()),
                 component.data(), static_cast<int>(message.size()),
                 message.data());
  } else {
    std::fprintf(stderr, "[      ----] %-5s %-8.*s %.*s\n", log_level_name(level),
                 static_cast<int>(component.size()), component.data(),
                 static_cast<int>(message.size()), message.data());
  }
}

}  // namespace p2p::util
