// Minimal leveled logger.
//
// Simulation components tag records with a component name ("aodv", "p2p",
// ...). The global level gates emission; per-component overrides allow
// focused debugging of a single layer. Logging from simulation code should
// go through the LOG_* macros so that disabled levels cost a single branch.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace p2p::util {

enum class LogLevel : std::uint8_t { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

const char* log_level_name(LogLevel level) noexcept;

class Logger {
 public:
  static Logger& instance() noexcept;

  void set_level(LogLevel level) noexcept { level_ = level; }
  LogLevel level() const noexcept { return level_; }

  bool enabled(LogLevel level) const noexcept { return level >= level_; }

  /// Emit one record to stderr. `sim_time` < 0 means "outside simulation".
  void write(LogLevel level, std::string_view component, double sim_time,
             std::string_view message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
};

/// Stream-style record builder used by the LOG_* macros.
class LogRecord {
 public:
  LogRecord(LogLevel level, std::string_view component, double sim_time)
      : level_(level), component_(component), sim_time_(sim_time) {}
  LogRecord(const LogRecord&) = delete;
  LogRecord& operator=(const LogRecord&) = delete;
  ~LogRecord() { Logger::instance().write(level_, component_, sim_time_, os_.str()); }

  template <typename T>
  LogRecord& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  double sim_time_;
  std::ostringstream os_;
};

}  // namespace p2p::util

#define P2P_LOG(level, component, sim_time)                       \
  if (!::p2p::util::Logger::instance().enabled(level)) {          \
  } else                                                          \
    ::p2p::util::LogRecord(level, component, sim_time)

#define LOG_TRACE(component, t) P2P_LOG(::p2p::util::LogLevel::kTrace, component, t)
#define LOG_DEBUG(component, t) P2P_LOG(::p2p::util::LogLevel::kDebug, component, t)
#define LOG_INFO(component, t) P2P_LOG(::p2p::util::LogLevel::kInfo, component, t)
#define LOG_WARN(component, t) P2P_LOG(::p2p::util::LogLevel::kWarn, component, t)
#define LOG_ERROR(component, t) P2P_LOG(::p2p::util::LogLevel::kError, component, t)
