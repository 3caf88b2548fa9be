#pragma once
/// \file log.hpp
/// Minimal leveled logger. Thread safe; writes to stderr.
///
/// Usage:
///   OCTGB_LOG(info) << "built octree with " << n << " nodes";
/// Only the OCTGB_LOG environment variable (trace|debug|info|warn|error|off)
/// sets the level, read once at first use; the default is warn.

#include <atomic>
#include <mutex>
#include <sstream>
#include <string>

namespace octgb::util {

enum class LogLevel : int { trace = 0, debug, info, warn, error, off };

/// Parse a level name; unknown names map to info.
LogLevel parse_log_level(const std::string& name);

/// Global logger singleton.
class Logger {
 public:
  static Logger& instance();

  LogLevel level() const { return static_cast<LogLevel>(level_.load()); }
  bool enabled(LogLevel lvl) const {
    return static_cast<int>(lvl) >= level_.load();
  }

  /// Write one formatted line (thread safe).
  void write(LogLevel lvl, const std::string& msg);

 private:
  Logger();
  std::atomic<int> level_;
  std::mutex mu_;
};

/// RAII line builder used by the OCTGB_LOG macro.
class LogLine {
 public:
  explicit LogLine(LogLevel lvl) : lvl_(lvl) {}
  ~LogLine() { Logger::instance().write(lvl_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <class T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel lvl_;
  std::ostringstream os_;
};

}  // namespace octgb::util

#define OCTGB_LOG(lvl)                                                       \
  if (!::octgb::util::Logger::instance().enabled(                           \
          ::octgb::util::LogLevel::lvl)) {                                   \
  } else                                                                     \
    ::octgb::util::LogLine(::octgb::util::LogLevel::lvl)
