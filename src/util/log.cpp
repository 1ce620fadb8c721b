#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "util/config.hpp"

namespace gran::log {

namespace {

log_level initial_level() {
  const std::string& v = config::text(config::log);
  if (v == "error") return log_level::error;
  if (v == "info") return log_level::info;
  if (v == "debug") return log_level::debug;
  if (v == "trace") return log_level::trace;
  return log_level::warn;
}

// Read on first use: main() may still have to hand the table its argv.
std::atomic<log_level>& level_cell() {
  static std::atomic<log_level> cell{initial_level()};
  return cell;
}

std::mutex g_sink_mutex;

const char* level_name(log_level lvl) {
  switch (lvl) {
    case log_level::error: return "ERROR";
    case log_level::warn: return "WARN ";
    case log_level::info: return "INFO ";
    case log_level::debug: return "DEBUG";
    case log_level::trace: return "TRACE";
  }
  return "?";
}

}  // namespace

log_level level() noexcept { return level_cell().load(std::memory_order_relaxed); }
void set_level(log_level lvl) noexcept { level_cell().store(lvl, std::memory_order_relaxed); }
bool enabled(log_level lvl) noexcept { return lvl <= level(); }

void write(log_level lvl, const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "[gran %s] %s\n", level_name(lvl), buf);
}

}  // namespace gran::log
