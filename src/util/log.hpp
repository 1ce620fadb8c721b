// Leveled stderr logging. The level is read once from the GRAN_LOG knob
// (util/config.hpp) and can be overridden programmatically. Logging from
// inside tasks is safe: the sink takes a plain OS mutex only after
// formatting, and never suspends.
#pragma once

#include <cstdarg>
#include <cstdint>

namespace gran {

enum class log_level : std::uint8_t { error = 0, warn, info, debug, trace };

namespace log {

log_level level() noexcept;
void set_level(log_level lvl) noexcept;
bool enabled(log_level lvl) noexcept;

// printf-style message; a newline is appended.
void write(log_level lvl, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace log
}  // namespace gran

#define GRAN_LOG(lvl, ...)                                       \
  do {                                                           \
    if (::gran::log::enabled(lvl)) ::gran::log::write(lvl, __VA_ARGS__); \
  } while (0)

#define GRAN_LOG_ERROR(...) GRAN_LOG(::gran::log_level::error, __VA_ARGS__)
#define GRAN_LOG_WARN(...) GRAN_LOG(::gran::log_level::warn, __VA_ARGS__)
#define GRAN_LOG_INFO(...) GRAN_LOG(::gran::log_level::info, __VA_ARGS__)
#define GRAN_LOG_DEBUG(...) GRAN_LOG(::gran::log_level::debug, __VA_ARGS__)
#define GRAN_LOG_TRACE(...) GRAN_LOG(::gran::log_level::trace, __VA_ARGS__)
