// The knob table: every GRAN_* environment variable the runtime reads, with
// its CLI twin, type, default and meaning. README's "Configuration" section
// mirrors it. Every knob has one precedence:
//
//   a value the code sets explicitly > CLI flag > environment > table default
//
// The table resolves the last three once per process; the owners
// (scheduler_config, service_config, split_options, the observers) take its
// typed values wherever the code left a field unset. A malformed value exits
// 2 naming the knob and the value, a removed knob exits 2 naming its
// replacement, and an unknown GRAN_* name prints one warning.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace gran::config {

enum knob : std::uint8_t {
  // thread manager and process (scheduler_config, log, tests)
  workers, policy, pin, steal_order, steal_batch, stack_size, print_counters, log, fuzz_seed,
  // lazy splitting (split_options)
  split, split_min, split_poll,
  // task service (service_config)
  service_shards, service_shard_cap, service_backlog, service_policy, service_batch,
  // observers (perf/observability.hpp)
  trace, trace_bin, trace_buf, pmu, metrics, metrics_us, flight, stall_ns,
  // removed: setting one exits 2
  sample_us, sample_out, sample_set, metrics_prom,
  knob_count
};

enum class kind : std::uint8_t { integer, boolean, choice, text, removed };
enum class source : std::uint8_t { table, env, cli };

struct knob_row {
  const char* env;     // GRAN_* name
  const char* flag;    // CLI twin without the leading "--"; nullptr = none
  kind type;
  const char* def;     // default as text; "" = unset
  const char* values;  // choice: "a|b|c"; integer: the minimum
  const char* doc;     // removed: the replacement
};

const std::array<knob_row, knob_count>& table();

// The table merged with one environment and one command line.
class settings {
 public:
  const std::string& text(knob k) const { return text_[k]; }
  std::int64_t integer(knob k) const { return int_[k]; }
  bool boolean(knob k) const { return int_[k] != 0; }
  source origin(knob k) const { return origin_[k]; }
  bool set(knob k) const { return origin_[k] != source::table; }
  const std::vector<std::string>& warnings() const { return warnings_; }

  // "# gran config: GRAN_POLICY=static-fifo (env), GRAN_SERVICE_BACKLOG=8
  // (--backlog)", or "# gran config: defaults" when nothing was set.
  std::string describe() const;

 private:
  friend settings resolve(const std::vector<std::string>&, const cli_args&);
  std::array<std::string, knob_count> text_;
  std::array<std::int64_t, knob_count> int_{};
  std::array<source, knob_count> origin_{};
  std::vector<std::string> warnings_;
};

// Pure: the table merged with `env` ("NAME=value" entries) and `args`.
// Throws std::invalid_argument naming the knob and the value when a value
// is malformed or a removed knob is set.
settings resolve(const std::vector<std::string>& env, const cli_args& args);

// resolve(), printing each warning to stderr; exits 2 on an error.
settings load(const std::vector<std::string>& env, const cli_args& args);

// The process's settings: load(environ, args) at the first init(), or
// load(environ, no args) on first use in a program that never calls init().
// init() after the first use is a programming error and aborts.
void init(const cli_args& args);
const settings& current();

inline const std::string& text(knob k) { return current().text(k); }
inline std::int64_t integer(knob k) { return current().integer(k); }
inline bool boolean(knob k) { return current().boolean(k); }

}  // namespace gran::config
