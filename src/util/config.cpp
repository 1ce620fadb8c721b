#include "util/config.hpp"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

namespace gran::config {

namespace {

constexpr const char* k_sampler_gone =
    "removed with the CSV sampler; the counter time series is the JSONL window "
    "stream (--metrics-out / GRAN_METRICS)";

const std::array<knob_row, knob_count> k_table = {{
    {"GRAN_WORKERS", nullptr, kind::integer, "0", "0",
     "worker threads when scheduler_config::num_workers is 0; 0 = one per allowed CPU"},
    {"GRAN_POLICY", "policy", kind::choice, "priority-local-fifo",
     "priority-local-fifo|static-fifo|work-stealing-lifo|channel-steal",
     "scheduling policy when scheduler_config::policy is empty"},
    {"GRAN_PIN", nullptr, kind::choice, "compact", "compact|scatter|none",
     "worker pinning layout when scheduler_config::pin is empty"},
    {"GRAN_STEAL_ORDER", nullptr, kind::choice, "hier", "hier|flat",
     "victim order of every stealing policy when scheduler_config::steal_order is empty"},
    {"GRAN_STEAL_BATCH", nullptr, kind::choice, "adaptive", "one|half|adaptive",
     "channel-steal batch when scheduler_config::steal_batch is empty"},
    {"GRAN_STACK_SIZE", nullptr, kind::integer, "65536", "4096",
     "fiber stack bytes when scheduler_config::stack_size is 0"},
    {"GRAN_PRINT_COUNTERS", nullptr, kind::text, "", "",
     "counter prefix (all = every counter) printed to stderr at thread-manager stop"},
    {"GRAN_LOG", nullptr, kind::choice, "warn", "error|warn|info|debug|trace",
     "stderr log level"},
    {"GRAN_FUZZ_SEED", nullptr, kind::integer, "", "-9223372036854775808",
     "seed of every randomized test case, to replay a printed failure"},
    {"GRAN_SPLIT", nullptr, kind::boolean, "1", "",
     "lazy splitting on or off (split_options::enabled)"},
    {"GRAN_SPLIT_MIN", nullptr, kind::integer, "64", "1",
     "smallest child a lazy split may produce (split_options::min_chunk)"},
    {"GRAN_SPLIT_POLL", nullptr, kind::integer, "64", "1",
     "items between demand polls in a splittable task (split_options::poll_iters)"},
    {"GRAN_SERVICE_SHARDS", "shards", kind::integer, "0", "0",
     "task-service ingress shards; 0 = one per worker"},
    {"GRAN_SERVICE_SHARD_CAP", nullptr, kind::integer, "1024", "2",
     "ring slots per ingress shard"},
    {"GRAN_SERVICE_BACKLOG", "backlog", kind::integer, "4096", "1",
     "admission bound on accepted - completed requests"},
    {"GRAN_SERVICE_POLICY", "service-policy", kind::choice, "block",
     "block|reject|shed-oldest", "admission policy at the backlog bound"},
    {"GRAN_SERVICE_BATCH", nullptr, kind::integer, "64", "1",
     "requests a drainer spawns before yielding its worker"},
    {"GRAN_TRACE", "trace-out", kind::text, "", "",
     "Chrome/Perfetto trace path (1 = gran_trace.json)"},
    {"GRAN_TRACE_BIN", "trace-bin", kind::text, "", "",
     "binary trace dump for gran_trace_report (1 = gran_trace.bin)"},
    {"GRAN_TRACE_BUF", "trace-buf", kind::integer, "0", "0",
     "per-worker trace ring capacity in events; 0 = 65536"},
    {"GRAN_PMU", "pmu", kind::choice, "off", "off|0|on|1|hw|auto|sw|software",
     "per-task hardware counters: on probes the hardware, sw uses timers only"},
    {"GRAN_METRICS", "metrics-out", kind::text, "", "",
     "JSONL window stream: a file or a FIFO"},
    {"GRAN_METRICS_US", "metrics-interval-us", kind::integer, "100000", "1",
     "telemetry window length in microseconds"},
    {"GRAN_FLIGHT", "flight-prefix", kind::text, "", "",
     "flight-recorder dump prefix (1 = gran_flight); turns tracing on"},
    {"GRAN_STALL_NS", "stall-ns", kind::integer, "500000000", "1",
     "watchdog stuck-task threshold in nanoseconds"},
    {"GRAN_SAMPLE_US", "sample-interval-us", kind::removed, "", "", k_sampler_gone},
    {"GRAN_SAMPLE_OUT", "sample-out", kind::removed, "", "", k_sampler_gone},
    {"GRAN_SAMPLE_SET", "sample-set", kind::removed, "", "", k_sampler_gone},
    {"GRAN_METRICS_PROM", "metrics-prom", kind::removed, "", "",
     "removed with the Prometheus textfile; the window stream is JSONL (--metrics-out / "
     "GRAN_METRICS)"},
}};

// Decimal; the unsigned range too, so a printed 64-bit seed replays.
bool parse_integer(const std::string& s, std::int64_t& out) {
  if (s.empty() || !(std::isdigit(static_cast<unsigned char>(s[0])) || s[0] == '-'))
    return false;
  errno = 0;
  char* end = nullptr;
  out = s[0] == '-' ? std::strtoll(s.c_str(), &end, 10)
                    : static_cast<std::int64_t>(std::strtoull(s.c_str(), &end, 10));
  return *end == '\0' && errno != ERANGE;
}

// "GRAN_X=v (env)" or "GRAN_X=v (--flag)".
std::string entry(std::size_t k, const std::string& v, source from) {
  const knob_row& row = k_table[k];
  return std::string(row.env) + "=" + v + " (" +
         (from == source::cli ? std::string("--") + row.flag : "env") + ")";
}

// Why `v` is not a valid value of `row`, or "" when it is.
std::string check(const knob_row& row, const std::string& v, std::int64_t& parsed) {
  switch (row.type) {
    case kind::integer: {
      std::int64_t min = 0;
      parse_integer(row.values, min);
      if (!parse_integer(v, parsed)) return "not an integer";
      return parsed < min ? std::string("below the minimum ") + row.values : "";
    }
    case kind::boolean:
      parsed = v == "1" || v == "true" || v == "yes" || v == "on";
      if (parsed || v == "0" || v == "false" || v == "no" || v == "off") return "";
      return "not a boolean (1|0|true|false|yes|no|on|off)";
    case kind::choice:
      if (v.find('|') == std::string::npos &&
          ("|" + std::string(row.values) + "|").find("|" + v + "|") != std::string::npos)
        return "";
      return std::string("not one of ") + row.values;
    default:
      return "";
  }
}

}  // namespace

const std::array<knob_row, knob_count>& table() { return k_table; }

std::string settings::describe() const {
  std::string set;
  for (std::size_t k = 0; k < knob_count; ++k)
    if (origin_[k] != source::table)
      set += (set.empty() ? " " : ", ") + entry(k, text_[k], origin_[k]);
  return "# gran config:" + (set.empty() ? std::string(" defaults") : set);
}

settings resolve(const std::vector<std::string>& env, const cli_args& args) {
  settings s;
  for (std::size_t k = 0; k < knob_count; ++k) s.text_[k] = k_table[k].def;
  auto assign = [&s](std::size_t k, const std::string& name, const std::string& value,
                     source from) {
    if (k_table[k].type == kind::removed)
      throw std::invalid_argument(name + " was " + k_table[k].doc);
    if (value.empty()) return;  // an empty value leaves the knob unset
    s.text_[k] = value;
    s.origin_[k] = from;
  };
  for (const std::string& entry : env) {
    if (entry.rfind("GRAN_", 0) != 0) continue;
    const std::size_t eq = entry.find('=');
    const std::string name = entry.substr(0, eq);
    std::size_t k = 0;
    while (k < knob_count && name != k_table[k].env) ++k;
    if (k == knob_count)
      s.warnings_.push_back("warning: " + name +
                            " is not a gran knob and is ignored (README: Configuration)");
    else
      assign(k, name, eq == std::string::npos ? "" : entry.substr(eq + 1), source::env);
  }
  for (std::size_t k = 0; k < knob_count; ++k)
    if (const char* flag = k_table[k].flag; flag != nullptr && args.has(flag))
      assign(k, std::string("--") + flag, args.get(flag), source::cli);
  for (std::size_t k = 0; k < knob_count; ++k) {
    const std::string& v = s.text_[k];
    const std::string why = v.empty() ? "" : check(k_table[k], v, s.int_[k]);
    if (!why.empty()) throw std::invalid_argument(entry(k, v, s.origin_[k]) + ": " + why);
  }
  return s;
}

settings load(const std::vector<std::string>& env, const cli_args& args) {
  try {
    settings s = resolve(env, args);
    for (const std::string& w : s.warnings()) std::fprintf(stderr, "gran: %s\n", w.c_str());
    return s;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

namespace {

std::once_flag g_once;
const settings* g_settings = nullptr;  // never freed: read until process exit

void load_process(const cli_args& args) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) env.emplace_back(*e);
  g_settings = new settings(load(env, args));
}

}  // namespace

void init(const cli_args& args) {
  bool first = false;
  std::call_once(g_once, [&] {
    load_process(args);
    first = true;
  });
  if (first) return;
  std::fprintf(stderr, "gran: config::init after the knob table was first read; call it "
                       "before any thread_manager is built\n");
  std::abort();
}

const settings& current() {
  std::call_once(g_once, [] { load_process(cli_args(0, nullptr)); });
  return *g_settings;
}

}  // namespace gran::config
