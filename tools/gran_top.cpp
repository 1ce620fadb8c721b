// gran_top — live viewer and validator for the telemetry JSONL stream.
//
// A bench started with --metrics-out=FILE (or GRAN_METRICS=FILE) appends one
// JSON object per aggregation window; this tool tails that stream and renders
// the newest window as a per-worker table, top(1)-style. It doubles as the CI
// conformance checker for the stream.
//
//   gran_top --in=gran_metrics.jsonl            render the newest window, exit
//   gran_top --in=gran_metrics.jsonl --follow   live refresh until Ctrl-C
//   gran_top --check=gran_metrics.jsonl         validate every JSONL line
//
// Options: --interval-ms=N (follow refresh, default 500), --incidents=N
// (incident lines to keep in the footer, default 4), --no-clear (don't emit
// ANSI clear between frames).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/minijson.hpp"
#include "util/table.hpp"

namespace {

using gran::json_value;

// --- JSONL conformance -----------------------------------------------------

// Empty when `parent` (named `section` in messages) holds a complete
// percentile object `key`, as the exporter's one writer emits it: p50, p95,
// p99 and mean with the key suffix ("_ns", or none for the PMU groups), and
// count; else the first violation.
std::string check_percentiles(const json_value& parent, const char* section,
                              const char* key, const std::string& suffix) {
  const json_value* h = parent.find(key);
  if (!h || !h->is_object())
    return std::string(section) + " missing object field \"" + key + "\"";
  for (const std::string& sub : {"p50" + suffix, "p95" + suffix, "p99" + suffix,
                                "mean" + suffix, std::string("count")})
    if (const json_value* v = h->find(sub); !v || !v->is_number())
      return std::string(key) + " missing numeric field \"" + sub + "\"";
  return {};
}

// Returns an empty string when `line` is a well-formed stream record, else a
// description of the first violation.
std::string check_line(const std::string& line) {
  std::string perr;
  const auto doc = json_value::parse(line, &perr);
  if (!doc) return "not valid JSON (" + perr + ")";
  if (!doc->is_object()) return "line is not a JSON object";
  const json_value* type = doc->find("type");
  if (!type || !type->is_string()) return "missing string field \"type\"";

  const auto need_number = [&](const char* key) -> std::string {
    const json_value* v = doc->find(key);
    if (!v || !v->is_number())
      return std::string("missing numeric field \"") + key + "\"";
    return {};
  };

  if (type->as_string() == "window") {
    for (const char* key : {"seq", "t_start_ns", "t_end_ns", "dt_s"})
      if (auto e = need_number(key); !e.empty()) return e;
    const json_value* interval = doc->find("interval");
    if (!interval || !interval->is_object())
      return "missing object field \"interval\"";
    for (const char* key : {"idle_rate", "tasks", "tasks_per_s"})
      if (const json_value* v = interval->find(key); !v || !v->is_number())
        return std::string("interval missing numeric field \"") + key + "\"";
    for (const char* key : {"task_duration", "task_overhead"})
      if (auto e = check_percentiles(*interval, "interval", key, "_ns"); !e.empty())
        return e;
    // Optional service section (present only when a task_service ran):
    // absent is fine — no schema break for batch streams — but when present
    // it must be complete.
    if (const json_value* svc = interval->find("service")) {
      if (!svc->is_object()) return "interval \"service\" is not an object";
      for (const char* key : {"accepted_per_s", "rejected_per_s",
                              "completed_per_s", "rejection_rate", "backlog"})
        if (const json_value* v = svc->find(key); !v || !v->is_number())
          return std::string("service missing numeric field \"") + key + "\"";
      if (auto e = check_percentiles(*svc, "service", "sojourn", "_ns"); !e.empty())
        return e;
      // queue_wait rides the same optional-but-complete rule: streams from
      // writers predating it stay valid, current writers must emit the full
      // percentile object.
      if (svc->find("queue_wait") != nullptr)
        if (auto e = check_percentiles(*svc, "service", "queue_wait", "_ns"); !e.empty())
          return e;
    }
    // Optional PMU section (present only when GRAN_PMU is on): complete
    // when present — mode plus the three percentile groups.
    if (const json_value* pmu = interval->find("pmu")) {
      if (!pmu->is_object()) return "interval \"pmu\" is not an object";
      if (const json_value* v = pmu->find("mode"); !v || !v->is_number())
        return "pmu missing numeric field \"mode\"";
      for (const char* key : {"ipc", "instructions", "llc_miss"})
        if (auto e = check_percentiles(*pmu, "pmu", key, ""); !e.empty()) return e;
    }
    for (const char* key : {"counters", "rates"})
      if (const json_value* v = doc->find(key); !v || !v->is_object())
        return std::string("missing object field \"") + key + "\"";
    const json_value* workers = doc->find("workers");
    if (!workers || !workers->is_array())
      return "missing array field \"workers\"";
    for (const json_value& row : workers->items()) {
      if (!row.is_object()) return "worker row is not an object";
      for (const char* key :
           {"worker", "tasks_per_s", "idle_rate", "stolen_per_s",
            "duration_p50_ns", "duration_p95_ns", "duration_p99_ns",
            "duration_samples"})
        if (const json_value* v = row.find(key); !v || !v->is_number())
          return std::string("worker row missing numeric field \"") + key +
                 "\"";
      // Optional per-worker IPC (PMU runs): both fields or neither.
      const json_value* ipc = row.find("ipc_p50");
      const json_value* ipc_n = row.find("ipc_samples");
      if ((ipc != nullptr) != (ipc_n != nullptr))
        return "worker row has only one of \"ipc_p50\"/\"ipc_samples\"";
      if (ipc != nullptr && (!ipc->is_number() || !ipc_n->is_number()))
        return "worker row ipc fields are not numeric";
    }
    return {};
  }
  if (type->as_string() == "incident") {
    if (const json_value* v = doc->find("kind"); !v || !v->is_string())
      return "incident missing string field \"kind\"";
    return need_number("t_ns");
  }
  return "unknown record type \"" + type->as_string() + "\"";
}

int run_check(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "gran_top: cannot open " << path << "\n";
    return 2;
  }
  std::string line;
  std::size_t lineno = 0, windows = 0, incidents = 0;
  std::int64_t last_seq = -1;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string err = check_line(line);
    if (!err.empty()) {
      std::cerr << "gran_top: " << path << ":" << lineno << ": " << err << "\n";
      return 1;
    }
    const auto doc = json_value::parse(line);
    if (doc->string_at("type") == "window") {
      ++windows;
      const auto seq = static_cast<std::int64_t>(doc->number_at("seq", -1));
      if (seq <= last_seq) {
        std::cerr << "gran_top: " << path << ":" << lineno
                  << ": window seq not increasing (" << seq << " after "
                  << last_seq << ")\n";
        return 1;
      }
      last_seq = seq;
    } else {
      ++incidents;
    }
  }
  if (windows == 0) {
    std::cerr << "gran_top: " << path << ": no window records\n";
    return 1;
  }
  std::cout << "gran_top: " << path << " OK — " << windows << " window(s), "
            << incidents << " incident(s)\n";
  return 0;
}

// --- rendering -------------------------------------------------------------

std::string fmt_rate(double v) {
  char buf[32];
  if (v >= 1e6)
    std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
  else if (v >= 1e3)
    std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string fmt_pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", v * 100.0);
  return buf;
}

void render(const json_value& w, const std::deque<std::string>& incidents,
            std::ostream& os) {
  const double dt = w.number_at("dt_s");
  const json_value* interval = w.find("interval");
  os << "window #" << static_cast<std::int64_t>(w.number_at("seq"))
     << "  dt=" << gran::format_number(dt * 1e3, 4) << " ms";
  if (interval) {
    os << "  tasks/s=" << fmt_rate(interval->number_at("tasks_per_s"))
       << "  idle=" << fmt_pct(interval->number_at("idle_rate"));
    if (const json_value* d = interval->find("task_duration"))
      os << "  dur p50/p95/p99="
         << gran::format_duration_ns(d->number_at("p50_ns")) << "/"
         << gran::format_duration_ns(d->number_at("p95_ns")) << "/"
         << gran::format_duration_ns(d->number_at("p99_ns"));
    if (const json_value* o = interval->find("task_overhead"))
      os << "  ovh p50=" << gran::format_duration_ns(o->number_at("p50_ns"));
  }
  os << "\n";
  // Second header line for service runs; batch streams (no service section)
  // render exactly as before.
  if (const json_value* svc = interval ? interval->find("service") : nullptr) {
    os << "service: acc/s=" << fmt_rate(svc->number_at("accepted_per_s"))
       << "  rej=" << fmt_pct(svc->number_at("rejection_rate"))
       << "  backlog="
       << static_cast<std::int64_t>(svc->number_at("backlog"));
    if (const json_value* soj = svc->find("sojourn"))
      os << "  soj p50/p95/p99="
         << gran::format_duration_ns(soj->number_at("p50_ns")) << "/"
         << gran::format_duration_ns(soj->number_at("p95_ns")) << "/"
         << gran::format_duration_ns(soj->number_at("p99_ns"));
    if (const json_value* qw = svc->find("queue_wait"))
      os << "  qwait p50/p99="
         << gran::format_duration_ns(qw->number_at("p50_ns")) << "/"
         << gran::format_duration_ns(qw->number_at("p99_ns"));
    os << "\n";
  }
  // PMU header line (only when the plane streamed a pmu section).
  if (const json_value* pmu = interval ? interval->find("pmu") : nullptr) {
    static const char* mode_names[] = {"off", "full", "reduced", "minimal",
                                       "software"};
    const int mode =
        static_cast<int>(pmu->number_at("mode", 0));
    os << "pmu: mode="
       << (mode >= 0 && mode <= 4 ? mode_names[mode] : "?");
    if (const json_value* ipc = pmu->find("ipc"))
      os << "  ipc p50/p95=" << gran::format_number(ipc->number_at("p50"), 3)
         << "/" << gran::format_number(ipc->number_at("p95"), 3);
    if (const json_value* ins = pmu->find("instructions"))
      os << "  instr/phase p50="
         << fmt_rate(ins->number_at("p50"));
    if (const json_value* llc = pmu->find("llc_miss"))
      os << "  llc/phase p50=" << fmt_rate(llc->number_at("p50"));
    os << "\n";
  }
  os << "\n";

  const json_value* workers = w.find("workers");
  if (workers && workers->size() > 0) {
    gran::table_writer t({"worker", "tasks/s", "idle", "stolen/s", "p50", "p95",
                          "p99", "samples", "ipc", "hb-age", "running"});
    for (const json_value& row : workers->items()) {
      std::string hb = "-", running = "-", ipc = "-";
      if (const json_value* age = row.find("heartbeat_age_ns")) {
        hb = gran::format_duration_ns(age->as_number());
        const auto task =
            static_cast<std::int64_t>(row.number_at("running_task", 0));
        if (task != 0)
          running = "#" + std::to_string(task) + " " +
                    gran::format_duration_ns(row.number_at("running_ns"));
      }
      // PMU plane off / software-degraded: no ipc field (or 0 samples).
      if (const json_value* v = row.find("ipc_p50")) {
        if (row.number_at("ipc_samples", 0) > 0)
          ipc = gran::format_number(v->as_number(), 3);
      }
      t.add_row({std::to_string(
                     static_cast<std::int64_t>(row.number_at("worker"))),
                 fmt_rate(row.number_at("tasks_per_s")),
                 fmt_pct(row.number_at("idle_rate")),
                 fmt_rate(row.number_at("stolen_per_s")),
                 gran::format_duration_ns(row.number_at("duration_p50_ns")),
                 gran::format_duration_ns(row.number_at("duration_p95_ns")),
                 gran::format_duration_ns(row.number_at("duration_p99_ns")),
                 std::to_string(static_cast<std::int64_t>(
                     row.number_at("duration_samples"))),
                 ipc, hb, running});
    }
    t.print(os);
  } else {
    os << "(no per-worker rows — is the thread manager running?)\n";
  }

  if (!incidents.empty()) {
    os << "\nincidents:\n";
    for (const auto& line : incidents) os << "  " << line << "\n";
  }
}

std::string describe_incident(const json_value& doc) {
  std::ostringstream ss;
  ss << doc.string_at("kind", "?");
  if (const json_value* wk = doc.find("worker"))
    ss << " worker " << static_cast<std::int64_t>(wk->as_number());
  const std::string detail = doc.string_at("detail");
  if (!detail.empty()) ss << ": " << detail;
  return ss.str();
}

int run_view(const std::string& path, bool follow, int interval_ms,
             std::size_t keep_incidents, bool clear) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "gran_top: cannot open " << path << "\n";
    return 2;
  }
  std::optional<json_value> last_window;
  std::deque<std::string> incidents;
  std::string line;
  bool dirty = false;
  for (;;) {
    while (std::getline(f, line)) {
      if (line.empty()) continue;
      const auto doc = json_value::parse(line);
      if (!doc || !doc->is_object()) continue;  // torn tail line; skip
      const std::string type = doc->string_at("type");
      if (type == "window") {
        last_window = *doc;
        dirty = true;
      } else if (type == "incident") {
        incidents.push_back(describe_incident(*doc));
        while (incidents.size() > keep_incidents) incidents.pop_front();
        dirty = true;
      }
    }
    if (!follow) break;
    if (dirty && last_window) {
      std::ostringstream frame;
      if (clear) frame << "\x1b[2J\x1b[H";
      frame << path << "\n\n";
      render(*last_window, incidents, frame);
      std::cout << frame.str() << std::flush;
      dirty = false;
    }
    f.clear();  // rewind EOF so appended lines are picked up
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  if (!last_window) {
    std::cerr << "gran_top: " << path << ": no window records yet\n";
    return 1;
  }
  render(*last_window, incidents, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gran::cli_args args(argc, argv);
  if (args.has("help")) {
    std::cout
        << "usage: gran_top --in=FILE [--follow] [--interval-ms=N]\n"
           "       gran_top --check=FILE  validate telemetry JSONL\n";
    return 0;
  }
  const std::string check = args.get("check", "");
  if (!check.empty()) return run_check(check);

  std::string in = args.get("in", "");
  if (in.empty() && !args.positional().empty()) in = args.positional().front();
  if (in.empty()) {
    std::cerr << "gran_top: no input (use --in=FILE or --check=FILE; --help for "
                 "usage)\n";
    return 2;
  }
  return run_view(in, args.get_bool("follow", false),
                  static_cast<int>(args.get_int("interval-ms", 500)),
                  static_cast<std::size_t>(args.get_int("incidents", 4)),
                  !args.get_bool("no-clear", false));
}
