#include "perf/exporter.hpp"

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>

namespace gran::perf {

namespace {

// JSON forbids NaN/Inf; every number the stream carries funnels through here.
double finite(double v) { return std::isfinite(v) ? v : 0.0; }

void write_number(std::ostream& os, double v) {
  v = finite(v);
  // Integers print without a fraction to keep the stream compact and the
  // counter values exact.
  if (v == static_cast<std::int64_t>(v) && std::fabs(v) < 9.2e18) {
    os << static_cast<std::int64_t>(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    os << buf;
  }
}

}  // namespace

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

// One percentile object, "key":{"p50<suffix>":..,"p95<suffix>":..,
// "p99<suffix>":..,"mean<suffix>":..,"count":..}: suffix "_ns" for the
// latency groups, none for the PMU plane's dimensionless ones.
void write_percentiles(std::ostream& os, const char* key, const percentile_summary& s,
                       const char* suffix) {
  os << '"' << key << "\":{\"p50" << suffix << "\":";
  write_number(os, s.p50);
  os << ",\"p95" << suffix << "\":";
  write_number(os, s.p95);
  os << ",\"p99" << suffix << "\":";
  write_number(os, s.p99);
  os << ",\"mean" << suffix << "\":";
  write_number(os, s.mean);
  os << ",\"count\":" << s.count << "}";
}

}  // namespace

void write_window_jsonl(std::ostream& os, const window_snapshot& w) {
  os << "{\"type\":\"window\",\"seq\":" << w.seq
     << ",\"t_start_ns\":" << w.t_start_ns << ",\"t_end_ns\":" << w.t_end_ns
     << ",\"dt_s\":";
  write_number(os, w.dt_s);

  os << ",\"interval\":{\"idle_rate\":";
  write_number(os, w.idle_rate);
  os << ",\"tasks\":" << w.tasks_delta << ",\"tasks_per_s\":";
  write_number(os, w.tasks_per_s);
  os << ",";
  write_percentiles(os, "task_duration", w.task_duration, "_ns");
  os << ",";
  write_percentiles(os, "task_overhead", w.task_overhead, "_ns");
  if (w.has_service) {
    // Optional section: present only while a task_service is registered.
    // Consumers (gran_top) treat its absence as "batch run", not an error.
    os << ",\"service\":{\"accepted_per_s\":";
    write_number(os, w.accepted_per_s);
    os << ",\"rejected_per_s\":";
    write_number(os, w.rejected_per_s);
    os << ",\"completed_per_s\":";
    write_number(os, w.completed_per_s);
    os << ",\"rejection_rate\":";
    write_number(os, w.rejection_rate);
    os << ",\"backlog\":";
    write_number(os, w.service_backlog);
    os << ",";
    write_percentiles(os, "sojourn", w.sojourn, "_ns");
    os << ",";
    write_percentiles(os, "queue_wait", w.queue_wait, "_ns");
    os << "}";
  }
  if (w.has_pmu) {
    // Optional section: present only while the PMU plane is enabled.
    os << ",\"pmu\":{\"mode\":" << w.pmu_mode << ",";
    write_percentiles(os, "ipc", w.ipc, "");
    os << ",";
    write_percentiles(os, "instructions", w.instructions, "");
    os << ",";
    write_percentiles(os, "llc_miss", w.llc, "");
    os << "}";
  }
  os << "}";

  os << ",\"counters\":{";
  bool first = true;
  for (const window_metric& m : w.metrics) {
    if (!first) os << ",";
    first = false;
    write_json_string(os, m.path);
    os << ":";
    write_number(os, m.value);
  }
  os << "},\"rates\":{";
  first = true;
  for (const window_metric& m : w.metrics) {
    if (m.kind != counter_kind::monotonic) continue;
    if (!first) os << ",";
    first = false;
    write_json_string(os, m.path);
    os << ":";
    write_number(os, m.rate_per_s);
  }
  os << "},\"workers\":[";
  first = true;
  for (const worker_window& row : w.workers) {
    if (!first) os << ",";
    first = false;
    os << "{\"worker\":" << row.worker << ",\"tasks_per_s\":";
    write_number(os, row.tasks_per_s);
    os << ",\"idle_rate\":";
    write_number(os, row.idle_rate);
    os << ",\"stolen_per_s\":";
    write_number(os, row.stolen_per_s);
    os << ",\"duration_p50_ns\":";
    write_number(os, row.duration.p50);
    os << ",\"duration_p95_ns\":";
    write_number(os, row.duration.p95);
    os << ",\"duration_p99_ns\":";
    write_number(os, row.duration.p99);
    os << ",\"duration_samples\":" << row.duration.count;
    if (w.has_pmu) {
      os << ",\"ipc_p50\":";
      write_number(os, row.ipc.p50);
      os << ",\"ipc_samples\":" << row.ipc.count;
    }
    if (row.heartbeat_age_ns >= 0) {
      os << ",\"heartbeat_age_ns\":";
      write_number(os, row.heartbeat_age_ns);
      os << ",\"running_task\":" << row.running_task << ",\"running_ns\":";
      write_number(os, row.running_ns);
    }
    os << "}";
  }
  os << "]}\n";
}

metrics_sink::~metrics_sink() { close(); }

bool metrics_sink::open(const std::string& destination) {
  close();
  destination_ = destination;
  fd_ = ::open(destination.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    std::fprintf(stderr, "[gran] metrics sink '%s' unavailable: %s\n",
                 destination.c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

void metrics_sink::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void metrics_sink::write(const std::string& data) {
  if (fd_ < 0) return;
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "[gran] metrics sink '%s' failed: %s (disabling)\n",
                   destination_.c_str(), std::strerror(errno));
      close();
      return;
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_ += data.size();
}

}  // namespace gran::perf
