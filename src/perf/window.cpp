#include "perf/window.hpp"

#include <algorithm>
#include <chrono>
#include <map>

namespace gran::perf {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// "worker#12" -> 12, or -1 for any other instance selector.
int worker_of_instance(const std::string& instance) {
  constexpr const char* tag = "worker#";
  constexpr std::size_t tag_len = 7;
  if (instance.rfind(tag, 0) != 0 || instance.size() == tag_len) return -1;
  int w = 0;
  for (std::size_t i = tag_len; i < instance.size(); ++i) {
    const char c = instance[i];
    if (c < '0' || c > '9') return -1;
    w = w * 10 + (c - '0');
  }
  return w;
}

}  // namespace

const window_metric* window_snapshot::find(const std::string& path) const {
  const auto it = std::lower_bound(
      metrics.begin(), metrics.end(), path,
      [](const window_metric& m, const std::string& p) { return m.path < p; });
  return it != metrics.end() && it->path == path ? &*it : nullptr;
}

const window_histogram* window_snapshot::find_histogram(const std::string& name) const {
  const auto it = std::lower_bound(
      histograms.begin(), histograms.end(), name,
      [](const window_histogram& h, const std::string& n) { return h.name < n; });
  return it != histograms.end() && it->name == name ? &*it : nullptr;
}

double window_snapshot::value_or(const std::string& path, double def) const {
  const window_metric* m = find(path);
  return m != nullptr ? m->value : def;
}

double window_snapshot::delta_or(const std::string& path, double def) const {
  const window_metric* m = find(path);
  return m != nullptr ? m->delta : def;
}

double window_snapshot::rate_or(const std::string& path, double def) const {
  const window_metric* m = find(path);
  return m != nullptr ? m->rate_per_s : def;
}

namespace {

// Fills `out` from the window delta of histogram `name`; false when the
// window has no such histogram. `unit` histogram units make one reported
// unit (1000 for the milli-IPC histograms).
bool summarize(const window_snapshot& w, const std::string& name,
               percentile_summary& out, double unit = 1) {
  const window_histogram* h = w.find_histogram(name);
  if (h == nullptr) return false;
  out.p50 = h->delta.percentile(50) / unit;
  out.p95 = h->delta.percentile(95) / unit;
  out.p99 = h->delta.percentile(99) / unit;
  out.mean = h->delta.mean() / unit;
  out.count = h->delta.count;
  return true;
}

}  // namespace

window_aggregator::window_aggregator(window_options opt) : opt_(std::move(opt)) {
  if (opt_.prefixes.empty()) opt_.prefixes.push_back("/threads");
  window_start_ns_ = now_ns();
  for (const auto& prefix : opt_.prefixes) {
    registry::batch b = registry::instance().sample(prefix);
    for (const registry::sampled_counter& c : b.counters) prev_values_[c.path] = c.value;
    for (auto& [name, snap] : b.histograms) prev_hists_[name] = snap;
  }
}

window_snapshot window_aggregator::tick() {
  window_snapshot w;
  w.seq = ++seq_;
  w.t_start_ns = window_start_ns_;

  // The counter set is re-resolved every tick (no frozen columns): values,
  // kinds and histogram snapshots cost one registry batch per prefix.
  std::vector<registry::batch> batches;
  batches.reserve(opt_.prefixes.size());
  for (const auto& prefix : opt_.prefixes)
    batches.push_back(registry::instance().sample(prefix));
  w.t_end_ns = now_ns();
  w.dt_s = static_cast<double>(w.t_end_ns - w.t_start_ns) / 1e9;
  const double dt = w.dt_s > 0 ? w.dt_s : 1e-9;

  for (registry::batch& b : batches) {
    for (registry::sampled_counter& c : b.counters) {
      window_metric m;
      m.kind = c.kind;
      m.value = c.value;
      const auto prev = prev_values_.find(c.path);
      const double base = prev != prev_values_.end() ? prev->second : 0.0;
      if (m.kind == counter_kind::monotonic) {
        // A monotonic counter that went backwards was reset (new manager,
        // reset_counters): restart the delta from the new value.
        m.delta = c.value >= base ? c.value - base : c.value;
        m.rate_per_s = m.delta / dt;
      } else {
        m.delta = c.value - base;
        m.rate_per_s = 0;
      }
      m.path = std::move(c.path);
      w.metrics.push_back(std::move(m));
    }
    for (auto& [name, snap] : b.histograms) {
      window_histogram h;
      h.cumulative = snap;
      const auto prev = prev_hists_.find(name);
      h.delta = prev != prev_hists_.end()
                    ? snap.snapshot_delta(prev->second, &h.reset_detected)
                    : snap;
      h.name = std::move(name);
      w.histograms.push_back(std::move(h));
    }
  }
  std::sort(w.metrics.begin(), w.metrics.end(),
            [](const window_metric& a, const window_metric& b) { return a.path < b.path; });
  std::sort(w.histograms.begin(), w.histograms.end(),
            [](const window_histogram& a, const window_histogram& b) {
              return a.name < b.name;
            });

  // Interval Eq. 1–3: the same definitions as the cumulative counters,
  // applied to this window's deltas.
  const double d_func = w.delta_or("/threads/time/overall", 0);
  const double d_exec = w.delta_or("/threads/time/cumulative", 0);
  w.idle_rate = d_func > 0 ? std::max(0.0, d_func - d_exec) / d_func : 0.0;
  w.tasks_delta =
      static_cast<std::uint64_t>(std::max(0.0, w.delta_or("/threads/count/cumulative", 0)));
  w.tasks_per_s = static_cast<double>(w.tasks_delta) / dt;
  summarize(w, "/threads/histogram/task-duration", w.task_duration);
  summarize(w, "/threads/histogram/task-overhead", w.task_overhead);

  // Service-ingress signals, present only while a task_service is
  // registered (the /service prefix matches nothing otherwise).
  if (const window_metric* m = w.find("/service/count/submitted")) {
    w.has_service = true;
    const double d_submitted = m->delta;
    const double d_rejected = w.delta_or("/service/count/rejected", 0);
    w.accepted_per_s = w.rate_or("/service/count/accepted", 0);
    w.rejected_per_s = w.rate_or("/service/count/rejected", 0);
    w.completed_per_s = w.rate_or("/service/count/completed", 0);
    w.rejection_rate = d_submitted > 0 ? d_rejected / d_submitted : 0.0;
    w.service_backlog = w.value_or("/service/backlog", 0);
  }
  if (summarize(w, "/service/histogram/sojourn", w.sojourn)) w.has_service = true;
  if (summarize(w, "/service/histogram/queue-wait", w.queue_wait)) w.has_service = true;

  // PMU-plane signals (perf/pmu.hpp): /threads/pmu/mode reads 0 while the
  // plane is off, which keeps has_pmu (and the stream's optional pmu
  // section) gated without a dependency on the plane itself.
  w.pmu_mode = static_cast<int>(w.value_or("/threads/pmu/mode", 0));
  w.has_pmu = w.pmu_mode != 0;
  summarize(w, "/threads/histogram/task-ipc", w.ipc, 1000);
  summarize(w, "/threads/histogram/task-instructions", w.instructions);
  summarize(w, "/threads/histogram/task-llc-miss", w.llc);

  // Per-worker rows from the instance counters and liveness gauges.
  std::map<int, worker_window> by_worker;
  for (const auto& m : w.metrics) {
    const auto parsed = counter_path::parse(m.path);
    if (!parsed || parsed->instance.empty()) continue;
    const int wk = worker_of_instance(parsed->instance);
    if (wk < 0) continue;
    worker_window& row = by_worker[wk];
    row.worker = wk;
    const std::string& name = parsed->name;
    if (name == "count/cumulative")
      row.tasks_per_s = m.rate_per_s;
    else if (name == "count/stolen")
      row.stolen_per_s = m.rate_per_s;
    else if (name == "count/cumulative-phases")
      row.phases = static_cast<std::uint64_t>(m.value);
    else if (name == "watchdog/heartbeat-age-ns")
      row.heartbeat_age_ns = m.value;
    else if (name == "watchdog/running-task")
      row.running_task = static_cast<std::uint64_t>(m.value);
    else if (name == "watchdog/running-ns")
      row.running_ns = m.value;
  }
  for (auto& [wk, row] : by_worker) {
    const std::string inst = "/threads{worker#" + std::to_string(wk) + "}";
    const double wd_func = w.delta_or(inst + "/time/overall", 0);
    const double wd_exec = w.delta_or(inst + "/time/cumulative", 0);
    row.idle_rate = wd_func > 0 ? std::max(0.0, wd_func - wd_exec) / wd_func : 0.0;
    summarize(w, inst + "/histogram/task-duration", row.duration);
    summarize(w, inst + "/histogram/task-ipc", row.ipc, 1000);
  }
  w.workers.reserve(by_worker.size());
  for (auto& [wk, row] : by_worker) w.workers.push_back(std::move(row));

  // This window's end is the next one's baseline.
  window_start_ns_ = w.t_end_ns;
  prev_values_.clear();
  for (const auto& m : w.metrics) prev_values_[m.path] = m.value;
  prev_hists_.clear();
  for (const auto& h : w.histograms) prev_hists_[h.name] = h.cumulative;

  return w;
}

}  // namespace gran::perf
