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

window_aggregator::window_aggregator(window_options opt) : opt_(std::move(opt)) {
  if (opt_.prefixes.empty()) opt_.prefixes.push_back("/threads");
  window_start_ns_ = now_ns();
  for (const auto& prefix : opt_.prefixes) {
    for (auto& [path, v] : registry::instance().query_all(prefix))
      prev_values_[path] = v.value;
    for (auto& [name, snap] : histogram_registry::instance().snap_all(prefix))
      prev_hists_[name] = snap;
  }
}

window_snapshot window_aggregator::tick() {
  window_snapshot w;
  w.seq = ++seq_;
  w.t_start_ns = window_start_ns_;

  // The counter set is re-resolved every tick (no frozen columns): kinds and
  // values each cost one registry lock per prefix.
  std::vector<std::pair<std::string, counter_value>> sampled;
  std::map<std::string, counter_kind> kinds;
  std::vector<std::pair<std::string, histogram_snapshot>> hists;
  for (const auto& prefix : opt_.prefixes) {
    auto part = registry::instance().query_all(prefix);
    sampled.insert(sampled.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    for (auto& [path, kind] : registry::instance().kinds_of_prefix(prefix))
      kinds.emplace(path, kind);
    auto hpart = histogram_registry::instance().snap_all(prefix);
    hists.insert(hists.end(), std::make_move_iterator(hpart.begin()),
                 std::make_move_iterator(hpart.end()));
  }
  w.t_end_ns = now_ns();
  w.dt_s = static_cast<double>(w.t_end_ns - w.t_start_ns) / 1e9;
  const double dt = w.dt_s > 0 ? w.dt_s : 1e-9;

  w.metrics.reserve(sampled.size());
  for (auto& [path, v] : sampled) {
    window_metric m;
    m.kind = [&] {
      const auto it = kinds.find(path);
      return it != kinds.end() ? it->second : counter_kind::gauge;
    }();
    m.value = v.value;
    const auto prev = prev_values_.find(path);
    const double base = prev != prev_values_.end() ? prev->second : 0.0;
    if (m.kind == counter_kind::monotonic) {
      // A monotonic counter that went backwards was reset (new manager,
      // reset_counters): restart the delta from the new value.
      m.delta = v.value >= base ? v.value - base : v.value;
      m.rate_per_s = m.delta / dt;
    } else {
      m.delta = v.value - base;
      m.rate_per_s = 0;
    }
    m.path = std::move(path);
    w.metrics.push_back(std::move(m));
  }
  std::sort(w.metrics.begin(), w.metrics.end(),
            [](const window_metric& a, const window_metric& b) { return a.path < b.path; });

  w.histograms.reserve(hists.size());
  for (auto& [name, snap] : hists) {
    window_histogram h;
    h.cumulative = snap;
    const auto prev = prev_hists_.find(name);
    h.delta = prev != prev_hists_.end()
                  ? snap.snapshot_delta(prev->second, &h.reset_detected)
                  : snap;
    h.name = std::move(name);
    w.histograms.push_back(std::move(h));
  }
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

  if (const window_histogram* h = w.find_histogram("/threads/histogram/task-duration")) {
    w.task_duration_p50_ns = h->delta.percentile(50);
    w.task_duration_p95_ns = h->delta.percentile(95);
    w.task_duration_p99_ns = h->delta.percentile(99);
    w.task_duration_mean_ns = h->delta.mean();
  }
  if (const window_histogram* h = w.find_histogram("/threads/histogram/task-overhead")) {
    w.task_overhead_p50_ns = h->delta.percentile(50);
    w.task_overhead_p95_ns = h->delta.percentile(95);
    w.task_overhead_p99_ns = h->delta.percentile(99);
    w.task_overhead_mean_ns = h->delta.mean();
  }

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
  if (const window_histogram* h = w.find_histogram("/service/histogram/sojourn")) {
    w.has_service = true;
    w.sojourn_p50_ns = h->delta.percentile(50);
    w.sojourn_p95_ns = h->delta.percentile(95);
    w.sojourn_p99_ns = h->delta.percentile(99);
    w.sojourn_mean_ns = h->delta.mean();
    w.sojourn_count = h->delta.count;
  }
  if (const window_histogram* h =
          w.find_histogram("/service/histogram/queue-wait")) {
    w.has_service = true;
    w.queue_wait_p50_ns = h->delta.percentile(50);
    w.queue_wait_p95_ns = h->delta.percentile(95);
    w.queue_wait_p99_ns = h->delta.percentile(99);
    w.queue_wait_mean_ns = h->delta.mean();
    w.queue_wait_count = h->delta.count;
  }

  // PMU-plane signals (perf/pmu.hpp): /threads/pmu/mode reads 0 while the
  // plane is off, which keeps has_pmu (and the stream's optional pmu
  // section) gated without a dependency on the plane itself. The task-ipc
  // histogram stores milli-IPC; convert back to IPC here.
  w.pmu_mode = static_cast<int>(w.value_or("/threads/pmu/mode", 0));
  w.has_pmu = w.pmu_mode != 0;
  if (const window_histogram* h =
          w.find_histogram("/threads/histogram/task-ipc")) {
    w.ipc_p50 = h->delta.percentile(50) / 1000.0;
    w.ipc_p95 = h->delta.percentile(95) / 1000.0;
    w.ipc_p99 = h->delta.percentile(99) / 1000.0;
    w.ipc_mean = h->delta.mean() / 1000.0;
    w.ipc_samples = h->delta.count;
  }
  if (const window_histogram* h =
          w.find_histogram("/threads/histogram/task-instructions")) {
    w.instructions_p50 = h->delta.percentile(50);
    w.instructions_p95 = h->delta.percentile(95);
    w.instructions_p99 = h->delta.percentile(99);
    w.instructions_mean = h->delta.mean();
    w.instructions_samples = h->delta.count;
  }
  if (const window_histogram* h =
          w.find_histogram("/threads/histogram/task-llc-miss")) {
    w.llc_p50 = h->delta.percentile(50);
    w.llc_p95 = h->delta.percentile(95);
    w.llc_p99 = h->delta.percentile(99);
    w.llc_mean = h->delta.mean();
    w.llc_samples = h->delta.count;
  }

  // Per-worker rows from the instance counters.
  std::map<int, worker_window> by_worker;
  for (const auto& m : w.metrics) {
    const auto parsed = counter_path::parse(m.path);
    if (!parsed || parsed->instance.empty()) continue;
    const int wk = worker_of_instance(parsed->instance);
    if (wk < 0) continue;
    worker_window& row = by_worker[wk];
    row.worker = wk;
    if (parsed->name == "count/cumulative")
      row.tasks_per_s = m.rate_per_s;
    else if (parsed->name == "count/stolen")
      row.stolen_per_s = m.rate_per_s;
  }
  for (auto& [wk, row] : by_worker) {
    const std::string inst = "/threads{worker#" + std::to_string(wk) + "}";
    const double wd_func = w.delta_or(inst + "/time/overall", 0);
    const double wd_exec = w.delta_or(inst + "/time/cumulative", 0);
    row.idle_rate = wd_func > 0 ? std::max(0.0, wd_func - wd_exec) / wd_func : 0.0;
    if (const window_histogram* h = w.find_histogram(inst + "/histogram/task-duration")) {
      row.duration_p50_ns = h->delta.percentile(50);
      row.duration_p95_ns = h->delta.percentile(95);
      row.duration_p99_ns = h->delta.percentile(99);
      row.duration_samples = h->delta.count;
    }
    if (const window_histogram* h =
            w.find_histogram(inst + "/histogram/task-ipc")) {
      row.ipc_p50 = h->delta.percentile(50) / 1000.0;
      row.ipc_samples = h->delta.count;
    }
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
