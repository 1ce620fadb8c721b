#include "perf/watchdog.hpp"

#include <cstdio>

namespace gran::perf {

namespace {

std::string format_ms(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f ms", ns / 1e6);
  return buf;
}

}  // namespace

const char* to_string(stall_kind kind) {
  switch (kind) {
    case stall_kind::stuck_task: return "stuck-task";
    case stall_kind::starved_backlogged: return "starved-backlogged";
    case stall_kind::flatline: return "flatline";
  }
  return "?";
}

stall_stats& stall_stats::instance() {
  static stall_stats s;
  return s;
}

void stall_stats::reset() noexcept {
  stuck.store(0, std::memory_order_relaxed);
  starved.store(0, std::memory_order_relaxed);
  flatline.store(0, std::memory_order_relaxed);
}

stall_watchdog::stall_watchdog(watchdog_options opt) : opt_(opt) {}

void stall_watchdog::reset() {
  reported_phase_.clear();
  starved_run_ = 0;
  flatline_run_ = 0;
  starved_open_ = false;
  flatline_open_ = false;
}

std::vector<stall_incident> stall_watchdog::check(const window_snapshot& w) {
  std::vector<stall_incident> out;

  // --- stuck task: one phase executing longer than the threshold ---------
  bool any_phase_in_flight = false;
  for (const worker_window& row : w.workers) {
    if (row.running_task == 0) {
      reported_phase_.erase(row.worker);  // phase ended; rearm
      continue;
    }
    any_phase_in_flight = true;
    if (row.running_ns < static_cast<double>(opt_.stuck_ns)) continue;
    const auto [flagged, fresh] = reported_phase_.try_emplace(row.worker, row.phases);
    if (!fresh && flagged->second == row.phases) continue;
    flagged->second = row.phases;
    stall_stats::instance().stuck.fetch_add(1, std::memory_order_relaxed);

    stall_incident inc;
    inc.kind = stall_kind::stuck_task;
    inc.detected_at_ns = w.t_end_ns;
    inc.worker = row.worker;
    inc.task_id = row.running_task;
    inc.age_ns = row.running_ns;
    inc.detail = "task " + std::to_string(inc.task_id) + " executing on worker " +
                 std::to_string(row.worker) + " for " + format_ms(row.running_ns) +
                 " (threshold " + format_ms(static_cast<double>(opt_.stuck_ns)) +
                 ")";
    out.push_back(std::move(inc));
  }

  // --- starved-but-backlogged: work queued, workers starving, no flow ----
  const double starving = w.value_or("/threads/count/instantaneous/starving", 0);
  const double queued = w.value_or("/threads/count/instantaneous/queued", 0);
  if (starving > 0 && queued > 0 && w.tasks_delta == 0) {
    ++starved_run_;
    if (starved_run_ >= opt_.starved_ticks && !starved_open_) {
      starved_open_ = true;
      stall_stats::instance().starved.fetch_add(1, std::memory_order_relaxed);
      stall_incident inc;
      inc.kind = stall_kind::starved_backlogged;
      inc.detected_at_ns = w.t_end_ns;
      inc.age_ns = static_cast<double>(starved_run_) * w.dt_s * 1e9;
      inc.detail = std::to_string(static_cast<long>(starving)) +
                   " worker(s) starving with " +
                   std::to_string(static_cast<long>(queued)) +
                   " task(s) queued and zero completions for " +
                   std::to_string(starved_run_) + " windows";
      out.push_back(std::move(inc));
    }
  } else {
    starved_run_ = 0;
    starved_open_ = false;
  }

  // --- flatline: tasks alive, nothing executing, nothing in flight -------
  // `any_phase_in_flight` guards against flagging one long-running legit
  // task (that is stuck_task's job, with its own larger threshold).
  const double alive = w.value_or("/threads/count/instantaneous/alive", 0);
  const double phases_delta = w.delta_or("/threads/count/cumulative-phases", 0);
  if (alive > 0 && w.tasks_delta == 0 && phases_delta == 0 && !any_phase_in_flight) {
    ++flatline_run_;
    if (flatline_run_ >= opt_.flatline_ticks && !flatline_open_) {
      flatline_open_ = true;
      stall_stats::instance().flatline.fetch_add(1, std::memory_order_relaxed);
      stall_incident inc;
      inc.kind = stall_kind::flatline;
      inc.detected_at_ns = w.t_end_ns;
      inc.age_ns = static_cast<double>(flatline_run_) * w.dt_s * 1e9;
      inc.detail = std::to_string(static_cast<long>(alive)) +
                   " task(s) alive but no phase started or completed for " +
                   std::to_string(flatline_run_) +
                   " windows (suspected deadlock)";
      out.push_back(std::move(inc));
    }
  } else {
    flatline_run_ = 0;
    flatline_open_ = false;
  }

  return out;
}

}  // namespace gran::perf
