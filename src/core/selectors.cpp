#include "core/selectors.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace gran::core {

namespace {

selection make_selection(const std::vector<sweep_point>& sweep, std::size_t index) {
  const double best = best_exec_time(sweep).exec_time_s;
  selection s;
  s.index = index;
  s.x = sweep[index].x;
  s.exec_time_s = sweep[index].exec_time_s.mean();
  s.regret = best > 0.0 ? s.exec_time_s / best - 1.0 : 0.0;
  return s;
}

}  // namespace

selection best_exec_time(const std::vector<sweep_point>& sweep) {
  GRAN_ASSERT_MSG(!sweep.empty(), "selector over an empty sweep");
  std::size_t best = 0;
  for (std::size_t i = 1; i < sweep.size(); ++i)
    if (sweep[i].exec_time_s.mean() < sweep[best].exec_time_s.mean()) best = i;
  selection s;
  s.index = best;
  s.x = sweep[best].x;
  s.exec_time_s = sweep[best].exec_time_s.mean();
  s.regret = 0.0;
  return s;
}

std::optional<selection> idle_rate_threshold(const std::vector<sweep_point>& sweep,
                                             double threshold) {
  GRAN_ASSERT_MSG(!sweep.empty(), "selector over an empty sweep");
  // Scan from the finest grain upward; the paper wants the *smallest*
  // acceptable grain.
  std::vector<std::size_t> order(sweep.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sweep[a].x < sweep[b].x;
  });
  for (const std::size_t i : order)
    if (sweep[i].m.idle_rate <= threshold) return make_selection(sweep, i);
  return std::nullopt;
}

selection pending_queue_minimum(const std::vector<sweep_point>& sweep) {
  GRAN_ASSERT_MSG(!sweep.empty(), "selector over an empty sweep");
  std::size_t best = 0;
  for (std::size_t i = 1; i < sweep.size(); ++i)
    if (sweep[i].mean.pending_accesses < sweep[best].mean.pending_accesses) best = i;
  return make_selection(sweep, best);
}

table_writer rules_table(const std::vector<sweep_point>& sweep, double threshold,
                         const axis_format& axis) {
  const auto regret = [](const selection& s) {
    return std::string("+").append(format_number(s.regret * 100, 1)).append("%");
  };
  const selection best = best_exec_time(sweep);
  const auto by_idle = idle_rate_threshold(sweep, threshold);
  const selection by_queue = pending_queue_minimum(sweep);
  const std::string idle_rule =
      std::string("idle-rate <= ").append(format_number(threshold * 100, 0)).append("% (SIV-A)");

  table_writer rules({"rule", "picks " + axis.title, "exec (s)", "vs best"});
  rules.add_row({"best execution time (oracle)", axis.cell(best.x),
                 format_number(best.exec_time_s, 4), "-"});
  if (by_idle)
    rules.add_row({idle_rule, axis.cell(by_idle->x), format_number(by_idle->exec_time_s, 4),
                   regret(*by_idle)});
  else
    rules.add_row({idle_rule, "unsatisfiable", "-", "-"});
  rules.add_row({"min pending-queue accesses (SIV-E)", axis.cell(by_queue.x),
                 format_number(by_queue.exec_time_s, 4), regret(by_queue)});
  return rules;
}

}  // namespace gran::core
