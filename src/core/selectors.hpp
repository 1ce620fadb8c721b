// Grain-size selection rules derived from the paper's findings.
//
//  * idle-rate threshold (§IV-A): "an acceptable grain size can be
//    determined by setting a threshold for the idle-rate" — pick the
//    smallest granularity x whose idle-rate is at or below the threshold
//    (smallest = finest grain that still schedules efficiently, preserving
//    load-balancing headroom).
//  * pending-queue minimum (§IV-E): pick the x minimizing the pending-queue
//    access count — a timestamp-free alternative for platforms without
//    cheap high-resolution clocks.
//  * best execution time: the oracle both rules are judged against.
//
// x is the sweep's axis (core/experiment.hpp): a partition size or a kernel
// grain; the rules read the same on both.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/experiment.hpp"

namespace gran::core {

struct selection {
  double x = 0.0;                 // the granularity picked
  std::size_t index = 0;          // into the sweep
  double exec_time_s = 0.0;
  // Relative slowdown vs. the sweep's best execution time (0 = optimal).
  double regret = 0.0;
};

// Oracle: the sweep point with minimum mean execution time.
selection best_exec_time(const std::vector<sweep_point>& sweep);

// Smallest x with idle-rate <= threshold (paper uses 30%).
// Empty when no point satisfies the threshold.
std::optional<selection> idle_rate_threshold(const std::vector<sweep_point>& sweep,
                                             double threshold = 0.30);

// The x minimizing total pending-queue accesses.
selection pending_queue_minimum(const std::vector<sweep_point>& sweep);

// The three rules side by side: what each picks, its execution time and its
// regret.
table_writer rules_table(const std::vector<sweep_point>& sweep, double threshold,
                         const axis_format& axis);

}  // namespace gran::core
