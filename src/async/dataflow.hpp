// gran::dataflow — the data-driven task launcher of the benchmark.
//
// dataflow(f, fut...) spawns f(fut...) as a new task as soon as *all* input
// futures are ready (f receives the ready futures themselves, HPX-style).
// If f returns a future it is unwrapped. This is the facility with which
// HPX-Stencil "creates task dependencies that mirror the data dependencies
// described by the original algorithm" (paper §I-C): the returned future is
// a node of the execution tree, the inputs are its incoming edges.
#pragma once

#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "async/future.hpp"

namespace gran {

// Each call builds one node (detail::dataflow_node): the result state, the
// callable, the inputs and an edge record per input, in one allocation.
template <typename F, typename... Ts>
auto dataflow_on(thread_manager& tm, task_priority priority, F&& f,
                 future<Ts>... inputs) {
  using R = std::invoke_result_t<std::decay_t<F>, future<Ts>&...>;
  return detail::start_dataflow<R, sizeof...(Ts)>(
      tm, priority, -1, "dataflow", std::forward<F>(f),
      std::tuple<future<Ts>...>(std::move(inputs)...));
}

template <typename F, typename... Ts>
auto dataflow(F&& f, future<Ts>... inputs) {
  return dataflow_on(resolve_manager(), task_priority::normal, std::forward<F>(f),
                     std::move(inputs)...);
}

template <typename F, typename... Ts>
auto dataflow(task_priority priority, F&& f, future<Ts>... inputs) {
  return dataflow_on(resolve_manager(), priority, std::forward<F>(f),
                     std::move(inputs)...);
}

// Vector form: f receives const std::vector<future<T>>&. The _on variant
// pins the spawn to an explicit manager (the graph executor futurizes
// whole DAGs on a freshly built pool this way). `worker_hint` >= 0 asks the
// policy to queue the fired task on that worker (NUMA-aware home placement
// — see thread_manager::home_worker_for_block); -1 keeps the default
// spawn-local routing.
template <typename F, typename T>
auto dataflow_all_on(thread_manager& manager, task_priority priority, F&& f,
                     std::vector<future<T>> inputs, int worker_hint = -1) {
  using R = std::invoke_result_t<std::decay_t<F>, const std::vector<future<T>>&>;
  return detail::start_dataflow<R, detail::k_inline_edges>(
      manager, priority, worker_hint, "dataflow", std::forward<F>(f),
      std::move(inputs));
}

template <typename F, typename T>
auto dataflow_all(F&& f, std::vector<future<T>> inputs,
                  task_priority priority = task_priority::normal) {
  return dataflow_all_on(resolve_manager(), priority, std::forward<F>(f),
                         std::move(inputs));
}

}  // namespace gran
