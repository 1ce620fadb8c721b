// gran::async / gran::post — spawn a callable as a lightweight task.
//
// async(f, args...) schedules f(args...) on the resolved thread manager
// (current worker's, else the process default) and returns a future for its
// result. This mirrors hpx::async, the API the paper's benchmark uses to
// launch every partition update (§I-C). Callables and arguments only need
// to be movable: task bodies are unique_function, so a callable may capture
// a std::unique_ptr.
#pragma once

#include <tuple>
#include <type_traits>
#include <utility>

#include "async/future.hpp"

namespace gran {

template <typename F, typename... Args>
auto async_on(thread_manager& tm, task_priority priority, F&& f, Args&&... args) {
  using R = std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>&...>;
  auto st = std::make_shared<detail::shared_state<R>>();
  tm.spawn(
      [st, f = std::forward<F>(f),
       args_tuple = std::make_tuple(std::forward<Args>(args)...)]() mutable {
        detail::fulfill_state<R>(*st, [&]() -> decltype(auto) {
          return std::apply([&](auto&... unpacked) -> decltype(auto) { return f(unpacked...); },
                            args_tuple);
        });
      },
      priority, "async");
  return future<R>(st);
}

template <typename F, typename... Args>
  requires std::invocable<std::decay_t<F>, std::decay_t<Args>&...>
auto async(F&& f, Args&&... args) {
  return async_on(resolve_manager(), task_priority::normal, std::forward<F>(f),
                  std::forward<Args>(args)...);
}

template <typename F, typename... Args>
  requires std::invocable<std::decay_t<F>, std::decay_t<Args>&...>
auto async(task_priority priority, F&& f, Args&&... args) {
  return async_on(resolve_manager(), priority, std::forward<F>(f),
                  std::forward<Args>(args)...);
}

// Fire-and-forget: schedules f(args...) with no future (cheaper — no shared
// state allocation).
template <typename F, typename... Args>
void post(F&& f, Args&&... args) {
  resolve_manager().spawn(
      [f = std::forward<F>(f),
       args_tuple = std::make_tuple(std::forward<Args>(args)...)]() mutable {
        std::apply([&](auto&... unpacked) { f(unpacked...); }, args_tuple);
      },
      task_priority::normal, "post");
}

}  // namespace gran
