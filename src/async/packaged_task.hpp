// packaged_task<R(Args...)>: binds a callable to a promise so the call can
// be scheduled anywhere (a task, an external thread, a test harness) and
// observed through the future.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "async/future.hpp"

namespace gran {

template <typename Signature>
class packaged_task;

template <typename R, typename... Args>
class packaged_task<R(Args...)> {
 public:
  packaged_task() = default;

  template <typename F>
    requires std::is_invocable_r_v<R, std::decay_t<F>&, Args...>
  explicit packaged_task(F&& f)
      : fn_(std::forward<F>(f)), st_(std::make_shared<detail::shared_state<R>>()) {}

  packaged_task(packaged_task&&) noexcept = default;
  packaged_task& operator=(packaged_task&&) noexcept = default;
  packaged_task(const packaged_task&) = delete;
  packaged_task& operator=(const packaged_task&) = delete;

  bool valid() const noexcept { return st_ != nullptr; }

  future<R> get_future() const {
    GRAN_ASSERT_MSG(valid(), "get_future on empty packaged_task");
    return future<R>(st_);
  }

  // Invokes the stored callable, fulfilling the future with its result or
  // exception. A second invocation throws std::future_error.
  void operator()(Args... args) {
    GRAN_ASSERT_MSG(valid(), "call of empty packaged_task");
    detail::fulfill_state<R>(*st_, [&]() -> decltype(auto) {
      return fn_(std::forward<Args>(args)...);
    });
  }

 private:
  std::function<R(Args...)> fn_;
  std::shared_ptr<detail::shared_state<R>> st_;
};

}  // namespace gran
