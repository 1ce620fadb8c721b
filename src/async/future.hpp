// future / promise.
//
// gran::future has *shared-future* semantics (copyable; get() returns a
// const reference) because the paper's benchmark wires each partition's
// future into the dependency tree of up to three consumers per time step —
// exactly how HPX-Stencil uses hpx::shared_future. An alias shared_future
// exists for intent-revealing code.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "async/shared_state.hpp"
#include "threads/runtime.hpp"
#include "threads/thread_manager.hpp"

namespace gran {

template <typename T>
class future;

namespace detail {

// Routes the result of `call` (value, void return, or thrown exception)
// into a shared state.
template <typename R, typename F>
void fulfill_state(shared_state<R>& st, F&& call) {
  if constexpr (std::is_void_v<R>) {
    try {
      std::forward<F>(call)();
      st.set_value();
    } catch (...) {
      st.set_exception(std::current_exception());
    }
  } else {
    try {
      st.set_value(std::forward<F>(call)());
    } catch (...) {
      st.set_exception(std::current_exception());
    }
  }
}

// Result-type unwrapping: future<future<U>> collapses to future<U>.
template <typename R>
struct unwrap_result {
  using type = R;
  static constexpr bool is_future = false;
};
template <typename U>
struct unwrap_result<future<U>> {
  using type = U;
  static constexpr bool is_future = true;
};

}  // namespace detail

template <typename T>
class future {
 public:
  using state_type = detail::shared_state<T>;

  // Default-constructed futures are invalid (valid() == false).
  future() = default;
  explicit future(std::shared_ptr<state_type> state) : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }
  bool is_ready() const noexcept { return state_ && state_->is_ready(); }
  bool has_exception() const noexcept { return state_ && state_->has_exception(); }

  void wait() const {
    GRAN_ASSERT_MSG(valid(), "wait on invalid future");
    state_->wait();
  }

  // Timed waits (std::future_status::ready or ::timeout). Tasks suspend
  // cooperatively with a timer-armed deadline; external threads park.
  std::future_status wait_until(timer_service::clock::time_point deadline) const {
    GRAN_ASSERT_MSG(valid(), "wait_until on invalid future");
    return state_->wait_until(deadline) ? std::future_status::ready
                                        : std::future_status::timeout;
  }

  template <typename Rep, typename Period>
  std::future_status wait_for(std::chrono::duration<Rep, Period> d) const {
    return wait_until(timer_service::clock::now() + d);
  }

  // Blocks until ready; returns the value (const reference for non-void T —
  // shared semantics) or rethrows the stored exception.
  decltype(auto) get() const {
    GRAN_ASSERT_MSG(valid(), "get on invalid future");
    if constexpr (std::is_void_v<T>) {
      state_->get();
    } else {
      return static_cast<const T&>(state_->get());
    }
  }

  // Attaches a continuation `f(future<T>)` that runs as a new task once
  // this future is ready; returns the continuation's future (unwrapped if
  // `f` itself returns a future). Exceptions from `f` travel into the
  // returned future.
  template <typename F>
  auto then(F&& f, task_priority priority = task_priority::normal) const;

  // Low-level hook: runs `fn()` (non-blocking!) when ready, inline if
  // already ready. One allocation; `fn` may be move-only. If the state dies
  // without becoming ready, `fn` is destroyed without running.
  template <typename F>
  void on_ready(F&& fn) const {
    GRAN_ASSERT_MSG(valid(), "on_ready on invalid future");
    state_->attach(new detail::callable_record<std::decay_t<F>>(std::forward<F>(fn)));
  }

  const std::shared_ptr<state_type>& state() const noexcept { return state_; }

 private:
  std::shared_ptr<state_type> state_;
};

// Intent-revealing alias: every gran::future already has shared semantics.
template <typename T>
using shared_future = future<T>;

template <typename T>
class promise {
 public:
  promise() : state_(std::make_shared<detail::shared_state<T>>()) {}
  promise(promise&&) noexcept = default;
  promise& operator=(promise&&) noexcept = default;
  promise(const promise&) = delete;
  promise& operator=(const promise&) = delete;

  future<T> get_future() const { return future<T>(state_); }

  template <typename... Args>
  void set_value(Args&&... args) {
    state_->set_value(std::forward<Args>(args)...);
  }

  void set_exception(std::exception_ptr error) { state_->set_exception(std::move(error)); }

  const std::shared_ptr<detail::shared_state<T>>& state() const noexcept { return state_; }

 private:
  std::shared_ptr<detail::shared_state<T>> state_;
};

// Ready-made futures.
template <typename T, typename... Args>
future<T> make_ready_future(Args&&... args) {
  promise<T> p;
  p.set_value(std::forward<Args>(args)...);
  return p.get_future();
}

inline future<void> make_ready_future() {
  promise<void> p;
  p.set_value();
  return p.get_future();
}

template <typename T>
future<T> make_exceptional_future(std::exception_ptr error) {
  promise<T> p;
  p.set_exception(std::move(error));
  return p.get_future();
}

namespace detail {

// `call` returns a future<U>; the outer state adopts its outcome (future
// unwrapping).
template <typename U, typename F>
void fulfill_state_unwrapped(std::shared_ptr<shared_state<U>> st, F&& call) {
  future<U> inner;
  try {
    inner = std::forward<F>(call)();
  } catch (...) {
    st->set_exception(std::current_exception());
    return;
  }
  if (!inner.valid()) {
    st->set_exception(
        std::make_exception_ptr(std::future_error(std::future_errc::no_state)));
    return;
  }
  // The record holds no reference to the inner state: if it dies unready,
  // `st` stays unready.
  inner.on_ready([st = std::move(st), from = inner.state().get()] {
    if (std::exception_ptr error = from->exception()) {
      st->set_exception(std::move(error));
    } else if constexpr (std::is_void_v<U>) {
      st->set_value();
    } else {
      st->set_value(from->get());
    }
  });
}

// The two input shapes of a dataflow node: the variadic form keeps a tuple
// and passes each future to the body, the vector form passes the vector.
template <typename... Ts>
constexpr std::size_t input_count(const std::tuple<future<Ts>...>&) {
  return sizeof...(Ts);
}
template <typename T>
std::size_t input_count(const std::vector<future<T>>& in) {
  return in.size();
}
template <typename Each, typename... Ts>
void for_each_input(const std::tuple<future<Ts>...>& in, Each&& each) {
  std::apply([&](const auto&... f) { (each(f), ...); }, in);
}
template <typename Each, typename T>
void for_each_input(const std::vector<future<T>>& in, Each&& each) {
  for (const auto& f : in) each(f);
}
template <typename F, typename... Ts>
decltype(auto) call_with_inputs(F& f, std::tuple<future<Ts>...>& in) {
  return std::apply(f, in);
}
template <typename F, typename T>
decltype(auto) call_with_inputs(F& f, std::vector<future<T>>& in) {
  return f(std::as_const(in));
}

// A dataflow node: one allocation holding the result state, the callable,
// the inputs and an edge record per input. Firing spawns the body as a task
// that owns the node; once the body has run the node lets go of the
// callable and the inputs, so a held future never pins its ancestors.
template <typename R, typename F, typename Inputs, std::size_t Inline>
class dataflow_node final
    : public join_node<typename unwrap_result<R>::type,
                       dataflow_node<R, F, Inputs, Inline>, Inline> {
  using U = typename unwrap_result<R>::type;
  using base = join_node<U, dataflow_node, Inline>;

 public:
  template <typename G>
  dataflow_node(thread_manager& tm, task_priority priority, int worker_hint,
                const char* description, G&& f, Inputs inputs)
      : base(input_count(inputs)),
        tm_(&tm),
        priority_(priority),
        worker_hint_(worker_hint),
        description_(description),
        f_(std::forward<G>(f)),
        inputs_(std::move(inputs)) {}

  void start(std::shared_ptr<dataflow_node> self) {
    base::start(std::move(self), [this](auto&& attach) {
      for_each_input(inputs_, [&](const auto& in) {
        GRAN_ASSERT_MSG(in.valid(), "dataflow over an invalid future");
        attach(*in.state());
      });
    });
  }

  void fire(std::shared_ptr<dataflow_node> self) {
    tm_->spawn_on(
        worker_hint_, [self = std::move(self)] { self->execute(self); }, priority_,
        description_);
  }

 private:
  void execute(const std::shared_ptr<dataflow_node>& self) {
    auto call = [&]() -> decltype(auto) { return call_with_inputs(*f_, inputs_); };
    if constexpr (unwrap_result<R>::is_future) {
      fulfill_state_unwrapped<U>(self, call);
    } else {
      fulfill_state<U>(*this, call);
    }
    f_.reset();
    inputs_ = Inputs{};
  }

  thread_manager* tm_;
  task_priority priority_;
  int worker_hint_;
  const char* description_;
  std::optional<F> f_;
  Inputs inputs_;
};

template <typename R, std::size_t Inline, typename F, typename Inputs>
future<typename unwrap_result<R>::type> start_dataflow(thread_manager& tm,
                                                       task_priority priority,
                                                       int worker_hint,
                                                       const char* description,
                                                       F&& f, Inputs inputs) {
  using node_t = dataflow_node<R, std::decay_t<F>, Inputs, Inline>;
  auto node = std::make_shared<node_t>(tm, priority, worker_hint, description,
                                       std::forward<F>(f), std::move(inputs));
  node->start(node);
  return future<typename unwrap_result<R>::type>(std::move(node));
}

}  // namespace detail

template <typename T>
template <typename F>
auto future<T>::then(F&& f, task_priority priority) const {
  GRAN_ASSERT_MSG(valid(), "then on invalid future");
  using R = std::invoke_result_t<std::decay_t<F>, future<T>>;
  return detail::start_dataflow<R, 1>(resolve_manager(), priority, -1, "future::then",
                                      std::forward<F>(f), std::tuple<future<T>>(*this));
}

// Unwraps a future<future<U>> into a future<U>.
template <typename U>
future<U> unwrap(future<future<U>> outer) {
  auto st = std::make_shared<detail::shared_state<U>>();
  outer.on_ready([st, from = outer.state().get()] {
    if (std::exception_ptr error = from->exception()) {
      st->set_exception(std::move(error));
      return;
    }
    detail::fulfill_state_unwrapped(st, [&] { return from->get(); });
  });
  return future<U>(st);
}

}  // namespace gran
