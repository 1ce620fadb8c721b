// when_all / when_any — readiness composition over sets of futures.
//
// Together with future::then these are HPX's "additional facilities to
// compose Futures sequentially and in parallel" (§I-C) from which the
// benchmark builds its dependency tree. Since gran futures are shared,
// when_all returns future<void>: callers keep their own (cheap) copies of
// the inputs and read them after the signal.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "async/future.hpp"

namespace gran {

namespace detail {

// One allocation: the result state plus an edge record per input (inline
// up to `Inline`). It does not hold the inputs, so an input whose state
// dies unready leaves the node not ready and frees it with its last user.
template <std::size_t Inline>
class when_all_node final : public join_node<void, when_all_node<Inline>, Inline> {
 public:
  using join_node<void, when_all_node, Inline>::join_node;
  void fire(std::shared_ptr<when_all_node>) { this->set_value(); }
};

template <std::size_t Inline, typename ForEach>
future<void> start_when_all(std::size_t n, ForEach&& for_each) {
  auto node = std::make_shared<when_all_node<Inline>>(n);
  node->start(node, [&](auto&& attach) {
    for_each([&](const auto& f) {
      GRAN_ASSERT_MSG(f.valid(), "when_all over an invalid future");
      attach(*f.state());
    });
  });
  return future<void>(std::move(node));
}

}  // namespace detail

// Ready when every input is ready (exceptions count as ready; inspect the
// inputs afterwards).
template <typename T>
future<void> when_all(const std::vector<future<T>>& futures) {
  if (futures.empty()) return make_ready_future();
  return detail::start_when_all<detail::k_inline_edges>(futures.size(), [&](auto&& each) {
    for (const auto& f : futures) each(f);
  });
}

template <typename... Ts>
future<void> when_all(const future<Ts>&... futures) {
  if constexpr (sizeof...(Ts) == 0) {
    return make_ready_future();
  } else {
    return detail::start_when_all<sizeof...(Ts)>(
        sizeof...(Ts), [&](auto&& each) { (each(futures), ...); });
  }
}

// Ready when the first input is ready; the value is that input's index.
// One record per input; none holds the inputs.
template <typename T>
future<std::size_t> when_any(const std::vector<future<T>>& futures) {
  GRAN_ASSERT_MSG(!futures.empty(), "when_any over an empty set");
  struct any_state : detail::shared_state<std::size_t> {
    std::atomic<bool> fired{false};
  };
  auto st = std::make_shared<any_state>();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    GRAN_ASSERT_MSG(futures[i].valid(), "when_any over an invalid future");
    futures[i].on_ready([st, i] {
      if (!st->fired.exchange(true, std::memory_order_acq_rel)) st->set_value(i);
    });
  }
  return future<std::size_t>(std::move(st));
}

}  // namespace gran
