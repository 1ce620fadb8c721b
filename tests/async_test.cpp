// Tests for the futures layer (src/async): future/promise, async, then,
// when_all/when_any, dataflow, unwrapping, packaged_task, exceptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "async/gran.hpp"

namespace gran {
namespace {

struct AsyncTest : ::testing::Test {
  AsyncTest() : tm(make_config()) {}
  static scheduler_config make_config() {
    scheduler_config cfg;
    cfg.num_workers = 3;
    cfg.pin_workers = false;
    return cfg;
  }
  thread_manager tm;
};

// --- future/promise -------------------------------------------------------

TEST_F(AsyncTest, PromiseDeliversValue) {
  promise<int> p;
  future<int> f = p.get_future();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.is_ready());
  p.set_value(5);
  EXPECT_TRUE(f.is_ready());
  EXPECT_EQ(f.get(), 5);
  EXPECT_EQ(f.get(), 5);  // shared semantics: get() is repeatable
}

TEST_F(AsyncTest, FutureCopiesShareState) {
  promise<std::string> p;
  future<std::string> a = p.get_future();
  future<std::string> b = a;  // copyable
  p.set_value("hello");
  EXPECT_EQ(a.get(), "hello");
  EXPECT_EQ(b.get(), "hello");
  EXPECT_EQ(&a.get(), &b.get());  // same underlying object
}

TEST_F(AsyncTest, VoidFuture) {
  promise<void> p;
  future<void> f = p.get_future();
  p.set_value();
  f.get();
  EXPECT_TRUE(f.is_ready());
}

TEST_F(AsyncTest, ExceptionPropagates) {
  promise<int> p;
  future<int> f = p.get_future();
  p.set_exception(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_TRUE(f.has_exception());
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST_F(AsyncTest, DoubleSetThrowsFutureError) {
  promise<int> p;
  p.set_value(1);
  EXPECT_THROW(p.set_value(2), std::future_error);
  EXPECT_THROW(p.set_exception(std::make_exception_ptr(std::runtime_error("x"))),
               std::future_error);
}

TEST_F(AsyncTest, MakeReadyAndExceptional) {
  EXPECT_EQ(make_ready_future<int>(9).get(), 9);
  make_ready_future().get();  // void
  auto bad = make_exceptional_future<int>(
      std::make_exception_ptr(std::logic_error("nope")));
  EXPECT_THROW(bad.get(), std::logic_error);
}

TEST_F(AsyncTest, InvalidFutureByDefault) {
  future<int> f;
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f.is_ready());
}

TEST_F(AsyncTest, GetFromExternalThreadBlocks) {
  promise<int> p;
  future<int> f = p.get_future();
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    p.set_value(77);
  });
  EXPECT_EQ(f.get(), 77);  // main thread parks as an external waiter
  setter.join();
}

// --- async ------------------------------------------------------------------

TEST_F(AsyncTest, AsyncRunsOnWorker) {
  auto f = async([] { return this_task::worker_index(); });
  EXPECT_GE(f.get(), 0);
}

TEST_F(AsyncTest, AsyncWithArguments) {
  auto f = async([](int a, const std::string& b) { return b + std::to_string(a); }, 42,
                 std::string("x="));
  EXPECT_EQ(f.get(), "x=42");
}

TEST_F(AsyncTest, AsyncVoid) {
  std::atomic<bool> ran{false};
  auto f = async([&ran] { ran = true; });
  f.get();
  EXPECT_TRUE(ran.load());
}

TEST_F(AsyncTest, AsyncExceptionIntoFuture) {
  auto f = async([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST_F(AsyncTest, AsyncOnExplicitManagerAndPriority) {
  auto f = async_on(tm, task_priority::high, [](int x) { return x * 2; }, 21);
  EXPECT_EQ(f.get(), 42);
}

TEST_F(AsyncTest, AsyncRunsMoveOnlyCallable) {
  auto f = async([p = std::make_unique<int>(7)] { return *p * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST_F(AsyncTest, PostFireAndForget) {
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i) post([&hits] { ++hits; });
  tm.wait_idle();
  EXPECT_EQ(hits.load(), 100);
}

TEST_F(AsyncTest, NestedGetInsideTaskSuspends) {
  // Recursive fan-out with get() inside tasks: only cooperative suspension
  // keeps this from deadlocking on a small pool.
  std::function<long(int)> fib = [&](int n) -> long {
    if (n < 2) return n;
    auto left = async([&fib, n] { return fib(n - 1); });
    const long right = fib(n - 2);
    return left.get() + right;
  };
  EXPECT_EQ(async([&] { return fib(15); }).get(), 610);
}

// --- then / unwrap -----------------------------------------------------------

TEST_F(AsyncTest, ThenChains) {
  auto f = async([] { return 10; })
               .then([](future<int> x) { return x.get() + 5; })
               .then([](future<int> x) { return x.get() * 2; });
  EXPECT_EQ(f.get(), 30);
}

TEST_F(AsyncTest, ThenReceivesException) {
  auto f = async([]() -> int { throw std::runtime_error("inner"); })
               .then([](future<int> x) {
                 EXPECT_TRUE(x.has_exception());
                 return -1;  // recovered
               });
  EXPECT_EQ(f.get(), -1);
}

TEST_F(AsyncTest, ThenExceptionPropagates) {
  auto f = async([] { return 1; }).then([](future<int>) -> int {
    throw std::logic_error("continuation failed");
  });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST_F(AsyncTest, ThenUnwrapsFutureResult) {
  // A continuation returning future<int> yields future<int>, not
  // future<future<int>>.
  future<int> f = async([] { return 3; }).then([](future<int> x) {
    return async([v = x.get()] { return v * 7; });
  });
  EXPECT_EQ(f.get(), 21);
}

TEST_F(AsyncTest, ExplicitUnwrap) {
  auto outer = async([] { return make_ready_future<int>(13); });
  future<int> inner = unwrap(std::move(outer));
  EXPECT_EQ(inner.get(), 13);
}

TEST_F(AsyncTest, ThenOnAlreadyReadyFuture) {
  auto f = make_ready_future<int>(4).then([](future<int> x) { return x.get() + 1; });
  EXPECT_EQ(f.get(), 5);
}

// --- when_all / when_any --------------------------------------------------------

TEST_F(AsyncTest, WhenAllVector) {
  std::vector<future<int>> fs;
  for (int i = 0; i < 64; ++i) fs.push_back(async([i] { return i; }));
  when_all(fs).wait();
  int sum = 0;
  for (auto& f : fs) {
    ASSERT_TRUE(f.is_ready());
    sum += f.get();
  }
  EXPECT_EQ(sum, 63 * 64 / 2);
}

TEST_F(AsyncTest, WhenAllEmpty) {
  std::vector<future<int>> fs;
  auto all = when_all(fs);
  EXPECT_TRUE(all.is_ready());
}

TEST_F(AsyncTest, WhenAllVariadic) {
  auto a = async([] { return 1; });
  auto b = async([] { return std::string("two"); });
  auto c = async([] {});
  when_all(a, b, c).wait();
  EXPECT_TRUE(a.is_ready());
  EXPECT_TRUE(b.is_ready());
  EXPECT_TRUE(c.is_ready());
}

TEST_F(AsyncTest, WhenAllCountsExceptionsAsReady) {
  std::vector<future<int>> fs;
  fs.push_back(async([]() -> int { throw std::runtime_error("x"); }));
  fs.push_back(async([] { return 1; }));
  when_all(fs).wait();
  EXPECT_TRUE(fs[0].has_exception());
  EXPECT_EQ(fs[1].get(), 1);
}

TEST_F(AsyncTest, WhenAnyIndex) {
  promise<int> slow;
  std::vector<future<int>> fs;
  fs.push_back(slow.get_future());
  fs.push_back(make_ready_future<int>(2));
  const std::size_t idx = when_any(fs).get();
  EXPECT_EQ(idx, 1u);
  slow.set_value(0);  // cleanup
}

TEST_F(AsyncTest, WhenAllOverDroppedPromiseStaysNotReady) {
  // The inputs' states die unready: each edge is dropped, the node never
  // fires, and it is freed with the last future (checked by LeakSanitizer).
  auto p1 = std::make_unique<promise<int>>();
  auto p2 = std::make_unique<promise<int>>();
  promise<int> kept;
  std::vector<future<int>> inputs{p1->get_future(), kept.get_future()};
  future<void> all = when_all(inputs);
  future<void> both = when_all(p2->get_future(), kept.get_future());
  inputs.clear();
  p1.reset();
  p2.reset();
  EXPECT_FALSE(all.is_ready());
  EXPECT_FALSE(both.is_ready());
  kept.set_value(1);  // the surviving edge arrives; still not ready
  EXPECT_FALSE(all.is_ready());
  EXPECT_FALSE(both.is_ready());
}

// --- continuation records ----------------------------------------------------------

TEST_F(AsyncTest, RecordsRunInRegistrationOrderAndInlineOnceReady) {
  promise<int> p;
  future<int> f = p.get_future();
  std::vector<int> order;
  for (int i = 1; i <= 3; ++i) f.on_ready([&order, i] { order.push_back(i); });
  f.on_ready([&order, u = std::make_unique<int>(4)] { order.push_back(*u); });
  EXPECT_TRUE(order.empty());
  p.set_value(0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  const std::thread::id me = std::this_thread::get_id();
  std::thread::id ran_on;
  f.on_ready([&] {
    order.push_back(5);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(order.back(), 5);  // ran before on_ready returned
  EXPECT_EQ(ran_on, me);
}

TEST_F(AsyncTest, RecordsOfADroppedStateNeverRun) {
  bool ran = false;
  auto p = std::make_unique<promise<int>>();
  p->get_future().on_ready([&ran, u = std::make_unique<int>(1)] { ran = true; });
  p.reset();  // the state dies unready: the record is freed, not run
  EXPECT_FALSE(ran);
}

// Attacher threads race one setter: every record runs exactly once, the
// ones attached before readiness run on the setter in each thread's attach
// order, and the ones attached after run inline on their own thread.
TEST_F(AsyncTest, ConcurrentAttachAndReadyStress) {
  constexpr int k_threads = 3;
  constexpr int k_per_thread = 64;
  constexpr int k_rounds = 300;
  struct ran_record {
    int thread = -1, seq = -1;
    bool on_setter = false;
  };
  static thread_local int attacher = -1;
  int setter_runs = 0, inline_runs = 0;
  for (int round = 0; round < k_rounds; ++round) {
    promise<int> p;
    const future<int> f = p.get_future();
    std::vector<ran_record> log(k_threads * k_per_thread);
    std::atomic<int> logged{0};
    std::atomic<int> go{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < k_threads; ++t)
      threads.emplace_back([&, t] {
        attacher = t;
        go.fetch_add(1);
        while (go.load() < k_threads + 1) {
        }
        for (int s = 0; s < k_per_thread; ++s)
          f.on_ready([&, t, s] {
            log[logged.fetch_add(1)] = ran_record{t, s, attacher != t};
          });
      });
    go.fetch_add(1);
    while (go.load() < k_threads + 1) {
    }
    // Let some records land first, at a point that moves with the round.
    for (int spin = 0; spin < (round % 16) * 64; ++spin) std::this_thread::yield();
    p.set_value(round);
    for (auto& th : threads) th.join();

    ASSERT_EQ(logged.load(), k_threads * k_per_thread);
    std::vector<int> seen(k_threads * k_per_thread, 0);
    std::vector<int> last_setter_seq(k_threads, -1);
    std::vector<int> first_inline_seq(k_threads, k_per_thread);
    for (const ran_record& r : log) {
      ASSERT_GE(r.thread, 0);
      ++seen[r.thread * k_per_thread + r.seq];
      if (r.on_setter) {
        ASSERT_GT(r.seq, last_setter_seq[r.thread]) << "round " << round;
        last_setter_seq[r.thread] = r.seq;
        ++setter_runs;
      } else {
        first_inline_seq[r.thread] = std::min(first_inline_seq[r.thread], r.seq);
        ++inline_runs;
      }
    }
    for (const int n : seen) ASSERT_EQ(n, 1) << "round " << round;
    for (int t = 0; t < k_threads; ++t)
      ASSERT_LT(last_setter_seq[t], first_inline_seq[t]) << "round " << round;
  }
  // Both paths were exercised.
  EXPECT_GT(setter_runs, 0);
  EXPECT_GT(inline_runs, 0);
  std::printf("records run by the setter: %d, inline: %d\n", setter_runs, inline_runs);
}

// --- dataflow --------------------------------------------------------------------

TEST_F(AsyncTest, DataflowWaitsForAllInputs) {
  promise<int> pa, pb;
  std::atomic<bool> fired{false};
  auto f = dataflow(
      [&fired](future<int>& a, future<int>& b) {
        fired = true;
        return a.get() + b.get();
      },
      pa.get_future(), pb.get_future());
  pa.set_value(30);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(fired.load());  // one input is not enough
  pb.set_value(12);
  EXPECT_EQ(f.get(), 42);
}

TEST_F(AsyncTest, DataflowNoInputsFiresImmediately) {
  auto f = dataflow([] { return 99; });
  EXPECT_EQ(f.get(), 99);
}

TEST_F(AsyncTest, DataflowUnwraps) {
  auto a = make_ready_future<int>(6);
  future<int> f = dataflow(
      [](future<int>& x) { return async([v = x.get()] { return v * 7; }); }, a);
  EXPECT_EQ(f.get(), 42);
}

TEST_F(AsyncTest, DataflowExceptionFromBody) {
  auto a = make_ready_future<int>(1);
  auto f = dataflow([](future<int>&) -> int { throw std::runtime_error("df"); }, a);
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST_F(AsyncTest, DataflowVectorForm) {
  std::vector<future<int>> inputs;
  for (int i = 0; i < 10; ++i) inputs.push_back(async([i] { return i; }));
  auto f = dataflow_all(
      [](const std::vector<future<int>>& fs) {
        int s = 0;
        for (const auto& x : fs) s += x.get();
        return s;
      },
      inputs);
  EXPECT_EQ(f.get(), 45);
}

TEST_F(AsyncTest, DataflowChainDepth) {
  // A linear chain of dataflow nodes: each depends on the previous.
  future<int> f = make_ready_future<int>(0);
  for (int i = 0; i < 200; ++i)
    f = dataflow([](future<int>& prev) { return prev.get() + 1; }, f);
  EXPECT_EQ(f.get(), 200);
}

// Counts its live instances: a node that kept its inputs after running
// would pin every ancestor of a held future.
struct counted_payload {
  static inline std::atomic<int> live{0};
  int value;
  explicit counted_payload(int v) : value(v) { live.fetch_add(1); }
  counted_payload(const counted_payload& o) : value(o.value) { live.fetch_add(1); }
  ~counted_payload() { live.fetch_sub(1); }
};

TEST_F(AsyncTest, HeldFutureDoesNotPinItsAncestors) {
  constexpr int k = 10'000;
  {
    future<counted_payload> f = make_ready_future<counted_payload>(0);
    for (int i = 0; i < k; ++i)
      f = dataflow(
          [](future<counted_payload>& prev) {
            return counted_payload(prev.get().value + 1);
          },
          f);
    EXPECT_EQ(f.get().value, k);
    tm.wait_idle();  // every task, with its hold on its node, is gone
    EXPECT_EQ(counted_payload::live.load(), 1);
  }
  tm.wait_idle();
  EXPECT_EQ(counted_payload::live.load(), 0);
}

// --- packaged_task -----------------------------------------------------------------

TEST_F(AsyncTest, PackagedTaskBasics) {
  packaged_task<int(int, int)> pt([](int a, int b) { return a * b; });
  EXPECT_TRUE(pt.valid());
  auto f = pt.get_future();
  EXPECT_FALSE(f.is_ready());
  pt(6, 7);
  EXPECT_EQ(f.get(), 42);
}

TEST_F(AsyncTest, PackagedTaskException) {
  packaged_task<int()> pt([]() -> int { throw std::runtime_error("pt"); });
  auto f = pt.get_future();
  pt();
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST_F(AsyncTest, PackagedTaskDoubleCallThrows) {
  packaged_task<int()> pt([] { return 1; });
  pt();
  EXPECT_THROW(pt(), std::future_error);
}

TEST_F(AsyncTest, PackagedTaskVoid) {
  int hits = 0;
  packaged_task<void()> pt([&hits] { ++hits; });
  auto f = pt.get_future();
  pt();
  f.get();
  EXPECT_EQ(hits, 1);
}


// --- executor --------------------------------------------------------------------

TEST_F(AsyncTest, ExecutorAsyncAndPost) {
  executor exec(tm);
  EXPECT_EQ(&exec.manager(), &tm);
  EXPECT_EQ(exec.priority(), task_priority::normal);
  EXPECT_EQ(exec.async([](int x) { return x + 1; }, 41).get(), 42);
  std::atomic<int> hits{0};
  for (int i = 0; i < 50; ++i) exec.post([&hits] { ++hits; });
  tm.wait_idle();
  EXPECT_EQ(hits.load(), 50);
}

TEST_F(AsyncTest, ExecutorWithPriority) {
  executor exec(tm);
  const executor high = exec.with_priority(task_priority::high);
  EXPECT_EQ(high.priority(), task_priority::high);
  EXPECT_EQ(&high.manager(), &tm);
  EXPECT_FALSE(exec == high);
  EXPECT_TRUE(exec == executor(tm));
  EXPECT_EQ(high.async([] { return 7; }).get(), 7);
}

TEST_F(AsyncTest, ExecutorDataflow) {
  executor exec(tm);
  auto a = exec.async([] { return 5; });
  auto b = exec.async([] { return 6; });
  auto c = exec.dataflow(
      [](future<int>& x, future<int>& y) { return x.get() * y.get(); }, a, b);
  EXPECT_EQ(c.get(), 30);
}

TEST_F(AsyncTest, DefaultExecutorUsesDefaultManager) {
  executor exec;  // resolves to `tm` (the fixture's manager is the default)
  EXPECT_EQ(&exec.manager(), &tm);
}

// --- cross-cutting stress ------------------------------------------------------------

TEST_F(AsyncTest, ManyConcurrentFutures) {
  std::vector<future<long>> fs;
  constexpr int n = 5000;
  fs.reserve(n);
  for (int i = 0; i < n; ++i) fs.push_back(async([i] { return static_cast<long>(i); }));
  when_all(fs).wait();
  long sum = 0;
  for (auto& f : fs) sum += f.get();
  EXPECT_EQ(sum, static_cast<long>(n - 1) * n / 2);
}

TEST_F(AsyncTest, DiamondDependencies) {
  auto root = async([] { return 1; });
  auto left = dataflow([](future<int>& r) { return r.get() + 10; }, root);
  auto right = dataflow([](future<int>& r) { return r.get() + 100; }, root);
  auto join = dataflow(
      [](future<int>& l, future<int>& r) { return l.get() + r.get(); }, left, right);
  EXPECT_EQ(join.get(), 112);
}

}  // namespace
}  // namespace gran
