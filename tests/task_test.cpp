// Unit tests for the task (HPX-thread) state machine and the race-free
// suspend/wake protocol of src/threads/task.hpp.
#include <gtest/gtest.h>

#include "fiber/stack.hpp"
#include "threads/task.hpp"

namespace gran {
namespace {

task::body_fn noop() {
  return [] {};
}

// Tasks assert they are staged or terminated at destruction; drive whatever
// state a test left behind to completion.
void finish_cleanly(task& t) {
  if (t.state() == task_state::suspended) t.wake();
  if (t.state() == task_state::suspending || t.state() == task_state::wake_requested)
    t.finalize_suspend();
  if (t.state() == task_state::pending) t.begin_phase(0);
  if (t.state() == task_state::active) {
    if (!t.context().finished()) t.context().resume();
    t.finish();
  }
}

TEST(TaskState, CreatedStaged) {
  task t(noop());
  EXPECT_EQ(t.state(), task_state::staged);
  EXPECT_FALSE(t.has_context());
  EXPECT_EQ(t.last_worker(), -1);
}

TEST(TaskState, IdsAreUniqueAndIncreasing) {
  task a(noop());
  task b(noop());
  EXPECT_LT(a.id(), b.id());
}

TEST(TaskState, ConvertAttachesContext) {
  task t(noop());
  t.convert_to_pending(fiber_stack(32 * 1024));
  EXPECT_EQ(t.state(), task_state::pending);
  EXPECT_TRUE(t.has_context());
  finish_cleanly(t);
}

TEST(TaskState, FullHappyPath) {
  task t(noop());
  t.convert_to_pending(fiber_stack(32 * 1024));
  t.begin_phase(3);
  EXPECT_EQ(t.state(), task_state::active);
  EXPECT_EQ(t.last_worker(), 3);
  t.context().resume();  // body runs to completion
  EXPECT_TRUE(t.context().finished());
  t.finish();
  EXPECT_EQ(t.state(), task_state::terminated);
  fiber_stack s = t.take_stack();
  EXPECT_TRUE(s.valid());
}

TEST(TaskState, SuspendThenFinalize) {
  task t(noop());
  t.convert_to_pending(fiber_stack(32 * 1024));
  t.begin_phase(0);
  t.mark_suspending();
  EXPECT_EQ(t.state(), task_state::suspending);
  EXPECT_TRUE(t.finalize_suspend());  // no waker raced: parked
  EXPECT_EQ(t.state(), task_state::suspended);
  finish_cleanly(t);
}

TEST(TaskState, WakeOfSuspendedReturnsTrue) {
  task t(noop());
  t.convert_to_pending(fiber_stack(32 * 1024));
  t.begin_phase(0);
  t.mark_suspending();
  ASSERT_TRUE(t.finalize_suspend());
  EXPECT_TRUE(t.wake());  // caller must enqueue
  EXPECT_EQ(t.state(), task_state::pending);
  EXPECT_FALSE(t.wake());  // second wake is a no-op
  finish_cleanly(t);
}

TEST(TaskState, WakeDuringSuspendingIsAbsorbed) {
  task t(noop());
  t.convert_to_pending(fiber_stack(32 * 1024));
  t.begin_phase(0);
  t.mark_suspending();
  // Waker arrives while the task is still switching away.
  EXPECT_FALSE(t.wake());  // absorbed: the worker re-queues
  EXPECT_EQ(t.state(), task_state::wake_requested);
  // Worker then finalizes: must NOT park, must hand the task back.
  EXPECT_FALSE(t.finalize_suspend());
  EXPECT_EQ(t.state(), task_state::pending);
  finish_cleanly(t);
}

TEST(TaskState, CancelSuspendRestoresActive) {
  task t(noop());
  t.convert_to_pending(fiber_stack(32 * 1024));
  t.begin_phase(0);
  t.mark_suspending();
  t.cancel_suspend();
  EXPECT_EQ(t.state(), task_state::active);
  finish_cleanly(t);
}

TEST(TaskState, CancelSuspendAfterWakeRequest) {
  task t(noop());
  t.convert_to_pending(fiber_stack(32 * 1024));
  t.begin_phase(0);
  t.mark_suspending();
  EXPECT_FALSE(t.wake());  // -> wake_requested
  t.cancel_suspend();      // waiter found the condition satisfied
  EXPECT_EQ(t.state(), task_state::active);
  finish_cleanly(t);
}

TEST(TaskState, YieldRequeue) {
  task t(noop());
  t.convert_to_pending(fiber_stack(32 * 1024));
  t.begin_phase(0);
  t.request_yield();
  t.mark_suspending();
  EXPECT_TRUE(t.consume_yield_request());
  EXPECT_FALSE(t.consume_yield_request());  // consumed
  t.requeue_after_yield();
  EXPECT_EQ(t.state(), task_state::pending);
  finish_cleanly(t);
}

TEST(TaskState, PhaseCounting) {
  task t(noop());
  EXPECT_EQ(t.phases(), 0u);
  t.count_phase();
  t.count_phase();
  EXPECT_EQ(t.phases(), 2u);
}

TEST(TaskState, WakeOnActiveIsNoop) {
  task t(noop());
  t.convert_to_pending(fiber_stack(32 * 1024));
  t.begin_phase(0);
  EXPECT_FALSE(t.wake());
  EXPECT_EQ(t.state(), task_state::active);
  finish_cleanly(t);
}

TEST(TaskState, StateNames) {
  EXPECT_STREQ(to_string(task_state::staged), "staged");
  EXPECT_STREQ(to_string(task_state::pending), "pending");
  EXPECT_STREQ(to_string(task_state::active), "active");
  EXPECT_STREQ(to_string(task_state::suspended), "suspended");
  EXPECT_STREQ(to_string(task_state::terminated), "terminated");
}

TEST(TaskState, PriorityNames) {
  EXPECT_STREQ(to_string(task_priority::low), "low");
  EXPECT_STREQ(to_string(task_priority::normal), "normal");
  EXPECT_STREQ(to_string(task_priority::high), "high");
}

// Task objects are recycled through a per-thread cache: the next task made
// on this thread reuses the storage, and must start afresh.
TEST(TaskState, RecycledObjectCarriesNothingOver) {
  task* a = new task(noop());
  const void* storage = a;
  const std::uint64_t first_id = a->id();
  a->convert_to_pending(fiber_stack(32 * 1024));
  a->begin_phase(2);
  a->request_yield();
  a->context().resume();
  a->count_phase();
  a->add_exec_ticks(1234);
  a->finish();
  delete a;

  task* b = new task(noop());
  EXPECT_EQ(static_cast<const void*>(b), storage);
  EXPECT_EQ(b->state(), task_state::staged);
  EXPECT_FALSE(b->has_context());
  EXPECT_EQ(b->phases(), 0u);
  EXPECT_EQ(b->exec_ticks(), 0u);
  EXPECT_FALSE(b->consume_yield_request());
  EXPECT_EQ(b->last_worker(), -1);
  EXPECT_NE(b->id(), first_id);
  delete b;
}

}  // namespace
}  // namespace gran
