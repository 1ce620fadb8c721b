// Scheduling-policy interface.
//
// A policy decides where newly created (staged) and re-awakened (pending)
// tasks are queued and in what order an idle worker searches for work. The
// paper's measurements all use the Priority Local-FIFO policy
// (policy_priority_local.hpp); static-FIFO and work-stealing-LIFO exist for
// the scheduler-comparison ablation the paper defers to future work.
#pragma once

#include <memory>
#include <optional>
#include <string>

namespace gran {

class task;
class thread_manager;

class scheduling_policy {
 public:
  virtual ~scheduling_policy() = default;

  virtual const char* name() const noexcept = 0;

  // Called once after the manager built its worker array.
  virtual void init(thread_manager& tm) = 0;

  // Queues a freshly created task (a staged description). `home` is the
  // spawning worker, or -1 when spawned from a non-worker thread.
  virtual void enqueue_new(thread_manager& tm, int home, task* t) = 0;

  // Queues a ready-to-run task (woken from suspension or yielded). `home`
  // is the worker performing the enqueue, or -1 from external threads.
  virtual void enqueue_ready(thread_manager& tm, int home, task* t) = 0;

  // Queues a freshly created task with a *placement hint*: prefer worker
  // `target`'s structures even when the caller is not `target` (NUMA-aware
  // home placement). Unlike enqueue_new's `home`, `target` may be any valid
  // worker index. The default forwards to enqueue_new, keeping the hint
  // only when the caller happens to be the target.
  virtual void enqueue_hinted(thread_manager& tm, int target, task* t);

  // Finds the next task for worker `w`: pops local work, converts staged
  // descriptions, or steals along the worker's route (worker_data::route,
  // one sweep per call), and takes low-priority work last
  // (thread_manager::pop_low_priority). Every queue look-up is counted
  // through thread_manager::pending_probe or staged_probe. Returns nullptr
  // when nothing is available anywhere. A returned task is in the pending
  // state and owned by the caller. Whether work is queued anywhere is not
  // the policy's question: the manager counts every task from just before
  // its enqueue to the start of its next phase (queued_tasks), so a policy
  // may move a task between its structures without telling anyone.
  virtual task* get_next(thread_manager& tm, int w) = 0;

  // Cooperation point: called from worker `w`'s own thread at moments the
  // manager knows the worker is responsive (task spawn, scheduler round) so
  // message-passing policies can service pending steal requests without a
  // polling thread. Default is a no-op; queue-based policies ignore it.
  virtual void cooperate(thread_manager& tm, int w);
};

// Fig. 1 steps 1-2 on worker `w`'s own dual queues, the local search of
// both dual-queue policies (priority-local-fifo, static-fifo): high-priority
// pending (when `w` owns a high-priority queue), normal pending, then the
// same two staged queues. A staged description is converted into the
// pending queue it came from and taken from there. Disengaged when every
// probe missed; once a staged probe hits the result is engaged, and it holds
// nullptr when a thief snatched the converted task, which ends the caller's
// search for this round.
std::optional<task*> pop_local(thread_manager& tm, int w);

// Factory by name ("priority-local-fifo", "static-fifo",
// "work-stealing-lifo", "channel-steal"); throws std::invalid_argument on
// unknown names.
std::unique_ptr<scheduling_policy> make_policy(const std::string& name);

}  // namespace gran
