// Raw execution-context primitives underneath gran::fiber.
//
// Two implementations share this interface:
//  * an x86-64 SysV assembly switch (context_x86_64.S) costing a few tens of
//    nanoseconds — the default, so task-management overheads measured by the
//    perf counters are the same order of magnitude as HPX's;
//  * a portable ucontext fallback (GRAN_FIBER_UCONTEXT), ~1 µs per switch
//    because swapcontext performs a sigprocmask syscall.
#pragma once

#include <cstddef>

namespace gran {

// Opaque saved context: just the stack pointer of the suspended frame (the
// ucontext build stores a pointer to a ucontext_t at the top of the fiber's
// stack instead).
struct execution_context {
  void* sp = nullptr;
};

// Entry signature for a fresh context. `param` is the pointer passed to the
// first ctx_switch into the context. Must never return.
using context_entry_fn = void (*)(void* param);

// Prepares `stack_base .. stack_base+size` (grows downward from the top) so
// that the first ctx_switch into the returned context invokes `entry` with
// the switch argument as `param`. The stack memory must stay alive for the
// context's lifetime. A null `from` anchor passed to the first ctx_switch
// into this context is bound to storage reserved beside it (ucontext build),
// so neither build allocates.
execution_context ctx_make(void* stack_base, std::size_t size, context_entry_fn entry);

// Suspends the current context into `from`, resumes `to`, passing `arg`.
// Returns the argument of the switch that later resumes `from`.
void* ctx_switch(execution_context& from, execution_context& to, void* arg);

// Forgets a context: it owns no storage of its own in either build. Safe on
// moved-from/empty contexts.
void ctx_destroy(execution_context& ctx);

}  // namespace gran
