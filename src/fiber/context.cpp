#include "fiber/context.hpp"

#include <cstdint>
#include <cstring>

#include "util/assert.hpp"

#if defined(GRAN_FIBER_UCONTEXT)
#include <ucontext.h>

#include <new>

namespace gran {

// ucontext build: execution_context::sp points at a uctx that lives at the
// top of the fiber's own stack, so a context costs no heap object. The block
// ctx_make carves there holds two: the fiber's context and the anchor its
// resumer saves itself into. A static entry shim dispatches to the requested
// entry function; the switch argument is carried in a thread-local because
// makecontext only forwards ints portably.

namespace {

thread_local void* tl_switch_arg = nullptr;

struct uctx {
  ucontext_t ctx;
  context_entry_fn entry = nullptr;
};

struct uctx_block {
  uctx self;     // the fiber's context; first member, so &block == &self
  uctx resumer;  // the anchor of whoever resumes the fiber
};

void uctx_entry_shim(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<uctx*>((static_cast<std::uintptr_t>(hi) << 32) |
                                       static_cast<std::uintptr_t>(lo));
  self->entry(tl_switch_arg);
  GRAN_ASSERT_MSG(false, "fiber entry returned");
}

}  // namespace

execution_context ctx_make(void* stack_base, std::size_t size, context_entry_fn entry) {
  const auto top = reinterpret_cast<std::uintptr_t>(stack_base) + size;
  const auto block_addr = (top - sizeof(uctx_block)) & ~std::uintptr_t{63};
  GRAN_ASSERT(block_addr >= reinterpret_cast<std::uintptr_t>(stack_base) + 4096);
  auto* block = new (reinterpret_cast<void*>(block_addr)) uctx_block;
  uctx* u = &block->self;
  GRAN_ASSERT(getcontext(&u->ctx) == 0);
  u->ctx.uc_stack.ss_sp = stack_base;
  u->ctx.uc_stack.ss_size = block_addr - reinterpret_cast<std::uintptr_t>(stack_base);
  u->ctx.uc_link = nullptr;
  u->entry = entry;
  const auto addr = reinterpret_cast<std::uintptr_t>(u);
  makecontext(&u->ctx, reinterpret_cast<void (*)()>(uctx_entry_shim), 2,
              static_cast<unsigned>(addr >> 32), static_cast<unsigned>(addr));
  execution_context ec;
  ec.sp = u;
  return ec;
}

void* ctx_switch(execution_context& from, execution_context& to, void* arg) {
  auto* t = static_cast<uctx*>(to.sp);
  GRAN_ASSERT(t != nullptr);
  // `from` is a bare anchor (sp == nullptr) the first time a resumer
  // switches into a fresh context: it saves itself into the anchor that
  // ctx_make reserved beside that context.
  if (from.sp == nullptr) from.sp = &reinterpret_cast<uctx_block*>(t)->resumer;
  auto* f = static_cast<uctx*>(from.sp);
  tl_switch_arg = arg;
  GRAN_ASSERT(swapcontext(&f->ctx, &t->ctx) == 0);
  return tl_switch_arg;
}

// Both uctx live on the stack mapping, which outlives the context.
void ctx_destroy(execution_context& ctx) { ctx.sp = nullptr; }

}  // namespace gran

#else  // assembly build

extern "C" {
// Defined in context_x86_64.S.
void* gran_ctx_switch(void** save_sp, void* restore_sp, void* arg);
void gran_ctx_trampoline();
}

namespace gran {

execution_context ctx_make(void* stack_base, std::size_t size, context_entry_fn entry) {
  GRAN_ASSERT(stack_base != nullptr && size >= 256);

  // 16-byte-aligned top of stack.
  auto top = (reinterpret_cast<std::uintptr_t>(stack_base) + size) & ~std::uintptr_t{15};

  // Frame consumed by the restore half of gran_ctx_switch, top-down:
  //   [top-8]   return address  -> gran_ctx_trampoline
  //   [top-16]  rbp
  //   [top-24]  rbx  -> entry function (read by the trampoline)
  //   [top-32]  r12
  //   [top-40]  r13
  //   [top-48]  r14
  //   [top-56]  r15
  //   [top-64]  mxcsr (4B) | x87 cw (2B) | pad
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 64);
  std::memset(frame, 0, 64);
  frame[7] = reinterpret_cast<std::uint64_t>(&gran_ctx_trampoline);
  frame[5] = reinterpret_cast<std::uint64_t>(entry);
  // Sane default FP environment: round-to-nearest, all exceptions masked.
  auto* fpu = reinterpret_cast<std::uint32_t*>(frame);
  fpu[0] = 0x1F80;                                       // MXCSR
  *reinterpret_cast<std::uint16_t*>(fpu + 1) = 0x037F;   // x87 control word

  execution_context ec;
  ec.sp = frame;
  return ec;
}

void* ctx_switch(execution_context& from, execution_context& to, void* arg) {
  GRAN_DEBUG_ASSERT(to.sp != nullptr);
  return gran_ctx_switch(&from.sp, to.sp, arg);
}

void ctx_destroy(execution_context& ctx) { ctx.sp = nullptr; }

}  // namespace gran

#endif
