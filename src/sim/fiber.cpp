#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <utility>

#if defined(ICSIM_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#include <sanitizer/lsan_interface.h>
#endif
#if defined(ICSIM_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// void icsim_sim_fiber_switch(void** save_sp, void* load_sp)
//   Saves the callee-saved registers and the FP control state on the current
//   stack, stores rsp to *save_sp, switches to load_sp and restores the same
//   set from there.  The stack layout matches InitialFrame below.
// icsim_sim_fiber_entry
//   Where a new fiber's first switch "returns" to, with rsp 16-byte aligned:
//   calls the function in rbx (Fiber::trampoline, which never returns).  Its
//   CFI marks the return address undefined, so unwinders stop here.
asm(R"(
  .pushsection .text
  .p2align 4
  .globl icsim_sim_fiber_switch
  .hidden icsim_sim_fiber_switch
  .type icsim_sim_fiber_switch, @function
icsim_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size icsim_sim_fiber_switch, .-icsim_sim_fiber_switch

  .p2align 4
  .globl icsim_sim_fiber_entry
  .hidden icsim_sim_fiber_entry
  .type icsim_sim_fiber_entry, @function
icsim_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  callq *%rbx
  ud2
  .cfi_endproc
  .size icsim_sim_fiber_entry, .-icsim_sim_fiber_entry
  .popsection
)");

extern "C" {
__attribute__((visibility("hidden"))) void icsim_sim_fiber_switch(
    void** save_sp, void* load_sp);
__attribute__((visibility("hidden"))) void icsim_sim_fiber_entry();
}
#endif

namespace icsim::sim {

namespace {
// thread_local, not a plain global: the sweep driver (src/driver) runs one
// independent simulation per worker thread, and each cluster's fibers are
// created, resumed and finished entirely on that thread.
thread_local Fiber* g_current = nullptr;

std::size_t page_size() {
  static const auto sz = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return sz;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t p = page_size();
  return (bytes + p - 1) / p * p;
}

#if defined(__x86_64__)
// What icsim_sim_fiber_switch pops when it first switches to a new fiber,
// lowest address first.  It sits at the top of the stack, so `ret` leaves
// rsp at the (page-aligned) top and the stub's call enters the trampoline
// with rsp+8 16-byte aligned, as the ABI requires.
struct InitialFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad;
  void* r15;
  void* r14;
  void* r13;
  void* r12;
  void (*rbx)();  // called by the stub
  void* rbp;      // null: ends frame-pointer walks
  void (*ret)();  // the entry stub
};
static_assert(sizeof(InitialFrame) == 64);
#endif
}  // namespace

Fiber::Fiber(Fn fn, std::size_t stack_bytes) : fn_(std::move(fn)) {
  const std::size_t usable = round_up_pages(stack_bytes);
  stack_total_ = usable + page_size();  // +1 guard page at the low end
  stack_ = ::mmap(nullptr, stack_total_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (stack_ == MAP_FAILED) {
    stack_ = nullptr;
    throw std::bad_alloc();
  }
  if (::mprotect(stack_, page_size(), PROT_NONE) != 0) {
    ::munmap(stack_, stack_total_);
    stack_ = nullptr;
    throw std::runtime_error("Fiber: mprotect guard page failed");
  }

#if defined(__x86_64__)
  // The fiber starts with the creator's FP control state, as getcontext
  // would give it.
  char* const top = static_cast<char*>(stack_) + stack_total_;
  auto* const frame = new (top - sizeof(InitialFrame))
      InitialFrame{0, 0, 0, nullptr, nullptr, nullptr, nullptr,
                   &Fiber::trampoline, nullptr, &icsim_sim_fiber_entry};
  asm volatile("stmxcsr %0\n\tfnstcw %1"
               : "=m"(frame->mxcsr), "=m"(frame->x87_cw));
  sp_ = frame;
#else
  if (::getcontext(&ctx_) != 0) {
    ::munmap(stack_, stack_total_);
    stack_ = nullptr;
    throw std::runtime_error("Fiber: getcontext failed");
  }
  ctx_.uc_stack.ss_sp = static_cast<char*>(stack_) + page_size();
  ctx_.uc_stack.ss_size = usable;
  ctx_.uc_link = nullptr;  // body() never returns
  ::makecontext(&ctx_, &Fiber::trampoline, 0);
#endif
#if defined(ICSIM_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // Destroying a suspended-but-unfinished fiber leaks whatever it holds on
  // its stack; models always run fibers to completion (a deadlock or an
  // exception from another rank is what abandons one), so just release the
  // stack memory.
#if defined(ICSIM_FIBER_TSAN)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#if defined(ICSIM_FIBER_ASAN)
  if (!finished_) {
    // Make that leak explicit to LeakSanitizer: keep the stack mapped and
    // scan it as a root, so what the abandoned frames hold stays reachable.
    __lsan_register_root_region(static_cast<char*>(stack_) + page_size(),
                                stack_total_ - page_size());
    return;
  }
  // The frames that never returned (body's, the final switch's) leave
  // poisoned shadow behind; clear it before the range can be mapped again.
  ASAN_UNPOISON_MEMORY_REGION(stack_, stack_total_);
#endif
  ::munmap(stack_, stack_total_);
}

// First code on a new fiber's stack.  resume() set g_current to the fiber
// before switching, so no argument has to be smuggled through the switch.
void Fiber::trampoline() { g_current->body(); }

void Fiber::body() {
  entered();
  try {
    fn_();
  } catch (...) {
    // Nothing above this frame can catch; park the exception and rethrow it
    // from resume() in the caller's context.
    pending_exception_ = std::current_exception();
  }
  finished_ = true;
  g_current = nullptr;
  switch_out(/*finishing=*/true);
  assert(false && "resumed a finished fiber");
  __builtin_unreachable();
}

void Fiber::switch_out(bool finishing) {
#if defined(ICSIM_FIBER_ASAN)
  // A finishing fiber passes no handle, so ASan frees its fake stack.
  __sanitizer_start_switch_fiber(finishing ? nullptr : &fake_stack_,
                                 caller_stack_, caller_stack_size_);
#else
  (void)finishing;
#endif
#if defined(ICSIM_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
#if defined(__x86_64__)
  icsim_sim_fiber_switch(&sp_, caller_sp_);
#else
  ::swapcontext(&ctx_, &caller_ctx_);
#endif
  entered();
}

void Fiber::entered() {
#if defined(ICSIM_FIBER_ASAN)
  // Also learns the resumer's stack, which switch_out() hands back to ASan.
  __sanitizer_finish_switch_fiber(fake_stack_, &caller_stack_,
                                  &caller_stack_size_);
#endif
}

void Fiber::resume() {
  assert(!finished_ && "resume() on a finished fiber");
  assert(g_current != this && "resume() from inside the fiber itself");
  Fiber* const prev = g_current;
  g_current = this;
#if defined(ICSIM_FIBER_ASAN)
  // This frame stays live while the fiber runs, so the resumer's fake-stack
  // handle can sit in it.
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack,
                                 static_cast<char*>(stack_) + page_size(),
                                 stack_total_ - page_size());
#endif
#if defined(ICSIM_FIBER_TSAN)
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(__x86_64__)
  icsim_sim_fiber_switch(&caller_sp_, sp_);
#else
  ::swapcontext(&caller_ctx_, &ctx_);
#endif
#if defined(ICSIM_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  g_current = prev;
  if (pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Fiber::yield() {
  Fiber* const self = g_current;
  assert(self != nullptr && "Fiber::yield() outside any fiber");
  g_current = nullptr;
  self->switch_out(/*finishing=*/false);
}

Fiber* Fiber::current() { return g_current; }

}  // namespace icsim::sim
