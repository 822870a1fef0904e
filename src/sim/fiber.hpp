#pragma once
// Stackful user-level fibers.
//
// Each simulated MPI rank runs as a fiber, so application code is written in
// ordinary blocking style (MPI_Recv suspends the fiber; the discrete-event
// engine resumes it when the matching simulated transfer completes).  The
// whole simulation is single-threaded: exactly one fiber (or the main
// context) executes at any instant, which keeps runs deterministic.
//
// Stacks are mmap'd with a guard page at the low end, so a stack overflow in
// an application kernel faults instead of silently corrupting a neighbouring
// fiber.
//
// The switch (x86-64): every blocking MPI call is a resume/yield round trip,
// so the switch is a few lines of assembly in fiber.cpp rather than
// swapcontext, which makes an rt_sigprocmask syscall each way.  It pushes
// the callee-saved registers (rbp, rbx, r12-r15) and the floating-point
// control state (MXCSR and the x87 control word, so a rounding mode set in
// one fiber never leaks into another) onto the current stack, stores rsp,
// loads the other side's rsp and pops the same set.  Everything else is
// caller-saved under the System V ABI, which the compiler already assumes an
// ordinary call clobbers.  A new fiber's stack holds a prebuilt frame that
// "returns" into an entry stub; the stub calls into the fiber's function on
// a 16-byte-aligned stack.  The switch does not switch CET shadow stacks,
// so src/sim/CMakeLists.txt builds fiber.cpp without the shadow-stack
// marker.
//
// Sanitizers: under ASan every switch is bracketed with
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber, so ASan
// knows which stack is live (an exception thrown on a fiber stack would
// otherwise trip it), and a fiber destroyed before it finished keeps its
// stack mapped as a LeakSanitizer root, because what it holds is leaked by
// design; under TSan each fiber is a __tsan_create_fiber context entered
// with __tsan_switch_to_fiber.  Both are compiled in only when the
// compiler reports the sanitizer (__SANITIZE_ADDRESS__ / __SANITIZE_THREAD__
// on gcc, __has_feature on clang).
//
// Other architectures fall back to POSIX ucontext, with the same hooks.
//
// The "whole simulation" above means one Engine and its fibers.  Separate
// simulations may run on separate OS threads concurrently (the sweep
// driver does exactly that); the current-fiber pointer is thread-local, and
// a fiber must always be resumed on the thread that created it.

#include <cstddef>
#include <exception>
#include <functional>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define ICSIM_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ICSIM_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define ICSIM_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ICSIM_FIBER_TSAN 1
#endif
#endif

namespace icsim::sim {

class Fiber {
 public:
  using Fn = std::function<void()>;

  /// Create a suspended fiber that will run `fn` when first resumed.
  explicit Fiber(Fn fn, std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the current context into this fiber.  Returns when the
  /// fiber yields or finishes.  Must not be called on a finished fiber or
  /// from inside the fiber itself.  An exception that escapes the fiber's
  /// function is captured and rethrown here, in the resumer's context.
  void resume();

  /// Called from inside a fiber: suspend and return control to whoever
  /// called resume().  Undefined outside a fiber (asserts in debug).
  static void yield();

  /// The fiber currently executing, or nullptr when on the main context.
  [[nodiscard]] static Fiber* current();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] bool running() const { return this == current(); }

  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

 private:
  static void trampoline();
  [[noreturn]] void body();
  void switch_out(bool finishing);  // fiber -> resumer
  void entered();                   // first thing on the fiber after a switch

  Fn fn_;
#if defined(__x86_64__)
  void* sp_ = nullptr;         // the fiber's saved rsp while suspended
  void* caller_sp_ = nullptr;  // the resumer's saved rsp while it runs
#else
  ucontext_t ctx_{};
  ucontext_t caller_ctx_{};
#endif
  void* stack_ = nullptr;
  std::size_t stack_total_ = 0;
  bool finished_ = false;
  std::exception_ptr pending_exception_;
#if defined(ICSIM_FIBER_ASAN)
  void* fake_stack_ = nullptr;  // ASan's fake frames of the suspended fiber
  const void* caller_stack_ = nullptr;
  std::size_t caller_stack_size_ = 0;
#endif
#if defined(ICSIM_FIBER_TSAN)
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
#endif
};

}  // namespace icsim::sim
