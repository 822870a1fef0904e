#pragma once
// The discrete-event engine.
//
// Single-threaded and fully deterministic: events at equal timestamps fire in
// scheduling order (a monotone sequence number breaks ties).  All model
// components — links, NICs, CPUs, MPI transports — schedule closures here.
//
// Two scheduling flavors:
//   * post_at/post_in   — fire-and-forget, no cancellation (the hot path);
//   * schedule_at/..._in — returns an EventHandle that can cancel the event.
// Neither allocates per event: once the slab below has grown to the peak
// number of pending events, scheduling touches no allocator at all.
//
// Storage.  A closure is placement-constructed into a slot of a chunked slab
// (kEventFnCapacity bytes inline, no heap fallback: an oversized closure
// fails a static_assert), invoked in place when its time comes, and then
// destroyed.  Chunks never move, so a running closure may post events — and
// grow the slab — without its own storage moving under it.  The priority
// heap holds only 24-byte (time, seq, slot, generation) keys.  Every slot
// carries a generation counter that is bumped when its event fires or is
// cancelled; a key or EventHandle whose generation no longer matches the
// slot's names a finished event.  Cancelling is therefore a counter bump,
// and the cancelled key is dropped (and counted) when it reaches the head.
//
// The engine owns the trace::Tracer so every component holding an Engine&
// can emit trace events and metrics without extra wiring (see trace/).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/time.hpp"
#include "trace/tracer.hpp"

namespace icsim::sim {

/// Inline capacity of an event closure, in bytes.  Sized to the largest hot
/// closure, net::Fabric::forward's per-hop continuation (fabric pointer,
/// route, hop index, byte count, a DeliveryFn, last-hop flag, partition).
/// A larger closure does not compile; a rare large call site wraps itself
/// in std::function (32 bytes) explicitly.
inline constexpr std::size_t kEventFnCapacity = 72;

namespace detail {

enum class FnOp : std::uint8_t { run, destroy, relocate };

/// Raw inline storage for one type-erased `void()` closure.  Trivial on
/// purpose: its owner (an engine slot or an EventFn) decides when the
/// closure is constructed and destroyed, and a slab of these can be
/// allocated without touching its pages.
struct FnStorage {
  using Thunk = void (*)(FnOp, FnStorage& self, FnStorage* to);

  template <class F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "an event closure takes no arguments");
    static_assert(sizeof(D) <= kEventFnCapacity,
                  "event closure larger than kEventFnCapacity: capture less, "
                  "or wrap this call site's closure in std::function");
    static_assert(alignof(D) <= alignof(std::uint64_t),
                  "event closure over-aligned for the inline buffer");
    ::new (static_cast<void*>(buf)) D(std::forward<F>(f));
    thunk = &thunk_of<D>;
  }
  /// Invoke the closure, then destroy it (also when it throws).
  void run() { thunk(FnOp::run, *this, nullptr); }
  void destroy() { thunk(FnOp::destroy, *this, nullptr); }
  /// Move the closure into empty storage `to` and destroy it here.
  void relocate_to(FnStorage& to) { thunk(FnOp::relocate, *this, &to); }

  template <class D>
  static void thunk_of(FnOp op, FnStorage& self, FnStorage* to) {
    D& f = *std::launder(reinterpret_cast<D*>(self.buf));
    switch (op) {
      case FnOp::run: {
        struct Destroy {
          D& f;
          ~Destroy() { f.~D(); }
        } guard{f};
        f();
        return;
      }
      case FnOp::destroy:
        f.~D();
        return;
      case FnOp::relocate:
        ::new (static_cast<void*>(to->buf)) D(std::move(f));
        to->thunk = self.thunk;
        f.~D();
        return;
    }
  }

  alignas(std::uint64_t) unsigned char buf[kEventFnCapacity];
  Thunk thunk;
};

}  // namespace detail

/// A move-only `void()` closure held inline (kEventFnCapacity bytes, never
/// on the heap).  It carries a closure toward an engine that cannot take it
/// yet — a cross-partition post waiting in a ParEngine outbox;
/// Engine::post_at moves it into a slot.  Implicitly constructible from any
/// closure, so a parameter of this type accepts a lambda directly.
class EventFn {
 public:
  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    s_.construct(std::forward<F>(f));
  }
  EventFn(EventFn&& other) noexcept {
    s_.thunk = nullptr;
    if (other.s_.thunk != nullptr) {
      other.s_.relocate_to(s_);
      other.s_.thunk = nullptr;
    }
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  EventFn& operator=(EventFn&&) = delete;
  ~EventFn() {
    if (s_.thunk != nullptr) s_.destroy();
  }

 private:
  friend class Engine;
  detail::FnStorage s_;
};

class Engine;

/// Handle that lets the scheduler of an event cancel it before it fires:
/// (engine, slot, generation), trivially copyable.  A handle must not
/// outlive its engine.
///
/// Lifecycle: pending() is true from schedule until the event either fires
/// or is cancelled.  The engine bumps the slot's generation *before*
/// invoking the event's closure, so a handle held across the firing reports
/// the event as no longer pending, and a late cancel() is a no-op instead of
/// silently "cancelling" something that already ran — or, once the slot
/// has been reused, a later event that happens to occupy it.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Engine {
 public:
  Engine() = default;
  /// Destroys the closures of events still pending, each exactly once.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule cancellable `fn` at absolute time `t`; `t < now()` clamps to
  /// now() and counts (see past_schedules_clamped) — or hard-fails when the
  /// ICSIM_CHECK auditor is armed (a past schedule means a model component
  /// computed a timestamp from stale state).
  template <class F>
  EventHandle schedule_at(Time t, F&& fn) {
    const std::uint32_t i = enqueue(t, std::forward<F>(fn));
    return EventHandle{this, i, slot(i).gen};
  }

  /// Schedule cancellable `fn` to run `delay` after now.
  template <class F>
  EventHandle schedule_in(Time delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Fast path: schedule `fn` at absolute time `t` with no cancellation
  /// handle.
  template <class F>
  void post_at(Time t, F&& fn) {
    (void)enqueue(t, std::forward<F>(fn));
  }

  /// Fast path: schedule `fn` to run `delay` after now (not cancellable).
  template <class F>
  void post_in(Time delay, F&& fn) {
    post_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run until the event queue drains.  Returns the final simulated time,
  /// which callers that only need side effects may ignore (now() has it).
  Time run();  // icsim-lint: allow(nodiscard-time)

  /// Run until the queue drains or simulated time would pass `deadline`.
  Time run_until(Time deadline);  // icsim-lint: allow(nodiscard-time)

  /// Events processed so far (for perf bookkeeping and tests).
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::size_t events_pending() const { return heap_.size(); }

  /// Cancelled events dropped from the queue without executing — whether
  /// skipped by step() when their time arrived or drained from the head by
  /// run_until()'s deadline guard.  Queue-depth accounting must satisfy
  /// scheduled == processed + cancelled_dropped + pending; surfacing the
  /// middle term keeps otherwise-identical runs that differ only in
  /// cancellation timing reconcilable.  Published as "sim.cancelled_dropped".
  [[nodiscard]] std::uint64_t events_cancelled_dropped() const {
    return cancelled_dropped_;
  }

  /// Timestamp of the next live (not cancelled) event, or nullopt when the
  /// queue is drained.  Cancelled keys found at the head are dropped and
  /// counted exactly as run_until()'s drain does.  The parallel engine uses
  /// this to compute the next barrier window across partitions.
  [[nodiscard]] std::optional<Time> next_event_time();

  /// FNV-1a fingerprint of the executed event stream: (timestamp, sequence)
  /// of every event, folded in execution order.  Two runs of the same
  /// workload with the same seed must agree — the determinism contract
  /// asserted by tests and CI (see sim/check.hpp).
  [[nodiscard]] std::uint64_t event_digest() const { return digest_.value(); }

  /// How many schedule requests asked for a time in the past and were
  /// clamped to now().  Also surfaced in the metrics registry as
  /// "sim.schedule_past_clamped".  A nonzero count usually means a model
  /// component computed a timestamp from stale state.
  [[nodiscard]] std::uint64_t past_schedules_clamped() const {
    return past_clamped_count_;
  }

  /// Tracing & metrics attached to this engine (see trace/trace.hpp for
  /// the instrumentation macros).
  [[nodiscard]] trace::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const trace::Tracer& tracer() const { return tracer_; }

 private:
  friend class EventHandle;

  struct Slot {
    detail::FnStorage fn;
    std::uint32_t gen;        ///< bumped when the event fires or is cancelled
    std::uint32_t next_free;  ///< free-list link while the slot is unused
  };
  /// Heap key; (t, seq) is a total order, so the event order — and the
  /// digest — do not depend on the heap's internal layout.
  struct Key {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;  ///< the slot's generation when the event was queued
  };
  static_assert(sizeof(Key) == 24);

  // 1024 slots (88 KB) per chunk.  Fresh slots are handed out in address
  // order and freed ones reused last-in first-out, so only the pages of the
  // peak pending-event count are ever touched.
  static constexpr std::uint32_t kChunkBits = 10;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
  static constexpr std::uint32_t kNoSlot = ~0u;
  static_assert(sizeof(Slot) == 88);

  [[nodiscard]] Slot& slot(std::uint32_t i) {
    return chunks_[i >> kChunkBits][i & kChunkMask];
  }

  /// Place `fn` in a slot and queue its key; returns the slot index.
  template <class F>
  std::uint32_t enqueue(Time t, F&& fn) {
    const Time at = clamped(t);
    const std::uint32_t i = free_head_ != kNoSlot ? free_head_ : fresh_slot();
    Slot& s = slot(i);
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, EventFn>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "an EventFn is moved into the engine: pass std::move(fn)");
      fn.s_.relocate_to(s.fn);
      fn.s_.thunk = nullptr;
    } else {
      s.fn.construct(std::forward<F>(fn));
    }
    // Claimed only now, so a throwing closure constructor leaks nothing.
    if (i == free_head_) {
      free_head_ = s.next_free;
    } else {
      ++slots_used_;
    }
    push(Key{at, next_seq_++, i, s.gen});
    return i;
  }

  /// Index of the next never-used slot (its chunk allocated, generation
  /// zeroed); slots_used_ advances once the slot is claimed.
  std::uint32_t fresh_slot();
  void release(std::uint32_t i) {
    slot(i).next_free = free_head_;
    free_head_ = i;
  }
  /// Frees a fired event's slot once its closure is gone, also when the
  /// closure throws.
  struct SlotRelease {
    Engine& engine;
    std::uint32_t slot;
    ~SlotRelease() { engine.release(slot); }
  };
  void push(const Key& k);
  Key pop();

  bool step();
  [[nodiscard]] Time clamped(Time t);
  void sample_queue_depth();
  void drop_cancelled(std::uint32_t i);

  std::vector<Key> heap_;  ///< binary min-heap on (t, seq)
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_used_ = 0;  ///< slots ever handed out
  std::uint32_t free_head_ = kNoSlot;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  check::Fnv1a digest_;
  trace::Tracer tracer_;
  // Counters are plain members — the engine itself is the source of truth.
  // The metrics-registry mirrors are bound lazily below, with explicit
  // "bound yet?" state (std::optional / nullable mirror pointer) instead of
  // zero-value sentinels: a registry id of 0 or an unbound mirror must never
  // be confusable with "counter is zero" or "not registered yet".
  std::uint64_t past_clamped_count_ = 0;
  std::uint64_t cancelled_dropped_ = 0;
  std::uint64_t* past_clamped_metric_ = nullptr;   ///< mirror into metrics
  std::uint64_t* cancelled_dropped_metric_ = nullptr;
  std::optional<std::uint32_t> trace_id_;  ///< registered trace component
};

inline bool EventHandle::pending() const {
  return engine_ != nullptr && engine_->slot(slot_).gen == gen_;
}

inline void EventHandle::cancel() {
  if (pending()) ++engine_->slot(slot_).gen;
}

}  // namespace icsim::sim
