#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

namespace icsim::sim {

Time Engine::clamped(Time t) {
  if (t >= now_) return t;
  // Under the auditor a past schedule is a modeling bug, not a rounding
  // artifact: fail loudly instead of silently rewriting the timestamp.
  ICSIM_CHECK(t >= now_, "schedule into the simulated past");
  ++past_clamped_count_;
  if (past_clamped_metric_ == nullptr) {
    past_clamped_metric_ =
        &tracer_.metrics().counter("sim.schedule_past_clamped");
  }
  *past_clamped_metric_ = past_clamped_count_;
  return now_;
}

Engine::~Engine() {
  // Every constructed closure belongs to exactly one queued key (cancelled
  // ones included), so this destroys each pending closure once.
  for (const Key& k : heap_) slot(k.slot).fn.destroy();
}

std::uint32_t Engine::fresh_slot() {
  const std::uint32_t i = slots_used_;
  if ((i >> kChunkBits) == chunks_.size()) {
    // Default-initialised: the slots stay untouched until handed out.
    chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkMask + 1));
  }
  slot(i).gen = 0;
  return i;
}

namespace {
struct Later {
  template <class K>
  bool operator()(const K& a, const K& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};
}  // namespace

void Engine::push(const Key& k) {
  heap_.push_back(k);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Engine::Key Engine::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key k = heap_.back();
  heap_.pop_back();
  return k;
}

void Engine::sample_queue_depth() {
  if (!trace_id_.has_value()) {
    trace_id_ = tracer_.register_component(trace::Category::engine, "engine");
  }
  const auto t = now_;
  tracer_.counter(trace::Category::engine, *trace_id_, "queue_depth", t,
                  static_cast<double>(heap_.size()));
  tracer_.counter(trace::Category::engine, *trace_id_, "events_processed", t,
                  static_cast<double>(processed_));
}

void Engine::drop_cancelled(std::uint32_t i) {
  // A cancelled event leaves the queue without executing.  Count it: the
  // events_pending() invariant (scheduled == processed + dropped + pending)
  // must reconcile across runs that differ only in cancellation timing.
  slot(i).fn.destroy();
  release(i);
  ++cancelled_dropped_;
  if (cancelled_dropped_metric_ == nullptr) {
    cancelled_dropped_metric_ =
        &tracer_.metrics().counter("sim.cancelled_dropped");
  }
  *cancelled_dropped_metric_ = cancelled_dropped_;
}

bool Engine::step() {
  while (!heap_.empty()) {
    const Key k = pop();
    Slot& s = slot(k.slot);
    if (s.gen != k.gen) {  // cancelled
      drop_cancelled(k.slot);
      continue;
    }
    assert(k.t >= now_);
    ICSIM_CHECK(k.t >= now_, "engine time must be monotonic");
    now_ = k.t;
    ++processed_;
    digest_.fold(static_cast<std::uint64_t>(k.t.picoseconds()));
    digest_.fold(k.seq);
    // The event is now fired, not pending: bump the generation before the
    // closure runs so handles held across the firing answer pending() with
    // false and a late cancel() is a no-op (it would otherwise "cancel" an
    // event that already executed, silently).
    ++s.gen;
    // Periodic self-observation: queue depth + throughput, cheap enough to
    // key off the processed-event count (one branch when tracing is off).
    if (tracer_.enabled() && (processed_ & 1023u) == 0) sample_queue_depth();
    // The slot returns to the free list once the closure is gone, also when
    // it throws; until then the events it posts take other slots.
    const SlotRelease release_after{*this, k.slot};
    s.fn.run();
    return true;
  }
  return false;
}

Time Engine::run() {
  while (step()) {
  }
  return now_;
}

std::optional<Time> Engine::next_event_time() {
  while (!heap_.empty()) {
    const Key& head = heap_.front();
    if (slot(head.slot).gen == head.gen) return head.t;
    drop_cancelled(pop().slot);
  }
  return std::nullopt;
}

Time Engine::run_until(Time deadline) {
  for (;;) {
    // Drop cancelled tombstones at the head so the deadline guard below
    // tests the next *live* event.  A dead head with t <= deadline would
    // pass the guard while step() skips it and executes the next live
    // event — which may lie past the deadline.
    const std::optional<Time> next = next_event_time();
    if (!next.has_value() || *next > deadline) break;
    step();
  }
  if (now_ < deadline && heap_.empty()) {
    return now_;
  }
  now_ = deadline > now_ ? deadline : now_;
  return now_;
}

}  // namespace icsim::sim
