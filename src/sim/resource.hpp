#pragma once
// Contended, FIFO-served resources.
//
// A FifoResource models anything that serves one request at a time in
// arrival order — a PCI-X bus doing DMA bursts, the Elan-4 NIC thread
// processor, a link transmitter.  The classic busy-until formulation gives
// exact FIFO semantics in O(1) per request:
//
//     start  = max(now, next_free)
//     finish = start + service_time
//
// The completion callback fires at `finish`.

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace icsim::sim {

class FifoResource {
 public:
  FifoResource(Engine& engine, std::string name)
      : engine_(&engine), name_(std::move(name)) {}

  /// Enqueue a request needing `service` time; `on_done` fires when served
  /// (an empty std::function or nullptr means no callback).  The closure
  /// goes straight into the engine's event slot.  Returns the completion
  /// time (advisory when a callback is given).
  template <class F>
  Time acquire(Time service, F&& on_done) {  // icsim-lint: allow(nodiscard-time)
    const Time finish = acquire(service);
    if constexpr (!std::is_null_pointer_v<std::remove_cvref_t<F>>) {
      if (!is_empty(on_done)) engine_->post_at(finish, std::forward<F>(on_done));
    }
    return finish;
  }

  /// Reserve without a callback (caller tracks the returned finish time).
  [[nodiscard]] Time acquire(Time service) {
    const Time start = next_free_ > engine_->now() ? next_free_ : engine_->now();
    const Time finish = start + service;
    next_free_ = finish;
    busy_accum_ += service;
    ++requests_;
    return finish;
  }

  /// Earliest instant a new request could start service.
  [[nodiscard]] Time next_free() const { return next_free_; }
  [[nodiscard]] bool busy() const { return next_free_ > engine_->now(); }

  [[nodiscard]] std::uint64_t requests() const { return requests_; }
  /// Total service time accumulated (utilization = busy_time / elapsed).
  [[nodiscard]] Time busy_time() const { return busy_accum_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  template <class F>
  static bool is_empty(const F& f) {
    if constexpr (std::is_same_v<F, std::function<void()>>) {
      return !f;
    } else {
      return false;  // a closure is never empty
    }
  }

  Engine* engine_;
  std::string name_;
  Time next_free_ = Time::zero();
  Time busy_accum_ = Time::zero();
  std::uint64_t requests_ = 0;
};

/// A FifoResource whose service time is derived from a byte count at a fixed
/// rate — buses and memory channels.
class BandwidthResource {
 public:
  BandwidthResource(Engine& engine, std::string name, Bandwidth bw,
                    Time per_request_overhead = Time::zero())
      : fifo_(engine, std::move(name)), bw_(bw), overhead_(per_request_overhead) {}

  template <class F>
  Time transfer(std::uint64_t bytes, F&& on_done) {  // icsim-lint: allow(nodiscard-time)
    return fifo_.acquire(overhead_ + bw_.transfer_time(bytes),
                         std::forward<F>(on_done));
  }
  [[nodiscard]] Time transfer(std::uint64_t bytes) {
    return fifo_.acquire(overhead_ + bw_.transfer_time(bytes));
  }

  /// Ordering point: fires after everything already queued, costing no
  /// service time (not even the per-request overhead).
  template <class F>
  Time transfer_ordered(F&& on_done) {  // icsim-lint: allow(nodiscard-time)
    return fifo_.acquire(Time::zero(), std::forward<F>(on_done));
  }

  /// Occupy the resource for `d` without moving any bytes (fault injection:
  /// a stalled device serves nothing while the window lasts).  Queued and
  /// later requests are pushed back FIFO-fashion behind the stall.
  Time stall(Time d) { return fifo_.acquire(d); }  // icsim-lint: allow(nodiscard-time)

  [[nodiscard]] Bandwidth rate() const { return bw_; }
  [[nodiscard]] Time next_free() const { return fifo_.next_free(); }
  [[nodiscard]] std::uint64_t requests() const { return fifo_.requests(); }
  [[nodiscard]] Time busy_time() const { return fifo_.busy_time(); }

 private:
  FifoResource fifo_;
  Bandwidth bw_;
  Time overhead_;
};

}  // namespace icsim::sim
