#pragma once
// Trace sinks: where recorded events go.
//
// The recorder on the hot path is RingBufferSink: a fixed-capacity
// power-of-two ring written with a single relaxed atomic store per event
// (single-producer — the simulator is single-threaded — with the atomic
// head making concurrent snapshot() from another thread safe, e.g. a
// watchdog dumping a live run).  When the ring wraps, the oldest events are
// overwritten and counted as dropped; a trace keeps the most recent window,
// which is what you want when a run dies at the end.
//
// NullSink exists so `Tracer` always has a valid sink; the enabled() fast
// path means instrumented code never reaches it in the disabled case.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "trace/event.hpp"

namespace icsim::trace {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const Event& e) = 0;
};

class NullSink final : public TraceSink {
 public:
  void record(const Event&) override {}
};

class RingBufferSink final : public TraceSink {
 public:
  /// The largest power of two a std::size_t holds.
  static constexpr std::size_t kMaxCapacity =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);

  /// `capacity` is rounded up to a power of two (min 64).  Throws
  /// std::length_error above kMaxCapacity: no power of two holds that.
  explicit RingBufferSink(std::size_t capacity) {
    if (capacity > kMaxCapacity) {
      throw std::length_error(
          "RingBufferSink: no power of two of std::size_t holds the capacity");
    }
    std::size_t c = 64;
    while (c < capacity) c <<= 1;
    buf_.resize(c);
    mask_ = c - 1;
  }

  void record(const Event& e) override {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    buf_[static_cast<std::size_t>(h) & mask_] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  /// Events ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Events lost to wraparound.
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t h = recorded();
    return h > buf_.size() ? h - buf_.size() : 0;
  }

  /// Copy out the retained events, oldest first.
  [[nodiscard]] std::vector<Event> snapshot() const {
    const std::uint64_t h = recorded();
    const std::uint64_t n = h > buf_.size() ? buf_.size() : h;
    std::vector<Event> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = h - n; i < h; ++i) {
      out.push_back(buf_[static_cast<std::size_t>(i) & mask_]);
    }
    return out;
  }

 private:
  std::vector<Event> buf_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace icsim::trace
