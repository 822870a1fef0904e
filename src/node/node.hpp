#pragma once
// Host node model: a dual-CPU server with a shared memory bus and a shared
// PCI-X segment for the high-speed interconnect.
//
// This reproduces the study's compute platform (Dell PowerEdge 1750: dual
// 3.06 GHz Xeon, ServerWorks GC-LE, 133 MHz / 64-bit PCI-X).  The shared
// resources are what make 1 PPN and 2 PPN behave differently:
//   * both ranks' host-side message copies contend on the memory bus;
//   * both ranks' NIC DMA traffic contends on the one PCI-X segment;
//   * concurrent compute phases slow each other down by a calibrated
//     memory-contention factor (the Xeons share one front-side bus).

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/blocking.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace icsim::node {

struct NodeConfig {
  int cpus = 2;
  /// Sustained host copy bandwidth (bounded by the FSB, not peak DDR).
  sim::Bandwidth memory_copy_bandwidth = sim::Bandwidth::gb_per_sec(1.5);
  sim::Time memory_copy_overhead = sim::Time::ns(80);  ///< per copy call
  /// 133 MHz x 64 bit PCI-X raw rate; per-DMA overhead covers bus
  /// arbitration and the read-request round trip.
  sim::Bandwidth pcix_bandwidth = sim::Bandwidth::mb_per_sec(1066.0);
  sim::Time pcix_dma_overhead = sim::Time::ns(250);
  /// Multiplier applied to a compute section while the sibling CPU is also
  /// computing (shared front-side bus).  1.0 disables the effect.
  double smp_compute_slowdown = 1.08;
};

class Node {
 public:
  Node(sim::Engine& engine, int id, const NodeConfig& config)
      : engine_(engine),
        id_(id),
        cfg_(config),
        membus_(engine, "membus", config.memory_copy_bandwidth,
                config.memory_copy_overhead),
        pcix_(engine, "pcix", config.pcix_bandwidth, config.pcix_dma_overhead) {
    if (config.cpus < 1) throw std::invalid_argument("Node: cpus must be >= 1");
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int cpus() const { return cfg_.cpus; }
  [[nodiscard]] const NodeConfig& config() const { return cfg_; }

  /// Blocking (fiber) compute phase of modeled duration `d`.  While more
  /// than one CPU is inside a compute phase, the duration stretches by the
  /// configured SMP slowdown.
  void compute(sim::Time d) {
    const bool contended = active_compute_ > 0;
    ++active_compute_;
    const double factor =
        contended && cfg_.cpus > 1 ? cfg_.smp_compute_slowdown : 1.0;
    sim::sleep_for(engine_, d * factor);
    --active_compute_;
  }

  /// Blocking host memory copy (eager buffers, unexpected-message copies).
  void host_copy(std::uint64_t bytes) {
    sim::Fiber* const f = sim::Fiber::current();
    membus_.transfer(bytes, [f] { f->resume(); });
    sim::Fiber::yield();
  }

  /// Non-blocking host copy charged to the memory bus (NIC-driven copies).
  /// Completion is signalled through `done`; the returned time is advisory.
  template <class F>
  sim::Time host_copy_async(std::uint64_t bytes, F&& done) {  // icsim-lint: allow(nodiscard-time)
    return membus_.transfer(bytes, std::forward<F>(done));
  }

  /// Asynchronous DMA across the PCI-X segment; returns completion time
  /// (advisory — completion is signalled through `done`).
  template <class F>
  sim::Time dma(std::uint64_t bytes, F&& done) {  // icsim-lint: allow(nodiscard-time)
    return pcix_.transfer(bytes, std::forward<F>(done));
  }

  /// Zero-cost ordering point on the PCI-X FIFO: `done` fires once every
  /// transaction already queued has drained (PCI ordering semantics for a
  /// doorbell behind posted DMA), without consuming bus time itself.
  template <class F>
  sim::Time pcix_ordered(F&& done) {  // icsim-lint: allow(nodiscard-time)
    return pcix_.transfer_ordered(std::forward<F>(done));
  }

  /// Fault injection: freeze the node's memory bus and PCI-X segment for
  /// `d` starting now — every copy/DMA posted during (or queued across) the
  /// window finishes after it (OS pause, thermal throttle, ECC scrub storm).
  void stall(sim::Time d) {
    membus_.stall(d);
    pcix_.stall(d);
  }

  /// True while any CPU is inside a compute phase (transports use this to
  /// model cache/FSB contention for host-side protocol processing).
  [[nodiscard]] bool any_compute_active() const { return active_compute_ > 0; }

  [[nodiscard]] sim::BandwidthResource& pcix() { return pcix_; }
  [[nodiscard]] sim::BandwidthResource& membus() { return membus_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

 private:
  sim::Engine& engine_;
  int id_;
  NodeConfig cfg_;
  sim::BandwidthResource membus_;
  sim::BandwidthResource pcix_;
  int active_compute_ = 0;
};

}  // namespace icsim::node
