#pragma once
// FaultInjector: makes a FaultPlan happen to one fabric.
//
// The injector has two roles.  As the fabric's net::FaultHooks it answers
// per-hop BER queries and performs the deterministic corruption draws (one
// mt19937_64 stream seeded from the plan, independent of every application
// stream — a fault-free plan draws nothing, keeping runs bit-identical to a
// fabric without an injector).  It hands the plan's link down windows to
// the fabric, which evaluates them at simulated time, and posts one event
// per down/up transition that only counts and traces it.  It also posts
// the node stall windows, freezing node resources when the simulation
// clock reaches them.

#include <cstdint>
#include <vector>

#include "fault/plan.hpp"
#include "net/fabric.hpp"
#include "node/node.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace icsim::fault {

class FaultInjector final : public net::FaultHooks {
 public:
  /// `fallback_seed` (typically the cluster seed) seeds the corruption
  /// stream when the plan does not pin its own seed.
  FaultInjector(sim::Engine& engine, FaultPlan plan,
                std::uint64_t fallback_seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Hook into `fabric`, install the plan's link down windows on it, and
  /// schedule the counting/tracing events of their transitions.  Validates
  /// every LinkRef against the fabric's topology and throws
  /// std::invalid_argument on out-of-range nodes or non-adjacent switches.
  /// The injector must outlive the fabric's use of it.
  void install(net::Fabric& fabric);

  /// Schedule the plan's node stall windows (`nodes` indexed by node id).
  void install_node_stalls(const std::vector<node::Node*>& nodes);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // net::FaultHooks
  [[nodiscard]] double link_ber(const net::Hop& hop) const override;
  bool draw_corruption(double ber, std::uint64_t wire_bytes) override;

  [[nodiscard]] std::uint64_t link_down_events() const { return downs_; }
  [[nodiscard]] std::uint64_t link_up_events() const { return ups_; }
  [[nodiscard]] std::uint64_t node_stalls() const { return stalls_; }
  [[nodiscard]] std::uint64_t corruption_draws() const { return draws_; }

  void publish_metrics(trace::MetricsRegistry& m) const;

 private:
  void trace_transition(const char* what);

  sim::Engine& engine_;
  FaultPlan plan_;
  sim::Rng rng_;
  std::uint64_t downs_ = 0;
  std::uint64_t ups_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t draws_ = 0;
  std::uint32_t trace_id_ = 0;
};

}  // namespace icsim::fault
