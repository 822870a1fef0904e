#pragma once
// Parallel cluster assembly: the intra-run-threaded counterpart of
// core::Cluster for large-scale collective extrapolation.
//
// A ParCluster takes the same core::ClusterConfig a Cluster does, but runs
// its workload on the conservatively synchronized ParEngine: the same
// net::Fabric runs partitioned over the engine's shards, and the ranks are
// event-driven state machines (collective.hpp) instead of fibers.  This is
// what makes 8192-node points tractable — the fiber tier allocates per-rank
// stacks and O(n^2) connection state, and its fibers pin the whole
// simulation to one thread.
//
// Scope: ppn == 1, InfiniBand or Quadrics, barrier/allreduce workloads, and
// fault plans consisting only of link-down windows (evaluated as pure time
// functions; BER draws and node stalls would need RNG/state shared across
// shards and are rejected).  The ClusterConfig::intra_run_threads knob
// selects the worker count — pure host policy: the run's event_digest is
// byte-identical for any thread count, and CI enforces -j1 == -j8 on the
// fig8_simulated scenarios (docs/MODEL.md section 14).
//
// Environment override: ICSIM_PAR_THREADS (honored when
// ClusterConfig::env_overrides is set, like ICSIM_TRACE / ICSIM_FAULTS)
// forces the thread count without a rebuild — how the CI digest matrix
// drives the same binary at 1/2/4/8 threads.  Its value must be a positive
// integer in int range; anything else throws std::invalid_argument.

#include <cstdint>
#include <memory>
#include <string_view>

#include "core/cluster.hpp"
#include "par/collective.hpp"
#include "net/fabric.hpp"
#include "par/par_engine.hpp"

namespace icsim::par {

/// Per-message cost model derived from the network's NIC config: IB charges
/// the HCA's WQE fetch/execute per send and CQE retirement per receive;
/// Elan charges the PIO descriptor post + NIC thread tx service per send
/// and envelope processing + completion write per receive.  The chunk
/// granularity follows each stack's DES pipeline granularity.
[[nodiscard]] ParNetParams params_for(const core::ClusterConfig& config);

/// Parse an `ICSIM_PAR_THREADS` value: a whole positive count in int
/// range.  Throws std::invalid_argument naming the variable otherwise,
/// rather than guess a thread count.
[[nodiscard]] int parse_par_threads(std::string_view text);

struct ParRunStats {
  std::uint64_t events_processed = 0;
  /// Canonical partition-merge digest (ParEngine::event_digest) —
  /// thread-count invariant; "same seed, same partitions => same digest".
  std::uint64_t event_digest = 0;
  std::uint64_t fabric_chunks = 0;
  std::uint64_t messages = 0;              ///< point-to-point sends
  std::uint64_t cross_posts = 0;           ///< partition hand-offs
  std::uint64_t windows = 0;               ///< barrier windows executed
  std::uint64_t chunks_rerouted = 0;
  std::uint64_t chunks_dropped_link_down = 0;
  double simulated_us = 0.0;               ///< last rank's completion time
  int partitions = 0;
  /// Worker threads actually used.  Host-dependent — keep it OUT of sweep
  /// metrics/digests (the determinism-taint boundary).
  int threads_used = 0;
};

class ParCluster {
 public:
  /// `partitions` <= 0 selects the default (kDefaultPartitions, clamped by
  /// the topology).  The partition count is part of the model's identity —
  /// the digest depends on it — so it must come from config/topology only.
  explicit ParCluster(const core::ClusterConfig& config, int partitions = 0);
  ParCluster(const ParCluster&) = delete;
  ParCluster& operator=(const ParCluster&) = delete;

  /// Fixed default shard count.  Deliberately a constant (not derived from
  /// the host): changing it changes per-shard event numbering and hence the
  /// digest.
  static constexpr int kDefaultPartitions = 8;

  /// Run the collective workload to completion and report.  One run per
  /// ParCluster (like core::Cluster, state is not reset).  Throws on
  /// communication deadlock (e.g. a fault plan that partitioned the
  /// fabric).
  ParRunStats run(const CollectiveSpec& spec);

  [[nodiscard]] int partitions() const { return engine_->partitions(); }
  [[nodiscard]] int threads_used() const { return engine_->threads_used(); }
  [[nodiscard]] ParEngine& engine() { return *engine_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const core::ClusterConfig& config() const { return cfg_; }

 private:
  core::ClusterConfig cfg_;
  std::unique_ptr<ParEngine> engine_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<CollectiveWorld> world_;
};

}  // namespace icsim::par
