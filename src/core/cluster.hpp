#pragma once
// Cluster assembly: nodes + fabric + NICs + MPI ranks for one experiment.
//
// This is the reproduction of the study's two partitions.  A Cluster is
// built for one network type, one node count and one processes-per-node
// setting; run() executes an SPMD function in every rank (each rank is a
// fiber) and returns when all ranks have finished.

#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/calibration.hpp"
#include "elan/tports.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "ib/hca.hpp"
#include "mpi/mpi.hpp"
#include "mpi/mvapich_transport.hpp"
#include "mpi/quadrics_transport.hpp"
#include "net/fabric.hpp"
#include "node/node.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "trace/sink.hpp"

namespace icsim::replay {
class CaptureSession;
}

namespace icsim::core {

enum class Network {
  infiniband,
  quadrics,
  myrinet,  ///< extension: the third network of Liu et al. [11]
};

[[nodiscard]] inline const char* to_string(Network n) {
  switch (n) {
    case Network::infiniband: return "4X InfiniBand";
    case Network::quadrics: return "Quadrics Elan-4";
    case Network::myrinet: return "Myrinet 2000";
  }
  return "?";
}

struct ClusterConfig {
  Network network = Network::quadrics;
  int nodes = 2;
  int ppn = 1;  ///< MPI processes per node (the paper uses 1 and 2)
  node::NodeConfig node = poweredge1750();
  ib::HcaConfig hca = voltaire_hca400();
  mpi::MvapichConfig mvapich = mvapich_092();
  elan::ElanConfig elan = elan4_qm500();
  mpi::QuadricsConfig quadrics = quadrics_mpi();
  std::uint64_t seed = 0x5eed;
  /// Include MPI_Init cost (QP setup, ring pinning) in the timeline.
  bool charge_init = false;
  /// Opt-in tracing: when non-empty, run() writes a Chrome/Perfetto trace to
  /// this path, plus `<stem>.metrics.json` and `<stem>.counters.csv` next to
  /// it.  Left empty, the `ICSIM_TRACE` environment variable is consulted
  /// instead (value = output path), so any bench or example can emit a
  /// trace without a rebuild.  A second Cluster in the same process writes
  /// to `<stem>.2<ext>`, a third to `<stem>.3<ext>`, and so on.
  std::string trace_path;
  /// Ring-buffer capacity in events (newest kept); `ICSIM_TRACE_EVENTS`
  /// overrides when the path came from the environment.
  std::size_t trace_events = 1u << 20;
  /// Fault plan to install on the fabric (see fault/plan.hpp).  Left empty,
  /// the `ICSIM_FAULTS` environment variable is parsed instead, so any bench
  /// or example can run on a degraded fabric without a rebuild.  The plan's
  /// `watchdog` field, when set, arms both transports' watchdog timeouts.
  fault::FaultPlan faults;
  /// Opt-in MPI op capture for trace-driven replay (src/replay/): when
  /// non-empty, run() records every rank's top-level MPI calls and writes
  /// `<dir>/rank<r>.icst` on completion.  Left empty, the `ICSIM_MPI_TRACE`
  /// environment variable is consulted instead (value = output directory),
  /// so any app or bench can emit a replayable trace without a rebuild; a
  /// second capturing Cluster in the same process writes to `<dir>.2`, and
  /// so on.  Capture is pure observation — the run's event_digest is
  /// unchanged, and replaying the files reproduces it exactly.
  std::string mpi_trace_dir;
  /// Framed binary .icst instead of text (`ICSIM_MPI_TRACE_FORMAT=binary`
  /// when the directory came from the environment).
  bool mpi_trace_binary = false;
  /// Worker threads for intra-run parallel execution (the conservative
  /// parallel engine of src/par/).  Host policy only: the parallel tier's
  /// event_digest is byte-identical for any value, and `ICSIM_PAR_THREADS`
  /// overrides it without a rebuild (when env_overrides is on).  The
  /// fiber-based Cluster::run path is inherently serial — it throws when
  /// this is > 1; par::ParCluster is the consumer of this knob.
  int intra_run_threads = 1;
  /// Consult the `ICSIM_TRACE` / `ICSIM_FAULTS` / `ICSIM_MPI_TRACE`
  /// environment overrides above.  Auxiliary clusters built *inside* a run
  /// (topology inspection, the traffic layer's capacity calibration) turn
  /// this off so a user's fault spec or trace path applies only to the
  /// experiment itself.
  bool env_overrides = true;
};

[[nodiscard]] inline ClusterConfig ib_cluster(int nodes, int ppn = 1) {
  ClusterConfig c;
  c.network = Network::infiniband;
  c.nodes = nodes;
  c.ppn = ppn;
  return c;
}

[[nodiscard]] inline ClusterConfig elan_cluster(int nodes, int ppn = 1) {
  ClusterConfig c;
  c.network = Network::quadrics;
  c.nodes = nodes;
  c.ppn = ppn;
  return c;
}

/// Extension: Myrinet 2000 with MPICH-GM (see myrinet/gm.hpp).
[[nodiscard]] ClusterConfig myrinet_cluster(int nodes, int ppn = 1);

/// The calibrated fabric a Cluster of this network and size would build —
/// the single source of truth for fabric parameters, shared by Cluster's
/// constructor and by any layer that needs fabric facts without building a
/// cluster.  (Note: src/traffic/ sizes offered load against a *measured*
/// serving rate, traffic::calibrated_capacity_Bps, not raw link_bandwidth —
/// achievable goodput at serving-sized messages sits far below line rate.)
[[nodiscard]] net::FabricConfig fabric_config_for(Network net, int nodes);

/// Parse an `ICSIM_TRACE_EVENTS` value: a whole positive count that a
/// power-of-two ring can hold.  Throws std::invalid_argument naming the
/// variable otherwise, rather than guess a ring size.
[[nodiscard]] std::size_t parse_trace_events(std::string_view text);

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] int ranks() const { return cfg_.nodes * cfg_.ppn; }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] mpi::Mpi& mpi_of(int rank) { return *mpis_.at(static_cast<std::size_t>(rank)); }
  [[nodiscard]] node::Node& node_of_rank(int rank) {
    return *nodes_.at(static_cast<std::size_t>(rank / cfg_.ppn));
  }

  /// Run `rank_main` as an SPMD program across all ranks.  Returns the
  /// simulated time at which the last rank finished (advisory — tests that
  /// only inspect stats() may discard it).  Throws if any rank is still
  /// blocked when the event queue drains (communication deadlock).
  sim::Time run(const std::function<void(mpi::Mpi&)>& rank_main);  // icsim-lint: allow(nodiscard-time)

  /// Eager-ring memory a single InfiniBand rank pins (0 for Quadrics) —
  /// the Section 4.1 scalability observation about buffer space.
  [[nodiscard]] std::uint64_t ib_ring_memory_per_rank() const;

  /// Aggregate run statistics for post-run analysis.
  struct RunStats {
    std::uint64_t fabric_chunks = 0;       ///< wire chunks injected
    double max_link_busy_us = 0.0;         ///< hottest link's busy time
    std::uint64_t events_processed = 0;    ///< DES events
    /// FNV-1a fold of every executed event's (timestamp, sequence) pair.
    /// Two runs of the same workload with the same seeds must agree; see
    /// docs/MODEL.md section 8.
    std::uint64_t event_digest = 0;
    // InfiniBand side:
    std::uint64_t hca_writes = 0;          ///< RDMA writes posted
    std::uint64_t reg_hits = 0, reg_misses = 0, reg_evictions = 0;
    // Quadrics side:
    std::uint64_t nic_buffer_high_water = 0;  ///< unexpected bytes in SDRAM
    double nic_thread_busy_us = 0.0;          ///< busiest NIC thread
    // Fault/reliability (all zero on a clean fabric):
    std::uint64_t chunks_corrupted = 0;       ///< CRC-dropped wire chunks
    std::uint64_t chunks_rerouted = 0;        ///< took a non-default climb
    std::uint64_t chunks_dropped_link_down = 0;
    std::uint64_t rc_retries = 0;             ///< IB RC retransmissions
    std::uint64_t rc_retry_exhausted = 0;     ///< IB writes that gave up
    std::uint64_t retransmitted_bytes = 0;    ///< IB retransmission payload
    std::uint64_t elan_link_retries = 0;      ///< Elan hardware link retries
    std::uint64_t elan_link_retry_exhausted = 0;
    std::uint64_t watchdog_timeouts = 0;      ///< failed blocking waits
  };
  [[nodiscard]] RunStats stats() const;

  /// The installed fault injector, or nullptr when the plan is empty.
  [[nodiscard]] const fault::FaultInjector* injector() const {
    return injector_.get();
  }

  /// Fold end-of-run aggregates (link utilization, reg-cache hit rate,
  /// matcher queue depths, engine counters) into a metrics registry.
  /// Called automatically by run() when tracing; public for tests.
  void publish_metrics(trace::MetricsRegistry& m, sim::Time elapsed) const;

 private:
  void write_trace_files(sim::Time elapsed);

  ClusterConfig cfg_;
  sim::Engine engine_;
  std::unique_ptr<trace::RingBufferSink> trace_sink_;
  std::string trace_path_;  ///< resolved output path ("" = tracing off)
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<std::unique_ptr<node::Node>> nodes_;
  // InfiniBand stack:
  std::vector<std::unique_ptr<ib::Hca>> hcas_;
  std::vector<std::unique_ptr<mpi::MvapichTransport>> mv_transports_;
  // Quadrics stack:
  std::vector<std::unique_ptr<elan::ElanNic>> elan_nics_;
  elan::ElanWorld elan_world_;
  std::vector<std::unique_ptr<mpi::QuadricsTransport>> qs_transports_;

  std::vector<mpi::Transport*> transports_;
  std::vector<std::unique_ptr<mpi::Mpi>> mpis_;
  std::unique_ptr<replay::CaptureSession> capture_;
  std::string mpi_trace_dir_;  ///< resolved output directory ("" = off)
  sim::Time init_cost_ = sim::Time::zero();
};

}  // namespace icsim::core
