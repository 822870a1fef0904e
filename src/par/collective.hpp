#pragma once
// Event-driven collective workloads for the parallel engine.
//
// The fiber-based MPI tier (src/mpi/ + core::Cluster::run) cannot be
// partitioned: its rank fibers must resume on the thread that created
// them, and the transports' completion callbacks touch source- and
// destination-side state in one engine.  The parallel tier therefore runs
// collectives as *rank state machines*: each rank is plain per-partition
// data advanced by delivery events, so a rank's state is only ever touched
// by event code running in its own partition — no fibers, no shared
// mutable state, nothing for a worker thread to race on.  Ranks are values
// in one vector, each holding its CPU FIFO inline.
//
// Two operations, the ones the study's Figures scale with node count:
//   * barrier   — dissemination: ceil(log2 n) rounds, round k sends to
//                 (r + 2^k) mod n and waits on (r - 2^k) mod n;
//   * allreduce — recursive doubling over the largest power-of-two block,
//                 with fold-in/fold-out steps for the remainder ranks.
//
// Timing is an LogGP-style per-message model calibrated from the same NIC
// configs the full stacks use (params_for in par_cluster.hpp): a send
// serializes send_overhead on the rank's CPU, the chunk(s) traverse the
// partitioned net::Fabric, and the receiver serializes recv_overhead
// (+ reduce_cost when combining) before its state machine advances.
// Coarser than the full HCA/Elan models — no eager/rendezvous switch, no
// registration cache, no NIC thread contention — but it preserves the two
// fabric- and overhead-level effects Figure 8's extrapolation rests on:
// per-message host/NIC overhead (IB's WQE cost vs Elan's PIO post) and
// per-hop switch latency compounding with tree depth.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "par/par_engine.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace icsim::par {

enum class Collective { barrier, allreduce };

[[nodiscard]] inline const char* to_string(Collective c) {
  switch (c) {
    case Collective::barrier: return "barrier";
    case Collective::allreduce: return "allreduce";
  }
  return "?";
}

struct CollectiveSpec {
  Collective op = Collective::barrier;
  std::uint32_t bytes = 8;  ///< allreduce payload per rank (barrier ignores)
  int iterations = 1;       ///< back-to-back repetitions per rank
};

/// Per-message cost model of one network's host/NIC stack (see the header
/// comment; built from ib::HcaConfig / elan::ElanConfig by params_for).
struct ParNetParams {
  sim::Time send_overhead;  ///< CPU/NIC occupancy to put a message on the wire
  sim::Time recv_overhead;  ///< occupancy to take a delivery off the wire
  sim::Time reduce_cost;    ///< combining cost per received allreduce message
  std::uint32_t chunk_bytes = 2048;  ///< fabric pipeline granularity
  std::uint32_t ctrl_bytes = 64;     ///< wire size of a payload-less envelope
};

/// One rank per node (ppn == 1), each a state machine living in its node's
/// partition.  Construct, then start(); completion is reached when the
/// engine drains — check all_done() afterwards (a false return with a
/// drained engine is a communication deadlock, e.g. a fault plan that
/// partitioned the fabric).
class CollectiveWorld {
 public:
  /// `fabric` must be partitioned over `engine`'s shards.
  CollectiveWorld(ParEngine& engine, net::Fabric& fabric,
                  const ParNetParams& params);

  /// Schedule every rank's first iteration at t = 0.  Call once, before
  /// ParEngine::run().
  void start(const CollectiveSpec& spec);

  // Post-run accessors (aggregate per-rank state; single-threaded only).
  [[nodiscard]] bool all_done() const;
  /// Ranks that finished every iteration (== ranks() when all_done()).
  [[nodiscard]] int ranks_done() const;
  [[nodiscard]] int ranks() const { return ranks_; }
  /// Simulated instant the last rank finished its last iteration.
  [[nodiscard]] sim::Time completion_time() const;
  /// Point-to-point messages sent across all ranks and iterations.
  [[nodiscard]] std::uint64_t messages_sent() const;

 private:
  struct Rank {
    Rank(int rank, int partition, sim::Engine& shard)
        : id(rank),
          part(partition),
          cpu(shard, "rank" + std::to_string(rank) + ".cpu") {}

    int id = 0;
    int part = 0;
    sim::FifoResource cpu;  ///< serializes send/recv overhead
    int iter = 0;   ///< current iteration
    int phase = 0;  ///< allreduce: 0 fold-in, 1 doubling, 2 fold-out
    int round = 0;  ///< round within the phase
    bool done = false;
    sim::Time finished = sim::Time::zero();
    std::uint64_t sent = 0;
    /// Fully arrived messages by key, possibly ahead of this rank's
    /// progress (a fast peer's round k+1 message can land while we wait on
    /// round k); consumed as the state machine advances.
    std::map<std::uint64_t, int> arrived;
    /// Chunks received per in-flight multi-chunk message.
    std::map<std::uint64_t, std::uint32_t> chunks_got;
  };

  /// Unique key of the single message a rank expects at (iter, phase,
  /// round) — each slot has exactly one sender in both algorithms.
  [[nodiscard]] static std::uint64_t key_of(int iter, int phase, int round) {
    return (static_cast<std::uint64_t>(iter) << 10) |
           (static_cast<std::uint64_t>(phase) << 6) |
           static_cast<std::uint64_t>(round);
  }

  void send(Rank& from, int to, int iter, int phase, int round,
            std::uint32_t bytes);
  void on_chunk(int dst, std::uint64_t key, std::uint32_t nchunks, int phase);
  void on_message(Rank& r, std::uint64_t key);
  /// Advance `r` as far as arrived messages allow; performs the sends each
  /// new state requires.
  void advance(Rank& r);
  void begin_iteration(Rank& r);
  void finish_iteration(Rank& r);
  /// Consume the message for the given slot if it has arrived.
  [[nodiscard]] bool take(Rank& r, int phase, int round);

  ParEngine& par_;
  net::Fabric& fabric_;
  ParNetParams prm_;
  CollectiveSpec spec_;
  int rounds_ = 0;     ///< barrier: ceil(log2 n); allreduce: log2 of block
  int pow2_ranks_ = 1; ///< largest power of two <= n (allreduce block)
  /// Ranks in blocks of kRankBlock, each reserved once in the constructor
  /// and never resized, so the Rank pointers that events capture stay
  /// valid.  Blocks, not one array: a 4096-rank world would otherwise ask
  /// for one ~800 KB block, which the allocator serves from fresh pages (a
  /// setup cost of ~200 page faults) unless a hole that large is free.
  static constexpr int kRankBlock = 64;
  [[nodiscard]] Rank& rank(int i) {
    return blocks_[static_cast<std::size_t>(i / kRankBlock)]
                  [static_cast<std::size_t>(i % kRankBlock)];
  }
  int ranks_ = 0;
  std::vector<std::vector<Rank>> blocks_;
};

}  // namespace icsim::par
