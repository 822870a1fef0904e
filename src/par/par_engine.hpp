#pragma once
// Conservatively synchronized parallel discrete-event engine.
//
// A ParEngine owns P partition shards, each a private single-threaded
// sim::Engine with its own queue, clock, sequence counter, and digest.  The
// shards advance in lockstep *windows* of width L, the lookahead — the
// minimum simulated delay any cross-partition interaction carries (for the
// fat-tree fabric: wire_latency + switch_latency, net::Fabric::lookahead_of).
// Within a window [W, W+L) every shard runs its own events independently;
// any event one shard schedules into another is buffered in a per-source
// outbox and is guaranteed (ICSIM_CHECK-enforced) to carry a timestamp
// >= W+L, so no shard can receive work for simulated time it has already
// passed.  This is the classical null-message/conservative scheme collapsed
// onto a barrier: the barrier *is* the null message, carrying "nothing from
// me before W+L" from every shard to every other.
//
// Between windows a single coordinator (the barrier's completion step)
// delivers the buffered cross-posts in canonical order — sorted by
// (timestamp, source partition, per-source sequence) — so the sequence
// numbers each destination shard assigns are independent of which worker
// thread ran which shard and of how the OS scheduled them.  The merged
// event digest (per-shard digest + processed count folded in partition
// index order) is therefore byte-identical for ANY worker thread count:
// -j1 == -j8.  Tests, TSan CI, and the shared-state lint pass police this
// contract (docs/MODEL.md section 14).
//
// Thread-count is pure host policy: effective workers =
// sim::clamp_intra_run_threads(requested), never more than P.  It affects
// wall clock only, never simulated results.

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace icsim::par {

struct ParConfig {
  /// Partition count P.  Part of the model's identity: the digest depends
  /// on it (each shard numbers its own events), so choose it from the
  /// workload/topology only — never from thread count or host properties.
  int partitions = 1;
  /// Requested worker threads; clamped against the driver's sweep pool via
  /// sim::clamp_intra_run_threads and against P.  Host policy only.
  int threads = 1;
  /// The synchronization horizon: minimum simulated delay of any
  /// cross-partition hand-off.  Must be positive.
  sim::Time lookahead = sim::Time::ns(1);
};

class ParEngine {
 public:
  explicit ParEngine(const ParConfig& config);
  ParEngine(const ParEngine&) = delete;
  ParEngine& operator=(const ParEngine&) = delete;

  [[nodiscard]] int partitions() const { return static_cast<int>(shards_.size()); }
  /// Effective worker threads this run will use (host-dependent; must never
  /// be folded into simulated time or reported metrics).
  [[nodiscard]] int threads_used() const { return threads_; }
  [[nodiscard]] sim::Time lookahead() const { return lookahead_; }

  /// The partition-private engine of shard `p`.  During run() a shard's
  /// engine may only be touched from the worker currently driving `p`.
  [[nodiscard]] sim::Engine& shard(int p) {
    return shards_[static_cast<std::size_t>(p)]->engine;
  }

  /// Schedule `fn` at absolute time `t` on shard `to`, called from shard
  /// `from`'s event code during a window.  The conservative contract —
  /// audited under ICSIM_CHECK — is t >= current window end: a violation
  /// means a model component hands simulated work across partitions faster
  /// than the declared lookahead, which would make results depend on the
  /// window schedule.  Delivery happens at the next barrier, in canonical
  /// (t, from, per-source seq) order.  `fn` is held inline (sim::EventFn)
  /// until then and moved into the destination engine's event slot.
  void post_cross(int from, int to, sim::Time t, sim::EventFn&& fn);

  /// Run all shards to global quiescence (every queue drained).  Spawns
  /// threads_used() - 1 extra workers; with one thread the same window
  /// protocol runs inline, executing the identical event schedule.
  void run();

  /// Canonical partition-merge digest: per-shard (event_digest,
  /// events_processed) folded in partition index order.  Byte-identical for
  /// any thread count — the determinism contract of this subsystem.
  [[nodiscard]] std::uint64_t event_digest() const;
  /// Total events executed across shards.
  [[nodiscard]] std::uint64_t events_processed() const;
  /// Cross-partition messages delivered through the barrier windows.
  [[nodiscard]] std::uint64_t cross_posts() const { return cross_posts_; }
  /// Barrier windows executed (deterministic: a function of event times and
  /// lookahead only).
  [[nodiscard]] std::uint64_t windows() const { return windows_; }

 private:
  struct CrossMsg {
    sim::Time t;
    int to;
    std::uint64_t seq;  ///< per-source counter: canonical tie-break
    sim::EventFn fn;
  };
  struct Shard {
    sim::Engine engine;
    /// Written only by the worker driving this shard during a window; read
    /// and cleared by the coordinator between barriers (the barrier is the
    /// synchronization edge — no locks needed).
    std::vector<CrossMsg> outbox;
    std::uint64_t out_seq = 0;
  };

  /// Run shard `p`'s events up to (excluding) the current window end.
  void run_window(int p);
  /// Single-threaded inter-window step: deliver outboxes canonically, then
  /// open the next window (or set done_).  Runs inside the barrier's
  /// completion function — exactly one thread executes it per window.
  void coordinate();

  /// A buffered cross-post in canonical (t, src, seq) order.
  struct CrossRef {
    sim::Time t;
    int src;
    std::uint64_t seq;
    CrossMsg* msg;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<CrossRef> refs_;  ///< coordinate()'s sort buffer, kept warm
  sim::Time lookahead_;
  int threads_;
  sim::Time window_end_ = sim::Time::zero();  ///< exclusive end of the window
  bool done_ = false;
  std::uint64_t windows_ = 0;
  std::uint64_t cross_posts_ = 0;
};

}  // namespace icsim::par
