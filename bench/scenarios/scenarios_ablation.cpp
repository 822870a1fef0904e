// Ablation scenario groups: the four Section 3 mechanisms the paper uses
// to explain its IB-Elan gaps, each isolated on a 2-node micro-benchmark
// by flipping one knob of the calibrated model (DESIGN.md section 6).
//
//   ablation_progress  — independent progress (Section 3.3.3)
//   ablation_eager     — the eager/rendezvous switch (Section 4.1)
//   ablation_regcache  — registration-cache capacity (Figure 1(b)'s dip)
//   ablation_offload   — NIC-side matching on a slow processor (3.3.4)
//
// Each point is one row of the mechanism's table: it runs one fresh
// cluster per column and folds every run into the point's digest.  The
// shape claims are gated in tests/test_scenarios.cpp.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common.hpp"
#include "microbench/pingpong.hpp"
#include "scenarios.hpp"

namespace icsim::bench {

namespace {

/// Exposed communication time (us) for a bidirectional `bytes` exchange
/// with `compute_us` of computation between post and wait.
double exposed_us(driver::PointResult& r, const core::ClusterConfig& cc,
                  std::size_t bytes, double compute_us) {
  double result = 0.0;
  run_cluster(r, cc, [&](mpi::Mpi& mpi) {
    if (mpi.rank() > 1) return;
    const int peer = 1 - mpi.rank();
    std::vector<std::byte> sbuf(bytes), rbuf(bytes);
    constexpr int kReps = 20;
    // Warm-up exchange aligns the pair and the registration cache.
    mpi.sendrecv(sbuf.data(), bytes, peer, 0, rbuf.data(), bytes, peer, 0);
    const double t0 = mpi.wtime();
    for (int i = 0; i < kReps; ++i) {
      mpi::Request rr = mpi.irecv(rbuf.data(), bytes, peer, 1);
      mpi::Request sr = mpi.isend(sbuf.data(), bytes, peer, 1);
      mpi.compute(sim::Time::sec(compute_us * 1e-6));
      mpi.wait(sr);
      mpi.wait(rr);
    }
    if (mpi.rank() == 0) {
      result = ((mpi.wtime() - t0) / kReps - compute_us * 1e-6) * 1e6;
    }
  });
  return result;
}

/// Small-message latency with `depth` posted receives ahead of the one
/// that matches (forcing the matcher to scan past them).
double latency_with_queue_depth(driver::PointResult& r,
                                const core::ClusterConfig& cc, int depth) {
  double result = 0.0;
  run_cluster(r, cc, [&](mpi::Mpi& mpi) {
    if (mpi.rank() > 1) return;
    const int peer = 1 - mpi.rank();
    char byte = 0;
    std::vector<mpi::Request> decoys;
    std::vector<char> sink(1);
    // Receives that never match (tag 999 from a silent source).
    for (int i = 0; i < depth; ++i) {
      decoys.push_back(mpi.irecv(sink.data(), 1, peer, 999));
    }
    constexpr int kReps = 50;
    const double t0 = mpi.wtime();
    for (int i = 0; i < kReps; ++i) {
      if (mpi.rank() == 0) {
        mpi.send(&byte, 1, peer, 1);
        mpi.recv(&byte, 1, peer, 1);
      } else {
        mpi.recv(&byte, 1, peer, 1);
        mpi.send(&byte, 1, peer, 1);
      }
    }
    if (mpi.rank() == 0) {
      result = (mpi.wtime() - t0) / (2.0 * kReps) * 1e6;
    }
    // Unblock the decoys so the run can end.
    for (int i = 0; i < depth; ++i) mpi.send(&byte, 1, peer, 999);
    for (auto& d : decoys) mpi.wait(d);
  });
  return result;
}

/// One-size ping-pong on a fresh cluster, folded into `r`.
microbench::PingPongPoint pingpong_point(driver::PointResult& r,
                                         const core::ClusterConfig& cc,
                                         std::size_t bytes, int reps,
                                         int warmup) {
  microbench::PingPongOptions opt;
  opt.sizes = {bytes};
  opt.repetitions = reps;
  opt.warmup = warmup;
  core::Cluster::RunStats st;
  opt.stats = &st;
  const auto pts = microbench::run_pingpong(cc, opt);
  fold_run(r, st);
  return pts.at(0);
}

/// IB with an eager threshold of `th` bytes; every ring slot must hold an
/// eager message plus its header.
core::ClusterConfig eager_cluster(std::size_t th) {
  core::ClusterConfig cc = core::ib_cluster(2);
  cc.mvapich.eager_threshold = th;
  cc.mvapich.vbuf_bytes = static_cast<std::uint32_t>(th) + 64;
  return cc;
}

}  // namespace

void register_ablation_progress(driver::Registry& reg) {
  // The paper's central hypothesis for the application-level gaps is that
  // MVAPICH makes progress only inside MPI calls while the Elan-4 NIC
  // progresses independently (Section 3.3.3).  Reference [6] of the paper
  // (Brightwell & Underwood, ICS'04) measures exactly this with an overlap
  // micro-benchmark, reproduced here: each of two ranks posts irecv+isend
  // of a large message, computes for T, then waits; the "exposed"
  // communication time is total - T.  A transport with independent
  // progress drives the rendezvous during the compute phase, so exposed
  // time collapses as T grows; one without it cannot start the bulk
  // transfer until the wait.  Flipping the MVAPICH model's one ablation
  // bit reproduces the contrast.
  constexpr std::size_t kBytes = 128 * 1024;
  auto& g = reg.group(
      "ablation_progress",
      line("Ablation: independent progress — exposed communication time "
           "(us) for a %zu kB bidirectional exchange",
           kBytes / 1024));
  g.finalize = [](std::vector<driver::PointResult>&) {
    return std::vector<std::string>{
        "Reading: with enough compute to hide behind, Elan-4 and the "
        "+independent-progress InfiniBand expose almost nothing, while "
        "stock MVAPICH still pays the bulk transfer at wait time — the "
        "paper's Section 3.3.3/3.3.5 mechanism in isolation."};
  };
  for (const double comp : {0.0, 50.0, 100.0, 200.0, 400.0, 800.0}) {
    reg.add("ablation_progress", line("%.0f", comp), [comp]() {
      driver::PointResult r;
      core::ClusterConfig indep = core::ib_cluster(2);
      indep.mvapich.independent_progress = true;
      r.add("IB stock", exposed_us(r, core::ib_cluster(2), kBytes, comp), 1);
      r.add("IB +indep", exposed_us(r, indep, kBytes, comp), 1);
      r.add("Elan-4", exposed_us(r, core::elan_cluster(2), kBytes, comp), 1);
      return r;
    });
  }
}

void register_ablation_eager(driver::Registry& reg) {
  // Section 4.1: the latency jump between 1 kB and 2 kB is the
  // eager->rendezvous switch, and moving it is a trade against pinned
  // memory, because every peer gets a dedicated RDMA ring whose slot size
  // must hold an eager message — "the buffer space ... grows with the
  // number of processes and with the maximum size of a short message."
  // The points sweep the threshold; the summary reports the pinned ring
  // memory a 64-rank job would dedicate per process.
  static constexpr std::size_t kThresholds[] = {512, 1024, 4096, 16384};
  static constexpr const char* kColumns[] = {"eager512 us", "eager1K us",
                                             "eager4K us", "eager16K us"};
  auto& g = reg.group("ablation_eager",
                      "Ablation: eager threshold vs latency and pinned ring "
                      "memory (InfiniBand)");
  g.finalize = [](std::vector<driver::PointResult>&) {
    constexpr int kPeers = 63;  // a 64-rank job
    std::vector<std::string> out{
        "pinned eager-ring memory per process in a 64-rank job:"};
    for (const std::size_t th : kThresholds) {
      const mpi::MvapichConfig mv = eager_cluster(th).mvapich;
      // A send and a receive ring of ring_slots vbufs per peer.
      const double mb = static_cast<double>(mv.vbuf_bytes) * mv.ring_slots *
                        2 * kPeers / 1e6;
      out.push_back(line("  threshold %6zu B -> %6.1f MB", th, mb));
    }
    out.push_back("(the Section 4.1 trade-off: a higher threshold helps "
                  "mid-size latency but pins memory linear in job size)");
    return out;
  };
  for (const std::size_t bytes :
       {256, 512, 1024, 2048, 4096, 8192, 16384, 32768}) {
    reg.add("ablation_eager", std::to_string(bytes), [bytes]() {
      driver::PointResult r;
      for (std::size_t i = 0; i < std::size(kThresholds); ++i) {
        r.add(kColumns[i],
              pingpong_point(r, eager_cluster(kThresholds[i]), bytes, 40, 5)
                  .latency_us);
      }
      return r;
    });
  }
}

void register_ablation_regcache(driver::Registry& reg) {
  // The Figure 1(b) InfiniBand bandwidth collapse at 4 MB is registration
  // thrash: the Pallas pair of 4 MB application buffers exceeds MVAPICH
  // 0.9.2's pinning budget, so buffers are deregistered and re-pinned
  // every iteration.  The paper notes it was "reportedly fixed in
  // subsequent versions of MVAPICH" — i.e., with a larger cache.  The
  // columns sweep the capacity and show the dip appearing and
  // disappearing.
  static constexpr std::uint64_t kCapacitiesMb[] = {3, 7, 32, 256};
  static constexpr const char* kColumns[] = {"cache 3MB", "cache 7MB",
                                             "cache 32MB", "cache 256MB"};
  auto& g = reg.group("ablation_regcache",
                      "Ablation: registration-cache capacity vs "
                      "large-message ping-pong bandwidth (InfiniBand, MB/s)");
  g.finalize = [](std::vector<driver::PointResult>&) {
    return std::vector<std::string>{
        "(7 MB is the calibrated MVAPICH 0.9.2 budget: the 4 MB dip of "
        "Figure 1(b); 32+ MB is the 'subsequent versions' fix)"};
  };
  for (const std::size_t bytes : {1u << 20, 2u << 20, 4u << 20, 8u << 20}) {
    reg.add("ablation_regcache", std::to_string(bytes), [bytes]() {
      driver::PointResult r;
      for (std::size_t i = 0; i < std::size(kCapacitiesMb); ++i) {
        core::ClusterConfig cc = core::ib_cluster(2);
        cc.hca.reg_cache_capacity = kCapacitiesMb[i] << 20;
        r.add(kColumns[i],
              pingpong_point(r, cc, bytes, 8, 2).bandwidth_mbs, 0);
      }
      return r;
    });
  }
}

void register_ablation_offload(driver::Registry& reg) {
  // Section 3.3.4: offload removes host overhead but "can also force the
  // traversal of long queues on a slow processor on the network
  // interface" (the paper cites Underwood & Brightwell's queue-depth
  // study).  The columns sweep the Elan NIC's per-entry match cost while
  // each row holds a deeper posted-receive queue, and small-message
  // latency degrades — the flip side of offload that host-based matching
  // does not have.
  static constexpr double kEntryNs[] = {0.0, 40.0, 200.0, 1000.0};
  static constexpr const char* kColumns[] = {"elan 0ns", "elan 40ns",
                                             "elan 200ns", "elan 1us"};
  auto& g = reg.group("ablation_offload",
                      "Ablation: NIC match cost x posted-queue depth "
                      "(1-byte ping-pong latency, us)");
  g.finalize = [](std::vector<driver::PointResult>&) {
    return std::vector<std::string>{
        "Reading: with deep queues and a slow NIC matcher, offload latency "
        "degrades toward (and past) host-based matching — Section 3.3.4's "
        "caveat."};
  };
  for (const int depth : {0, 16, 64, 256}) {
    reg.add("ablation_offload", std::to_string(depth), [depth]() {
      driver::PointResult r;
      for (std::size_t i = 0; i < std::size(kEntryNs); ++i) {
        core::ClusterConfig cc = core::elan_cluster(2);
        cc.elan.match_per_entry = sim::Time::ns(kEntryNs[i]);
        r.add(kColumns[i], latency_with_queue_depth(r, cc, depth));
      }
      r.add("IB host", latency_with_queue_depth(r, core::ib_cluster(2), depth));
      return r;
    });
  }
}

}  // namespace icsim::bench
