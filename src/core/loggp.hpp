#pragma once
// LogGP characterization of a simulated network.
//
// The cluster-networking literature of the study's era summarized an
// interconnect by the LogGP parameters (Culler et al.; the paper's
// reference [15] uses exactly this framework to relate latency, overhead
// and bandwidth to application performance):
//   L — wire/switch latency, o — host send/receive overhead,
//   g — per-message gap (1 / small-message rate),
//   G — per-byte gap (1 / peak bandwidth).
// This helper runs the standard measurement protocol against any cluster
// configuration and returns the fitted parameters, so model changes can be
// discussed in the community's vocabulary.

#include "core/cluster.hpp"
#include "microbench/pingpong.hpp"
#include "sim/check.hpp"

namespace icsim::core {

struct LogGpParams {
  double L_us = 0.0;        ///< latency: RTT/2 minus the overheads
  double o_send_us = 0.0;   ///< host CPU time consumed by a small isend
  double o_recv_us = 0.0;   ///< host CPU time consumed by a matching recv
  double g_us = 0.0;        ///< per-message gap (streaming small messages)
  double G_ns_per_byte = 0.0;  ///< per-byte gap (streaming large messages)
  double half_rtt_us = 0.0;    ///< raw small-message one-way time
};

/// Runs three fresh clusters (overheads, ping-pong, streaming).  When
/// `stats` is non-null, its events_processed and event_digest receive the
/// fold of the three runs, in that order: events summed, digests chained
/// through FNV-1a — one fingerprint for the whole measurement.
[[nodiscard]] inline LogGpParams measure_loggp(
    const ClusterConfig& config, Cluster::RunStats* stats = nullptr) {
  LogGpParams p;
  const auto fold = [stats](const Cluster::RunStats& st) {
    if (stats == nullptr) return;
    stats->events_processed += st.events_processed;
    sim::check::Fnv1a f;
    f.fold(stats->event_digest);
    f.fold(st.event_digest);
    stats->event_digest = f.value();
  };

  // Host overheads: simulated CPU time around the posting calls.
  {
    Cluster cluster(config);
    double os = 0.0, orecv = 0.0;
    cluster.run([&](mpi::Mpi& mpi) {
      if (mpi.rank() > 1) return;
      const int peer = 1 - mpi.rank();
      char b = 0;
      constexpr int kReps = 50;
      if (mpi.rank() == 0) {
        const double t0 = mpi.wtime();
        std::vector<mpi::Request> rs;
        for (int i = 0; i < kReps; ++i) rs.push_back(mpi.isend(&b, 1, peer, 1));
        os = (mpi.wtime() - t0) / kReps * 1e6;
        mpi.waitall(rs);
        // Receive overhead: messages already arrived; time the recv calls.
        mpi.recv(&b, 1, peer, 2);  // sync point: peer's burst is under way
        mpi.compute(sim::Time::sec(500e-6));       // let the burst land unexpected
        const double t1 = mpi.wtime();
        for (int i = 0; i < kReps; ++i) mpi.recv(&b, 1, peer, 3);
        orecv = (mpi.wtime() - t1) / kReps * 1e6;
      } else {
        for (int i = 0; i < kReps; ++i) mpi.recv(&b, 1, peer, 1);
        mpi.send(&b, 1, peer, 2);
        for (int i = 0; i < kReps; ++i) mpi.send(&b, 1, peer, 3);
      }
    });
    fold(cluster.stats());
    p.o_send_us = os;
    p.o_recv_us = orecv;
  }

  // Half round trip at 1 byte -> L = rtt/2 - o_s - o_r.
  {
    microbench::PingPongOptions o;
    o.sizes = {1};
    o.repetitions = 50;
    o.warmup = 5;
    Cluster::RunStats st;
    o.stats = &st;
    const auto r = microbench::run_pingpong(config, o);
    fold(st);
    p.half_rtt_us = r[0].latency_us;
    p.L_us = p.half_rtt_us - p.o_send_us - p.o_recv_us;
  }

  // g from the small-message streaming rate; G from the large-message one.
  {
    microbench::StreamingOptions o;
    o.sizes = {1, 1 << 20};
    o.window = 64;
    o.batches = 10;
    o.warmup_batches = 2;
    Cluster::RunStats st;
    o.stats = &st;
    const auto r = microbench::run_streaming(config, o);
    fold(st);
    p.g_us = 1e6 / r[0].msg_rate_per_sec;
    p.G_ns_per_byte = 1e3 / r[1].bandwidth_mbs;
  }
  return p;
}

}  // namespace icsim::core
