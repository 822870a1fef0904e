// Core layer: cluster assembly, determinism, extrapolation fitting and the
// reporting helpers.

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "core/extrapolate.hpp"
#include "core/report.hpp"

namespace icsim::core {
namespace {

TEST(Cluster, RejectsBadShape) {
  EXPECT_THROW(Cluster(ib_cluster(0, 1)), std::invalid_argument);
  EXPECT_THROW(Cluster(elan_cluster(2, 0)), std::invalid_argument);
}

TEST(Cluster, RankAndSizeVisible) {
  Cluster cluster(elan_cluster(3, 2));
  EXPECT_EQ(cluster.ranks(), 6);
  int seen = 0;
  cluster.run([&](mpi::Mpi& mpi) {
    EXPECT_EQ(mpi.size(), 6);
    EXPECT_GE(mpi.rank(), 0);
    EXPECT_LT(mpi.rank(), 6);
    ++seen;
  });
  EXPECT_EQ(seen, 6);
}

TEST(Cluster, BlockRankPlacement) {
  Cluster cluster(ib_cluster(2, 2));
  // Ranks 0,1 on node 0; ranks 2,3 on node 1 (as the study ran).
  EXPECT_EQ(cluster.node_of_rank(0).id(), 0);
  EXPECT_EQ(cluster.node_of_rank(1).id(), 0);
  EXPECT_EQ(cluster.node_of_rank(2).id(), 1);
  EXPECT_EQ(cluster.node_of_rank(3).id(), 1);
}

TEST(Cluster, DeterministicEndToEnd) {
  auto run_once = [] {
    Cluster cluster(ib_cluster(4, 2));
    cluster.run([](mpi::Mpi& mpi) {
      for (int i = 0; i < 5; ++i) {
        double v = mpi.rank();
        (void)mpi.allreduce(v, mpi::ReduceOp::sum);
        mpi.compute(sim::Time::sec(1e-6 * (mpi.rank() + 1)));
      }
    });
    return cluster.engine().now();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Cluster, IbRingMemoryScalesWithJobSize) {
  Cluster small(ib_cluster(2, 1));
  Cluster big(ib_cluster(16, 2));
  EXPECT_GT(big.ib_ring_memory_per_rank(), small.ib_ring_memory_per_rank());
  Cluster elan(elan_cluster(16, 2));
  EXPECT_EQ(elan.ib_ring_memory_per_rank(), 0u);  // connectionless
}

TEST(Cluster, InitCostChargedWhenRequested) {
  ClusterConfig free_cfg = ib_cluster(2, 1);
  ClusterConfig charged_cfg = ib_cluster(2, 1);
  charged_cfg.charge_init = true;
  Cluster free_cl(free_cfg), charged_cl(charged_cfg);
  const auto t_free = free_cl.run([](mpi::Mpi&) {});
  const auto t_charged = charged_cl.run([](mpi::Mpi&) {});
  EXPECT_GT(t_charged, t_free);
}

TEST(Extrapolate, FitRecoversExactTrend) {
  // Construct data from a known trend and recover it.
  ScalingTrend truth;
  truth.base_nodes = 8;
  truth.base_efficiency = 0.95;
  truth.per_doubling = 0.97;
  const double t1 = 10.0;
  const double t8 = t1 / truth.efficiency_at(8);
  const double t32 = t1 / truth.efficiency_at(32);
  const auto fit = fit_scaled_trend(t1, 8, t8, 32, t32);
  EXPECT_NEAR(fit.base_efficiency, 0.95, 1e-12);
  EXPECT_NEAR(fit.per_doubling, 0.97, 1e-12);
  EXPECT_NEAR(fit.efficiency_at(1024), truth.efficiency_at(1024), 1e-12);
}

TEST(Extrapolate, TimeGrowsAsEfficiencyDecays) {
  ScalingTrend tr;
  tr.base_nodes = 8;
  tr.base_efficiency = 0.9;
  tr.per_doubling = 0.95;
  EXPECT_GT(tr.time_at(1024, 1.0), tr.time_at(32, 1.0));
}

TEST(Extrapolate, RejectsBadAnchors) {
  EXPECT_THROW((void)fit_scaled_trend(1.0, 32, 1.0, 8, 1.0),
               std::invalid_argument);
}

TEST(Report, EfficiencyHelpers) {
  EXPECT_DOUBLE_EQ(scaled_efficiency(10.0, 12.5), 0.8);
  EXPECT_DOUBLE_EQ(fixed_efficiency(16.0, 1, 2.0, 16), 0.5);
  EXPECT_DOUBLE_EQ(fixed_efficiency(16.0, 4, 4.0, 16), 1.0);
}

TEST(Calibration, FabricsScaleToNodeCount) {
  EXPECT_EQ(ib_fabric(96).levels, 2);
  EXPECT_EQ(ib_fabric(145).levels, 3);  // beyond 144 needs another level
  EXPECT_EQ(elan_fabric(64).levels, 3);
  EXPECT_EQ(elan_fabric(65).levels, 4);
}

}  // namespace
}  // namespace icsim::core

namespace icsim::core {
namespace {

TEST(Cluster, StatsReflectTraffic) {
  Cluster ib(ib_cluster(2, 1));
  ib.run([](mpi::Mpi& mpi) {
    std::vector<std::byte> buf(100000);
    if (mpi.rank() == 0) {
      mpi.send(buf.data(), buf.size(), 1, 0);
    } else {
      mpi.recv(buf.data(), buf.size(), 0, 0);
    }
  });
  const auto s = ib.stats();
  EXPECT_GT(s.fabric_chunks, 10u);       // 100 kB in 4 kB chunks + control
  EXPECT_GT(s.hca_writes, 2u);           // RTS + CTS + data (+credits)
  EXPECT_GT(s.reg_misses, 0u);           // rendezvous pinned user buffers
  EXPECT_GT(s.events_processed, 100u);
  EXPECT_GT(s.max_link_busy_us, 10.0);
  EXPECT_EQ(s.nic_buffer_high_water, 0u);  // no Elan hardware present

  Cluster el(elan_cluster(2, 1));
  el.run([](mpi::Mpi& mpi) {
    std::vector<std::byte> buf(5000);
    if (mpi.rank() == 0) {
      mpi.send(buf.data(), buf.size(), 1, 0);
    } else {
      mpi.compute(sim::Time::sec(1e-3));  // force the unexpected path into NIC SDRAM
      mpi.recv(buf.data(), buf.size(), 0, 0);
    }
  });
  const auto e = el.stats();
  EXPECT_GE(e.nic_buffer_high_water, 5000u);
  EXPECT_GT(e.nic_thread_busy_us, 0.0);
  EXPECT_EQ(e.hca_writes, 0u);
}

}  // namespace
}  // namespace icsim::core

#include "core/loggp.hpp"

namespace icsim::core {
namespace {

TEST(LogGp, ParametersLandInCalibratedBands) {
  const auto ib = measure_loggp(ib_cluster(2));
  const auto el = measure_loggp(elan_cluster(2));
  // Offload wins on every host-visible axis...
  EXPECT_LT(el.o_send_us, ib.o_send_us);
  EXPECT_LT(el.g_us, ib.g_us);
  EXPECT_LT(el.half_rtt_us, ib.half_rtt_us);
  EXPECT_GT(el.L_us, 0.0);
  EXPECT_GT(ib.L_us, 0.0);
  // ...except the per-byte gap, which PCI-X pins for both.
  EXPECT_NEAR(ib.G_ns_per_byte, el.G_ns_per_byte, 0.3);
  // Sanity magnitudes (us-scale latencies, ~1 ns/B bandwidth).
  EXPECT_LT(ib.half_rtt_us, 7.0);
  EXPECT_GT(ib.G_ns_per_byte, 0.9);
}

TEST(LogGp, StatsSinkFoldsEveryRunDeterministically) {
  Cluster::RunStats a, b;
  (void)measure_loggp(ib_cluster(2), &a);
  (void)measure_loggp(ib_cluster(2), &b);
  EXPECT_NE(a.event_digest, 0u);
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.events_processed, b.events_processed);

  // The fold covers all three clusters: the 1-byte ping-pong alone is a
  // strict subset of the events.
  microbench::PingPongOptions o;
  o.sizes = {1};
  o.repetitions = 50;
  o.warmup = 5;
  Cluster::RunStats pp;
  o.stats = &pp;
  (void)microbench::run_pingpong(ib_cluster(2), o);
  EXPECT_GT(a.events_processed, pp.events_processed);
  EXPECT_NE(a.event_digest, pp.event_digest);
}

TEST(LogGp, GapMatchesStreamingRate) {
  const auto el = measure_loggp(elan_cluster(2));
  // g is defined as 1/rate; a small message every g must sustain > 1M/s
  // on Elan-4 (its NIC message-rate advantage).
  EXPECT_LT(el.g_us, 1.0);
}

}  // namespace
}  // namespace icsim::core
