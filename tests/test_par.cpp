// Tests for the conservative parallel engine (src/par/): partitioning
// invariants, the thread-count-invariant digest contract, the lookahead
// audit, partition-count invariance of the partitioned net::Fabric,
// collective shape sanity, and the nested-parallelism guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "fault/plan.hpp"
#include "net/fabric.hpp"
#include "net/partition.hpp"
#include "par/collective.hpp"
#include "par/par_cluster.hpp"
#include "par/par_engine.hpp"
#include "scoped_env.hpp"
#include "sim/check.hpp"
#include "sim/concurrency.hpp"

namespace icsim {
namespace {

class ScopedCheck {
 public:
  explicit ScopedCheck(bool on) : was_(sim::check::enabled()) {
    sim::check::set_enabled(on);
  }
  ~ScopedCheck() { sim::check::set_enabled(was_); }

 private:
  bool was_;
};

/// External-pool guard: tests must not leak a fake sweep width.
class ScopedExternalWorkers {
 public:
  explicit ScopedExternalWorkers(int w) { sim::set_external_workers(w); }
  ~ScopedExternalWorkers() { sim::set_external_workers(1); }
};

TEST(Partitioning, NodesAlignWithTheirLeafSwitches) {
  const net::FatTreeTopology topo(4, 3);  // 64 endpoints, 16 leaves
  const net::Partitioning p = net::make_partitioning(topo, 64, 8);
  EXPECT_EQ(p.parts, 8);
  for (int n = 0; n < 64; ++n) {
    // The endpoint hops of every route must be partition-internal: a node
    // lives with its leaf switch.
    EXPECT_EQ(p.of_node(n), p.of_switch(topo.leaf_switch_of(n)));
  }
  // Contiguous slices: partition index is monotone in node id.
  for (int n = 1; n < 64; ++n) {
    EXPECT_LE(p.of_node(n - 1), p.of_node(n));
  }
}

TEST(Partitioning, EndpointHopsNeverCrossPartitions) {
  const net::FatTreeTopology topo(4, 3);
  const net::Partitioning p = net::make_partitioning(topo, 64, 4);
  for (int src = 0; src < 64; src += 7) {
    for (int dst = 0; dst < 64; dst += 11) {
      if (src == dst) continue;
      const net::Route route = topo.route(src, dst);
      // First hop owned by src's partition, last by dst's.
      EXPECT_EQ(p.owner(topo.hop(route, 0)), p.of_node(src));
      EXPECT_EQ(p.owner(topo.hop(route, route.hops() - 1)), p.of_node(dst));
    }
  }
}

TEST(Partitioning, ClampsToPopulatedLeaves) {
  const net::FatTreeTopology topo(4, 3);
  // 6 nodes occupy 2 leaf switches: cannot slice thinner than one leaf.
  const net::Partitioning p = net::make_partitioning(topo, 6, 8);
  EXPECT_EQ(p.parts, 2);
}

TEST(ParEngine, RejectsNonPositiveLookahead) {
  par::ParConfig pc;
  pc.partitions = 2;
  pc.lookahead = sim::Time::zero();
  EXPECT_THROW(par::ParEngine{pc}, std::invalid_argument);
}

TEST(ParEngine, SingleShardRunsLikeAnEngine) {
  par::ParConfig pc;
  pc.partitions = 1;
  pc.lookahead = sim::Time::ns(100);
  par::ParEngine pe(pc);
  std::vector<int> order;
  pe.shard(0).post_at(sim::Time::us(2), [&] { order.push_back(2); });
  pe.shard(0).post_at(sim::Time::us(1), [&] { order.push_back(1); });
  pe.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(pe.events_processed(), 2u);
  EXPECT_GE(pe.windows(), 1u);
}

TEST(ParEngine, CrossPostsDeliverInCanonicalOrder) {
  // Two source shards post into shard 2 at the same timestamp; delivery
  // order must be (t, src, seq) regardless of scheduling.
  par::ParConfig pc;
  pc.partitions = 3;
  pc.threads = 3;
  pc.lookahead = sim::Time::us(1);
  par::ParEngine pe(pc);
  std::vector<int> order;
  const sim::Time t = sim::Time::us(5);
  pe.shard(0).post_at(sim::Time::zero(), [&] {
    pe.post_cross(0, 2, t, [&] { order.push_back(0); });
  });
  pe.shard(1).post_at(sim::Time::zero(), [&] {
    pe.post_cross(1, 2, t, [&] { order.push_back(10); });
    pe.post_cross(1, 2, t, [&] { order.push_back(11); });
  });
  pe.run();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11}));
  EXPECT_EQ(pe.cross_posts(), 3u);
}

/// Run one par point and return its digest (auditor armed throughout).
std::uint64_t par_digest(core::Network net, int nodes, int threads,
                         par::Collective op, const fault::FaultPlan& faults) {
  ScopedCheck armed(true);
  core::ClusterConfig cc = net == core::Network::infiniband
                               ? core::ib_cluster(nodes)
                               : core::elan_cluster(nodes);
  cc.env_overrides = false;  // the test matrix must not see ICSIM_PAR_THREADS
  cc.intra_run_threads = threads;
  cc.faults = faults;
  par::ParCluster cluster(cc);
  par::CollectiveSpec spec;
  spec.op = op;
  spec.bytes = 8;
  spec.iterations = 2;
  const par::ParRunStats st = cluster.run(spec);
  EXPECT_EQ(st.threads_used, threads <= st.partitions ? threads : st.partitions);
  return st.event_digest;
}

TEST(ParDeterminism, DigestMatrixThreadCountInvariance) {
  // The tentpole contract: -j1 == -j8, byte-identical, on both fabrics.
  const fault::FaultPlan clean;
  for (const core::Network net :
       {core::Network::infiniband, core::Network::quadrics}) {
    for (const par::Collective op :
         {par::Collective::barrier, par::Collective::allreduce}) {
      const std::uint64_t base = par_digest(net, 64, 1, op, clean);
      for (const int threads : {2, 4, 8}) {
        EXPECT_EQ(par_digest(net, 64, threads, op, clean), base)
            << "threads=" << threads << " op=" << par::to_string(op);
      }
    }
  }
}

TEST(ParDeterminism, DigestInvarianceUnderFaultOverlay) {
  // One fault-overlay point of the matrix: a spine cable down for the whole
  // run forces reroutes, whose alternate climbs must also respect the
  // partition lookahead and stay thread-count invariant.
  fault::FaultPlan plan;
  fault::LinkDownWindow w;
  w.link = fault::LinkRef::between(net::SwitchCoord{0, 0},
                                   net::SwitchCoord{1, 1});
  w.down = sim::Time::zero();
  w.up = sim::Time::zero();  // up <= down: down forever
  plan.link_windows.push_back(w);
  const std::uint64_t base = par_digest(core::Network::quadrics, 64, 1,
                                        par::Collective::allreduce, plan);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(par_digest(core::Network::quadrics, 64, threads,
                         par::Collective::allreduce, plan),
              base);
  }
}

TEST(ParFaults, WholeRunLinkDownReroutesAndCompletes) {
  ScopedCheck armed(true);
  core::ClusterConfig cc = core::elan_cluster(64);
  cc.env_overrides = false;
  cc.intra_run_threads = 2;
  fault::LinkDownWindow w;
  w.link = fault::LinkRef::between(net::SwitchCoord{0, 0},
                                   net::SwitchCoord{1, 1});
  w.down = sim::Time::zero();
  w.up = sim::Time::zero();
  cc.faults.link_windows.push_back(w);
  par::ParCluster cluster(cc);
  const par::ParRunStats st =
      cluster.run(par::CollectiveSpec{par::Collective::barrier, 8, 2});
  EXPECT_GT(st.chunks_rerouted, 0u);
  EXPECT_EQ(st.chunks_dropped_link_down, 0u);  // reroute found a clean climb
}

// Allreduce payloads above the fabric chunk size travel as several chunks,
// which the receiver counts before taking the message.  The digests were
// recorded when each chunk's completion carried its message's chunk count
// and phase; they now follow from the run's spec and the message key.
TEST(ParCollective, MultiChunkAllreduceKeepsItsDigest) {
  ScopedCheck armed(true);
  struct Pin {
    core::Network net;
    std::uint64_t digest;
    std::uint64_t chunks;
  };
  for (const Pin& pin : {Pin{core::Network::infiniband, 0xf298907195881385ull, 320},
                         Pin{core::Network::quadrics, 0xb03c6ddc500b3b15ull, 480}}) {
    core::ClusterConfig cc = pin.net == core::Network::infiniband
                                 ? core::ib_cluster(24)
                                 : core::elan_cluster(24);
    cc.env_overrides = false;
    cc.intra_run_threads = 2;
    par::ParCluster cluster(cc);
    const par::ParRunStats st =
        cluster.run(par::CollectiveSpec{par::Collective::allreduce, 5000, 2});
    EXPECT_EQ(st.event_digest, pin.digest);
    EXPECT_EQ(st.messages, 160u);  // 24 ranks: fold-in, 4 rounds, fold-out
    EXPECT_EQ(st.fabric_chunks, pin.chunks);
  }
}

TEST(ParCollective, RejectsMoreIterationsThanAMessageKeyHolds) {
  core::ClusterConfig cc = core::elan_cluster(8);
  cc.env_overrides = false;
  par::ParCluster cluster(cc);
  EXPECT_THROW(
      (void)cluster.run(par::CollectiveSpec{
          par::Collective::barrier, 8, par::CollectiveWorld::kMaxIterations + 1}),
      std::invalid_argument);
}

TEST(ParCluster, RejectsUnsupportedFaultPlans) {
  core::ClusterConfig cc = core::elan_cluster(16);
  cc.env_overrides = false;
  cc.faults.ber = 1e-7;
  EXPECT_THROW(par::ParCluster{cc}, std::invalid_argument);
}

TEST(ParCluster, RejectsLinkWindowsOutsideTheFabric) {
  // The serial tier throws for these plans; the parallel tier must not
  // silently run them fault-free.
  for (const net::LinkRef& link :
       {net::LinkRef::endpoint(99),
        net::LinkRef::between(net::SwitchCoord{0, 0}, net::SwitchCoord{0, 1})}) {
    core::ClusterConfig cc = core::elan_cluster(16);
    cc.env_overrides = false;
    cc.faults.link_windows.push_back({link, sim::Time::us(1), sim::Time::zero()});
    EXPECT_THROW(par::ParCluster{cc}, std::invalid_argument) << link.to_string();
  }
}

TEST(ParCluster, ParThreadsEnvMustBePositiveInt) {
  core::ClusterConfig cc = core::elan_cluster(16);
  cc.env_overrides = true;
  for (const char* bad : {"abc", "0", "-3", "99999999999", "2x", ""}) {
    const ScopedEnv env("ICSIM_PAR_THREADS", bad);
    try {
      par::ParCluster cluster(cc);
      ADD_FAILURE() << "accepted ICSIM_PAR_THREADS='" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ICSIM_PAR_THREADS"),
                std::string::npos);
    }
  }
  const ScopedEnv env("ICSIM_PAR_THREADS", "2");
  par::ParCluster cluster(cc);
  EXPECT_EQ(cluster.threads_used(), 2);
}

TEST(ParCluster, RejectsMultipleRanksPerNode) {
  core::ClusterConfig cc = core::elan_cluster(16, /*ppn=*/2);
  cc.env_overrides = false;
  EXPECT_THROW(par::ParCluster{cc}, std::invalid_argument);
}

TEST(ParCollectives, ElanBeatsInfinibandAndLatencyGrowsWithScale) {
  ScopedCheck armed(true);
  auto run_us = [](core::Network net, int nodes) {
    core::ClusterConfig cc = net == core::Network::infiniband
                                 ? core::ib_cluster(nodes)
                                 : core::elan_cluster(nodes);
    cc.env_overrides = false;
    cc.intra_run_threads = 2;
    par::ParCluster cluster(cc);
    return cluster.run(par::CollectiveSpec{par::Collective::allreduce, 8, 2})
        .simulated_us;
  };
  const double ib64 = run_us(core::Network::infiniband, 64);
  const double el64 = run_us(core::Network::quadrics, 64);
  const double el256 = run_us(core::Network::quadrics, 256);
  EXPECT_LT(el64, ib64);   // paper: Elan's collectives are ~2x ahead
  EXPECT_GT(el256, el64);  // log2(n) rounds: latency grows with scale
}

/// What one run of the fabric equivalence pattern observed.
struct FabricRun {
  std::vector<sim::Time> delivered_at;  ///< per chunk, in injection order
  std::uint64_t sent = 0, delivered = 0, dropped = 0, rerouted = 0;
  std::uint64_t cross_posts = 0;
  sim::Time max_busy = sim::Time::zero();
};

/// Many-to-one: every sender pushes `chunks` 2 KiB chunks back to back at
/// dst, sender i starting at i * stagger, through a fabric split into
/// `parts` partitions (1 = the serial fabric on a plain sim::Engine).
FabricRun run_many_to_one(int parts, const std::vector<net::LinkDownWindow>& windows,
                          sim::Time stagger) {
  ScopedCheck armed(true);
  const int nodes = 64, dst = 37, chunks = 3;
  const std::vector<int> senders = {0, 5, 13, 22, 36, 38, 50, 63};
  const net::FabricConfig fc =
      core::fabric_config_for(core::Network::quadrics, nodes);
  FabricRun out;
  out.delivered_at.assign(senders.size() * chunks, sim::Time::zero());

  auto inject_all = [&](net::Fabric& fabric, auto engine_of) {
    for (std::size_t s = 0; s < senders.size(); ++s) {
      const int src = senders[s];
      // engine_of by value: the event runs after inject_all has returned.
      engine_of(src).post_at(stagger * static_cast<double>(s),
                             [&, s, src, engine_of] {
        for (int c = 0; c < chunks; ++c) {
          sim::Time* slot = &out.delivered_at[s * chunks + c];
          sim::Engine* at_dst = &engine_of(dst);
          (void)fabric.inject(src, dst, 2048,
                              [slot, at_dst](net::DeliveryStatus st) {
                                ASSERT_EQ(st, net::DeliveryStatus::delivered);
                                *slot = at_dst->now();
                              });
        }
      });
    }
  };
  auto collect = [&](const net::Fabric& fabric) {
    fabric.audit_drained();
    out.sent = fabric.chunks_sent();
    out.delivered = fabric.chunks_delivered();
    out.dropped = fabric.chunks_dropped_link_down();
    out.rerouted = fabric.chunks_rerouted();
    out.max_busy = fabric.max_link_busy_time();
  };

  if (parts == 1) {
    sim::Engine engine;
    net::Fabric fabric(engine, fc, nodes);
    fabric.set_link_windows(windows);
    inject_all(fabric, [&](int) -> sim::Engine& { return engine; });
    (void)engine.run();
    collect(fabric);
    return out;
  }
  net::FabricPartitions fp;
  fp.map = net::make_partitioning(net::FatTreeTopology(fc.radix_down, fc.levels),
                                  nodes, parts);
  par::ParConfig pc;
  pc.partitions = fp.map.parts;
  pc.threads = 2;
  pc.lookahead = net::Fabric::lookahead_of(fc);
  par::ParEngine pe(pc);
  for (int p = 0; p < pc.partitions; ++p) fp.engines.push_back(&pe.shard(p));
  fp.post_cross = std::bind_front(&par::ParEngine::post_cross, &pe);
  const net::Partitioning map = fp.map;
  net::Fabric fabric(std::move(fp), fc, nodes);
  fabric.set_link_windows(windows);
  inject_all(fabric, [&](int node) -> sim::Engine& {
    return pe.shard(map.of_node(node));
  });
  pe.run();
  collect(fabric);
  out.cross_posts = pe.cross_posts();
  return out;
}

void expect_same_counters(const FabricRun& a, const FabricRun& b, int parts) {
  EXPECT_EQ(a.sent, b.sent) << "parts=" << parts;
  EXPECT_EQ(a.delivered, b.delivered) << "parts=" << parts;
  EXPECT_EQ(a.dropped, b.dropped) << "parts=" << parts;
  EXPECT_EQ(a.rerouted, b.rerouted) << "parts=" << parts;
  EXPECT_EQ(a.max_busy, b.max_busy) << "parts=" << parts;
}

/// A spine cable on the default route 0 -> 37, down for the whole run.
net::LinkDownWindow spine_window() {
  const net::FatTreeTopology topo(4, 3);
  net::LinkDownWindow w;  // up <= down: down forever
  for (const net::Hop& h : topo.hops(topo.route(0, 37))) {
    if (h.kind == net::Hop::Kind::switch_to_switch && h.to.level == 2) {
      w.link = net::LinkRef::between(h.from, h.to);
    }
  }
  return w;
}

// Senders start 1013 ps apart, so no two chunks ever reach a link at the
// same instant; TiedArrivalsKeepTheSameDeliverySlots covers the case where
// they do.
const sim::Time kStagger = sim::Time::ps(1013);

TEST(PartitionedFabric, ContendedManyToOneMatchesAcrossPartitionCounts) {
  // Partitioning is an execution strategy, not a different model: the same
  // contended traffic must deliver every chunk at the same instant whether
  // the fabric runs serially or split over 4 or 8 partitions.
  const FabricRun serial = run_many_to_one(1, {}, kStagger);
  EXPECT_EQ(serial.delivered, 24u);
  for (const int parts : {4, 8}) {
    const FabricRun split = run_many_to_one(parts, {}, kStagger);
    EXPECT_EQ(serial.delivered_at, split.delivered_at) << "parts=" << parts;
    expect_same_counters(serial, split, parts);
    EXPECT_GT(split.cross_posts, 0u);  // routes genuinely cross partitions
  }
}

TEST(PartitionedFabric, SpineWindowReroutesIdenticallyAcrossPartitionCounts) {
  // A spine cable down for the whole run forces reroutes at injection; the
  // alternate climbs must also match the serial fabric chunk for chunk.
  const net::LinkDownWindow w = spine_window();
  ASSERT_EQ(w.link.kind, net::LinkRef::Kind::switch_pair);
  const FabricRun serial = run_many_to_one(1, {w}, kStagger);
  EXPECT_GT(serial.rerouted, 0u);
  EXPECT_EQ(serial.delivered, 24u);
  for (const int parts : {4, 8}) {
    const FabricRun split = run_many_to_one(parts, {w}, kStagger);
    EXPECT_EQ(serial.delivered_at, split.delivered_at) << "parts=" << parts;
    expect_same_counters(serial, split, parts);
  }
}

TEST(PartitionedFabric, TiedArrivalsKeepTheSameDeliverySlots) {
  // All senders start at t = 0, so chunks from different partitions reach
  // a shared link at the same instant.  The serial engine queues them in
  // posting order, the parallel engine in its canonical cross-post order
  // (time, source partition, sequence), so two tied chunks may trade their
  // slots.  The set of delivery instants and every counter still match.
  for (const bool spine : {false, true}) {
    std::vector<net::LinkDownWindow> windows;
    if (spine) windows.push_back(spine_window());
    FabricRun serial = run_many_to_one(1, windows, sim::Time::zero());
    std::sort(serial.delivered_at.begin(), serial.delivered_at.end());
    for (const int parts : {4, 8}) {
      FabricRun split = run_many_to_one(parts, windows, sim::Time::zero());
      std::sort(split.delivered_at.begin(), split.delivered_at.end());
      EXPECT_EQ(serial.delivered_at, split.delivered_at)
          << "parts=" << parts << " spine=" << spine;
      expect_same_counters(serial, split, parts);
    }
  }
}

TEST(Concurrency, ClampHonorsRequestWithoutAPoolAndDividesUnderOne) {
  {
    ScopedExternalWorkers none(1);
    // No sweep pool: deliberate oversubscription is allowed (the digest
    // matrix must be able to run 8 threads on a 1-core CI box).
    EXPECT_EQ(sim::clamp_intra_run_threads(8), 8);
    EXPECT_EQ(sim::clamp_intra_run_threads(0), 1);
  }
  {
    ScopedExternalWorkers pool(1 << 20);  // pool wider than any host
    EXPECT_EQ(sim::clamp_intra_run_threads(8), 1);
  }
}

TEST(Cluster, FiberPathRefusesIntraRunThreads) {
  core::ClusterConfig cc = core::elan_cluster(2);
  cc.env_overrides = false;
  cc.intra_run_threads = 4;
  core::Cluster cluster(cc);
  EXPECT_THROW((void)cluster.run([](mpi::Mpi&) {}), std::invalid_argument);
}

TEST(ParDeathTest, CrossPartitionPastScheduleAbortsUnderCheck) {
  // The conservative contract's hard edge: event code that hands work
  // across partitions with less than the lookahead of simulated delay must
  // die loudly under ICSIM_CHECK — silently delivering it would make
  // results depend on the window schedule (and on thread count).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::check::set_enabled(true);
        par::ParConfig pc;
        pc.partitions = 2;
        pc.threads = 1;
        pc.lookahead = sim::Time::us(1);
        par::ParEngine pe(pc);
        pe.shard(0).post_at(sim::Time::us(5), [&] {
          // t == now: inside the current window, lookahead violated.
          pe.post_cross(0, 1, pe.shard(0).now(), [] {});
        });
        pe.run();
      },
      "lookahead");
}

}  // namespace
}  // namespace icsim
