// Open-loop traffic subsystem: plan determinism and pattern semantics,
// end-to-end open-loop runs on both fabrics (digest-reproducible), the
// admission cap, and the degraded-fabric tail asymmetry, scaled down.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/cluster.hpp"
#include "fault/plan.hpp"
#include "sim/rng.hpp"
#include "traffic/plan.hpp"
#include "traffic/workload.hpp"

namespace icsim::traffic {
namespace {

TrafficConfig small_cfg(PatternKind pattern = PatternKind::uniform,
                        double load = 0.3) {
  TrafficConfig cfg;
  cfg.pattern.kind = pattern;
  cfg.load = load;
  cfg.requests_per_client = 40;
  return cfg;
}

// ------------------------------------------------------------------- plans

TEST(TrafficPlan, SameConfigSamePlan) {
  const Plan a = build_plan(small_cfg(), core::Network::infiniband, 8);
  const Plan b = build_plan(small_cfg(), core::Network::infiniband, 8);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t r = 0; r < a.clients.size(); ++r) {
    ASSERT_EQ(a.clients[r].size(), b.clients[r].size());
    for (std::size_t i = 0; i < a.clients[r].size(); ++i) {
      EXPECT_EQ(a.clients[r][i].arrival, b.clients[r][i].arrival);
      EXPECT_EQ(a.clients[r][i].dsts, b.clients[r][i].dsts);
    }
  }
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.client_targets, b.client_targets);
}

TEST(TrafficPlan, SeedChangesDraws) {
  TrafficConfig cfg = small_cfg();
  const Plan a = build_plan(cfg, core::Network::infiniband, 8);
  cfg.seed ^= 1;
  const Plan b = build_plan(cfg, core::Network::infiniband, 8);
  // Same shape (the horizon is a function of the config, not the draws)...
  EXPECT_EQ(a.horizon, b.horizon);
  // ...different arrivals.
  bool any_differ = false;
  for (std::size_t i = 0; i < a.clients[0].size(); ++i) {
    any_differ |= a.clients[0][i].arrival != b.clients[0][i].arrival;
  }
  EXPECT_TRUE(any_differ);
}

TEST(TrafficPlan, ArrivalsAscendAndNeverTargetSelf) {
  for (const auto kind :
       {ArrivalKind::fixed, ArrivalKind::poisson, ArrivalKind::mmpp}) {
    TrafficConfig cfg = small_cfg();
    cfg.arrival.kind = kind;
    const Plan p = build_plan(cfg, core::Network::quadrics, 8);
    for (int r = 0; r < p.ranks; ++r) {
      sim::Time prev = sim::Time::zero();
      for (const auto& rq : p.clients[static_cast<std::size_t>(r)]) {
        EXPECT_GE(rq.arrival, prev);
        prev = rq.arrival;
        for (const int d : rq.dsts) EXPECT_NE(d, r);
      }
    }
  }
}

TEST(TrafficPlan, HorizonIndependentOfArrivalProcess) {
  TrafficConfig cfg = small_cfg();
  cfg.arrival.kind = ArrivalKind::fixed;
  const Plan fixed = build_plan(cfg, core::Network::infiniband, 8);
  cfg.arrival.kind = ArrivalKind::mmpp;
  const Plan mmpp = build_plan(cfg, core::Network::infiniband, 8);
  EXPECT_EQ(fixed.horizon, mmpp.horizon);
  EXPECT_EQ(fixed.warmup, mmpp.warmup);
}

TEST(TrafficPlan, HotspotConcentratesOnHotRanks) {
  TrafficConfig cfg = small_cfg(PatternKind::hotspot);
  cfg.pattern.hot_count = 2;
  cfg.pattern.hot_frac = 0.8;
  cfg.requests_per_client = 200;
  const Plan p = build_plan(cfg, core::Network::infiniband, 16);
  std::uint64_t hot = 0, total = 0;
  for (const auto& sched : p.clients) {
    for (const auto& rq : sched) {
      for (const int d : rq.dsts) {
        ++total;
        if (d < cfg.pattern.hot_count) ++hot;
      }
    }
  }
  // 80% aimed at 2 of 15 other ranks, plus the uniform tail's share.
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(total), 0.6);
}

TEST(TrafficPlan, IncastAllRoadsLeadToRankZero) {
  const Plan p = build_plan(small_cfg(PatternKind::incast),
                            core::Network::quadrics, 8);
  EXPECT_FALSE(p.is_client(0));  // the sink only serves
  EXPECT_TRUE(p.is_server(0));
  EXPECT_EQ(p.server_sources[0], 7);
  for (int r = 1; r < 8; ++r) {
    EXPECT_FALSE(p.is_server(r));
    for (const auto& rq : p.clients[static_cast<std::size_t>(r)]) {
      EXPECT_EQ(rq.dsts, std::vector<int>{0});
    }
  }
}

TEST(TrafficPlan, ShuffleWalksEveryPeer) {
  TrafficConfig cfg = small_cfg(PatternKind::shuffle);
  cfg.requests_per_client = 14;  // two full rounds at 8 ranks
  const Plan p = build_plan(cfg, core::Network::infiniband, 8);
  for (int r = 0; r < 8; ++r) {
    std::set<int> seen;
    for (const auto& rq : p.clients[static_cast<std::size_t>(r)]) {
      seen.insert(rq.dsts.at(0));
    }
    EXPECT_EQ(seen.size(), 7u) << "rank " << r;
  }
}

TEST(TrafficPlan, RpcFansOutToDistinctServers) {
  TrafficConfig cfg = small_cfg(PatternKind::rpc);
  cfg.pattern.fan_degree = 3;
  const Plan p = build_plan(cfg, core::Network::infiniband, 8);
  for (const auto& sched : p.clients) {
    for (const auto& rq : sched) {
      ASSERT_EQ(rq.dsts.size(), 3u);
      std::set<int> uniq(rq.dsts.begin(), rq.dsts.end());
      EXPECT_EQ(uniq.size(), 3u);
    }
  }
  // fan * (request + response) payload bytes per request.
  EXPECT_EQ(p.bytes_per_request,
            3ull * (cfg.request_bytes + cfg.response_bytes));
}

TEST(TrafficPlan, PairsOnlyFlowSourcesInject) {
  TrafficConfig cfg = small_cfg(PatternKind::pairs);
  cfg.pattern.flows = {{0, 3}, {1, 2}};
  const Plan p = build_plan(cfg, core::Network::quadrics, 4);
  EXPECT_TRUE(p.is_client(0));
  EXPECT_TRUE(p.is_client(1));
  EXPECT_FALSE(p.is_client(2));
  EXPECT_FALSE(p.is_client(3));
  EXPECT_TRUE(p.is_server(2));
  EXPECT_TRUE(p.is_server(3));
}

TEST(TrafficPlan, RejectsNonsense) {
  EXPECT_THROW(build_plan(small_cfg(), core::Network::infiniband, 1),
               std::invalid_argument);
  TrafficConfig cfg = small_cfg();
  cfg.load = 0.0;
  EXPECT_THROW(build_plan(cfg, core::Network::infiniband, 4),
               std::invalid_argument);
  cfg = small_cfg(PatternKind::pairs);  // empty flow list
  EXPECT_THROW(build_plan(cfg, core::Network::infiniband, 4),
               std::invalid_argument);
  cfg.pattern.flows = {{0, 9}};  // endpoint out of range
  EXPECT_THROW(build_plan(cfg, core::Network::infiniband, 4),
               std::invalid_argument);
}

TEST(TrafficPlan, OfferedWindowExcludesWarmup) {
  TrafficConfig cfg = small_cfg();
  cfg.warmup_frac = 0.5;
  const Plan p = build_plan(cfg, core::Network::infiniband, 4);
  const std::uint64_t scheduled = [&] {
    std::uint64_t n = 0;
    for (const auto& s : p.clients) n += s.size();
    return n;
  }();
  EXPECT_GT(p.offered_in_window(), 0u);
  EXPECT_LT(p.offered_in_window(), scheduled);
}

// ---------------------------------------------------------------- workloads

struct RunOutcome {
  RunStats traffic;
  core::Cluster::RunStats cluster;
};

RunOutcome run_workload(const TrafficConfig& cfg, core::Network net,
                        int nodes) {
  Workload w(cfg, net, nodes);
  core::Cluster cluster(net == core::Network::infiniband
                            ? core::ib_cluster(nodes)
                            : core::elan_cluster(nodes));
  (void)cluster.run([&w](mpi::Mpi& m) { w.rank_main(m); });
  return {w.stats(), cluster.stats()};
}

TEST(TrafficWorkload, UniformDeliversAtLowLoadOnBothFabrics) {
  for (const auto net :
       {core::Network::infiniband, core::Network::quadrics}) {
    const RunOutcome o = run_workload(small_cfg(), net, 4);
    EXPECT_GT(o.traffic.offered, 0u);
    EXPECT_EQ(o.traffic.dropped, 0u);
    // Nothing may be lost: every in-window request completes, on time or as
    // a counted straggler.
    EXPECT_EQ(o.traffic.delivered + o.traffic.stragglers, o.traffic.offered);
    EXPECT_GE(o.traffic.delivery_ratio(), 0.9);
    EXPECT_GT(o.traffic.p50_us, 0.0);
    EXPECT_GE(o.traffic.p99_us, o.traffic.p50_us);
    EXPECT_GE(o.traffic.p999_us, o.traffic.p99_us);
    EXPECT_GT(o.traffic.delivered_mbs, 0.0);
  }
}

TEST(TrafficWorkload, RerunReproducesTheEventDigest) {
  const RunOutcome a = run_workload(small_cfg(), core::Network::infiniband, 4);
  const RunOutcome b = run_workload(small_cfg(), core::Network::infiniband, 4);
  EXPECT_EQ(a.cluster.event_digest, b.cluster.event_digest);
  EXPECT_EQ(a.cluster.events_processed, b.cluster.events_processed);
  EXPECT_EQ(a.traffic.p99_us, b.traffic.p99_us);
}

TEST(TrafficWorkload, MmppBurstsStretchTheTail) {
  TrafficConfig cfg = small_cfg(PatternKind::uniform, 0.5);
  cfg.requests_per_client = 120;
  const RunOutcome poisson =
      run_workload(cfg, core::Network::infiniband, 4);
  cfg.arrival.kind = ArrivalKind::mmpp;
  cfg.arrival.burst_factor = 8.0;
  const RunOutcome mmpp = run_workload(cfg, core::Network::infiniband, 4);
  // Same mean load, burstier arrivals: the p99 tail must not shrink.
  EXPECT_GE(mmpp.traffic.p99_us, poisson.traffic.p99_us);
}

TEST(TrafficWorkload, IncastCompletesAndSinkServesEveryone) {
  const RunOutcome o =
      run_workload(small_cfg(PatternKind::incast), core::Network::quadrics, 4);
  EXPECT_EQ(o.traffic.delivered + o.traffic.stragglers, o.traffic.offered);
}

TEST(TrafficWorkload, RpcRoundTripCostsMoreThanOneWay) {
  TrafficConfig rpc = small_cfg(PatternKind::rpc, 0.2);
  rpc.pattern.fan_degree = 2;
  rpc.service = sim::Time::us(1.0);
  const RunOutcome fan = run_workload(rpc, core::Network::infiniband, 4);
  const RunOutcome one_way =
      run_workload(small_cfg(PatternKind::uniform, 0.2),
                   core::Network::infiniband, 4);
  EXPECT_EQ(fan.traffic.delivered + fan.traffic.stragglers,
            fan.traffic.offered);
  EXPECT_GT(fan.traffic.p50_us, one_way.traffic.p50_us);
}

TEST(TrafficWorkload, AdmissionCapDropsUnderOverload) {
  TrafficConfig cfg = small_cfg(PatternKind::incast, 2.0);
  cfg.requests_per_client = 80;
  cfg.client_backlog_cap = 1;
  const RunOutcome o = run_workload(cfg, core::Network::infiniband, 4);
  EXPECT_GT(o.traffic.dropped, 0u);
  // Drops are never silent: offered = delivered + stragglers + dropped.
  EXPECT_EQ(o.traffic.delivered + o.traffic.stragglers + o.traffic.dropped,
            o.traffic.offered);
}

TEST(TrafficWorkload, ZeroByteFinsSurviveTinyClusters) {
  // 2 ranks, both client and server of each other: the FIN handshake must
  // not deadlock even when everyone finishes injecting simultaneously.
  TrafficConfig cfg = small_cfg();
  cfg.requests_per_client = 5;
  const RunOutcome o = run_workload(cfg, core::Network::quadrics, 2);
  EXPECT_EQ(o.traffic.delivered + o.traffic.stragglers, o.traffic.offered);
}

TEST(TrafficWorkload, CableCutWindowDegradesElanTail) {
  // Scaled-down traffic_degraded: the four saturating flows across leaf 0's
  // up-cables on the 20-node Elan tree, with flow 1's climb cable cut for
  // the middle of the run.  The displaced flow shares a busy cable, so the
  // p99 sojourn must degrade measurably versus the clean fabric.
  TrafficConfig cfg;
  // Rate-paced arrivals isolate the fabric effect: the clean tail is flat,
  // so any queueing the cut induces surfaces directly in p99 instead of
  // drowning under Poisson burst excursions.
  cfg.arrival.kind = ArrivalKind::fixed;
  cfg.pattern.kind = PatternKind::pairs;
  cfg.pattern.flows = {{0, 16}, {1, 5}, {2, 10}, {3, 15}};
  cfg.load = 0.9;
  // Streaming-sized requests: at 64KB the wires, not the hosts, are the
  // bottleneck, so losing a cable actually hurts (1KB serving traffic is
  // host-limited and a half-idle fabric absorbs the cut on either net).
  cfg.request_bytes = 65536;
  cfg.requests_per_client = 48;
  const int nodes = 20;

  Workload clean(cfg, core::Network::quadrics, nodes);
  core::Cluster cc(core::elan_cluster(nodes));
  (void)cc.run([&clean](mpi::Mpi& m) { clean.rank_main(m); });

  // The victim is flow {1,5}'s first climb cable, named through the
  // ICSIM_FAULTS grammar (round-trips LinkRef::to_string -> parse).
  const fault::LinkRef victim = [&] {
    const auto& topo = cc.fabric().topology();
    for (const auto& h : topo.hops(topo.route(1, 5))) {
      if (h.kind == net::Hop::Kind::switch_to_switch &&
          h.to.level > h.from.level) {
        return fault::LinkRef::between(h.from, h.to);
      }
    }
    throw std::logic_error("flow 1->5 never climbs");
  }();
  const sim::Time horizon = clean.plan().horizon;
  core::ClusterConfig degraded_cfg = core::elan_cluster(nodes);
  degraded_cfg.faults = fault::FaultPlan::parse(
      "link " + victim.to_string() + " down@" +
      std::to_string(0.3 * horizon.to_us()) + "us:" +
      std::to_string(0.6 * horizon.to_us()) + "us");
  Workload cut(cfg, core::Network::quadrics, nodes);
  core::Cluster cd(degraded_cfg);
  (void)cd.run([&cut](mpi::Mpi& m) { cut.rank_main(m); });

  EXPECT_GT(cd.stats().chunks_rerouted, 0u);
  EXPECT_GT(cut.stats().p99_us, clean.stats().p99_us);
}

}  // namespace
}  // namespace icsim::traffic
