// Fault-injection subsystem: plan parsing, injector scheduling against a
// live fabric, deterministic corruption draws, IB RC retry/backoff and
// exhaustion, Elan-4 hardware link retry, degraded-fabric rerouting, and the
// transport watchdog that converts lost messages into counted errors.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/cluster.hpp"
#include "elan/tports.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "ib/hca.hpp"
#include "net/fabric.hpp"
#include "node/node.hpp"
#include "sim/engine.hpp"

namespace icsim::fault {
namespace {

// ---------------------------------------------------------------- parsing

TEST(FaultPlanParse, FullGrammar) {
  const auto p = FaultPlan::parse(
      "ber=1e-7; seed=42; watchdog=10ms; link s1.0-2.0 down@50us:150us; "
      "link n3 ber=1e-5; link n5 down@2ms; stall 2@20us+5us");
  EXPECT_DOUBLE_EQ(p.ber, 1e-7);
  EXPECT_EQ(p.seed, 42u);
  EXPECT_EQ(p.watchdog, sim::Time::ms(10));
  ASSERT_EQ(p.link_windows.size(), 2u);
  EXPECT_EQ(p.link_windows[0].link.kind, LinkRef::Kind::switch_pair);
  EXPECT_EQ(p.link_windows[0].link.a, (net::SwitchCoord{1, 0}));
  EXPECT_EQ(p.link_windows[0].link.b, (net::SwitchCoord{2, 0}));
  EXPECT_EQ(p.link_windows[0].down, sim::Time::us(50));
  EXPECT_EQ(p.link_windows[0].up, sim::Time::us(150));
  EXPECT_EQ(p.link_windows[1].link.kind, LinkRef::Kind::node);
  EXPECT_EQ(p.link_windows[1].link.node, 5);
  EXPECT_LE(p.link_windows[1].up, p.link_windows[1].down);  // down forever
  ASSERT_EQ(p.link_ber.size(), 1u);
  EXPECT_EQ(p.link_ber[0].link.node, 3);
  EXPECT_DOUBLE_EQ(p.link_ber[0].ber, 1e-5);
  ASSERT_EQ(p.stalls.size(), 1u);
  EXPECT_EQ(p.stalls[0].node, 2);
  EXPECT_EQ(p.stalls[0].start, sim::Time::us(20));
  EXPECT_EQ(p.stalls[0].duration, sim::Time::us(5));
  EXPECT_FALSE(p.empty());
}

TEST(FaultPlanParse, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(" ; ;").empty());
}

TEST(FaultPlanParse, MalformedSpecsThrow) {
  const char* bad[] = {
      "bogus=1",                      // unknown clause
      "ber=2",                        // ber out of [0,1)
      "ber=-1e-9",                    //
      "ber=abc",                      // not a number
      "seed=xyz",                     //
      "watchdog=10",                  // time without unit
      "watchdog=10furlongs",          // unknown unit
      "link",                         // missing link name
      "link q3 down@1us",             // bad link syntax
      "link n1 down",                 // missing @time
      "link n1 down@5us:2us",         // up before down
      "link n1 frob@1us",             // unknown field
      "link s1.0 down@1us",           // malformed switch pair
      "stall 1",                      // missing window
      "stall 1@5us",                  // missing duration
      "stall 1@5us+0us",              // zero duration
      "stall x@5us+1us",              // bad node
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)FaultPlan::parse(spec), std::invalid_argument)
        << "accepted: " << spec;
  }
}

TEST(FaultPlan, LinkRefCovers) {
  const auto n3 = LinkRef::endpoint(3);
  net::Hop up{};
  up.kind = net::Hop::Kind::node_to_switch;
  up.node = 3;
  net::Hop down = up;
  down.kind = net::Hop::Kind::switch_to_node;
  EXPECT_TRUE(n3.covers(up));
  EXPECT_TRUE(n3.covers(down));
  up.node = 4;
  EXPECT_FALSE(n3.covers(up));

  const auto cable =
      LinkRef::between(net::SwitchCoord{0, 1}, net::SwitchCoord{1, 1});
  net::Hop s2s{};
  s2s.kind = net::Hop::Kind::switch_to_switch;
  s2s.from = {0, 1};
  s2s.to = {1, 1};
  EXPECT_TRUE(cable.covers(s2s));
  std::swap(s2s.from, s2s.to);  // undirected: reverse direction also covered
  EXPECT_TRUE(cable.covers(s2s));
  s2s.to = {0, 2};
  EXPECT_FALSE(cable.covers(s2s));
}

// --------------------------------------------------------------- injector

TEST(FaultInjectorTest, DownWindowFlipsFabricLinkState) {
  sim::Engine engine;
  net::Fabric fabric(engine, net::FabricConfig{}, 8);
  FaultPlan plan;
  plan.link_windows.push_back(
      {LinkRef::endpoint(0), sim::Time::us(10), sim::Time::us(20)});
  FaultInjector inj(engine, plan, /*fallback_seed=*/1);
  inj.install(fabric);

  const net::Hop hop =
      fabric.topology().hop(fabric.topology().route(0, 4), 0);
  std::vector<bool> up_at;  // sampled at 5us, 15us, 25us
  for (const double t : {5.0, 15.0, 25.0}) {
    engine.post_at(sim::Time::us(t), [&] {
      up_at.push_back(!fabric.link_down_at(hop, engine.now()));
    });
  }
  engine.run();
  ASSERT_EQ(up_at.size(), 3u);
  EXPECT_TRUE(up_at[0]);   // before the window
  EXPECT_FALSE(up_at[1]);  // inside it
  EXPECT_TRUE(up_at[2]);   // restored
  EXPECT_EQ(inj.link_down_events(), 1u);
  EXPECT_EQ(inj.link_up_events(), 1u);
}

TEST(FaultInjectorTest, OverlappingWindowsHoldCableDownForTheirUnion) {
  // [10us, 30us) and [20us, 40us) on one cable: the first window's up
  // transition must not restore a cable the second still holds down, and a
  // forever window must outlast a bounded one.  A chunk sent at 35us to
  // node 3 therefore finds no route.
  for (const sim::Time second_up : {sim::Time::us(40), sim::Time::zero()}) {
    sim::Engine engine;
    net::Fabric fabric(engine, net::FabricConfig{}, 8);
    FaultPlan plan;
    plan.link_windows.push_back(
        {LinkRef::endpoint(3), sim::Time::us(10), sim::Time::us(30)});
    const sim::Time second_down =
        second_up == sim::Time::zero() ? sim::Time::us(5) : sim::Time::us(20);
    plan.link_windows.push_back({LinkRef::endpoint(3), second_down, second_up});
    FaultInjector inj(engine, plan, /*fallback_seed=*/1);
    inj.install(fabric);

    std::vector<net::DeliveryStatus> statuses;
    engine.post_at(sim::Time::us(35), [&] {
      (void)fabric.inject(0, 3, 256, [&](net::DeliveryStatus st) {
        statuses.push_back(st);
      });
    });
    engine.run();
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_EQ(statuses[0], net::DeliveryStatus::link_down);
    EXPECT_EQ(fabric.chunks_no_route(), 1u);
  }
}

TEST(FaultInjectorTest, ValidatesLinksAgainstTopology) {
  sim::Engine engine;
  net::Fabric fabric(engine, net::FabricConfig{}, 8);

  FaultPlan out_of_range;
  out_of_range.link_windows.push_back(
      {LinkRef::endpoint(99), sim::Time::us(1), sim::Time::zero()});
  FaultInjector inj1(engine, out_of_range, 1);
  EXPECT_THROW(inj1.install(fabric), std::invalid_argument);

  FaultPlan not_adjacent;  // two leaf switches are never cabled directly
  not_adjacent.link_windows.push_back(
      {LinkRef::between(net::SwitchCoord{0, 0}, net::SwitchCoord{0, 1}),
       sim::Time::us(1), sim::Time::zero()});
  FaultInjector inj2(engine, not_adjacent, 1);
  EXPECT_THROW(inj2.install(fabric), std::invalid_argument);
}

TEST(FaultInjectorTest, PerLinkBerOverridesGlobal) {
  sim::Engine engine;
  FaultPlan plan;
  plan.ber = 1e-9;
  plan.link_ber.push_back({LinkRef::endpoint(2), 1e-5});
  FaultInjector inj(engine, plan, 1);

  net::Hop hop{};
  hop.kind = net::Hop::Kind::node_to_switch;
  hop.node = 2;
  EXPECT_DOUBLE_EQ(inj.link_ber(hop), 1e-5);
  hop.node = 3;
  EXPECT_DOUBLE_EQ(inj.link_ber(hop), 1e-9);
}

TEST(FaultInjectorTest, CorruptionDrawsAreSeedDeterministic) {
  sim::Engine e1, e2, e3;
  FaultPlan plan;
  plan.ber = 1e-6;
  plan.seed = 77;
  FaultInjector a(e1, plan, 1), b(e2, plan, 2);  // fallback seeds differ
  std::vector<bool> da, db;
  for (int i = 0; i < 200; ++i) {
    da.push_back(a.draw_corruption(1e-6, 4096));
    db.push_back(b.draw_corruption(1e-6, 4096));
  }
  EXPECT_EQ(da, db);  // plan seed pins the stream
  EXPECT_EQ(a.corruption_draws(), 200u);

  plan.seed = 78;
  FaultInjector c(e3, plan, 1);
  std::vector<bool> dc;
  // High BER so draws are a coin flip, not almost-surely-false.
  for (int i = 0; i < 200; ++i) dc.push_back(c.draw_corruption(2e-5, 4096));
  EXPECT_NE(da, dc);
}

TEST(FaultInjectorTest, ExtremeBerAlwaysCorrupts) {
  sim::Engine engine;
  FaultPlan plan;
  plan.ber = 0.5;
  FaultInjector inj(engine, plan, 1);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(inj.draw_corruption(0.5, 4096));
  }
}

// ------------------------------------------------------- fabric reroute

TEST(FabricFaults, SpineFailureReroutesChunks) {
  sim::Engine engine;
  net::Fabric fabric(engine, net::FabricConfig{}, 64);
  const auto& topo = fabric.topology();

  // Find the top-level hop of the default route to the far corner (full
  // climb, so the route crosses the spine).
  const auto route = topo.hops(topo.route(0, 63));
  net::Hop spine{};
  for (const auto& h : route) {
    if (h.kind == net::Hop::Kind::switch_to_switch &&
        h.to.level > h.from.level && h.to.level == topo.levels() - 1) {
      spine = h;
    }
  }
  ASSERT_EQ(spine.kind, net::Hop::Kind::switch_to_switch);

  // Down until 1ms: the first chunk reroutes, one sent after the window
  // takes the default route again.
  const sim::Time restored = sim::Time::ms(1);
  fabric.set_link_windows(
      {{LinkRef::between(spine.from, spine.to), sim::Time::zero(), restored}});
  std::vector<net::DeliveryStatus> statuses;
  (void)fabric.inject(0, 63, 4096,
                      [&](net::DeliveryStatus s) { statuses.push_back(s); });
  engine.run();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0], net::DeliveryStatus::delivered);
  EXPECT_EQ(fabric.chunks_rerouted(), 1u);
  EXPECT_EQ(fabric.chunks_dropped_link_down(), 0u);

  engine.post_at(restored, [&] {
    (void)fabric.inject(0, 63, 4096,
                        [&](net::DeliveryStatus s) { statuses.push_back(s); });
  });
  engine.run();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[1], net::DeliveryStatus::delivered);
  EXPECT_EQ(fabric.chunks_rerouted(), 1u);
}

TEST(FabricFaults, OverlappingWindowsHoldCableDownForTheirUnion) {
  sim::Engine engine;
  net::Fabric fabric(engine, net::FabricConfig{}, 8);
  const net::Hop hop =
      fabric.topology().hop(fabric.topology().route(3, 0), 0);
  fabric.set_link_windows(
      {{LinkRef::endpoint(3), sim::Time::us(10), sim::Time::us(30)},
       {LinkRef::endpoint(3), sim::Time::us(20), sim::Time::us(40)},
       {LinkRef::endpoint(5), sim::Time::us(10), sim::Time::zero()},
       {LinkRef::endpoint(5), sim::Time::us(20), sim::Time::us(30)}});
  EXPECT_FALSE(fabric.link_down_at(hop, sim::Time::us(5)));
  EXPECT_TRUE(fabric.link_down_at(hop, sim::Time::us(10)));
  EXPECT_TRUE(fabric.link_down_at(hop, sim::Time::us(35)));  // second window
  EXPECT_FALSE(fabric.link_down_at(hop, sim::Time::us(40)));
  const net::Hop other =
      fabric.topology().hop(fabric.topology().route(5, 0), 0);
  EXPECT_TRUE(fabric.link_down_at(other, sim::Time::us(35)));  // forever
  EXPECT_TRUE(fabric.link_down_at(other, sim::Time::sec(1)));
}

TEST(FabricFaults, DownedEndpointDropsAtInjection) {
  sim::Engine engine;
  net::Fabric fabric(engine, net::FabricConfig{}, 16);
  fabric.set_link_windows(
      {{LinkRef::endpoint(9), sim::Time::zero(), sim::Time::zero()}});
  std::vector<net::DeliveryStatus> statuses;
  (void)fabric.inject(0, 9, 2048,
                      [&](net::DeliveryStatus s) { statuses.push_back(s); });
  engine.run();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0], net::DeliveryStatus::link_down);
  EXPECT_EQ(fabric.chunks_no_route(), 1u);
  EXPECT_EQ(fabric.chunks_dropped_link_down(), 1u);
}

TEST(FabricFaults, RejectsNonAdjacentSwitchPair) {
  sim::Engine engine;
  net::Fabric fabric(engine, net::FabricConfig{}, 16);
  EXPECT_THROW(fabric.set_link_windows(
                   {{LinkRef::between(net::SwitchCoord{0, 0},
                                      net::SwitchCoord{2, 3}),
                     sim::Time::zero(), sim::Time::zero()}}),
               std::invalid_argument);
}

// ----------------------------------------------------------- IB RC retry

class IbRetryFixture : public ::testing::Test {
 protected:
  IbRetryFixture()
      : fabric_(engine_, net::FabricConfig{}, 4),
        node0_(engine_, 0, node::NodeConfig{}),
        node1_(engine_, 1, node::NodeConfig{}),
        hca0_(engine_, node0_, &fabric_, ib::HcaConfig{}),
        hca1_(engine_, node1_, &fabric_, ib::HcaConfig{}) {}

  sim::Engine engine_;
  net::Fabric fabric_;
  node::Node node0_, node1_;
  ib::Hca hca0_, hca1_;
};

TEST_F(IbRetryFixture, TransientLinkDownRecoversViaRetry) {
  // Destination endpoint cable is down until 50us: the first transmission
  // is lost, the RC timer retransmits with backoff until the link is back.
  FaultPlan plan;
  plan.link_windows.push_back(
      {LinkRef::endpoint(1), sim::Time::zero(), sim::Time::us(50)});
  FaultInjector inj(engine_, plan, 1);
  inj.install(fabric_);

  bool delivered = false;
  sim::Time when;
  hca1_.attach(1, [&](const ib::Delivery& d) {
    delivered = true;
    when = engine_.now();
    EXPECT_EQ(d.bytes, 4096u);
  });
  (void)hca0_.connect(0, &hca1_, 1);
  hca0_.rdma_write(0, hca1_, 1, 4096, nullptr, nullptr);
  engine_.run();
  EXPECT_TRUE(delivered);
  EXPECT_GE(when, sim::Time::us(50));  // only after the link came back
  EXPECT_GE(hca0_.rc_retries(), 2u);   // 20us + 40us backoff, then success
  EXPECT_EQ(hca0_.rc_retry_exhausted(), 0u);
  EXPECT_GE(hca0_.retransmitted_bytes(), 2u * 4096u);
}

TEST_F(IbRetryFixture, PermanentLinkDownExhaustsRetryBudget) {
  FaultPlan plan;  // down forever
  plan.link_windows.push_back(
      {LinkRef::endpoint(1), sim::Time::zero(), sim::Time::zero()});
  FaultInjector inj(engine_, plan, 1);
  inj.install(fabric_);

  bool delivered = false;
  std::vector<int> failed_eps;
  hca1_.attach(1, [&](const ib::Delivery&) { delivered = true; });
  hca0_.attach_error(0, [&](const ib::Delivery& d) {
    failed_eps.push_back(d.src_ep);
  });
  (void)hca0_.connect(0, &hca1_, 1);
  hca0_.rdma_write(0, hca1_, 1, 1024, nullptr, nullptr);
  engine_.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(hca0_.rc_retries(),
            static_cast<std::uint64_t>(ib::HcaConfig{}.rc_retry_limit));
  EXPECT_EQ(hca0_.rc_retry_exhausted(), 1u);
  ASSERT_EQ(failed_eps.size(), 1u);
  EXPECT_EQ(failed_eps[0], 0);
  // Exponential backoff: exhaustion takes sum(timeout * 2^i) ~ 2.5ms.
  EXPECT_GT(engine_.now(), sim::Time::ms(2));
}

// ------------------------------------------------------- Elan link retry

class ElanRetryFixture : public ::testing::Test {
 protected:
  ElanRetryFixture()
      : fabric_(engine_, net::FabricConfig{}, 4),
        node0_(engine_, 0, node::NodeConfig{}),
        node1_(engine_, 1, node::NodeConfig{}),
        nic0_(engine_, node0_, &fabric_, elan::ElanConfig{}),
        nic1_(engine_, node1_, &fabric_, elan::ElanConfig{}) {
    world_.nic_of_rank = {&nic0_, &nic1_};
    nic0_.set_world(&world_);
    nic1_.set_world(&world_);
    nic0_.attach_rank(0);
    nic1_.attach_rank(1);
  }

  sim::Engine engine_;
  net::Fabric fabric_;
  node::Node node0_, node1_;
  elan::ElanNic nic0_, nic1_;
  elan::ElanWorld world_;
};

TEST_F(ElanRetryFixture, HardwareLinkRetryRidesOutShortOutage) {
  // 5us outage vs 0.5us retry interval: ~10 link-level retransmissions,
  // well inside the budget of 15, no host involvement.
  FaultPlan plan;
  plan.link_windows.push_back(
      {LinkRef::endpoint(1), sim::Time::zero(), sim::Time::us(5)});
  FaultInjector inj(engine_, plan, 1);
  inj.install(fabric_);

  elan::RxStatus seen;
  bool rx_done = false;
  nic1_.rx(1, 0, 7, 0, [&](const elan::RxStatus& st) {
    rx_done = true;
    seen = st;
  });
  auto payload = std::make_shared<std::vector<std::byte>>(256);
  nic0_.tx(0, 1, 7, 0, payload, 256, nullptr);
  engine_.run();
  EXPECT_TRUE(rx_done);
  EXPECT_EQ(seen.bytes, 256u);
  EXPECT_GE(nic0_.link_retries(), 1u);
  EXPECT_LE(nic0_.link_retries(),
            static_cast<std::uint64_t>(elan::ElanConfig{}.link_retry_limit));
  EXPECT_EQ(nic0_.link_retry_exhausted(), 0u);
}

TEST_F(ElanRetryFixture, PermanentOutageExhaustsLinkRetry) {
  FaultPlan plan;  // down forever
  plan.link_windows.push_back(
      {LinkRef::endpoint(1), sim::Time::zero(), sim::Time::zero()});
  FaultInjector inj(engine_, plan, 1);
  inj.install(fabric_);

  bool rx_done = false;
  nic1_.rx(1, 0, 7, 0, [&](const elan::RxStatus&) { rx_done = true; });
  auto payload = std::make_shared<std::vector<std::byte>>(256);
  nic0_.tx(0, 1, 7, 0, payload, 256, nullptr);
  engine_.run();
  EXPECT_FALSE(rx_done);
  EXPECT_EQ(nic0_.link_retries(),
            static_cast<std::uint64_t>(elan::ElanConfig{}.link_retry_limit));
  EXPECT_GE(nic0_.link_retry_exhausted(), 1u);
}

// -------------------------------------------------- cluster integration

TEST(ClusterFaults, BerRunDeliversEverythingWithRetries) {
  // A lossy fabric (high BER so a short test sees drops) must still deliver
  // every message, with the recovery visible in the counters.
  for (const auto net : {core::Network::infiniband, core::Network::quadrics}) {
    core::ClusterConfig cc = net == core::Network::infiniband
                                 ? core::ib_cluster(2)
                                 : core::elan_cluster(2);
    cc.faults.ber = 1e-6;
    cc.faults.seed = 9;
    core::Cluster cluster(cc);
    cluster.run([&](mpi::Mpi& mpi) {
      std::vector<std::byte> buf(32768, std::byte{5});
      for (int i = 0; i < 20; ++i) {
        if (mpi.rank() == 0) {
          mpi.send(buf.data(), buf.size(), 1, i);
        } else {
          (void)mpi.recv(buf.data(), buf.size(), 0, i);
        }
      }
    });
    const auto st = cluster.stats();
    EXPECT_GT(st.chunks_corrupted, 0u) << core::to_string(net);
    if (net == core::Network::infiniband) {
      EXPECT_GE(st.rc_retries, st.chunks_corrupted);
      EXPECT_EQ(st.rc_retry_exhausted, 0u);
    } else {
      EXPECT_GE(st.elan_link_retries, st.chunks_corrupted);
      EXPECT_EQ(st.elan_link_retry_exhausted, 0u);
    }
    EXPECT_EQ(st.watchdog_timeouts, 0u);
  }
}

TEST(ClusterFaults, WatchdogConvertsLostMessagesIntoCountedErrors) {
  // Node 1's cable never comes back and the retry budget runs out; without
  // the watchdog the receiving fiber would be stuck forever and run() would
  // report a deadlock.  With it, the wait fails and is counted.
  for (const auto net : {core::Network::infiniband, core::Network::quadrics}) {
    core::ClusterConfig cc = net == core::Network::infiniband
                                 ? core::ib_cluster(2)
                                 : core::elan_cluster(2);
    cc.faults = fault::FaultPlan::parse("link n1 down@1us; watchdog=5ms");
    core::Cluster cluster(cc);
    cluster.run([&](mpi::Mpi& mpi) {
      std::vector<std::byte> buf(256, std::byte{1});
      if (mpi.rank() == 0) {
        mpi.send(buf.data(), buf.size(), 1, 0);
      } else {
        (void)mpi.recv(buf.data(), buf.size(), 0, 0);
      }
    });
    const auto st = cluster.stats();
    EXPECT_GE(st.watchdog_timeouts, 1u) << core::to_string(net);
    if (net == core::Network::infiniband) {
      EXPECT_GE(st.rc_retry_exhausted, 1u);
    } else {
      EXPECT_GE(st.elan_link_retry_exhausted, 1u);
    }
  }
}

TEST(ClusterFaults, SpecStringViaConfigMatchesProgrammaticPlan) {
  auto run_once = [](const FaultPlan& plan) {
    core::ClusterConfig cc = core::ib_cluster(2);
    cc.faults = plan;
    core::Cluster cluster(cc);
    cluster.run([&](mpi::Mpi& mpi) {
      std::vector<std::byte> buf(8192, std::byte{2});
      if (mpi.rank() == 0) {
        mpi.send(buf.data(), buf.size(), 1, 0);
      } else {
        (void)mpi.recv(buf.data(), buf.size(), 0, 0);
      }
    });
    return cluster.engine().now();
  };
  FaultPlan programmatic;
  programmatic.ber = 5e-7;
  programmatic.seed = 123;
  EXPECT_EQ(run_once(programmatic), run_once(FaultPlan::parse("ber=5e-7; seed=123")));
}

}  // namespace
}  // namespace icsim::fault
