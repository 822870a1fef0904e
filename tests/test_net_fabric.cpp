// Fabric timing model: serialization, hop latency, pipelining, contention,
// and in-order delivery per flow.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/cluster.hpp"
#include "net/fabric.hpp"
#include "net/partition.hpp"
#include "par/par_engine.hpp"
#include "sim/engine.hpp"
#include "trace/metrics.hpp"

namespace icsim::net {
namespace {

FabricConfig simple_config() {
  FabricConfig c;
  c.radix_down = 4;
  c.levels = 3;
  c.link_bandwidth = sim::Bandwidth::gb_per_sec(1.0);
  c.switch_latency = sim::Time::ns(100);
  c.wire_latency = sim::Time::ns(20);
  c.mtu_bytes = 2048;
  c.header_bytes = 0;  // most tests want clean arithmetic
  return c;
}

TEST(Fabric, RejectsTooManyNodes) {
  sim::Engine e;
  EXPECT_THROW(Fabric(e, simple_config(), 65), std::invalid_argument);
  Fabric ok(e, simple_config(), 64);
  EXPECT_EQ(ok.num_nodes(), 64);
}

TEST(Fabric, SerializationTimeIncludesHeaders) {
  sim::Engine e;
  auto cfg = simple_config();
  cfg.header_bytes = 32;
  Fabric f(e, cfg, 8);
  // 4096 bytes = 2 MTU packets -> 4096 + 64 header bytes at 1 GB/s.
  EXPECT_EQ(f.serialization_time(4096), sim::Time::ns(4160));
  // Zero-byte chunk still carries one header.
  EXPECT_EQ(f.serialization_time(0), sim::Time::ns(32));
}

TEST(Fabric, SameLeafDeliveryTime) {
  sim::Engine e;
  Fabric f(e, simple_config(), 8);
  sim::Time delivered = sim::Time::zero();
  // Nodes 0 and 1 share a leaf switch: 2 links, 1 switch.
  // Chunk 1000 B: ser 1 us per link; hops: node->sw (ser+wire+switch), then
  // sw->node (ser+wire).  Total = 2*(1us+20ns) + 100ns = 2.14 us.
  f.inject(0, 1, 1000, [&](DeliveryStatus) { delivered = e.now(); });
  e.run();
  EXPECT_EQ(delivered, sim::Time::ns(2140));
}

TEST(Fabric, CrossTreeDeliveryAddsHops) {
  // Measured in separate fabrics so the two flows do not share the source
  // link.  0->63 climbs to level 2: 6 links, 5 switches vs 2 links, 1 switch.
  auto deliver_time = [](int dst) {
    sim::Engine e;
    Fabric f(e, simple_config(), 64);
    sim::Time t = sim::Time::zero();
    f.inject(0, dst, 1000, [&](DeliveryStatus) { t = e.now(); });
    e.run();
    return t;
  };
  const auto extra = deliver_time(63) - deliver_time(1);
  EXPECT_EQ(extra, 4 * sim::Time::ns(1020) + 4 * sim::Time::ns(100));
}

TEST(Fabric, InjectReturnsSourceSerializationDone) {
  sim::Engine e;
  Fabric f(e, simple_config(), 8);
  const sim::Time tx_done = f.inject(0, 1, 1000, nullptr);
  EXPECT_EQ(tx_done, sim::Time::us(1));
}

TEST(Fabric, ChunksOfOneMessagePipelineAcrossHops) {
  sim::Engine e;
  Fabric f(e, simple_config(), 64);
  std::vector<double> arrivals;
  // Two back-to-back 2048 B chunks, far route.  The second chunk's delivery
  // should trail the first by its serialization time (pipelining), not by a
  // full route traversal.
  f.inject(0, 63, 2048, [&](DeliveryStatus) { arrivals.push_back(e.now().to_us()); });
  f.inject(0, 63, 2048, [&](DeliveryStatus) { arrivals.push_back(e.now().to_us()); });
  e.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[1] - arrivals[0], 2.048, 1e-6);
}

TEST(Fabric, ContendingFlowsShareALink) {
  sim::Engine e;
  Fabric f(e, simple_config(), 8);
  // Both 0->2 and 1->2 end on the same switch->node link; the second
  // delivery must queue behind the first on that link.
  sim::Time t02 = sim::Time::zero(), t12 = sim::Time::zero();
  f.inject(0, 2, 10000, [&](DeliveryStatus) { t02 = e.now(); });
  f.inject(1, 2, 10000, [&](DeliveryStatus) { t12 = e.now(); });
  e.run();
  const double gap_us = (t12 - t02).to_us();
  // Second flow waits for the shared link: gap ~= serialization of 10 kB.
  EXPECT_NEAR(gap_us, 10.0, 0.5);
}

TEST(Fabric, DisjointFlowsDoNotInterfere) {
  sim::Engine e;
  Fabric f(e, simple_config(), 8);
  sim::Time alone = sim::Time::zero();
  f.inject(0, 1, 10000, [&](DeliveryStatus) { alone = e.now(); });
  e.run();

  sim::Engine e2;
  Fabric f2(e2, simple_config(), 8);
  sim::Time together = sim::Time::zero();
  f2.inject(0, 1, 10000, [&](DeliveryStatus) { together = e2.now(); });
  f2.inject(6, 7, 10000, nullptr);  // different leaf entirely
  e2.run();
  EXPECT_EQ(alone, together);
}

TEST(Fabric, PerFlowDeliveryIsInOrder) {
  sim::Engine e;
  Fabric f(e, simple_config(), 64);
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    f.inject(3, 40, 100 + static_cast<std::uint32_t>(i), [&order, i](DeliveryStatus) {
      order.push_back(i);
    });
  }
  e.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Fabric, CountsChunks) {
  sim::Engine e;
  Fabric f(e, simple_config(), 8);
  f.inject(0, 1, 100, nullptr);
  f.inject(1, 0, 100, nullptr);
  e.run();
  EXPECT_EQ(f.chunks_sent(), 2u);
  EXPECT_GT(f.max_link_busy_time(), sim::Time::zero());
}

// --- Link slots --------------------------------------------------------------

/// A fabric of `nodes` endpoints on `net`'s calibrated tree, serial or split
/// into `parts` partitions.  The engines only host links; nothing runs.
struct SlotFabric {
  SlotFabric(core::Network net, int nodes, int parts)
      : config(core::fabric_config_for(net, nodes)),
        topo(config.radix_down, config.levels),
        engines(static_cast<std::size_t>(parts)) {
    FabricPartitions fp;
    fp.map = make_partitioning(topo, nodes, parts);
    for (int p = 0; p < fp.map.parts; ++p) {
      fp.engines.push_back(&engines[static_cast<std::size_t>(p)]);
    }
    fp.post_cross = [](int, int, sim::Time, sim::EventFn) {};
    fabric = std::make_unique<Fabric>(std::move(fp), config, nodes);
  }
  FabricConfig config;
  FatTreeTopology topo;
  std::vector<sim::Engine> engines;
  std::unique_ptr<Fabric> fabric;
};

/// A directed hop, readably: "n5>" enters the tree from node 5, "1.3>2.7"
/// climbs from switch (level 1, word 3) to (2, 7).
std::string describe(const Hop& h) {
  switch (h.kind) {
    case Hop::Kind::node_to_switch: return "n" + std::to_string(h.node) + ">";
    case Hop::Kind::switch_to_node: return ">n" + std::to_string(h.node);
    case Hop::Kind::switch_to_switch: break;
  }
  std::string out = std::to_string(h.from.level);
  out += '.';
  out += std::to_string(h.from.word);
  out += '>';
  out += std::to_string(h.to.level);
  out += '.';
  out += std::to_string(h.to.word);
  return out;
}

/// Identity of a directed hop, for telling two hops apart.
std::uint64_t hop_id(const Hop& h) {
  if (h.kind != Hop::Kind::switch_to_switch) {
    return (static_cast<std::uint64_t>(h.kind) << 60) |
           static_cast<std::uint64_t>(h.node);
  }
  return (static_cast<std::uint64_t>(h.from.level) << 52) |
         (static_cast<std::uint64_t>(h.to.level) << 44) |
         (static_cast<std::uint64_t>(h.from.word) << 22) | h.to.word;
}

/// Every route src -> dst could take: each top route_avoiding can pick (the
/// k^m tops of src's level-m subtree, m the ancestor level).
void each_minimal_route(const FatTreeTopology& topo, int src, int dst,
                        const std::function<void(const Route&)>& fn) {
  const Route def = topo.route(src, dst);
  std::uint32_t span = 1;
  for (int l = 0; l < def.top.level; ++l) {
    span *= static_cast<std::uint32_t>(topo.radix());
  }
  Route r = def;
  for (r.top.word = def.top.word - def.top.word % span;
       r.top.word < def.top.word - def.top.word % span + span; ++r.top.word) {
    fn(r);
  }
}

/// Every minimal route's hops, without visiting all n^2 node pairs: a
/// route's climb depends only on its src's leaf switch and its top, its
/// descent only on the top and dst's leaf, and its endpoint hops only on
/// src and dst.  So for each populated leaf s and level m, one partner
/// leaf d at ancestor level m, routes s -> d and d -> s over every top
/// reach every climb and descent through s at m.
void each_route_class(const FatTreeTopology& topo, int nodes,
                      const std::function<void(const Route&)>& fn) {
  const int k = topo.radix();
  const int leaves = (nodes + k - 1) / k;
  for (int s = 0; s < leaves; ++s) {
    int span = 1;  // k^(m-1)
    for (int m = 1; m < topo.levels(); ++m, span *= k) {
      const int base = s - s % (span * k);
      const int own = s / span % k;
      for (int v = 0; v < k; ++v) {
        const int d = base + v * span;
        if (v == own || d >= leaves) continue;
        each_minimal_route(topo, s * k, d * k, fn);
        each_minimal_route(topo, d * k, s * k, fn);
        break;
      }
    }
  }
}

/// Visit every directed hop the fabric can carry and check that each maps
/// to an in-bounds slot of its owner's table that no other hop shares.
/// Returns the number of distinct hops seen.
std::size_t check_slots(const SlotFabric& sf, int nodes,
                        const std::function<void(
                            const std::function<void(const Route&)>&)>& routes) {
  const Fabric& f = *sf.fabric;
  const Partitioning& map = f.partitioning();
  // Per partition and slot: 1 + the id of the hop seen there (0: none),
  // and that hop.
  std::vector<std::vector<std::uint64_t>> seen(
      static_cast<std::size_t>(map.parts));
  std::vector<std::vector<Hop>> seen_hop(static_cast<std::size_t>(map.parts));
  for (int p = 0; p < map.parts; ++p) {
    seen[static_cast<std::size_t>(p)].assign(f.link_slots(p), 0);
    seen_hop[static_cast<std::size_t>(p)].resize(f.link_slots(p));
  }
  std::size_t distinct = 0, failures = 0;
  const auto visit = [&](const Hop& h) {
    const Fabric::LinkSlot at = f.locate(h);
    const int owner = map.parts == 1 ? 0 : map.owner(h);
    if (at.part != owner || at.slot >= f.link_slots(at.part)) {
      if (failures++ < 5) {
        ADD_FAILURE() << "hop " << describe(h) << " -> part " << at.part
                      << " slot " << at.slot << " (owner " << owner
                      << ", table " << f.link_slots(at.part) << ")";
      }
      return;
    }
    const auto p = static_cast<std::size_t>(at.part);
    std::uint64_t& cell = seen[p][at.slot];
    const std::uint64_t id = hop_id(h) + 1;
    if (cell == 0) {
      cell = id;
      seen_hop[p][at.slot] = h;
      ++distinct;
    } else if (cell != id && failures++ < 5) {
      ADD_FAILURE() << "hops " << describe(seen_hop[p][at.slot]) << " and "
                    << describe(h) << " share slot " << at.slot
                    << " of part " << at.part;
    }
  };
  for (int node = 0; node < nodes; ++node) {
    visit(Hop{Hop::Kind::node_to_switch, node, {}, sf.topo.leaf_switch_of(node)});
    visit(Hop{Hop::Kind::switch_to_node, node, sf.topo.leaf_switch_of(node), {}});
  }
  routes([&](const Route& r) {
    for (int i = 0; i < r.hops(); ++i) visit(sf.topo.hop(r, i));
  });
  EXPECT_EQ(failures, 0u);
  return distinct;
}

struct SlotCase {
  core::Network net;
  int nodes;
  int parts;
};

class FabricSlots : public ::testing::TestWithParam<SlotCase> {};

// Every directed hop of every minimal route -- the D-mod-k default and each
// alternate top a fault reroute can pick -- has its own slot in its owner
// partition's table.  D-mod-k routes alone leave each switch by a single
// down port, so a layout that merged a switch's down ports would pass every
// fault-free run.
TEST_P(FabricSlots, EveryMinimalRouteHopHasItsOwnSlot) {
  const SlotCase c = GetParam();
  const SlotFabric sf(c.net, c.nodes, c.parts);
  const std::size_t hops = check_slots(sf, c.nodes, [&](const auto& fn) {
    each_route_class(sf.topo, c.nodes, fn);
  });
  EXPECT_GT(hops, static_cast<std::size_t>(2 * c.nodes));
  if (c.nodes <= 64) {
    // Small enough to walk every (src, dst) pair: the same hops.
    const std::size_t all = check_slots(sf, c.nodes, [&](const auto& fn) {
      for (int src = 0; src < c.nodes; ++src) {
        for (int dst = 0; dst < c.nodes; ++dst) {
          if (src != dst) each_minimal_route(sf.topo, src, dst, fn);
        }
      }
    });
    EXPECT_EQ(all, hops);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Trees, FabricSlots,
    ::testing::Values(SlotCase{core::Network::infiniband, 24, 1},
                      SlotCase{core::Network::infiniband, 24, 8},
                      SlotCase{core::Network::infiniband, 1000, 1},
                      SlotCase{core::Network::infiniband, 1000, 8},
                      SlotCase{core::Network::infiniband, 4096, 1},
                      SlotCase{core::Network::infiniband, 4096, 8},
                      SlotCase{core::Network::quadrics, 24, 1},
                      SlotCase{core::Network::quadrics, 24, 8},
                      SlotCase{core::Network::quadrics, 1000, 1},
                      SlotCase{core::Network::quadrics, 1000, 8},
                      SlotCase{core::Network::quadrics, 4096, 1},
                      SlotCase{core::Network::quadrics, 4096, 8}),
    [](const ::testing::TestParamInfo<SlotCase>& info) {
      std::string name =
          info.param.net == core::Network::infiniband ? "Ib" : "Elan";
      name += std::to_string(info.param.nodes);
      name += "Nodes";
      name += std::to_string(info.param.parts);
      name += "Parts";
      return name;
    });

// --- Link traversal order ----------------------------------------------------

/// What a contended run published: max_link_busy_time, the exact link
/// stats, and publish_metrics' JSON lines for the link metrics.
struct PinnedRun {
  std::int64_t max_busy_ps = 0;
  std::string exact;  ///< each link stat's mean, stddev, sum as hex floats
  std::string json;   ///< the net.links_used and per-link stat lines
};

/// 64 nodes, each sending three 2 KiB chunks to node 37, to a scattered
/// peer and to its mirror, starting 100 ns apart.  A spine cable of the
/// default route 0 -> 37 is down from 0.5 us to 4 us, so chunks reroute and
/// some in flight are dropped.  Serial, or split into `parts` partitions.
PinnedRun contended_spine_run(core::Network net, int parts) {
  const int nodes = 64;
  const FabricConfig fc = core::fabric_config_for(net, nodes);
  const FatTreeTopology topo(fc.radix_down, fc.levels);
  LinkDownWindow w;
  w.down = sim::Time::ns(500);
  w.up = sim::Time::us(4);
  const Route r = topo.route(0, 37);
  const Hop spine = topo.hop(r, r.top.level);
  w.link = LinkRef::between(spine.from, spine.to);
  auto inject_all = [&](Fabric& fabric, auto engine_of) {
    for (int src = 0; src < nodes; ++src) {
      engine_of(src).post_at(sim::Time::ns(100.0 * src), [&fabric, src] {
        for (const int dst : {37, (src * 7 + 13) % 64, 63 - src}) {
          if (dst == src) continue;
          for (int c = 0; c < 3; ++c) (void)fabric.inject(src, dst, 2048, nullptr);
        }
      });
    }
  };
  auto pin = [](const Fabric& fabric, sim::Time end) {
    trace::MetricsRegistry m;
    fabric.publish_metrics(m, end);
    PinnedRun out;
    out.max_busy_ps = fabric.max_link_busy_time().picoseconds();
    for (const char* name : {"net.link_busy_us", "net.link_utilization"}) {
      const sim::RunningStat& s = m.stats().at(name);
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s %a %a %a;", name, s.mean(),
                    s.stddev(), s.sum());
      out.exact += buf;
    }
    std::istringstream lines(m.to_json());
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"net.links_used\"") != std::string::npos ||
          line.find("\"net.link_busy_us\"") != std::string::npos ||
          line.find("\"net.link_utilization\"") != std::string::npos) {
        out.json += line.substr(line.find('"'));
        out.json += '\n';
      }
    }
    return out;
  };
  if (parts == 1) {
    sim::Engine engine;
    Fabric fabric(engine, fc, nodes);
    fabric.set_link_windows({w});
    inject_all(fabric, [&](int) -> sim::Engine& { return engine; });
    (void)engine.run();
    return pin(fabric, engine.now());
  }
  FabricPartitions fp;
  fp.map = make_partitioning(topo, nodes, parts);
  par::ParConfig pc;
  pc.partitions = fp.map.parts;
  pc.threads = 1;
  pc.lookahead = Fabric::lookahead_of(fc);
  par::ParEngine pe(pc);
  for (int p = 0; p < pc.partitions; ++p) fp.engines.push_back(&pe.shard(p));
  fp.post_cross = std::bind_front(&par::ParEngine::post_cross, &pe);
  const Partitioning map = fp.map;
  Fabric fabric(std::move(fp), fc, nodes);
  fabric.set_link_windows({w});
  inject_all(fabric, [&](int node) -> sim::Engine& {
    return pe.shard(map.of_node(node));
  });
  pe.run();
  sim::Time end = sim::Time::zero();
  for (int p = 0; p < pc.partitions; ++p) {
    if (pe.shard(p).now() > end) end = pe.shard(p).now();
  }
  return pin(fabric, end);
}

// The per-link stats are Welford accumulators, so they depend on the order
// links are visited in, not only on the links.  These are the figures of a
// fabric that kept its links in a map ordered by (sender, receiver) switch
// id, then endpoint links by node; the serial and partitioned figures
// differ in their last bits because each partition's links are visited in
// turn.
TEST(Fabric, LinkMetricsKeepTheirTraversalOrder) {
  struct Pin {
    core::Network net;
    int parts;
    std::int64_t max_busy_ps;
    const char* exact;
    const char* json;
  };
  const Pin pins[] = {
      {core::Network::infiniband, 1, 409248000,
       "net.link_busy_us 0x1.b2ec33e1f6714p+4 0x1.843301989dc47p+5 "
       "0x1.133978d4fdf33p+12;net.link_utilization 0x1.0abd459644a96p-4 "
       "0x1.dc2adec2fa093p-4 0x1.51978c122ee55p+3;",
       R"("net.links_used": 162
"net.link_busy_us": {"count": 162, "mean": 27.1826667, "min": 6.264, "max": 409.248, "stddev": 48.5249054, "sum": 4403.592},
"net.link_utilization": {"count": 162, "mean": 0.0651219099, "min": 0.0150067559, "max": 0.980441386, "stddev": 0.116251822, "sum": 10.5497494}
)"},
      {core::Network::infiniband, 4, 409248000,
       "net.link_busy_us 0x1.b2ec33e1f6718p+4 0x1.843301989dc47p+5 "
       "0x1.133978d4fdf3ap+12;net.link_utilization 0x1.0abd459644a98p-4 "
       "0x1.dc2adec2fa092p-4 0x1.51978c122ee5fp+3;",
       R"("net.links_used": 162
"net.link_busy_us": {"count": 162, "mean": 27.1826667, "min": 6.264, "max": 409.248, "stddev": 48.5249054, "sum": 4403.592},
"net.link_utilization": {"count": 162, "mean": 0.0651219099, "min": 0.0150067559, "max": 0.980441386, "stddev": 0.116251822, "sum": 10.5497494}
)"},
      {core::Network::quadrics, 1, 311175444,
       "net.link_busy_us 0x1.3b461eb98130dp+4 0x1.da9a08dd11b4dp+4 "
       "0x1.42a9c371da398p+12;net.link_utilization 0x1.fe0f7ad6e9879p-5 "
       "0x1.7fe9c0c8cd8b3p-4 0x1.0501ebdbf980fp+4;",
       R"("net.links_used": 262
"net.link_busy_us": {"count": 262, "mean": 19.7046191, "min": 4.836924, "max": 311.175444, "stddev": 29.6626061, "sum": 5162.61022},
"net.link_utilization": {"count": 262, "mean": 0.0622632407, "min": 0.0152838561, "max": 0.983261409, "stddev": 0.0937287837, "sum": 16.3129691}
)"},
      {core::Network::quadrics, 4, 311175444,
       "net.link_busy_us 0x1.3b461eb98130ep+4 0x1.da9a08dd11b4cp+4 "
       "0x1.42a9c371da381p+12;net.link_utilization 0x1.fe0f7ad6e9879p-5 "
       "0x1.7fe9c0c8cd8b7p-4 0x1.0501ebdbf981p+4;",
       R"("net.links_used": 262
"net.link_busy_us": {"count": 262, "mean": 19.7046191, "min": 4.836924, "max": 311.175444, "stddev": 29.6626061, "sum": 5162.61022},
"net.link_utilization": {"count": 262, "mean": 0.0622632407, "min": 0.0152838561, "max": 0.983261409, "stddev": 0.0937287837, "sum": 16.3129691}
)"},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.net == core::Network::infiniband ? "ib" : "elan") +
                 " parts=" + std::to_string(pin.parts));
    const PinnedRun run = contended_spine_run(pin.net, pin.parts);
    EXPECT_EQ(run.max_busy_ps, pin.max_busy_ps);
    EXPECT_EQ(run.exact, pin.exact);
    EXPECT_EQ(run.json, pin.json);
  }
}

}  // namespace
}  // namespace icsim::net
