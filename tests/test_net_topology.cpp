// Fat-tree topology: structure, routing correctness, and invariants checked
// exhaustively over all source/destination pairs for several tree shapes.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "net/topology.hpp"

namespace icsim::net {
namespace {

TEST(FatTree, CapacityAndSwitchCounts) {
  const FatTreeTopology quadrics(4, 3);  // QsNetII style: 4-ary 3-tree
  EXPECT_EQ(quadrics.capacity(), 64);
  EXPECT_EQ(quadrics.switches_per_level(), 16);
  EXPECT_EQ(quadrics.total_switches(), 48);

  const FatTreeTopology ib(12, 2);  // ISR 9600 style: 2-level of 24p chips
  EXPECT_EQ(ib.capacity(), 144);
  EXPECT_EQ(ib.switches_per_level(), 12);
}

TEST(FatTree, RejectsBadParameters) {
  EXPECT_THROW(FatTreeTopology(1, 3), std::invalid_argument);
  EXPECT_THROW(FatTreeTopology(4, 0), std::invalid_argument);
  EXPECT_THROW(FatTreeTopology(1024, 4), std::invalid_argument);
}

TEST(FatTree, LeafAttachment) {
  const FatTreeTopology t(4, 3);
  EXPECT_EQ(t.leaf_switch_of(0).word, 0u);
  EXPECT_EQ(t.leaf_switch_of(3).word, 0u);
  EXPECT_EQ(t.leaf_switch_of(4).word, 1u);
  EXPECT_EQ(t.leaf_switch_of(63).word, 15u);
  EXPECT_EQ(t.leaf_switch_of(63).level, 0);
}

TEST(FatTree, AncestorLevelSameLeaf) {
  const FatTreeTopology t(4, 3);
  EXPECT_EQ(t.ancestor_level(0, 1), 0);   // same leaf switch
  EXPECT_EQ(t.ancestor_level(0, 4), 1);   // adjacent leaf, same l1 subtree
  EXPECT_EQ(t.ancestor_level(0, 63), 2);  // opposite corners, full climb
}

TEST(FatTree, RouteSameLeafIsTwoHops) {
  const FatTreeTopology t(4, 3);
  const auto r = t.hops(t.route(0, 1));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].kind, Hop::Kind::node_to_switch);
  EXPECT_EQ(r[1].kind, Hop::Kind::switch_to_node);
  EXPECT_EQ(r[0].to, t.leaf_switch_of(0));
}

TEST(FatTree, RouteSelfThrows) {
  const FatTreeTopology t(4, 3);
  EXPECT_THROW((void)t.route(5, 5), std::invalid_argument);
}

// Route validity over all pairs: starts at src, ends at dst, climbs then
// descends, uses only valid adjacencies, and has the predicted length.
class FatTreeAllPairs : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FatTreeAllPairs, RoutesAreValidEverywhere) {
  const auto [k, n] = GetParam();
  const FatTreeTopology t(k, n);
  const int cap = t.capacity();
  for (int s = 0; s < cap; ++s) {
    for (int d = 0; d < cap; ++d) {
      if (s == d) continue;
      const auto r = t.hops(t.route(s, d));
      const int m = t.ancestor_level(s, d);
      ASSERT_EQ(static_cast<int>(r.size()), 2 * m + 2) << s << "->" << d;
      ASSERT_EQ(r.front().kind, Hop::Kind::node_to_switch);
      ASSERT_EQ(r.front().node, s);
      ASSERT_EQ(r.front().to, t.leaf_switch_of(s));
      ASSERT_EQ(r.back().kind, Hop::Kind::switch_to_node);
      ASSERT_EQ(r.back().node, d);
      ASSERT_EQ(r.back().from, t.leaf_switch_of(d));
      // Contiguity and the up-then-down profile.
      int prev_level = 0;
      bool descending = false;
      for (std::size_t i = 1; i + 1 < r.size(); ++i) {
        ASSERT_EQ(r[i].kind, Hop::Kind::switch_to_switch);
        ASSERT_EQ(r[i].from, (i == 1 ? r.front().to : r[i - 1].to));
        const int dl = r[i].to.level - r[i].from.level;
        ASSERT_TRUE(dl == 1 || dl == -1);
        if (dl == -1) descending = true;
        if (descending) {
          ASSERT_EQ(dl, -1) << "route climbed after descending";
        }
        prev_level = r[i].to.level;
      }
      (void)prev_level;
    }
  }
}

TEST_P(FatTreeAllPairs, SwitchHopCountMatchesRoute) {
  const auto [k, n] = GetParam();
  const FatTreeTopology t(k, n);
  for (int s = 0; s < t.capacity(); s += 3) {
    for (int d = 0; d < t.capacity(); d += 5) {
      if (s == d) continue;
      const Route r = t.route(s, d);
      EXPECT_EQ(r.hops(), static_cast<int>(t.hops(r).size()));
    }
  }
}

TEST_P(FatTreeAllPairs, RoutesNeverRevisitASwitch) {
  const auto [k, n] = GetParam();
  const FatTreeTopology t(k, n);
  for (int s = 0; s < t.capacity(); s += 2) {
    for (int d = 0; d < t.capacity(); d += 3) {
      if (s == d) continue;
      std::set<std::uint64_t> seen;
      for (const auto& hop : t.hops(t.route(s, d))) {
        if (hop.kind == Hop::Kind::switch_to_node) continue;
        const auto id = t.switch_id(hop.to);
        ASSERT_TRUE(seen.insert(id).second) << "switch revisited";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FatTreeAllPairs,
                         ::testing::Values(std::make_tuple(2, 2),
                                           std::make_tuple(2, 4),
                                           std::make_tuple(4, 3),
                                           std::make_tuple(12, 2),
                                           std::make_tuple(3, 3)));

// ------------------------------------------------- degraded-fabric routing

// Shared validity check for fault-avoiding routes: correct endpoints, valid
// adjacencies, and the up-then-down profile (deadlock freedom).
void expect_valid_route(const FatTreeTopology& t, const std::vector<Hop>& r,
                        int s, int d) {
  ASSERT_GE(r.size(), 2u);
  ASSERT_EQ(r.front().kind, Hop::Kind::node_to_switch);
  ASSERT_EQ(r.front().node, s);
  ASSERT_EQ(r.front().to, t.leaf_switch_of(s));
  ASSERT_EQ(r.back().kind, Hop::Kind::switch_to_node);
  ASSERT_EQ(r.back().node, d);
  ASSERT_EQ(r.back().from, t.leaf_switch_of(d));
  bool descending = false;
  for (std::size_t i = 1; i + 1 < r.size(); ++i) {
    ASSERT_EQ(r[i].kind, Hop::Kind::switch_to_switch);
    ASSERT_EQ(r[i].from, (i == 1 ? r.front().to : r[i - 1].to));
    ASSERT_TRUE(t.adjacent(r[i].from, r[i].to));
    const int dl = r[i].to.level - r[i].from.level;
    ASSERT_TRUE(dl == 1 || dl == -1);
    if (dl == -1) descending = true;
    if (descending) {
      ASSERT_EQ(dl, -1) << "route climbed after descending";
    }
  }
}

TEST(FatTreeFaults, NoDownedLinksReturnsTheDefaultRoute) {
  const FatTreeTopology t(4, 3);
  const auto never = [](const Hop&) { return false; };
  for (int s = 0; s < t.capacity(); s += 7) {
    for (int d = 0; d < t.capacity(); d += 5) {
      if (s == d) continue;
      const auto def = t.hops(t.route(s, d));
      const auto alt = t.hops(t.route_avoiding(s, d, never).value());
      ASSERT_EQ(alt.size(), def.size());
      for (std::size_t i = 0; i < def.size(); ++i) {
        EXPECT_EQ(alt[i].from, def[i].from);
        EXPECT_EQ(alt[i].to, def[i].to);
      }
    }
  }
}

TEST(FatTreeFaults, AvoidsEachSpineLinkOfTheDefaultRoute) {
  // Knock out every switch-to-switch cable of the default route, one at a
  // time; the alternate must avoid it (both directions), stay valid, and
  // keep the minimal length.
  for (const auto& [k, n] : {std::make_tuple(4, 3), std::make_tuple(2, 4)}) {
    const FatTreeTopology t(k, n);
    const int s = 0, d = t.capacity() - 1;  // full climb
    const auto def = t.hops(t.route(s, d));
    for (const auto& dead : def) {
      if (dead.kind != Hop::Kind::switch_to_switch) continue;
      const auto down = [&dead](const Hop& h) {
        return h.kind == Hop::Kind::switch_to_switch &&
               ((h.from == dead.from && h.to == dead.to) ||
                (h.from == dead.to && h.to == dead.from));
      };
      const auto r = t.route_avoiding(s, d, down);
      ASSERT_TRUE(r.has_value());
      const auto alt = t.hops(*r);
      expect_valid_route(t, alt, s, d);
      EXPECT_EQ(alt.size(), def.size());  // still minimal
      for (const auto& h : alt) EXPECT_FALSE(down(h));
    }
  }
}

TEST(FatTreeFaults, DownedEndpointHasNoRoute) {
  const FatTreeTopology t(4, 3);
  const auto down = [](const Hop& h) {
    return h.kind != Hop::Kind::switch_to_switch && h.node == 9;
  };
  EXPECT_FALSE(t.route_avoiding(0, 9, down).has_value());
  EXPECT_FALSE(t.route_avoiding(9, 0, down).has_value());
  // Unrelated pairs are unaffected.
  EXPECT_TRUE(t.route_avoiding(0, 25, down).has_value());
  // No peer reaches, or is reached from, an endpoint whose cable is down.
  for (int x = 0; x < t.capacity(); x += 5) {
    const LinkRef cable = LinkRef::endpoint(x);
    const auto cut = [&cable](const Hop& h) { return cable.covers(h); };
    for (int peer = 0; peer < t.capacity(); ++peer) {
      if (peer == x) continue;
      EXPECT_FALSE(t.route_avoiding(x, peer, cut).has_value()) << x;
      EXPECT_FALSE(t.route_avoiding(peer, x, cut).has_value()) << x;
    }
  }
}

TEST(FatTreeFaults, IsolatedLeafSwitchPartitionsItsSubtree) {
  const FatTreeTopology t(2, 3);
  const SwitchCoord leaf = t.leaf_switch_of(0);
  const auto down = [&](const Hop& h) {
    return h.kind == Hop::Kind::switch_to_switch &&
           (h.from == leaf || h.to == leaf);
  };
  // Cross-subtree: every route needs one of the leaf's up-cables -> none.
  EXPECT_FALSE(t.route_avoiding(0, t.capacity() - 1, down).has_value());
  // Same leaf switch: no switch-to-switch hop involved, still routable.
  EXPECT_TRUE(t.route_avoiding(0, 1, down).has_value());
}

TEST(FatTreeFaults, SingleSpineOutageNeverPartitionsTheFabric) {
  // One dead spine cable: every pair must still have a valid route (the
  // k^m climb alternatives guarantee it for m >= 1).
  const FatTreeTopology t(2, 3);
  const auto def = t.hops(t.route(0, t.capacity() - 1));
  Hop dead{};
  for (const auto& h : def) {
    if (h.kind == Hop::Kind::switch_to_switch &&
        h.to.level == t.levels() - 1) {
      dead = h;
    }
  }
  ASSERT_EQ(dead.kind, Hop::Kind::switch_to_switch);
  const auto down = [&dead](const Hop& h) {
    return h.kind == Hop::Kind::switch_to_switch &&
           ((h.from == dead.from && h.to == dead.to) ||
            (h.from == dead.to && h.to == dead.from));
  };
  for (int s = 0; s < t.capacity(); ++s) {
    for (int d = 0; d < t.capacity(); ++d) {
      if (s == d) continue;
      const auto r = t.route_avoiding(s, d, down);
      ASSERT_TRUE(r.has_value()) << s << "->" << d;
      expect_valid_route(t, t.hops(*r), s, d);
      for (const auto& h : t.hops(*r)) ASSERT_FALSE(down(h));
    }
  }
}

// The event digests of faulted runs depend on which route a blocked chunk
// takes, so the default top and the reroute candidate order are pinned.
TEST(FatTreeFaults, DefaultTopIsTheDestinationLeafWordAtTheAncestorLevel) {
  for (const auto& [k, n] : {std::make_tuple(4, 3), std::make_tuple(2, 4)}) {
    const FatTreeTopology t(k, n);
    for (int s = 0; s < t.capacity(); ++s) {
      for (int d = 0; d < t.capacity(); ++d) {
        if (s == d) continue;
        const Route r = t.route(s, d);
        ASSERT_EQ(r.src, s);
        ASSERT_EQ(r.dst, d);
        ASSERT_EQ(r.top, (SwitchCoord{t.ancestor_level(s, d),
                                      t.leaf_switch_of(d).word}))
            << s << "->" << d;
      }
    }
  }
}

TEST(FatTreeFaults, RerouteTakesTheLowestOtherTopInTheSourceSubtree) {
  for (const auto& [k, n] : {std::make_tuple(4, 3), std::make_tuple(2, 4)}) {
    const FatTreeTopology t(k, n);
    for (int s = 0; s < t.capacity(); ++s) {
      for (int d = 0; d < t.capacity(); ++d) {
        if (s == d || t.ancestor_level(s, d) == 0) continue;
        const Route def = t.route(s, d);
        const int m = def.top.level;
        // The up-cable into the default top.
        const Hop dead = t.hop(def, m);
        const auto down = [&dead](const Hop& h) {
          return LinkRef::between(dead.from, dead.to).covers(h);
        };
        std::uint32_t span = 1;
        for (int l = 0; l < m; ++l) span *= static_cast<std::uint32_t>(k);
        const std::uint32_t first = def.top.word - def.top.word % span;
        const std::uint32_t want = def.top.word == first ? first + 1 : first;
        const auto r = t.route_avoiding(s, d, down);
        ASSERT_TRUE(r.has_value()) << s << "->" << d;
        EXPECT_EQ(r->top, (SwitchCoord{m, want})) << s << "->" << d;
      }
    }
  }
}

TEST(FatTreeFaults, Adjacency) {
  const FatTreeTopology t(4, 3);
  // Up-neighbours of leaf word 0 at level 1: words agreeing except digit 0.
  EXPECT_TRUE(t.adjacent({0, 0}, {1, 0}));
  EXPECT_TRUE(t.adjacent({1, 0}, {0, 0}));  // symmetric
  EXPECT_TRUE(t.adjacent({0, 0}, {1, 1}));
  EXPECT_TRUE(t.adjacent({0, 0}, {1, 3}));
  EXPECT_FALSE(t.adjacent({0, 0}, {1, 4}));   // differ in digit 1
  EXPECT_FALSE(t.adjacent({0, 0}, {0, 1}));   // same level
  EXPECT_FALSE(t.adjacent({0, 0}, {2, 0}));   // two levels apart
  EXPECT_FALSE(t.adjacent({0, 0}, {3, 0}));   // out of range
  EXPECT_FALSE(t.adjacent({1, 0}, {2, 1}));   // differ in digit 0 (not 1)
  EXPECT_TRUE(t.adjacent({1, 0}, {2, 4}));    // differ only in digit 1
}

// D-mod-k up-routing: traffic to distinct destinations from one source
// spreads over distinct top-level switches.
TEST(FatTree, DestinationRoutingSpreadsSpineLoad) {
  const FatTreeTopology t(4, 3);
  std::set<std::uint64_t> spines;
  for (int d = 16; d < 32; ++d) {  // destinations in another subtree
    for (const auto& hop : t.hops(t.route(0, d))) {
      if (hop.kind == Hop::Kind::switch_to_switch && hop.to.level == 2) {
        spines.insert(t.switch_id(hop.to));
      }
    }
  }
  // 16 destinations spread over more than one spine switch.
  EXPECT_GT(spines.size(), 3u);
}

}  // namespace
}  // namespace icsim::net
