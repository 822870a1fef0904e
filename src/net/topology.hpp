#pragma once
// k-ary n-tree (fat-tree) topology and deterministic routing.
//
// Both networks in the study are fat trees built from constant-radix
// crossbars: the Voltaire ISR 9600 is a two-level Clos of 24-port chips
// (12 down / 12 up per leaf), and Quadrics QsNetII is the classical 4-ary
// fat tree of radix-8 Elan switch chips.  We model both with the standard
// k-ary n-tree construction:
//
//   * k^n endpoints; n switch levels, k^(n-1) switches per level;
//   * a switch is identified by (level l, word w) where w has n-1 base-k
//     digits; switch (l, w) connects up to the k switches (l+1, w') whose
//     words agree with w in every digit except digit l;
//   * node x (digits x_{n-1}..x_0) attaches to leaf switch word
//     x_{n-1}..x_1 at down-port x_0.
//
// Routing is deterministic destination-based ("D-mod-k") up/down: climb to
// the nearest common ancestor level, choosing at each up-hop the switch
// whose free digit matches the destination's digit, then descend along the
// forced down-path.  This is the scheme InfiniBand subnet managers and the
// Elan route tables both approximate, it is deadlock-free, and it spreads
// load across the spine by destination.
//
// A minimal route is therefore fixed by src, dst and the top switch it
// climbs to, so a Route is that 16-byte value and its hops are computed
// arithmetically when a layer walks it; no hop list is ever stored.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace icsim::net {

/// A switch in the tree, identified by level and base-k word.
struct SwitchCoord {
  int level = 0;
  std::uint32_t word = 0;

  friend bool operator==(const SwitchCoord&, const SwitchCoord&) = default;
};

/// One directed hop of a route.  Endpoint hops use kNode for one side.
struct Hop {
  enum class Kind { node_to_switch, switch_to_switch, switch_to_node };
  Kind kind{};
  // For node hops, `node` names the endpoint; for switch hops it is unused.
  int node = -1;
  SwitchCoord from{};  // valid unless kind == node_to_switch
  SwitchCoord to{};    // valid unless kind == switch_to_node
};

/// A minimal up/down route: it climbs from src's leaf switch to `top`, a
/// switch at the ancestor level of src and dst, then descends to dst's leaf
/// switch.  Those three values fix every hop, which
/// FatTreeTopology::hop(route, i) computes on demand.
struct Route {
  int src = -1;
  int dst = -1;
  SwitchCoord top{};

  /// Hops including the two endpoint hops: 2 * top.level + 2.
  [[nodiscard]] int hops() const { return 2 * top.level + 2; }
};

/// An undirected link of the tree: either the endpoint cable of one node,
/// or the cable between two adjacent switches.  Both directions of a cable
/// fail together.
struct LinkRef {
  enum class Kind { node, switch_pair };
  Kind kind = Kind::node;
  int node = -1;           ///< Kind::node
  SwitchCoord a{}, b{};    ///< Kind::switch_pair (order irrelevant)

  [[nodiscard]] static LinkRef endpoint(int node) {
    LinkRef l;
    l.kind = Kind::node;
    l.node = node;
    return l;
  }
  [[nodiscard]] static LinkRef between(SwitchCoord a, SwitchCoord b) {
    LinkRef l;
    l.kind = Kind::switch_pair;
    l.a = a;
    l.b = b;
    return l;
  }
  /// Does a directed hop traverse this (undirected) link?
  [[nodiscard]] bool covers(const Hop& hop) const;
  /// Do both refs name the same cable (switch order ignored)?
  [[nodiscard]] bool same_cable(const LinkRef& other) const;
  [[nodiscard]] std::string to_string() const;
};

class FatTreeTopology {
 public:
  /// A tree of `levels` levels built from switches with `radix_down` down
  /// ports (and the same number of up ports, except the top level which
  /// folds its up ports back as extra capacity).
  FatTreeTopology(int radix_down, int levels);

  [[nodiscard]] int radix() const { return k_; }
  [[nodiscard]] int levels() const { return n_; }
  /// Maximum number of endpoints (k^n).
  [[nodiscard]] int capacity() const { return capacity_; }
  [[nodiscard]] int switches_per_level() const { return switches_per_level_; }
  [[nodiscard]] int total_switches() const { return n_ * switches_per_level_; }

  [[nodiscard]] SwitchCoord leaf_switch_of(int node) const;

  /// Level of the nearest common ancestor switch of two nodes; 0 means they
  /// share a leaf switch.
  [[nodiscard]] int ancestor_level(int a, int b) const;

  /// The default D-mod-k route src -> dst: its top is the switch at the
  /// ancestor level whose word is dst's leaf word.  src == dst is a contract
  /// violation (callers short-circuit self sends).
  [[nodiscard]] Route route(int src, int dst) const;

  /// Hop `i` of `r`, 0 <= i < r.hops().  Hop 0 enters src's leaf switch,
  /// hops 1..m climb to the top, hops m+1..2m descend to dst's leaf, and
  /// the last hop leaves it for dst.  The switch at level l keeps the top
  /// word's low l digits and takes the others from its own leaf word: src's
  /// on the way up, dst's on the way down.
  [[nodiscard]] Hop hop(const Route& r, int i) const;

  /// Every hop of `r`, in order.
  [[nodiscard]] std::vector<Hop> hops(const Route& r) const;

  /// Like route(), but skip routes that traverse a hop for which `down`
  /// returns true.  The minimal routes src -> dst are the k^m tops in src's
  /// level-m subtree (m = ancestor level); the default D-mod-k top is tried
  /// first (fault-free fabrics reroute to themselves), then the other tops
  /// in ascending word order.  All candidates are up-then-down, so the
  /// deadlock-free property is preserved.  Returns nullopt when no fully-up
  /// route exists (in particular when an endpoint link is down).
  [[nodiscard]] std::optional<Route> route_avoiding(
      int src, int dst, const std::function<bool(const Hop&)>& down) const;

  /// True when the two switches are joined by a cable of the tree.
  [[nodiscard]] bool adjacent(SwitchCoord a, SwitchCoord b) const;

  /// Compact unique id for a switch (level-major, then word).
  [[nodiscard]] std::uint64_t switch_id(SwitchCoord c) const {
    return static_cast<std::uint64_t>(c.level) *
               static_cast<std::uint64_t>(switches_per_level_) +
           c.word;
  }

  /// Base-k digit `pos` of `value`.  A switch-to-switch hop between levels
  /// l and l+1 changes exactly digit l of the word, so that digit of the
  /// receiving switch's word names the port the hop leaves by.
  [[nodiscard]] std::uint32_t digit(std::uint32_t value, int pos) const;

 private:
  /// The switch of `r` at `level` on the side of endpoint `node`.
  [[nodiscard]] SwitchCoord on_route(const Route& r, int level,
                                     int node) const;

  int k_;
  int n_;
  int capacity_;
  int switches_per_level_;
  std::vector<std::uint32_t> pow_k_;  // pow_k_[i] = k^i
};

}  // namespace icsim::net
