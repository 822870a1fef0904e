#include "net/topology.hpp"

#include <cassert>
#include <stdexcept>

namespace icsim::net {

FatTreeTopology::FatTreeTopology(int radix_down, int levels)
    : k_(radix_down), n_(levels) {
  if (k_ < 2) throw std::invalid_argument("FatTreeTopology: radix_down must be >= 2");
  if (n_ < 1) throw std::invalid_argument("FatTreeTopology: levels must be >= 1");
  pow_k_.resize(static_cast<std::size_t>(n_) + 1);
  pow_k_[0] = 1;
  for (int i = 1; i <= n_; ++i) {
    const std::uint64_t p = static_cast<std::uint64_t>(pow_k_[static_cast<std::size_t>(i - 1)]) *
                            static_cast<std::uint64_t>(k_);
    if (p > 1u << 30) throw std::invalid_argument("FatTreeTopology: too large");
    pow_k_[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(p);
  }
  capacity_ = static_cast<int>(pow_k_[static_cast<std::size_t>(n_)]);
  switches_per_level_ = static_cast<int>(pow_k_[static_cast<std::size_t>(n_ - 1)]);
}

std::uint32_t FatTreeTopology::digit(std::uint32_t value, int pos) const {
  return (value / pow_k_[static_cast<std::size_t>(pos)]) % static_cast<std::uint32_t>(k_);
}

std::uint32_t FatTreeTopology::with_digit(std::uint32_t value, int pos,
                                          std::uint32_t d) const {
  const std::uint32_t p = pow_k_[static_cast<std::size_t>(pos)];
  const std::uint32_t old = digit(value, pos);
  return value - old * p + d * p;
}

SwitchCoord FatTreeTopology::leaf_switch_of(int node) const {
  assert(node >= 0 && node < capacity_);
  // Leaf switch word = node digits x_{n-1}..x_1, i.e. node / k.
  return SwitchCoord{0, static_cast<std::uint32_t>(node) / static_cast<std::uint32_t>(k_)};
}

int FatTreeTopology::ancestor_level(int a, int b) const {
  assert(a != b);
  const auto ua = static_cast<std::uint32_t>(a);
  const auto ub = static_cast<std::uint32_t>(b);
  int lvl = 0;
  for (int pos = 1; pos < n_; ++pos) {
    if (digit(ua, pos) != digit(ub, pos)) lvl = pos;
  }
  return lvl;
}

std::vector<Hop> FatTreeTopology::route(int src, int dst) const {
  if (src == dst) throw std::invalid_argument("FatTreeTopology::route: src == dst");
  assert(src >= 0 && src < capacity_ && dst >= 0 && dst < capacity_);

  std::vector<Hop> hops;
  const int m = ancestor_level(src, dst);
  hops.reserve(static_cast<std::size_t>(2 * m + 2));

  SwitchCoord cur = leaf_switch_of(src);
  hops.push_back(Hop{Hop::Kind::node_to_switch, src, {}, cur});

  const auto udst = static_cast<std::uint32_t>(dst);
  // Climb: moving from level l to l+1 may change word digit l; D-mod-k picks
  // the destination's digit so the descent below is already aligned.
  // Word digit j corresponds to node digit j+1, so at level l we install the
  // destination's node digit l+1 into word position l.
  for (int l = 0; l < m; ++l) {
    SwitchCoord up{l + 1, with_digit(cur.word, l, digit(udst, l + 1))};
    hops.push_back(Hop{Hop::Kind::switch_to_switch, -1, cur, up});
    cur = up;
  }
  // Descend: from level l to l-1 the word digit l-1 must become the
  // destination's node digit l; the climb already installed digits below m.
  for (int l = m; l > 0; --l) {
    SwitchCoord down{l - 1, with_digit(cur.word, l - 1, digit(udst, l))};
    hops.push_back(Hop{Hop::Kind::switch_to_switch, -1, cur, down});
    cur = down;
  }
  assert(cur == leaf_switch_of(dst));
  hops.push_back(Hop{Hop::Kind::switch_to_node, dst, cur, {}});
  return hops;
}

int FatTreeTopology::switch_hops(int src, int dst) const {
  return 2 * ancestor_level(src, dst);
}

std::vector<Hop> FatTreeTopology::route_avoiding(
    int src, int dst, const std::function<bool(const Hop&)>& down) const {
  if (src == dst) {
    throw std::invalid_argument("FatTreeTopology::route_avoiding: src == dst");
  }
  assert(src >= 0 && src < capacity_ && dst >= 0 && dst < capacity_);
  const int m = ancestor_level(src, dst);
  const auto udst = static_cast<std::uint32_t>(dst);

  // Build the route that climbs with word digits climb[0..m) and descends
  // along the (forced) destination digits.  The descent overwrites word
  // digits m-1..0 with the destination's node digits m..1 regardless of the
  // climb, so every climb choice lands on the destination's leaf switch.
  const auto build = [&](const std::vector<std::uint32_t>& climb) {
    std::vector<Hop> hops;
    hops.reserve(static_cast<std::size_t>(2 * m + 2));
    SwitchCoord cur = leaf_switch_of(src);
    hops.push_back(Hop{Hop::Kind::node_to_switch, src, {}, cur});
    for (int l = 0; l < m; ++l) {
      SwitchCoord up{l + 1, with_digit(cur.word, l, climb[static_cast<std::size_t>(l)])};
      hops.push_back(Hop{Hop::Kind::switch_to_switch, -1, cur, up});
      cur = up;
    }
    for (int l = m; l > 0; --l) {
      SwitchCoord desc{l - 1, with_digit(cur.word, l - 1, digit(udst, l))};
      hops.push_back(Hop{Hop::Kind::switch_to_switch, -1, cur, desc});
      cur = desc;
    }
    assert(cur == leaf_switch_of(dst));
    hops.push_back(Hop{Hop::Kind::switch_to_node, dst, cur, {}});
    return hops;
  };
  const auto all_up = [&](const std::vector<Hop>& hops) {
    for (const Hop& hop : hops) {
      if (down(hop)) return false;
    }
    return true;
  };

  std::vector<std::uint32_t> def(static_cast<std::size_t>(m));
  for (int l = 0; l < m; ++l) {
    def[static_cast<std::size_t>(l)] = digit(udst, l + 1);
  }
  if (auto hops = build(def); all_up(hops)) return hops;
  if (m == 0) return {};  // intra-leaf route is unique

  std::vector<std::uint32_t> climb(static_cast<std::size_t>(m), 0);
  while (true) {
    if (climb != def) {
      if (auto hops = build(climb); all_up(hops)) return hops;
    }
    int i = 0;
    for (; i < m; ++i) {
      if (++climb[static_cast<std::size_t>(i)] <
          static_cast<std::uint32_t>(k_)) {
        break;
      }
      climb[static_cast<std::size_t>(i)] = 0;
    }
    if (i == m) break;  // wrapped: all k^m climbs tried
  }
  return {};
}

bool FatTreeTopology::adjacent(SwitchCoord a, SwitchCoord b) const {
  if (a.level > b.level) std::swap(a, b);
  if (b.level != a.level + 1 || a.level < 0 || b.level >= n_) return false;
  const auto per_level = static_cast<std::uint32_t>(switches_per_level_);
  if (a.word >= per_level || b.word >= per_level) return false;
  for (int pos = 0; pos + 1 < n_; ++pos) {
    if (pos != a.level && digit(a.word, pos) != digit(b.word, pos)) return false;
  }
  return true;
}

bool LinkRef::covers(const Hop& hop) const {
  switch (hop.kind) {
    case Hop::Kind::node_to_switch:
    case Hop::Kind::switch_to_node:
      return kind == Kind::node && hop.node == node;
    case Hop::Kind::switch_to_switch:
      return kind == Kind::switch_pair &&
             ((hop.from == a && hop.to == b) || (hop.from == b && hop.to == a));
  }
  return false;
}

bool LinkRef::same_cable(const LinkRef& other) const {
  if (kind != other.kind) return false;
  if (kind == Kind::node) return node == other.node;
  return (a == other.a && b == other.b) || (a == other.b && b == other.a);
}

std::string LinkRef::to_string() const {
  std::string out;
  out.reserve(24);
  if (kind == Kind::node) {
    out += 'n';
    out += std::to_string(node);
    return out;
  }
  out += 's';
  out += std::to_string(a.level);
  out += '.';
  out += std::to_string(a.word);
  out += '-';
  out += std::to_string(b.level);
  out += '.';
  out += std::to_string(b.word);
  return out;
}

}  // namespace icsim::net
