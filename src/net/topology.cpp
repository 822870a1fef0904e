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

Route FatTreeTopology::route(int src, int dst) const {
  if (src == dst) throw std::invalid_argument("FatTreeTopology::route: src == dst");
  assert(src >= 0 && src < capacity_ && dst >= 0 && dst < capacity_);
  // D-mod-k: each up-hop installs the destination's digit, so the climb
  // tops out at dst's own leaf word and the descent keeps it.
  return Route{src, dst, SwitchCoord{ancestor_level(src, dst), leaf_switch_of(dst).word}};
}

SwitchCoord FatTreeTopology::on_route(const Route& r, int level, int node) const {
  // Moving between levels l and l+1 changes word digit l only, so below the
  // top the low `level` digits are the top's and the rest are the leaf's.
  const std::uint32_t p = pow_k_[static_cast<std::size_t>(level)];
  const std::uint32_t leaf = leaf_switch_of(node).word;
  return SwitchCoord{level, r.top.word % p + (leaf - leaf % p)};
}

Hop FatTreeTopology::hop(const Route& r, int i) const {
  assert(i >= 0 && i < r.hops());
  const int m = r.top.level;
  if (i == 0) {
    return Hop{Hop::Kind::node_to_switch, r.src, {}, leaf_switch_of(r.src)};
  }
  if (i <= m) {
    return Hop{Hop::Kind::switch_to_switch, -1, on_route(r, i - 1, r.src),
               on_route(r, i, r.src)};
  }
  if (i <= 2 * m) {
    const int from = 2 * m + 1 - i;
    return Hop{Hop::Kind::switch_to_switch, -1, on_route(r, from, r.dst),
               on_route(r, from - 1, r.dst)};
  }
  return Hop{Hop::Kind::switch_to_node, r.dst, leaf_switch_of(r.dst), {}};
}

std::vector<Hop> FatTreeTopology::hops(const Route& r) const {
  std::vector<Hop> out;
  out.reserve(static_cast<std::size_t>(r.hops()));
  for (int i = 0; i < r.hops(); ++i) out.push_back(hop(r, i));
  return out;
}

std::optional<Route> FatTreeTopology::route_avoiding(
    int src, int dst, const std::function<bool(const Hop&)>& down) const {
  const Route def = route(src, dst);
  const auto all_up = [&](const Route& r) {
    for (int i = 0; i < r.hops(); ++i) {
      if (down(hop(r, i))) return false;
    }
    return true;
  };
  if (all_up(def)) return def;
  // The other tops share the default's digits from the ancestor level up
  // (src's subtree) and differ in the low ones the climb chose.
  const std::uint32_t span = pow_k_[static_cast<std::size_t>(def.top.level)];
  const std::uint32_t first = def.top.word - def.top.word % span;
  for (std::uint32_t w = first; w < first + span; ++w) {
    Route alt = def;
    alt.top.word = w;
    if (w != def.top.word && all_up(alt)) return alt;
  }
  return std::nullopt;
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
