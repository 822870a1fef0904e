#include "net/fabric.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/check.hpp"
#include "trace/trace.hpp"

namespace icsim::net {

Fabric::Fabric(sim::Engine& engine, const FabricConfig& config, int num_nodes)
    : Fabric(FabricPartitions{Partitioning{}, {&engine}, nullptr}, config,
             num_nodes) {}

Fabric::Fabric(FabricPartitions parts, const FabricConfig& config,
               int num_nodes)
    : part_(std::move(parts)),
      shards_(part_.engines.size()),
      cfg_(config),
      topo_(config.radix_down, config.levels),
      num_nodes_(num_nodes) {
  if (num_nodes > topo_.capacity()) {
    throw std::invalid_argument("Fabric: more nodes than the tree can attach");
  }
  if (part_.map.parts != static_cast<int>(part_.engines.size())) {
    throw std::invalid_argument(
        "Fabric: partitioning does not match the engine count");
  }
}

sim::Time Fabric::serialization_time(std::uint32_t bytes) const {
  return cfg_.link_bandwidth.transfer_time(wire_bytes(bytes));
}

std::uint64_t Fabric::wire_bytes(std::uint32_t bytes) const {
  const std::uint64_t packets =
      bytes == 0 ? 1 : (bytes + cfg_.mtu_bytes - 1) / cfg_.mtu_bytes;
  return static_cast<std::uint64_t>(bytes) + packets * cfg_.header_bytes;
}

std::uint64_t Fabric::key_of(const Hop& hop) const {
  switch (hop.kind) {
    case Hop::Kind::node_to_switch:
      return (1ull << 63) | static_cast<std::uint64_t>(hop.node);
    case Hop::Kind::switch_to_node:
      return (1ull << 63) | (1ull << 62) | static_cast<std::uint64_t>(hop.node);
    case Hop::Kind::switch_to_switch:
      return (topo_.switch_id(hop.from) << 31) | topo_.switch_id(hop.to);
  }
  return 0;  // unreachable
}

std::string Fabric::link_name(const Hop& hop) const {
  switch (hop.kind) {
    case Hop::Kind::node_to_switch:
      return "node" + std::to_string(hop.node) + "->sw";
    case Hop::Kind::switch_to_node:
      return "sw->node" + std::to_string(hop.node);
    case Hop::Kind::switch_to_switch:
      return "sw" + std::to_string(topo_.switch_id(hop.from)) + "->sw" +
             std::to_string(topo_.switch_id(hop.to));
  }
  return "link";
}

Fabric::DirectedLink& Fabric::link_for(int p, const Hop& hop) {
  auto& links = shards_[static_cast<std::size_t>(p)].links;
  const std::uint64_t key = key_of(hop);
  auto it = links.find(key);
  if (it == links.end()) {
    it = links.try_emplace(key, engine(p), link_name(hop), hop).first;
    if (hooks_ != nullptr) it->second.ber = hooks_->link_ber(hop);
  }
  return it->second;
}

void Fabric::set_fault_hooks(FaultHooks* hooks) {
  if (hooks != nullptr && shards_.size() > 1) {
    throw std::invalid_argument(
        "Fabric: fault hooks share one RNG stream; a partitioned fabric "
        "cannot draw corruption");
  }
  hooks_ = hooks;
  for (auto& [key, link] : shards_.front().links) {
    (void)key;
    link.ber = hooks_ != nullptr ? hooks_->link_ber(link.hop) : 0.0;
  }
}

void Fabric::check_link(const LinkRef& link) const {
  if (link.kind == LinkRef::Kind::node) {
    if (link.node < 0 || link.node >= num_nodes_) {
      throw std::invalid_argument("Fabric: link " + link.to_string() +
                                  " names a node outside the fabric");
    }
  } else if (!topo_.adjacent(link.a, link.b)) {
    throw std::invalid_argument("Fabric: link " + link.to_string() +
                                " is not a cable of this fat tree");
  }
}

void Fabric::set_link_windows(std::vector<LinkDownWindow> windows) {
  for (const LinkDownWindow& w : windows) check_link(w.link);
  windows_ = std::move(windows);
}

bool Fabric::link_down_at(const Hop& hop, sim::Time t) const {
  for (const LinkDownWindow& w : windows_) {
    if (w.active_at(t) && w.link.covers(hop)) return true;
  }
  return false;
}

std::uint64_t Fabric::sum(std::uint64_t Shard::*field) const {
  std::uint64_t v = 0;
  for (const Shard& sh : shards_) v += sh.*field;
  return v;
}

void Fabric::finish(int p, DeliveryFn& on_complete, DeliveryStatus status,
                    std::uint32_t bytes) {
  Shard& sh = shards_[static_cast<std::size_t>(p)];
  // Partitioned, a chunk may retire in another partition than it entered,
  // so only the drained sum is checkable (audit_drained).
  ICSIM_CHECK(shards_.size() > 1 || sh.in_flight > 0,
              "fabric chunk completed more than once");
  --sh.in_flight;
  switch (status) {
    case DeliveryStatus::delivered:
      ++sh.delivered;
      sh.bytes_delivered += bytes;
      break;
    case DeliveryStatus::corrupted:
      ++sh.corrupted;
      sh.bytes_dropped += bytes;
      break;
    case DeliveryStatus::link_down:
      ++sh.down_drops;
      sh.bytes_dropped += bytes;
      break;
  }
  if (on_complete) on_complete(status);
}

void Fabric::audit_drained() const {
  ICSIM_CHECK(chunks_in_flight() == 0,
              "fabric drained with chunks still in flight");
  ICSIM_CHECK(chunks_sent() == chunks_delivered() + chunks_corrupted() +
                                   chunks_dropped_link_down(),
              "fabric chunk conservation: injected != delivered + dropped");
  ICSIM_CHECK(sum(&Shard::bytes_injected) ==
                  sum(&Shard::bytes_delivered) + sum(&Shard::bytes_dropped),
              "fabric byte conservation: injected != delivered + dropped");
}

void Fabric::forward(Route route, int index, std::uint32_t bytes,
                     DeliveryFn on_complete, sim::Time* first_tx_done) {
  const Hop hop = topo_.hop(route, index);
  const int p = owner(hop);
  sim::Engine& eng = engine(p);

  // A link that failed while the chunk was already in flight swallows it.
  // (Injection-time failures are handled by rerouting in inject().)
  if (!windows_.empty() && link_down_at(hop, eng.now())) {
    if (first_tx_done != nullptr) *first_tx_done = eng.now();
    finish(p, on_complete, DeliveryStatus::link_down, bytes);
    return;
  }

  DirectedLink& link = link_for(p, hop);

  const sim::Time ser = serialization_time(bytes);
  // Entering a switch costs its pipeline latency; the endpoint hop does not.
  const sim::Time entry_latency =
      hop.kind == Hop::Kind::switch_to_node ? sim::Time::zero() : cfg_.switch_latency;

  const sim::Time tx_done = link.tx.acquire(ser);
  if (first_tx_done != nullptr) *first_tx_done = tx_done;

  // Per-hop packet span: occupancy of this link's transmitter (queueing
  // excluded — the span covers serialization, which is what utilization
  // means; a gap between spans of consecutive hops is switch/wire latency).
  ICSIM_TRACE_WITH(eng, tr) {
    if (link.trace_id == 0) {
      link.trace_id = tr.register_component(trace::Category::link,
                                            link.tx.name());
    }
    tr.span(trace::Category::link, link.trace_id, "pkt",
            tx_done - ser, tx_done);
  }

  // Link-level CRC: the packet train is corrupted in transit with the
  // link's BER.  The receiving switch/NIC detects and discards it at the
  // far end of the wire — no RNG draw ever happens on clean links.
  if (hooks_ != nullptr && link.ber > 0.0 &&
      hooks_->draw_corruption(link.ber, wire_bytes(bytes))) {
    ++link.corrupted;
    ICSIM_TRACE_WITH(eng, tr) {
      tr.instant(trace::Category::link, link.trace_id, "crc_drop",
                 tx_done);
    }
    eng.post_at(tx_done + cfg_.wire_latency,
                [this, p, bytes, on_complete = std::move(on_complete)]() mutable {
                  finish(p, on_complete, DeliveryStatus::corrupted, bytes);
                });
    return;
  }

  const sim::Time arrival = tx_done + cfg_.wire_latency + entry_latency;
  // The final hop is switch_to_node, owned by the destination's partition,
  // so delivery is always local to p.
  const bool last = index + 1 == route.hops();
  const int next =
      last || shards_.size() == 1 ? p : owner(topo_.hop(route, index + 1));
  auto cont = [this, route, index, bytes, on_complete = std::move(on_complete),
               last, p]() mutable {
    if (last) {
      finish(p, on_complete, DeliveryStatus::delivered, bytes);
    } else {
      forward(route, index + 1, bytes, std::move(on_complete), nullptr);
    }
  };
  if (next == p) {
    eng.post_at(arrival, std::move(cont));
  } else {
    // The hand-off carries wire + switch latency of simulated delay —
    // exactly lookahead_of(), so it never lands inside the running window.
    part_.post_cross(p, next, arrival, std::move(cont));
  }
}

sim::Time Fabric::inject(int src, int dst, std::uint32_t bytes,
                         DeliveryFn on_complete) {
  assert(src != dst && "Fabric::inject: local sends bypass the fabric");
  assert(src >= 0 && src < num_nodes_ && dst >= 0 && dst < num_nodes_);
  const Route def = topo_.route(src, dst);
  const int p = owner(topo_.hop(def, 0));  // src's partition
  Shard& sh = shards_[static_cast<std::size_t>(p)];
  sim::Engine& eng = engine(p);
  ++sh.chunks;
  ++sh.in_flight;
  sh.bytes_injected += bytes;
  Route route = def;
  if (!windows_.empty()) {
    const sim::Time now = eng.now();
    const std::optional<Route> up =
        topo_.route_avoiding(src, dst, [this, now](const Hop& hop) {
          return link_down_at(hop, now);
        });
    if (!up) {
      // Fabric partitioned (endpoint cable down, or every climb blocked):
      // nothing a switch can do — the chunk is lost at the source port.
      eng.post_in(sim::Time::zero(),
                  [this, p, bytes,
                   on_complete = std::move(on_complete)]() mutable {
                    ++shards_[static_cast<std::size_t>(p)].no_route_drops;
                    finish(p, on_complete, DeliveryStatus::link_down, bytes);
                  });
      return now;
    }
    if (up->top != def.top) ++sh.rerouted;
    route = *up;
  }
  sim::Time tx_done = sim::Time::zero();
  forward(route, 0, bytes, std::move(on_complete), &tx_done);
  return tx_done;
}

sim::Time Fabric::max_link_busy_time() const {
  sim::Time best = sim::Time::zero();
  for (const Shard& sh : shards_) {
    for (const auto& [key, link] : sh.links) {
      (void)key;
      if (link.tx.busy_time() > best) best = link.tx.busy_time();
    }
  }
  return best;
}

void Fabric::publish_metrics(trace::MetricsRegistry& m,
                             sim::Time elapsed) const {
  m.counter("net.chunks_sent") = chunks_sent();
  m.counter("net.chunks_delivered") = chunks_delivered();
  m.counter("net.chunks_corrupted") = chunks_corrupted();
  m.counter("net.chunks_dropped_link_down") = chunks_dropped_link_down();
  m.counter("net.chunks_rerouted") = chunks_rerouted();
  m.counter("net.chunks_no_route") = chunks_no_route();
  m.counter("net.chunks_in_flight") = chunks_in_flight();
  std::uint64_t links = 0;
  for (const Shard& sh : shards_) links += sh.links.size();
  m.counter("net.links_used") = links;
  // Cables inside a down window now, each counted once however many of
  // its windows overlap.
  const sim::Time now = engine(0).now();
  std::uint64_t down = 0;
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    bool counted = !windows_[i].active_at(now);
    for (std::size_t j = 0; j < i && !counted; ++j) {
      counted = windows_[j].active_at(now) &&
                windows_[j].link.same_cable(windows_[i].link);
    }
    if (!counted) ++down;
  }
  m.counter("net.links_down") = down;
  auto& util = m.stat("net.link_utilization");
  auto& busy = m.stat("net.link_busy_us");
  const double span_s = elapsed.to_seconds();
  for (const Shard& sh : shards_) {
    for (const auto& [key, link] : sh.links) {
      (void)key;
      busy.add(link.tx.busy_time().to_us());
      if (span_s > 0.0) {
        util.add(link.tx.busy_time().to_seconds() / span_s);
      }
    }
  }
  if (chunks_corrupted() > 0) {
    auto& per_link = m.stat("net.link_corrupted_chunks");
    for (const Shard& sh : shards_) {
      for (const auto& [key, link] : sh.links) {
        (void)key;
        if (link.corrupted > 0) {
          per_link.add(static_cast<double>(link.corrupted));
        }
      }
    }
  }
}

}  // namespace icsim::net
