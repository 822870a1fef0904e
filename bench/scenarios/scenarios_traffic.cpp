// Open-loop traffic scenario groups (no paper figure — the 2004 study's
// workloads are closed-loop; this asks how each fabric behaves as the
// *serving* substrate the roadmap targets, where load is offered at a
// configured rate and the figure of merit is the sojourn-time tail).
//
// `traffic` sweeps offered load from 10% to 120% on both networks, across
// six traffic shapes: Poisson-uniform, bursty MMPP-uniform, hotspot,
// incast, all-to-all shuffle, and RPC fan-out/fan-in.  `load = 1.0` is
// one client/server pair's *measured* closed-loop serving capacity at the
// configured request size (traffic::calibrated_capacity_Bps) — not the
// raw link rate, which serving-sized messages cannot reach.  Below
// saturation the tails stay flat; the knee sits near half of one pair's
// capacity (every rank both serves and injects), and past it delivery
// collapses while tails diverge — incast soonest, because N clients share
// one receiver's capacity.
//
// `traffic_degraded` pins the PR-2 saturating flow sets across leaf 0's
// up-cables at rate-paced 90% load in 64 kB streaming requests (wires,
// not hosts, are the bottleneck, and the clean tail stays flat) and
// overlays a cable-cut window (expressed in the ICSIM_FAULTS grammar,
// exercising the parser) over the middle of the run.  The 4-ary Elan tree
// must reroute the displaced flow onto a busy cable, so its p99 degrades
// measurably; the 12-port IB Clos has idle parallel cables and absorbs
// the cut.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "fault/plan.hpp"
#include "scenarios.hpp"
#include "traffic/workload.hpp"

namespace icsim::bench {

namespace {

struct TrafficShape {
  const char* tag;
  traffic::ArrivalKind arrival;
  traffic::PatternConfig pattern;
};

std::vector<TrafficShape> traffic_shapes() {
  using traffic::ArrivalKind;
  using traffic::PatternKind;
  std::vector<TrafficShape> shapes;
  shapes.push_back({"uniform", ArrivalKind::poisson, {}});
  {
    TrafficShape s{"burst", ArrivalKind::mmpp, {}};
    shapes.push_back(s);
  }
  {
    TrafficShape s{"hotspot", ArrivalKind::poisson, {}};
    s.pattern.kind = PatternKind::hotspot;
    shapes.push_back(s);
  }
  {
    TrafficShape s{"incast", ArrivalKind::poisson, {}};
    s.pattern.kind = PatternKind::incast;
    shapes.push_back(s);
  }
  {
    TrafficShape s{"shuffle", ArrivalKind::poisson, {}};
    s.pattern.kind = PatternKind::shuffle;
    shapes.push_back(s);
  }
  {
    TrafficShape s{"rpc", ArrivalKind::poisson, {}};
    s.pattern.kind = PatternKind::rpc;
    shapes.push_back(s);
  }
  return shapes;
}

constexpr double kLoads[] = {0.1, 0.3, 0.5, 0.7, 0.9, 1.2};
constexpr core::Network kTrafficNets[] = {core::Network::infiniband,
                                          core::Network::quadrics};

int traffic_nodes() { return fast_mode() ? 8 : 16; }
int traffic_requests() { return fast_mode() ? 64 : 256; }

traffic::TrafficConfig shape_config(const TrafficShape& shape, double load) {
  traffic::TrafficConfig cfg;
  cfg.arrival.kind = shape.arrival;
  cfg.pattern = shape.pattern;
  cfg.load = load;
  cfg.requests_per_client = traffic_requests();
  cfg.client_backlog_cap = 64;  // saturation surfaces as counted drops
  if (cfg.pattern.kind == traffic::PatternKind::rpc) {
    cfg.service = sim::Time::us(2.0);
  }
  return cfg;
}

/// Run one open-loop point: fresh cluster, fresh workload, stats to metrics.
driver::PointResult run_traffic_point(core::Network net, int nodes,
                                      const traffic::TrafficConfig& cfg,
                                      const fault::FaultPlan& faults = {}) {
  driver::PointResult r;
  traffic::Workload w(cfg, net, nodes);
  core::ClusterConfig cc = cluster_for(net, nodes);
  cc.faults = faults;
  run_cluster(r, cc, [&w](mpi::Mpi& m) { w.rank_main(m); });
  const traffic::RunStats s = w.stats();
  r.add("offered MB/s", s.offered_mbs, 1);
  r.add("delivered MB/s", s.delivered_mbs, 1);
  r.add("delivery", s.delivery_ratio(), 3);
  r.add("p50 us", s.p50_us, 1);
  r.add("p99 us", s.p99_us, 1);
  r.add("p999 us", s.p999_us, 1);
  r.add("mean us", s.mean_us, 1);
  r.add("max us", s.max_us, 1);
  r.add("late", static_cast<double>(s.stragglers), 0);
  r.add("drops", static_cast<double>(s.dropped), 0);
  return r;
}

// ---- degraded-fabric study: the PR-2 saturating flow sets (every up-cable
// of leaf switch 0 carries one flow), re-expressed as a `pairs` pattern.

struct FlowSet {
  int nodes = 0;
  std::vector<std::pair<int, int>> flows;
};

FlowSet degraded_flows(core::Network net) {
  if (net == core::Network::quadrics) {
    // 4-ary tree, leaves of 4: all four up-cables of leaf 0 busy.
    return {20, {{0, 16}, {1, 5}, {2, 10}, {3, 15}}};
  }
  // 12-port Clos, leaves of 12: 3 of 12 up-cables busy — idle spares exist.
  return {48, {{0, 13}, {1, 25}, {2, 37}}};
}

/// The up-cable the second flow's default route climbs through.  Topology
/// inspection on a throwaway cluster; its stats are not folded anywhere.
fault::LinkRef victim_cable(core::Network net, const FlowSet& fs) {
  core::Cluster cluster(cluster_for(net, fs.nodes));
  const auto& topo = cluster.fabric().topology();
  const auto& [src, dst] = fs.flows[1];
  for (const auto& h : topo.hops(topo.route(src, dst))) {
    if (h.kind == net::Hop::Kind::switch_to_switch &&
        h.to.level > h.from.level) {
      return fault::LinkRef::between(h.from, h.to);
    }
  }
  throw std::logic_error("flow route never climbs");
}

traffic::TrafficConfig degraded_config(const FlowSet& fs) {
  traffic::TrafficConfig cfg;
  // Rate-paced arrivals isolate the fabric effect: the clean tail is flat,
  // so the queueing a cut induces surfaces directly in p99 instead of
  // drowning under Poisson burst excursions.
  cfg.arrival.kind = traffic::ArrivalKind::fixed;
  cfg.pattern.kind = traffic::PatternKind::pairs;
  cfg.pattern.flows = fs.flows;
  cfg.load = 0.9;
  // Streaming-sized requests: the wires, not the hosts, must be the
  // bottleneck for a missing cable to matter (PR-2's saturating flows are
  // 64KB for the same reason).
  cfg.request_bytes = 65536;
  cfg.requests_per_client = fast_mode() ? 48 : 128;
  return cfg;
}

/// The cut window in the ICSIM_FAULTS grammar — the degraded point goes
/// through the same string form a user would export, so the sweep also
/// exercises FaultPlan::parse.
std::string cut_spec(core::Network net, const FlowSet& fs,
                     sim::Time horizon) {
  const fault::LinkRef cable = victim_cable(net, fs);
  return line("link %s down@%.3fus:%.3fus", cable.to_string().c_str(),
              0.3 * horizon.to_us(), 0.6 * horizon.to_us());
}

}  // namespace

void register_traffic(driver::Registry& reg) {
  const std::vector<TrafficShape> shapes = traffic_shapes();
  const std::size_t nshapes = shapes.size();
  const std::size_t nloads = std::size(kLoads);

  auto& group = reg.group(
      "traffic", line("Extension: open-loop traffic, %d nodes, %d req/client "
                      "(sojourn from scheduled arrival)",
                      traffic_nodes(), traffic_requests()));
  group.finalize = [nshapes, nloads](std::vector<driver::PointResult>& pts) {
    // Net-major, shape-major, load-minor.  Anchor: at 120% offered load the
    // N->1 incast tail separates the two fabrics.
    const std::size_t per_net = nshapes * nloads;
    const std::size_t incast_hi = 3 * nloads + (nloads - 1);  // shapes[3]
    std::vector<std::string> notes;
    if (pts.size() >= 2 * per_net) {
      const double ib = pts[incast_hi].value("p99 us");
      const double el = pts[per_net + incast_hi].value("p99 us");
      if (ib > 0.0) {
        notes.push_back(line(
            "anchor: incast@120%%: p99 %.1fus (ib) vs %.1fus (el), el/ib "
            "= %.2f — the saturated tails diverge",
            ib, el, el / ib));
      }
    }
    notes.emplace_back(
        "anchor: delivery ~1.0 and a flat tail at 10-30% load; the knee "
        "sits near half of one pair's calibrated capacity (every rank both "
        "serves and injects), and past it delivery collapses while the "
        "tail grows superlinearly");
    return notes;
  };

  for (const auto net : kTrafficNets) {
    for (std::size_t si = 0; si < nshapes; ++si) {
      for (const double load : kLoads) {
        const TrafficShape& shape = shapes[si];
        reg.add("traffic",
                line("%s/%s/%03d", net_tag(net), shape.tag,
                     static_cast<int>(load * 100.0 + 0.5)),
                [net, shape, load]() {
                  return run_traffic_point(net, traffic_nodes(),
                                           shape_config(shape, load));
                });
      }
    }
  }

  auto& dgroup = reg.group(
      "traffic_degraded",
      "Extension: 90% open-loop load across leaf 0's cut, cable down "
      "30%..60% of the run (ICSIM_FAULTS grammar)");
  dgroup.finalize = [](std::vector<driver::PointResult>& pts) {
    // Per net: clean, cut.  The ratio quantifies how much of the cut each
    // topology's spare capacity hides.
    std::vector<std::string> notes;
    for (std::size_t c = 0; c + 1 < pts.size(); c += 2) {
      const double clean = pts[c].value("p99 us");
      const double cut = pts[c + 1].value("p99 us");
      if (clean > 0.0) pts[c + 1].add("p99 vs clean", cut / clean, 2);
    }
    notes.emplace_back(
        "anchor: the cut window degrades Elan's p99 (displaced flow shares "
        "a busy 4-ary cable) while the IB Clos absorbs it on idle spares");
    return notes;
  };
  for (const auto net : kTrafficNets) {
    reg.add("traffic_degraded", std::string(net_tag(net)) + "/clean",
            [net]() {
              const FlowSet fs = degraded_flows(net);
              return run_traffic_point(net, fs.nodes, degraded_config(fs));
            });
    reg.add("traffic_degraded", std::string(net_tag(net)) + "/cut",
            [net]() {
              const FlowSet fs = degraded_flows(net);
              const traffic::TrafficConfig cfg = degraded_config(fs);
              const sim::Time horizon =
                  traffic::build_plan(cfg, net, fs.nodes).horizon;
              const fault::FaultPlan plan =
                  fault::FaultPlan::parse(cut_spec(net, fs, horizon));
              return run_traffic_point(net, fs.nodes, cfg, plan);
            });
  }
}

}  // namespace icsim::bench
