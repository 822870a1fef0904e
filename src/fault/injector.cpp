#include "fault/injector.hpp"

#include <cmath>
#include <stdexcept>

#include "trace/trace.hpp"

namespace icsim::fault {

FaultInjector::FaultInjector(sim::Engine& engine, FaultPlan plan,
                             std::uint64_t fallback_seed)
    : engine_(engine),
      plan_(std::move(plan)),
      rng_(plan_.seed != 0 ? plan_.seed : fallback_seed) {}

double FaultInjector::link_ber(const net::Hop& hop) const {
  for (const LinkBerOverride& o : plan_.link_ber) {
    if (o.link.covers(hop)) return o.ber;
  }
  return plan_.ber;
}

bool FaultInjector::draw_corruption(double ber, std::uint64_t wire_bytes) {
  ++draws_;
  // P(any of b bits flips) = 1 - (1-ber)^b, computed without cancellation.
  const double bits = static_cast<double>(wire_bytes) * 8.0;
  const double p = -std::expm1(bits * std::log1p(-ber));
  return rng_.uniform_real() < p;
}

void FaultInjector::install(net::Fabric& fabric) {
  for (const LinkBerOverride& o : plan_.link_ber) fabric.check_link(o.link);
  fabric.set_link_windows(plan_.link_windows);

  if (plan_.ber > 0.0 || !plan_.link_ber.empty()) {
    fabric.set_fault_hooks(this);
  }

  // The fabric reads link state from the windows themselves; these events
  // only count and trace the transitions.
  for (const LinkDownWindow& w : plan_.link_windows) {
    engine_.post_at(w.down, [this] {
      ++downs_;
      trace_transition("link_down");
    });
    if (w.up > w.down) {
      engine_.post_at(w.up, [this] {
        ++ups_;
        trace_transition("link_up");
      });
    }
  }
}

void FaultInjector::trace_transition(const char* what) {
  ICSIM_TRACE_WITH(engine_, tr) {
    if (trace_id_ == 0) {
      trace_id_ = tr.register_component(trace::Category::fault, "injector");
    }
    tr.instant(trace::Category::fault, trace_id_, what, engine_.now());
  }
}

void FaultInjector::install_node_stalls(
    const std::vector<node::Node*>& nodes) {
  for (const NodeStallWindow& w : plan_.stalls) {
    if (w.node < 0 || static_cast<std::size_t>(w.node) >= nodes.size()) {
      throw std::invalid_argument("FaultPlan: stall names node " +
                                  std::to_string(w.node) +
                                  " outside the cluster");
    }
    node::Node* node = nodes[static_cast<std::size_t>(w.node)];
    engine_.post_at(w.start, [this, node, d = w.duration] {
      node->stall(d);
      ++stalls_;
      ICSIM_TRACE_WITH(engine_, tr) {
        if (trace_id_ == 0) {
          trace_id_ = tr.register_component(trace::Category::fault, "injector");
        }
        tr.span(trace::Category::fault, trace_id_, "node_stall",
                engine_.now(),
                engine_.now() + d);
      }
    });
  }
}

void FaultInjector::publish_metrics(trace::MetricsRegistry& m) const {
  m.counter("fault.link_down_events") = downs_;
  m.counter("fault.link_up_events") = ups_;
  m.counter("fault.node_stalls") = stalls_;
  m.counter("fault.corruption_draws") = draws_;
}

}  // namespace icsim::fault
