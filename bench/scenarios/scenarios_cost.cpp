// Figure 7 / Tables 2-3 scenario group: network cost per port vs system
// size for the four build-outs the paper compares.
//
// Paper shape targets: Quadrics Elan-4 is the most expensive line; IB from
// 96-port switches is cost-comparable (~6.5% network-per-node delta at
// large scale); the newer 24-port + 288-port builds drop the cost
// dramatically.  With a $2,500 node, total-system deltas are ~4% (vs the
// 96-port build) and ~51% (vs the 24/288 build).
//
// These points evaluate a closed-form price model — no simulation, so
// events and digest stay zero (constant, hence still deterministic).

#include <string>
#include <vector>

#include "common.hpp"
#include "cost/cost_model.hpp"
#include "scenarios.hpp"

namespace icsim::bench {

void register_fig7_cost(driver::Registry& reg) {
  // The paper calls the ~6.5% network-per-node delta "comparable to the
  // difference in application performance" — the cost side of its verdict.
  auto& g = reg.group("fig7_cost",
                      "Figure 7: network cost per port (USD) vs nodes");
  g.finalize = [](std::vector<driver::PointResult>&) {
    const cost::IbPrices ib;
    const cost::QuadricsPrices qs;
    std::vector<std::string> out;
    out.push_back("Table 2 (InfiniBand list prices, April 2004; [i] = "
                  "inferred, see pricing.hpp):");
    out.push_back(line("  HCS 400 4X HCA $%.0f | 4X copper cable $%.0f | "
                       "96-port [i] $%.0f | 24-port [i] $%.0f | "
                       "288-port [i] $%.0f",
                       ib.hca, ib.host_cable, ib.sw96_port, ib.sw24_port,
                       ib.sw288_port));
    out.push_back("Table 3 (Quadrics Elan-4 list prices):");
    out.push_back(line("  QM-500 adapter [i] $%.0f | node chassis $%.0f | "
                       "top switch $%.0f | QM580 clock $%.0f | "
                       "5m cable $%.0f | 3m cable $%.0f",
                       qs.adapter, qs.node_chassis, qs.top_switch,
                       qs.clock_source, qs.cable_5m, qs.cable_3m));
    const int n = 1024;
    const double q = cost::total_system_per_node(cost::quadrics_network(n), n);
    const double i96 = cost::total_system_per_node(cost::ib96_network(n), n);
    const double i24 =
        cost::total_system_per_node(cost::ib_24_288_network(n, false), n);
    out.push_back(line("Section 5 anchors at %d nodes ($2500/node): "
                       "network/node Elan $%.0f vs IB-96 $%.0f -> %.1f%% "
                       "delta (paper ~6.5%%)",
                       n, cost::quadrics_network(n).per_node(n),
                       cost::ib96_network(n).per_node(n),
                       100.0 * (cost::quadrics_network(n).per_node(n) /
                                    cost::ib96_network(n).per_node(n) -
                                1.0)));
    out.push_back(line("  total system: Elan/IB-96 = %.2f (paper ~1.04), "
                       "Elan/IB-24+288 = %.2f (paper ~1.51)",
                       q / i96, q / i24));
    return out;
  };

  for (const int n :
       {8, 16, 32, 64, 96, 128, 256, 288, 512, 1024, 2048, 4096}) {
    reg.add("fig7_cost", std::to_string(n) + "n", [n]() {
      driver::PointResult r;
      r.add("nodes", n, 0);
      r.add("Elan-4", cost::quadrics_network(n).per_node(n), 0);
      r.add("IB 96p", cost::ib96_network(n).per_node(n), 0);
      r.add("IB 24/288", cost::ib_24_288_network(n, false).per_node(n), 0);
      r.add("IB 24/288 fb", cost::ib_24_288_network(n, true).per_node(n), 0);
      return r;
    });
  }
}

}  // namespace icsim::bench
