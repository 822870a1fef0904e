// Sweep3D scenario groups: the Figure 4 fixed-size 150^3 study and the
// Figure 5 multi-input InfiniBand study that cleared the 25-node anomaly.
//
// Paper shape targets: superlinear speedup from 1 to 4 processors (the
// unscaled problem starts fitting in cache); Elan-4 clearly ahead at 9 and
// 16 nodes; with 4-process normalization the efficiency curves of
// different grid sizes lie close together and decay smoothly — no jump.

#include <string>
#include <utility>
#include <vector>

#include "apps/sweep3d/sweep.hpp"
#include "common.hpp"
#include "core/report.hpp"
#include "scenarios.hpp"

namespace icsim::bench {

namespace {

[[nodiscard]] driver::PointResult sweep_point(
    core::Network net, int nodes, int ppn,
    const apps::sweep::SweepConfig& sc) {
  driver::PointResult r;
  apps::sweep::SweepResult res;
  run_cluster(r, cluster_for(net, nodes, ppn), [&](mpi::Mpi& mpi) {
    const auto x = apps::sweep::run_sweep3d(mpi, sc);
    if (mpi.rank() == 0) res = x;
  });
  r.add("solve_s", res.solve_seconds, 3);
  r.add("grind_ns", res.grind_ns, 1);
  return r;
}

}  // namespace

void register_fig4_sweep3d(driver::Registry& reg) {
  // 1 PPN only: the paper found 2 PPN similar, because the computation-
  // to-communication ratio is high.  Its 25-node InfiniBand point jumped;
  // the authors re-ran it and declared the input an anomaly, which this
  // model does not reproduce.
  apps::sweep::SweepConfig sc;
  sc.nx = sc.ny = sc.nz = 150;
  sc.iterations = 2;
  if (fast_mode()) {
    sc.nx = sc.ny = sc.nz = 50;
    sc.iterations = 1;
  }
  const std::vector<int> node_counts = {1, 4, 9, 16, 25, 32};

  auto& g = reg.group(
      "fig4_sweep3d",
      line("Figure 4: Sweep3D %d^3 fixed-size study, 1 PPN", sc.nx));
  const std::size_t n = node_counts.size();
  g.finalize = [n, node_counts](std::vector<driver::PointResult>& pts) {
    // Net-major: [0, n) InfiniBand, [n, 2n) Elan; then the 8x2 PPN check.
    for (std::size_t c = 0; c < 2 && c * n < pts.size(); ++c) {
      const double base = pts[c * n].value("solve_s");
      for (std::size_t i = 0; i < n && c * n + i < pts.size(); ++i) {
        auto& p = pts[c * n + i];
        p.add("eff%",
              100.0 * core::fixed_efficiency(base, 1, p.value("solve_s"),
                                             node_counts[i]),
              1);
      }
    }
    std::vector<std::string> out;
    if (pts.size() > 2 * n) {
      // The paper presents only 1 PPN "as the 2 PPN data is similar" — a
      // sign of a high computation-to-communication ratio.  Check that.
      const double ib2 = pts[2 * n].value("solve_s");   // 8 nodes x 2 PPN
      const double ib1b = pts[3].value("solve_s");      // 16 nodes x 1 PPN
      out.push_back(line("2 PPN check at 16 processes: 8 nodes x 2 PPN "
                         "%.3f s vs 16 nodes x 1 PPN %.3f s (+%.1f%%; "
                         "paper: 'similar')",
                         ib2, ib1b, 100.0 * (ib2 / ib1b - 1.0)));
    }
    out.push_back("paper anchors: superlinear 1->4 (cache); Elan-4 clearly "
                  "ahead at 9 and 16 nodes");
    return out;
  };

  for (const auto net :
       {core::Network::infiniband, core::Network::quadrics}) {
    for (const int nodes : node_counts) {
      reg.add("fig4_sweep3d",
              std::string(net_tag(net)) + "/" + std::to_string(nodes) + "n",
              [net, nodes, sc]() { return sweep_point(net, nodes, 1, sc); });
    }
  }
  reg.add("fig4_sweep3d", "ib/8n2ppn",
          [sc]() {
            return sweep_point(core::Network::infiniband, 8, 2, sc);
          });
}

void register_fig5_sweep3d_inputs(driver::Registry& reg) {
  // The paper ran these extra inputs on InfiniBand, after the Elan-4
  // partition was dismantled, to decide whether Figure 4's 25-node jump
  // was real; they continued the existing trend, so the 150^3 point was
  // declared an input anomaly.
  std::vector<int> grids = {100, 150, 200};
  if (fast_mode()) grids = {50, 80};
  const std::vector<int> node_counts = {4, 9, 16, 25, 32};

  auto& g = reg.group("fig5_sweep3d_inputs",
                      "Figure 5: Sweep3D on InfiniBand, several inputs, "
                      "efficiency normalized at 4 processes");
  const std::size_t n = node_counts.size();
  g.finalize = [n, node_counts](std::vector<driver::PointResult>& pts) {
    for (std::size_t c = 0; c * n < pts.size(); ++c) {
      const double base = pts[c * n].value("solve_s");
      for (std::size_t i = 0; i < n && c * n + i < pts.size(); ++i) {
        auto& p = pts[c * n + i];
        p.add("eff%",
              100.0 * core::fixed_efficiency(base, 4, p.value("solve_s"),
                                             node_counts[i]),
              1);
      }
    }
    return std::vector<std::string>{
        "paper anchor: all inputs continue the same smooth trend (the "
        "150^3 25-node jump was an input anomaly)"};
  };

  for (const int grid : grids) {
    for (const int nodes : node_counts) {
      std::string name = "g";
      name += std::to_string(grid);
      name += '/';
      name += std::to_string(nodes);
      name += 'n';
      reg.add("fig5_sweep3d_inputs", std::move(name),
              [grid, nodes]() {
                apps::sweep::SweepConfig sc;
                sc.nx = sc.ny = sc.nz = grid;
                sc.iterations = 1;
                return sweep_point(core::Network::infiniband, nodes, 1, sc);
              });
    }
  }
}

}  // namespace icsim::bench
