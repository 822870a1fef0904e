// NAS Parallel Benchmark scenario groups: the Figure 6 CG class A study
// and the ext_npb_suite communication-spectrum slice.
//
// Paper shape targets: class A is fixed-size and cache-resident, so both
// networks' efficiency drops rapidly with process count while Quadrics
// maintains a distinct, slightly growing advantage; the runs verify zeta
// against the NPB reference, proving the simulated MPI moves real data.
// The suite's expected spectrum: EP ~1.0, IS close (bandwidth-bound), MG
// in between, CG largest (latency/message-rate-bound).

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "apps/mg/mg.hpp"
#include "apps/npb/cg.hpp"
#include "apps/npb/ep.hpp"
#include "apps/npb/ft.hpp"
#include "apps/npb/is.hpp"
#include "common.hpp"
#include "scenarios.hpp"

namespace icsim::bench {

namespace {

[[nodiscard]] driver::PointResult cg_point(core::Network net, int nodes,
                                           int ppn,
                                           const apps::npb::CgConfig& cfg) {
  driver::PointResult r;
  apps::npb::CgResult res;
  run_cluster(r, cluster_for(net, nodes, ppn), [&](mpi::Mpi& mpi) {
    const auto x = apps::npb::run_cg(mpi, cfg);
    if (mpi.rank() == 0) res = x;
  });
  r.add("MOps/p", res.mops_per_process, 1);
  r.add("zeta", res.zeta, 9);
  return r;
}

}  // namespace

void register_fig6_npb_cg(driver::Registry& reg) {
  apps::npb::CgConfig cfg;
  cfg.cls = apps::npb::class_A();
  double zeta_ref = 17.130235054029;
  if (fast_mode()) {
    cfg.cls = apps::npb::class_S();
    zeta_ref = 8.5971775078648;
  }
  // Process counts are powers of two (NPB requirement); the paper ran the
  // same ladder in 1 PPN (processes = nodes) and 2 PPN modes.
  const std::vector<int> procs = {1, 2, 4, 8, 16, 32, 64};

  auto& g = reg.group(
      "fig6_npb_cg",
      line("Figure 6: NAS CG class %s, MOps/s/process and efficiency",
           cfg.cls.name));
  const std::size_t n = procs.size();
  g.finalize = [n, zeta_ref](std::vector<driver::PointResult>& pts) {
    // Curve-major: ib1 [0, n), el1 [n, 2n), then the shorter 2 PPN curves.
    double zeta_seen = 0.0;
    for (std::size_t c = 0; c < 2 && c * n < pts.size(); ++c) {
      const double base = pts[c * n].value("MOps/p");
      for (std::size_t i = 0; i < n && c * n + i < pts.size(); ++i) {
        auto& p = pts[c * n + i];
        p.add("eff%", base > 0.0 ? 100.0 * p.value("MOps/p") / base : 0.0, 1);
        if (c == 1) zeta_seen = p.value("zeta");
      }
    }
    std::vector<std::string> out;
    out.push_back(line("zeta = %.12f (NPB reference %.12f) %s", zeta_seen,
                       zeta_ref,
                       std::abs(zeta_seen - zeta_ref) < 1e-9 ? "VERIFIED"
                                                             : "MISMATCH"));
    out.push_back("paper anchors: both networks drop rapidly in efficiency; "
                  "Quadrics holds a distinct, slightly growing advantage");
    return out;
  };

  struct Curve {
    core::Network net;
    int ppn;
    const char* tag;
  };
  const Curve curves[] = {
      {core::Network::infiniband, 1, "ib1"},
      {core::Network::quadrics, 1, "el1"},
      {core::Network::infiniband, 2, "ib2"},
      {core::Network::quadrics, 2, "el2"},
  };
  for (const auto& curve : curves) {
    for (const int p : procs) {
      if (curve.ppn == 2 && p < 2) continue;  // 2 PPN: half the nodes
      reg.add("fig6_npb_cg",
              std::string(curve.tag) + "/p" + std::to_string(p),
              [curve, p, cfg]() {
                return cg_point(curve.net, p / curve.ppn, curve.ppn, cfg);
              });
    }
  }
}

void register_ext_npb_suite(driver::Registry& reg) {
  // The paper's future work asks for "a greater breadth of applications".
  // Five kernels span the communication spectrum: EP (one allreduce), MG
  // (big fine-level faces, tiny coarse-level ones), FT (alltoall
  // transposes), IS (bulk alltoallv, where IB's fat links close most of
  // the gap) and CG (many mid-size latency-bound exchanges, Quadrics' best
  // case).  The interesting output is the Elan:IB time ratio per kernel.
  const bool fast = fast_mode();
  const int nodes = 16;

  apps::npb::EpConfig ep;
  ep.cls = apps::npb::ep_class_S();
  apps::npb::IsConfig is;
  is.cls = fast ? apps::npb::is_class_S() : apps::npb::is_class_W();
  apps::npb::CgConfig cg;
  cg.cls = fast ? apps::npb::class_S() : apps::npb::class_W();
  apps::mg::MgConfig mg;
  mg.n = fast ? 32 : 64;
  mg.vcycles = 4;
  apps::npb::FtConfig ft;
  ft.cls = fast ? apps::npb::FtClass{"T", 32, 32, 32, 3}
                : apps::npb::ft_class_S();

  struct Kernel {
    const char* tag;
    std::function<double(mpi::Mpi&)> run;
  };
  const std::vector<Kernel> kernels = {
      {"ep", [ep](mpi::Mpi& m) { return apps::npb::run_ep(m, ep).seconds; }},
      {"mg", [mg](mpi::Mpi& m) { return apps::mg::run_mg(m, mg).seconds; }},
      {"ft", [ft](mpi::Mpi& m) { return apps::npb::run_ft(m, ft).seconds; }},
      {"is", [is](mpi::Mpi& m) { return apps::npb::run_is(m, is).seconds; }},
      {"cg", [cg](mpi::Mpi& m) { return apps::npb::run_cg(m, cg).seconds; }},
  };

  auto& g = reg.group(
      "ext_npb_suite",
      line("Extension: NPB slice at %d processes, 1 PPN", nodes));
  const std::size_t nk = kernels.size();
  g.finalize = [nk](std::vector<driver::PointResult>& pts) {
    // Kernel-major pairs: (ib, el) per kernel.
    for (std::size_t k = 0; 2 * k + 1 < pts.size() && k < nk; ++k) {
      const double el = pts[2 * k + 1].value("seconds");
      if (el > 0.0) {
        pts[2 * k + 1].add("IB/Elan", pts[2 * k].value("seconds") / el, 2);
      }
    }
    return std::vector<std::string>{
        "expected spectrum: EP ~1.0 (no communication), IS close "
        "(bandwidth-bound), MG in between, CG largest (latency/message-"
        "rate-bound) — the network only matters as much as the "
        "communication pattern lets it."};
  };

  for (const auto& kernel : kernels) {
    for (const auto net :
         {core::Network::infiniband, core::Network::quadrics}) {
      reg.add("ext_npb_suite",
              std::string(kernel.tag) + "/" + net_tag(net),
              [net, nodes, kernel]() {
                driver::PointResult r;
                double seconds = 0.0;
                run_cluster(r, cluster_for(net, nodes, 1),
                            [&](mpi::Mpi& mpi) {
                              const double s = kernel.run(mpi);
                              if (mpi.rank() == 0) seconds = s;
                            });
                r.add("seconds", seconds, 4);
                return r;
              });
    }
  }
}

}  // namespace icsim::bench
