// Extension scenario groups: the three-way Liu et al. comparison, the
// LogGP characterization, and the collective-latency companion table.
//
// Expected shapes: Elan-4 fastest at small messages, 4X InfiniBand's fat
// links win raw bandwidth over Myrinet (~3.5x), Myrinet capped near
// 240 MB/s by its 2 Gb/s links; Elan-4 lowest on every LogGP axis except
// G; each collective column pair keeps roughly the Figure 1(a) latency
// ratio, growing with log(nodes).

#include <string>
#include <vector>

#include "apps/npb/cg.hpp"
#include "common.hpp"
#include "core/loggp.hpp"
#include "microbench/pingpong.hpp"
#include "scenarios.hpp"

namespace icsim::bench {

namespace {

constexpr core::Network kThreeNets[] = {core::Network::infiniband,
                                        core::Network::quadrics,
                                        core::Network::myrinet};

}  // namespace

void register_ext_threeway(driver::Registry& reg) {
  // The predecessor study (Liu et al. [11]: InfiniBand vs Myrinet vs
  // Quadrics), regenerated with this paper's Elan-4 in place of Elan-3,
  // plus its application-level check, NAS CG at 16 processes.  Myrinet's
  // 16 kB copy blocks keep its curve smooth.
  const std::vector<std::size_t> sizes = {0,     64,    1024,
                                          8192,  65536, 1u << 20};
  const int reps = 40, warmup = 4;

  auto& g = reg.group("ext_threeway",
                      "Extension: three-way micro-benchmark comparison "
                      "(cf. Liu et al. [11]) + NAS CG class W, 16 procs");
  g.finalize = [](std::vector<driver::PointResult>&) {
    return std::vector<std::string>{
        "paper-era anchors: Elan-4 lowest latency; IB highest bandwidth; "
        "Myrinet capped ~240 MB/s by its 2 Gb/s links"};
  };

  for (const auto net : kThreeNets) {
    for (const std::size_t bytes : sizes) {
      reg.add("ext_threeway",
              std::string(net_tag(net)) + "/" + std::to_string(bytes),
              [net, bytes, reps, warmup]() {
                driver::PointResult r;
                microbench::PingPongOptions opt;
                opt.sizes = {bytes};
                opt.repetitions = reps;
                opt.warmup = warmup;
                core::Cluster::RunStats st;
                opt.stats = &st;
                const auto pts =
                    microbench::run_pingpong(cluster_for(net, 2), opt);
                fold_run(r, st);
                r.add("bytes", static_cast<double>(bytes), 0);
                r.add("us", pts.at(0).latency_us, 2);
                r.add("MB/s", pts.at(0).bandwidth_mbs, 0);
                return r;
              });
    }
  }
  // The predecessor study's application-level check.
  for (const auto net : kThreeNets) {
    reg.add("ext_threeway", std::string("cg/") + net_tag(net), [net]() {
      driver::PointResult r;
      apps::npb::CgConfig cfg;
      cfg.cls = apps::npb::class_W();
      apps::npb::CgResult res;
      run_cluster(r, cluster_for(net, 16, 1), [&](mpi::Mpi& mpi) {
        const auto x = apps::npb::run_cg(mpi, cfg);
        if (mpi.rank() == 0) res = x;
      });
      r.add("MOps/p", res.mops_per_process, 1);
      r.add("zeta", res.zeta, 9);
      return r;
    });
  }
}

void register_ext_loggp(driver::Registry& reg) {
  // LogGP is the era's vocabulary for "why does this network help
  // applications" (cf. the paper's reference [15], Martin et al.).
  // InfiniBand's g is its weak spot: the offloaded NIC sustains several
  // times the message rate.  Myrinet's G is ~4x the others (2 Gb/s links).
  auto& g = reg.group("ext_loggp",
                      "Extension: LogGP characterization (2 nodes, 1 PPN)");
  g.finalize = [](std::vector<driver::PointResult>&) {
    return std::vector<std::string>{
        "Reading: o and g are where host-based MPI stacks lose; L reflects "
        "NIC processing + fabric hops; G is the PCI-X / link ceiling."};
  };
  for (const auto net : kThreeNets) {
    reg.add("ext_loggp", net_tag(net), [net]() {
      driver::PointResult r;
      core::Cluster::RunStats st;
      const auto p = core::measure_loggp(cluster_for(net, 2), &st);
      fold_run(r, st);
      r.add("L us", p.L_us, 2);
      r.add("o_send us", p.o_send_us, 2);
      r.add("o_recv us", p.o_recv_us, 2);
      r.add("g us", p.g_us, 2);
      r.add("G ns/B", p.G_ns_per_byte, 2);
      r.add("rtt/2 us", p.half_rtt_us, 2);
      return r;
    });
  }
}

void register_ext_collectives(driver::Registry& reg) {
  // The standard companion table to Figure 1 in interconnect comparisons
  // of the era.  Every collective is the MPICH-style point-to-point
  // algorithm both real MPIs used, so the network's latency and message-
  // rate advantages compound logarithmically (linearly for alltoall).
  auto& g = reg.group("ext_collectives",
                      "Extension: collective latency (us), 1 PPN (barrier | "
                      "allreduce 8B | bcast 1KB | alltoall 128B/peer)");
  g.finalize = [](std::vector<driver::PointResult>&) {
    return std::vector<std::string>{
        "paper-shape expectation: every column pair keeps roughly the "
        "Figure 1(a) latency ratio, growing with log(nodes)"};
  };

  for (const auto net :
       {core::Network::infiniband, core::Network::quadrics}) {
    for (const int nodes : {2, 4, 8, 16, 32}) {
      reg.add("ext_collectives",
              std::string(net_tag(net)) + "/" + std::to_string(nodes) + "n",
              [net, nodes]() {
                driver::PointResult r;
                double tb = 0.0, tr = 0.0, tc = 0.0, ta = 0.0;
                run_cluster(r, cluster_for(net, nodes, 1),
                            [&](mpi::Mpi& mpi) {
                  constexpr int kReps = 30;
                  const int n = mpi.size();
                  std::vector<double> vec(128);
                  std::vector<double> a2a_in(static_cast<std::size_t>(n) * 16);
                  std::vector<double> a2a_out(static_cast<std::size_t>(n) * 16);

                  auto timed = [&](auto&& op) {
                    mpi.barrier();
                    const double t0 = mpi.wtime();
                    for (int i = 0; i < kReps; ++i) op();
                    // A root can run ahead of the receivers (its sends
                    // complete locally); the honest cost is the slowest
                    // participant's.
                    const double mine = (mpi.wtime() - t0) / kReps * 1e6;
                    return mpi.allreduce(mine, mpi::ReduceOp::max);
                  };

                  const double b = timed([&] { mpi.barrier(); });
                  const double rr = timed(
                      [&] { (void)mpi.allreduce(1.0, mpi::ReduceOp::sum); });
                  const double c =
                      timed([&] { mpi.bcast(vec.data(), vec.size(), 0); });
                  const double a = timed([&] {
                    mpi.alltoall(a2a_in.data(), 16, a2a_out.data());
                  });
                  if (mpi.rank() == 0) {
                    tb = b;
                    tr = rr;
                    tc = c;
                    ta = a;
                  }
                });
                r.add("barrier", tb, 1);
                r.add("allreduce", tr, 1);
                r.add("bcast", tc, 1);
                r.add("alltoall", ta, 1);
                return r;
              });
    }
  }
}

}  // namespace icsim::bench
