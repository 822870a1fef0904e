// Fault-injection scenario groups (no paper figure — the 2004 study ran
// on healthy fabrics; this asks how each technology's recovery machinery
// behaves when the fabric is not).
//
// ext_faults_ber sweeps a per-link bit-error rate over ping-pong +
// streaming on two nodes: both networks must complete every transfer —
// InfiniBand by RC timeout/retransmission (the requester re-reads the
// chunk over PCI-X), Elan-4 by hardware link-level retry out of the link
// buffer — with bounded slowdown at BER <= 1e-6.
//
// ext_faults_spine saturates every up-cable of one leaf switch, then fails
// one of those cables (whole-run and mid-run).  Chunks reroute over the
// surviving climbs; on the 4-ary Elan tree the displaced flow must share a
// busy cable so the cut bandwidth measurably drops, while the 12-port IB
// Clos has idle parallel cables and absorbs the failure.
//
// The mid-run point needs the clean completion time to place its failure
// window at 30%..60%; to stay self-contained it re-runs the clean flows
// itself and folds both runs into its digest.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "fault/plan.hpp"
#include "scenarios.hpp"

namespace icsim::bench {

namespace {

struct FaultRun {
  double elapsed_us = 0.0;
  double bandwidth_mbs = 0.0;  // aggregate payload bandwidth
  core::Cluster::RunStats stats;
};

constexpr std::size_t kPingPongBytes = 4096;
constexpr std::size_t kStreamBytes = 65536;

// Two-node ping-pong + streaming window under one fault plan; counters come
// from the same cluster so retries line up with the timings.
FaultRun run_two_node(core::Network net, const fault::FaultPlan& plan) {
  core::ClusterConfig cc = cluster_for(net, 2);
  cc.faults = plan;
  core::Cluster cluster(cc);

  constexpr int kReps = 200;
  constexpr int kWindow = 16;
  constexpr int kBatches = 10;
  FaultRun out;
  cluster.run([&](mpi::Mpi& mpi) {
    const int peer = 1 - mpi.rank();
    std::vector<std::byte> sbuf(kStreamBytes), rbuf(kStreamBytes);
    for (int i = 0; i < kReps; ++i) {
      if (mpi.rank() == 0) {
        mpi.send(sbuf.data(), kPingPongBytes, peer, i);
        mpi.recv(rbuf.data(), rbuf.size(), peer, kReps + i);
      } else {
        mpi.recv(rbuf.data(), rbuf.size(), peer, i);
        mpi.send(sbuf.data(), kPingPongBytes, peer, kReps + i);
      }
    }
    const double t0 = mpi.wtime();
    std::vector<mpi::Request> reqs(kWindow);
    for (int b = 0; b < kBatches; ++b) {
      for (int w = 0; w < kWindow; ++w) {
        const int tag = 2 * kReps + b * kWindow + w;
        reqs[static_cast<std::size_t>(w)] =
            mpi.rank() == 0
                ? mpi.isend(sbuf.data(), kStreamBytes, peer, tag)
                : mpi.irecv(rbuf.data(), rbuf.size(), peer, tag);
      }
      mpi.waitall(reqs);
    }
    if (mpi.rank() == 0) {
      const double elapsed = mpi.wtime() - t0;
      out.bandwidth_mbs = static_cast<double>(kBatches) * kWindow *
                          static_cast<double>(kStreamBytes) / elapsed / 1e6;
    }
  });
  out.elapsed_us = cluster.engine().now().to_us();
  out.stats = cluster.stats();
  return out;
}

// The sender -> receiver flows that saturate leaf 0's up-cables: every
// sender sits on leaf switch 0 and targets a subtree reached through a
// different up-cable (D-mod-k picks the climb from the destination's
// digits), so each flow monopolizes one cable of the leaf's cut.
struct FlowSet {
  int nodes = 0;
  std::vector<std::pair<int, int>> flows;
};

FlowSet saturating_flows(core::Network net) {
  if (net == core::Network::quadrics) {
    // 4-ary tree, leaves of 4: destinations with distinct digit-1 values
    // (16 has digit 0 -- only reachable with >16 nodes).  All 4 up-cables
    // of leaf 0 carry one full-rate flow.
    return {20, {{0, 16}, {1, 5}, {2, 10}, {3, 15}}};
  }
  // 12-port Clos, leaves of 12: far leaves start at 12, one flow per
  // distinct destination leaf.  Only 3 of the 12 up-cables are busy, which
  // is exactly the point: the reroute after a failure finds an idle one.
  return {48, {{0, 13}, {1, 25}, {2, 37}}};
}

FaultRun run_flows(core::Network net, const FlowSet& fs,
                   const fault::FaultPlan& plan) {
  constexpr int kMsgs = 64;
  constexpr int kWindow = 16;
  core::ClusterConfig cc = cluster_for(net, fs.nodes);
  cc.faults = plan;
  core::Cluster cluster(cc);

  cluster.run([&](mpi::Mpi& mpi) {
    const int me = mpi.rank();
    int peer = -1;
    bool sender = false;
    for (const auto& [s, d] : fs.flows) {
      if (me == s) { sender = true; peer = d; }
      if (me == d) { peer = s; }
    }
    if (peer < 0) return;  // bystander rank
    std::vector<std::byte> buf(kStreamBytes);
    std::vector<mpi::Request> reqs(kWindow);
    for (int b = 0; b < kMsgs / kWindow; ++b) {
      for (int w = 0; w < kWindow; ++w) {
        const int tag = b * kWindow + w;
        reqs[static_cast<std::size_t>(w)] =
            sender ? mpi.isend(buf.data(), kStreamBytes, peer, tag)
                   : mpi.irecv(buf.data(), buf.size(), peer, tag);
      }
      mpi.waitall(reqs);
    }
  });

  FaultRun out;
  out.elapsed_us = cluster.engine().now().to_us();
  out.bandwidth_mbs = static_cast<double>(fs.flows.size()) * kMsgs *
                      static_cast<double>(kStreamBytes) /
                      (out.elapsed_us / 1e6) / 1e6;
  out.stats = cluster.stats();
  return out;
}

// The up-cable the second flow's default route climbs through (the cable
// the failure scenarios take down).  Built from a throwaway cluster whose
// stats are NOT folded into the point — topology inspection only.
fault::LinkRef victim_cable(core::Network net, const FlowSet& fs) {
  core::Cluster cluster(cluster_for(net, fs.nodes));
  const auto& topo = cluster.fabric().topology();
  const auto& [src, dst] = fs.flows[1];
  for (const auto& h : topo.hops(topo.route(src, dst))) {
    if (h.kind == net::Hop::Kind::switch_to_switch &&
        h.to.level > h.from.level) {
      return fault::LinkRef::between(h.from, h.to);  // first climb cable
    }
  }
  throw std::logic_error("flow route never climbs");
}

std::string fmt_ber(double ber) {
  if (ber == 0.0) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0e", ber);
  return buf;
}

std::uint64_t retries_of(core::Network net, const core::Cluster::RunStats& s) {
  return net == core::Network::infiniband ? s.rc_retries : s.elan_link_retries;
}

void add_fault_metrics(driver::PointResult& r, core::Network net,
                       const FaultRun& run) {
  const std::uint64_t lost = run.stats.rc_retry_exhausted +
                             run.stats.elan_link_retry_exhausted +
                             run.stats.watchdog_timeouts;
  r.add("run us", run.elapsed_us, 2);
  r.add("MB/s", run.bandwidth_mbs, 2);
  r.add("corrupted", static_cast<double>(run.stats.chunks_corrupted), 0);
  r.add("rerouted", static_cast<double>(run.stats.chunks_rerouted), 0);
  r.add("retries", static_cast<double>(retries_of(net, run.stats)), 0);
  r.add("lost", static_cast<double>(lost), 0);
}

constexpr double kBers[] = {0.0, 1e-8, 1e-7, 1e-6};
constexpr core::Network kFaultNets[] = {core::Network::infiniband,
                                        core::Network::quadrics};

}  // namespace

void register_ext_faults(driver::Registry& reg) {
  auto& ber_group = reg.group(
      "ext_faults_ber",
      line("Extension: BER sweep, 2 nodes (ping-pong %zuB x200 + streaming "
           "%zuB x160)",
           kPingPongBytes, kStreamBytes));
  const std::size_t nber = std::size(kBers);
  ber_group.finalize = [nber](std::vector<driver::PointResult>& pts) {
    // Net-major; first point of each net is the BER=0 baseline.
    for (std::size_t c = 0; c * nber < pts.size(); ++c) {
      const double clean_us = pts[c * nber].value("run us");
      for (std::size_t i = 0; i < nber && c * nber + i < pts.size(); ++i) {
        auto& p = pts[c * nber + i];
        if (clean_us > 0.0) p.add("slowdown", p.value("run us") / clean_us, 2);
      }
    }
    return std::vector<std::string>{
        "anchor: both fabrics complete every transfer at BER<=1e-6 with "
        "bounded slowdown (lost=0)"};
  };
  for (const auto net : kFaultNets) {
    for (const double ber : kBers) {
      reg.add("ext_faults_ber",
              std::string(net_tag(net)) + "/ber" + fmt_ber(ber),
              [net, ber]() {
                driver::PointResult r;
                fault::FaultPlan plan;
                plan.ber = ber;
                plan.seed = 20040914;  // fixed seed: reruns reproduce exactly
                const FaultRun run = run_two_node(net, plan);
                fold_run(r, run.stats);
                add_fault_metrics(r, net, run);
                return r;
              });
    }
  }

  auto& spine_group = reg.group(
      "ext_faults_spine",
      "Extension: full-rate flows across leaf 0's cut, failing one up-cable");
  spine_group.finalize = [](std::vector<driver::PointResult>&) {
    return std::vector<std::string>{
        "anchors: a failed up-cable reroutes (rerouted>0, lost=0); with "
        "every parallel cable busy the 4-ary Elan tree pays measurable cut "
        "bandwidth, while the 12-port IB Clos absorbs it"};
  };
  for (const auto net : kFaultNets) {
    reg.add("ext_faults_spine", std::string(net_tag(net)) + "/clean",
            [net]() {
              driver::PointResult r;
              const FaultRun run = run_flows(net, saturating_flows(net), {});
              fold_run(r, run.stats);
              add_fault_metrics(r, net, run);
              return r;
            });
    reg.add("ext_faults_spine", std::string(net_tag(net)) + "/down",
            [net]() {
              driver::PointResult r;
              const FlowSet fs = saturating_flows(net);
              const fault::LinkRef cable = victim_cable(net, fs);
              fault::FaultPlan whole;  // cable dead for the entire run
              whole.link_windows.push_back(
                  {cable, sim::Time::zero(), sim::Time::zero()});
              const FaultRun run = run_flows(net, fs, whole);
              fold_run(r, run.stats);
              add_fault_metrics(r, net, run);
              return r;
            });
    reg.add("ext_faults_spine", std::string(net_tag(net)) + "/midrun",
            [net]() {
              driver::PointResult r;
              const FlowSet fs = saturating_flows(net);
              const fault::LinkRef cable = victim_cable(net, fs);
              const FaultRun clean = run_flows(net, fs, {});
              fold_run(r, clean.stats);
              fault::FaultPlan midrun;  // fails ~30%, repaired ~60% of clean
              midrun.link_windows.push_back(
                  {cable, sim::Time::us(0.3 * clean.elapsed_us),
                   sim::Time::us(0.6 * clean.elapsed_us)});
              const FaultRun run = run_flows(net, fs, midrun);
              fold_run(r, run.stats);
              add_fault_metrics(r, net, run);
              return r;
            });
  }
}

}  // namespace icsim::bench
