// Example: the same halo exchange on a healthy and a degraded fabric.
//
// Sixteen ranks run a 1-D periodic halo exchange.  The degraded runs add a
// fault plan to the cluster config: the up-cable the ring's cross-leaf
// traffic climbs through gets a high bit-error rate, and in a second run
// also goes down for a window mid-run.  Everything still completes —
// InfiniBand by RC timeout/retransmission, Elan-4 by hardware link retry,
// and both by routing around the dead cable — and the printed counters show
// the recovery working.
//
// The same plans work on any icsim binary without a rebuild, e.g.:
//   $ ICSIM_FAULTS="ber=1e-7; link s0.0-1.1 down@2ms:4ms" ./some_bench
//
//   $ ./build/examples/degraded_fabric

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "core/cluster.hpp"
#include "fault/plan.hpp"

namespace {

using namespace icsim;

constexpr int kNodes = 16;
constexpr int kIterations = 200;
constexpr std::size_t kHaloBytes = 16384;

struct Result {
  double run_us = 0.0;
  core::Cluster::RunStats stats;
};

Result run_halo(core::Network net, const fault::FaultPlan& plan) {
  core::ClusterConfig cc = net == core::Network::infiniband
                               ? core::ib_cluster(kNodes)
                               : core::elan_cluster(kNodes);
  cc.faults = plan;
  core::Cluster cluster(cc);
  cluster.run([&](mpi::Mpi& mpi) {
    const int me = mpi.rank();
    const int left = (me + kNodes - 1) % kNodes;
    const int right = (me + 1) % kNodes;
    std::vector<std::byte> out_l(kHaloBytes), out_r(kHaloBytes);
    std::vector<std::byte> in_l(kHaloBytes), in_r(kHaloBytes);
    std::vector<mpi::Request> reqs(4);
    for (int it = 0; it < kIterations; ++it) {
      // Distinct tags per iteration and direction: retransmission can
      // reorder same-tag traffic, the halo pattern should not care.
      reqs[0] = mpi.irecv(in_l.data(), in_l.size(), left, 2 * it);
      reqs[1] = mpi.irecv(in_r.data(), in_r.size(), right, 2 * it + 1);
      reqs[2] = mpi.isend(out_r.data(), out_r.size(), right, 2 * it);
      reqs[3] = mpi.isend(out_l.data(), out_l.size(), left, 2 * it + 1);
      mpi.waitall(reqs);
    }
  });
  Result r;
  r.run_us = cluster.engine().now().to_us();
  r.stats = cluster.stats();
  return r;
}

// The up-cable a cross-leaf hop of the ring climbs through.  Failing a
// switch-to-switch cable (rather than an endpoint cable) leaves the fabric
// an alternate climb, so the outage is survivable by rerouting alone.
fault::LinkRef cross_leaf_cable(core::Network net) {
  core::ClusterConfig cc = net == core::Network::infiniband
                               ? core::ib_cluster(kNodes)
                               : core::elan_cluster(kNodes);
  core::Cluster cluster(cc);
  const auto& topo = cluster.fabric().topology();
  // 11 -> 12 crosses the 12-port IB leaf boundary; 3 -> 4 the 4-port Elan
  // one.  Both are hops the periodic ring actually takes.
  const int src = net == core::Network::infiniband ? 11 : 3;
  const int dst = net == core::Network::infiniband ? 12 : 4;
  for (const auto& h : topo.hops(topo.route(src, dst))) {
    if (h.kind == net::Hop::Kind::switch_to_switch &&
        h.to.level > h.from.level) {
      return fault::LinkRef::between(h.from, h.to);
    }
  }
  throw std::logic_error("ring route never crosses a leaf boundary");
}

void report(const char* name, const Result& r, const Result& clean,
            core::Network net) {
  const auto& s = r.stats;
  const std::uint64_t retries =
      net == core::Network::infiniband ? s.rc_retries : s.elan_link_retries;
  const std::uint64_t lost = s.rc_retry_exhausted +
                             s.elan_link_retry_exhausted + s.watchdog_timeouts;
  std::printf("  %-26s %9.0f us  x%.2f   corrupted %5llu  retries %5llu  "
              "rerouted %5llu  lost %llu\n",
              name, r.run_us, r.run_us / clean.run_us,
              static_cast<unsigned long long>(s.chunks_corrupted),
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(s.chunks_rerouted),
              static_cast<unsigned long long>(lost));
}

}  // namespace

int main() {
  std::printf("1-D periodic halo exchange, %d ranks, %zu-byte halos, %d "
              "iterations\n",
              kNodes, kHaloBytes, kIterations);
  for (const auto net : {core::Network::infiniband, core::Network::quadrics}) {
    const fault::LinkRef cable = cross_leaf_cable(net);
    std::printf("\n%s (flaky link: %s)\n", core::to_string(net),
                cable.to_string().c_str());

    const Result clean = run_halo(net, {});

    fault::FaultPlan flaky;  // CRC drops on one cable, always up
    flaky.seed = 7;
    flaky.link_ber.push_back({cable, 1e-6});
    const Result noisy = run_halo(net, flaky);

    fault::FaultPlan outage = flaky;  // same, plus a mid-run outage
    outage.link_windows.push_back({cable,
                                   sim::Time::us(0.3 * clean.run_us),
                                   sim::Time::us(0.6 * clean.run_us)});
    const Result downed = run_halo(net, outage);

    report("clean", clean, clean, net);
    report("ber 1e-6 on that link", noisy, clean, net);
    report("+ outage 30%..60%", downed, clean, net);
  }
  std::printf("\nLost messages stay zero: CRC drops are retransmitted (IB "
              "in software with\nbackoff, Elan-4 in link hardware) and the "
              "outage window is routed around.\n");
  return 0;
}
