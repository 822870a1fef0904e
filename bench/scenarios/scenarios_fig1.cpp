// Figure 1 scenario groups: (a) ping-pong latency, (b,c) ping-pong +
// streaming bandwidth with the Elan:IB ratio, (d) effective bandwidth.
//
// Paper shape targets: Elan-4 latency about half of InfiniBand's at small
// sizes; a sharp InfiniBand jump between 1 KB and 2 KB (MVAPICH
// eager->rendezvous); Elan-4 ahead at every size in bandwidth (552 vs
// 249 MB/s at 8 KB ping-pong, >5x streaming ratio at small sizes); b_eff
// flat-ish with Elan-4 above InfiniBand everywhere.
//
// Each sweep point runs one (network, message size | node count) cell on a
// fresh 2-node (or n-node, for b_eff) cluster, so the driver can schedule
// them on any worker.  Ratios against the sibling network and the paper
// anchors are computed in the group finalize hooks from completed points.

#include <cstddef>
#include <vector>

#include "common.hpp"
#include "microbench/beff.hpp"
#include "microbench/pingpong.hpp"
#include "scenarios.hpp"

namespace icsim::bench {

namespace {

constexpr core::Network kNets[] = {core::Network::infiniband,
                                   core::Network::quadrics};

[[nodiscard]] std::string size_point_name(core::Network net,
                                          std::size_t bytes) {
  return std::string(net_tag(net)) + "/" + std::to_string(bytes);
}

}  // namespace

void register_fig1_latency(driver::Registry& reg) {
  const bool fast = fast_mode();
  const auto sizes = microbench::pallas_sizes(fast ? (64u << 10) : (4u << 20));
  const int reps = fast ? 10 : 50;
  const int warmup = fast ? 2 : 5;

  auto& g = reg.group("fig1_latency",
                      "Figure 1(a): ping-pong latency (us), 2 nodes, 1 PPN");
  const std::size_t n = sizes.size();
  g.finalize = [n](std::vector<driver::PointResult>& pts) {
    // Points are net-major: [0, n) InfiniBand, [n, 2n) Elan.
    for (std::size_t i = 0; i < n && n + i < pts.size(); ++i) {
      const double ib = pts[i].value("us");
      const double el = pts[n + i].value("us");
      if (el > 0.0) pts[n + i].add("IB/Elan", ib / el, 2);
    }
    std::vector<std::string> out;
    if (pts.size() >= n + 1 && pts[n].value("us") > 0.0) {
      out.push_back(line("0-byte latency ratio IB/Elan: %.2fx (paper ~2x)",
                         pts[0].value("us") / pts[n].value("us")));
    }
    out.push_back("paper anchors: Elan-4 ~= 1/2 IB at small sizes; IB jump "
                  "between 1KB and 2KB (eager->rendezvous)");
    return out;
  };

  for (const auto net : kNets) {
    for (const std::size_t bytes : sizes) {
      reg.add("fig1_latency", size_point_name(net, bytes),
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
                r.add("us", pts.at(0).latency_us, 3);
                r.add("MB/s", pts.at(0).bandwidth_mbs, 1);
                return r;
              });
    }
  }
}

void register_fig1_bandwidth(driver::Registry& reg) {
  // Both networks asymptote to similar peaks because PCI-X, not the link,
  // bounds them; InfiniBand collapses at 4 MB, where the Pallas buffer
  // pair overflows MVAPICH 0.9.2's registration cache (fixed in later
  // releases; see ablation_regcache).
  const bool fast = fast_mode();
  auto sizes = microbench::pallas_sizes(fast ? (64u << 10) : (4u << 20));
  sizes.erase(sizes.begin());  // skip 0 bytes
  const int reps = fast ? 10 : 50;
  const int warmup = fast ? 2 : 5;
  const int batches = fast ? 4 : 10;

  auto& g = reg.group(
      "fig1_bandwidth",
      "Figure 1(b,c): ping-pong + streaming bandwidth (MB/s), 2 nodes, 1 PPN");
  const std::size_t n = sizes.size();
  g.finalize = [n](std::vector<driver::PointResult>& pts) {
    double max_stream_ratio = 0.0;
    double anchor_ib = 0.0, anchor_el = 0.0;
    for (std::size_t i = 0; i < n && n + i < pts.size(); ++i) {
      const auto& ib = pts[i];
      auto& el = pts[n + i];
      const double rpp = ib.value("pp MB/s") > 0.0
                             ? el.value("pp MB/s") / ib.value("pp MB/s")
                             : 0.0;
      const double rst = ib.value("strm MB/s") > 0.0
                             ? el.value("strm MB/s") / ib.value("strm MB/s")
                             : 0.0;
      el.add("ratio pp", rpp, 2);
      el.add("ratio strm", rst, 2);
      if (ib.value("bytes") <= 1024.0 && rst > max_stream_ratio) {
        max_stream_ratio = rst;
      }
      if (ib.value("bytes") == 8192.0) {
        anchor_ib = ib.value("pp MB/s");
        anchor_el = el.value("pp MB/s");
      }
    }
    std::vector<std::string> out;
    out.push_back(line("8 KB anchor: Elan-4 %.0f MB/s vs IB %.0f MB/s "
                       "(paper: 552 vs 249)",
                       anchor_el, anchor_ib));
    out.push_back(line("max streaming ratio at <=1KB: %.1fx (paper: >5x)",
                       max_stream_ratio));
    return out;
  };

  for (const auto net : kNets) {
    for (const std::size_t bytes : sizes) {
      reg.add("fig1_bandwidth", size_point_name(net, bytes),
              [net, bytes, reps, warmup, batches]() {
                driver::PointResult r;
                core::Cluster::RunStats st;

                microbench::PingPongOptions pp;
                pp.sizes = {bytes};
                pp.repetitions = reps;
                pp.warmup = warmup;
                pp.stats = &st;
                const auto ppres =
                    microbench::run_pingpong(cluster_for(net, 2), pp);
                fold_run(r, st);

                microbench::StreamingOptions strm;
                strm.sizes = {bytes};
                strm.window = 64;
                strm.batches = batches;
                strm.warmup_batches = 2;
                strm.stats = &st;
                const auto stres =
                    microbench::run_streaming(cluster_for(net, 2), strm);
                fold_run(r, st);

                r.add("bytes", static_cast<double>(bytes), 0);
                r.add("pp MB/s", ppres.at(0).bandwidth_mbs, 1);
                r.add("strm MB/s", stres.at(0).bandwidth_mbs, 1);
                return r;
              });
    }
  }
}

void register_fig1_beff(driver::Registry& reg) {
  // An ideal machine would be flat.  Elan-4 sits above InfiniBand at every
  // size because b_eff's logarithmic average is dominated by sub-kilobyte
  // messages, where Elan's latency/message-rate advantage is largest; both
  // decay mildly as the fabric is loaded.
  const bool fast = fast_mode();
  const std::vector<int> node_counts =
      fast ? std::vector<int>{2, 4, 8} : std::vector<int>{2, 4, 8, 16, 24, 32};
  microbench::BeffOptions opt;
  opt.lmax = fast ? (64u << 10) : (1u << 20);
  opt.repetitions = 2;
  opt.random_patterns = fast ? 1 : 2;

  auto& g = reg.group("fig1_beff",
                      "Figure 1(d): b_eff per process (MB/s), 1 PPN");
  const std::size_t n = node_counts.size();
  g.finalize = [n](std::vector<driver::PointResult>& pts) {
    for (std::size_t i = 0; i < n && n + i < pts.size(); ++i) {
      const double ib = pts[i].value("b_eff/p");
      if (ib > 0.0) {
        pts[n + i].add("Elan/IB", pts[n + i].value("b_eff/p") / ib, 2);
      }
    }
    return std::vector<std::string>{
        "paper anchor: flat-ish trend, Elan-4 above InfiniBand; b_eff is "
        "dominated by short-message bandwidth"};
  };

  for (const auto net : kNets) {
    for (const int nodes : node_counts) {
      reg.add("fig1_beff",
              std::string(net_tag(net)) + "/" + std::to_string(nodes) + "n",
              [net, nodes, opt]() {
                driver::PointResult r;
                microbench::BeffOptions o = opt;
                core::Cluster::RunStats st;
                o.stats = &st;
                const auto res =
                    microbench::run_beff(cluster_for(net, nodes), o);
                fold_run(r, st);
                r.add("nodes", nodes, 0);
                r.add("b_eff/p", res.beff_per_process_mbs, 1);
                return r;
              });
    }
  }
}

}  // namespace icsim::bench
