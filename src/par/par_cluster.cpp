#include "par/par_cluster.hpp"

#include <charconv>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace icsim::par {

ParNetParams params_for(const core::ClusterConfig& config) {
  ParNetParams p;
  switch (config.network) {
    case core::Network::infiniband:
      p.send_overhead = config.hca.send_wqe_cost;
      p.recv_overhead = config.hca.send_cqe_cost;
      p.chunk_bytes = config.hca.chunk_bytes;
      break;
    case core::Network::quadrics:
      p.send_overhead = config.elan.host_post_cost + config.elan.nic_tx_cost;
      p.recv_overhead = config.elan.nic_rx_base + config.elan.completion_cost;
      p.chunk_bytes = config.elan.chunk_bytes;
      p.ctrl_bytes = config.elan.ctrl_bytes;
      break;
    case core::Network::myrinet:
      throw std::invalid_argument(
          "ParCluster: Myrinet is not calibrated for the parallel tier");
  }
  // Combining cost: one cache line's worth of ALU work per received vector,
  // charged on the host CPU for both stacks (the paper's collectives reduce
  // small payloads, so this term is latency- not bandwidth-relevant).
  p.reduce_cost = sim::Time::ns(50);
  return p;
}

int parse_par_threads(std::string_view text) {
  int v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v < 1) {
    throw std::invalid_argument("ICSIM_PAR_THREADS='" + std::string(text) +
                                "': expected a positive integer");
  }
  return v;
}

ParCluster::ParCluster(const core::ClusterConfig& config, int partitions)
    : cfg_(config) {
  if (cfg_.ppn != 1) {
    throw std::invalid_argument(
        "ParCluster: the parallel tier models one rank per node (ppn == 1)");
  }
  // Fault-plan scope check: only link-down windows are representable as
  // pure functions of simulated time.  Everything else needs shared mutable
  // state across shards and is rejected rather than silently ignored.
  const fault::FaultPlan& fp = cfg_.faults;
  if (fp.ber != 0.0 || !fp.link_ber.empty() || !fp.stalls.empty() ||
      fp.watchdog != sim::Time::zero()) {
    throw std::invalid_argument(
        "ParCluster: fault plans are limited to link down/up windows in the "
        "parallel tier (no BER, stalls, or watchdog)");
  }

  const net::FabricConfig fc =
      core::fabric_config_for(cfg_.network, cfg_.nodes);
  const net::FatTreeTopology topo(fc.radix_down, fc.levels);
  if (partitions <= 0) partitions = kDefaultPartitions;
  net::FabricPartitions fparts;
  fparts.map = net::make_partitioning(topo, cfg_.nodes, partitions);

  int threads = cfg_.intra_run_threads;
  if (cfg_.env_overrides) {
    if (const char* env = std::getenv("ICSIM_PAR_THREADS")) {
      threads = parse_par_threads(env);
    }
  }

  ParConfig pc;
  pc.partitions = fparts.map.parts;
  pc.threads = threads;
  pc.lookahead = net::Fabric::lookahead_of(fc);
  engine_ = std::make_unique<ParEngine>(pc);
  for (int p = 0; p < pc.partitions; ++p) {
    fparts.engines.push_back(&engine_->shard(p));
  }
  fparts.post_cross = std::bind_front(&ParEngine::post_cross, engine_.get());
  fabric_ = std::make_unique<net::Fabric>(std::move(fparts), fc, cfg_.nodes);
  fabric_->set_link_windows(fp.link_windows);
  world_ = std::make_unique<CollectiveWorld>(*engine_, *fabric_,
                                             params_for(cfg_));
}

ParRunStats ParCluster::run(const CollectiveSpec& spec) {
  world_->start(spec);
  engine_->run();
  fabric_->audit_drained();
  if (!world_->all_done()) {
    throw std::runtime_error(
        "ParCluster::run: deadlock — " +
        std::to_string(world_->ranks() - world_->ranks_done()) + " of " +
        std::to_string(world_->ranks()) + " ranks never finished");
  }
  ParRunStats st;
  st.events_processed = engine_->events_processed();
  st.event_digest = engine_->event_digest();
  st.fabric_chunks = fabric_->chunks_sent();
  st.messages = world_->messages_sent();
  st.cross_posts = engine_->cross_posts();
  st.windows = engine_->windows();
  st.chunks_rerouted = fabric_->chunks_rerouted();
  st.chunks_dropped_link_down = fabric_->chunks_dropped_link_down();
  st.simulated_us = world_->completion_time().to_us();
  st.partitions = engine_->partitions();
  st.threads_used = engine_->threads_used();
  return st;
}

}  // namespace icsim::par
