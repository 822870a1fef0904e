#include "core/cluster.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "myrinet/gm.hpp"
#include "replay/capture.hpp"
#include "trace/export.hpp"

namespace icsim::core {

namespace {

/// "trace.json" -> "trace.2.json" for the nth tracing Cluster in a process,
/// so benches that build several clusters don't clobber the first trace.
std::string numbered(const std::string& path, int n) {
  if (n <= 1) return path;
  const auto dot = path.rfind('.');
  const auto slash = path.rfind('/');
  const bool has_ext = dot != std::string::npos &&
                       (slash == std::string::npos || dot > slash);
  const std::string stem = has_ext ? path.substr(0, dot) : path;
  const std::string ext = has_ext ? path.substr(dot) : "";
  return stem + "." + std::to_string(n) + ext;
}

std::string sibling(const std::string& path, const char* suffix) {
  const auto dot = path.rfind('.');
  const auto slash = path.rfind('/');
  const bool has_ext = dot != std::string::npos &&
                       (slash == std::string::npos || dot > slash);
  return (has_ext ? path.substr(0, dot) : path) + suffix;
}

}  // namespace

std::size_t parse_trace_events(std::string_view text) {
  std::size_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v < 1 ||
      v > trace::RingBufferSink::kMaxCapacity) {
    throw std::invalid_argument("ICSIM_TRACE_EVENTS='" + std::string(text) +
                                "': expected a positive integer a "
                                "power-of-two ring can hold");
  }
  return v;
}

ClusterConfig myrinet_cluster(int nodes, int ppn) {
  ClusterConfig c;
  c.network = Network::myrinet;
  c.nodes = nodes;
  c.ppn = ppn;
  c.hca = myrinet::lanai9_nic();
  c.mvapich = myrinet::mpich_gm();
  return c;
}

net::FabricConfig fabric_config_for(Network net, int nodes) {
  switch (net) {
    case Network::infiniband: return ib_fabric(nodes);
    case Network::quadrics: return elan_fabric(nodes);
    case Network::myrinet: return myrinet::myrinet_fabric(nodes);
  }
  return ib_fabric(nodes);
}

Cluster::Cluster(const ClusterConfig& config) : cfg_(config) {
  if (cfg_.nodes < 1 || cfg_.ppn < 1) {
    throw std::invalid_argument("Cluster: nodes and ppn must be >= 1");
  }

  std::string path = cfg_.trace_path;
  std::size_t events = cfg_.trace_events;
  if (path.empty() && cfg_.env_overrides) {
    if (const char* env = std::getenv("ICSIM_TRACE"); env != nullptr && *env != '\0') {
      path = env;
      if (const char* n = std::getenv("ICSIM_TRACE_EVENTS"); n != nullptr) {
        events = parse_trace_events(n);
      }
    }
  }
  if (!path.empty()) {
    // Per-path instance counter: a bench that builds several clusters with
    // the same ICSIM_TRACE value gets trace.json, trace.2.json, ...
    // (mutex: the sweep driver constructs clusters from worker threads).
    static std::mutex trace_mu;
    static std::map<std::string, int> trace_instances;
    {
      const std::lock_guard<std::mutex> lock(trace_mu);
      trace_path_ = numbered(path, ++trace_instances[path]);
    }
    trace_sink_ = std::make_unique<trace::RingBufferSink>(events);
    engine_.tracer().enable(*trace_sink_);
  }
  if (cfg_.faults.empty() && cfg_.env_overrides) {
    if (const char* env = std::getenv("ICSIM_FAULTS");
        env != nullptr && *env != '\0') {
      cfg_.faults = fault::FaultPlan::parse(env);
    }
  }
  if (cfg_.faults.watchdog > sim::Time::zero()) {
    cfg_.mvapich.watchdog_timeout = cfg_.faults.watchdog;
    cfg_.quadrics.watchdog_timeout = cfg_.faults.watchdog;
  }

  fabric_ = std::make_unique<net::Fabric>(
      engine_, fabric_config_for(cfg_.network, cfg_.nodes), cfg_.nodes);

  for (int n = 0; n < cfg_.nodes; ++n) {
    nodes_.push_back(std::make_unique<node::Node>(engine_, n, cfg_.node));
  }

  if (!cfg_.faults.empty()) {
    injector_ =
        std::make_unique<fault::FaultInjector>(engine_, cfg_.faults, cfg_.seed);
    injector_->install(*fabric_);
    std::vector<node::Node*> node_ptrs;
    node_ptrs.reserve(nodes_.size());
    for (auto& n : nodes_) node_ptrs.push_back(n.get());
    injector_->install_node_stalls(node_ptrs);
  }

  const int nranks = ranks();
  sim::Rng root_rng(cfg_.seed);

  if (cfg_.network == Network::infiniband || cfg_.network == Network::myrinet) {
    // Both stacks are "DMA NIC + host-progress MPI"; they differ only in
    // the calibrated parameters installed by their cluster constructors.
    for (int n = 0; n < cfg_.nodes; ++n) {
      hcas_.push_back(
          std::make_unique<ib::Hca>(engine_, *nodes_[static_cast<std::size_t>(n)],
                                    fabric_.get(), cfg_.hca));
    }
    for (int r = 0; r < nranks; ++r) {
      const int n = r / cfg_.ppn;  // block rank placement, as the study ran
      mv_transports_.push_back(std::make_unique<mpi::MvapichTransport>(
          engine_, r, *nodes_[static_cast<std::size_t>(n)],
          *hcas_[static_cast<std::size_t>(n)], cfg_.mvapich));
      transports_.push_back(mv_transports_.back().get());
    }
    std::vector<mpi::MvapichTransport*> world;
    world.reserve(mv_transports_.size());
    for (auto& t : mv_transports_) world.push_back(t.get());
    init_cost_ = mpi::MvapichTransport::init_world(world);
    if (cfg_.mvapich.independent_progress) {
      for (auto& t : mv_transports_) t->enable_independent_progress();
    }
  } else {
    for (int n = 0; n < cfg_.nodes; ++n) {
      elan_nics_.push_back(std::make_unique<elan::ElanNic>(
          engine_, *nodes_[static_cast<std::size_t>(n)], fabric_.get(),
          cfg_.elan));
    }
    elan_world_.nic_of_rank.resize(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      const int n = r / cfg_.ppn;
      elan_world_.nic_of_rank[static_cast<std::size_t>(r)] =
          elan_nics_[static_cast<std::size_t>(n)].get();
    }
    for (auto& nic : elan_nics_) nic->set_world(&elan_world_);
    for (int r = 0; r < nranks; ++r) {
      const int n = r / cfg_.ppn;
      qs_transports_.push_back(std::make_unique<mpi::QuadricsTransport>(
          engine_, r, *nodes_[static_cast<std::size_t>(n)],
          *elan_nics_[static_cast<std::size_t>(n)], cfg_.quadrics));
      transports_.push_back(qs_transports_.back().get());
    }
    std::vector<mpi::QuadricsTransport*> world;
    world.reserve(qs_transports_.size());
    for (auto& t : qs_transports_) world.push_back(t.get());
    init_cost_ = mpi::QuadricsTransport::init_world(world);
  }

  for (int r = 0; r < nranks; ++r) {
    const int n = r / cfg_.ppn;
    mpis_.push_back(std::make_unique<mpi::Mpi>(
        engine_, *nodes_[static_cast<std::size_t>(n)],
        *transports_[static_cast<std::size_t>(r)], r, nranks, root_rng.fork()));
  }

  std::string capture_dir = cfg_.mpi_trace_dir;
  if (capture_dir.empty() && cfg_.env_overrides) {
    if (const char* env = std::getenv("ICSIM_MPI_TRACE");
        env != nullptr && *env != '\0') {
      capture_dir = env;
      if (const char* fmt = std::getenv("ICSIM_MPI_TRACE_FORMAT");
          fmt != nullptr && std::string(fmt) == "binary") {
        cfg_.mpi_trace_binary = true;
      }
    }
  }
  if (!capture_dir.empty()) {
    // Per-directory instance counter, like the ICSIM_TRACE path above: a
    // bench that builds several capturing clusters gets cap, cap.2, ...
    static std::mutex capture_mu;
    static std::map<std::string, int> capture_instances;
    {
      const std::lock_guard<std::mutex> lock(capture_mu);
      mpi_trace_dir_ = numbered(capture_dir, ++capture_instances[capture_dir]);
    }
    const char* net = cfg_.network == Network::infiniband ? "ib"
                      : cfg_.network == Network::quadrics ? "el"
                                                          : "my";
    capture_ = std::make_unique<replay::CaptureSession>(
        nranks, std::vector<std::pair<std::string, std::string>>{
                    {"net", net},
                    {"nodes", std::to_string(cfg_.nodes)},
                    {"ppn", std::to_string(cfg_.ppn)},
                    {"seed", std::to_string(cfg_.seed)}});
    for (int r = 0; r < nranks; ++r) {
      mpis_[static_cast<std::size_t>(r)]->set_recorder(
          &capture_->recorder(r));
    }
  }
}

Cluster::~Cluster() = default;

std::uint64_t Cluster::ib_ring_memory_per_rank() const {
  if (mv_transports_.empty()) return 0;
  return mv_transports_.front()->ring_memory_bytes();
}

Cluster::RunStats Cluster::stats() const {
  RunStats s;
  s.fabric_chunks = fabric_->chunks_sent();
  s.max_link_busy_us = fabric_->max_link_busy_time().to_us();
  s.events_processed = engine_.events_processed();
  s.event_digest = engine_.event_digest();
  s.chunks_corrupted = fabric_->chunks_corrupted();
  s.chunks_rerouted = fabric_->chunks_rerouted();
  s.chunks_dropped_link_down = fabric_->chunks_dropped_link_down();
  for (const auto& hca : hcas_) {
    s.hca_writes += hca->writes_posted();
    s.rc_retries += hca->rc_retries();
    s.rc_retry_exhausted += hca->rc_retry_exhausted();
    s.retransmitted_bytes += hca->retransmitted_bytes();
    const auto& rc = hca->reg_cache().stats();
    s.reg_hits += rc.hits;
    s.reg_misses += rc.misses;
    s.reg_evictions += rc.evictions;
  }
  for (const auto& nic : elan_nics_) {
    s.nic_buffer_high_water =
        std::max(s.nic_buffer_high_water, nic->nic_buffer_high_water());
    s.nic_thread_busy_us =
        std::max(s.nic_thread_busy_us, nic->nic_thread().busy_time().to_us());
    s.elan_link_retries += nic->link_retries();
    s.elan_link_retry_exhausted += nic->link_retry_exhausted();
  }
  for (const auto& t : mv_transports_) s.watchdog_timeouts += t->watchdog_timeouts();
  for (const auto& t : qs_transports_) s.watchdog_timeouts += t->watchdog_timeouts();
  return s;
}

void Cluster::publish_metrics(trace::MetricsRegistry& m, sim::Time elapsed) const {
  // Snapshot counters use assignment, not +=, so publishing into the
  // engine's own registry (where some are incremented live) stays correct.
  m.counter("sim.events_processed") = engine_.events_processed();
  m.counter("sim.schedule_past_clamped") = engine_.past_schedules_clamped();
  fabric_->publish_metrics(m, elapsed);

  if (!hcas_.empty()) {
    std::uint64_t writes = 0, hits = 0, misses = 0, evictions = 0;
    for (const auto& hca : hcas_) {
      writes += hca->writes_posted();
      const auto& rc = hca->reg_cache().stats();
      hits += rc.hits;
      misses += rc.misses;
      evictions += rc.evictions;
    }
    std::uint64_t retries = 0, exhausted = 0, rebytes = 0;
    for (const auto& hca : hcas_) {
      retries += hca->rc_retries();
      exhausted += hca->rc_retry_exhausted();
      rebytes += hca->retransmitted_bytes();
    }
    m.counter("ib.rc_retries") = retries;
    m.counter("ib.rc_retry_exhausted") = exhausted;
    m.counter("ib.retransmitted_bytes") = rebytes;
    m.counter("ib.hca.writes") = writes;
    m.counter("ib.regcache.hits") = hits;
    m.counter("ib.regcache.misses") = misses;
    m.counter("ib.regcache.evictions") = evictions;
    if (hits + misses > 0) {
      m.stat("ib.regcache.hit_rate")
          .add(static_cast<double>(hits) / static_cast<double>(hits + misses));
    }
    auto& uq = m.stat("mpi.max_unexpected_depth");
    for (const auto& t : mv_transports_) {
      uq.add(static_cast<double>(t->matcher().max_unexpected_depth()));
    }
  }
  if (!elan_nics_.empty()) {
    std::uint64_t high_water = 0;
    double nic_busy = 0.0;
    for (const auto& nic : elan_nics_) {
      high_water = std::max(high_water, nic->nic_buffer_high_water());
      nic_busy = std::max(nic_busy, nic->nic_thread().busy_time().to_us());
    }
    std::uint64_t retries = 0, exhausted = 0;
    for (const auto& nic : elan_nics_) {
      retries += nic->link_retries();
      exhausted += nic->link_retry_exhausted();
    }
    m.counter("elan.link_retries") = retries;
    m.counter("elan.link_retry_exhausted") = exhausted;
    m.counter("elan.nic_buffer_high_water") = high_water;
    m.stat("elan.nic_thread_busy_us").add(nic_busy);
    auto& uq = m.stat("elan.max_unexpected_depth");
    for (std::size_t r = 0; r < elan_world_.nic_of_rank.size(); ++r) {
      uq.add(static_cast<double>(
          elan_world_.nic_of_rank[r]->max_unexpected_depth(static_cast<int>(r))));
    }
  }
  std::uint64_t wd = 0;
  for (const auto& t : mv_transports_) wd += t->watchdog_timeouts();
  for (const auto& t : qs_transports_) wd += t->watchdog_timeouts();
  m.counter("mpi.watchdog_timeouts") = wd;
  if (injector_) injector_->publish_metrics(m);
}

void Cluster::write_trace_files(sim::Time elapsed) {
  if (trace_path_.empty()) return;
  trace::Tracer& tr = engine_.tracer();
  publish_metrics(tr.metrics(), elapsed);
  const std::vector<trace::Event> events = trace_sink_->snapshot();
  bool ok = true;
  {
    std::ofstream out(trace_path_);
    trace::write_chrome_trace(out, tr, events);
    ok = ok && out.good();
  }
  const std::string metrics_path = sibling(trace_path_, ".metrics.json");
  {
    std::ofstream out(metrics_path);
    out << tr.metrics().to_json() << '\n';
    ok = ok && out.good();
  }
  const std::string csv_path = sibling(trace_path_, ".counters.csv");
  {
    std::ofstream out(csv_path);
    trace::write_counters_csv(out, tr, events);
    ok = ok && out.good();
  }
  if (ok) {
    std::fprintf(stderr,
                 "[icsim] wrote %s (%llu events, %llu dropped), %s, %s\n",
                 trace_path_.c_str(),
                 static_cast<unsigned long long>(trace_sink_->recorded()),
                 static_cast<unsigned long long>(trace_sink_->dropped()),
                 metrics_path.c_str(), csv_path.c_str());
  } else {
    std::fprintf(stderr, "[icsim] warning: could not write trace files to %s\n",
                 trace_path_.c_str());
  }
}

sim::Time Cluster::run(const std::function<void(mpi::Mpi&)>& rank_main) {
  if (cfg_.intra_run_threads > 1) {
    // The fiber tier cannot honor the knob: its fibers must resume on
    // their creating thread, and transport callbacks touch source- and
    // destination-side state in one engine.  Refuse loudly instead of
    // silently running serial — intra-run parallelism lives in
    // par::ParCluster (src/par/).
    throw std::invalid_argument(
        "Cluster::run: intra_run_threads > 1 is not supported on the fiber "
        "path; use par::ParCluster for intra-run parallel execution");
  }
  const int nranks = ranks();
  std::vector<std::unique_ptr<sim::Fiber>> fibers;
  fibers.reserve(static_cast<std::size_t>(nranks));
  int finished = 0;
  for (int r = 0; r < nranks; ++r) {
    mpi::Mpi& m = *mpis_[static_cast<std::size_t>(r)];
    // The fiber bodies run to completion inside engine_.run() below, so the
    // by-ref captures cannot outlive this frame (the deadlock check proves
    // every fiber finished before we return).
    fibers.push_back(std::make_unique<sim::Fiber>(
        // icsim-lint: allow(closure-lifetime)
        [this, &m, &rank_main, &finished] {
      if (cfg_.charge_init && init_cost_ > sim::Time::zero()) {
        sim::sleep_for(engine_, init_cost_);
      }
      rank_main(m);
      ++finished;
    }));
  }
  for (auto& f : fibers) f->resume();
  const sim::Time end = engine_.run();
  fabric_->audit_drained();  // conservation: injected == delivered + dropped
  write_trace_files(end);
  if (finished != nranks) {
    throw std::runtime_error(
        "Cluster::run: deadlock — " + std::to_string(nranks - finished) +
        " of " + std::to_string(nranks) + " ranks still blocked");
  }
  if (capture_) {
    capture_->write(mpi_trace_dir_, cfg_.mpi_trace_binary);
    std::fprintf(stderr, "[icsim] wrote %d MPI rank trace(s) to %s/\n",
                 nranks, mpi_trace_dir_.c_str());
  }
  return engine_.now();
}

}  // namespace icsim::core
