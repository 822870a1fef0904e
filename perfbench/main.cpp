// perfbench runner: runs one workload's points back to back through the
// simulator's public APIs and prints one JSON line per point per pass.
//
//   icsim_perf --points SPEC[,SPEC...] --seed N --seconds S
//              [--min-passes K] [--probes] [--spans PATH]
//
// A point SPEC is one of
//   cg/<ib|el>/<procs>/<ppn>         NAS CG class A (apps::npb::run_cg)
//   md/<ib|el>/<nodes>/<ppn>         LAMMPS LJS scaled (apps::md::run_md)
//   traffic/<ib|el>/<nodes>/<pattern>/<load>   open loop (traffic::Workload)
//   par/<ib|el>/<nodes>/<barrier|allreduce>    parallel tier (par::ParCluster)
//
// The points are run in the order given, as one pass; passes repeat until
// another pass would end after S seconds (at least K passes run).  Each
// point builds its own cluster, timed as set-up, then simulates, timed as
// wall.  A chunk of fixed reference work (host_ref.hpp) runs before the
// first point and after every point; a point's ref_s is the mean of the two
// chunks around it, the host speed run.py scales its times by.  Everything
// a point reports besides host times is exact and must repeat across passes.
// run.py builds the point list from workloads.json and the seed, and turns
// these lines into metrics.
//
// The same source builds icsim_perf_traced (PERF_TRACED=1), whose link
// interposes spans.cpp on the simulator's out-of-line layer entry points.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/lammps/md.hpp"
#include "apps/npb/cg.hpp"
#include "core/cluster.hpp"
#include "ib/reg_cache.hpp"
#include "mpi/matcher.hpp"
#include "net/fabric.hpp"
#include "par/par_cluster.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "trace/metrics.hpp"
#include "traffic/workload.hpp"

#include "host_ref.hpp"

#if PERF_TRACED
#include "spans.hpp"
#endif

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#error "perfbench times host code: build it optimized, without assertions or sanitizers"
#endif

namespace {

using namespace icsim;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: derives independent per-layer seeds from the benchmark seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

[[nodiscard]] std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) out.push_back(item);
  return out;
}

[[nodiscard]] int to_int(const std::string& s) {
  std::size_t used = 0;
  const int v = std::stoi(s, &used);
  if (used != s.size() || v <= 0) throw std::invalid_argument("bad count: " + s);
  return v;
}

[[nodiscard]] core::Network to_net(const std::string& s) {
  if (s == "ib") return core::Network::infiniband;
  if (s == "el") return core::Network::quadrics;
  throw std::invalid_argument("unknown network: " + s);
}

/// One line of JSON, built field by field.  Values are written with all the
/// digits a double holds, so exact outputs compare exactly.
class Line {
 public:
  Line& str(const char* k, const std::string& v) {
    key(k);
    s_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      s_ += (c == '\n' ? ' ' : c);
    }
    s_ += '"';
    return *this;
  }
  Line& num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    key(k);
    s_ += buf;
    return *this;
  }
  Line& u64(const char* k, std::uint64_t v) {
    key(k);
    s_ += std::to_string(v);
    return *this;
  }
  Line& raw(const char* k, const std::string& json) {
    key(k);
    s_ += json;
    return *this;
  }
  void print() const { std::printf("%s}\n", s_.c_str()); std::fflush(stdout); }
  [[nodiscard]] std::string text() const { return s_ + "}"; }

 private:
  void key(const char* k) {
    s_ += (s_.size() > 1 ? ",\"" : "\"");
    s_ += k;
    s_ += "\":";
  }
  std::string s_ = "{";
};

[[nodiscard]] std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// What one point reports for one pass.
struct PointResult {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< simulation only (Cluster::run / ParCluster::run)
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  Line out;     ///< headline simulated results (exact)
  Line counts;  ///< exact model counters (compared traced vs untraced)
};

void add_cluster_counts(PointResult& r, const core::Cluster& c) {
  const core::Cluster::RunStats st = c.stats();
  r.events = st.events_processed;
  r.digest = st.event_digest;
  trace::MetricsRegistry m;
  c.publish_metrics(m, sim::Time::zero());
  double max_uq = 0.0;
  for (const char* k : {"mpi.max_unexpected_depth", "elan.max_unexpected_depth"}) {
    const auto it = m.stats().find(k);
    if (it != m.stats().end() && it->second.count() > 0) {
      max_uq = std::max(max_uq, it->second.max());
    }
  }
  r.counts.u64("net.fabric.chunks", st.fabric_chunks)
      .u64("ib.hca.writes", st.hca_writes)
      .u64("ib.regcache.hits", st.reg_hits)
      .u64("ib.regcache.misses", st.reg_misses)
      .u64("ib.regcache.evictions", st.reg_evictions)
      .u64("elan.nic_buffer_high_water", st.nic_buffer_high_water)
      .num("elan.nic_thread_busy_us", st.nic_thread_busy_us)
      .num("mpi.max_unexpected_depth", max_uq);
}

/// Marks the set-up / simulation boundary for the traced build's spans.
void phase(int point, bool setup) {
#if PERF_TRACED
  perf::trace_phase(point, setup);
#else
  (void)point;
  (void)setup;
#endif
}

core::ClusterConfig cluster_config(core::Network net, int nodes, int ppn,
                                   std::uint64_t seed) {
  core::ClusterConfig cc =
      net == core::Network::infiniband ? core::ib_cluster(nodes, ppn)
                                       : core::elan_cluster(nodes, ppn);
  cc.seed = mix(seed, 1);
  cc.env_overrides = false;
  return cc;
}

/// Outer iterations per CG point.  Class A's matrix and inner solver are
/// kept; its 15 outer iterations are cut so that a pass over all the points
/// fits several times into one benchmark run.
constexpr int kCgIterations = 1;

PointResult run_cg(const std::vector<std::string>& f, std::uint64_t seed, int id) {
  if (f.size() != 4) throw std::invalid_argument("cg/<net>/<procs>/<ppn>");
  const int procs = to_int(f[2]), ppn = to_int(f[3]);
  if (procs % ppn != 0) throw std::invalid_argument("procs % ppn != 0");
  PointResult r;
  apps::npb::CgConfig cfg;
  cfg.cls = apps::npb::class_A();
  cfg.cls.niter = kCgIterations;
  phase(id, true);
  auto t0 = Clock::now();
  (void)apps::npb::cached_cg_matrix(cfg.cls);  // input generation, once per process
  core::Cluster cluster(cluster_config(to_net(f[1]), procs / ppn, ppn, seed));
  r.setup_s = since(t0);
  phase(id, false);
  apps::npb::CgResult res;
  t0 = Clock::now();
  (void)cluster.run([&](mpi::Mpi& m) {
    const apps::npb::CgResult x = apps::npb::run_cg(m, cfg);
    if (m.rank() == 0) res = x;
  });
  r.wall_s = since(t0);
  add_cluster_counts(r, cluster);
  r.out.num("zeta", res.zeta).num("mops_per_process", res.mops_per_process);
  return r;
}

/// MD steps per point: one neighbour rebuild and migration after the initial
/// build, at a third of the LJS study's 30 steps, so that a pass over all
/// the points fits several times into one benchmark run.
constexpr int kMdSteps = 10;

PointResult run_md(const std::vector<std::string>& f, std::uint64_t seed, int id) {
  if (f.size() != 4) throw std::invalid_argument("md/<net>/<nodes>/<ppn>");
  const int nodes = to_int(f[2]), ppn = to_int(f[3]);
  PointResult r;
  apps::md::MdConfig mc = apps::md::ljs_config();
  mc.cells_x = mc.cells_y = mc.cells_z = 8;
  mc.steps = kMdSteps;
  mc.seed = mix(seed, 2);
  phase(id, true);
  auto t0 = Clock::now();
  core::Cluster cluster(cluster_config(to_net(f[1]), nodes, ppn, seed));
  r.setup_s = since(t0);
  phase(id, false);
  apps::md::MdResult res;
  t0 = Clock::now();
  (void)cluster.run([&](mpi::Mpi& m) {
    const apps::md::MdResult x = apps::md::run_md(m, mc);
    if (m.rank() == 0) res = x;
  });
  r.wall_s = since(t0);
  add_cluster_counts(r, cluster);
  const std::uint64_t expect_atoms = 4ull * static_cast<std::uint64_t>(
      mc.cells_x * mc.cells_y * mc.cells_z) * static_cast<std::uint64_t>(nodes * ppn);
  r.out.num("loop_seconds", res.loop_seconds)
      .u64("natoms", res.natoms_global)
      .u64("natoms_expected", expect_atoms)
      .num("energy_drift", res.total_energy_drift)
      .num("momentum_abs", res.momentum_abs);
  r.counts.u64("apps.md.pair_evals", res.pair_evals);
  return r;
}

PointResult run_traffic(const std::vector<std::string>& f, std::uint64_t seed, int id) {
  if (f.size() != 5) throw std::invalid_argument("traffic/<net>/<nodes>/<pattern>/<load>");
  const core::Network net = to_net(f[1]);
  const int nodes = to_int(f[2]);
  traffic::TrafficConfig cfg;
  cfg.arrival.kind = traffic::ArrivalKind::poisson;
  if (f[3] == "uniform") {
    cfg.pattern.kind = traffic::PatternKind::uniform;
  } else if (f[3] == "incast") {
    cfg.pattern.kind = traffic::PatternKind::incast;
  } else if (f[3] == "rpc") {
    cfg.pattern.kind = traffic::PatternKind::rpc;
    cfg.service = sim::Time::us(2.0);
  } else {
    throw std::invalid_argument("unknown traffic pattern: " + f[3]);
  }
  cfg.load = std::stod(f[4]);
  cfg.requests_per_client = 256;
  cfg.client_backlog_cap = 64;
  cfg.seed = mix(seed, 3);
  PointResult r;
  phase(id, true);
  auto t0 = Clock::now();
  traffic::Workload w(cfg, net, nodes);
  core::Cluster cluster(cluster_config(net, nodes, 1, seed));
  r.setup_s = since(t0);
  phase(id, false);
  t0 = Clock::now();
  (void)cluster.run([&w](mpi::Mpi& m) { w.rank_main(m); });
  r.wall_s = since(t0);
  add_cluster_counts(r, cluster);
  const traffic::RunStats s = w.stats();
  r.out.num("p50_us", s.p50_us)
      .num("p99_us", s.p99_us)
      .num("delivery", s.delivery_ratio())
      .u64("stragglers", s.stragglers);
  r.counts.u64("traffic.offered", s.offered)
      .u64("traffic.delivered", s.delivered)
      .u64("traffic.dropped", s.dropped);
  return r;
}

/// Messages the parallel tier's algorithms send for a power-of-two n:
/// dissemination barrier and recursive doubling both take log2(n) rounds
/// of one message per rank.
[[nodiscard]] std::uint64_t par_messages(int nodes, int iterations) {
  int rounds = 0;
  while ((1 << rounds) < nodes) ++rounds;
  return static_cast<std::uint64_t>(nodes) * static_cast<std::uint64_t>(rounds) *
         static_cast<std::uint64_t>(iterations);
}

/// ParEngine worker threads.  With more than one, a run waits at every
/// window barrier for the slowest CPU, and on a shared host that spread
/// wall_s over 2x between runs; one worker still runs the window protocol
/// and ShardedFabric.
constexpr int kParThreads = 1;

PointResult run_par(const std::vector<std::string>& f, std::uint64_t seed, int id) {
  if (f.size() != 4) throw std::invalid_argument("par/<net>/<nodes>/<op>");
  const int nodes = to_int(f[2]);
  if ((nodes & (nodes - 1)) != 0) throw std::invalid_argument("par nodes must be a power of two");
  par::CollectiveSpec spec;
  if (f[3] == "barrier") {
    spec.op = par::Collective::barrier;
  } else if (f[3] == "allreduce") {
    spec.op = par::Collective::allreduce;
  } else {
    throw std::invalid_argument("unknown collective: " + f[3]);
  }
  spec.bytes = 8;
  spec.iterations = 2;
  core::ClusterConfig cc = cluster_config(to_net(f[1]), nodes, 1, seed);
  cc.intra_run_threads = kParThreads;
  PointResult r;
  phase(id, true);
  auto t0 = Clock::now();
  par::ParCluster cluster(cc);
  r.setup_s = since(t0);
  phase(id, false);
  t0 = Clock::now();
  const par::ParRunStats st = cluster.run(spec);
  r.wall_s = since(t0);
  r.events = st.events_processed;
  r.digest = st.event_digest;
  r.out.num("us_per_iter", st.simulated_us / spec.iterations)
      .u64("messages_expected", par_messages(nodes, spec.iterations))
      .u64("threads", static_cast<std::uint64_t>(st.threads_used));
  r.counts.u64("par.messages", st.messages)
      .u64("par.windows", st.windows)
      .u64("par.cross_posts", st.cross_posts)
      .u64("par.fabric_chunks", st.fabric_chunks);
  return r;
}

PointResult run_point(const std::string& spec, std::uint64_t seed, int id) {
  const std::vector<std::string> f = split(spec, '/');
  if (f.empty()) throw std::invalid_argument("empty point spec");
  if (f[0] == "cg") return run_cg(f, seed, id);
  if (f[0] == "md") return run_md(f, seed, id);
  if (f[0] == "traffic") return run_traffic(f, seed, id);
  if (f[0] == "par") return run_par(f, seed, id);
  throw std::invalid_argument("unknown point kind: " + f[0]);
}

// ------------------------------------------------------------------ probes
//
// Unit costs of single layer operations, timed by calling the public
// functions directly (the same operations bench/bench_simcore.cpp runs
// under google-benchmark).  Each probe reports the median of several
// batches, in nanoseconds per operation.

[[nodiscard]] double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename Fn>
[[nodiscard]] double probe(int batches, int ops, Fn&& batch) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    batch(ops);
    ns.push_back(since(t0) * 1e9 / ops);
  }
  return median(ns);
}

void run_probes() {
  sim::Fiber fiber([] {
    for (;;) sim::Fiber::yield();
  });
  const double switch_ns = probe(15, 20000, [&](int n) {
    for (int i = 0; i < n; ++i) fiber.resume();
  });

  std::int64_t t = 0;
  const double post_ns = probe(15, 65536, [&](int n) {
    sim::Engine e;
    for (int i = 0; i < n; ++i) {
      e.post_at(sim::Time::ps(++t), [] {});
      if (i % 1024 == 1023) e.run();
    }
    e.run();
  });

  const double chunk_ns = probe(15, 8192, [](int n) {
    sim::Engine e;
    net::FabricConfig cfg;
    cfg.radix_down = 4;
    cfg.levels = 3;
    net::Fabric fab(e, cfg, 64);
    for (int i = 0; i < n; ++i) {
      (void)fab.inject(i % 64, (i + 17) % 64, 2048, nullptr);
      if (i % 256 == 255) e.run();
    }
    e.run();
  });

  // Posted depth 512, arrival matching the last entry: a full scan.  Only
  // the arrive() calls are timed; the queue is rebuilt between them.
  std::vector<double> arrive;
  for (int rep = 0; rep < 301; ++rep) {
    mpi::Matcher m;
    for (int i = 0; i < 512; ++i) {
      mpi::PostedRecv pr;
      pr.src = i;
      pr.tag = i;
      pr.id = static_cast<std::uint64_t>(i);
      (void)m.post(pr);
    }
    mpi::Envelope env;
    env.src = 511;
    env.tag = 511;
    const auto t0 = Clock::now();
    const auto res = m.arrive(env);
    arrive.push_back(since(t0) * 1e9);
    if (!res.match) throw std::logic_error("matcher probe: no match");
  }

  ib::RegistrationCache rc(64 << 20, 4096, sim::Time::us(25), sim::Time::us(1),
                           sim::Time::us(15), sim::Time::us(0.55));
  const std::uint64_t buf = ib::logical_buffer(true, 1, 0, 0);
  (void)rc.acquire(buf, 8192);
  const double hit_ns = probe(15, 200000, [&](int n) {
    for (int i = 0; i < n; ++i) (void)rc.acquire(buf, 8192);
  });

  Line()
      .str("type", "probes")
      .num("sim.fiber.switch_ns", switch_ns)
      .num("sim.event_post_ns", post_ns)
      .num("net.fabric.chunk_ns", chunk_ns)
      .num("mpi.matcher.arrive512_ns", median(arrive))
      .num("ib.regcache.hit_ns", hit_ns)
      .print();
}

/// VmHWM of this process.  getrusage's ru_maxrss is not used: Linux carries
/// it over exec, so it would report the launching process's size whenever
/// that is larger.
[[nodiscard]] double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kb = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  if (kb <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kb / 1024.0;
}

[[nodiscard]] std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int main_impl(int argc, char** argv) {
  std::string points_arg, spans_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int min_passes = 1;
  bool probes = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--points") points_arg = value();
    else if (a == "--seed") seed = std::stoull(value());
    else if (a == "--seconds") seconds = std::stod(value());
    else if (a == "--min-passes") min_passes = to_int(value());
    else if (a == "--spans") spans_path = value();
    else if (a == "--probes") probes = true;
    else throw std::invalid_argument("unknown argument: " + a);
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ICSIM_", 6) == 0) {
      throw std::invalid_argument(std::string("refusing to run with ") + *e +
                                  " set: it changes what runs");
    }
  }
  const std::vector<std::string> points = split(points_arg, ',');
  if (points.empty()) throw std::invalid_argument("no points given");

  Line()
      .str("type", "meta")
      .str("compiler", compiler())
      .str("build_type", PERF_BUILD_TYPE)
      .u64("traced", PERF_TRACED)
      .u64("nproc", std::thread::hardware_concurrency())
      .u64("par_threads", kParThreads)
      .num("host_ref_nominal_s", perf::kHostRefNominalS)
      .print();
  if (probes) run_probes();
  (void)perf::host_ref_chunk();  // builds the reference's state and warms it

  const auto start = Clock::now();
  int failed = 0;
  double last_pass_s = 0.0;
  for (int pass = 0; pass < min_passes || since(start) + last_pass_s <= seconds;
       ++pass) {
    const auto pass_start = Clock::now();
    double ref_before = perf::host_ref_chunk();
    for (std::size_t i = 0; i < points.size(); ++i) {
      const int id = static_cast<int>(i);
      Line l;
      l.str("type", "point").u64("pass", static_cast<std::uint64_t>(pass))
          .str("point", points[i]);
      try {
        PointResult r = run_point(points[i], seed, id);
        const double ref_after = perf::host_ref_chunk();
        l.num("setup_s", r.setup_s)
            .num("wall_s", r.wall_s)
            .num("ref_s", 0.5 * (ref_before + ref_after))
            .u64("events", r.events)
            .str("digest", hex(r.digest))
            .raw("out", r.out.text())
            .raw("counts", r.counts.text());
        ref_before = ref_after;
      } catch (const std::exception& e) {
        ++failed;
        l.str("error", e.what());
      }
#if PERF_TRACED
      l.raw("layers", perf::trace_take_point());
#endif
      l.print();
    }
    last_pass_s = since(pass_start);
  }
#if PERF_TRACED
  if (!spans_path.empty() && !perf::trace_write_spans(spans_path)) {
    throw std::runtime_error("cannot write " + spans_path);
  }
#endif
  Line()
      .str("type", "end")
      .num("peak_rss_mb", peak_rss_mb())
      .num("elapsed_s", since(start))
      .u64("failed", static_cast<std::uint64_t>(failed))
      .print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "icsim_perf: %s\n", e.what());
    return 2;
  }
}
