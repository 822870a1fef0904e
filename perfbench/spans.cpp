// Link-time interposers and the span recorder (see spans.hpp).
//
// Time inside a fiber is counted only while that fiber runs: a blocking MPI
// call that yields keeps its span open on the fiber's own stack, and the
// time other fibers and the engine run meanwhile is not charged to it.  So
// for each layer, self time = active time - active time of child spans, and
// the self times of all layers plus the engine's remainder add up to the
// simulation wall time.
//
// The wrappers are declared with the callee's C++ parameter and return
// types, with `this` as the first parameter.  Under the Itanium C++ ABI a
// non-static member function and such a free function pass arguments and
// results the same way (a hidden result pointer precedes `this`), and a
// by-value class parameter is passed as a pointer that the caller owns,
// which is why the std::function parameter of Fabric::inject is forwarded
// by reference.

#include "spans.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/lammps/force.hpp"
#include "apps/lammps/neighbor.hpp"
#include "core/cluster.hpp"
#include "ib/reg_cache.hpp"
#include "mpi/matcher.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "par/par_cluster.hpp"
#include "par/par_engine.hpp"
#include "sim/fiber.hpp"
#include "traffic/workload.hpp"

namespace {

using Ns = std::int64_t;

[[nodiscard]] Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum Layer : std::uint8_t {
  kResume,
  kInject,
  kArrive,
  kPost,
  kAcquire,
  kComputeLj,
  kNeighbor,
  kIsend,
  kIrecv,
  kBarrier,
  kBcast,
  kParRun,
  kClusterCtor,
  kParClusterCtor,
  kWorkloadCtor,
  kLayers,
};

constexpr const char* kLayerName[kLayers] = {
    "sim.fiber.resume",     "net.fabric.inject",      "mpi.matcher.arrive",
    "mpi.matcher.post",     "ib.regcache.acquire",    "apps.md.compute_lj",
    "apps.md.build_neighbor_list", "mpi.api.isend",   "mpi.api.irecv",
    "mpi.api.barrier",      "mpi.api.bcast_bytes",    "par.engine.run",
    "core.cluster.ctor",    "par.cluster.ctor",       "traffic.workload.ctor",
};

struct Open {
  Layer layer;
  std::uint32_t id;
  std::uint32_t parent;
  Ns start;         ///< wall clock
  Ns start_active;  ///< the context's running clock
  Ns child;         ///< active time of closed child spans
};

/// An execution context: the main stack, or one fiber.  A fiber's running
/// clock advances only between its resume and the matching yield.
struct Context {
  std::vector<Open> stack;
  bool fiber = false;
  Ns base = 0;   ///< running time accumulated before the current slice
  Ns in_at = 0;  ///< wall clock when the current slice began
  [[nodiscard]] Ns active(Ns now) const { return fiber ? base + (now - in_at) : now; }
};

struct Totals {
  std::uint64_t calls = 0;
  Ns incl = 0;
  Ns self = 0;
};

struct Record {
  Ns start, end, active;
  std::uint32_t id, parent;
  std::int32_t point;
  Layer layer;
  bool setup;
};

constexpr std::size_t kMaxSpans = 1u << 16;

struct Recorder {
  Context main;
  std::unordered_map<const void*, Context> fibers;
  Context* cur = &main;
  std::uint32_t resume_span = 0;  ///< the open resume: parent of a fiber's outer spans
  std::uint32_t next_id = 1;
  int point = -1;
  bool setup = true;
  Totals totals[2][kLayers];
  Ns fiber_outer[2] = {0, 0};  ///< active time of fibers' outermost spans
  std::vector<Record> spans;
  std::uint64_t dropped = 0;
  Ns epoch = now_ns();
};

Recorder& rec() {
  static Recorder r;
  return r;
}

/// Set on the thread that first marks a phase; other threads never record.
thread_local bool t_recording = false;

class Span {
 public:
  explicit Span(Layer layer) : on_(t_recording) {
    if (!on_) return;
    Recorder& r = rec();
    Context& c = *r.cur;
    const Ns now = now_ns();
    const std::uint32_t parent =
        c.stack.empty() ? (c.fiber ? r.resume_span : 0) : c.stack.back().id;
    c.stack.push_back({layer, r.next_id++, parent, now, c.active(now), 0});
  }
  ~Span() {
    if (!on_) return;
    Recorder& r = rec();
    Context& c = *r.cur;
    const Ns now = now_ns();
    const Open o = c.stack.back();
    c.stack.pop_back();
    const Ns active = c.active(now) - o.start_active;
    Totals& t = r.totals[r.setup ? 0 : 1][o.layer];
    ++t.calls;
    t.incl += active;
    t.self += active - o.child;
    if (!c.stack.empty()) {
      c.stack.back().child += active;
    } else if (c.fiber) {
      r.fiber_outer[r.setup ? 0 : 1] += active;
    }
    if (r.spans.size() < kMaxSpans) {
      r.spans.push_back({o.start - r.epoch, now - r.epoch, active, o.id, o.parent,
                         r.point, o.layer, r.setup});
    } else {
      ++r.dropped;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const {
    return on_ ? rec().cur->stack.back().id : 0;
  }

 private:
  bool on_;
};

/// Makes `fiber` the running context for the duration of one resume.
class SwitchTo {
 public:
  SwitchTo(const void* fiber, std::uint32_t resume_span) : on_(t_recording) {
    if (!on_) return;
    Recorder& r = rec();
    prev_ = r.cur;
    prev_span_ = r.resume_span;
    Context& c = r.fibers[fiber];
    c.fiber = true;
    c.in_at = now_ns();
    r.cur = &c;
    r.resume_span = resume_span;
  }
  ~SwitchTo() {
    if (!on_) return;
    Recorder& r = rec();
    r.cur->base += now_ns() - r.cur->in_at;
    r.cur = prev_;
    r.resume_span = prev_span_;
  }
  SwitchTo(const SwitchTo&) = delete;
  SwitchTo& operator=(const SwitchTo&) = delete;

 private:
  bool on_;
  Context* prev_ = nullptr;
  std::uint32_t prev_span_ = 0;
};

void append_totals(std::string& s, const Totals (&t)[kLayers]) {
  s += '{';
  bool first = true;
  char buf[160];
  for (int i = 0; i < kLayers; ++i) {
    if (t[i].calls == 0) continue;
    std::snprintf(buf, sizeof buf, "%s\"%s\":[%llu,%.9f,%.9f]", first ? "" : ",",
                  kLayerName[i], static_cast<unsigned long long>(t[i].calls),
                  static_cast<double>(t[i].incl) * 1e-9,
                  static_cast<double>(t[i].self) * 1e-9);
    s += buf;
    first = false;
  }
  s += '}';
}

}  // namespace

namespace perf {

void trace_phase(int point, bool setup) {
  t_recording = true;
  Recorder& r = rec();
  r.point = point;
  r.setup = setup;
  if (setup) r.fibers.clear();
}

std::string trace_take_point() {
  Recorder& r = rec();
  for (int p = 0; p < 2; ++p) {
    r.totals[p][kResume].self -= r.fiber_outer[p];
    r.fiber_outer[p] = 0;
  }
  std::string s = "{\"setup\":";
  append_totals(s, r.totals[0]);
  s += ",\"run\":";
  append_totals(s, r.totals[1]);
  s += ",\"spans_dropped\":" + std::to_string(r.dropped) + "}";
  for (auto& phase : r.totals) {
    for (auto& t : phase) t = Totals{};
  }
  return s;
}

bool trace_write_spans(const std::string& path) {
  const Recorder& r = rec();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,point,phase,start_ns,end_ns,active_ns\n");
  for (const Record& s : r.spans) {
    std::fprintf(f, "%s,%u,%u,%d,%s,%lld,%lld,%lld\n", kLayerName[s.layer], s.id,
                 s.parent, s.point, s.setup ? "setup" : "run",
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 static_cast<long long>(s.active));
  }
  std::fprintf(f, "# spans kept %zu, dropped %llu (cap %zu)\n", r.spans.size(),
               static_cast<unsigned long long>(r.dropped), kMaxSpans);
  return std::fclose(f) == 0;
}

}  // namespace perf

// ------------------------------------------------------------- interposers

using namespace icsim;

extern "C" {

void __real__ZN5icsim3sim5Fiber6resumeEv(sim::Fiber* self);
void __wrap__ZN5icsim3sim5Fiber6resumeEv(sim::Fiber* self) {
  const Span span(kResume);
  const SwitchTo sw(self, span.id());
  __real__ZN5icsim3sim5Fiber6resumeEv(self);
}

sim::Time __real__ZN5icsim3net6Fabric6injectEiijSt8functionIFvNS0_14DeliveryStatusEEE(
    net::Fabric* self, int src, int dst, std::uint32_t bytes, net::DeliveryFn& done);
sim::Time __wrap__ZN5icsim3net6Fabric6injectEiijSt8functionIFvNS0_14DeliveryStatusEEE(
    net::Fabric* self, int src, int dst, std::uint32_t bytes, net::DeliveryFn& done) {
  const Span span(kInject);
  return __real__ZN5icsim3net6Fabric6injectEiijSt8functionIFvNS0_14DeliveryStatusEEE(
      self, src, dst, bytes, done);
}

mpi::MatchResult<mpi::PostedRecv> __real__ZN5icsim3mpi7Matcher6arriveERKNS0_8EnvelopeE(
    mpi::Matcher* self, const mpi::Envelope& env);
mpi::MatchResult<mpi::PostedRecv> __wrap__ZN5icsim3mpi7Matcher6arriveERKNS0_8EnvelopeE(
    mpi::Matcher* self, const mpi::Envelope& env) {
  const Span span(kArrive);
  return __real__ZN5icsim3mpi7Matcher6arriveERKNS0_8EnvelopeE(self, env);
}

mpi::MatchResult<mpi::Envelope> __real__ZN5icsim3mpi7Matcher4postERKNS0_10PostedRecvE(
    mpi::Matcher* self, const mpi::PostedRecv& recv);
mpi::MatchResult<mpi::Envelope> __wrap__ZN5icsim3mpi7Matcher4postERKNS0_10PostedRecvE(
    mpi::Matcher* self, const mpi::PostedRecv& recv) {
  const Span span(kPost);
  return __real__ZN5icsim3mpi7Matcher4postERKNS0_10PostedRecvE(self, recv);
}

sim::Time __real__ZN5icsim2ib17RegistrationCache7acquireEmm(ib::RegistrationCache* self,
                                                            std::uint64_t buffer,
                                                            std::uint64_t len);
sim::Time __wrap__ZN5icsim2ib17RegistrationCache7acquireEmm(ib::RegistrationCache* self,
                                                            std::uint64_t buffer,
                                                            std::uint64_t len) {
  const Span span(kAcquire);
  return __real__ZN5icsim2ib17RegistrationCache7acquireEmm(self, buffer, len);
}

void __real__ZN5icsim4apps2md10compute_ljERKNS1_5AtomsERKNS1_12NeighborListERKSt6vectorIiSaIiEEdRNS1_10ForceAccumE(
    const apps::md::Atoms& atoms, const apps::md::NeighborList& list,
    const std::vector<int>& which, double cutoff, apps::md::ForceAccum& f);
void __wrap__ZN5icsim4apps2md10compute_ljERKNS1_5AtomsERKNS1_12NeighborListERKSt6vectorIiSaIiEEdRNS1_10ForceAccumE(
    const apps::md::Atoms& atoms, const apps::md::NeighborList& list,
    const std::vector<int>& which, double cutoff, apps::md::ForceAccum& f) {
  const Span span(kComputeLj);
  __real__ZN5icsim4apps2md10compute_ljERKNS1_5AtomsERKNS1_12NeighborListERKSt6vectorIiSaIiEEdRNS1_10ForceAccumE(
      atoms, list, which, cutoff, f);
}

void __real__ZN5icsim4apps2md19build_neighbor_listERKNS1_5AtomsEdPKdS6_RNS1_12NeighborListE(
    const apps::md::Atoms& atoms, double cutneigh, const double* lo, const double* hi,
    apps::md::NeighborList& list);
void __wrap__ZN5icsim4apps2md19build_neighbor_listERKNS1_5AtomsEdPKdS6_RNS1_12NeighborListE(
    const apps::md::Atoms& atoms, double cutneigh, const double* lo, const double* hi,
    apps::md::NeighborList& list) {
  const Span span(kNeighbor);
  __real__ZN5icsim4apps2md19build_neighbor_listERKNS1_5AtomsEdPKdS6_RNS1_12NeighborListE(
      atoms, cutneigh, lo, hi, list);
}

mpi::Request __real__ZN5icsim3mpi3Mpi5isendEPKvmiii(mpi::Mpi* self, const void* data,
                                                    std::size_t bytes, int dst, int tag,
                                                    int context);
mpi::Request __wrap__ZN5icsim3mpi3Mpi5isendEPKvmiii(mpi::Mpi* self, const void* data,
                                                    std::size_t bytes, int dst, int tag,
                                                    int context) {
  const Span span(kIsend);
  return __real__ZN5icsim3mpi3Mpi5isendEPKvmiii(self, data, bytes, dst, tag, context);
}

mpi::Request __real__ZN5icsim3mpi3Mpi5irecvEPvmiii(mpi::Mpi* self, void* data,
                                                   std::size_t capacity, int src, int tag,
                                                   int context);
mpi::Request __wrap__ZN5icsim3mpi3Mpi5irecvEPvmiii(mpi::Mpi* self, void* data,
                                                   std::size_t capacity, int src, int tag,
                                                   int context) {
  const Span span(kIrecv);
  return __real__ZN5icsim3mpi3Mpi5irecvEPvmiii(self, data, capacity, src, tag, context);
}

void __real__ZN5icsim3mpi3Mpi7barrierEv(mpi::Mpi* self);
void __wrap__ZN5icsim3mpi3Mpi7barrierEv(mpi::Mpi* self) {
  const Span span(kBarrier);
  __real__ZN5icsim3mpi3Mpi7barrierEv(self);
}

void __real__ZN5icsim3mpi3Mpi11bcast_bytesEPvmi(mpi::Mpi* self, void* data,
                                                std::size_t bytes, int root);
void __wrap__ZN5icsim3mpi3Mpi11bcast_bytesEPvmi(mpi::Mpi* self, void* data,
                                                std::size_t bytes, int root) {
  const Span span(kBcast);
  __real__ZN5icsim3mpi3Mpi11bcast_bytesEPvmi(self, data, bytes, root);
}

void __real__ZN5icsim3par9ParEngine3runEv(par::ParEngine* self);
void __wrap__ZN5icsim3par9ParEngine3runEv(par::ParEngine* self) {
  const Span span(kParRun);
  __real__ZN5icsim3par9ParEngine3runEv(self);
}

void __real__ZN5icsim4core7ClusterC1ERKNS0_13ClusterConfigE(core::Cluster* self,
                                                          const core::ClusterConfig& cfg);
void __wrap__ZN5icsim4core7ClusterC1ERKNS0_13ClusterConfigE(core::Cluster* self,
                                                          const core::ClusterConfig& cfg) {
  const Span span(kClusterCtor);
  __real__ZN5icsim4core7ClusterC1ERKNS0_13ClusterConfigE(self, cfg);
}

void __real__ZN5icsim3par10ParClusterC1ERKNS_4core13ClusterConfigEi(
    par::ParCluster* self, const core::ClusterConfig& cfg, int partitions);
void __wrap__ZN5icsim3par10ParClusterC1ERKNS_4core13ClusterConfigEi(
    par::ParCluster* self, const core::ClusterConfig& cfg, int partitions) {
  const Span span(kParClusterCtor);
  __real__ZN5icsim3par10ParClusterC1ERKNS_4core13ClusterConfigEi(self, cfg, partitions);
}

void __real__ZN5icsim7traffic8WorkloadC1ERKNS0_13TrafficConfigENS_4core7NetworkEi(
    traffic::Workload* self, const traffic::TrafficConfig& cfg, core::Network net,
    int ranks);
void __wrap__ZN5icsim7traffic8WorkloadC1ERKNS0_13TrafficConfigENS_4core7NetworkEi(
    traffic::Workload* self, const traffic::TrafficConfig& cfg, core::Network net,
    int ranks) {
  const Span span(kWorkloadCtor);
  __real__ZN5icsim7traffic8WorkloadC1ERKNS0_13TrafficConfigENS_4core7NetworkEi(
      self, cfg, net, ranks);
}

}  // extern "C"
