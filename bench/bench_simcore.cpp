// google-benchmark microbenchmarks of the simulator substrate itself:
// event-queue throughput, fiber context switching, fabric packet rate,
// matcher scans and registration-cache operations.  These guard the
// harness's own performance — a full Figure 3 reproduction schedules tens
// of millions of events.

#include <benchmark/benchmark.h>

#include "core/calibration.hpp"
#include "ib/reg_cache.hpp"
#include "mpi/matcher.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace {

using namespace icsim;

void BM_EventSchedule(benchmark::State& state) {
  sim::Engine e;
  std::int64_t t = 0;
  for (auto _ : state) {
    e.schedule_at(sim::Time::ps(++t), [] {});
    if (t % 1024 == 0) e.run();
  }
  e.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventSchedule);

// The handle-free fast path (no cancellation tombstone allocated): what
// every internal model callback uses.
void BM_EventPost(benchmark::State& state) {
  sim::Engine e;
  std::int64_t t = 0;
  for (auto _ : state) {
    e.post_at(sim::Time::ps(++t), [] {});
    if (t % 1024 == 0) e.run();
  }
  e.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventPost);

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine e;
    for (int i = 0; i < 4096; ++i) {
      e.schedule_at(sim::Time::ps(i), [] {});
    }
    state.ResumeTiming();
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EventDispatch);

// Post + dispatch of a 72-byte closure shaped like net::Fabric::forward's
// per-hop continuation (owner pointer, route, hop index, next hop's link
// slot, bytes, DeliveryFn): the hottest closure in a fabric run, and the
// one that sizes the engine's inline closure buffer.
void BM_EventPostHop(benchmark::State& state) {
  sim::Engine e;
  std::int64_t t = 0;
  std::uint64_t sink = 0;
  const net::Route route{};
  for (auto _ : state) {
    net::DeliveryFn done = [&sink](net::DeliveryStatus s) {
      sink += static_cast<std::uint64_t>(s);
    };
    auto hop = [&sink, route, index = static_cast<int>(t & 1),
                next_part = 0, next_slot = static_cast<std::uint32_t>(t & 7),
                bytes = std::uint32_t{2048}, done = std::move(done)]() mutable {
      if (index + 1 == route.hops()) {
        done(net::DeliveryStatus::delivered);
      } else {
        sink += static_cast<std::uint64_t>(route.hops() + index + next_part) +
                next_slot + bytes;
      }
    };
    static_assert(sizeof(hop) == 72, "shaped like the fabric hop closure");
    e.post_at(sim::Time::ps(++t), std::move(hop));
    if (t % 1024 == 0) e.run();
  }
  e.run();
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventPostHop);

// Schedule a cancellable event, cancel it, and drop it when its time comes:
// the MPI watchdog pattern.
void BM_EventScheduleCancel(benchmark::State& state) {
  sim::Engine e;
  std::int64_t t = 0;
  for (auto _ : state) {
    sim::EventHandle h = e.schedule_at(sim::Time::ps(++t), [] {});
    h.cancel();
    if (t % 1024 == 0) e.run();
  }
  e.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventScheduleCancel);

void BM_FiberSwitch(benchmark::State& state) {
  sim::Fiber f([] {
    for (;;) sim::Fiber::yield();
  });
  for (auto _ : state) {
    f.resume();
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two switches each
}
BENCHMARK(BM_FiberSwitch);

void BM_FabricChunk(benchmark::State& state) {
  sim::Engine e;
  net::FabricConfig cfg;
  cfg.radix_down = 4;
  cfg.levels = 3;
  net::Fabric f(e, cfg, 64);
  int i = 0;
  for (auto _ : state) {
    f.inject(i % 64, (i + 17) % 64, 2048, nullptr);
    ++i;
    if (i % 256 == 0) e.run();
  }
  e.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricChunk);

// The same on a calibrated tree the size of the parallel tier's largest
// runs (Arg 0: IB's radix-12 tree, 1: Elan's radix-4 tree; Arg 1: nodes),
// where a fabric holds thousands of links.  Destinations are a fixed
// scatter, so most chunks climb to the top level.  The fabric is built
// before timing; its links are created during the first iterations.
void BM_FabricChunkTree(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(1));
  sim::Engine e;
  net::Fabric f(e,
                state.range(0) == 0 ? core::ib_fabric(nodes)
                                    : core::elan_fabric(nodes),
                nodes);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto src = static_cast<int>(i % static_cast<std::uint64_t>(nodes));
    const auto hop = static_cast<int>(
        1 + (i * 2654435761u >> 7) % static_cast<std::uint64_t>(nodes - 1));
    f.inject(src, (src + hop) % nodes, 2048, nullptr);
    ++i;
    if (i % 256 == 0) e.run();
  }
  e.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricChunkTree)->Args({0, 4096})->Args({1, 4096});

void BM_MatcherArrivePosted(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    mpi::Matcher m;
    for (int i = 0; i < depth; ++i) {
      mpi::PostedRecv r;
      r.src = i;
      r.tag = i;
      r.id = static_cast<std::uint64_t>(i);
      (void)m.post(r);
    }
    mpi::Envelope e;
    e.src = depth - 1;
    e.tag = depth - 1;
    state.ResumeTiming();
    benchmark::DoNotOptimize(m.arrive(e));
  }
}
BENCHMARK(BM_MatcherArrivePosted)->Arg(8)->Arg(64)->Arg(512);

void BM_RegCacheHit(benchmark::State& state) {
  ib::RegistrationCache c(64 << 20, 4096, sim::Time::us(25), sim::Time::us(1),
                          sim::Time::us(15), sim::Time::us(0.55));
  const std::uint64_t buf = ib::logical_buffer(true, 1, 0, 0);
  (void)c.acquire(buf, 8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.acquire(buf, 8192));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegCacheHit);

}  // namespace

BENCHMARK_MAIN();
