// Fixed reference work for host-speed scaling; see host_ref.hpp.  Every
// structure is built once, on the first call, so a chunk allocates nothing
// and does the same work every time.

#include "host_ref.hpp"

#include <ucontext.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perf {
namespace {

using Clock = std::chrono::steady_clock;

struct Xorshift {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// LJ-style pair loop over a fixed neighbour list (floating point, L2-sized).
struct PairLoop {
  static constexpr int kAtoms = 1024, kNeighbours = 32;
  std::vector<double> x, f;
  std::vector<int> nb;

  PairLoop() : x(3 * kAtoms), f(3 * kAtoms), nb(kAtoms * kNeighbours) {
    Xorshift g;
    for (double& v : x) v = static_cast<double>(g.next() % 20000) * 1e-3;
    for (int& j : nb) j = static_cast<int>(g.next() % kAtoms);
  }
  double sweep() {
    double e = 0.0;
    for (int i = 0; i < kAtoms; ++i) {
      double fx = 0.0, fy = 0.0, fz = 0.0;
      for (int k = 0; k < kNeighbours; ++k) {
        const int j = nb[i * kNeighbours + k];
        const double dx = x[3 * i] - x[3 * j], dy = x[3 * i + 1] - x[3 * j + 1],
                     dz = x[3 * i + 2] - x[3 * j + 2];
        const double r2 = dx * dx + dy * dy + dz * dz + 0.5;
        const double r6 = 1.0 / (r2 * r2 * r2);
        const double ff = r6 * (r6 - 0.5) / r2;
        fx += dx * ff;
        fy += dy * ff;
        fz += dz * ff;
        e += r6;
      }
      f[3 * i] = fx;
      f[3 * i + 1] = fy;
      f[3 * i + 2] = fz;
    }
    return e;
  }
};

/// Discrete-event style binary heap of (time, callback); a popped event
/// schedules its successor, so the heap size stays fixed.
struct EventHeap {
  using Event = std::pair<std::uint64_t, std::function<void()>>;
  static constexpr int kEvents = 4096;
  std::vector<Event> heap;
  std::uint64_t now = 0, acc = 0;
  Xorshift g;

  static bool later(const Event& a, const Event& b) { return a.first > b.first; }
  void push(std::uint64_t t, std::uint64_t v) {
    heap.emplace_back(t, [this, v] { acc += v; });
    std::push_heap(heap.begin(), heap.end(), later);
  }
  EventHeap() {
    heap.reserve(kEvents + 1);
    for (int i = 0; i < kEvents; ++i) push(g.next() % 1000, static_cast<std::uint64_t>(i));
  }
  void step(int n) {
    for (int i = 0; i < n; ++i) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Event ev = std::move(heap.back());
      heap.pop_back();
      now = ev.first;
      ev.second();
      push(now + g.next() % 1000, now);
    }
  }
};

/// ucontext ping-pong with one coroutine.
struct Switcher {
  static constexpr std::size_t kStack = 64 * 1024;
  std::vector<char> stack = std::vector<char>(kStack);
  ucontext_t caller{}, callee{};

  static void body(unsigned hi, unsigned lo) {
    auto* self = reinterpret_cast<Switcher*>((static_cast<std::uintptr_t>(hi) << 32) | lo);
    for (;;) ::swapcontext(&self->callee, &self->caller);
  }
  Switcher() {
    if (::getcontext(&callee) != 0) throw std::runtime_error("host_ref: getcontext failed");
    callee.uc_stack.ss_sp = stack.data();
    callee.uc_stack.ss_size = stack.size();
    callee.uc_link = nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(this);
    ::makecontext(&callee, reinterpret_cast<void (*)()>(&Switcher::body), 2,
                  static_cast<unsigned>(p >> 32), static_cast<unsigned>(p & 0xffffffffu));
  }
  void round_trips(int n) {
    for (int i = 0; i < n; ++i) ::swapcontext(&caller, &callee);
  }
};

/// Lookups and updates of existing keys in a hash map (no rehash, no
/// allocation after set-up).
struct HashLookups {
  static constexpr std::uint64_t kKeys = 1 << 17;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  Xorshift g;

  HashLookups() {
    map.reserve(kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k) map.emplace(k * 0x9e3779b1ull, k);
  }
  void touch(int n) {
    for (int i = 0; i < n; ++i) ++map.find((g.next() % kKeys) * 0x9e3779b1ull)->second;
  }
};

struct Reference {
  PairLoop pairs;
  EventHeap events;
  Switcher switcher;
  HashLookups lookups;
  volatile double sink = 0.0;

  void chunk() {
    double e = 0.0;
    for (int i = 0; i < 45; ++i) e += pairs.sweep();
    events.step(50000);
    switcher.round_trips(10000);
    lookups.touch(400000);
    sink = e + static_cast<double>(events.acc + lookups.map.size());
  }
};

}  // namespace

double host_ref_chunk() {
  static Reference ref;
  const auto t0 = Clock::now();
  ref.chunk();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perf
