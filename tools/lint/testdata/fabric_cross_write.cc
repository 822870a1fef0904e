// Detection fixture for the partitioned-tier predicate of the
// cross-shard-conformance pass.  The file lives outside src/par/ and has
// no par_ prefix — the shape of the partitioned net::Fabric — but it hands
// work across partitions with post_cross, so it is partitioned-tier code
// and its shard-site writes must be indexed by the executing partition.
// The post_cross delay below is lookahead-bearing, so the only
// cross-shard-conformance finding is the neighbour-slot write.
//
// Never compiled — exists for `lint_detects_fabric_cross_write`.
#include <cstdint>
#include <vector>

#include "par/par_engine.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace fixture {

// Per-partition delivery counters: `shard` in the manifest.
std::vector<std::uint64_t> g_delivered;

// Reached from the handler below; credits the *next* partition's slot.
void count_delivery(std::uint32_t self) { g_delivered[self + 1] += 1; }

void arm(icsim::sim::Engine& engine, std::uint32_t self) {
  engine.post_in(icsim::sim::Time::us(1), [self] { count_delivery(self); });
}

// A hop into another partition, one wire + switch latency ahead.
void hand_off(icsim::par::ParEngine& eng, std::uint32_t from, std::uint32_t to,
              icsim::sim::Time tx_done, icsim::sim::Time wire_latency,
              icsim::sim::Time switch_latency) {
  const icsim::sim::Time arrival = tx_done + wire_latency + switch_latency;
  eng.post_cross(from, to, arrival, [] {});
}

}  // namespace fixture
