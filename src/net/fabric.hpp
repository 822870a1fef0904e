#pragma once
// Packet-level message fabric over a fat tree.
//
// A chunk carries its route as a value (topology.hpp's Route) plus the
// index of the hop it is on, and asks the topology for that hop when it
// gets there.  Directed links are created on first use and kept by value in
// their shard's link store.  A hop finds its link through a slot computed
// arithmetically from the hop (Fabric::locate), never by a lookup, and the
// continuation carries the next hop's slot, so each hop is computed once.
// Nothing else is allocated per chunk or per hop beyond the event closures.
//
// Switches are modeled as output-queued crossbars: each directed link owns a
// FIFO serialization resource (the output queue + transmitter), and each
// switch traversal charges a fixed pipeline latency.  A message is injected
// by the NIC models in chunks; each chunk flows hop-by-hop, so chunks of a
// long message pipeline across the route while competing flows interleave on
// shared links.  Per-packet wire headers are charged as a bandwidth
// efficiency factor: a chunk's serialization time covers
// payload + ceil(payload / mtu) * header_bytes.
//
// The fabric carries no payload bytes — data movement is performed by the
// transport layers at delivery time — so it is a pure timing model.
//
// The same model runs partitioned for the conservative parallel engine
// (src/par/): every directed link lives in the partition that owns its
// transmitter (partition.hpp) and is served by that partition's engine.  A
// hop whose link belongs to another partition is handed over with the
// caller's post_cross, always carrying wire_latency + switch_latency of
// simulated delay — exactly lookahead_of(), the engine's window width.
// Counters are kept per partition (one writer each during a run) and only
// summed by the accessors.  The serial fabric is the one-partition case.
//
// Cable failures are down windows (LinkDownWindow) evaluated at simulated
// time: a blocked default route is rerouted at injection, and a chunk that
// reaches a link inside a window mid-flight is dropped.  Being pure
// functions of time, windows are race-free across partitions.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"
#include "trace/metrics.hpp"

namespace icsim::net {

struct FabricConfig {
  int radix_down = 4;  ///< k of the k-ary n-tree
  int levels = 3;      ///< n
  sim::Bandwidth link_bandwidth = sim::Bandwidth::gb_per_sec(1.0);
  sim::Time switch_latency = sim::Time::ns(100);  ///< per switch traversal
  sim::Time wire_latency = sim::Time::ns(20);     ///< per link propagation
  std::uint32_t mtu_bytes = 2048;                 ///< wire packet payload
  std::uint32_t header_bytes = 32;                ///< per wire packet
};

/// Link goes down at `down`; comes back at `up`, or stays down forever when
/// `up <= down`.
struct LinkDownWindow {
  LinkRef link;
  sim::Time down = sim::Time::zero();
  sim::Time up = sim::Time::zero();

  [[nodiscard]] bool active_at(sim::Time t) const {
    return t >= down && (up <= down || t < up);
  }
};

/// What a partitioned fabric runs on: the partition map, one engine per
/// partition, and the hand-off that moves a hop's continuation into
/// another partition (par::ParEngine::post_cross).
struct FabricPartitions {
  Partitioning map;
  std::vector<sim::Engine*> engines;  ///< engines[p] runs partition p
  /// Run `fn` at absolute time `t` in partition `to`; called from event
  /// code running in partition `from`.  The hop continuation travels
  /// inline in the sim::EventFn, never on the heap.
  std::function<void(int from, int to, sim::Time t, sim::EventFn fn)> post_cross;
};

/// How a chunk's trip through the fabric ended.
enum class DeliveryStatus : std::uint8_t {
  delivered,  ///< last byte reached the destination endpoint
  corrupted,  ///< failed a link-level CRC and was discarded by a switch/NIC
  link_down,  ///< hit (or could not route around) a downed link
};

using DeliveryFn = std::function<void(DeliveryStatus)>;

/// Fault-model callbacks the fabric consults at serialization points.  Kept
/// abstract so net/ does not depend on fault/ (the injector implements it).
class FaultHooks {
 public:
  virtual ~FaultHooks() = default;
  /// Bit-error rate in effect on the (undirected) link this hop traverses.
  [[nodiscard]] virtual double link_ber(const Hop& hop) const = 0;
  /// Draw whether a wire packet train of `wire_bytes` survives a link with
  /// bit-error rate `ber` (> 0).  Consumes deterministic RNG state.
  virtual bool draw_corruption(double ber, std::uint64_t wire_bytes) = 0;
};

class Fabric {
 public:
  /// The serial fabric: one partition on `engine`.
  Fabric(sim::Engine& engine, const FabricConfig& config, int num_nodes);
  /// A partitioned fabric; `parts.map.parts` must equal the engine count.
  Fabric(FabricPartitions parts, const FabricConfig& config, int num_nodes);

  /// The conservative lookahead a partitioned fabric supports: the minimum
  /// simulated delay of any cross-partition hop (wire propagation +
  /// entering the next switch).  ParEngine must be built with this value.
  [[nodiscard]] static sim::Time lookahead_of(const FabricConfig& config) {
    return config.wire_latency + config.switch_latency;
  }

  /// Inject one chunk of `bytes` payload; `on_complete` fires when the last
  /// byte reaches the destination endpoint (DeliveryStatus::delivered) or
  /// when the chunk is lost on the way (corrupted / link_down).  Returns the
  /// time at which the source link finishes serializing the chunk (NICs use
  /// this to pace DMA).  src == dst is not routed here; transports loop back
  /// locally.  The return is advisory — terminal status arrives via
  /// `on_complete`.  Partitioned, inject from event code running in src's
  /// partition; `on_complete` runs in the partition where the chunk ends
  /// (dst's, when delivered).
  sim::Time inject(int src, int dst, std::uint32_t bytes,  // icsim-lint: allow(nodiscard-time)
                   DeliveryFn on_complete);

  /// Install (or clear, with nullptr) the fault hooks.  Hooks are borrowed
  /// and must outlive the fabric; installing refreshes the cached per-link
  /// BER of every link seen so far.  Corruption draws share one RNG stream,
  /// so a partitioned fabric refuses hooks.
  void set_fault_hooks(FaultHooks* hooks);

  /// Install the cable down windows (replacing any earlier set).  Install
  /// before the run starts; every partition reads them.  Throws
  /// std::invalid_argument on a link the tree does not have.
  void set_link_windows(std::vector<LinkDownWindow> windows);
  /// Is the (undirected) cable this hop traverses inside a down window at
  /// simulated time `t`?
  [[nodiscard]] bool link_down_at(const Hop& hop, sim::Time t) const;
  /// Throw std::invalid_argument unless `link` is a cable of this fabric.
  void check_link(const LinkRef& link) const;

  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] const FatTreeTopology& topology() const { return topo_; }
  [[nodiscard]] const FabricConfig& config() const { return cfg_; }
  [[nodiscard]] const Partitioning& partitioning() const { return part_.map; }

  // Counters sum the per-partition state: read them only when no
  // partition is running.

  /// Total chunks injected (for instrumentation).
  [[nodiscard]] std::uint64_t chunks_sent() const { return sum(&Shard::chunks); }
  [[nodiscard]] std::uint64_t chunks_delivered() const {
    return sum(&Shard::delivered);
  }
  [[nodiscard]] std::uint64_t chunks_corrupted() const {
    return sum(&Shard::corrupted);
  }
  [[nodiscard]] std::uint64_t chunks_dropped_link_down() const {
    return sum(&Shard::down_drops);
  }
  /// Chunks whose default D-mod-k route was blocked and that took an
  /// alternate climb instead.
  [[nodiscard]] std::uint64_t chunks_rerouted() const {
    return sum(&Shard::rerouted);
  }
  /// Chunks dropped at injection because no fully-up route existed.
  [[nodiscard]] std::uint64_t chunks_no_route() const {
    return sum(&Shard::no_route_drops);
  }

  /// Chunks injected but not yet delivered or dropped.
  [[nodiscard]] std::uint64_t chunks_in_flight() const {
    return sum(&Shard::in_flight);
  }

  /// ICSIM_CHECK audit once the event queue has drained: chunk and payload-
  /// byte conservation (injected == delivered + corrupted + dropped, with
  /// nothing left in flight).  A violation means the fabric leaked or
  /// double-counted a chunk.  No-op when the auditor is off.
  void audit_drained() const;

  /// Serialization time of a chunk including per-MTU header overhead.
  [[nodiscard]] sim::Time serialization_time(std::uint32_t bytes) const;

  /// Busy-time observed on the most utilized link (contention diagnostics).
  [[nodiscard]] sim::Time max_link_busy_time() const;

  /// Fold per-link utilization/traffic into `m` ("net.link_utilization"
  /// samples one value per directed link; utilization = busy / elapsed).
  void publish_metrics(trace::MetricsRegistry& m, sim::Time elapsed) const;

  /// Where a directed hop's link lives: the partition that owns its
  /// transmitter, and the hop's slot in that partition's link table.
  struct LinkSlot {
    int part = 0;
    std::uint32_t slot = 0;
  };
  /// The slot of `hop`, computed from the hop alone: an endpoint hop's from
  /// its node, a switch hop's from the sending switch's (word, level) and
  /// the port digit of the receiving switch's word.  Every directed hop of
  /// a minimal route of this fabric gets its own slot below
  /// link_slots(part).
  [[nodiscard]] LinkSlot locate(const Hop& hop) const;
  /// Size of partition `part`'s link table.
  [[nodiscard]] std::size_t link_slots(int part) const {
    return shards_[static_cast<std::size_t>(part)].slots.size();
  }

 private:
  struct DirectedLink {
    DirectedLink(sim::Engine& e, std::string name, Hop h)
        : tx(e, std::move(name)), hop(h) {}
    sim::FifoResource tx;
    Hop hop;                     ///< the hop this link serializes
    double ber = 0.0;            ///< cached from the fault hooks
    std::uint32_t corrupted = 0;
    std::uint32_t trace_id = 0;  ///< lazily registered trace component
  };
  /// The switch-to-switch ports of one tree level in a shard's link table:
  /// `words` switches from the shard's `first_word` on, each with `ports`
  /// slots (its down ports, then its up ports from `up_port`), starting at
  /// `base`.
  struct LevelSlots {
    std::uint32_t words = 0;
    std::uint32_t ports = 0;
    std::uint32_t up_port = 0;
    std::uint32_t base = 0;
  };
  /// One partition's links and counters, touched only by event code
  /// running in that partition.
  struct alignas(64) Shard {
    /// Links by value in creation order; a deque, so they never move.
    std::deque<DirectedLink> links;
    /// Slot (locate()) -> 1 + index into `links`; 0 until the link is
    /// first used.  Slots [0, 2 * nodes) are the endpoint links of the
    /// shard's nodes from `first_node` on (node->switch, then switch->node);
    /// `levels` lays out the switch ports after them.  Only the words a
    /// minimal route can reach are covered, not the tree's capacity.
    std::vector<std::uint32_t> slots;
    std::vector<LevelSlots> levels;
    int first_node = 0;
    std::uint32_t first_word = 0;  ///< first switch word the shard owns
    std::uint64_t chunks = 0;
    std::uint64_t delivered = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t down_drops = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t no_route_drops = 0;
    // Conservation bookkeeping for the ICSIM_CHECK drain audit.  A chunk
    // is counted in flight by its source partition and retired by the one
    // it ends in, so only the sum over partitions returns to zero.
    std::uint64_t in_flight = 0;
    std::uint64_t bytes_injected = 0;   ///< payload bytes entering the fabric
    std::uint64_t bytes_delivered = 0;  ///< payload bytes reaching endpoints
    std::uint64_t bytes_dropped = 0;    ///< payload bytes lost (CRC/link-down)
  };

  /// Partition owning (and serializing) a hop; free on the serial fabric.
  [[nodiscard]] int owner(const Hop& hop) const {
    return part_.map.parts == 1 ? 0 : part_.map.owner(hop);
  }
  [[nodiscard]] sim::Engine& engine(int p) const {
    return *part_.engines[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::uint64_t sum(std::uint64_t Shard::*field) const;

  /// Lay out every shard's slot table (constructor).
  void size_link_tables();
  // The order every link traversal follows, so that order-sensitive
  // metrics (RunningStat) do not depend on creation order.  Bit 63 set =>
  // endpoint link (node id in low bits, bit 62 selects direction);
  // otherwise (from_switch_id << 31) | to_switch_id.
  [[nodiscard]] std::uint64_t order_key(const Hop& hop) const;
  /// Indices into `sh.links` in order_key() order.
  [[nodiscard]] std::vector<std::uint32_t> link_order(const Shard& sh) const;
  [[nodiscard]] std::string link_name(const Hop& hop) const;
  /// Wire bytes of a chunk: payload plus per-MTU-packet headers.
  [[nodiscard]] std::uint64_t wire_bytes(std::uint32_t bytes) const;

  /// Send the chunk over hop `index` of `route`, whose link is at `at`.
  void forward(Route route, int index, LinkSlot at, std::uint32_t bytes,
               DeliveryFn on_complete, sim::Time* first_tx_done);
  void finish(int p, DeliveryFn& on_complete, DeliveryStatus status,
              std::uint32_t bytes);

  FabricPartitions part_;
  std::vector<Shard> shards_;  ///< shards_[p] is partition p's state
  FabricConfig cfg_;
  FatTreeTopology topo_;
  int num_nodes_;
  std::vector<LinkDownWindow> windows_;  ///< immutable during a run
  FaultHooks* hooks_ = nullptr;
};

}  // namespace icsim::net
