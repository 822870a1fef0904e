#pragma once
// Spatial partitioning of a fat tree for a partitioned fabric (fabric.hpp),
// as the conservative parallel engine (src/par/) runs it.
//
// The cluster's nodes and switches are split into P contiguous slices by
// leaf-switch word: partition(w) = min(w / leaves_per_part, P - 1), and a
// node belongs to the partition of its leaf switch.  Upper-level switches
// inherit the partition of their word value (words at every level share the
// same n-1 digit space), so the mapping is a pure function of the topology
// and P — never of thread count, host, or environment.  That invariance is
// what lets the parallel engine promise a byte-identical event digest for
// any number of worker threads (docs/MODEL.md section 14).
//
// Node/leaf alignment is the load-bearing property: a node and its leaf
// switch are always co-located, so the endpoint hops of every route
// (node_to_switch, switch_to_node) are partition-internal.  Only
// switch-to-switch traversals can cross partitions, and each of those
// carries at least wire_latency + switch_latency of simulated delay — the
// engine's lookahead (Fabric::lookahead_of).

#include <vector>

#include "net/topology.hpp"

namespace icsim::net {

/// The node/switch -> partition map.  Built once per run by
/// make_partitioning(); all queries are O(1) table lookups.
struct Partitioning {
  int parts = 1;                ///< P, the number of partitions
  int leaves_per_part = 1;      ///< leaf words per slice (last slice larger)
  std::vector<int> node_part;   ///< node id -> partition

  /// Partition owning leaf/upper switch word `w`.
  [[nodiscard]] int of_word(std::uint32_t w) const {
    const int p = static_cast<int>(w) / leaves_per_part;
    return p < parts ? p : parts - 1;
  }
  [[nodiscard]] int of_node(int node) const {
    return node_part[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] int of_switch(SwitchCoord c) const { return of_word(c.word); }

  /// Partition that owns (and therefore serializes) a directed hop: the
  /// transmitter side.  Endpoint hops belong to the node's partition; a
  /// switch-to-switch hop belongs to the sending switch's partition.
  [[nodiscard]] int owner(const Hop& hop) const {
    switch (hop.kind) {
      case Hop::Kind::node_to_switch:
      case Hop::Kind::switch_to_node:
        return of_node(hop.node);
      case Hop::Kind::switch_to_switch:
        return of_word(hop.from.word);
    }
    return 0;  // unreachable
  }
};

/// Build the partition map for `num_nodes` endpoints of `topo`, aiming for
/// `parts` slices.  The effective count is clamped to the number of leaf
/// switches actually populated (one slice cannot be thinner than one leaf)
/// and to num_nodes; it is deterministic given (topo, num_nodes, parts).
[[nodiscard]] Partitioning make_partitioning(const FatTreeTopology& topo,
                                             int num_nodes, int parts);

}  // namespace icsim::net
