#include "net/partition.hpp"

#include <stdexcept>

namespace icsim::net {

Partitioning make_partitioning(const FatTreeTopology& topo, int num_nodes,
                               int parts) {
  if (num_nodes < 1) {
    throw std::invalid_argument("make_partitioning: need at least one node");
  }
  if (num_nodes > topo.capacity()) {
    throw std::invalid_argument(
        "make_partitioning: more nodes than the tree can attach");
  }
  if (parts < 1) parts = 1;

  // Leaf switches that actually have nodes attached.  Nodes attach densely
  // from word 0 (node x sits under leaf word x / k), so the populated leaf
  // range is [0, populated_leaves).
  const int k = topo.radix();
  const int populated_leaves = (num_nodes + k - 1) / k;
  if (parts > populated_leaves) parts = populated_leaves;
  if (parts > num_nodes) parts = num_nodes;

  Partitioning p;
  p.parts = parts;
  p.leaves_per_part = populated_leaves / parts;
  if (p.leaves_per_part < 1) p.leaves_per_part = 1;
  p.node_part.resize(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    p.node_part[static_cast<std::size_t>(n)] =
        p.of_word(topo.leaf_switch_of(n).word);
  }
  return p;
}

}  // namespace icsim::net
