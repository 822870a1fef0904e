#pragma once
// Verlet neighbour lists via spatial binning.
//
// Builds a FULL neighbour list (each pair appears in both atoms' lists) for
// owned atoms over owned+ghost positions.  Full lists double the pair
// computation but remove the reverse force communication, as miniMD's
// full-neighbour mode does; the cost model accounts for it.  They also fix
// the order of every atom's force sum; a Newton's-third-law half list would
// reorder those sums and move the trajectory in its last bits.
//
// The build runs in passes: a stable counting sort of all atoms into bins
// of edge >= cutneigh, which also writes bin-ordered x/y/z copies; then,
// per owned atom, the 27-bin stencil as nine contiguous runs of sorted
// slots (bins x-1..x+1 are adjacent in bin order), distance-tested without
// a branch into a stack staging buffer that is then appended to the list.
// candidates_checked is summed per run, not per test.
//
// Bit-identity rule: each atom's list is in stencil order (z, then y, then
// x bins, each bin in ascending atom index); a pair is kept when
// dx*dx + dy*dy + dz*dz <= cutneigh^2, with exactly that expression; and
// candidates_checked counts the stencil's atoms other than the atom
// itself.  tests/test_apps_md.cpp checks the build against the scalar
// reference it replaced.

#include <cstdint>
#include <vector>

#include "apps/lammps/domain.hpp"

namespace icsim::apps::md {

struct NeighborList {
  std::vector<int> first;   ///< CSR offsets, size nlocal+1
  std::vector<int> neigh;   ///< neighbour indices (into the atoms arrays)
  std::uint64_t candidates_checked = 0;  ///< stencil pairs distance-tested
};

/// Build the list for all owned atoms with interaction radius `cutneigh`
/// (= cutoff + skin).  `lo`/`hi` bound the region to bin (local box
/// extended by the ghost shell).
void build_neighbor_list(const Atoms& atoms, double cutneigh,
                         const double lo[3], const double hi[3],
                         NeighborList& list);

/// Split of owned atoms for communication/computation overlap: an atom is
/// "inner" when it is farther than `cutneigh` from every face of the local
/// box, so none of its neighbours can be ghosts.
void classify_inner_atoms(const Atoms& atoms, double cutneigh,
                          const double boxlo[3], const double boxhi[3],
                          std::vector<int>& inner, std::vector<int>& boundary);

}  // namespace icsim::apps::md
