#pragma once
// Force kernels: truncated Lennard-Jones pairs and harmonic chain bonds.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "apps/lammps/domain.hpp"
#include "apps/lammps/neighbor.hpp"

namespace icsim::apps::md {

struct ForceAccum {
  std::vector<double> fx, fy, fz;  ///< sized nall; only locals meaningful
  double potential = 0.0;          ///< this rank's share (half per pair)
  std::uint64_t pair_evals = 0;
  std::uint64_t bond_evals = 0;

  void reset(int nall) {
    fx.assign(static_cast<std::size_t>(nall), 0.0);
    fy.assign(static_cast<std::size_t>(nall), 0.0);
    fz.assign(static_cast<std::size_t>(nall), 0.0);
    potential = 0.0;
    pair_evals = 0;
    bond_evals = 0;
  }
};

/// LJ 12-6 with energy shift at the cutoff, evaluated from a full
/// neighbour list for the owned atoms listed in `which` (pass all locals,
/// or the inner/boundary split for overlapped runs).
///
/// Each atom's list is walked in stack-held blocks, in three passes: gather
/// the displacements, keeping the pairs with rsq < cutoff^2 in list order;
/// compute every kept pair's force and energy terms (independent, so that
/// loop vectorises); then add the terms serially in list order.
///
/// Bit-identity rule: fx/fy/fz of atom i and `potential` receive exactly
/// the terms, in exactly the order, of one scalar left-to-right loop over
/// the list, so results match that loop byte for byte (the scalar
/// reference in tests/test_apps_md.cpp checks it).  No heap allocation.
void compute_lj(const Atoms& atoms, const NeighborList& list,
                const std::vector<int>& which, double cutoff, ForceAccum& f);

/// Harmonic springs between consecutive global ids within a chain:
/// U = k (r - r0)^2.  Each rank evaluates bonds for its owned atoms; a
/// bond between two locals is therefore evaluated from both ends with half
/// the energy credited each time, matching the LJ convention.
struct BondParams {
  int chain_length = 32;
  double k = 5.0;
  double r0 = 1.2;
  double boxlen[3] = {0.0, 0.0, 0.0};  ///< global box, for minimum image
};

/// Bond displacements use the minimum-image convention, so it does not
/// matter whether the partner index resolves to the local copy or to a
/// periodic ghost image — both owners compute the same |r| and mirror
/// forces, which is what keeps the integration symplectic.
void compute_bonds(const Atoms& atoms, const BondParams& params,
                   const std::unordered_map<std::uint64_t, int>& id_to_index,
                   ForceAccum& f);

}  // namespace icsim::apps::md
