#include "apps/lammps/force.hpp"

#include <algorithm>
#include <cmath>

namespace icsim::apps::md {

namespace {

/// Each atom's neighbours are processed in stack-held blocks of this many.
constexpr int kBlock = 64;

}  // namespace

void compute_lj(const Atoms& atoms, const NeighborList& list,
                const std::vector<int>& which, double cutoff, ForceAccum& f) {
  const double cutsq = cutoff * cutoff;
  // Energy shift so U(cutoff) = 0 (LAMMPS pair_style lj/cut convention
  // with shifting enabled keeps conservation clean at the cutoff).
  const double rc6 = 1.0 / (cutsq * cutsq * cutsq);
  const double eshift = 4.0 * rc6 * (rc6 - 1.0);

  const double* x = atoms.x.data();
  const double* y = atoms.y.data();
  const double* z = atoms.z.data();
  const int* neigh = list.neigh.data();
  double potential = f.potential;
  std::uint64_t pair_evals = f.pair_evals;
  double dx[kBlock], dy[kBlock], dz[kBlock], rsq[kBlock];
  double px[kBlock], py[kBlock], pz[kBlock], pe[kBlock];
  for (const int i : which) {
    const double xi = x[i];
    const double yi = y[i];
    const double zi = z[i];
    double fxi = 0.0, fyi = 0.0, fzi = 0.0;
    const int kend = list.first[static_cast<std::size_t>(i) + 1];
    for (int k0 = list.first[static_cast<std::size_t>(i)]; k0 < kend;
         k0 += kBlock) {
      const int m = std::min(kBlock, kend - k0);
      // Gather displacements, keeping (in list order, without a branch)
      // the pairs inside the cutoff.  `!(r >= cutsq)` is the scalar
      // kernel's skip test, so a NaN distance is kept as it was there.
      int c = 0;
      for (int t = 0; t < m; ++t) {
        const int j = neigh[k0 + t];
        const double ddx = xi - x[j];
        const double ddy = yi - y[j];
        const double ddz = zi - z[j];
        const double r = ddx * ddx + ddy * ddy + ddz * ddz;
        dx[c] = ddx;
        dy[c] = ddy;
        dz[c] = ddz;
        rsq[c] = r;
        c += static_cast<int>(!(r >= cutsq));
      }
      // Pair terms, independent of each other: this loop vectorises.
      for (int t = 0; t < c; ++t) {
        const double r2i = 1.0 / rsq[t];
        const double r6i = r2i * r2i * r2i;
        // F/r = 48 eps (r^-12 - 0.5 r^-6) / r^2 in reduced units.
        const double fpair = 48.0 * r6i * (r6i - 0.5) * r2i;
        px[t] = dx[t] * fpair;
        py[t] = dy[t] * fpair;
        pz[t] = dz[t] * fpair;
        // Half the pair energy; the other half is credited by j's owner.
        pe[t] = 0.5 * (4.0 * r6i * (r6i - 1.0) - eshift);
      }
      // Sums in list order, so they round exactly as a scalar loop does.
      for (int t = 0; t < c; ++t) {
        fxi += px[t];
        fyi += py[t];
        fzi += pz[t];
        potential += pe[t];
      }
      pair_evals += static_cast<std::uint64_t>(c);
    }
    f.fx[static_cast<std::size_t>(i)] += fxi;
    f.fy[static_cast<std::size_t>(i)] += fyi;
    f.fz[static_cast<std::size_t>(i)] += fzi;
  }
  f.potential = potential;
  f.pair_evals = pair_evals;
}

void compute_bonds(const Atoms& atoms, const BondParams& params,
                   const std::unordered_map<std::uint64_t, int>& id_to_index,
                   ForceAccum& f) {
  const auto chain = static_cast<std::uint64_t>(params.chain_length);
  for (int i = 0; i < atoms.nlocal; ++i) {
    const std::uint64_t gid = atoms.id[static_cast<std::size_t>(i)];
    const std::uint64_t pos_in_chain = gid % chain;
    for (int side = -1; side <= 1; side += 2) {
      if (side == -1 && pos_in_chain == 0) continue;
      if (side == 1 && pos_in_chain == chain - 1) continue;
      const std::uint64_t partner_id =
          side == -1 ? gid - 1 : gid + 1;
      const auto it = id_to_index.find(partner_id);
      if (it == id_to_index.end()) continue;  // partner beyond ghost shell
      const int j = it->second;
      double dx = atoms.x[static_cast<std::size_t>(i)] -
                  atoms.x[static_cast<std::size_t>(j)];
      double dy = atoms.y[static_cast<std::size_t>(i)] -
                  atoms.y[static_cast<std::size_t>(j)];
      double dz = atoms.z[static_cast<std::size_t>(i)] -
                  atoms.z[static_cast<std::size_t>(j)];
      if (params.boxlen[0] > 0.0) {
        dx -= params.boxlen[0] * std::round(dx / params.boxlen[0]);
        dy -= params.boxlen[1] * std::round(dy / params.boxlen[1]);
        dz -= params.boxlen[2] * std::round(dz / params.boxlen[2]);
      }
      const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
      if (r <= 0.0) continue;
      ++f.bond_evals;
      const double dr = r - params.r0;
      // U = k dr^2, F = -2 k dr (r_hat), applied to i only (j's owner
      // applies the mirror force).
      const double fmag = -2.0 * params.k * dr / r;
      f.fx[static_cast<std::size_t>(i)] += fmag * dx;
      f.fy[static_cast<std::size_t>(i)] += fmag * dy;
      f.fz[static_cast<std::size_t>(i)] += fmag * dz;
      f.potential += 0.5 * params.k * dr * dr;
    }
  }
}

}  // namespace icsim::apps::md
