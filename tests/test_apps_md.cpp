// Physics and parallel-correctness tests for the mini-MD application.
//
// The decisive checks: the physics must be invariant under the domain
// decomposition (1 rank vs 8 ranks agree), under the transport (InfiniBand
// and Quadrics runs produce identical trajectories — only time differs),
// and under the overlap optimization.  Plus the classical MD invariants:
// energy conservation, momentum conservation, neighbour-list correctness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "apps/lammps/md.hpp"
#include "core/cluster.hpp"

namespace icsim::apps::md {
namespace {

MdConfig small_ljs(int cells) {
  MdConfig c = ljs_config();
  c.cells_x = c.cells_y = c.cells_z = cells;
  c.steps = 25;
  return c;
}

MdResult run_on(const core::ClusterConfig& cc, const MdConfig& mc) {
  core::Cluster cluster(cc);
  MdResult result;
  cluster.run([&](mpi::Mpi& mpi) {
    MdResult r = run_md(mpi, mc);
    if (mpi.rank() == 0) result = r;
  });
  return result;
}

TEST(MdPhysics, EnergyConservationLjs) {
  const auto r = run_on(core::elan_cluster(1), small_ljs(5));
  EXPECT_LT(r.total_energy_drift, 5e-3);
  EXPECT_GT(r.pair_evals, 0u);
}

TEST(MdPhysics, MomentumConservation) {
  const auto r = run_on(core::elan_cluster(1), small_ljs(5));
  // Started at zero; symplectic integration + pairwise forces keep it ~0.
  EXPECT_LT(r.momentum_abs, 1e-9 * std::sqrt(static_cast<double>(r.natoms_global)));
}

TEST(MdPhysics, EnergyConservationMembrane) {
  MdConfig c = membrane_config();
  c.cells_x = c.cells_y = c.cells_z = 5;
  c.steps = 25;
  const auto r = run_on(core::elan_cluster(4), c);
  EXPECT_LT(r.total_energy_drift, 5e-3);
}

TEST(MdPhysics, AtomCountConservedAcrossMigration) {
  MdConfig c = small_ljs(4);
  c.steps = 30;  // crosses three migration events
  const auto r = run_on(core::elan_cluster(8), c);
  EXPECT_EQ(r.natoms_global, 8ull * 4 * 4 * 4 * 4);  // ranks * cells^3 * 4
}

TEST(MdPhysics, DecompositionInvariance) {
  // Same GLOBAL problem on 1 rank and on 8 ranks: identical physics.
  MdConfig one = small_ljs(8);
  MdConfig eight = small_ljs(4);  // 2x2x2 grid of 4-cell bricks = 8 cells
  const auto r1 = run_on(core::elan_cluster(1), one);
  const auto r8 = run_on(core::elan_cluster(8), eight);
  EXPECT_EQ(r1.natoms_global, r8.natoms_global);
  EXPECT_NEAR(r1.final_potential, r8.final_potential,
              1e-7 * std::abs(r1.final_potential));
  EXPECT_NEAR(r1.final_kinetic, r8.final_kinetic,
              1e-7 * std::abs(r1.final_kinetic));
}

TEST(MdPhysics, TransportInvariance) {
  // InfiniBand and Quadrics must move identical data: same physics, and
  // only the simulated clock may differ.
  const MdConfig c = small_ljs(4);
  const auto ib = run_on(core::ib_cluster(4), c);
  const auto el = run_on(core::elan_cluster(4), c);
  EXPECT_DOUBLE_EQ(ib.final_potential, el.final_potential);
  EXPECT_DOUBLE_EQ(ib.final_kinetic, el.final_kinetic);
  EXPECT_EQ(ib.pair_evals, el.pair_evals);
}

TEST(MdPhysics, OverlapInvariance) {
  // The overlapped force path must not change the trajectory.
  MdConfig plain = small_ljs(4);
  MdConfig over = plain;
  over.overlap_comm = true;
  const auto a = run_on(core::elan_cluster(8), plain);
  const auto b = run_on(core::elan_cluster(8), over);
  EXPECT_DOUBLE_EQ(a.final_potential, b.final_potential);
  EXPECT_DOUBLE_EQ(a.final_kinetic, b.final_kinetic);
}

TEST(MdPhysics, ScaledProblemGrowsWithRanks) {
  const MdConfig c = small_ljs(4);
  const auto r1 = run_on(core::elan_cluster(1), c);
  const auto r4 = run_on(core::elan_cluster(4), c);
  EXPECT_EQ(r4.natoms_global, 4 * r1.natoms_global);
}

TEST(MdPhysics, HaloTrafficExists) {
  const auto r = run_on(core::elan_cluster(8), small_ljs(4));
  EXPECT_GT(r.halo_bytes, 100000u);
}

TEST(MdPhysics, RejectsTooSmallBox) {
  MdConfig c = small_ljs(1);  // 1 cell < cutoff+skin
  core::Cluster cluster(core::elan_cluster(1));
  EXPECT_THROW(cluster.run([&](mpi::Mpi& mpi) { run_md(mpi, c); }),
               std::invalid_argument);
}

TEST(MdNeighbor, MatchesBruteForce) {
  // Build a small single-rank system and compare the binned list against
  // an O(N^2) reference.
  core::Cluster cluster(core::elan_cluster(1));
  cluster.run([&](mpi::Mpi& mpi) {
    MdConfig c = small_ljs(3);
    MdSimulation sim(mpi, c);
    sim.setup();
    const Atoms& a = sim.atoms();
    const NeighborList& list = sim.neighbor_list();
    const double cutneigh = c.cutoff + c.skin;
    const double cutsq = cutneigh * cutneigh;
    for (int i = 0; i < a.nlocal; ++i) {
      std::size_t count = 0;
      for (int j = 0; j < a.nall; ++j) {
        if (j == i) continue;
        const double dx = a.x[static_cast<std::size_t>(i)] - a.x[static_cast<std::size_t>(j)];
        const double dy = a.y[static_cast<std::size_t>(i)] - a.y[static_cast<std::size_t>(j)];
        const double dz = a.z[static_cast<std::size_t>(i)] - a.z[static_cast<std::size_t>(j)];
        if (dx * dx + dy * dy + dz * dz <= cutsq) ++count;
      }
      const auto in_list = static_cast<std::size_t>(
          list.first[static_cast<std::size_t>(i) + 1] -
          list.first[static_cast<std::size_t>(i)]);
      ASSERT_EQ(in_list, count) << "atom " << i;
    }
  });
}

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

TEST(MdPhysics, TrajectoryBitsPinned) {
  // The LJ and neighbour kernels must reproduce the scalar kernels' sums
  // bit for bit; any reordering moves the last bits of these energies and
  // the event digest (compute charges follow pair and candidate counts).
  MdConfig c = small_ljs(4);
  c.steps = 12;  // crosses the neighbour rebuild and migration at step 10
  struct Pin {
    core::ClusterConfig cc;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{core::ib_cluster(8), 0xa2a0fd02c6dbb458ull},
                         Pin{core::elan_cluster(8), 0xe75a4a7ae7ec24c2ull}}) {
    core::Cluster cluster(pin.cc);
    MdResult r;
    cluster.run([&](mpi::Mpi& mpi) {
      const MdResult mine = run_md(mpi, c);
      if (mpi.rank() == 0) r = mine;
    });
    EXPECT_EQ(cluster.stats().event_digest, pin.digest);
    EXPECT_EQ(bits_of(r.final_kinetic), 0x40a73791af69f4d0ull);
    EXPECT_EQ(bits_of(r.final_potential), 0xc0c67f26ceea9541ull);
    EXPECT_EQ(bits_of(r.total_energy_drift), 0x3f126530126b41d9ull);
    EXPECT_EQ(r.pair_evals, 1434692u);
  }
}

// ---- Kernel oracle: the scalar kernels the restructured ones replace ----

void ref_build_neighbor_list(const Atoms& atoms, double cutneigh,
                             const double lo[3], const double hi[3],
                             NeighborList& list) {
  const double cutsq = cutneigh * cutneigh;
  // Bin size >= cutneigh so a 27-stencil covers all candidates.
  int nb[3];
  double bin[3], origin[3];
  for (int d = 0; d < 3; ++d) {
    const double extent = hi[d] - lo[d];
    nb[d] = std::max(1, static_cast<int>(extent / cutneigh));
    bin[d] = extent / nb[d];
    origin[d] = lo[d];
  }
  const int nbins = nb[0] * nb[1] * nb[2];

  auto bin_of = [&](double X, double Y, double Z) {
    int bx = static_cast<int>((X - origin[0]) / bin[0]);
    int by = static_cast<int>((Y - origin[1]) / bin[1]);
    int bz = static_cast<int>((Z - origin[2]) / bin[2]);
    bx = std::clamp(bx, 0, nb[0] - 1);
    by = std::clamp(by, 0, nb[1] - 1);
    bz = std::clamp(bz, 0, nb[2] - 1);
    return (bz * nb[1] + by) * nb[0] + bx;
  };

  // Counting sort of all atoms (locals + ghosts) into bins.
  std::vector<int> bin_count(static_cast<std::size_t>(nbins) + 1, 0);
  std::vector<int> atom_bin(static_cast<std::size_t>(atoms.nall));
  for (int i = 0; i < atoms.nall; ++i) {
    const int b = bin_of(atoms.x[static_cast<std::size_t>(i)],
                         atoms.y[static_cast<std::size_t>(i)],
                         atoms.z[static_cast<std::size_t>(i)]);
    atom_bin[static_cast<std::size_t>(i)] = b;
    ++bin_count[static_cast<std::size_t>(b) + 1];
  }
  for (int b = 0; b < nbins; ++b) {
    bin_count[static_cast<std::size_t>(b) + 1] +=
        bin_count[static_cast<std::size_t>(b)];
  }
  std::vector<int> bin_atoms(static_cast<std::size_t>(atoms.nall));
  {
    std::vector<int> cursor(bin_count.begin(), bin_count.end() - 1);
    for (int i = 0; i < atoms.nall; ++i) {
      bin_atoms[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(atom_bin[static_cast<std::size_t>(i)])]++)] = i;
    }
  }

  list.first.assign(static_cast<std::size_t>(atoms.nlocal) + 1, 0);
  list.neigh.clear();
  list.candidates_checked = 0;

  for (int i = 0; i < atoms.nlocal; ++i) {
    const double xi = atoms.x[static_cast<std::size_t>(i)];
    const double yi = atoms.y[static_cast<std::size_t>(i)];
    const double zi = atoms.z[static_cast<std::size_t>(i)];
    const int b = atom_bin[static_cast<std::size_t>(i)];
    const int bx = b % nb[0];
    const int by = (b / nb[0]) % nb[1];
    const int bz = b / (nb[0] * nb[1]);
    for (int dz = -1; dz <= 1; ++dz) {
      const int zb = bz + dz;
      if (zb < 0 || zb >= nb[2]) continue;
      for (int dy = -1; dy <= 1; ++dy) {
        const int yb = by + dy;
        if (yb < 0 || yb >= nb[1]) continue;
        for (int dx = -1; dx <= 1; ++dx) {
          const int xb = bx + dx;
          if (xb < 0 || xb >= nb[0]) continue;
          const int nbin = (zb * nb[1] + yb) * nb[0] + xb;
          for (int k = bin_count[static_cast<std::size_t>(nbin)];
               k < bin_count[static_cast<std::size_t>(nbin) + 1]; ++k) {
            const int j = bin_atoms[static_cast<std::size_t>(k)];
            if (j == i) continue;
            ++list.candidates_checked;
            const double ddx = xi - atoms.x[static_cast<std::size_t>(j)];
            const double ddy = yi - atoms.y[static_cast<std::size_t>(j)];
            const double ddz = zi - atoms.z[static_cast<std::size_t>(j)];
            if (ddx * ddx + ddy * ddy + ddz * ddz <= cutsq) {
              list.neigh.push_back(j);
            }
          }
        }
      }
    }
    list.first[static_cast<std::size_t>(i) + 1] =
        static_cast<int>(list.neigh.size());
  }
}

void ref_compute_lj(const Atoms& atoms, const NeighborList& list,
                    const std::vector<int>& which, double cutoff,
                    ForceAccum& f) {
  const double cutsq = cutoff * cutoff;
  // Energy shift so U(cutoff) = 0 (LAMMPS pair_style lj/cut convention
  // with shifting enabled keeps conservation clean at the cutoff).
  const double rc6 = 1.0 / (cutsq * cutsq * cutsq);
  const double eshift = 4.0 * rc6 * (rc6 - 1.0);

  for (const int i : which) {
    const double xi = atoms.x[static_cast<std::size_t>(i)];
    const double yi = atoms.y[static_cast<std::size_t>(i)];
    const double zi = atoms.z[static_cast<std::size_t>(i)];
    double fxi = 0.0, fyi = 0.0, fzi = 0.0;
    for (int k = list.first[static_cast<std::size_t>(i)];
         k < list.first[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = xi - atoms.x[static_cast<std::size_t>(j)];
      const double dy = yi - atoms.y[static_cast<std::size_t>(j)];
      const double dz = zi - atoms.z[static_cast<std::size_t>(j)];
      const double rsq = dx * dx + dy * dy + dz * dz;
      if (rsq >= cutsq) continue;
      ++f.pair_evals;
      const double r2i = 1.0 / rsq;
      const double r6i = r2i * r2i * r2i;
      // F/r = 48 eps (r^-12 - 0.5 r^-6) / r^2 in reduced units.
      const double fpair = 48.0 * r6i * (r6i - 0.5) * r2i;
      fxi += dx * fpair;
      fyi += dy * fpair;
      fzi += dz * fpair;
      // Half the pair energy; the other half is credited by j's owner.
      f.potential += 0.5 * (4.0 * r6i * (r6i - 1.0) - eshift);
    }
    f.fx[static_cast<std::size_t>(i)] += fxi;
    f.fy[static_cast<std::size_t>(i)] += fyi;
    f.fz[static_cast<std::size_t>(i)] += fzi;
  }
}

/// One rank's view of a periodic FCC box of `cells`^3 unit cells: jittered
/// locals in [0, L)^3, then every periodic image within `shell` of the box
/// as a ghost, in a fixed order.  `lo`/`hi` receive the binning region.
Atoms jittered_fcc(int cells, double density, double jitter, double shell,
                   double lo[3], double hi[3]) {
  static constexpr double kBasis[4][3] = {
      {0.0, 0.0, 0.0}, {0.5, 0.5, 0.0}, {0.5, 0.0, 0.5}, {0.0, 0.5, 0.5}};
  const double a = std::cbrt(4.0 / density);
  const double len = cells * a;
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto noise = [&] {  // xorshift64*, uniform in [-0.5, 0.5)
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const std::uint64_t r = state * 0x2545f4914f6cdd1dull;
    return static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0) - 0.5;
  };
  Atoms atoms;
  std::uint64_t gid = 0;
  for (int cz = 0; cz < cells; ++cz) {
    for (int cy = 0; cy < cells; ++cy) {
      for (int cx = 0; cx < cells; ++cx) {
        for (const auto& b : kBasis) {
          const auto wrap = [&](double v) {
            return v < 0.0 ? v + len : v >= len ? v - len : v;
          };
          atoms.add_local(wrap((cx + b[0]) * a + jitter * a * noise()),
                          wrap((cy + b[1]) * a + jitter * a * noise()),
                          wrap((cz + b[2]) * a + jitter * a * noise()), 0.0,
                          0.0, 0.0, gid++);
        }
      }
    }
  }
  for (int sz = -1; sz <= 1; ++sz) {
    for (int sy = -1; sy <= 1; ++sy) {
      for (int sx = -1; sx <= 1; ++sx) {
        if (sx == 0 && sy == 0 && sz == 0) continue;
        for (int i = 0; i < atoms.nlocal; ++i) {
          const auto s = static_cast<std::size_t>(i);
          const double p[3] = {atoms.x[s] + sx * len, atoms.y[s] + sy * len,
                               atoms.z[s] + sz * len};
          bool in_shell = true;
          for (const double v : p) {
            in_shell = in_shell && v >= -shell && v < len + shell;
          }
          if (in_shell) atoms.add_ghost(p[0], p[1], p[2], atoms.id[s]);
        }
      }
    }
  }
  for (int d = 0; d < 3; ++d) {
    lo[d] = -shell;
    hi[d] = len + shell;
  }
  return atoms;
}

/// Builds the list with both kernels and checks them byte for byte.
NeighborList expect_same_list(const Atoms& atoms, double cutneigh,
                              const double lo[3], const double hi[3]) {
  NeighborList got, want;
  build_neighbor_list(atoms, cutneigh, lo, hi, got);
  ref_build_neighbor_list(atoms, cutneigh, lo, hi, want);
  EXPECT_EQ(got.first, want.first);
  EXPECT_EQ(got.neigh, want.neigh);
  EXPECT_EQ(got.candidates_checked, want.candidates_checked);
  return want;
}

/// Runs both LJ kernels over each subset of `whichs` in turn, accumulating
/// into one ForceAccum each (as the overlapped force path does).
void expect_same_forces(const Atoms& atoms, const NeighborList& list,
                        const std::vector<std::vector<int>>& whichs,
                        double cutoff) {
  ForceAccum got, want;
  got.reset(atoms.nall);
  want.reset(atoms.nall);
  for (const auto& which : whichs) {
    compute_lj(atoms, list, which, cutoff, got);
    ref_compute_lj(atoms, list, which, cutoff, want);
  }
  const std::size_t bytes = static_cast<std::size_t>(atoms.nall) * sizeof(double);
  EXPECT_EQ(std::memcmp(got.fx.data(), want.fx.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(got.fy.data(), want.fy.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(got.fz.data(), want.fz.data(), bytes), 0);
  EXPECT_EQ(bits_of(got.potential), bits_of(want.potential));
  EXPECT_EQ(got.pair_evals, want.pair_evals);
}

std::vector<int> all_locals(const Atoms& atoms) {
  std::vector<int> v(static_cast<std::size_t>(atoms.nlocal));
  for (int i = 0; i < atoms.nlocal; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

TEST(MdKernelOracle, LjsLatticeWithGhostShellAndJitter) {
  const MdConfig c = ljs_config();
  const double cutneigh = c.cutoff + c.skin;
  double lo[3], hi[3];
  const Atoms atoms = jittered_fcc(5, c.density, 0.08, cutneigh, lo, hi);
  ASSERT_GT(atoms.nall, atoms.nlocal);
  const NeighborList list = expect_same_list(atoms, cutneigh, lo, hi);
  ASSERT_GT(list.neigh.size(), 0u);
  expect_same_forces(atoms, list, {all_locals(atoms)}, c.cutoff);
}

TEST(MdKernelOracle, MembraneCutoffListsSpanSeveralBlocks) {
  // Cutoff 3.0: ~130 neighbours per atom, past the force kernel's 64-pair
  // block.  The longer radius pushes lists past the neighbour build's
  // 256-entry staging buffer as well.
  const MdConfig c = membrane_config();
  for (const double cutoff : {c.cutoff, 4.3}) {
    const double cutneigh = cutoff + c.skin;
    double lo[3], hi[3];
    const Atoms atoms = jittered_fcc(5, c.density, 0.08, cutneigh, lo, hi);
    const NeighborList list = expect_same_list(atoms, cutneigh, lo, hi);
    int longest = 0;
    for (int i = 0; i < atoms.nlocal; ++i) {
      longest = std::max(longest, list.first[static_cast<std::size_t>(i) + 1] -
                                      list.first[static_cast<std::size_t>(i)]);
    }
    EXPECT_GT(longest, cutoff > 4.0 ? 256 : 64) << "cutoff " << cutoff;
    expect_same_forces(atoms, list, {all_locals(atoms)}, cutoff);
  }
}

TEST(MdKernelOracle, InnerThenBoundarySubsets) {
  const MdConfig c = membrane_config();
  const double cutneigh = c.cutoff + c.skin;
  double lo[3], hi[3];
  const Atoms atoms = jittered_fcc(6, c.density, 0.08, cutneigh, lo, hi);
  const NeighborList list = expect_same_list(atoms, cutneigh, lo, hi);
  const double boxlo[3] = {0.0, 0.0, 0.0};
  const double boxhi[3] = {hi[0] - cutneigh, hi[1] - cutneigh,
                           hi[2] - cutneigh};
  std::vector<int> inner, boundary;
  classify_inner_atoms(atoms, cutneigh, boxlo, boxhi, inner, boundary);
  ASSERT_FALSE(inner.empty());
  ASSERT_FALSE(boundary.empty());
  expect_same_forces(atoms, list, {inner, boundary}, c.cutoff);
  expect_same_forces(atoms, list, {boundary}, c.cutoff);
}

TEST(MdKernelOracle, AtomWithAnEmptyList) {
  // Two close atoms and one far from both; no ghosts.
  Atoms atoms;
  atoms.add_local(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0);
  atoms.add_local(20.0, 20.0, 20.0, 0.0, 0.0, 0.0, 1);
  atoms.add_local(2.1, 1.2, 0.9, 0.0, 0.0, 0.0, 2);
  const double lo[3] = {0.0, 0.0, 0.0};
  const double hi[3] = {24.0, 24.0, 24.0};
  const NeighborList list = expect_same_list(atoms, 2.8, lo, hi);
  EXPECT_EQ(list.first[2] - list.first[1], 0);
  EXPECT_EQ(list.first[1] - list.first[0], 1);
  expect_same_forces(atoms, list, {all_locals(atoms)}, 2.5);
  expect_same_forces(atoms, list, {{1}}, 2.5);
}

TEST(MdKernelOracle, PairExactlyAtTheCutoff) {
  // Atoms 0 and 1 sit exactly 3.0 apart, so |r|^2 == 9.0 == cutsq: the pair
  // is listed (the build keeps rsq <= cutsq) but not evaluated (the force
  // kernel keeps rsq < cutsq).  Atom 2 is 1.5 from atom 0 only.
  Atoms atoms;
  atoms.add_local(4.0, 4.0, 4.0, 0.0, 0.0, 0.0, 0);
  atoms.add_local(7.0, 4.0, 4.0, 0.0, 0.0, 0.0, 1);
  atoms.add_local(4.0, 5.5, 4.0, 0.0, 0.0, 0.0, 2);
  const double lo[3] = {0.0, 0.0, 0.0};
  const double hi[3] = {12.0, 12.0, 12.0};
  const NeighborList list = expect_same_list(atoms, 3.0, lo, hi);
  ASSERT_EQ(list.first[2] - list.first[1], 1);
  EXPECT_EQ(list.neigh[static_cast<std::size_t>(list.first[1])], 0);
  ForceAccum f;
  f.reset(atoms.nall);
  compute_lj(atoms, list, {1}, 3.0, f);
  EXPECT_EQ(f.pair_evals, 0u);
  EXPECT_EQ(bits_of(f.fx[1]), bits_of(0.0));
  EXPECT_EQ(bits_of(f.potential), bits_of(0.0));
  expect_same_forces(atoms, list, {all_locals(atoms)}, 3.0);
}

TEST(MdGrid, FactorizationsAreCubic) {
  const ProcGrid g8(8, 0);
  EXPECT_EQ(g8.px * g8.py * g8.pz, 8);
  EXPECT_EQ(g8.px, 2);
  EXPECT_EQ(g8.py, 2);
  EXPECT_EQ(g8.pz, 2);
  const ProcGrid g12(12, 5);
  EXPECT_EQ(g12.px * g12.py * g12.pz, 12);
  const ProcGrid g1(1, 0);
  EXPECT_EQ(g1.px, 1);
}

TEST(MdGrid, NeighbourWraps) {
  const ProcGrid g(8, 0);  // 2x2x2, my coords (0,0,0)
  EXPECT_EQ(g.neighbour(0, -1), g.neighbour(0, +1));  // wrap with dims 2
  const ProcGrid g2(27, 13);  // 3x3x3 center
  EXPECT_NE(g2.neighbour(0, -1), g2.neighbour(0, +1));
}

}  // namespace
}  // namespace icsim::apps::md
