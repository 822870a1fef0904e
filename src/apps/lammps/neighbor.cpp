#include "apps/lammps/neighbor.hpp"

#include <algorithm>
#include <cmath>

namespace icsim::apps::md {

namespace {

/// Neighbours of one atom are staged here, so the candidate loop stores
/// without a branch.
constexpr int kStage = 256;

}  // namespace

void build_neighbor_list(const Atoms& atoms, double cutneigh,
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
  const auto nall = static_cast<std::size_t>(atoms.nall);

  auto bin_of = [&](double X, double Y, double Z) {
    int bx = static_cast<int>((X - origin[0]) / bin[0]);
    int by = static_cast<int>((Y - origin[1]) / bin[1]);
    int bz = static_cast<int>((Z - origin[2]) / bin[2]);
    bx = std::clamp(bx, 0, nb[0] - 1);
    by = std::clamp(by, 0, nb[1] - 1);
    bz = std::clamp(bz, 0, nb[2] - 1);
    return (bz * nb[1] + by) * nb[0] + bx;
  };

  // Stable counting sort of all atoms (locals + ghosts) into bins, copying
  // the positions into bin order as it places them.  The scratch is
  // per-call: a thread-persistent one measured a higher peak RSS.
  std::vector<int> start(static_cast<std::size_t>(nbins) + 1, 0);  // bin -> first slot
  std::vector<int> atom_bin(nall);
  std::vector<int> ids(nall);  // slot -> atom index
  std::vector<double> xs(nall), ys(nall), zs(nall);  // slot -> position
  for (std::size_t i = 0; i < nall; ++i) {
    const int b = bin_of(atoms.x[i], atoms.y[i], atoms.z[i]);
    atom_bin[i] = b;
    ++start[static_cast<std::size_t>(b) + 1];
  }
  for (int b = 0; b < nbins; ++b) {
    start[static_cast<std::size_t>(b) + 1] += start[static_cast<std::size_t>(b)];
  }
  for (std::size_t i = 0; i < nall; ++i) {
    // start[b] doubles as bin b's cursor; afterwards it holds bin b+1's
    // first slot, so the offsets are shifted back down below.
    const auto k =
        static_cast<std::size_t>(start[static_cast<std::size_t>(atom_bin[i])]++);
    ids[k] = static_cast<int>(i);
    xs[k] = atoms.x[i];
    ys[k] = atoms.y[i];
    zs[k] = atoms.z[i];
  }
  for (int b = nbins; b > 0; --b) {
    start[static_cast<std::size_t>(b)] = start[static_cast<std::size_t>(b) - 1];
  }
  start[0] = 0;

  list.first.assign(static_cast<std::size_t>(atoms.nlocal) + 1, 0);
  list.neigh.clear();
  list.candidates_checked = 0;

  int stage[kStage];
  int n = 0;  // neighbours of the current atom staged so far
  // One push_back per neighbour, so the list's capacity grows as it would
  // without staging; a range insert's growth measured a higher peak RSS.
  auto flush = [&] {
    for (int t = 0; t < n; ++t) list.neigh.push_back(stage[t]);
    n = 0;
  };
  for (int i = 0; i < atoms.nlocal; ++i) {
    const double xi = atoms.x[static_cast<std::size_t>(i)];
    const double yi = atoms.y[static_cast<std::size_t>(i)];
    const double zi = atoms.z[static_cast<std::size_t>(i)];
    const int b = atom_bin[static_cast<std::size_t>(i)];
    const int bx = b % nb[0];
    const int by = (b / nb[0]) % nb[1];
    const int bz = b / (nb[0] * nb[1]);
    // Bins (bx-1..bx+1, yb, zb) are adjacent in bin order, so each stencil
    // row is one contiguous run of sorted slots.
    const int xlo = std::max(bx - 1, 0);
    const int xhi = std::min(bx + 1, nb[0] - 1);
    for (int zb = std::max(bz - 1, 0); zb <= std::min(bz + 1, nb[2] - 1); ++zb) {
      for (int yb = std::max(by - 1, 0); yb <= std::min(by + 1, nb[1] - 1); ++yb) {
        const int row = (zb * nb[1] + yb) * nb[0];
        auto k = static_cast<std::size_t>(start[static_cast<std::size_t>(row + xlo)]);
        const auto kend =
            static_cast<std::size_t>(start[static_cast<std::size_t>(row + xhi + 1)]);
        list.candidates_checked += kend - k;
        while (k < kend) {
          if (n == kStage) flush();
          // Stage every slot; advance past the ones inside the cutoff.
          const std::size_t kstop =
              std::min(kend, k + static_cast<std::size_t>(kStage - n));
          for (; k < kstop; ++k) {
            const double ddx = xi - xs[k];
            const double ddy = yi - ys[k];
            const double ddz = zi - zs[k];
            const int j = ids[k];
            stage[n] = j;
            n += static_cast<int>(ddx * ddx + ddy * ddy + ddz * ddz <= cutsq) &
                 static_cast<int>(j != i);
          }
        }
      }
    }
    --list.candidates_checked;  // atom i sat in its own bin
    flush();
    list.first[static_cast<std::size_t>(i) + 1] =
        static_cast<int>(list.neigh.size());
  }
}

void classify_inner_atoms(const Atoms& atoms, double cutneigh,
                          const double boxlo[3], const double boxhi[3],
                          std::vector<int>& inner, std::vector<int>& boundary) {
  inner.clear();
  boundary.clear();
  for (int i = 0; i < atoms.nlocal; ++i) {
    const double p[3] = {atoms.x[static_cast<std::size_t>(i)],
                         atoms.y[static_cast<std::size_t>(i)],
                         atoms.z[static_cast<std::size_t>(i)]};
    bool is_inner = true;
    for (int d = 0; d < 3; ++d) {
      if (p[d] - boxlo[d] < cutneigh || boxhi[d] - p[d] < cutneigh) {
        is_inner = false;
        break;
      }
    }
    (is_inner ? inner : boundary).push_back(i);
  }
}

}  // namespace icsim::apps::md
