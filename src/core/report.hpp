#pragma once
// Scaling-efficiency helpers for the paper's scaled-size and fixed-size
// studies.

namespace icsim::core {

/// Scaling efficiency for a *scaled-size* study (paper Section 2.2): with
/// constant work per process, ideal time is flat, so eff = t_base / t_p.
[[nodiscard]] inline double scaled_efficiency(double t_base, double t_p) {
  return t_base / t_p;
}

/// Scaling efficiency for a *fixed-size* study: ideal time halves as P
/// doubles, so eff = (t_base * p_base) / (t_p * p).
[[nodiscard]] inline double fixed_efficiency(double t_base, int p_base,
                                             double t_p, int p) {
  return (t_base * p_base) / (t_p * p);
}

}  // namespace icsim::core
