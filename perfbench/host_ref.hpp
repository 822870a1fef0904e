#pragma once
// Host-speed reference of the perfbench runner (host_ref.cpp).
//
// A shared host runs the same code up to ~1.8x slower for minutes at a time,
// on every vCPU at once.  The runner times one chunk of fixed reference work
// next to every point and run.py scales each point's host times by
// kHostRefNominalS / (reference time around that point), so the end-to-end
// times read as seconds on a host running the reference at its nominal
// speed.  The reference mixes the kinds of host work the simulator does
// (an LJ pair loop, an event heap of std::function callbacks, ucontext
// switches, hash-map lookups) but uses nothing from src/, so a change to the
// simulator cannot move it.

namespace perf {

/// Seconds one chunk takes at the nominal speed: about its time on the
/// 4-vCPU Xeon VM (gcc 12, Release) the bounds were set on, when that host
/// ran fast.  It only sets the scale; bounds are ratios.
inline constexpr double kHostRefNominalS = 0.025;

/// Run one chunk of the reference work and return its host seconds.
[[nodiscard]] double host_ref_chunk();

}  // namespace perf
