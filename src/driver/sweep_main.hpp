#pragma once
// Command line of the sweep driver.
//
// icsim_sweep registers every scenario group and hands argc/argv to
// sweep_main(), which runs the groups named on the command line.
//
//   usage: <prog> [options] [group ...]
//     -j N, -jN     worker threads (0 = all hardware threads; default 1)
//     --list        list registered groups (+ point counts) and exit
//     --json PATH   write the aggregated JSON report (PATH "-" = stdout)
//     --csv PATH    write the aggregated CSV report (PATH "-" = stdout)
//     --metrics PATH  write host-side perf metrics JSON (wall clock,
//                     events/sec) — intentionally NOT deterministic
//     --progress    per-point completion lines on stderr
//     --quiet       suppress the console tables
//
// With no group arguments every registered group runs.  Exit status: 0
// when every point succeeded, 1 when any point reported an error, 2 on a
// usage error or a bad process-wide setting (ICSIM_TRACE_EVENTS,
// ICSIM_FAULTS, ICSIM_PAR_THREADS), which is reported once, before any
// point runs.  Tables/JSON/CSV are byte-identical across -j values; all
// wall-clock reporting goes to stderr or the --metrics file.

#include "driver/scenario.hpp"

namespace icsim::driver {

int sweep_main(const Registry& registry, int argc, char** argv);

}  // namespace icsim::driver
