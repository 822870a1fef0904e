// Trace-replay scenario group: every trace set under examples/traces/ (or
// $ICSIM_REPLAY_TRACES) becomes two sweep points — the same captured
// workload driven through the InfiniBand and the Elan-4 stacks.  This is
// the scenario-breadth mechanism of ROADMAP item 3: any communication log
// is a scenario, no C++ app model required.
//
// Each point loads its trace set on demand inside the point closure, so
// the group is parallel-safe for any -j N (no shared mutable state).

#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "replay/replay.hpp"
#include "scenarios.hpp"

namespace icsim::bench {

namespace {

[[nodiscard]] driver::PointResult replay_point(const std::string& dir,
                                               core::Network net) {
  const auto program = replay::TraceProgram::load_dir(dir);
  driver::PointResult r;
  core::ClusterConfig cc = cluster_for(net, program.nodes(), program.ppn());
  double seconds = 0.0;
  run_cluster(r, cc, [&](mpi::Mpi& m) {
    const double t0 = m.wtime();
    program.run_rank(m);
    if (m.rank() == 0) seconds = m.wtime() - t0;
  });
  r.add("time_s", seconds, 6);
  r.add("ranks", static_cast<double>(program.size()), 0);
  r.add("ops", static_cast<double>(program.total_ops()), 0);
  return r;
}

}  // namespace

void register_replay(driver::Registry& reg) {
  // The trace root: $ICSIM_REPLAY_TRACES when set, else the source tree's
  // examples/traces (a build-time path, so the sweep's output does not
  // depend on the working directory).  The title names the root without
  // its location.
  const char* env = std::getenv("ICSIM_REPLAY_TRACES");
  const bool overridden = env != nullptr && *env != '\0';
  const std::string root = overridden ? env : ICSIM_TRACES_DIR;
  std::vector<std::string> sets;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(root, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_directory()) sets.push_back(it->path().filename().string());
  }
  std::sort(sets.begin(), sets.end());

  auto& g = reg.group(
      "replay",
      sets.empty()
          ? std::string("Trace replay: no trace sets found (set "
                        "ICSIM_REPLAY_TRACES or create examples/traces/)")
          : line("Trace replay: %d trace set(s) under %s, each on both "
                 "fabrics",
                 static_cast<int>(sets.size()),
                 overridden ? "$ICSIM_REPLAY_TRACES" : "examples/traces"));
  g.finalize = [](std::vector<driver::PointResult>&) {
    return std::vector<std::string>{
        "replayed captures reproduce the captured run's event digest "
        "exactly on the matching fabric (docs/MODEL.md section 11)"};
  };
  for (const std::string& set : sets) {
    const std::string dir = root + "/" + set;
    for (const core::Network net :
         {core::Network::infiniband, core::Network::quadrics}) {
      reg.add("replay", set + "/" + net_tag(net),
              [dir, net]() { return replay_point(dir, net); });
    }
  }
}

}  // namespace icsim::bench
