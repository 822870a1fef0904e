#include "driver/sweep_main.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "driver/runner.hpp"
#include "fault/plan.hpp"
#include "par/par_cluster.hpp"

namespace icsim::driver {

namespace {

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [options] [group ...]\n"
               "  -j N, -jN      worker threads (0 = all hardware threads; "
               "default 1)\n"
               "  --list         list registered groups and exit\n"
               "  --json PATH    write aggregated JSON (\"-\" = stdout)\n"
               "  --csv PATH     write aggregated CSV (\"-\" = stdout)\n"
               "  --out PATH     write aggregated output; format from the\n"
               "                 extension (.json or .csv)\n"
               "  --metrics PATH write host perf metrics JSON (wall clock)\n"
               "  --progress     per-point completion lines on stderr\n"
               "  --quiet        suppress console tables\n",
               prog);
}

/// -j takes a whole non-negative int; "abc", "-3" and "2x" are errors, not
/// 0 (all hardware threads) or 2.
bool parse_jobs(std::string_view text, int& jobs) {
  int v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v < 0) {
    return false;
  }
  jobs = v;
  return true;
}

/// The process-wide settings every point's Cluster would read, parsed once
/// with the parsers Cluster uses: a bad value is one error before the
/// sweep, not one per point.  Throws std::invalid_argument.
void check_env_overrides() {
  if (const char* path = std::getenv("ICSIM_TRACE");
      path != nullptr && *path != '\0') {
    if (const char* n = std::getenv("ICSIM_TRACE_EVENTS"); n != nullptr) {
      (void)core::parse_trace_events(n);
    }
  }
  if (const char* n = std::getenv("ICSIM_PAR_THREADS"); n != nullptr) {
    (void)par::parse_par_threads(n);
  }
  if (const char* spec = std::getenv("ICSIM_FAULTS");
      spec != nullptr && *spec != '\0') {
    try {
      (void)fault::FaultPlan::parse(spec);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("ICSIM_FAULTS: ") + e.what());
    }
  }
}

bool write_file_or_stdout(const std::string& path, const std::string& body) {
  if (path == "-") {
    std::fwrite(body.data(), 1, body.size(), stdout);
    return true;
  }
  std::ofstream out(path);
  out << body;
  return out.good();
}

}  // namespace

int sweep_main(const Registry& registry, int argc, char** argv) {
  SweepOptions opt;
  std::string json_path, csv_path, metrics_path;
  bool list = false, quiet = false;
  std::vector<std::string> groups;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--progress") {
      opt.progress = true;
    } else if (arg.rfind("-j", 0) == 0) {
      const char* v = arg == "-j" ? need_value("-j") : argv[i] + 2;
      if (v == nullptr) return 2;
      if (!parse_jobs(v, opt.jobs)) {
        std::fprintf(stderr,
                     "%s: -j needs a non-negative integer thread count, got "
                     "'%s'\n",
                     argv[0], v);
        return 2;
      }
    } else if (arg == "--json") {
      const char* v = need_value("--json");
      if (v == nullptr) return 2;
      json_path = v;
    } else if (arg == "--csv") {
      const char* v = need_value("--csv");
      if (v == nullptr) return 2;
      csv_path = v;
    } else if (arg == "--out") {
      const char* v = need_value("--out");
      if (v == nullptr) return 2;
      const std::string path = v;
      const auto dot = path.rfind('.');
      const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
      if (ext == ".json") {
        json_path = path;
      } else if (ext == ".csv") {
        csv_path = path;
      } else {
        std::fprintf(stderr,
                     "%s: --out needs a .json or .csv extension to pick the "
                     "format, got '%s'\n",
                     argv[0], path.c_str());
        return 2;
      }
    } else if (arg == "--metrics") {
      const char* v = need_value("--metrics");
      if (v == nullptr) return 2;
      metrics_path = v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
      usage(argv[0]);
      return 2;
    } else {
      groups.push_back(arg);
    }
  }

  if (list) {
    for (const auto& g : registry.groups()) {
      std::size_t points = 0;
      for (const auto& s : registry.scenarios()) {
        if (s.group == g.name) ++points;
      }
      std::printf("%-24s %4zu point%s  %s\n", g.name.c_str(), points,
                  points == 1 ? " " : "s", g.title.c_str());
    }
    return 0;
  }

  SweepReport report;
  try {
    check_env_overrides();
    report = run_sweep(registry, groups, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }

  if (!quiet) report.print(stdout);
  bool io_ok = true;
  if (!json_path.empty()) {
    io_ok = write_file_or_stdout(json_path, report.to_json()) && io_ok;
  }
  if (!csv_path.empty()) {
    io_ok = write_file_or_stdout(csv_path, report.to_csv()) && io_ok;
  }

  trace::MetricsRegistry metrics;
  report.publish_metrics(metrics);
  if (!metrics_path.empty()) {
    io_ok = write_file_or_stdout(metrics_path, metrics.to_json() + "\n") && io_ok;
  }
  if (!io_ok) {
    std::fprintf(stderr, "%s: failed to write an output file\n", argv[0]);
  }

  // Host-side performance summary: stderr only, so stdout stays
  // byte-identical across thread counts.
  std::fprintf(stderr,
               "[sweep] %zu points, %zu errors, -j%d, %.0f ms wall, "
               "%llu events (%.1f Mev/s aggregate)\n",
               report.total_points(), report.total_errors(), report.jobs,
               report.wall_ms,
               static_cast<unsigned long long>(
                   metrics.counter("driver.events_total")),
               report.wall_ms > 0.0
                   ? static_cast<double>(
                         metrics.counter("driver.events_total")) /
                         report.wall_ms / 1e3
                   : 0.0);

  if (!io_ok) return 2;
  return report.ok() ? 0 : 1;
}

}  // namespace icsim::driver
