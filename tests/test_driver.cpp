// Sweep driver: registry ordering, thread-count determinism of the
// aggregated report, and per-point error isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "driver/runner.hpp"
#include "driver/scenario.hpp"
#include "driver/sweep_main.hpp"
#include "microbench/pingpong.hpp"
#include "scoped_env.hpp"
#include "sim/engine.hpp"

namespace icsim::driver {
namespace {

// A point with a real (if tiny) event stream, so digests are nonzero and
// order-sensitive.
PointResult engine_point(int n) {
  sim::Engine e;
  for (int i = 0; i < n; ++i) {
    e.schedule_at(sim::Time::us(i + 1), [] {});
  }
  e.run();
  PointResult r;
  r.events = e.events_processed();
  r.digest = e.event_digest();
  r.add("n", n, 0);
  r.add("events", static_cast<double>(r.events), 0);
  return r;
}

// A point that runs the rendezvous path end to end: a 64 kB ping-pong on a
// fresh two-node InfiniBand cluster exercises the registration cache, which
// historically was the thread-count-dependent component (it keyed on host
// heap addresses; see ib/reg_cache.hpp).
PointResult rendezvous_point() {
  microbench::PingPongOptions opt;
  opt.sizes = {64 * 1024};
  opt.repetitions = 4;
  opt.warmup = 1;
  core::Cluster::RunStats st;
  opt.stats = &st;
  const auto pts = microbench::run_pingpong(core::ib_cluster(2), opt);
  PointResult r;
  r.events = st.events_processed;
  r.digest = st.event_digest;
  r.add("us", pts.at(0).latency_us, 3);
  return r;
}

Registry make_registry() {
  Registry reg;
  reg.group("alpha", "Alpha group");
  for (int n : {5, 9, 13}) {
    reg.add("alpha", "n" + std::to_string(n), [n] { return engine_point(n); });
  }
  reg.group("alpha").finalize = [](std::vector<PointResult>& pts) {
    double total = 0.0;
    for (auto& p : pts) {
      total += p.value("events");
      p.add("share", p.value("events") / 27.0, 3);
    }
    return std::vector<std::string>{"total events " + std::to_string(total)};
  };
  reg.group("rndv", "Rendezvous path");
  for (int i = 0; i < 4; ++i) {
    reg.add("rndv", "pp" + std::to_string(i), [] { return rendezvous_point(); });
  }
  return reg;
}

TEST(Registry, PreservesRegistrationOrderAndSelectsByGroup) {
  const Registry reg = make_registry();
  ASSERT_EQ(reg.groups().size(), 2u);
  EXPECT_EQ(reg.groups()[0].name, "alpha");
  EXPECT_EQ(reg.groups()[1].name, "rndv");
  ASSERT_EQ(reg.scenarios().size(), 7u);
  EXPECT_EQ(reg.scenarios()[0].name, "n5");
  EXPECT_EQ(reg.scenarios()[3].name, "pp0");

  const auto idx = reg.select({"rndv"});
  ASSERT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx[0], 3u);
  EXPECT_THROW((void)reg.select({"nope"}), std::invalid_argument);
}

TEST(Runner, ReportIsByteIdenticalAcrossThreadCounts) {
  const Registry reg = make_registry();
  SweepOptions one;
  one.jobs = 1;
  SweepOptions eight;
  eight.jobs = 8;
  const SweepReport a = run_sweep(reg, {}, one);
  const SweepReport b = run_sweep(reg, {}, eight);

  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    ASSERT_EQ(a.groups[g].points.size(), b.groups[g].points.size());
    for (std::size_t p = 0; p < a.groups[g].points.size(); ++p) {
      EXPECT_EQ(a.groups[g].points[p].digest, b.groups[g].points[p].digest)
          << a.groups[g].name << "/" << a.groups[g].point_names[p];
      EXPECT_EQ(a.groups[g].points[p].events, b.groups[g].points[p].events);
    }
    EXPECT_EQ(a.groups[g].digest, b.groups[g].digest);
    EXPECT_EQ(a.groups[g].summary, b.groups[g].summary);
  }
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(Runner, FinalizeRunsOnceInRegistryOrder) {
  const Registry reg = make_registry();
  SweepOptions opt;
  opt.jobs = 4;
  const SweepReport r = run_sweep(reg, {"alpha"}, opt);
  ASSERT_EQ(r.groups.size(), 1u);
  const GroupReport& g = r.groups[0];
  ASSERT_EQ(g.points.size(), 3u);
  // 5 + 9 + 13 scheduled events.
  ASSERT_EQ(g.summary.size(), 1u);
  EXPECT_EQ(g.summary[0].rfind("total events 27", 0), 0u);
  // finalize-appended metric present on every point.
  for (const auto& p : g.points) {
    EXPECT_NE(p.find("share"), nullptr);
  }
}

TEST(Runner, ThrowingScenarioIsReportedWithoutPoisoningTheBatch) {
  Registry reg;
  reg.group("mix", "Error isolation");
  reg.add("mix", "ok0", [] { return engine_point(3); });
  reg.add("mix", "bad", []() -> PointResult {
    throw std::runtime_error("boom");
  });
  reg.add("mix", "ok1", [] { return engine_point(4); });

  SweepOptions opt;
  opt.jobs = 4;
  const SweepReport r = run_sweep(reg, {}, opt);
  ASSERT_EQ(r.groups.size(), 1u);
  const GroupReport& g = r.groups[0];
  ASSERT_EQ(g.points.size(), 3u);
  EXPECT_TRUE(g.points[0].error.empty());
  EXPECT_EQ(g.points[1].error, "boom");
  EXPECT_TRUE(g.points[2].error.empty());
  EXPECT_EQ(g.points[0].events, 3u);
  EXPECT_EQ(g.points[2].events, 4u);
  EXPECT_EQ(r.total_errors(), 1u);
  EXPECT_FALSE(r.ok());
  // Serializations still produced, and deterministically so.
  EXPECT_EQ(r.to_json(), run_sweep(reg, {}, SweepOptions{}).to_json());
}

// CLI-level behavior of sweep_main, called directly with fake argv.
int run_cli(const Registry& reg, std::vector<std::string> args) {
  std::vector<char*> argv;
  args.insert(args.begin(), "icsim_sweep");
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return sweep_main(reg, static_cast<int>(argv.size()), argv.data());
}

TEST(SweepCli, UnknownGroupIsAHardErrorListingValidGroups) {
  const Registry reg = make_registry();
  ::testing::internal::CaptureStderr();
  const int rc = run_cli(reg, {"--quiet", "no_such_group"});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unknown scenario group 'no_such_group'"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("alpha"), std::string::npos) << err;
  EXPECT_NE(err.find("rndv"), std::string::npos) << err;
}

TEST(SweepCli, ListPrintsEveryGroupWithPointCountsAndExitsZero) {
  const Registry reg = make_registry();
  ::testing::internal::CaptureStdout();
  const int rc = run_cli(reg, {"--list"});
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  // Every group appears, in registration order, with its point count.
  const auto alpha = out.find("alpha");
  const auto rndv = out.find("rndv");
  ASSERT_NE(alpha, std::string::npos) << out;
  ASSERT_NE(rndv, std::string::npos) << out;
  EXPECT_LT(alpha, rndv);
  EXPECT_NE(out.find("3 points"), std::string::npos) << out;
  EXPECT_NE(out.find("4 points"), std::string::npos) << out;
  EXPECT_NE(out.find("Alpha group"), std::string::npos) << out;
  // Listing must not run any scenario: --list with an unknown group name
  // still exits 0 because selection never happens.
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run_cli(reg, {"--list", "no_such_group"}), 0);
  (void)::testing::internal::GetCapturedStdout();
}

TEST(SweepCli, MalformedJobsIsAHardError) {
  const Registry reg = make_registry();
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"-j", "abc"},
        {"-j", "-3"},
        {"-j", ""},
        {"-j", "2x"},
        {"-j2x"},
        {"-jabc"},
        {"-j", "99999999999"}}) {
    std::vector<std::string> full = args;
    full.insert(full.begin(), "--quiet");
    full.push_back("alpha");
    ::testing::internal::CaptureStderr();
    const int rc = run_cli(reg, full);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2) << args.back();
    EXPECT_NE(err.find("-j needs a non-negative integer"), std::string::npos)
        << err;
  }
  // Well-formed counts still run.
  EXPECT_EQ(run_cli(reg, {"--quiet", "-j", "1", "alpha"}), 0);
  EXPECT_EQ(run_cli(reg, {"--quiet", "-j2", "alpha"}), 0);
}

TEST(SweepCli, BadProcessWideEnvFailsOnceBeforeTheSweep) {
  const Registry reg = make_registry();
  const auto lines = [](const std::string& text) {
    return std::count(text.begin(), text.end(), '\n');
  };
  {
    const ScopedEnv trace("ICSIM_TRACE", "never_written.json");
    const ScopedEnv events("ICSIM_TRACE_EVENTS", "-1");
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int rc = run_cli(reg, {"alpha", "rndv"});
    const std::string err = ::testing::internal::GetCapturedStderr();
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(lines(err), 1) << err;
    EXPECT_EQ(err.rfind("icsim_sweep: ICSIM_TRACE_EVENTS='-1'", 0), 0u) << err;
    EXPECT_TRUE(out.empty()) << out;  // no point ran
    EXPECT_FALSE(std::filesystem::exists("never_written.json"));
  }
  {
    const ScopedEnv faults("ICSIM_FAULTS", "bogus=1");
    ::testing::internal::CaptureStderr();
    const int rc = run_cli(reg, {"--quiet", "alpha", "rndv"});
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(lines(err), 1) << err;
    EXPECT_EQ(err.rfind("icsim_sweep: ICSIM_FAULTS: ", 0), 0u) << err;
    EXPECT_NE(err.find("bogus=1"), std::string::npos) << err;
  }
  {
    // Read by every parallel-tier point's ParCluster; one error, not one
    // per point.
    const ScopedEnv threads("ICSIM_PAR_THREADS", "abc");
    ::testing::internal::CaptureStderr();
    const int rc = run_cli(reg, {"--quiet", "alpha", "rndv"});
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2);
    EXPECT_EQ(lines(err), 1) << err;
    EXPECT_EQ(err.rfind("icsim_sweep: ICSIM_PAR_THREADS='abc'", 0), 0u)
        << err;
  }
  {
    const ScopedEnv threads("ICSIM_PAR_THREADS", "2");
    EXPECT_EQ(run_cli(reg, {"--quiet", "alpha"}), 0);
  }
  {
    // ICSIM_TRACE_EVENTS only sizes a trace ICSIM_TRACE asked for; on its
    // own it is not read, so it is not checked either.
    const ScopedEnv events("ICSIM_TRACE_EVENTS", "-1");
    EXPECT_EQ(run_cli(reg, {"--quiet", "alpha"}), 0);
  }
  {
    const ScopedEnv faults("ICSIM_FAULTS", "ber=0; seed=3");
    EXPECT_EQ(run_cli(reg, {"--quiet", "alpha"}), 0);
  }
}

TEST(SweepCli, OutInfersFormatFromExtension) {
  const Registry reg = make_registry();
  const std::string base = ::testing::TempDir() + "icsim_sweep_out";
  const std::string json_path = base + ".json";
  const std::string csv_path = base + ".csv";
  std::filesystem::remove(json_path);
  std::filesystem::remove(csv_path);
  EXPECT_EQ(run_cli(reg, {"--quiet", "--out", json_path, "alpha"}), 0);
  EXPECT_EQ(run_cli(reg, {"--quiet", "--out", csv_path, "alpha"}), 0);
  // --out matches the explicit --json/--csv flags byte for byte.
  const std::string json_ref = base + ".ref.json";
  const std::string csv_ref = base + ".ref.csv";
  EXPECT_EQ(run_cli(reg, {"--quiet", "--json", json_ref, "alpha"}), 0);
  EXPECT_EQ(run_cli(reg, {"--quiet", "--csv", csv_ref, "alpha"}), 0);
  const auto slurp = [](const std::string& p) {
    std::ifstream f(p);
    return std::string(std::istreambuf_iterator<char>(f), {});
  };
  EXPECT_FALSE(slurp(json_path).empty());
  EXPECT_EQ(slurp(json_path), slurp(json_ref));
  EXPECT_EQ(slurp(csv_path), slurp(csv_ref));
  EXPECT_NE(slurp(json_path).find("\"groups\""), std::string::npos);
}

TEST(SweepCli, OutWithoutRecognizedExtensionFails) {
  const Registry reg = make_registry();
  ::testing::internal::CaptureStderr();
  const int rc = run_cli(reg, {"--quiet", "--out", "report.txt", "alpha"});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find(".json or .csv"), std::string::npos) << err;
}

}  // namespace
}  // namespace icsim::driver
