// Sweep scenario groups as gates: Table 1 and the four Section 3
// ablations run in-process through the sweep driver, and the shape claims
// EXPERIMENTS.md makes about them ("Ablations") are asserted on their
// points.

#include <gtest/gtest.h>

#include <string>

#include "driver/runner.hpp"
#include "scenarios/scenarios.hpp"

namespace icsim::bench {
namespace {

using driver::GroupReport;
using driver::PointResult;

GroupReport run_group(void (*register_group)(driver::Registry&),
                      const std::string& name) {
  driver::Registry reg;
  register_group(reg);
  driver::SweepReport rep = driver::run_sweep(reg, {name});
  EXPECT_TRUE(rep.ok()) << rep.to_json();
  EXPECT_EQ(rep.groups.size(), 1u);
  return rep.groups.at(0);
}

const PointResult& point(const GroupReport& g, const std::string& name) {
  for (std::size_t i = 0; i < g.point_names.size(); ++i) {
    if (g.point_names[i] == name) return g.points[i];
  }
  ADD_FAILURE() << g.name << " has no point " << name;
  static const PointResult none;
  return none;
}

/// Every point simulated something, so the group is inside the digest.
void expect_simulated(const GroupReport& g) {
  for (std::size_t i = 0; i < g.points.size(); ++i) {
    EXPECT_GT(g.points[i].events, 0u) << g.point_names[i];
    EXPECT_NE(g.points[i].digest, 0u) << g.point_names[i];
  }
}

TEST(Table1Platform, ReportsCalibratedConstantsWithoutSimulating) {
  const GroupReport g = run_group(register_table1_platform, "table1_platform");
  for (const PointResult& p : g.points) {
    EXPECT_EQ(p.events, 0u);
    EXPECT_EQ(p.digest, 0u);
  }
  EXPECT_DOUBLE_EQ(point(g, "hop ns").value("InfiniBand"), 200.0);
  EXPECT_DOUBLE_EQ(point(g, "hop ns").value("Elan-4"), 35.0);
  EXPECT_DOUBLE_EQ(point(g, "eager max B").value("InfiniBand"), 1024.0);
  EXPECT_EQ(point(g, "eager max B").find("Elan-4"), nullptr);
  EXPECT_EQ(point(g, "match ns/entry").find("InfiniBand"), nullptr);
  EXPECT_FALSE(g.summary.empty());
}

// Stock MVAPICH exposes the whole 128 kB exchange whatever the compute;
// independent progress (or Elan-4) hides it behind enough compute.
TEST(AblationGates, ProgressHidesTheTransferOnlyWithIndependentProgress) {
  const GroupReport g =
      run_group(register_ablation_progress, "ablation_progress");
  expect_simulated(g);
  ASSERT_EQ(g.points.size(), 6u);
  for (std::size_t i = 0; i < g.points.size(); ++i) {
    EXPECT_GE(g.points[i].value("IB stock"), 250.0) << g.point_names[i];
  }
  const PointResult& busy = point(g, "800");
  EXPECT_LT(busy.value("IB +indep"), 5.0);
  EXPECT_LT(busy.value("Elan-4"), 5.0);
}

// Moving the eager/rendezvous switch from 1 kB to 4 kB removes the 2 kB
// rendezvous round trip, at a pinned-memory price linear in the threshold.
TEST(AblationGates, RaisingTheEagerThresholdCutsTwoKilobyteLatency) {
  const GroupReport g = run_group(register_ablation_eager, "ablation_eager");
  expect_simulated(g);
  const PointResult& p = point(g, "2048");
  EXPECT_LT(p.value("eager4K us"), p.value("eager1K us"));
  bool priced = false;
  for (const std::string& s : g.summary) {
    priced = priced || s.find("16384 B ->   66.3 MB") != std::string::npos;
  }
  EXPECT_TRUE(priced) << "no 64-rank ring-memory line for a 16 kB threshold";
}

// The calibrated 7 MB pinning budget is Figure 1(b)'s 4 MB dip; a 32 MB
// cache ("subsequent versions of MVAPICH") removes it.
TEST(AblationGates, RegistrationBudgetCausesTheFourMegabyteDip) {
  const GroupReport g =
      run_group(register_ablation_regcache, "ablation_regcache");
  expect_simulated(g);
  const PointResult& p = point(g, std::to_string(4u << 20));
  EXPECT_LT(p.value("cache 7MB"), 0.7 * p.value("cache 32MB"));
}

// Section 3.3.4's caveat: a slow NIC matcher scanning a deep posted queue
// loses to host-based matching.
TEST(AblationGates, SlowNicMatcherLosesToHostMatchingOnDeepQueues) {
  const GroupReport g =
      run_group(register_ablation_offload, "ablation_offload");
  expect_simulated(g);
  const PointResult& p = point(g, "256");
  EXPECT_GT(p.value("elan 1us"), p.value("IB host"));
}

}  // namespace
}  // namespace icsim::bench
