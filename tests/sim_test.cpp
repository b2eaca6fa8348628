// Simulation driver: the Figure 1 loop end to end.

#include "sim/simulation.h"

#include <gtest/gtest.h>

#include "common/bruteforce.h"
#include "datagen/neuron.h"

namespace simspatial::sim {
namespace {

const AABB kUniverse(Vec3(0, 0, 0), Vec3(50, 50, 50));

std::vector<Element> SmallModel(std::size_t n) {
  return datagen::GenerateUniformBoxes(n, kUniverse, 0.1f, 0.4f);
}

TEST(SimulationTest, PlasticityLoopRunsAndAccounts) {
  SimulationConfig cfg;
  cfg.index_name = "memgrid";
  cfg.policy = MaintenancePolicy::kIncrementalUpdate;
  cfg.monitor_range_queries = 5;
  datagen::PlasticityConfig pcfg;
  pcfg.mean_displacement = 0.1f;
  Simulation sim(SmallModel(3000), kUniverse,
                 std::make_unique<PlasticityKinetics>(pcfg, kUniverse), cfg);
  const auto reports = sim.Run(10);
  ASSERT_EQ(reports.size(), 10u);
  for (const StepReport& r : reports) {
    EXPECT_EQ(r.updates_applied, 3000u);
    EXPECT_GE(r.TotalMs(), 0.0);
  }
  EXPECT_EQ(sim.current_step(), 10u);
}

TEST(SimulationTest, IndexStaysConsistentWithModel) {
  SimulationConfig cfg;
  cfg.index_name = "rtree-str";
  cfg.policy = MaintenancePolicy::kIncrementalUpdate;
  cfg.monitor_range_queries = 0;
  datagen::PlasticityConfig pcfg;
  pcfg.mean_displacement = 0.3f;
  Simulation sim(SmallModel(1500), kUniverse,
                 std::make_unique<PlasticityKinetics>(pcfg, kUniverse), cfg);
  sim.Run(5);
  // After 5 steps, index query must equal a scan over the live model.
  std::vector<ElementId> got;
  const AABB probe = AABB::FromCenterHalfExtent(Vec3(25, 25, 25), 8.0f);
  sim.index()->RangeQuery(probe, &got);
  std::sort(got.begin(), got.end());
  auto want = ScanRange(sim.elements(), probe);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(SimulationTest, RebuildAndIncrementalAgree) {
  datagen::PlasticityConfig pcfg;
  pcfg.mean_displacement = 0.2f;
  pcfg.seed = 999;

  SimulationConfig inc_cfg;
  inc_cfg.policy = MaintenancePolicy::kIncrementalUpdate;
  inc_cfg.monitor_range_queries = 0;
  Simulation inc(SmallModel(1000), kUniverse,
                 std::make_unique<PlasticityKinetics>(pcfg, kUniverse),
                 inc_cfg);

  SimulationConfig reb_cfg;
  reb_cfg.policy = MaintenancePolicy::kRebuildEveryStep;
  reb_cfg.monitor_range_queries = 0;
  Simulation reb(SmallModel(1000), kUniverse,
                 std::make_unique<PlasticityKinetics>(pcfg, kUniverse),
                 reb_cfg);

  inc.Run(4);
  reb.Run(4);
  // Identical kinetics seeds -> identical models -> identical query answers.
  const AABB probe = AABB::FromCenterHalfExtent(Vec3(20, 30, 25), 10.0f);
  std::vector<ElementId> a;
  std::vector<ElementId> b;
  inc.index()->RangeQuery(probe, &a);
  reb.index()->RangeQuery(probe, &b);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(SimulationTest, NoIndexPolicyUsesScans) {
  SimulationConfig cfg;
  cfg.policy = MaintenancePolicy::kNoIndex;
  cfg.monitor_range_queries = 3;
  datagen::PlasticityConfig pcfg;
  Simulation sim(SmallModel(800), kUniverse,
                 std::make_unique<PlasticityKinetics>(pcfg, kUniverse), cfg);
  EXPECT_EQ(sim.index(), nullptr);
  const auto reports = sim.Run(3);
  for (const StepReport& r : reports) {
    // Scans test every element for every monitoring query.
    EXPECT_GE(r.query_counters.element_tests, 3u * 800u);
  }
}

TEST(SimulationTest, NBodyKineticsQueriesTheIndex) {
  SimulationConfig cfg;
  cfg.index_name = "memgrid";
  cfg.policy = MaintenancePolicy::kIncrementalUpdate;
  cfg.monitor_range_queries = 0;
  NBodyKinetics::Config ncfg;
  ncfg.neighbours = 4;
  Simulation sim(SmallModel(500), kUniverse,
                 std::make_unique<NBodyKinetics>(ncfg, kUniverse), cfg);
  const auto reports = sim.Run(3);
  for (const StepReport& r : reports) {
    // Force gathering = one kNN per element per step.
    EXPECT_GT(r.query_counters.distance_computations, 0u);
    EXPECT_EQ(r.updates_applied, 500u);
  }
  // Gravity-like attraction must not fling elements out of the universe.
  for (const Element& e : sim.elements()) {
    EXPECT_TRUE(kUniverse.Inflated(1e-3f).Contains(e.box));
  }
}

TEST(SimulationTest, SynapseMonitorFires) {
  SimulationConfig cfg;
  cfg.index_name = "memgrid";
  cfg.monitor_range_queries = 0;
  cfg.synapse_every = 2;
  cfg.synapse_eps = 1.0f;
  datagen::PlasticityConfig pcfg;
  Simulation sim(SmallModel(1000), kUniverse,
                 std::make_unique<PlasticityKinetics>(pcfg, kUniverse), cfg);
  const auto reports = sim.Run(4);
  // Steps 0 and 2 run the join (dense-ish model: some pairs exist).
  EXPECT_GT(reports[0].synapse_pairs + reports[2].synapse_pairs, 0u);
  EXPECT_EQ(reports[1].synapse_pairs, 0u);
  EXPECT_EQ(reports[3].synapse_pairs, 0u);
}

// The synapse join runs on SimulationConfig::index_threads, like the
// index; neither may change a step's results.
TEST(SimulationTest, SynapseJoinIsThreadInvariant) {
  const auto run = [](std::uint32_t threads) {
    SimulationConfig cfg;
    cfg.index_threads = threads;
    cfg.monitor_range_queries = 3;
    cfg.synapse_every = 1;
    cfg.synapse_eps = 0.5f;
    datagen::PlasticityConfig pcfg;
    pcfg.seed = 5;
    Simulation sim(SmallModel(20000), kUniverse,
                   std::make_unique<PlasticityKinetics>(pcfg, kUniverse), cfg);
    std::vector<std::size_t> pairs;
    std::vector<QueryCounters> counters;
    for (const StepReport& r : sim.Run(3)) {
      pairs.push_back(r.synapse_pairs);
      counters.push_back(r.query_counters);
    }
    return std::pair{pairs, counters};
  };
  const auto serial = run(0);
  EXPECT_GT(serial.first[0], 0u);
  for (const std::uint32_t threads : {1u, par::kThreadsAuto}) {
    const auto got = run(threads);
    EXPECT_EQ(got.first, serial.first) << "threads=" << threads;
    EXPECT_EQ(got.second, serial.second) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace simspatial::sim
