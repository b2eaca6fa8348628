// SimSpatial — time-stepped simulation driver (the Figure 1 loop).
//
// §2.1: "Given a model and an initial state, simulations calculate and
// approximate the subsequent states of the model in discrete time steps.
// ... during the simulation phase analysis/update queries are executed to
// update the model and during the monitoring phase analysis queries are
// executed to monitor the progress of the simulation."
//
// The driver owns the spatial model, a kinetics rule (how elements move), a
// spatial index under a maintenance policy, and monitoring hooks. Every
// step it (1) runs the kinetics — which may itself issue index queries,
// e.g. kNN force gathering in n-body models (§1), (2) maintains the index
// per policy, (3) runs the monitors (in-situ range analysis, §2.2; synapse
// joins, §2.2), and reports where the time went. bench_e2e_simulation
// sweeps policies over this loop to reproduce the paper's §5 thesis.

#ifndef SIMSPATIAL_SIM_SIMULATION_H_
#define SIMSPATIAL_SIM_SIMULATION_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/counters.h"
#include "common/element.h"
#include "core/spatial_index.h"
#include "datagen/plasticity.h"

namespace simspatial::sim {

/// How elements move between steps.
class Kinetics {
 public:
  virtual ~Kinetics() = default;
  virtual std::string_view name() const = 0;
  /// Advance one step: mutate `elements` and emit one update per moved
  /// element. `index` reflects the *previous* step's positions and may be
  /// queried (n-body force gathering); it may be null under the no-index
  /// policy.
  virtual void Step(const core::SpatialIndex* index,
                    std::vector<Element>* elements,
                    std::vector<ElementUpdate>* updates,
                    QueryCounters* counters) = 0;
};

/// Neural-plasticity kinetics: the §4.1 massive-but-minimal random walk.
class PlasticityKinetics final : public Kinetics {
 public:
  PlasticityKinetics(datagen::PlasticityConfig config, const AABB& universe)
      : model_(config, universe) {}
  std::string_view name() const override { return "plasticity"; }
  void Step(const core::SpatialIndex* index, std::vector<Element>* elements,
            std::vector<ElementUpdate>* updates,
            QueryCounters* counters) override;
  const datagen::DisplacementStats& last_stats() const { return last_; }

 private:
  datagen::PlasticityModel model_;
  datagen::DisplacementStats last_;
};

/// N-body-style kinetics (§1, §2.2): each element's displacement follows
/// the attraction of its k nearest neighbours at the previous step —
/// querying the index is part of computing the model.
class NBodyKinetics final : public Kinetics {
 public:
  struct Config {
    std::size_t neighbours = 8;
    float gravity = 0.01f;  ///< Displacement scale per step.
    float max_step = 0.5f;  ///< Displacement clamp.
  };
  NBodyKinetics(Config config, const AABB& universe)
      : config_(config), universe_(universe) {}
  std::string_view name() const override { return "nbody"; }
  void Step(const core::SpatialIndex* index, std::vector<Element>* elements,
            std::vector<ElementUpdate>* updates,
            QueryCounters* counters) override;

 private:
  Config config_;
  AABB universe_;
};

/// Index maintenance policy per step (§4/§5 design space).
enum class MaintenancePolicy {
  kRebuildEveryStep,   ///< Throwaway/bulk-load strategy.
  kIncrementalUpdate,  ///< ApplyUpdates on the live index.
  kNoIndex,            ///< Queries fall back to linear scans.
};

const char* ToString(MaintenancePolicy policy);

struct SimulationConfig {
  std::string index_name = "memgrid";
  /// Worker threads handed to the index (core::IndexOptions::threads):
  /// par::kThreadsAuto resolves to the hardware concurrency, 0 and 1 run
  /// on the calling thread. Parallel-capable structures (MemGrid) use it for
  /// Build / ApplyUpdates / SelfJoin; others ignore it.
  std::uint32_t index_threads = par::kThreadsAuto;
  /// Cell-region storage order for the base MemGrid profiles
  /// (core::IndexOptions::layout): kRowMajor | kMorton | kHilbert. Other
  /// structures ignore it. Purely a performance knob — step results are
  /// identical across layouts.
  core::CellLayout index_layout = core::CellLayout::kRowMajor;
  /// Entry-block shards for the MemGrid profiles
  /// (core::IndexOptions::shards): bounds the worst-case maintenance stall
  /// of a step at O(n/shards). Step results are identical at every value.
  std::uint32_t index_shards = 1;
  /// Incremental compaction budget for the MemGrid profiles
  /// (core::IndexOptions::compact_regions_per_batch): regions reclaimed
  /// per maintenance step; 0 leaves compaction to the re-layout triggers.
  std::uint32_t index_compact_regions = 0;
  MaintenancePolicy policy = MaintenancePolicy::kIncrementalUpdate;
  /// Serve the per-step monitoring probes through the index's batch entry
  /// point (RangeQueryBatch) instead of one RangeQuery per probe. Purely a
  /// throughput knob: probe boxes, results and counters are identical —
  /// the batch contract pins slot i to the per-probe emission.
  bool index_batch = false;
  /// In-situ monitoring: range queries per step (0 disables).
  std::size_t monitor_range_queries = 10;
  /// Monitoring query cube side as a fraction of the universe side.
  float monitor_query_fraction = 0.05f;
  /// Run a synapse-detection self-join every N steps (0 disables).
  std::size_t synapse_every = 0;
  float synapse_eps = 0.5f;
  std::uint64_t seed = 71;
};

/// Per-step accounting.
struct StepReport {
  std::size_t step = 0;
  double kinetics_ms = 0;
  double maintenance_ms = 0;
  double monitoring_ms = 0;
  std::size_t updates_applied = 0;
  std::size_t monitor_results = 0;
  std::size_t synapse_pairs = 0;
  QueryCounters query_counters;
  double TotalMs() const {
    return kinetics_ms + maintenance_ms + monitoring_ms;
  }
};

/// The Figure 1 driver.
class Simulation {
 public:
  Simulation(std::vector<Element> elements, const AABB& universe,
             std::unique_ptr<Kinetics> kinetics, SimulationConfig config);

  /// Advance one time step and report where the time went.
  StepReport Step();

  /// Convenience: run `n` steps and return the reports.
  std::vector<StepReport> Run(std::size_t n);

  const std::vector<Element>& elements() const { return elements_; }
  const AABB& universe() const { return universe_; }
  const core::SpatialIndex* index() const { return index_.get(); }
  std::size_t current_step() const { return step_; }

 private:
  void Monitor(StepReport* report);

  std::vector<Element> elements_;
  AABB universe_;
  std::unique_ptr<Kinetics> kinetics_;
  SimulationConfig config_;
  std::unique_ptr<core::SpatialIndex> index_;
  std::vector<ElementUpdate> updates_;
  Rng monitor_rng_;
  std::size_t step_ = 0;
};

}  // namespace simspatial::sim

#endif  // SIMSPATIAL_SIM_SIMULATION_H_
