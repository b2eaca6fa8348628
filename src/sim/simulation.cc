#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/bruteforce.h"
#include "join/spatial_join.h"

namespace simspatial::sim {

void PlasticityKinetics::Step(const core::SpatialIndex* index,
                              std::vector<Element>* elements,
                              std::vector<ElementUpdate>* updates,
                              QueryCounters* counters) {
  (void)index;
  (void)counters;
  last_ = model_.Step(elements, updates);
}

void NBodyKinetics::Step(const core::SpatialIndex* index,
                         std::vector<Element>* elements,
                         std::vector<ElementUpdate>* updates,
                         QueryCounters* counters) {
  updates->clear();
  updates->reserve(elements->size());
  std::vector<ElementId> nn;
  // Gather the attraction of each element's k nearest neighbours at the
  // previous step (positions read through `elements`, neighbours found
  // through the index or a scan fallback).
  std::vector<Vec3> displacement(elements->size());
  for (std::size_t i = 0; i < elements->size(); ++i) {
    const Vec3 c = (*elements)[i].Center();
    if (index != nullptr) {
      index->KnnQuery(c, config_.neighbours + 1, &nn, counters);
    } else {
      nn = ScanKnn(*elements, c, config_.neighbours + 1, counters);
    }
    Vec3 pull(0, 0, 0);
    for (const ElementId id : nn) {
      if (id == (*elements)[i].id || id >= elements->size()) continue;
      const Vec3 d = (*elements)[id].Center() - c;
      const float dist2 = std::max(d.SquaredNorm(), 1e-4f);
      pull += d * (config_.gravity / dist2);
    }
    const float norm = pull.Norm();
    if (norm > config_.max_step) pull *= config_.max_step / norm;
    displacement[i] = pull;
  }
  for (std::size_t i = 0; i < elements->size(); ++i) {
    Element& e = (*elements)[i];
    AABB moved = e.box.Translated(displacement[i]);
    // Clamp into the universe.
    for (int axis = 0; axis < 3; ++axis) {
      const float under = universe_.min[axis] - moved.min[axis];
      if (under > 0) {
        moved.min[axis] += under;
        moved.max[axis] += under;
      }
      const float over = moved.max[axis] - universe_.max[axis];
      if (over > 0) {
        moved.min[axis] -= over;
        moved.max[axis] -= over;
      }
    }
    e.box = moved;
    updates->emplace_back(e.id, e.box);
  }
}

const char* ToString(MaintenancePolicy policy) {
  switch (policy) {
    case MaintenancePolicy::kRebuildEveryStep:
      return "rebuild";
    case MaintenancePolicy::kIncrementalUpdate:
      return "incremental";
    case MaintenancePolicy::kNoIndex:
      return "no-index";
  }
  return "?";
}

Simulation::Simulation(std::vector<Element> elements, const AABB& universe,
                       std::unique_ptr<Kinetics> kinetics,
                       SimulationConfig config)
    : elements_(std::move(elements)),
      universe_(universe),
      kinetics_(std::move(kinetics)),
      config_(config),
      monitor_rng_(config.seed) {
  if (config_.policy != MaintenancePolicy::kNoIndex) {
    index_ = core::MakeIndex(
        config_.index_name,
        core::IndexOptions{
            .threads = config_.index_threads,
            .layout = config_.index_layout,
            .shards = config_.index_shards,
            .compact_regions_per_batch = config_.index_compact_regions});
    assert(index_ != nullptr && "unknown index name");
    index_->Build(elements_, universe_);
    updates_.reserve(elements_.size());
  }
}

void Simulation::Monitor(StepReport* report) {
  // In-situ visualization / analysis: range queries "at locations that
  // cannot be anticipated" (§2.2).
  const Vec3 ext = universe_.Extent();
  const float side =
      std::max({ext.x, ext.y, ext.z}) * config_.monitor_query_fraction;
  // Draw every probe box up front so the rng stream is identical whether
  // the probes are then served one by one or through the batch engine.
  std::vector<AABB> probes;
  probes.reserve(config_.monitor_range_queries);
  for (std::size_t q = 0; q < config_.monitor_range_queries; ++q) {
    probes.push_back(AABB::FromCenterHalfExtent(
        monitor_rng_.PointIn(universe_), side * 0.5f));
  }
  const bool indexed = index_ != nullptr && index_->SupportsRangeQueries();
  if (config_.index_batch && indexed) {
    std::vector<std::vector<ElementId>> slots;
    index_->RangeQueryBatch(probes, &slots, &report->query_counters);
    for (const auto& slot : slots) report->monitor_results += slot.size();
  } else {
    std::vector<ElementId> out;
    for (const AABB& query : probes) {
      if (indexed) {
        index_->RangeQuery(query, &out, &report->query_counters);
      } else {
        out = ScanRange(elements_, query, &report->query_counters);
      }
      report->monitor_results += out.size();
    }
  }
  // Synapse detection (§2.2): distance self-join every few steps.
  if (config_.synapse_every > 0 && step_ % config_.synapse_every == 0) {
    join::GridJoinOptions opts;
    const auto pairs =
        join::GridSelfJoin(elements_, config_.synapse_eps, opts,
                           &report->query_counters);
    report->synapse_pairs = pairs.size();
  }
}

StepReport Simulation::Step() {
  StepReport report;
  report.step = step_;

  Stopwatch sw;
  kinetics_->Step(index_.get(), &elements_, &updates_,
                  &report.query_counters);
  report.kinetics_ms = sw.ElapsedMs();

  sw.Restart();
  switch (config_.policy) {
    case MaintenancePolicy::kRebuildEveryStep:
      index_->Build(elements_, universe_);
      report.updates_applied = updates_.size();
      break;
    case MaintenancePolicy::kIncrementalUpdate:
      // The whole step's updates go down as one batch — updatable indexes
      // (MemGrid's slack-CSR path in particular) group the migrations by
      // destination cell. Static structures fall back to a rebuild instead
      // of silently dropping the step's movement.
      if (index_->SupportsUpdates()) {
        report.updates_applied = index_->ApplyUpdates(updates_);
      } else {
        index_->Build(elements_, universe_);
        report.updates_applied = updates_.size();
      }
      break;
    case MaintenancePolicy::kNoIndex:
      report.updates_applied = updates_.size();  // The dataset is current.
      break;
  }
  report.maintenance_ms = sw.ElapsedMs();

  sw.Restart();
  Monitor(&report);
  report.monitoring_ms = sw.ElapsedMs();

  ++step_;
  return report;
}

std::vector<StepReport> Simulation::Run(std::size_t n) {
  std::vector<StepReport> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) reports.push_back(Step());
  return reports;
}

}  // namespace simspatial::sim
