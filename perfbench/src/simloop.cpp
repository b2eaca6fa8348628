// perfbench — the Figure-1 loop workloads (plasticity, synapse).
//
// Untraced: sim::Simulation::Step timed from outside, as a user runs it.
// Traced: the same Simulation steps interleaved with a replica that repeats
// Simulation::Step call by call (kinetics, ApplyUpdates, the monitor
// probes from the same RNG stream, the synapse join), each call in its own
// span. The replica must reproduce every step's updates applied, monitor
// results and synapse pairs, and the final element state, exactly.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/bruteforce.h"
#include "common/rng.h"
#include "core/spatial_index.h"
#include "datagen/neuron.h"
#include "datagen/plasticity.h"
#include "join/spatial_join.h"
#include "sim/simulation.h"

namespace perfbench {
namespace {

constexpr std::size_t kMonitorProbes = 100;
constexpr float kMonitorFraction = 0.03f;
constexpr float kSynapseEps = 0.5f;
constexpr int kSetupReps = 15;
constexpr std::size_t kWarmupSteps = 2;
constexpr std::size_t kMinSteps = 5;
constexpr std::size_t kCensusWindows = 16;

struct SimSetup {
  std::vector<Element> elements;
  AABB universe;
  datagen::PlasticityConfig kinetics;
  sim::SimulationConfig config;
};

SimSetup MakeSimSetup(std::vector<Element> elements, const AABB& universe,
                      std::uint64_t seed, bool join) {
  SimSetup s;
  s.elements = std::move(elements);
  s.universe = universe;
  s.kinetics.seed = SubSeed(seed, Stream::kKinetics);
  // Workload parameters only: no index knob is set, so the index is what
  // a user of Simulation gets by default.
  s.config.monitor_range_queries = kMonitorProbes;
  s.config.monitor_query_fraction = kMonitorFraction;
  s.config.synapse_every = join ? 1 : 0;
  s.config.synapse_eps = kSynapseEps;
  s.config.seed = SubSeed(seed, Stream::kMonitor);
  return s;
}

std::unique_ptr<sim::Simulation> MakeSimulation(const SimSetup& s,
                                                double* seconds) {
  std::vector<Element> copy = s.elements;
  Stopwatch sw;
  auto simulation = std::make_unique<sim::Simulation>(
      std::move(copy), s.universe,
      std::make_unique<sim::PlasticityKinetics>(s.kinetics, s.universe),
      s.config);
  if (seconds != nullptr) *seconds = sw.ElapsedSeconds();
  return simulation;
}

/// Index ops one step issues: one update per element (every element moves),
/// the monitor probes and, with the join on, one self-join.
std::uint64_t OpsPerStep(const SimSetup& s) {
  return s.elements.size() + s.config.monitor_range_queries +
         (s.config.synapse_every > 0 ? 1 : 0);
}

/// Runs one Simulation step, counting its ops and any update not applied.
/// Returns false (and fails the step's ops) if the step threw.
bool StepChecked(sim::Simulation* simulation, const SimSetup& s,
                 Tally* tally, sim::StepReport* report) {
  const std::uint64_t ops = OpsPerStep(s);
  tally->Attempt(ops);
  try {
    *report = simulation->Step();
  } catch (const std::exception& e) {
    tally->Fail(ops, std::string("Simulation::Step threw: ") + e.what());
    return false;
  }
  const std::size_t n = s.elements.size();
  if (report->updates_applied != n) {
    const std::size_t a = report->updates_applied;
    tally->Fail(a > n ? a - n : n - a,
                "step " + std::to_string(report->step) + " applied " +
                    std::to_string(a) + " of " + std::to_string(n) +
                    " updates");
  }
  return true;
}

/// End-of-run correctness, outside any timed region: sampled probes against
/// linear scans of the benchmark's own copy of the element state, the
/// index's invariants, and the synapse pairs against a second join
/// algorithm (PBSM).
void CheckFinalState(const sim::Simulation& simulation, const SimSetup& s,
                     std::size_t last_pairs, std::uint64_t seed,
                     Tally* tally) {
  const std::vector<Element> state = simulation.elements();
  const core::SpatialIndex& index = *simulation.index();
  tally->Check(index.size() == state.size(), "index size after the run");
  std::string error;
  tally->Check(index.CheckInvariants(&error),
               "CheckInvariants after the run: " + error);

  Rng rng(SubSeed(seed, Stream::kSample));
  const Vec3 ext = s.universe.Extent();
  const float half =
      std::max({ext.x, ext.y, ext.z}) * s.config.monitor_query_fraction * 0.5f;
  std::vector<AABB> probes;
  std::vector<Vec3> points;
  for (int i = 0; i < 64; ++i) {
    // Half uniform (the monitor's probes), half on elements (sure hits).
    const Vec3 c = i % 2 == 0
                       ? rng.PointIn(s.universe)
                       : state[rng.NextBelow(state.size())].box.Center();
    probes.push_back(AABB::FromCenterHalfExtent(c, half));
    if (i % 4 == 1) points.push_back(c);
  }
  const auto expected = BatchScanRange(state, probes);
  std::vector<ElementId> out;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    index.RangeQuery(probes[i], &out);
    tally->Check(Sorted(out) == Sorted(expected[i]),
                 "sampled range probe " + std::to_string(i) +
                     " differs from ScanRange");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    index.KnnQuery(points[i], 10, &out);
    tally->Check(out == ScanKnn(state, points[i], 10),
                 "sampled knn probe " + std::to_string(i) +
                     " differs from ScanKnn");
  }
  if (s.config.synapse_every > 0) {
    auto grid = join::GridSelfJoin(state, s.config.synapse_eps);
    auto pbsm = join::PbsmSelfJoin(state, s.config.synapse_eps);
    tally->Check(grid.size() == last_pairs,
                 "last step's synapse pairs differ from a re-join");
    SortPairs(&grid);
    SortPairs(&pbsm);
    tally->Check(grid == pbsm, "GridSelfJoin pairs differ from PbsmSelfJoin");
  }
}

void RunUntraced(const SimSetup& s, const Args& args, Tally* tally,
                 Metrics* metrics) {
  std::vector<double> setup_s;
  std::unique_ptr<sim::Simulation> simulation;
  for (int r = 0; r < kSetupReps; ++r) {
    simulation.reset();
    double seconds = 0;
    simulation = MakeSimulation(s, &seconds);
    setup_s.push_back(seconds);
  }

  sim::StepReport report;
  bool ok = true;
  for (std::size_t i = 0; i < kWarmupSteps && ok; ++i) {
    ok = StepChecked(simulation.get(), s, tally, &report);
  }
  std::vector<double> step_ms;
  std::vector<double> window_ms;
  double ops = 0;
  const Stopwatch run;
  while (ok && (run.ElapsedSeconds() < args.seconds ||
                step_ms.size() < kMinSteps)) {
    Stopwatch sw;
    ok = StepChecked(simulation.get(), s, tally, &report);
    const double ms = sw.ElapsedMs();
    if (!ok) break;
    step_ms.push_back(ms);
    window_ms.push_back(report.monitoring_ms);
    ops += static_cast<double>(report.updates_applied +
                               s.config.monitor_range_queries +
                               (s.config.synapse_every > 0 ? 1 : 0));
  }
  CheckFinalState(*simulation, s, report.synapse_pairs, args.seed, tally);
  std::printf("%zu timed steps after %zu warm-up steps; %zu elements, %zu "
              "probes/step, join %s\n",
              step_ms.size(), kWarmupSteps, s.elements.size(),
              s.config.monitor_range_queries,
              s.config.synapse_every > 0 ? "every step" : "off");

  metrics->Add("setup_s", Median(setup_s), "s");
  metrics->Add("step_ms_p50", Quantile(step_ms, 0.5), "ms");
  metrics->Add("step_ms_p90", Quantile(step_ms, 0.9), "ms");
  metrics->Add("ops_per_s", ops / (Sum(step_ms) / 1e3), "1/s");
  metrics->Add("window_ms_p50", Quantile(window_ms, 0.5), "ms");
  metrics->Add("window_ms_p95", Quantile(window_ms, 0.95), "ms");
  metrics->Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// GridSelfJoin with default options in a span; returns the pair count.
std::size_t TracedSelfJoin(const std::vector<Element>& elements, float eps,
                           std::int32_t parent, Tracer* tracer,
                           LayerStats* stats) {
  join::GridJoinStats jstats;
  const auto span = tracer->Begin("join.self_join", parent);
  const auto pairs =
      join::GridSelfJoin(elements, eps, {}, &stats->join, &jstats);
  stats->join_ms.push_back(tracer->End(span));
  stats->join_pairs += pairs.size();
  stats->join_skipped += jstats.skipped_tests;
  return pairs.size();
}

/// Repeats Simulation::Step call by call, one span per layer call.
class Replica {
 public:
  struct StepResult {
    std::size_t updates_applied = 0;
    std::size_t monitor_results = 0;
    std::size_t synapse_pairs = 0;
    double step_ms = 0;   ///< The whole replica step, spans included.
    double child_ms = 0;  ///< Sum of the layer-call spans.
  };

  Replica(const SimSetup& s, Tracer* tracer, LayerStats* stats)
      : s_(s),
        elements_(s.elements),
        model_(s.kinetics, s.universe),
        monitor_rng_(s.config.seed),
        tracer_(tracer),
        stats_(stats) {}

  /// MakeIndex + Build as Simulation's constructor does; the Build call is
  /// spanned.
  void Build() {
    index_ = core::MakeIndex(s_.config.index_name);
    const auto span = tracer_->Begin("core.build");
    index_->Build(elements_, s_.universe);
    stats_->build_ms.push_back(tracer_->End(span));
  }

  StepResult Step() {
    StepResult r;
    const auto step = tracer_->Begin("sim.step");

    auto span = tracer_->Begin("datagen.kinetics", step);
    model_.Step(&elements_, &updates_);
    double ms = tracer_->End(span);
    stats_->kinetics_ms.push_back(ms);
    r.child_ms += ms;

    span = tracer_->Begin("core.apply", step);
    r.updates_applied = index_->ApplyUpdates(updates_);
    ms = tracer_->End(span);
    stats_->apply_ms.push_back(ms);
    stats_->updates += updates_.size();
    r.child_ms += ms;

    // Simulation::Monitor: probe boxes drawn up front, then one
    // RangeQuery per probe.
    const Vec3 ext = s_.universe.Extent();
    const float side =
        std::max({ext.x, ext.y, ext.z}) * s_.config.monitor_query_fraction;
    probes_.clear();
    for (std::size_t q = 0; q < s_.config.monitor_range_queries; ++q) {
      probes_.push_back(AABB::FromCenterHalfExtent(
          monitor_rng_.PointIn(s_.universe), side * 0.5f));
    }
    for (const AABB& probe : probes_) {
      span = tracer_->Begin("core.range", step);
      index_->RangeQuery(probe, &out_, &stats_->range);
      ms = tracer_->End(span);
      stats_->range_ms.push_back(ms);
      r.child_ms += ms;
      r.monitor_results += out_.size();
    }
    if (s_.config.synapse_every > 0 &&
        step_ % s_.config.synapse_every == 0) {
      r.synapse_pairs = TracedSelfJoin(elements_, s_.config.synapse_eps,
                                       step, tracer_, stats_);
      r.child_ms += stats_->join_ms.back();
    }
    r.step_ms = tracer_->End(step);
    ++step_;
    return r;
  }

  const std::vector<Element>& elements() const { return elements_; }
  const core::SpatialIndex& index() const { return *index_; }

 private:
  const SimSetup& s_;
  std::vector<Element> elements_;
  datagen::PlasticityModel model_;
  Rng monitor_rng_;
  Tracer* tracer_;
  LayerStats* stats_;
  std::unique_ptr<core::SpatialIndex> index_;
  std::vector<ElementUpdate> updates_;
  std::vector<AABB> probes_;
  std::vector<ElementId> out_;
  std::size_t step_ = 0;
};

/// Interleaves Simulation steps (timed from outside, untraced) with replica
/// steps (traced) until `max_steps` or `seconds`, whichever comes first.
/// With `rebuild`, each step's post-step elements are also built into a
/// second index (the §4.1 competitor).
void TracedLoop(const SimSetup& s, double seconds, std::size_t max_steps,
                bool rebuild, std::uint64_t seed, Tally* tally,
                Tracer* tracer, LayerStats* stats, Replica* replica) {
  auto simulation = MakeSimulation(s, nullptr);
  for (int r = 0; r < 3; ++r) replica->Build();
  std::unique_ptr<core::SpatialIndex> second;
  if (rebuild) second = core::MakeIndex(s.config.index_name);

  sim::StepReport report;
  const Stopwatch run;
  for (std::size_t i = 0; i < max_steps; ++i) {
    if (i >= kMinSteps && run.ElapsedSeconds() >= seconds) break;
    Stopwatch sw;
    if (!StepChecked(simulation.get(), s, tally, &report)) return;
    const double sim_ms = sw.ElapsedMs();
    Replica::StepResult r;
    try {
      r = replica->Step();
    } catch (const std::exception& e) {
      tally->Fail(OpsPerStep(s), std::string("replica step threw: ") +
                                     e.what());
      return;
    }
    const std::string at = " at step " + std::to_string(report.step);
    tally->Check(r.updates_applied == report.updates_applied,
                 "replica updates applied differ" + at);
    tally->Check(r.monitor_results == report.monitor_results,
                 "replica monitor results differ" + at);
    tally->Check(r.synapse_pairs == report.synapse_pairs,
                 "replica synapse pairs differ" + at);
    // The first steps warm both copies up; they are checked, not timed.
    if (i >= kWarmupSteps) {
      stats->untraced_step_ms.push_back(sim_ms);
      stats->traced_step_ms.push_back(r.step_ms);
      stats->sim_self_ms.push_back(sim_ms - r.child_ms);
    }
    if (second) {
      const auto span = tracer->Begin("core.rebuild");
      second->Build(replica->elements(), s.universe);
      stats->rebuild_ms.push_back(tracer->End(span));
    }
  }
  const auto& a = simulation->elements();
  const auto& b = replica->elements();
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].id == b[i].id && a[i].box.min == b[i].box.min &&
           a[i].box.max == b[i].box.max;
  }
  tally->Check(same, "replica element state differs from Simulation's");
  CheckFinalState(*simulation, s, report.synapse_pairs, seed, tally);
}

}  // namespace

void CensusSimSteps(const std::vector<Element>& elements,
                    const AABB& universe, std::uint64_t seed,
                    std::size_t steps, Tally* tally, Tracer* tracer,
                    LayerStats* stats) {
  const SimSetup s = MakeSimSetup(elements, universe, seed, /*join=*/true);
  LayerStats census;
  Replica replica(s, tracer, &census);
  TracedLoop(s, 0, steps, /*rebuild=*/false, seed, tally, tracer, &census,
             &replica);
  stats->kinetics_ms = census.kinetics_ms;
  stats->range_ms = census.range_ms;
  stats->join_ms = census.join_ms;
  stats->join = census.join;
  stats->join_pairs = census.join_pairs;
  stats->join_skipped = census.join_skipped;
  stats->sim_self_ms = census.sim_self_ms;
  stats->census.push_back("datagen.kinetics_ms, core.range_us, join.*, "
                          "sim.self_ms: " +
                          std::to_string(steps) +
                          " Figure-1 steps with the join on");
}

void RunSimLoop(const Args& args, std::size_t n, bool join, Tally* tally,
                Metrics* metrics, Tracer* tracer) {
  auto ds = datagen::GenerateNeuronsWithSize(
      n, SubSeed(args.seed, Stream::kDataset));
  const SimSetup s =
      MakeSimSetup(std::move(ds.elements), ds.universe, args.seed, join);
  ds = {};
  std::printf("dataset: %zu neuron-segment elements, universe side %.0f\n",
              s.elements.size(), s.universe.Extent().x);
  if (!args.trace) {
    RunUntraced(s, args, tally, metrics);
    return;
  }

  LayerStats stats;
  Replica replica(s, tracer, &stats);
  TracedLoop(s, args.seconds, static_cast<std::size_t>(-1),
             /*rebuild=*/true, args.seed, tally, tracer, &stats, &replica);
  stats.bytes_per_elem =
      static_cast<double>(replica.index().MemoryBytes()) /
      static_cast<double>(std::max<std::size_t>(1, replica.index().size()));
  std::printf("traced: %zu replica steps compared with Simulation::Step\n",
              stats.kinetics_ms.size());

  CensusServeWindows(replica.index(), replica.elements(), s.universe,
                     SubSeed(args.seed, Stream::kServing), kCensusWindows,
                     tracer, &stats);
  if (!join) {
    TracedSelfJoin(replica.elements(), kSynapseEps, -1, tracer, &stats);
    stats.census.push_back("join.*: one GridSelfJoin of the final state");
  }
  for (const auto& c : stats.census) std::printf("census: %s\n", c.c_str());
  EmitLayerMetrics(stats, *tally, metrics);
}

}  // namespace perfbench
