// perfbench — the in-situ serving workload.
//
// A Zipf hotspot stream with bench_serving's default mix (70:15:10:5
// range:count:knn:update) in ticks of 512 ops, from one closed-loop client.
// Each tick's queries go through RangeQueryBatch, RangeQueryCountBatch and
// KnnQueryBatch against the state at the tick's start (the read window),
// then its updates go through one ApplyUpdates.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "common/bruteforce.h"
#include "common/rng.h"
#include "core/spatial_index.h"
#include "datagen/neuron.h"

namespace perfbench {
namespace {

constexpr std::size_t kElements = 1000000;
constexpr std::size_t kTickOps = 512;
constexpr std::size_t kHotspots = 4096;
constexpr double kZipf = 0.99;
constexpr double kRangeShare = 0.70;
constexpr double kCountShare = 0.15;
constexpr double kKnnShare = 0.10;
constexpr std::size_t kKnnK = 10;
constexpr int kSetupReps = 15;
/// Untimed (but checked) ticks before timing. After set-up the first
/// second or so of ticks runs about twice as slow as the rest; timing it
/// would put the warm-up, not the workload, at p99.
constexpr double kWarmupSeconds = 3;
constexpr std::size_t kMinTicks = 64;
constexpr std::size_t kParts = 10;
/// One tick in this many has a sample of its answers checked against
/// linear scans (outside the timed region).
constexpr std::size_t kCheckEvery = 64;
constexpr std::size_t kCensusSteps = 3;

struct Tick {
  std::vector<AABB> ranges;
  std::vector<AABB> counts;
  std::vector<Vec3> knns;
  std::vector<ElementUpdate> updates;
};

/// The Zipf op stream of bench_serving: probe centres come from a fixed
/// hotspot set with Zipf popularity, so hot probes repeat; updates move a
/// uniformly drawn element 1% towards a hotspot.
class TickSource {
 public:
  TickSource(const AABB& universe, std::uint64_t seed)
      : rng_(seed), sampler_(kHotspots, kZipf) {
    for (std::size_t i = 0; i < kHotspots; ++i) {
      centers_.push_back(rng_.PointIn(universe));
    }
    const Vec3 ext = universe.Extent();
    const float side = std::max({ext.x, ext.y, ext.z});
    range_half_ = side * 0.01f;
    count_half_ = side * 0.015f;
    elem_half_ = side * 0.002f;
  }

  /// Draws the next tick's ops; updates read the current element boxes.
  /// An element is updated at most once per tick.
  void Next(const std::vector<Element>& elements, Tick* tick) {
    tick->ranges.clear();
    tick->counts.clear();
    tick->knns.clear();
    tick->updates.clear();
    for (std::size_t i = 0; i < kTickOps; ++i) {
      const double draw = rng_.NextDouble();
      const Vec3& hot = centers_[sampler_.Sample(&rng_)];
      if (draw < kRangeShare) {
        tick->ranges.push_back(AABB::FromCenterHalfExtent(hot, range_half_));
      } else if (draw < kRangeShare + kCountShare) {
        tick->counts.push_back(AABB::FromCenterHalfExtent(hot, count_half_));
      } else if (draw < kRangeShare + kCountShare + kKnnShare) {
        tick->knns.push_back(hot);
      } else {
        ElementId id = 0;
        do {
          id = static_cast<ElementId>(rng_.NextBelow(elements.size()));
        } while (std::any_of(
            tick->updates.begin(), tick->updates.end(),
            [id](const ElementUpdate& u) { return u.id == id; }));
        const Vec3 cur = elements[id].box.Center();
        const Vec3 dest(cur.x + (hot.x - cur.x) * 0.01f,
                        cur.y + (hot.y - cur.y) * 0.01f,
                        cur.z + (hot.z - cur.z) * 0.01f);
        tick->updates.emplace_back(
            id, AABB::FromCenterHalfExtent(dest, elem_half_));
      }
    }
  }

 private:
  Rng rng_;
  ZipfSampler sampler_;
  std::vector<Vec3> centers_;
  float range_half_ = 0;
  float count_half_ = 0;
  float elem_half_ = 0;
};

struct Answers {
  std::vector<std::vector<ElementId>> ranges;
  std::vector<std::size_t> counts;
  std::vector<std::vector<ElementId>> knns;
};

/// The tick's read window. With a tracer, each batch call gets a span and
/// its counters; without one, the calls run as a user makes them.
void ServeWindow(const core::SpatialIndex& index, const Tick& tick,
                 Answers* answers, Tracer* tracer, LayerStats* stats,
                 QueryCounters* range_counters) {
  if (tracer == nullptr) {
    index.RangeQueryBatch(tick.ranges, &answers->ranges);
    index.RangeQueryCountBatch(tick.counts, &answers->counts);
    index.KnnQueryBatch(tick.knns, kKnnK, &answers->knns);
    return;
  }
  auto span = tracer->Begin("core.range_batch");
  index.RangeQueryBatch(tick.ranges, &answers->ranges, range_counters);
  stats->range_batch_ms.push_back(tracer->End(span));
  QueryCounters ignored;
  span = tracer->Begin("core.count_batch");
  index.RangeQueryCountBatch(tick.counts, &answers->counts, &ignored);
  stats->count_batch_ms.push_back(tracer->End(span));
  span = tracer->Begin("core.knn_batch");
  index.KnnQueryBatch(tick.knns, kKnnK, &answers->knns, &stats->knn);
  stats->knn_batch_ms.push_back(tracer->End(span));
}

/// Checks the shape of every answer, and on sampled ticks a few answers
/// against linear scans of `state` (the state at the tick's start).
void CheckAnswers(const Tick& tick, const Answers& a,
                  const std::vector<Element>& state, bool sample, Rng* rng,
                  Tally* tally) {
  if (a.ranges.size() != tick.ranges.size() ||
      a.counts.size() != tick.counts.size() ||
      a.knns.size() != tick.knns.size()) {
    tally->Fail(kTickOps - tick.updates.size(), "batch answer slot count");
    return;
  }
  for (const auto& slot : a.knns) {
    if (slot.size() != std::min(kKnnK, state.size())) {
      tally->Fail(1, "knn slot size");
    }
  }
  if (!sample) return;
  for (int i = 0; i < 4 && !tick.ranges.empty(); ++i) {
    const std::size_t j = rng->NextBelow(tick.ranges.size());
    if (Sorted(a.ranges[j]) != ScanRange(state, tick.ranges[j])) {
      tally->Fail(1, "range answer differs from ScanRange");
    }
  }
  for (int i = 0; i < 2 && !tick.counts.empty(); ++i) {
    const std::size_t j = rng->NextBelow(tick.counts.size());
    if (a.counts[j] != ScanRange(state, tick.counts[j]).size()) {
      tally->Fail(1, "count answer differs from ScanRange");
    }
  }
  if (!tick.knns.empty()) {
    const std::size_t j = rng->NextBelow(tick.knns.size());
    if (a.knns[j] != ScanKnn(state, tick.knns[j], kKnnK)) {
      tally->Fail(1, "knn answer differs from ScanKnn");
    }
  }
}

struct TickTimes {
  double window_ms = 0;
  double apply_ms = 0;
};

/// One tick: the read window, the sampled check (untimed), then the
/// updates, mirrored into the benchmark's own copy `state`. Returns false
/// if a call threw.
bool RunTick(core::SpatialIndex* index, const Tick& tick, bool sample,
             std::vector<Element>* state, Answers* answers, Rng* check_rng,
             Tally* tally, Tracer* tracer, LayerStats* stats,
             TickTimes* times) {
  tally->Attempt(kTickOps);
  try {
    Stopwatch sw;
    ServeWindow(*index, tick, answers, tracer, stats,
                stats != nullptr ? &stats->range : nullptr);
    times->window_ms = sw.ElapsedMs();
    CheckAnswers(tick, *answers, *state, sample, check_rng, tally);
    sw.Restart();
    std::size_t applied = 0;
    if (tracer == nullptr) {
      applied = index->ApplyUpdates(tick.updates);
    } else {
      const auto span = tracer->Begin("core.apply");
      applied = index->ApplyUpdates(tick.updates);
      stats->apply_ms.push_back(tracer->End(span));
      stats->updates += tick.updates.size();
    }
    times->apply_ms = sw.ElapsedMs();
    if (applied != tick.updates.size()) {
      const std::size_t n = tick.updates.size();
      tally->Fail(applied > n ? applied - n : n - applied,
                  "ApplyUpdates applied " + std::to_string(applied) +
                      " of " + std::to_string(n));
    }
  } catch (const std::exception& e) {
    tally->Fail(kTickOps, std::string("serving tick threw: ") + e.what());
    return false;
  }
  for (const ElementUpdate& u : tick.updates) (*state)[u.id].box = u.new_box;
  return true;
}

/// End-of-run checks: size, invariants, and a final sample of probes.
void CheckFinal(const core::SpatialIndex& index,
                const std::vector<Element>& state, TickSource* source,
                Rng* rng, Tally* tally) {
  tally->Check(index.size() == state.size(), "index size after the run");
  std::string error;
  tally->Check(index.CheckInvariants(&error),
               "CheckInvariants after the run: " + error);
  Tick tick;
  source->Next(state, &tick);
  Answers answers;
  tally->Attempt(kTickOps - tick.updates.size());
  ServeWindow(index, tick, &answers, nullptr, nullptr, nullptr);
  CheckAnswers(tick, answers, state, /*sample=*/true, rng, tally);
}

}  // namespace

void CensusServeWindows(const core::SpatialIndex& index,
                        const std::vector<Element>& elements,
                        const AABB& universe, std::uint64_t seed,
                        std::size_t windows, Tracer* tracer,
                        LayerStats* stats) {
  TickSource source(universe, seed);
  Tick tick;
  Answers answers;
  QueryCounters ignored;  // The workload's own range probes set the ratio.
  for (std::size_t i = 0; i < windows; ++i) {
    source.Next(elements, &tick);
    ServeWindow(index, tick, &answers, tracer, stats, &ignored);
  }
  stats->census.push_back(
      "core.*_batch_ms, core.knn_dist_per_result: " +
      std::to_string(windows) + " serving read windows on the final state");
}

void RunServing(const Args& args, Tally* tally, Metrics* metrics,
                Tracer* tracer) {
  auto ds = datagen::GenerateNeuronsWithSize(
      kElements, SubSeed(args.seed, Stream::kDataset));
  const AABB universe = ds.universe;
  std::vector<Element> state = std::move(ds.elements);
  ds = {};
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state[i].id != i) throw std::runtime_error("element ids not dense");
  }
  std::printf("dataset: %zu neuron-segment elements; ticks of %zu ops, mix "
              "70:15:10:5 range:count:knn:update, zipf %.2f\n",
              state.size(), kTickOps, kZipf);

  LayerStats stats;
  std::vector<double> setup_s;
  std::unique_ptr<core::SpatialIndex> index;
  for (int r = 0; r < kSetupReps; ++r) {
    index.reset();
    Stopwatch sw;
    index = core::MakeIndex("memgrid");
    if (args.trace) {
      const auto span = tracer->Begin("core.build");
      index->Build(state, universe);
      stats.build_ms.push_back(tracer->End(span));
    } else {
      index->Build(state, universe);
    }
    setup_s.push_back(sw.ElapsedSeconds());
  }

  TickSource source(universe, SubSeed(args.seed, Stream::kServing));
  Rng check_rng(SubSeed(args.seed, Stream::kSample));
  Tick tick;
  Answers answers;
  TickTimes times;
  bool ok = true;
  std::size_t warmup_ticks = 0;
  for (const Stopwatch warm; ok && warm.ElapsedSeconds() < kWarmupSeconds;
       ++warmup_ticks) {
    source.Next(state, &tick);
    ok = RunTick(index.get(), tick, false, &state, &answers, &check_rng,
                 tally, nullptr, nullptr, &times);
  }

  // The traced run alternates traced and untraced ticks over one stream,
  // so the tracing overhead is measured on the same state and ops.
  std::vector<double> step_ms;
  std::vector<double> window_ms;
  const Stopwatch run;
  for (std::size_t i = 0;
       ok && (run.ElapsedSeconds() < args.seconds || i < kMinTicks); ++i) {
    source.Next(state, &tick);
    const bool traced = args.trace && i % 2 == 1;
    ok = RunTick(index.get(), tick, i % kCheckEvery == 0, &state, &answers,
                 &check_rng, tally, traced ? tracer : nullptr,
                 traced ? &stats : nullptr, &times);
    if (!ok) break;
    const double tick_ms = times.window_ms + times.apply_ms;
    step_ms.push_back(tick_ms);
    window_ms.push_back(times.window_ms);
    if (args.trace) {
      (traced ? stats.traced_step_ms : stats.untraced_step_ms)
          .push_back(tick_ms);
    }
  }
  CheckFinal(*index, state, &source, &check_rng, tally);
  std::printf("%zu timed ticks after %zu warm-up ticks\n", step_ms.size(),
              warmup_ticks);

  if (!args.trace) {
    // Ticks are sub-millisecond, so each tick metric is the median of its
    // value over kParts parts of the run (see MedianOfParts).
    const auto p50 = [](const std::vector<double>& v) {
      return Quantile(v, 0.5);
    };
    metrics->Add("setup_s", Median(setup_s), "s");
    metrics->Add("step_ms_p50", MedianOfParts(step_ms, kParts, p50), "ms");
    metrics->Add("step_ms_p90",
                 MedianOfParts(step_ms, kParts,
                               [](const std::vector<double>& v) {
                                 return Quantile(v, 0.9);
                               }),
                 "ms");
    metrics->Add("ops_per_s",
                 MedianOfParts(step_ms, kParts,
                               [](const std::vector<double>& v) {
                                 return static_cast<double>(v.size() *
                                                            kTickOps) /
                                        (Sum(v) / 1e3);
                               }),
                 "1/s");
    metrics->Add("window_ms_p50", MedianOfParts(window_ms, kParts, p50),
                 "ms");
    metrics->Add("window_ms_p95",
                 MedianOfParts(window_ms, kParts,
                               [](const std::vector<double>& v) {
                                 return Quantile(v, 0.95);
                               }),
                 "ms");
    metrics->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  stats.bytes_per_elem = static_cast<double>(index->MemoryBytes()) /
                         static_cast<double>(std::max<std::size_t>(
                             1, index->size()));
  auto second = core::MakeIndex("memgrid");
  for (int r = 0; r < 3; ++r) {
    const auto span = tracer->Begin("core.rebuild");
    second->Build(state, universe);
    stats.rebuild_ms.push_back(tracer->End(span));
  }
  second.reset();
  index.reset();
  CensusSimSteps(state, universe, args.seed, kCensusSteps, tally, tracer,
                 &stats);
  for (const auto& c : stats.census) std::printf("census: %s\n", c.c_str());
  EmitLayerMetrics(stats, *tally, metrics);
}

}  // namespace perfbench
