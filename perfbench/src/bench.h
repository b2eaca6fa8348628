// perfbench — shared pieces of the repository benchmark: run arguments,
// seed derivation, failure accounting, the span tracer and the metric sink.
//
// The benchmark drives the library only through its public entry points
// (sim::Simulation, core::MakeIndex("memgrid") + SpatialIndex,
// join::GridSelfJoin) with the defaults a user gets. Tracing is done here,
// around the calls into each layer, never inside the library.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/element.h"

namespace simspatial::core {
class SpatialIndex;
}  // namespace simspatial::core

namespace perfbench {

using namespace simspatial;  // NOLINT: the benchmark is a library client.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Independent sub-seeds of the workload seed: one per input stream, so the
/// library only ever receives generated inputs.
enum class Stream : std::uint64_t {
  kDataset = 1,
  kKinetics = 2,
  kMonitor = 3,
  kServing = 4,
  kSample = 5,
};
std::uint64_t SubSeed(std::uint64_t seed, Stream stream);

/// Ops attempted and failed. A failure is an exception, a wrong answer or
/// an update the index did not apply; every one is a program defect and
/// makes the run incorrect.
class Tally {
 public:
  void Attempt(std::uint64_t ops) { attempted_ += ops; }
  void Fail(std::uint64_t ops, const std::string& what);
  /// Attempts one checked op; fails it with `what` unless `ok`.
  void Check(bool ok, const std::string& what) {
    Attempt(1);
    if (!ok) Fail(1, what);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t reported_ = 0;  ///< Failure messages printed so far.
};

/// Named metrics in emission order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
class Metrics {
 public:
  void Add(std::string name, double value, std::string unit);
  const std::vector<Metric>& all() const { return all_; }

 private:
  std::vector<Metric> all_;
};

/// In-memory span recorder: name, parent, start and end, written out when
/// the run ends. Spans are opened by the benchmark around each call into a
/// library layer.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int32_t parent;
    double start_ns;
    double end_ns;
  };
  Tracer() : origin_(Clock::now()) {}
  std::int32_t Begin(const char* name, std::int32_t parent = -1) {
    spans_.push_back({name, parent, Now(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Closes span `id` and returns its duration in ms.
  double End(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = Now();
    return (s.end_ns - s.start_ns) / 1e6;
  }
  /// Writes the spans as CSV (id,parent,name,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  double Now() const {
    return std::chrono::duration<double, std::nano>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
double Max(const std::vector<double>& v);
double Sum(const std::vector<double>& v);

/// Median over `parts` contiguous, equal parts of `v` of `stat(part)`. A
/// few seconds of interference from other tenants of the host then moves
/// a minority of the parts, not the result.
template <typename Stat>
double MedianOfParts(const std::vector<double>& v, std::size_t parts,
                     Stat stat) {
  std::vector<double> per_part;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::vector<double> part(v.begin() + v.size() * p / parts,
                                   v.begin() + v.size() * (p + 1) / parts);
    if (!part.empty()) per_part.push_back(stat(part));
  }
  return Median(per_part);
}

double PeakRssMb();
/// CPUs this process may run on.
unsigned OnlineCpus();

/// Ids of a query answer in canonical (ascending) order.
std::vector<ElementId> Sorted(std::vector<ElementId> ids);

/// Raw per-layer observations of one traced run. Each workload fills what
/// its own loop calls; calls its loop does not make are measured by census
/// calls on its final state (see README.md), named in `census`.
struct LayerStats {
  std::vector<double> kinetics_ms;
  std::vector<double> build_ms;
  std::vector<double> apply_ms;
  std::vector<double> rebuild_ms;
  std::vector<double> range_ms;  ///< One per RangeQuery call.
  std::vector<double> range_batch_ms;
  std::vector<double> count_batch_ms;
  std::vector<double> knn_batch_ms;
  std::vector<double> join_ms;
  std::vector<double> sim_self_ms;
  std::uint64_t updates = 0;  ///< Updates passed to the timed ApplyUpdates.
  QueryCounters range;        ///< The workload's own range probes.
  QueryCounters knn;
  QueryCounters join;
  std::uint64_t join_pairs = 0;
  std::uint64_t join_skipped = 0;
  double bytes_per_elem = 0;
  std::vector<double> traced_step_ms;
  std::vector<double> untraced_step_ms;
  std::vector<std::string> census;
};

/// Per-layer metrics of a traced run, in BENCHMARK.json order.
void EmitLayerMetrics(const LayerStats& stats, const Tally& tally,
                      Metrics* metrics);

/// Traced Simulation/replica steps on `elements` with the synapse join on,
/// for a workload whose own loop makes no kinetics, per-probe range or join
/// call (census). Records kinetics, range, join and sim self time.
void CensusSimSteps(const std::vector<Element>& elements,
                    const AABB& universe, std::uint64_t seed,
                    std::size_t steps, Tally* tally, Tracer* tracer,
                    LayerStats* stats);

/// Traced query windows of the serving mix against `index` (no updates),
/// for a workload whose own loop makes no batch call (census).
void CensusServeWindows(const core::SpatialIndex& index,
                        const std::vector<Element>& elements,
                        const AABB& universe, std::uint64_t seed,
                        std::size_t windows, Tracer* tracer,
                        LayerStats* stats);

/// The workloads. Each fills `metrics` with the end-to-end metrics
/// (args.trace false) or the per-layer metrics (args.trace true).
/// `elements` is the Figure-1 loop's dataset size; `join` adds the
/// per-step synapse self-join.
void RunSimLoop(const Args& args, std::size_t elements, bool join,
                Tally* tally, Metrics* metrics, Tracer* tracer);
void RunServing(const Args& args, Tally* tally, Metrics* metrics,
                Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
