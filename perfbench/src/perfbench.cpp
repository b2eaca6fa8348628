// perfbench — the repository benchmark program.
//
//   perfbench --workload plasticity|synapse|serving --seed <n>
//             --seconds <s> --trace 0|1 [--spans-dir <dir>]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md for
// the workloads and the meaning of every metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <numeric>
#include <string>

#include "bench.h"
#include "common/parallel.h"

namespace perfbench {

std::uint64_t SubSeed(std::uint64_t seed, Stream stream) {
  // SplitMix64 finaliser over (seed, stream): decorrelated streams even for
  // adjacent seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(stream) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Tally::Fail(std::uint64_t ops, const std::string& what) {
  failed_ += ops;
  if (reported_ < 20) {
    std::fprintf(stderr, "FAILED (%llu op(s)): %s\n",
                 static_cast<unsigned long long>(ops), what.c_str());
  }
  ++reported_;
}

void Metrics::Add(std::string name, double value, std::string unit) {
  all_.push_back({std::move(name), value, std::move(unit)});
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.name << ','
        << static_cast<std::int64_t>(s.start_ns) << ','
        << static_cast<std::int64_t>(s.end_ns) << '\n';
  }
  return static_cast<bool>(out);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

unsigned OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::vector<ElementId> Sorted(std::vector<ElementId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void EmitLayerMetrics(const LayerStats& s, const Tally& tally,
                      Metrics* metrics) {
  Metrics& m = *metrics;
  m.Add("datagen.kinetics_ms", Mean(s.kinetics_ms), "ms");
  m.Add("core.build_ms", Median(s.build_ms), "ms");
  m.Add("core.apply_ms", Mean(s.apply_ms), "ms");
  m.Add("core.apply_ms_max", Max(s.apply_ms), "ms");
  m.Add("core.apply_ns_per_update",
        Ratio(Sum(s.apply_ms) * 1e6, static_cast<double>(s.updates)), "ns");
  m.Add("core.rebuild_ms", Median(s.rebuild_ms), "ms");
  m.Add("core.range_us", Mean(s.range_ms) * 1e3, "us");
  m.Add("core.range_batch_ms", Mean(s.range_batch_ms), "ms");
  m.Add("core.count_batch_ms", Mean(s.count_batch_ms), "ms");
  m.Add("core.knn_batch_ms", Mean(s.knn_batch_ms), "ms");
  m.Add("core.range_hit_ratio",
        Ratio(static_cast<double>(s.range.results),
              static_cast<double>(s.range.element_tests)),
        "ratio");
  m.Add("core.knn_dist_per_result",
        Ratio(static_cast<double>(s.knn.distance_computations),
              static_cast<double>(s.knn.results)),
        "ratio");
  m.Add("core.bytes_per_elem", s.bytes_per_elem, "B");
  m.Add("join.self_join_ms", Mean(s.join_ms), "ms");
  m.Add("join.pairs",
        Ratio(static_cast<double>(s.join_pairs),
              static_cast<double>(s.join_ms.size())),
        "count");
  m.Add("join.pair_hit_ratio",
        Ratio(static_cast<double>(s.join_pairs),
              static_cast<double>(s.join.element_tests + s.join_skipped)),
        "ratio");
  m.Add("join.shortcut_frac",
        Ratio(static_cast<double>(s.join_skipped),
              static_cast<double>(s.join_pairs)),
        "ratio");
  m.Add("sim.self_ms", Median(s.sim_self_ms), "ms");
  m.Add("common.pool_threads", par::ResolveThreads(par::kThreadsAuto),
        "count");
  m.Add("trace.overhead_ms",
        Median(s.traced_step_ms) - Median(s.untraced_step_ms), "ms");
  m.Add("failed_frac",
        Ratio(static_cast<double>(tally.failed()),
              static_cast<double>(tally.attempted())),
        "ratio");
}

namespace {

bool ParseArgs(int argc, char** argv, Args* args, std::string* spans_dir) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--spans-dir") {
      *spans_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

void PrintResult(const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.correct() ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()));
  const char* sep = "";
  for (const Metric& m : metrics.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  std::string spans_dir;
  if (!ParseArgs(argc, argv, &args, &spans_dir)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload plasticity|synapse|serving "
                 "--seed <n> --seconds <s> --trace 0|1 [--spans-dir <dir>]\n");
    return 2;
  }
  const unsigned pool = par::ResolveThreads(par::kThreadsAuto);
  const unsigned cpus = OnlineCpus();
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d; index "
              "pool resolves to %u thread(s), %u CPU(s) online\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, pool, cpus);
  if (pool == 0 || (cpus > 0 && pool > cpus)) {
    std::fprintf(stderr, "pool thread count %u exceeds the %u online CPUs\n",
                 pool, cpus);
    return 1;
  }

  Tally tally;
  Metrics metrics;
  Tracer tracer;
  if (args.workload == "plasticity") {
    RunSimLoop(args, 1000000, /*join=*/false, &tally, &metrics, &tracer);
  } else if (args.workload == "synapse") {
    RunSimLoop(args, 500000, /*join=*/true, &tally, &metrics, &tracer);
  } else if (args.workload == "serving") {
    RunServing(args, &tally, &metrics, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.trace && !spans_dir.empty()) {
    const std::string path = spans_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".csv";
    if (!tracer.WriteCsv(path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
      return 1;
    }
  }

  for (const Metric& m : metrics.all()) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return 1;
    }
  }
  std::printf("\n%-28s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics.all()) {
    std::printf("%-28s %18.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("ops attempted %llu, failed %llu (failed_frac %.3g)%s\n",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()),
              tally.attempted() > 0
                  ? static_cast<double>(tally.failed()) /
                        static_cast<double>(tally.attempted())
                  : 0.0,
              tally.correct() ? "" : "  << PROGRAM DEFECT");
  PrintResult(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench aborted: %s\n", e.what());
    return 1;
  }
}
