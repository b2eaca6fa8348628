// Microbenchmarks: build / range / kNN / update / self-join kernels for the
// principal structures, with machine-readable output. These complement the
// figure harnesses with per-operation numbers and serve as the regression
// guard for the MemGrid slack-CSR hot paths.
//
// Flags:
//   --n=<elements>        dataset size (default 100000)
//   --dataset=neurons|uniform
//   --reps=<r>            timed repetitions per kernel; median reported
//   --json=<path>         also emit results as a JSON array (bench_util.h)
//   --threads=<t>         worker threads (default: hardware concurrency;
//                         0/1 = serial paths) for the parallel-capable
//                         kernels: memgrid and the self-join algorithms
//                         (grid-join / pbsm / touch, whose results are
//                         bit-identical at every thread count).
//   --layout=<l>          MemGrid cell layout: rowmajor (default), morton
//                         or hilbert. A pure storage-order knob — results
//                         are identical; ns/op is the point.
//   --shards=<s>          MemGrid entry-block shards (default 1). Bounds
//                         the worst-case update stall at O(n/shards);
//                         results are identical at every value.
//   --compact=<r>         MemGrid incremental-compaction budget: regions
//                         reclaimed per ApplyUpdates batch (default 0 =
//                         off).
//   --batch=<p>           probe count for the range-batch / count-batch /
//                         knn-batch kernels (default 256): the same probes
//                         are served once through the batch engine
//                         (RangeQueryBatch / RangeQueryCountBatch /
//                         KnnQueryBatch rank-ordered scheduling) and once
//                         through the plain per-probe loop (the matching
//                         *-batch-loop kernels), so the JSON carries both
//                         sides of the batching claim.
//   --failpoints=<spec>   arm failpoints (name[:prob[:seed[:action]]],
//                         comma-separated; see common/failpoint.h) before
//                         the kernels run — e.g. to measure retry-path
//                         overhead. Requires -DSIMSPATIAL_FAILPOINTS=ON;
//                         the JSON records failpoints=1 for such builds
//                         and bench_trajectory refuses to gate them.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bruteforce.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/memgrid.h"
#include "crtree/crtree.h"
#include "datagen/neuron.h"
#include "datagen/plasticity.h"
#include "grid/resolution.h"
#include "grid/uniform_grid.h"
#include "join/spatial_join.h"
#include "rtree/packed_rtree.h"
#include "rtree/rtree.h"

namespace simspatial {
namespace {

using bench::Flags;
using bench::JsonWriter;

struct Result {
  std::string kernel;
  std::string structure;
  double ns_per_op = 0;
  double ops = 0;  ///< Items (elements or queries) per timed repetition.
};

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Median wall time of `reps` runs of `fn` (first run warms caches and is
/// also timed: grids/trees here have no lazy state, so it is representative).
template <typename F>
double MedianNs(std::size_t reps, F&& fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    times.push_back(sw.ElapsedNs());
  }
  return Median(std::move(times));
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n = flags.GetSize("n", 100000);
  const std::size_t reps = std::max<std::size_t>(1, flags.GetSize("reps", 5));
  const std::string dataset_name = flags.GetString("dataset", "neurons");
  const auto threads = static_cast<std::uint32_t>(
      flags.GetSize("threads", par::kThreadsAuto));
  core::CellLayout layout = core::CellLayout::kRowMajor;
  const std::string layout_name = flags.GetString("layout", "rowmajor");
  if (!core::ParseCellLayout(layout_name, &layout)) {
    std::fprintf(stderr,
                 "unknown --layout=%s (expected rowmajor|morton|hilbert)\n",
                 layout_name.c_str());
    return 2;
  }
  const auto shards = static_cast<std::uint32_t>(flags.GetSize("shards", 1));
  const auto compact = static_cast<std::uint32_t>(flags.GetSize("compact", 0));
  const std::size_t batch = std::max<std::size_t>(
      1, flags.GetSize("batch", 256));
  const std::string failpoints_spec = flags.GetString("failpoints", "");
  if (!failpoints_spec.empty()) {
    if (!fail::kCompiledIn) {
      std::fprintf(stderr,
                   "--failpoints given but this binary was built without "
                   "-DSIMSPATIAL_FAILPOINTS=ON\n");
      return 2;
    }
    if (!fail::Registry::Global().ConfigureFromSpec(failpoints_spec)) {
      std::fprintf(stderr, "malformed --failpoints spec: %s\n",
                   failpoints_spec.c_str());
      return 2;
    }
  }
  fail::Registry::Global().ConfigureFromEnv();
  JsonWriter json(flags.GetString("json", ""));

  bench::PrintHeader("Microbenchmarks: build/range/knn/update/self-join",
                     "regression guard (per-op medians, not a paper figure)");

  std::vector<Element> elems;
  AABB universe;
  if (dataset_name == "uniform") {
    const float side = std::max(
        50.0f, static_cast<float>(std::cbrt(8.0 * static_cast<double>(n))));
    universe = AABB(Vec3(0, 0, 0), Vec3(side, side, side));
    elems = datagen::GenerateUniformBoxes(n, universe, 0.05f, 0.5f);
  } else {
    auto ds = bench::MakeBenchDataset(n);
    universe = ds.universe;
    elems = std::move(ds.elements);
  }
  std::printf("dataset: %zu %s elements, universe side %.0f, reps %zu, "
              "memgrid threads %u, memgrid layout %s, memgrid shards %u, "
              "memgrid compact %u\n",
              n, dataset_name.c_str(), universe.Extent().x, reps,
              par::ResolveThreads(threads), core::ToString(layout), shards,
              compact);

  const auto stats = grid::DatasetStats::Compute(elems, universe);
  const float grid_cell = std::max(
      grid::ChooseCellSize(stats, std::max(1e-3, stats.mean_extent * 8.0)),
      static_cast<float>(stats.max_extent) * 1.01f);
  core::MemGridConfig mg_cfg;
  mg_cfg.cell_size = grid_cell;
  mg_cfg.threads = threads;
  mg_cfg.layout = layout;
  mg_cfg.shards = shards;
  mg_cfg.compact_regions_per_batch = compact;

  datagen::RangeWorkloadConfig wl_cfg;
  wl_cfg.num_queries = 64;
  wl_cfg.selectivity = 1e-4;
  const auto queries =
      datagen::MakeRangeWorkload(elems, universe, wl_cfg).queries;
  Rng knn_rng(17);
  std::vector<Vec3> knn_points;
  for (int i = 0; i < 64; ++i) knn_points.push_back(knn_rng.PointIn(universe));

  std::vector<Result> results;
  const auto record = [&](const char* kernel, const char* structure,
                          double total_ns, double ops) {
    results.push_back(Result{kernel, structure, total_ns / ops, ops});
  };

  // --- Builds ---------------------------------------------------------------
  record("build", "rtree-str", MedianNs(reps, [&] {
           rtree::RTree tree;
           tree.BulkLoadStr(elems);
         }),
         static_cast<double>(n));
  record("build", "cr-tree", MedianNs(reps, [&] {
           crtree::CRTree tree;
           tree.Build(elems);
         }),
         static_cast<double>(n));
  for (const rtree::PackOrder order :
       {rtree::PackOrder::kStr, rtree::PackOrder::kHilbert}) {
    const std::string name =
        std::string("rtree-packed-") + rtree::ToString(order);
    record("build", name.c_str(), MedianNs(reps, [&] {
             rtree::PackedRTree tree(
                 rtree::PackedRTreeOptions{32, order});
             tree.Build(elems);
           }),
           static_cast<double>(n));
  }
  record("build", "memgrid", MedianNs(reps, [&] {
           core::MemGrid grid(universe, mg_cfg);
           grid.Build(elems);
         }),
         static_cast<double>(n));

  // --- Range queries (incl. the §3.3 cache-size ablations) ------------------
  {
    rtree::RTree tree;
    tree.BulkLoadStr(elems);
    std::vector<ElementId> out;
    record("range", "rtree-str", MedianNs(reps, [&] {
             for (const AABB& q : queries) tree.RangeQuery(q, &out);
           }),
           static_cast<double>(queries.size()));
  }
  // R-Tree fanout sweep: ~300B / ~700B (§3.3 sweet spot) / library default /
  // disk-era 4KB nodes.
  for (const std::uint32_t fanout : {8u, 20u, 36u, 146u}) {
    rtree::RTreeOptions opts;
    opts.max_entries = fanout;
    opts.min_entries = fanout * 2 / 5;
    rtree::RTree tree(opts);
    tree.BulkLoadStr(elems);
    std::vector<ElementId> out;
    record("range", ("rtree-fanout-" + std::to_string(fanout)).c_str(),
           MedianNs(reps, [&] {
             for (const AABB& q : queries) tree.RangeQuery(q, &out);
           }),
           static_cast<double>(queries.size()));
  }
  {
    rtree::RTree tree;
    tree.BulkLoadHilbert(elems);
    std::vector<ElementId> out;
    record("range", "rtree-hilbert", MedianNs(reps, [&] {
             for (const AABB& q : queries) tree.RangeQuery(q, &out);
           }),
           static_cast<double>(queries.size()));
  }
  // Packed R-trees: same query contract as the dynamic tree, SoA lane
  // blocks streamed through the batched AABB kernel.
  for (const rtree::PackOrder order :
       {rtree::PackOrder::kStr, rtree::PackOrder::kHilbert}) {
    rtree::PackedRTree tree(rtree::PackedRTreeOptions{32, order});
    tree.Build(elems);
    std::vector<ElementId> out;
    const std::string name =
        std::string("rtree-packed-") + rtree::ToString(order);
    record("range", name.c_str(), MedianNs(reps, [&] {
             for (const AABB& q : queries) tree.RangeQuery(q, &out);
           }),
           static_cast<double>(queries.size()));
    record("knn", name.c_str(), MedianNs(reps, [&] {
             for (const Vec3& p : knn_points) tree.KnnQuery(p, 10, &out);
           }),
           static_cast<double>(knn_points.size()));
  }
  // CR-Tree node-size sweep (§3.3: node bytes vs cache lines).
  for (const std::uint32_t node_bytes : {256u, 768u, 4096u}) {
    crtree::CRTree tree(crtree::CRTreeOptions{.node_bytes = node_bytes});
    tree.Build(elems);
    std::vector<ElementId> out;
    record("range", ("cr-tree-" + std::to_string(node_bytes) + "B").c_str(),
           MedianNs(reps, [&] {
             for (const AABB& q : queries) tree.RangeQuery(q, &out);
           }),
           static_cast<double>(queries.size()));
  }
  core::MemGrid memgrid(universe, mg_cfg);
  memgrid.Build(elems);
  {
    std::vector<ElementId> out;
    record("range", "memgrid", MedianNs(reps, [&] {
             for (const AABB& q : queries) memgrid.RangeQuery(q, &out);
           }),
           static_cast<double>(queries.size()));
    record("range", "linear-scan", MedianNs(reps, [&] {
             for (const AABB& q : queries) out = ScanRange(elems, q);
           }),
           static_cast<double>(queries.size()));
  }

  // --- Cubic range probes (the §3.3 working-set regime) ---------------------
  // Two orders of magnitude higher selectivity makes each probe span
  // several cells per axis: the regime the curve layouts target, where
  // MemGrid fuses the probe cube into contiguous-rank streams (compare
  // --layout=rowmajor vs =hilbert on this kernel; the tiny probes of the
  // "range" kernel above favour plain z-column order instead).
  {
    datagen::RangeWorkloadConfig cubic_cfg;
    cubic_cfg.num_queries = 32;
    cubic_cfg.selectivity = 1e-2;
    const auto cubic_queries =
        datagen::MakeRangeWorkload(elems, universe, cubic_cfg).queries;
    std::vector<ElementId> out;
    record("range-cubic", "memgrid", MedianNs(reps, [&] {
             for (const AABB& q : cubic_queries) memgrid.RangeQuery(q, &out);
           }),
           static_cast<double>(cubic_queries.size()));
    rtree::RTree tree;
    tree.BulkLoadStr(elems);
    record("range-cubic", "rtree-str", MedianNs(reps, [&] {
             for (const AABB& q : cubic_queries) tree.RangeQuery(q, &out);
           }),
           static_cast<double>(cubic_queries.size()));
  }

  // --- Skewed range probes on a fine grid (the high-run-count regime) -------
  // Thin slabs spanning much of two axes, probed against a join-style
  // fine-celled grid (cell = max element extent, the §4.3 self-join
  // sizing): the probe box cuts across the space-filling curve instead of
  // riding along it and spans tens of thousands of cells, so the curve
  // layouts see thousands of rank runs per query — the regime the BIGMIN
  // orthant walk is for. The default-grid kernels above keep covering the
  // query-tuned coarse grid.
  {
    core::MemGridConfig fine_cfg = mg_cfg;
    fine_cfg.cell_size = static_cast<float>(stats.max_extent) * 1.01f;
    core::MemGrid memgrid_fine(universe, fine_cfg);
    memgrid_fine.Build(elems);
    Rng skew_rng(29);
    std::vector<AABB> skew_queries;
    const Vec3 ext = universe.Extent();
    const Vec3 half(ext.x * 0.01f, ext.y * 0.35f, ext.z * 0.35f);
    for (int i = 0; i < 32; ++i) {
      skew_queries.push_back(
          AABB::FromCenterHalfExtents(skew_rng.PointIn(universe), half));
    }
    std::vector<ElementId> out;
    record("range-skewed", "memgrid", MedianNs(reps, [&] {
             for (const AABB& q : skew_queries) {
               memgrid_fine.RangeQuery(q, &out);
             }
           }),
           static_cast<double>(skew_queries.size()));
    // Decomposition shape, for the record: how many fused rank runs the
    // active layout yields per probe (untimed; CurveRangeRankRuns is
    // exactly what the large-probe traversal enumerates). Lattice geometry
    // comes from the grid itself — re-deriving it from cell_size could land
    // one cell off the lattice actually timed.
    const core::MemGridShape shape = memgrid_fine.Shape();
    const float cell = memgrid_fine.cell_size();
    const core::CellVec dims{static_cast<std::uint32_t>(shape.nx),
                             static_cast<std::uint32_t>(shape.ny),
                             static_cast<std::uint32_t>(shape.nz)};
    const int bits = std::max(shape.curve_bits, 1);
    const float mhe = shape.max_half_extent;
    std::vector<core::CurveRun> runs;
    double total_runs = 0;
    for (const AABB& q : skew_queries) {
      const AABB probe = q.Inflated(mhe);
      core::CellVec lo, hi;
      for (int a = 0; a < 3; ++a) {
        const auto at = [&](const Vec3& p) {
          return static_cast<std::uint32_t>(std::clamp<std::int64_t>(
              static_cast<std::int64_t>((p[a] - universe.min[a]) / cell), 0,
              static_cast<std::int64_t>(dims[a]) - 1));
        };
        lo[a] = at(probe.min);
        hi[a] = at(probe.max);
      }
      core::CurveRangeRankRuns(layout, lo, hi, dims, bits, &runs);
      total_runs += static_cast<double>(runs.size());
    }
    std::printf("decomposition (%s): fine grid %ux%ux%u, %.0f rank "
                "runs/query on skewed slabs\n",
                core::ToString(layout), dims[0], dims[1], dims[2],
                total_runs / static_cast<double>(skew_queries.size()));
  }

  // --- kNN ------------------------------------------------------------------
  {
    rtree::RTree tree;
    tree.BulkLoadStr(elems);
    std::vector<ElementId> out;
    record("knn", "rtree-str", MedianNs(reps, [&] {
             for (const Vec3& p : knn_points) tree.KnnQuery(p, 10, &out);
           }),
           static_cast<double>(knn_points.size()));
    record("knn", "memgrid", MedianNs(reps, [&] {
             for (const Vec3& p : knn_points) memgrid.KnnQuery(p, 10, &out);
           }),
           static_cast<double>(knn_points.size()));
  }

  // --- Batched probes (the serving regime) ----------------------------------
  // The same probe set served through the batch engine (rank-ordered
  // scheduling + duplicate-probe reuse) and through the plain per-probe
  // loop. Results are bit-identical by contract; the ns/op gap is the
  // batching win the serving harness (bench_serving) measures at scale.
  {
    datagen::RangeWorkloadConfig bw_cfg;
    bw_cfg.num_queries = batch;
    bw_cfg.selectivity = 1e-4;
    const auto batch_queries =
        datagen::MakeRangeWorkload(elems, universe, bw_cfg).queries;
    std::vector<std::vector<ElementId>> slots;
    record("range-batch", "memgrid", MedianNs(reps, [&] {
             memgrid.RangeQueryBatch(batch_queries, &slots);
           }),
           static_cast<double>(batch_queries.size()));
    std::vector<ElementId> out;
    record("range-batch-loop", "memgrid", MedianNs(reps, [&] {
             for (const AABB& q : batch_queries) memgrid.RangeQuery(q, &out);
           }),
           static_cast<double>(batch_queries.size()));
    std::vector<std::size_t> counts;
    record("count-batch", "memgrid", MedianNs(reps, [&] {
             memgrid.RangeQueryCountBatch(batch_queries, &counts);
           }),
           static_cast<double>(batch_queries.size()));
    record("count-batch-loop", "memgrid", MedianNs(reps, [&] {
             for (const AABB& q : batch_queries) memgrid.RangeQueryCount(q);
           }),
           static_cast<double>(batch_queries.size()));
    Rng batch_rng(43);
    std::vector<Vec3> batch_points;
    batch_points.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      batch_points.push_back(batch_rng.PointIn(universe));
    }
    record("knn-batch", "memgrid", MedianNs(reps, [&] {
             memgrid.KnnQueryBatch(batch_points, 10, &slots);
           }),
           static_cast<double>(batch_points.size()));
    record("knn-batch-loop", "memgrid", MedianNs(reps, [&] {
             for (const Vec3& p : batch_points) memgrid.KnnQuery(p, 10, &out);
           }),
           static_cast<double>(batch_points.size()));
  }

  // --- Updates (the §4 kernel) ---------------------------------------------
  {
    datagen::PlasticityConfig pcfg;
    const auto step_updates = [&](auto& structure) {
      auto moving = elems;
      datagen::PlasticityModel model(pcfg, universe);
      std::vector<ElementUpdate> updates;
      // Displacement generation is identical for every structure and is
      // kept OUTSIDE the timed region: only ApplyUpdates — the signal this
      // kernel guards — is measured.
      std::vector<double> times;
      for (std::size_t r = 0; r < reps; ++r) {
        model.Step(&moving, &updates);
        Stopwatch sw;
        structure.ApplyUpdates(updates);
        times.push_back(sw.ElapsedNs());
      }
      return Median(std::move(times));
    };
    rtree::RTree tree;
    tree.BulkLoadStr(elems);
    record("update-step", "rtree", step_updates(tree),
           static_cast<double>(n));
    record("update-step", "memgrid", step_updates(memgrid),
           static_cast<double>(n));
    grid::UniformGrid ug(universe, grid_cell);
    ug.Build(elems);
    record("update-step", "uniform-grid", step_updates(ug),
           static_cast<double>(n));
    // The update pass above displaced memgrid's content; restore it so any
    // kernels added below see the pristine dataset.
    memgrid.Build(elems);
  }

  // --- Self-join ------------------------------------------------------------
  {
    std::vector<std::pair<ElementId, ElementId>> pairs;
    record("self-join", "memgrid", MedianNs(reps, [&] {
             memgrid.SelfJoin(0.0f, &pairs);
           }),
           static_cast<double>(n));
    // The standalone join algorithms, on the same --threads knob (their
    // deterministic chunked drivers emit identical pairs at every value).
    join::GridJoinOptions gj_opts;
    gj_opts.threads = threads;
    record("self-join", "grid-join", MedianNs(reps, [&] {
             pairs = join::GridSelfJoin(elems, 0.0f, gj_opts);
           }),
           static_cast<double>(n));
    join::PbsmOptions pbsm_opts;
    pbsm_opts.threads = threads;
    record("self-join", "pbsm", MedianNs(reps, [&] {
             pairs = join::PbsmSelfJoin(elems, 0.0f, pbsm_opts);
           }),
           static_cast<double>(n));
    join::TouchOptions touch_opts;
    touch_opts.threads = threads;
    record("self-join", "touch", MedianNs(reps, [&] {
             pairs = join::TouchSelfJoin(elems, 0.0f, touch_opts);
           }),
           static_cast<double>(n));
  }

  TablePrinter t({"kernel", "structure", "ns/op", "ops"});
  for (const Result& r : results) {
    t.AddRow({r.kernel, r.structure, TablePrinter::Num(r.ns_per_op, 1),
              TablePrinter::Num(r.ops, 0)});
    json.BeginRecord();
    json.Field("bench", "bench_micro");
    json.Field("kernel", r.kernel);
    json.Field("structure", r.structure);
    json.Field("dataset", dataset_name);
    json.Field("n", static_cast<double>(n));
    json.Field("threads", static_cast<double>(par::ResolveThreads(threads)));
    json.Field("layout", core::ToString(layout));
    json.Field("shards", static_cast<double>(shards));
    json.Field("compact_regions", static_cast<double>(compact));
    json.Field("batch", static_cast<double>(batch));
    // Failpoint-instrumented builds carry extra branches on the hot paths;
    // bench_trajectory refuses to gate numbers from (or against) them.
    json.Field("failpoints", fail::kCompiledIn ? 1.0 : 0.0);
    json.Field("ns_per_op", r.ns_per_op);
    json.Field("ops_per_rep", r.ops);
  }
  t.Print();
  json.Flush();

  const auto find = [&](const char* kernel, const char* structure) {
    for (const Result& r : results) {
      if (r.kernel == kernel && r.structure == structure) return r.ns_per_op;
    }
    return 0.0;
  };
  bench::PrintClaim(
      "memgrid updates are cheaper per element than R-Tree updates",
      find("update-step", "memgrid") < find("update-step", "rtree"));
  bench::PrintClaim(
      "memgrid range queries beat the linear scan",
      find("range", "memgrid") < find("range", "linear-scan"));
  return 0;
}

}  // namespace
}  // namespace simspatial

int main(int argc, char** argv) { return simspatial::Main(argc, argv); }
