// Section 4.1 experiment — update-all vs rebuild-from-scratch.
//
// Paper: neural plasticity run, 1000 steps, all elements move by 0.04 µm on
// average (<0.5 % beyond 0.1 µm). "Updating all elements of this
// application in an R-Tree takes 130 seconds at every simulation step.
// Building the new R-Tree index from scratch, on the other hand, only takes
// 48 seconds. For this experiment updating only is faster than a rebuild if
// less than 38% of the dataset change in a time step."
//
// Here: one plasticity step over the neuron dataset; classical delete+
// reinsert updates (no LUR-style in-place patch — that's the separate
// ablation row) timed against an STR bulk rebuild; then the moving-fraction
// sweep locates the crossover. The paper's headline ratio (update-all ~2.7x
// slower than rebuild) and the existence of a crossover well below 100%
// are the reproduced shapes.
//
// MemGrid rows: the same sweep for MemGrid::ApplyUpdates' two paths, as
// mean ms per step over --steps plasticity steps in which the first
// `fraction` of the elements move:
//   * incremental — only the moving elements' updates, delivered in
//     slices of a third of the grid so every slice stays below the
//     rebuild crossover;
//   * full batch — one ApplyUpdates carrying every element (the ones that
//     did not move keep their box). On a grid at or above ApplyUpdates'
//     size floor this takes the rebuild path, and its cost barely depends
//     on the fraction; below the floor it runs incrementally. The "path"
//     column reports which path ran (update_stats().rebuilds).
// These rows set the crossover constants next to kParallelGrain in
// core/memgrid.cc.
//
// Flags: --n=<elements> (default 300000), --threads=<t> (MemGrid worker
// threads, default hardware concurrency), --steps=<s> (default 20, enough
// to span several of the incremental path's re-layout cycles), --rtree=0
// skips the R-tree rows (slow at n=1M).

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "core/memgrid.h"
#include "datagen/plasticity.h"
#include "grid/resolution.h"
#include "rtree/rtree.h"

namespace simspatial {
namespace {

using bench::Flags;

double TimeRebuild(const std::vector<Element>& elems) {
  rtree::RTree tree;
  Stopwatch sw;
  tree.BulkLoadStr(elems);
  return sw.ElapsedSeconds();
}

double TimeUpdates(const std::vector<Element>& before,
                   const std::vector<ElementUpdate>& updates,
                   bool bottom_up_patch) {
  rtree::RTreeOptions opts;
  opts.bottom_up_patch = bottom_up_patch;
  rtree::RTree tree(opts);
  tree.BulkLoadStr(before);
  Stopwatch sw;
  tree.ApplyUpdates(updates);
  return sw.ElapsedSeconds();
}

struct MemGridStepTimes {
  double incremental_ms = 0;  ///< Mean per step, moving elements only.
  double full_ms = 0;         ///< Mean per step, one full-coverage batch.
  bool full_rebuilt = false;  ///< The full batch took the rebuild path.
  bool incremental_rebuilt = false;  ///< A slice crossed the crossover.
};

/// Mean ApplyUpdates ms per step for both MemGrid paths at one moving
/// fraction. Each path runs on its own grid built from `before`, fed by
/// the same seeded plasticity sequence.
MemGridStepTimes TimeMemGridSteps(const std::vector<Element>& before,
                                  const AABB& universe,
                                  const core::MemGridConfig& cfg,
                                  double fraction, std::size_t steps) {
  const std::size_t n = before.size();
  const auto moving_count = static_cast<std::size_t>(fraction * n);
  const std::size_t slice = std::max<std::size_t>(1, n / 3);
  MemGridStepTimes t;
  for (const bool full : {false, true}) {
    core::MemGrid grid(universe, cfg);
    grid.Build(before);
    auto moving = before;
    datagen::PlasticityModel model(datagen::PlasticityConfig{}, universe);
    std::vector<ElementUpdate> updates;
    double total_ms = 0;
    for (std::size_t s = 0; s < steps; ++s) {
      model.Step(&moving, &updates);
      const std::size_t k = std::min(moving_count, updates.size());
      if (full) {
        // Updates past the moving prefix carry the box the grid holds,
        // which is still the one from `before`: those ids never move.
        for (std::size_t i = k; i < updates.size(); ++i) {
          updates[i].new_box = before[updates[i].id].box;
        }
        Stopwatch sw;
        grid.ApplyUpdates(updates);
        total_ms += sw.ElapsedMs();
      } else {
        const std::span<const ElementUpdate> batch(updates.data(), k);
        Stopwatch sw;
        for (std::size_t b = 0; b < k; b += slice) {
          grid.ApplyUpdates(batch.subspan(b, std::min(slice, k - b)));
        }
        total_ms += sw.ElapsedMs();
      }
    }
    const bool rebuilt = grid.update_stats().rebuilds > 0;
    (full ? t.full_ms : t.incremental_ms) =
        total_ms / static_cast<double>(steps);
    (full ? t.full_rebuilt : t.incremental_rebuilt) = rebuilt;
  }
  return t;
}

void RunMemGridSweep(const datagen::NeuronDataset& ds, std::uint32_t threads,
                     std::size_t steps) {
  const auto stats = grid::DatasetStats::Compute(ds.elements, ds.universe);
  core::MemGridConfig cfg;
  cfg.cell_size = std::max(
      grid::ChooseCellSize(stats, std::max(1e-3, stats.mean_extent * 8.0)),
      static_cast<float>(stats.max_extent) * 1.01f);
  cfg.threads = threads;
  std::printf("\nMemGrid ApplyUpdates: incremental vs full batch "
              "(threads %u, mean of %zu steps):\n",
              par::ResolveThreads(threads), steps);
  TablePrinter sweep({"fraction moved", "incremental", "full batch", "path",
                      "cheaper"});
  for (const double frac :
       {0.05, 0.10, 0.20, 0.38, 0.50, 0.60, 0.75, 0.90, 1.00}) {
    const MemGridStepTimes t =
        TimeMemGridSteps(ds.elements, ds.universe, cfg, frac, steps);
    sweep.AddRow({TablePrinter::Pct(frac * 100, 0),
                  TablePrinter::Num(t.incremental_ms, 2) + " ms" +
                      (t.incremental_rebuilt ? " (rebuilt!)" : ""),
                  TablePrinter::Num(t.full_ms, 2) + " ms",
                  t.full_rebuilt ? "rebuild" : "incremental",
                  t.incremental_ms <= t.full_ms ? "incremental"
                                                : "full batch"});
  }
  sweep.Print();
}

}  // namespace

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n = flags.GetSize("n", 300000);
  const auto threads = static_cast<std::uint32_t>(
      flags.GetSize("threads", par::kThreadsAuto));
  const std::size_t steps =
      std::max<std::size_t>(1, flags.GetSize("steps", 20));
  const bool run_rtree = flags.GetSize("rtree", 1) != 0;

  bench::PrintHeader("Section 4.1: updating all elements vs rebuilding",
                     "Heinis et al., EDBT'14, Section 4.1 experiment");
  auto ds = bench::MakeBenchDataset(n);
  std::printf("dataset: %zu neuron segments in %.0f^3 um universe\n", n,
              ds.universe.Extent().x);
  RunMemGridSweep(ds, threads, steps);
  if (!run_rtree) return 0;

  // One full plasticity step, paper-calibrated displacements.
  datagen::PlasticityConfig pcfg;
  pcfg.mean_displacement = 0.04f;
  const auto before = ds.elements;
  datagen::PlasticityModel model(pcfg, ds.universe);
  std::vector<ElementUpdate> updates;
  const auto stats = model.Step(&ds.elements, &updates);
  std::printf("displacements: mean %.4f um, %.3f%% beyond 0.1 um "
              "(paper: 0.04 um, <0.5%%)\n",
              stats.mean_magnitude, stats.fraction_over_0p1 * 100.0);

  const double t_update = TimeUpdates(before, updates, false);
  const double t_update_lur = TimeUpdates(before, updates, true);
  const double t_rebuild = TimeRebuild(ds.elements);

  TablePrinter t({"strategy", "time (1 step, all move)", "vs rebuild"});
  t.AddRow({"update all (delete+reinsert)",
            TablePrinter::Num(t_update, 3) + " s",
            TablePrinter::Num(t_update / t_rebuild, 2) + "x"});
  t.AddRow({"update all (LUR in-place patch)",
            TablePrinter::Num(t_update_lur, 3) + " s",
            TablePrinter::Num(t_update_lur / t_rebuild, 2) + "x"});
  t.AddRow({"rebuild from scratch (STR)",
            TablePrinter::Num(t_rebuild, 3) + " s", "1.00x"});
  t.AddRow({"paper: update all", "130 s", "2.71x"});
  t.AddRow({"paper: rebuild", "48 s", "1.00x"});
  t.Print();

  bench::PrintClaim(
      "rebuilding beats updating when the whole model moves (paper: 2.7x)",
      t_update > t_rebuild);

  // Crossover sweep: vary the fraction of elements that move.
  std::printf("\ncrossover sweep (fraction moved vs update/rebuild time):\n");
  TablePrinter sweep({"fraction moved", "update time", "rebuild time",
                      "cheaper"});
  double crossover = 1.0;
  bool crossed = false;
  for (const double frac :
       {0.05, 0.10, 0.20, 0.30, 0.38, 0.50, 0.75, 1.00}) {
    std::vector<ElementUpdate> subset(
        updates.begin(),
        updates.begin() + static_cast<std::size_t>(frac * updates.size()));
    const double tu = TimeUpdates(before, subset, false);
    const double tr = t_rebuild;  // Rebuild cost is fraction-independent.
    sweep.AddRow({TablePrinter::Pct(frac * 100, 0),
                  TablePrinter::Num(tu, 3) + " s",
                  TablePrinter::Num(tr, 3) + " s",
                  tu < tr ? "update" : "rebuild"});
    if (!crossed && tu >= tr) {
      crossover = frac;
      crossed = true;
    }
  }
  sweep.Print();
  if (crossed) {
    std::printf("measured crossover: rebuild wins above ~%.0f%% moved "
                "(paper: 38%%)\n", crossover * 100.0);
  } else {
    std::printf("no crossover up to 100%% at this scale\n");
  }
  bench::PrintClaim(
      "a crossover exists below 100% moved — beyond it, rebuild wins",
      crossed);
  return 0;
}

}  // namespace simspatial

int main(int argc, char** argv) { return simspatial::Main(argc, argv); }
