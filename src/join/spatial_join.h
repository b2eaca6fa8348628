// SimSpatial — spatial join algorithms.
//
// §2.2 motivates the self-join (intersection detection, synapse formation);
// §3.3/§4.3 argue that in memory the join is comparison-bound, that
// sweep-line "does not ensure that only spatially close objects are
// compared", that R-Tree-based joins lose to grids under massive updates,
// and that grids with center assignment plus neighbour-cell comparison (and
// the small-cell "intersect by definition" trick) are the promising
// direction. Every algorithm surveyed or proposed is implemented here:
//
//   * NestedLoop        (common/bruteforce.h — the O(n^2) lower bound)
//   * PlaneSweep        sort + active-list sweep along x
//   * PBSM              uniform-grid partitioning + per-cell sweep [23]
//   * TOUCH             hierarchical data-oriented partitioning [21]
//   * GridJoin          §4.3 proposal: centre assignment, forward
//                       half-neighbourhood, optional small-cell shortcut
//
// All joins use the same predicate: eps == 0 -> boxes intersect;
// eps > 0 -> box distance <= eps. Self-joins emit normalised (lo,hi) id
// pairs without duplicates; binary joins emit (a.id, b.id).

#ifndef SIMSPATIAL_JOIN_SPATIAL_JOIN_H_
#define SIMSPATIAL_JOIN_SPATIAL_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/element.h"
#include "common/threads.h"  // par::kThreadsAuto

namespace simspatial::join {

using JoinPair = std::pair<ElementId, ElementId>;

/// True iff the pair satisfies the join predicate.
inline bool PairMatches(const AABB& a, const AABB& b, float eps) {
  return eps > 0.0f ? a.SquaredDistanceTo(b) <= eps * eps : a.Intersects(b);
}

// --- Plane sweep -----------------------------------------------------------

/// Sort-and-sweep self-join along x.
std::vector<JoinPair> PlaneSweepSelfJoin(const std::vector<Element>& elems,
                                         float eps,
                                         QueryCounters* counters = nullptr);

/// Sort-and-sweep binary join.
std::vector<JoinPair> PlaneSweepJoin(const std::vector<Element>& a,
                                     const std::vector<Element>& b, float eps,
                                     QueryCounters* counters = nullptr);

// --- PBSM (Partition Based Spatial-Merge) ----------------------------------

struct PbsmOptions {
  /// Grid cell size; <= 0 derives ~2 elements/cell from the dataset bounds.
  float cell_size = 0.0f;
  /// Worker threads for the per-cell join phase (partitioning stays
  /// serial). Results are bit-identical for every value: cells are
  /// processed in flat-index order and per-worker shards are merged in
  /// chunk order. 0/1 = serial, kThreadsAuto = hardware concurrency.
  std::uint32_t threads = par::kThreadsAuto;
};

std::vector<JoinPair> PbsmSelfJoin(const std::vector<Element>& elems,
                                   float eps, PbsmOptions options = {},
                                   QueryCounters* counters = nullptr);

std::vector<JoinPair> PbsmJoin(const std::vector<Element>& a,
                               const std::vector<Element>& b, float eps,
                               PbsmOptions options = {},
                               QueryCounters* counters = nullptr);

// --- TOUCH ------------------------------------------------------------------

struct TouchOptions {
  /// STR fanout of the hierarchy built on the first (build) dataset.
  std::uint32_t fanout = 16;
  /// Worker threads for the bucket-join phase (hierarchy build and probe
  /// assignment stay serial). Bit-identical output for every value: nodes
  /// are joined in index order, shards merged in chunk order. 0/1 =
  /// serial, kThreadsAuto = hardware concurrency.
  std::uint32_t threads = par::kThreadsAuto;
};

/// TOUCH binary join: builds an STR hierarchy on `build_side`, assigns each
/// probe object to the lowest node whose eps-inflated MBR view cannot route
/// it into a single child, then joins buckets against their subtrees.
std::vector<JoinPair> TouchJoin(const std::vector<Element>& build_side,
                                const std::vector<Element>& probe_side,
                                float eps, TouchOptions options = {},
                                QueryCounters* counters = nullptr);

/// TOUCH self-join (probe == build; self-pairs removed, pairs normalised).
std::vector<JoinPair> TouchSelfJoin(const std::vector<Element>& elems,
                                    float eps, TouchOptions options = {},
                                    QueryCounters* counters = nullptr);

// --- Grid join (§4.3 research direction) -----------------------------------

struct GridJoinOptions {
  /// Cell size; <= 0 chooses max_element_extent + eps (the smallest size
  /// for which centre assignment plus one-cell neighbourhood is complete).
  float cell_size = 0.0f;
  /// Enable the small-cell shortcut: when geometry guarantees that two
  /// boxes whose centres share a cell must intersect, skip their test.
  bool small_cell_shortcut = true;
  /// Worker threads for the whole join: extent reduction, centre-cell
  /// keys, the radix sort and gather that build the cell grid, and the
  /// cell-pair phase. Occupied cells are visited in ascending key order —
  /// serial and parallel alike — each cell's elements in input order, and
  /// shards merged in chunk order, so the output is bit-identical for
  /// every value. 0/1 = serial, kThreadsAuto = hardware concurrency.
  std::uint32_t threads = par::kThreadsAuto;
};

struct GridJoinStats {
  /// Pairs emitted without an intersection test (small-cell shortcut).
  std::uint64_t skipped_tests = 0;
  float cell_size = 0;
};

std::vector<JoinPair> GridSelfJoin(const std::vector<Element>& elems,
                                   float eps, GridJoinOptions options = {},
                                   QueryCounters* counters = nullptr,
                                   GridJoinStats* stats = nullptr);

std::vector<JoinPair> GridJoin(const std::vector<Element>& a,
                               const std::vector<Element>& b, float eps,
                               GridJoinOptions options = {},
                               QueryCounters* counters = nullptr,
                               GridJoinStats* stats = nullptr);

}  // namespace simspatial::join

#endif  // SIMSPATIAL_JOIN_SPATIAL_JOIN_H_
