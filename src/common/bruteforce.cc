#include "common/bruteforce.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace simspatial {

namespace {

// Query-side grid for BatchScanRange: cell -> indices of queries whose box
// overlaps the cell. Cell coordinates are clamped to the query bounds'
// cell range, at most kMaxCells per axis, so the key is injective.
struct QueryGrid {
  static constexpr std::int64_t kMaxCells = std::int64_t{1} << 21;

  /// Inclusive cell-coordinate box.
  struct Range {
    std::int64_t lo[3];
    std::int64_t hi[3];

    /// Number of cells; 0 for an inverted range.
    std::uint64_t Cells() const {
      std::uint64_t n = 1;
      for (int a = 0; a < 3; ++a) {
        if (hi[a] < lo[a]) return 0;
        n *= static_cast<std::uint64_t>(hi[a] - lo[a] + 1);
      }
      return n;
    }
    bool Holds(const std::int64_t (&c)[3]) const {
      return lo[0] <= c[0] && c[0] <= hi[0] && lo[1] <= c[1] &&
             c[1] <= hi[1] && lo[2] <= c[2] && c[2] <= hi[2];
    }
  };

  float inv_cell = 1.0f;
  Vec3 origin;
  std::int64_t count[3] = {1, 1, 1};  ///< Cells per axis.
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> cells;

  static std::int64_t Key(const std::int64_t (&c)[3]) {
    return (c[0] << 42) | (c[1] << 21) | c[2];
  }
  /// Cell of `v` on `axis`. The floor is clamped in float to the cell range
  /// before the cast, and NaN goes to cell 0. The map is monotone in `v`,
  /// which is all the reference-point rule needs: the reference point of a
  /// matching pair lies in both boxes, so its cell lies in both ranges.
  std::int64_t CoordOf(float v, int axis) const {
    return ClampedCellCoord(std::floor((v - origin[axis]) * inv_cell),
                            static_cast<std::size_t>(count[axis]));
  }
  Range RangeOf(const AABB& b) const {
    return Range{
        {CoordOf(b.min.x, 0), CoordOf(b.min.y, 1), CoordOf(b.min.z, 2)},
        {CoordOf(b.max.x, 0), CoordOf(b.max.y, 1), CoordOf(b.max.z, 2)}};
  }
  /// Calls `f(cell)` for every cell of `r`.
  template <typename F>
  static void ForEachCell(const Range& r, F&& f) {
    std::int64_t c[3];
    for (c[0] = r.lo[0]; c[0] <= r.hi[0]; ++c[0]) {
      for (c[1] = r.lo[1]; c[1] <= r.hi[1]; ++c[1]) {
        for (c[2] = r.lo[2]; c[2] <= r.hi[2]; ++c[2]) f(c);
      }
    }
  }
};

/// Queries spanning more cells than this are not registered in the grid
/// (an infinite probe, or one far larger than the rest would otherwise
/// fill every cell); every element tests them directly.
constexpr std::uint64_t kWideQueryCells = std::uint64_t{1} << 16;

}  // namespace

std::vector<std::vector<ElementId>> BatchScanRange(
    const std::vector<Element>& elems, const std::vector<AABB>& queries,
    QueryCounters* counters) {
  std::vector<std::vector<ElementId>> out(queries.size());
  if (queries.empty() || elems.empty()) return out;

  // Cell size ~ the mean query side: each query then overlaps O(1) cells
  // and each element consults O(1) cells. Probes with a non-finite side
  // (NaN or infinite coordinates) neither size nor place the grid.
  AABB bounds;
  double mean_side = 0;
  for (const AABB& q : queries) {
    const Vec3 e = q.Extent();
    const double side = (e.x + e.y + e.z) / 3.0;
    if (!std::isfinite(side)) continue;
    bounds.Extend(q);
    mean_side += side;
  }
  mean_side = std::max(1e-5, mean_side / queries.size());

  QueryGrid g;
  g.inv_cell = static_cast<float>(1.0 / mean_side);
  g.origin = bounds.min;
  for (int a = 0; a < 3; ++a) {
    g.count[a] = ClampedCellCoord(
                     std::floor((bounds.max[a] - g.origin[a]) * g.inv_cell),
                     QueryGrid::kMaxCells) +
                 1;
  }
  std::vector<std::uint32_t> wide;
  std::vector<QueryGrid::Range> query_cells(queries.size());
  for (std::uint32_t qi = 0; qi < queries.size(); ++qi) {
    const QueryGrid::Range& r = query_cells[qi] = g.RangeOf(queries[qi]);
    if (r.Cells() > kWideQueryCells) {
      wide.push_back(qi);
      continue;
    }
    QueryGrid::ForEachCell(r, [&](const std::int64_t(&cell)[3]) {
      g.cells[QueryGrid::Key(cell)].push_back(qi);
    });
  }

  // Stream the dataset once; for each element visit the cells its box
  // overlaps and test the queries registered there. The reference-point
  // rule deduplicates without per-pair state: a pair is tested only in the
  // cell max(element's low cell, query's low cell), which is the cell of
  // max(mins) because CoordOf is monotone, and which lies in both ranges
  // whenever the boxes intersect. An element spanning more cells than are
  // occupied (a huge box) walks the occupied cells instead. Either way an
  // element tests each query at most once, in dataset order.
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;
  constexpr std::int64_t kMask = QueryGrid::kMaxCells - 1;
  for (const Element& e : elems) {
    c.bytes_read += sizeof(Element);
    for (const std::uint32_t qi : wide) {
      c.element_tests += 1;
      if (e.box.Intersects(queries[qi])) out[qi].push_back(e.id);
    }
    const QueryGrid::Range r = g.RangeOf(e.box);
    const std::uint64_t span = r.Cells();
    if (span == 0) continue;
    const auto visit = [&](const std::int64_t(&cell)[3],
                           const std::vector<std::uint32_t>& registered) {
      for (const std::uint32_t qi : registered) {
        const std::int64_t(&q_lo)[3] = query_cells[qi].lo;
        if (std::max(r.lo[0], q_lo[0]) != cell[0] ||
            std::max(r.lo[1], q_lo[1]) != cell[1] ||
            std::max(r.lo[2], q_lo[2]) != cell[2]) {
          continue;
        }
        c.element_tests += 1;
        if (e.box.Intersects(queries[qi])) out[qi].push_back(e.id);
      }
    };
    if (span > g.cells.size()) {
      for (const auto& [key, registered] : g.cells) {
        const std::int64_t cell[3] = {key >> 42, (key >> 21) & kMask,
                                      key & kMask};
        if (r.Holds(cell)) visit(cell, registered);
      }
    } else {
      QueryGrid::ForEachCell(r, [&](const std::int64_t(&cell)[3]) {
        const auto it = g.cells.find(QueryGrid::Key(cell));
        if (it != g.cells.end()) visit(cell, it->second);
      });
    }
  }
  for (const auto& r : out) c.results += r.size();
  return out;
}

std::vector<ElementId> ScanRange(const std::vector<Element>& elems,
                                 const AABB& range, QueryCounters* counters) {
  std::vector<ElementId> out;
  for (const Element& e : elems) {
    if (e.box.Intersects(range)) out.push_back(e.id);
  }
  if (counters != nullptr) {
    counters->element_tests += elems.size();
    counters->bytes_read += elems.size() * sizeof(Element);
    counters->results += out.size();
  }
  return out;
}

std::vector<ElementId> ScanKnn(const std::vector<Element>& elems,
                               const Vec3& p, std::size_t k,
                               QueryCounters* counters) {
  using Entry = std::pair<float, ElementId>;  // (squared distance, id)
  std::vector<Entry> heap;  // max-heap of the best k so far.
  heap.reserve(k + 1);
  for (const Element& e : elems) {
    const float d = e.box.SquaredDistanceTo(p);
    if (heap.size() < k) {
      heap.emplace_back(d, e.id);
      std::push_heap(heap.begin(), heap.end());
    } else if (k > 0 && Entry(d, e.id) < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = Entry(d, e.id);
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  std::vector<ElementId> out;
  out.reserve(heap.size());
  for (const Entry& e : heap) out.push_back(e.second);
  if (counters != nullptr) {
    counters->distance_computations += elems.size();
    counters->bytes_read += elems.size() * sizeof(Element);
    counters->results += out.size();
  }
  return out;
}

std::vector<std::pair<ElementId, ElementId>> NestedLoopSelfJoin(
    const std::vector<Element>& elems, float eps, QueryCounters* counters) {
  std::vector<std::pair<ElementId, ElementId>> out;
  const float eps2 = eps * eps;
  for (std::size_t i = 0; i < elems.size(); ++i) {
    for (std::size_t j = i + 1; j < elems.size(); ++j) {
      const bool hit =
          eps > 0.0f
              ? elems[i].box.SquaredDistanceTo(elems[j].box) <= eps2
              : elems[i].box.Intersects(elems[j].box);
      if (hit) {
        out.emplace_back(std::min(elems[i].id, elems[j].id),
                         std::max(elems[i].id, elems[j].id));
      }
    }
  }
  if (counters != nullptr) {
    counters->element_tests += elems.size() * (elems.size() - 1) / 2;
    counters->results += out.size();
  }
  return out;
}

std::vector<std::pair<ElementId, ElementId>> NestedLoopJoin(
    const std::vector<Element>& a, const std::vector<Element>& b, float eps,
    QueryCounters* counters) {
  std::vector<std::pair<ElementId, ElementId>> out;
  const float eps2 = eps * eps;
  for (const Element& ea : a) {
    for (const Element& eb : b) {
      const bool hit = eps > 0.0f
                           ? ea.box.SquaredDistanceTo(eb.box) <= eps2
                           : ea.box.Intersects(eb.box);
      if (hit) out.emplace_back(ea.id, eb.id);
    }
  }
  if (counters != nullptr) {
    counters->element_tests += a.size() * b.size();
    counters->results += out.size();
  }
  return out;
}

void SortPairs(std::vector<std::pair<ElementId, ElementId>>* pairs) {
  std::sort(pairs->begin(), pairs->end());
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
}

}  // namespace simspatial
