// PBSM — Partition Based Spatial-Merge join [23], in-memory variant.
//
// Elements (inflated by eps/2 so the distance predicate becomes an overlap
// test at partitioning time) are replicated into every grid cell they
// touch; each cell is joined independently with a local plane sweep, and
// the classical reference-point test removes cross-cell duplicates without
// any hash set: a pair is reported only in the unique cell containing the
// component-wise max of the two inflated mins.

#include <algorithm>
#include <cmath>

#include "join/join_parallel.h"
#include "join/spatial_join.h"

namespace simspatial::join {

namespace {

struct Part {
  AABB infl;        // eps/2-inflated box used for partitioning/dedup.
  const Element* e;
};

struct GridDims {
  AABB bounds;
  float cell = 1.0f;
  float inv_cell = 1.0f;
  std::int32_t nx = 1;
  std::int32_t ny = 1;
  std::int32_t nz = 1;

  std::int32_t Clamp(float v, float lo, std::int32_t n) const {
    return ClampedCellCoord((v - lo) * inv_cell, static_cast<std::size_t>(n));
  }
  void CellOf(const Vec3& p, std::int32_t* x, std::int32_t* y,
              std::int32_t* z) const {
    *x = Clamp(p.x, bounds.min.x, nx);
    *y = Clamp(p.y, bounds.min.y, ny);
    *z = Clamp(p.z, bounds.min.z, nz);
  }
  std::size_t Index(std::int32_t x, std::int32_t y, std::int32_t z) const {
    return (static_cast<std::size_t>(x) * ny + y) * nz + z;
  }
  /// Inverse of Index: ascending flat order == the (x, y, z) triple loop.
  void Decode(std::size_t idx, std::int32_t* x, std::int32_t* y,
              std::int32_t* z) const {
    *z = static_cast<std::int32_t>(idx % nz);
    *y = static_cast<std::int32_t>((idx / nz) % ny);
    *x = static_cast<std::int32_t>(idx / (static_cast<std::size_t>(ny) * nz));
  }
};

GridDims MakeDims(const AABB& bounds, std::size_t n, float cell_size) {
  GridDims d;
  d.bounds = bounds;
  const Vec3 ext = bounds.Extent();
  if (cell_size <= 0.0f) {
    // ~2 elements per occupied cell at uniform density.
    const double volume = std::max(1e-30, double(bounds.Volume()));
    cell_size = static_cast<float>(
        std::cbrt(2.0 * volume / std::max<std::size_t>(1, n)));
  }
  d.cell = std::max(cell_size, 1e-6f);
  d.inv_cell = 1.0f / d.cell;
  const auto axis = [&](float e) {
    return std::clamp<std::int32_t>(
        static_cast<std::int32_t>(std::ceil(e * d.inv_cell)), 1, 1024);
  };
  d.nx = axis(ext.x);
  d.ny = axis(ext.y);
  d.nz = axis(ext.z);
  return d;
}

// Scatter inflated boxes into cells.
void Scatter(const std::vector<Element>& elems, float half_eps,
             const GridDims& d, std::vector<std::vector<Part>>* cells) {
  for (const Element& e : elems) {
    const AABB infl = half_eps > 0.0f ? e.box.Inflated(half_eps) : e.box;
    std::int32_t x0, y0, z0, x1, y1, z1;
    d.CellOf(infl.min, &x0, &y0, &z0);
    d.CellOf(infl.max, &x1, &y1, &z1);
    for (std::int32_t x = x0; x <= x1; ++x) {
      for (std::int32_t y = y0; y <= y1; ++y) {
        for (std::int32_t z = z0; z <= z1; ++z) {
          (*cells)[d.Index(x, y, z)].push_back(Part{infl, &e});
        }
      }
    }
  }
}

// Pair reported only in the cell owning the reference point.
bool IsReferenceCell(const GridDims& d, const AABB& a, const AABB& b,
                     std::int32_t x, std::int32_t y, std::int32_t z) {
  const Vec3 ref = Vec3::Max(a.min, b.min);
  std::int32_t rx, ry, rz;
  d.CellOf(ref, &rx, &ry, &rz);
  return rx == x && ry == y && rz == z;
}

template <typename Emit>
void JoinCellSelf(std::vector<Part>* cell, float eps, const GridDims& d,
                  std::int32_t x, std::int32_t y, std::int32_t z,
                  QueryCounters* c, const Emit& emit) {
  // Mini plane sweep inside the cell.
  std::sort(cell->begin(), cell->end(), [](const Part& a, const Part& b) {
    return a.infl.min.x < b.infl.min.x;
  });
  for (std::size_t i = 0; i < cell->size(); ++i) {
    const Part& pi = (*cell)[i];
    for (std::size_t j = i + 1; j < cell->size(); ++j) {
      const Part& pj = (*cell)[j];
      if (pj.infl.min.x > pi.infl.max.x) break;  // Sweep cut-off.
      c->element_tests += 1;
      if (!pi.infl.Intersects(pj.infl)) continue;
      if (!IsReferenceCell(d, pi.infl, pj.infl, x, y, z)) continue;
      if (PairMatches(pi.e->box, pj.e->box, eps)) emit(pi.e, pj.e);
    }
  }
}

template <typename Emit>
void JoinCellBinary(std::vector<Part>* ca, std::vector<Part>* cb, float eps,
                    const GridDims& d, std::int32_t x, std::int32_t y,
                    std::int32_t z, QueryCounters* c, const Emit& emit) {
  std::sort(ca->begin(), ca->end(), [](const Part& a, const Part& b) {
    return a.infl.min.x < b.infl.min.x;
  });
  std::sort(cb->begin(), cb->end(), [](const Part& a, const Part& b) {
    return a.infl.min.x < b.infl.min.x;
  });
  // Sweep the merged fronts: for each a, test b's overlapping in x.
  std::size_t start = 0;
  for (const Part& pa : *ca) {
    while (start < cb->size() &&
           (*cb)[start].infl.max.x < pa.infl.min.x) {
      ++start;
    }
    for (std::size_t j = start; j < cb->size(); ++j) {
      const Part& pb = (*cb)[j];
      if (pb.infl.min.x > pa.infl.max.x) break;
      c->element_tests += 1;
      if (!pa.infl.Intersects(pb.infl)) continue;
      if (!IsReferenceCell(d, pa.infl, pb.infl, x, y, z)) continue;
      if (PairMatches(pa.e->box, pb.e->box, eps)) emit(pa.e, pb.e);
    }
  }
}

}  // namespace

std::vector<JoinPair> PbsmSelfJoin(const std::vector<Element>& elems,
                                   float eps, PbsmOptions options,
                                   QueryCounters* counters) {
  std::vector<JoinPair> out;
  if (elems.size() < 2) return out;
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;

  AABB bounds = BoundsOf(elems).Inflated(eps * 0.5f + 1e-4f);
  const GridDims d = MakeDims(bounds, elems.size(), options.cell_size);
  std::vector<std::vector<Part>> cells(
      static_cast<std::size_t>(d.nx) * d.ny * d.nz);
  Scatter(elems, eps * 0.5f, d, &cells);

  // Each cell is owned by exactly one chunk (contiguous flat-index
  // ranges), so the in-place sort inside JoinCellSelf never races.
  detail::RunDeterministicChunks(
      cells.size(), options.threads, &out, &c, nullptr,
      [&](detail::JoinShard* shard, std::size_t begin, std::size_t end) {
        for (std::size_t idx = begin; idx < end; ++idx) {
          auto& cell = cells[idx];
          if (cell.size() < 2) continue;
          std::int32_t x, y, z;
          d.Decode(idx, &x, &y, &z);
          shard->counters.nodes_visited += 1;
          JoinCellSelf(&cell, eps, d, x, y, z, &shard->counters,
                       [&](const Element* a, const Element* b) {
                         shard->pairs.emplace_back(std::min(a->id, b->id),
                                                   std::max(a->id, b->id));
                       });
        }
      });
  c.results += out.size();
  return out;
}

std::vector<JoinPair> PbsmJoin(const std::vector<Element>& a,
                               const std::vector<Element>& b, float eps,
                               PbsmOptions options, QueryCounters* counters) {
  std::vector<JoinPair> out;
  if (a.empty() || b.empty()) return out;
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;

  AABB bounds = BoundsOf(a);
  bounds.Extend(BoundsOf(b));
  bounds = bounds.Inflated(eps * 0.5f + 1e-4f);
  const GridDims d = MakeDims(bounds, a.size() + b.size(), options.cell_size);
  std::vector<std::vector<Part>> cells_a(
      static_cast<std::size_t>(d.nx) * d.ny * d.nz);
  std::vector<std::vector<Part>> cells_b(cells_a.size());
  Scatter(a, eps * 0.5f, d, &cells_a);
  Scatter(b, eps * 0.5f, d, &cells_b);

  detail::RunDeterministicChunks(
      cells_a.size(), options.threads, &out, &c, nullptr,
      [&](detail::JoinShard* shard, std::size_t begin, std::size_t end) {
        for (std::size_t idx = begin; idx < end; ++idx) {
          auto& ca = cells_a[idx];
          auto& cb = cells_b[idx];
          if (ca.empty() || cb.empty()) continue;
          std::int32_t x, y, z;
          d.Decode(idx, &x, &y, &z);
          shard->counters.nodes_visited += 1;
          JoinCellBinary(&ca, &cb, eps, d, x, y, z, &shard->counters,
                         [&](const Element* ea, const Element* eb) {
                           shard->pairs.emplace_back(ea->id, eb->id);
                         });
        }
      });
  c.results += out.size();
  return out;
}

}  // namespace simspatial::join
