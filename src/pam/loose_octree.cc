#include "pam/loose_octree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace simspatial::pam {

LooseOctree::LooseOctree(const AABB& universe, LooseOctreeOptions options)
    : universe_(universe), options_(options) {
  const Vec3 ext = universe.Extent();
  root_side_ = std::max({ext.x, ext.y, ext.z, 1e-6f});
  options_.levels = std::max<std::uint32_t>(1, options_.levels);
  bounds_.resize(options_.levels);
}

float LooseOctree::CellSize(std::uint32_t level) const {
  return root_side_ / static_cast<float>(1u << level);
}

LooseOctree::CellKey LooseOctree::CellAt(std::uint32_t level,
                                         const Vec3& p) const {
  const float inv = 1.0f / CellSize(level);
  // Floor (not clamp to the universe): centres slightly outside it keep
  // working. The floor is clamped in float to the int32 range BEFORE the
  // cast — converting an out-of-range or NaN float is undefined. Every
  // value the cast can represent is kept as is; NaN lands in cell 0.
  const auto axis = [inv](float v, float lo) {
    constexpr float kMin = -2147483648.0f;  // INT32_MIN, exact.
    constexpr float kMax = 2147483520.0f;   // Largest float below 2^31.
    const float f = std::floor((v - lo) * inv);
    return std::isnan(f) ? 0 : static_cast<std::int32_t>(
                                   std::clamp(f, kMin, kMax));
  };
  return CellKey{level, axis(p.x, universe_.min.x),
                 axis(p.y, universe_.min.y), axis(p.z, universe_.min.z)};
}

LooseOctree::CellKey LooseOctree::CellFor(const AABB& box) const {
  const Vec3 ext = box.Extent();
  const float m = std::max({ext.x, ext.y, ext.z, 0.0f});
  // Finest level whose cell size covers the element: the loose bounds (cell
  // inflated by cell/2 per side) then contain the box wherever its centre
  // lies in the cell.
  std::uint32_t level = options_.levels - 1;
  while (level > 0 && CellSize(level) < m) --level;
  return CellAt(level, box.Center());
}

void LooseOctree::Widen(const CellKey& key) {
  KeyBounds& b = bounds_[key.level];
  const std::int32_t k[3] = {key.x, key.y, key.z};
  for (int a = 0; a < 3; ++a) {
    b.lo[a] = std::min(b.lo[a], k[a]);
    b.hi[a] = std::max(b.hi[a], k[a]);
  }
}

void LooseOctree::Build(std::span<const Element> elements) {
  cells_.clear();
  placement_.clear();
  bounds_.assign(options_.levels, KeyBounds{});
  placement_.reserve(elements.size());
  for (const Element& e : elements) Insert(e);
}

void LooseOctree::Insert(const Element& element) {
  assert(placement_.find(element.id) == placement_.end());
  const CellKey key = CellFor(element.box);
  Widen(key);
  cells_[key].push_back(element.id);
  placement_.emplace(element.id, Placement{element.box, key});
}

bool LooseOctree::Erase(ElementId id) {
  const auto it = placement_.find(id);
  if (it == placement_.end()) return false;
  auto cell_it = cells_.find(it->second.cell);
  assert(cell_it != cells_.end());
  auto& vec = cell_it->second;
  const auto pos = std::find(vec.begin(), vec.end(), id);
  assert(pos != vec.end());
  *pos = vec.back();
  vec.pop_back();
  if (vec.empty()) cells_.erase(cell_it);
  placement_.erase(it);
  return true;
}

bool LooseOctree::Update(ElementId id, const AABB& new_box) {
  const auto it = placement_.find(id);
  if (it == placement_.end()) return false;
  const CellKey new_cell = CellFor(new_box);
  if (new_cell == it->second.cell) {
    it->second.box = new_box;  // Small move: O(1), no structural change.
    return true;
  }
  auto old_it = cells_.find(it->second.cell);
  auto& old_vec = old_it->second;
  const auto pos = std::find(old_vec.begin(), old_vec.end(), id);
  *pos = old_vec.back();
  old_vec.pop_back();
  if (old_vec.empty()) cells_.erase(old_it);
  Widen(new_cell);
  cells_[new_cell].push_back(id);
  it->second.box = new_box;
  it->second.cell = new_cell;
  return true;
}

std::size_t LooseOctree::ApplyUpdates(std::span<const ElementUpdate> updates) {
  std::size_t applied = 0;
  for (const ElementUpdate& u : updates) {
    applied += Update(u.id, u.new_box) ? 1 : 0;
  }
  return applied;
}

void LooseOctree::RangeQuery(const AABB& range, std::vector<ElementId>* out,
                             QueryCounters* counters) const {
  out->clear();
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;
  for (std::uint32_t level = 0; level < options_.levels; ++level) {
    // A cell can hold elements reaching half a cell beyond its bounds, so
    // the probe range is inflated by half a cell (the loose overhead).
    const float half = CellSize(level) * 0.5f;
    CellKey lo = CellAt(level, range.min - Vec3(half, half, half));
    CellKey hi = CellAt(level, range.max + Vec3(half, half, half));
    // Only keys inside the level's bounds can be occupied: a huge probe
    // (kNN's doubling cube) enumerates the occupied extent, not its span.
    const KeyBounds& b = bounds_[level];
    lo.x = std::max(lo.x, b.lo[0]);
    lo.y = std::max(lo.y, b.lo[1]);
    lo.z = std::max(lo.z, b.lo[2]);
    hi.x = std::min(hi.x, b.hi[0]);
    hi.y = std::min(hi.y, b.hi[1]);
    hi.z = std::min(hi.z, b.hi[2]);
    // An inverted cell span probes no cell; skipping it also keeps the
    // span arithmetic below from overflowing on clamped extreme keys.
    if (hi.x < lo.x || hi.y < lo.y || hi.z < lo.z) continue;
    for (std::int32_t x = lo.x; x <= hi.x; ++x) {
      for (std::int32_t y = lo.y; y <= hi.y; ++y) {
        for (std::int32_t z = lo.z; z <= hi.z; ++z) {
          const auto it = cells_.find(CellKey{level, x, y, z});
          if (it == cells_.end()) continue;
          c.nodes_visited += 1;
          c.element_tests += it->second.size();
          for (const ElementId id : it->second) {
            const AABB& b = placement_.find(id)->second.box;
            if (b.Intersects(range)) out->push_back(id);
          }
        }
      }
    }
    c.structure_tests +=
        static_cast<std::uint64_t>(hi.x - lo.x + 1) * (hi.y - lo.y + 1) *
        (hi.z - lo.z + 1);
  }
  c.results += out->size();
}

void LooseOctree::KnnQuery(const Vec3& p, std::size_t k,
                           std::vector<ElementId>* out,
                           QueryCounters* counters) const {
  out->clear();
  if (k == 0 || placement_.empty()) return;
  if (k >= placement_.size()) {
    // Every element is a neighbour: one pass, sorted by (distance, id) as
    // ScanKnn orders them. NaN distances sort last, by id, which keeps the
    // comparison a strict weak order.
    std::vector<std::pair<float, ElementId>> all;
    all.reserve(placement_.size());
    for (const auto& [id, placed] : placement_) {
      all.emplace_back(placed.box.SquaredDistanceTo(p), id);
    }
    if (counters != nullptr) counters->distance_computations += all.size();
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      const bool a_nan = std::isnan(a.first);
      if (a_nan != std::isnan(b.first)) return !a_nan;
      if (!a_nan && a.first != b.first) return a.first < b.first;
      return a.second < b.second;
    });
    out->reserve(all.size());
    for (const auto& entry : all) out->push_back(entry.second);
    return;
  }
  // Expanding cube search over RangeQuery (exact; see UniformGrid).
  const double density =
      static_cast<double>(placement_.size()) /
      std::max(1.0, static_cast<double>(universe_.Volume()));
  float radius = static_cast<float>(
      std::cbrt(static_cast<double>(k) / std::max(1e-12, density)));
  radius = std::max(radius, CellSize(options_.levels - 1) * 0.5f);
  float far2 = 0.0f;
  for (int corner = 0; corner < 8; ++corner) {
    const Vec3 v((corner & 1) ? universe_.max.x : universe_.min.x,
                 (corner & 2) ? universe_.max.y : universe_.min.y,
                 (corner & 4) ? universe_.max.z : universe_.min.z);
    far2 = std::max(far2, SquaredDistance(v, p));
  }
  const float max_radius = std::sqrt(far2) + root_side_ * 0.01f;

  std::vector<ElementId> cand_ids;
  std::vector<std::pair<float, ElementId>> cand;
  while (true) {
    RangeQuery(AABB::FromCenterHalfExtent(p, radius), &cand_ids, counters);
    cand.clear();
    cand.reserve(cand_ids.size());
    for (const ElementId id : cand_ids) {
      const AABB& b = placement_.find(id)->second.box;
      cand.emplace_back(b.SquaredDistanceTo(p), id);
      if (counters != nullptr) counters->distance_computations += 1;
    }
    if (cand.size() >= k) {
      std::nth_element(cand.begin(), cand.begin() + (k - 1), cand.end(),
                       [](const auto& a, const auto& b) {
                         return a.first != b.first ? a.first < b.first
                                                   : a.second < b.second;
                       });
      if (cand[k - 1].first <= radius * radius || radius >= max_radius) break;
    } else if (radius >= max_radius) {
      break;
    }
    radius *= 2.0f;
  }
  const std::size_t take = std::min(k, cand.size());
  std::partial_sort(cand.begin(), cand.begin() + take, cand.end(),
                    [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first < b.first
                                                : a.second < b.second;
                    });
  out->reserve(take);
  for (std::size_t i = 0; i < take; ++i) out->push_back(cand[i].second);
}

bool LooseOctree::CheckInvariants(std::string* error) const {
  std::size_t slots = 0;
  for (const auto& [key, vec] : cells_) {
    if (vec.empty()) {
      if (error != nullptr) *error = "empty cell kept alive";
      return false;
    }
    slots += vec.size();
    const KeyBounds& b = bounds_[key.level];
    if (key.x < b.lo[0] || key.x > b.hi[0] || key.y < b.lo[1] ||
        key.y > b.hi[1] || key.z < b.lo[2] || key.z > b.hi[2]) {
      if (error != nullptr) *error = "occupied key outside its level bounds";
      return false;
    }
    const float cell = CellSize(key.level);
    for (const ElementId id : vec) {
      const auto it = placement_.find(id);
      if (it == placement_.end() || !(it->second.cell == key)) {
        if (error != nullptr) *error = "placement map inconsistent";
        return false;
      }
      // Loose bounds must contain the element's box.
      const Vec3 lo(universe_.min.x + key.x * cell,
                    universe_.min.y + key.y * cell,
                    universe_.min.z + key.z * cell);
      const AABB loose =
          AABB(lo, lo + Vec3(cell, cell, cell)).Inflated(cell * 0.5f);
      if (!loose.Contains(it->second.box)) {
        if (error != nullptr) *error = "element escapes loose bounds";
        return false;
      }
    }
  }
  if (slots != placement_.size()) {
    if (error != nullptr) *error = "slot/placement count mismatch";
    return false;
  }
  return true;
}

}  // namespace simspatial::pam
