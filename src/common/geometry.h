// SimSpatial — geometry kernel.
//
// Minimal 3-D vector / axis-aligned bounding box / primitive toolkit used by
// every index in the library. The simulation models of the paper (neuron
// morphologies, material meshes, celestial bodies) reduce to volumetric
// elements approximated by AABBs plus exact primitives (cylinders/capsules,
// tetrahedra) for refinement tests.

#ifndef SIMSPATIAL_COMMON_GEOMETRY_H_
#define SIMSPATIAL_COMMON_GEOMETRY_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>

#if defined(__SSE2__) || defined(__AVX__)
#include <immintrin.h>
#endif

namespace simspatial {

/// 3-D point / vector with float components.
///
/// Floats (not doubles) are used deliberately: the paper's datasets are
/// hundreds of millions of elements kept in main memory, so the in-memory
/// footprint of coordinates dominates capacity. Single precision at the
/// micrometre scale of the target models (universe ~10^2 µm, displacements
/// ~10^-2 µm) leaves >4 decimal digits of headroom.
struct Vec3 {
  float x = 0.0f;
  float y = 0.0f;
  float z = 0.0f;

  constexpr Vec3() = default;
  constexpr Vec3(float px, float py, float pz) : x(px), y(py), z(pz) {}

  constexpr float operator[](int axis) const {
    return axis == 0 ? x : (axis == 1 ? y : z);
  }
  float& operator[](int axis) { return axis == 0 ? x : (axis == 1 ? y : z); }

  constexpr Vec3 operator+(const Vec3& o) const {
    return Vec3(x + o.x, y + o.y, z + o.z);
  }
  constexpr Vec3 operator-(const Vec3& o) const {
    return Vec3(x - o.x, y - o.y, z - o.z);
  }
  constexpr Vec3 operator*(float s) const { return Vec3(x * s, y * s, z * s); }
  constexpr Vec3 operator/(float s) const { return Vec3(x / s, y / s, z / s); }
  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  Vec3& operator*=(float s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }
  constexpr bool operator==(const Vec3& o) const {
    return x == o.x && y == o.y && z == o.z;
  }
  constexpr bool operator!=(const Vec3& o) const { return !(*this == o); }

  constexpr float Dot(const Vec3& o) const {
    return x * o.x + y * o.y + z * o.z;
  }
  constexpr Vec3 Cross(const Vec3& o) const {
    return Vec3(y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x);
  }
  constexpr float SquaredNorm() const { return Dot(*this); }
  float Norm() const { return std::sqrt(SquaredNorm()); }

  /// Component-wise minimum.
  static constexpr Vec3 Min(const Vec3& a, const Vec3& b) {
    return Vec3(std::min(a.x, b.x), std::min(a.y, b.y), std::min(a.z, b.z));
  }
  /// Component-wise maximum.
  static constexpr Vec3 Max(const Vec3& a, const Vec3& b) {
    return Vec3(std::max(a.x, b.x), std::max(a.y, b.y), std::max(a.z, b.z));
  }
};

inline constexpr Vec3 operator*(float s, const Vec3& v) { return v * s; }

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << "(" << v.x << ", " << v.y << ", " << v.z << ")";
}

/// Squared Euclidean distance between two points.
inline constexpr float SquaredDistance(const Vec3& a, const Vec3& b) {
  return (a - b).SquaredNorm();
}

/// Euclidean distance between two points.
inline float Distance(const Vec3& a, const Vec3& b) {
  return std::sqrt(SquaredDistance(a, b));
}

/// Axis-aligned bounding box (closed on all faces).
///
/// The default-constructed box is *empty*: min > max on every axis, so it
/// intersects nothing and extending it by a point yields that point's box.
struct AABB {
  Vec3 min{std::numeric_limits<float>::max(),
           std::numeric_limits<float>::max(),
           std::numeric_limits<float>::max()};
  Vec3 max{std::numeric_limits<float>::lowest(),
           std::numeric_limits<float>::lowest(),
           std::numeric_limits<float>::lowest()};

  constexpr AABB() = default;
  constexpr AABB(const Vec3& lo, const Vec3& hi) : min(lo), max(hi) {}

  /// Box covering a single point (zero extent).
  static constexpr AABB FromPoint(const Vec3& p) { return AABB(p, p); }

  /// Box centred at `c` with half-extent `h` on every axis.
  static constexpr AABB FromCenterHalfExtent(const Vec3& c, float h) {
    return AABB(Vec3(c.x - h, c.y - h, c.z - h), Vec3(c.x + h, c.y + h, c.z + h));
  }

  /// Box centred at `c` with per-axis half extents `h`.
  static constexpr AABB FromCenterHalfExtents(const Vec3& c, const Vec3& h) {
    return AABB(c - h, c + h);
  }

  constexpr bool IsEmpty() const {
    return min.x > max.x || min.y > max.y || min.z > max.z;
  }

  constexpr bool operator==(const AABB& o) const {
    return min == o.min && max == o.max;
  }

  constexpr Vec3 Center() const { return (min + max) * 0.5f; }
  constexpr Vec3 Extent() const { return max - min; }

  /// Volume; 0 for empty or degenerate boxes.
  constexpr float Volume() const {
    if (IsEmpty()) return 0.0f;
    const Vec3 e = Extent();
    return e.x * e.y * e.z;
  }

  /// Surface area (the R*-Tree "margin" criterion uses the sum of extents;
  /// see Margin()); 0 for empty boxes.
  constexpr float SurfaceArea() const {
    if (IsEmpty()) return 0.0f;
    const Vec3 e = Extent();
    return 2.0f * (e.x * e.y + e.y * e.z + e.z * e.x);
  }

  /// Sum of the edge lengths (R*-Tree margin metric); 0 for empty boxes.
  constexpr float Margin() const {
    if (IsEmpty()) return 0.0f;
    const Vec3 e = Extent();
    return e.x + e.y + e.z;
  }

  /// True iff this box and `o` share at least one point.
  constexpr bool Intersects(const AABB& o) const {
    return min.x <= o.max.x && o.min.x <= max.x && min.y <= o.max.y &&
           o.min.y <= max.y && min.z <= o.max.z && o.min.z <= max.z;
  }

  /// True iff `p` lies inside or on the boundary.
  constexpr bool Contains(const Vec3& p) const {
    return min.x <= p.x && p.x <= max.x && min.y <= p.y && p.y <= max.y &&
           min.z <= p.z && p.z <= max.z;
  }

  /// True iff `o` lies entirely inside this box.
  constexpr bool Contains(const AABB& o) const {
    return !o.IsEmpty() && min.x <= o.min.x && o.max.x <= max.x &&
           min.y <= o.min.y && o.max.y <= max.y && min.z <= o.min.z &&
           o.max.z <= max.z;
  }

  /// Grow to cover `p`.
  void Extend(const Vec3& p) {
    min = Vec3::Min(min, p);
    max = Vec3::Max(max, p);
  }

  /// Grow to cover `o`.
  void Extend(const AABB& o) {
    if (o.IsEmpty()) return;
    min = Vec3::Min(min, o.min);
    max = Vec3::Max(max, o.max);
  }

  /// Smallest box covering both inputs.
  static AABB Union(const AABB& a, const AABB& b) {
    AABB r = a;
    r.Extend(b);
    return r;
  }

  /// Intersection of the two boxes (empty box if disjoint).
  static constexpr AABB Intersection(const AABB& a, const AABB& b) {
    return AABB(Vec3::Max(a.min, b.min), Vec3::Min(a.max, b.max));
  }

  /// Box expanded by `eps` on every side (grace-window construction, §4.2).
  constexpr AABB Inflated(float eps) const {
    return AABB(Vec3(min.x - eps, min.y - eps, min.z - eps),
                Vec3(max.x + eps, max.y + eps, max.z + eps));
  }

  /// Box translated by `d`.
  constexpr AABB Translated(const Vec3& d) const {
    return AABB(min + d, max + d);
  }

  /// Squared distance from `p` to the closest point of the box (0 inside).
  float SquaredDistanceTo(const Vec3& p) const {
    const float dx = std::max({min.x - p.x, 0.0f, p.x - max.x});
    const float dy = std::max({min.y - p.y, 0.0f, p.y - max.y});
    const float dz = std::max({min.z - p.z, 0.0f, p.z - max.z});
    return dx * dx + dy * dy + dz * dz;
  }

  /// Squared distance between the closest points of two boxes (0 if they
  /// intersect). Used by distance joins (synapse detection, §2.2).
  float SquaredDistanceTo(const AABB& o) const {
    const float dx =
        std::max({min.x - o.max.x, 0.0f, o.min.x - max.x});
    const float dy =
        std::max({min.y - o.max.y, 0.0f, o.min.y - max.y});
    const float dz =
        std::max({min.z - o.max.z, 0.0f, o.min.z - max.z});
    return dx * dx + dy * dy + dz * dz;
  }
};

inline std::ostream& operator<<(std::ostream& os, const AABB& b) {
  return os << "[" << b.min << " .. " << b.max << "]";
}

// --- Batched AABB kernel -----------------------------------------------------
//
// The library's hot loops (MemGrid region scans, R-tree node scans, the
// sweep join's active-list filter, the grid join's pair loops) all reduce
// to "test one query box against a short run of candidate boxes". The
// grid join uses the pair-run kernel further down (BoxLanesMatch), which
// reads its candidates straight from SoA coordinate columns and also
// evaluates the distance predicate. The batched kernel below does
// that kBoxBatchWidth lanes at a time over structure-of-arrays min/max
// coordinates, producing a bitmask of hits. The width is a compile-time
// constant — there is no runtime CPU dispatch; the vector path is chosen
// at compile time from the target's baseline ISA (AVX when enabled, else
// SSE on any x86-64 build, where `cmpleps`/`movmskps` map one comparison
// chain to two 4-lane halves), and every other target compiles the plain
// scalar lane loop. The chained-`&` scalar form defeats auto-vectorisers
// (each lane collapses to `comiss`+`setnb` chains), which is why the x86
// paths are spelled out as intrinsics rather than left to the optimiser.
//
// Guarantee: for every lane, the mask bit equals the scalar predicate
// (`AABB::Intersects` / `AABB::Contains`) on that lane's box, bit for bit
// — the lane computation is the same comparison chain, only evaluated
// branchlessly (`&` on bools is `&&` without short-circuiting, identical
// for any input including degenerate zero-extent and inverted boxes).
// geometry_test pins this agreement against BoxBatchIntersectScalar /
// BoxBatchContainsScalar.

/// Compile-time lane count of the batched AABB kernels. Packed R-tree
/// nodes size their SoA child-MBR blocks to a multiple of this.
inline constexpr std::uint32_t kBoxBatchWidth = 8;

/// One structure-of-arrays block of kBoxBatchWidth candidate boxes.
/// 32-byte alignment keeps each lane array in one vector register load.
struct BoxBatch {
  alignas(32) float min_x[kBoxBatchWidth];
  alignas(32) float min_y[kBoxBatchWidth];
  alignas(32) float min_z[kBoxBatchWidth];
  alignas(32) float max_x[kBoxBatchWidth];
  alignas(32) float max_y[kBoxBatchWidth];
  alignas(32) float max_z[kBoxBatchWidth];

  /// Reconstruct lane `i` as a plain AABB (exactly the stored floats).
  AABB Lane(std::uint32_t i) const {
    return AABB(Vec3(min_x[i], min_y[i], min_z[i]),
                Vec3(max_x[i], max_y[i], max_z[i]));
  }

  /// Write `box` into lane `i`.
  void SetLane(std::uint32_t i, const AABB& box) {
    min_x[i] = box.min.x;
    min_y[i] = box.min.y;
    min_z[i] = box.min.z;
    max_x[i] = box.max.x;
    max_y[i] = box.max.y;
    max_z[i] = box.max.z;
  }
};

/// Transpose `count` (<= kBoxBatchWidth) AABBs into a BoxBatch, reading an
/// AABB every `stride_bytes` starting at `first` — an AoS adapter for
/// callers whose boxes live inside larger records (MemGrid's Entry runs,
/// the legacy R-tree's per-node AABB arrays). Lanes >= count are padded
/// with the default *empty* box (min=+FLT_MAX, max=lowest), which
/// intersects and contains nothing, so padding lanes never set mask bits.
inline void BoxBatchLoad(const void* first, std::size_t stride_bytes,
                         std::uint32_t count, BoxBatch* out) {
  const char* p = static_cast<const char*>(first);
  std::uint32_t i = 0;
  for (; i < count; ++i, p += stride_bytes) {
    out->SetLane(i, *reinterpret_cast<const AABB*>(p));
  }
  for (; i < kBoxBatchWidth; ++i) out->SetLane(i, AABB());
}

/// 8-wide intersect: bit i of the result is set iff batch lane i
/// intersects `query` (closed faces, exactly `AABB::Intersects`).
inline std::uint32_t BoxBatchIntersect(const BoxBatch& b, const AABB& query) {
#if defined(__AVX__)
  const __m256 qnx = _mm256_set1_ps(query.min.x);
  const __m256 qny = _mm256_set1_ps(query.min.y);
  const __m256 qnz = _mm256_set1_ps(query.min.z);
  const __m256 qxx = _mm256_set1_ps(query.max.x);
  const __m256 qxy = _mm256_set1_ps(query.max.y);
  const __m256 qxz = _mm256_set1_ps(query.max.z);
  // _CMP_LE_OQ is ordered `<=`: false on NaN, exactly the scalar operator.
  __m256 hit = _mm256_and_ps(
      _mm256_cmp_ps(_mm256_load_ps(b.min_x), qxx, _CMP_LE_OQ),
      _mm256_cmp_ps(qnx, _mm256_load_ps(b.max_x), _CMP_LE_OQ));
  hit = _mm256_and_ps(
      hit, _mm256_cmp_ps(_mm256_load_ps(b.min_y), qxy, _CMP_LE_OQ));
  hit = _mm256_and_ps(
      hit, _mm256_cmp_ps(qny, _mm256_load_ps(b.max_y), _CMP_LE_OQ));
  hit = _mm256_and_ps(
      hit, _mm256_cmp_ps(_mm256_load_ps(b.min_z), qxz, _CMP_LE_OQ));
  hit = _mm256_and_ps(
      hit, _mm256_cmp_ps(qnz, _mm256_load_ps(b.max_z), _CMP_LE_OQ));
  return static_cast<std::uint32_t>(_mm256_movemask_ps(hit));
#elif defined(__SSE2__)
  const __m128 qnx = _mm_set1_ps(query.min.x);
  const __m128 qny = _mm_set1_ps(query.min.y);
  const __m128 qnz = _mm_set1_ps(query.min.z);
  const __m128 qxx = _mm_set1_ps(query.max.x);
  const __m128 qxy = _mm_set1_ps(query.max.y);
  const __m128 qxz = _mm_set1_ps(query.max.z);
  std::uint32_t mask = 0;
  for (std::uint32_t o = 0; o < kBoxBatchWidth; o += 4) {
    // cmpleps is ordered `<=`: false on NaN, exactly the scalar operator.
    __m128 hit = _mm_and_ps(_mm_cmple_ps(_mm_load_ps(b.min_x + o), qxx),
                            _mm_cmple_ps(qnx, _mm_load_ps(b.max_x + o)));
    hit = _mm_and_ps(hit, _mm_cmple_ps(_mm_load_ps(b.min_y + o), qxy));
    hit = _mm_and_ps(hit, _mm_cmple_ps(qny, _mm_load_ps(b.max_y + o)));
    hit = _mm_and_ps(hit, _mm_cmple_ps(_mm_load_ps(b.min_z + o), qxz));
    hit = _mm_and_ps(hit, _mm_cmple_ps(qnz, _mm_load_ps(b.max_z + o)));
    mask |= static_cast<std::uint32_t>(_mm_movemask_ps(hit)) << o;
  }
  return mask;
#else
  std::uint32_t mask = 0;
  for (std::uint32_t i = 0; i < kBoxBatchWidth; ++i) {
    const bool hit = (b.min_x[i] <= query.max.x) & (query.min.x <= b.max_x[i]) &
                     (b.min_y[i] <= query.max.y) & (query.min.y <= b.max_y[i]) &
                     (b.min_z[i] <= query.max.z) & (query.min.z <= b.max_z[i]);
    mask |= static_cast<std::uint32_t>(hit) << i;
  }
  return mask;
#endif
}

/// 8-wide containment: bit i of the result is set iff `query` entirely
/// contains batch lane i (exactly `AABB::Contains(AABB)`, including its
/// empty-operand rule: an empty lane is never contained).
inline std::uint32_t BoxBatchContains(const BoxBatch& b, const AABB& query) {
#if defined(__AVX__)
  const __m256 bnx = _mm256_load_ps(b.min_x);
  const __m256 bny = _mm256_load_ps(b.min_y);
  const __m256 bnz = _mm256_load_ps(b.min_z);
  const __m256 bxx = _mm256_load_ps(b.max_x);
  const __m256 bxy = _mm256_load_ps(b.max_y);
  const __m256 bxz = _mm256_load_ps(b.max_z);
  __m256 ok = _mm256_and_ps(_mm256_cmp_ps(bnx, bxx, _CMP_LE_OQ),
                            _mm256_cmp_ps(bny, bxy, _CMP_LE_OQ));
  ok = _mm256_and_ps(ok, _mm256_cmp_ps(bnz, bxz, _CMP_LE_OQ));
  ok = _mm256_and_ps(
      ok, _mm256_cmp_ps(_mm256_set1_ps(query.min.x), bnx, _CMP_LE_OQ));
  ok = _mm256_and_ps(
      ok, _mm256_cmp_ps(bxx, _mm256_set1_ps(query.max.x), _CMP_LE_OQ));
  ok = _mm256_and_ps(
      ok, _mm256_cmp_ps(_mm256_set1_ps(query.min.y), bny, _CMP_LE_OQ));
  ok = _mm256_and_ps(
      ok, _mm256_cmp_ps(bxy, _mm256_set1_ps(query.max.y), _CMP_LE_OQ));
  ok = _mm256_and_ps(
      ok, _mm256_cmp_ps(_mm256_set1_ps(query.min.z), bnz, _CMP_LE_OQ));
  ok = _mm256_and_ps(
      ok, _mm256_cmp_ps(bxz, _mm256_set1_ps(query.max.z), _CMP_LE_OQ));
  return static_cast<std::uint32_t>(_mm256_movemask_ps(ok));
#elif defined(__SSE2__)
  std::uint32_t mask = 0;
  for (std::uint32_t o = 0; o < kBoxBatchWidth; o += 4) {
    const __m128 bnx = _mm_load_ps(b.min_x + o);
    const __m128 bny = _mm_load_ps(b.min_y + o);
    const __m128 bnz = _mm_load_ps(b.min_z + o);
    const __m128 bxx = _mm_load_ps(b.max_x + o);
    const __m128 bxy = _mm_load_ps(b.max_y + o);
    const __m128 bxz = _mm_load_ps(b.max_z + o);
    __m128 ok = _mm_and_ps(_mm_cmple_ps(bnx, bxx), _mm_cmple_ps(bny, bxy));
    ok = _mm_and_ps(ok, _mm_cmple_ps(bnz, bxz));
    ok = _mm_and_ps(ok, _mm_cmple_ps(_mm_set1_ps(query.min.x), bnx));
    ok = _mm_and_ps(ok, _mm_cmple_ps(bxx, _mm_set1_ps(query.max.x)));
    ok = _mm_and_ps(ok, _mm_cmple_ps(_mm_set1_ps(query.min.y), bny));
    ok = _mm_and_ps(ok, _mm_cmple_ps(bxy, _mm_set1_ps(query.max.y)));
    ok = _mm_and_ps(ok, _mm_cmple_ps(_mm_set1_ps(query.min.z), bnz));
    ok = _mm_and_ps(ok, _mm_cmple_ps(bxz, _mm_set1_ps(query.max.z)));
    mask |= static_cast<std::uint32_t>(_mm_movemask_ps(ok)) << o;
  }
  return mask;
#else
  std::uint32_t mask = 0;
  for (std::uint32_t i = 0; i < kBoxBatchWidth; ++i) {
    const bool nonempty = (b.min_x[i] <= b.max_x[i]) &
                          (b.min_y[i] <= b.max_y[i]) &
                          (b.min_z[i] <= b.max_z[i]);
    const bool in = (query.min.x <= b.min_x[i]) & (b.max_x[i] <= query.max.x) &
                    (query.min.y <= b.min_y[i]) & (b.max_y[i] <= query.max.y) &
                    (query.min.z <= b.min_z[i]) & (b.max_z[i] <= query.max.z);
    mask |= static_cast<std::uint32_t>(nonempty & in) << i;
  }
  return mask;
#endif
}

/// Scalar reference for BoxBatchIntersect: one `AABB::Intersects` per lane.
/// The batched kernel must agree with this bit for bit (see geometry_test);
/// it is also the always-available fallback semantics — a target where the
/// lane loop does not vectorise still computes exactly this.
inline std::uint32_t BoxBatchIntersectScalar(const BoxBatch& b,
                                             const AABB& query) {
  std::uint32_t mask = 0;
  for (std::uint32_t i = 0; i < kBoxBatchWidth; ++i) {
    mask |= static_cast<std::uint32_t>(b.Lane(i).Intersects(query)) << i;
  }
  return mask;
}

/// Scalar reference for BoxBatchContains (`query.Contains(lane)` per lane).
inline std::uint32_t BoxBatchContainsScalar(const BoxBatch& b,
                                            const AABB& query) {
  std::uint32_t mask = 0;
  for (std::uint32_t i = 0; i < kBoxBatchWidth; ++i) {
    mask |= static_cast<std::uint32_t>(query.Contains(b.Lane(i))) << i;
  }
  return mask;
}

// --- Pair-run kernel ---------------------------------------------------------
//
// The grid join tests the elements of one cell against every run of
// elements that shares the cell or lies in a neighbour cell. Runs are short
// (a few elements per cell), so the kernel tests one box against a group
// of kBoxRunWidth lanes loaded (unaligned) straight from SoA coordinate
// columns; BoxRunMatch and BoxRunSelfMatch mask the lanes past the run
// instead of transposing runs into BoxBatch blocks. A run that fits one group is
// loaded once and tested against every outer box of the cell.
//
// Guarantee: lane j's hit bit equals the join predicate (join::PairMatches)
// on (box, lane j) — or (lane j, box) — bit for bit. For eps > 0 that is
// `a.SquaredDistanceTo(b) <= eps * eps`, whose per-axis term
// `std::max({p, 0, q})` keeps the first largest value: with p = a.min -
// b.max and q = b.min - a.max it is NaN when p is NaN and ignores a NaN q,
// so the argument order matters. `_mm_max_ps(x, y)` returns y unless x > y,
// so `_mm_max_ps(q, _mm_max_ps(0, p))` is that same selection, and the sum
// keeps the scalar order `(dx * dx + dy * dy) + dz * dz`. For eps <= 0 (and
// NaN eps) it is `AABB::Intersects`. geometry_test pins both orders and
// every tail length against PairMatches.

/// Lanes per kernel step: the SSE register width. Grid-join runs average
/// fewer than four boxes, so a wider step would mostly test padding.
inline constexpr std::uint32_t kBoxRunWidth = 4;

/// Six structure-of-arrays coordinate columns. Each column must be
/// readable kBoxRunWidth - 1 floats past the last box a run can reach:
/// a group that starts inside the run loads all its lanes, and the lanes
/// past the run are masked off.
struct BoxColumns {
  const float* min_x = nullptr;
  const float* min_y = nullptr;
  const float* min_z = nullptr;
  const float* max_x = nullptr;
  const float* max_y = nullptr;
  const float* max_z = nullptr;

  AABB Box(std::size_t j) const {
    return AABB(Vec3(min_x[j], min_y[j], min_z[j]),
                Vec3(max_x[j], max_y[j], max_z[j]));
  }
};

/// kBoxRunWidth boxes of a BoxColumns, starting at one position.
struct BoxLanes {
#if defined(__SSE2__)
  __m128 min_x, min_y, min_z, max_x, max_y, max_z;

  static BoxLanes Load(const BoxColumns& c, std::size_t j) {
    return BoxLanes{_mm_loadu_ps(c.min_x + j), _mm_loadu_ps(c.min_y + j),
                    _mm_loadu_ps(c.min_z + j), _mm_loadu_ps(c.max_x + j),
                    _mm_loadu_ps(c.max_y + j), _mm_loadu_ps(c.max_z + j)};
  }
#else
  AABB box[kBoxRunWidth];

  static BoxLanes Load(const BoxColumns& c, std::size_t j) {
    BoxLanes l;
    for (std::uint32_t i = 0; i < kBoxRunWidth; ++i) l.box[i] = c.Box(j + i);
    return l;
  }
#endif
};

/// The kernel: bit i is set iff lane i satisfies the join predicate with
/// `box` (see the guarantee above), with `box` as the first argument, or
/// lane i first when kLaneFirst. Every lane is tested; callers mask the
/// lanes past their run.
template <bool kLaneFirst>
inline std::uint32_t BoxLanesMatch(const AABB& box, const BoxLanes& l,
                                   float eps) {
#if defined(__SSE2__)
  const __m128 bnx = _mm_set1_ps(box.min.x);
  const __m128 bny = _mm_set1_ps(box.min.y);
  const __m128 bnz = _mm_set1_ps(box.min.z);
  const __m128 bxx = _mm_set1_ps(box.max.x);
  const __m128 bxy = _mm_set1_ps(box.max.y);
  const __m128 bxz = _mm_set1_ps(box.max.z);
  __m128 hit;
  if (eps > 0.0f) {
    // First largest of {p, 0, q}, as std::max({p, 0.0f, q}).
    const auto term = [](__m128 p, __m128 q) {
      return _mm_max_ps(q, _mm_max_ps(_mm_setzero_ps(), p));
    };
    // box first: p = box.min - lane.max, q = lane.min - box.max.
    const __m128 px = _mm_sub_ps(bnx, l.max_x);
    const __m128 py = _mm_sub_ps(bny, l.max_y);
    const __m128 pz = _mm_sub_ps(bnz, l.max_z);
    const __m128 qx = _mm_sub_ps(l.min_x, bxx);
    const __m128 qy = _mm_sub_ps(l.min_y, bxy);
    const __m128 qz = _mm_sub_ps(l.min_z, bxz);
    const __m128 dx = kLaneFirst ? term(qx, px) : term(px, qx);
    const __m128 dy = kLaneFirst ? term(qy, py) : term(py, qy);
    const __m128 dz = kLaneFirst ? term(qz, pz) : term(pz, qz);
    const __m128 d2 =
        _mm_add_ps(_mm_add_ps(_mm_mul_ps(dx, dx), _mm_mul_ps(dy, dy)),
                   _mm_mul_ps(dz, dz));
    hit = _mm_cmple_ps(d2, _mm_set1_ps(eps * eps));
  } else {
    // cmpleps is ordered `<=`: false on NaN, exactly the scalar operator.
    hit = _mm_and_ps(_mm_cmple_ps(l.min_x, bxx), _mm_cmple_ps(bnx, l.max_x));
    hit = _mm_and_ps(hit, _mm_cmple_ps(l.min_y, bxy));
    hit = _mm_and_ps(hit, _mm_cmple_ps(bny, l.max_y));
    hit = _mm_and_ps(hit, _mm_cmple_ps(l.min_z, bxz));
    hit = _mm_and_ps(hit, _mm_cmple_ps(bnz, l.max_z));
  }
  return static_cast<std::uint32_t>(_mm_movemask_ps(hit));
#else
  std::uint32_t mask = 0;
  for (std::uint32_t i = 0; i < kBoxRunWidth; ++i) {
    const AABB& lane = l.box[i];
    const bool hit =
        eps > 0.0f ? (kLaneFirst ? lane.SquaredDistanceTo(box)
                                 : box.SquaredDistanceTo(lane)) <= eps * eps
                   : box.Intersects(lane);
    mask |= static_cast<std::uint32_t>(hit) << i;
  }
  return mask;
#endif
}

/// Mask of the first min(left, kBoxRunWidth) lanes.
inline std::uint32_t BoxLanesHead(std::uint32_t left) {
  return left >= kBoxRunWidth ? (1u << kBoxRunWidth) - 1u : (1u << left) - 1u;
}

/// Calls `emit(i, first + b)` for every set bit b of `mask`, ascending.
template <typename Emit>
inline void EmitLanes(std::uint32_t mask, std::uint32_t i, std::uint32_t first,
                      Emit& emit) {
  for (; mask != 0; mask &= mask - 1) {
    emit(i, first + static_cast<std::uint32_t>(std::countr_zero(mask)));
  }
}

/// Calls `emit(i, j)` for every box i in [o0, o1) of `outer` and j in
/// [r0, r1) of `run` that satisfy the join predicate (box i first, or box
/// j first when kLaneFirst): i ascending and, for each i, j ascending.
template <bool kLaneFirst, typename Emit>
inline void BoxRunMatch(const BoxColumns& outer, std::uint32_t o0,
                        std::uint32_t o1, const BoxColumns& run,
                        std::uint32_t r0, std::uint32_t r1, float eps,
                        Emit&& emit) {
  if (r1 <= r0) return;
  if (r1 - r0 <= kBoxRunWidth) {
    const BoxLanes lanes = BoxLanes::Load(run, r0);
    const std::uint32_t head = BoxLanesHead(r1 - r0);
    for (std::uint32_t i = o0; i < o1; ++i) {
      EmitLanes(BoxLanesMatch<kLaneFirst>(outer.Box(i), lanes, eps) & head,
                i, r0, emit);
    }
    return;
  }
  for (std::uint32_t i = o0; i < o1; ++i) {
    const AABB box = outer.Box(i);
    for (std::uint32_t j = r0; j < r1; j += kBoxRunWidth) {
      EmitLanes(BoxLanesMatch<kLaneFirst>(box, BoxLanes::Load(run, j), eps) &
                    BoxLanesHead(r1 - j),
                i, j, emit);
    }
  }
}

/// Calls `emit(i, j)` for every pair r0 <= i < j < r1 of `c` that
/// satisfies the join predicate with box i first: i ascending and, for
/// each i, j ascending.
template <typename Emit>
inline void BoxRunSelfMatch(const BoxColumns& c, std::uint32_t r0,
                            std::uint32_t r1, float eps, Emit&& emit) {
  if (r1 <= r0 + 1) return;
  if (r1 - r0 <= kBoxRunWidth) {
    const BoxLanes lanes = BoxLanes::Load(c, r0);
    const std::uint32_t head = BoxLanesHead(r1 - r0);
    for (std::uint32_t i = r0; i < r1; ++i) {
      const std::uint32_t after_i = head & (~1u << (i - r0));
      EmitLanes(BoxLanesMatch<false>(c.Box(i), lanes, eps) & after_i, i, r0,
                emit);
    }
    return;
  }
  for (std::uint32_t i = r0; i < r1; ++i) {
    const AABB box = c.Box(i);
    for (std::uint32_t j = i + 1; j < r1; j += kBoxRunWidth) {
      EmitLanes(BoxLanesMatch<false>(box, BoxLanes::Load(c, j), eps) &
                    BoxLanesHead(r1 - j),
                i, j, emit);
    }
  }
}

/// Capsule (cylinder with hemispherical caps): segment [a,b] with radius r.
///
/// Neuron morphologies are modelled as chains of such segments (§2, App. A:
/// "each modeled with thousands of cylinders"). The capsule is the standard
/// exact primitive for them because segment-distance tests are cheap.
struct Capsule {
  Vec3 a;
  Vec3 b;
  float radius = 0.0f;

  constexpr Capsule() = default;
  constexpr Capsule(const Vec3& pa, const Vec3& pb, float r)
      : a(pa), b(pb), radius(r) {}

  /// Tight AABB of the capsule.
  AABB Bounds() const {
    AABB box(Vec3::Min(a, b), Vec3::Max(a, b));
    return box.Inflated(radius);
  }

  Vec3 Center() const { return (a + b) * 0.5f; }
  float Length() const { return Distance(a, b); }
};

/// Squared distance from point `p` to segment [a,b].
float SquaredDistancePointSegment(const Vec3& p, const Vec3& a, const Vec3& b);

/// Squared distance between segments [p1,q1] and [p2,q2].
float SquaredDistanceSegmentSegment(const Vec3& p1, const Vec3& q1,
                                    const Vec3& p2, const Vec3& q2);

/// Exact test: does point `p` lie within the capsule?
bool CapsuleContains(const Capsule& c, const Vec3& p);

/// Exact test: are the two capsules within distance `eps` of each other?
/// (eps = 0 tests for overlap.) This is the synapse-formation predicate of
/// §2.2: "wherever two neurons are within a given distance of each other,
/// they will form a synapse".
bool CapsulesWithinDistance(const Capsule& c1, const Capsule& c2, float eps);

/// Squared distance between segment [a,b] and `box` (0 when they touch).
/// The distance along the segment is convex, so a ternary search converges;
/// accuracy ~1e-3 of the segment length — ample for refinement predicates.
float SquaredDistanceSegmentAABB(const Vec3& a, const Vec3& b,
                                 const AABB& box);

/// Exact filter-refinement predicate: does the capsule intersect the box?
/// This is the "intersection tests elements" step of Figure 3 — candidates
/// found via their MBRs are verified against the true cylinder geometry.
bool CapsuleIntersectsAABB(const Capsule& c, const AABB& box);

/// Tetrahedron defined by four vertices. Substrate primitive for the mesh
/// indexes of §4.3 (DLS / OCTOPUS / FLAT operate on tetrahedral meshes).
struct Tetrahedron {
  std::array<Vec3, 4> v;

  AABB Bounds() const {
    AABB b;
    for (const Vec3& p : v) b.Extend(p);
    return b;
  }

  Vec3 Centroid() const { return (v[0] + v[1] + v[2] + v[3]) * 0.25f; }

  /// Signed volume (positive for positively oriented tets).
  float SignedVolume() const;

  /// True iff `p` lies inside or on the boundary (barycentric test with
  /// tolerance `eps` relative to the tet volume).
  bool Contains(const Vec3& p, float eps = 1e-6f) const;
};

/// True iff triangle (t0,t1,t2) intersects the box. Exact SAT test; used for
/// assigning mesh faces/tets to grid cells without over-replication.
bool TriangleIntersectsAABB(const Vec3& t0, const Vec3& t1, const Vec3& t2,
                            const AABB& box);

/// Exact tetrahedron-box intersection: any tet vertex in the box, any box
/// corner in the tet, or any tet face crossing the box. Mesh range queries
/// use this geometric predicate (an AABB-only filter can report tets whose
/// boxes touch the query while the solid does not, and the set of
/// AABB-hits is not face-connected even on convex meshes).
bool TetIntersectsAABB(const Tetrahedron& tet, const AABB& box);

/// Grid cell of a position `t` measured in cells from the lattice origin,
/// clamped to [0, n): truncation toward zero, like a plain cast, but the
/// clamp happens in float first — a float -> int conversion of an
/// out-of-range or NaN value is undefined behaviour. NaN lands in cell 0.
inline std::int32_t ClampedCellCoord(float t, std::size_t n) {
  const float last = static_cast<float>(n - 1);
  return static_cast<std::int32_t>(t >= 0.0f ? std::min(t, last) : 0.0f);
}

/// Morton (Z-order) code of integer lattice coordinates (low 21 bits per
/// axis are used; x occupies the least-significant interleave slot).
/// Injective on [0, 2^21)^3 — distinct cells get distinct keys — which is
/// what MemGrid's curve-ordered cell layout relies on.
std::uint64_t MortonEncodeCell(std::uint32_t x, std::uint32_t y,
                               std::uint32_t z);

/// Inverse of MortonEncodeCell: recover the lattice coordinates from a
/// Morton key.
void MortonDecodeCell(std::uint64_t key, std::uint32_t* x, std::uint32_t* y,
                      std::uint32_t* z);

/// Hilbert-curve index of integer lattice coordinates (`bits` bits per
/// axis, Skilling's transpose algorithm). A bijection [0, 2^bits)^3 ->
/// [0, 2^(3*bits)) with the Hilbert adjacency property: consecutive keys
/// differ by one lattice step. Size `bits` to the lattice (e.g. 10 for a
/// grid of up to 1024 cells per axis): the transform cost and the key
/// magnitude both scale with it.
std::uint64_t HilbertEncodeCell(std::uint32_t x, std::uint32_t y,
                                std::uint32_t z, int bits = 21);

/// Inverse of HilbertEncodeCell (same `bits`): recover the lattice
/// coordinates from a Hilbert key (de-interleave into Skilling's transpose,
/// then the published TransposetoAxes pass). Both curve codecs are
/// *hierarchical*: the cells whose keys share a 3*l-bit prefix form an
/// axis-aligned subcube of side 2^(bits-l) — the property the BIGMIN-style
/// range decomposition (core::CurveRangeRankRuns) is built on.
void HilbertDecodeCell(std::uint64_t key, int bits, std::uint32_t* x,
                       std::uint32_t* y, std::uint32_t* z);

/// Morton (Z-order) code interleaving 21 bits per axis from a position
/// normalised to [0,1)^3. Used by bulk loaders and space-filling-curve
/// partitioners. Equivalent to MortonEncodeCell over the quantised lattice.
std::uint64_t MortonEncode(const Vec3& p, const AABB& universe);

/// Hilbert-curve index (21 bits per axis, Skilling's transpose algorithm)
/// of a position normalised to [0,1)^3. Better locality than Morton: no
/// long jumps between adjacent keys, which tightens bulk-loaded leaves.
/// Equivalent to HilbertEncodeCell over the quantised lattice.
std::uint64_t HilbertEncode(const Vec3& p, const AABB& universe);

}  // namespace simspatial

#endif  // SIMSPATIAL_COMMON_GEOMETRY_H_
