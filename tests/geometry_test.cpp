// Unit tests for the geometry kernel.

#include "common/geometry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "join/spatial_join.h"

namespace simspatial {
namespace {

TEST(Vec3Test, Arithmetic) {
  const Vec3 a(1, 2, 3);
  const Vec3 b(4, 5, 6);
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0f, Vec3(2, 4, 6));
  EXPECT_EQ(2.0f * a, Vec3(2, 4, 6));
  EXPECT_FLOAT_EQ(a.Dot(b), 32.0f);
  EXPECT_EQ(a.Cross(b), Vec3(-3, 6, -3));
  EXPECT_FLOAT_EQ(Vec3(3, 4, 0).Norm(), 5.0f);
}

TEST(Vec3Test, IndexingMatchesComponents) {
  Vec3 v(7, 8, 9);
  EXPECT_FLOAT_EQ(v[0], 7);
  EXPECT_FLOAT_EQ(v[1], 8);
  EXPECT_FLOAT_EQ(v[2], 9);
  v[1] = 42;
  EXPECT_FLOAT_EQ(v.y, 42);
}

TEST(AABBTest, DefaultIsEmpty) {
  const AABB b;
  EXPECT_TRUE(b.IsEmpty());
  EXPECT_FLOAT_EQ(b.Volume(), 0.0f);
  EXPECT_FALSE(b.Intersects(AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))));
}

TEST(AABBTest, ExtendByPointYieldsPointBox) {
  AABB b;
  b.Extend(Vec3(1, 2, 3));
  EXPECT_FALSE(b.IsEmpty());
  EXPECT_EQ(b.min, Vec3(1, 2, 3));
  EXPECT_EQ(b.max, Vec3(1, 2, 3));
  EXPECT_TRUE(b.Contains(Vec3(1, 2, 3)));
}

TEST(AABBTest, VolumeSurfaceMargin) {
  const AABB b(Vec3(0, 0, 0), Vec3(2, 3, 4));
  EXPECT_FLOAT_EQ(b.Volume(), 24.0f);
  EXPECT_FLOAT_EQ(b.SurfaceArea(), 2 * (6 + 12 + 8));
  EXPECT_FLOAT_EQ(b.Margin(), 9.0f);
}

TEST(AABBTest, IntersectionCases) {
  const AABB a(Vec3(0, 0, 0), Vec3(2, 2, 2));
  EXPECT_TRUE(a.Intersects(AABB(Vec3(1, 1, 1), Vec3(3, 3, 3))));
  // Face contact counts (closed boxes).
  EXPECT_TRUE(a.Intersects(AABB(Vec3(2, 0, 0), Vec3(3, 2, 2))));
  EXPECT_FALSE(a.Intersects(AABB(Vec3(2.01f, 0, 0), Vec3(3, 2, 2))));
  // Disjoint on one axis only is enough.
  EXPECT_FALSE(a.Intersects(AABB(Vec3(0, 0, 5), Vec3(2, 2, 6))));
}

TEST(AABBTest, Containment) {
  const AABB outer(Vec3(0, 0, 0), Vec3(10, 10, 10));
  EXPECT_TRUE(outer.Contains(AABB(Vec3(1, 1, 1), Vec3(9, 9, 9))));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(AABB(Vec3(1, 1, 1), Vec3(11, 9, 9))));
  EXPECT_FALSE(outer.Contains(AABB()));  // Empty box is never contained.
}

TEST(AABBTest, UnionAndIntersection) {
  const AABB a(Vec3(0, 0, 0), Vec3(2, 2, 2));
  const AABB b(Vec3(1, 1, 1), Vec3(4, 4, 4));
  const AABB u = AABB::Union(a, b);
  EXPECT_EQ(u.min, Vec3(0, 0, 0));
  EXPECT_EQ(u.max, Vec3(4, 4, 4));
  const AABB i = AABB::Intersection(a, b);
  EXPECT_EQ(i.min, Vec3(1, 1, 1));
  EXPECT_EQ(i.max, Vec3(2, 2, 2));
  EXPECT_TRUE(
      AABB::Intersection(a, AABB(Vec3(5, 5, 5), Vec3(6, 6, 6))).IsEmpty());
}

TEST(AABBTest, DistanceToPoint) {
  const AABB b(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_FLOAT_EQ(b.SquaredDistanceTo(Vec3(0.5f, 0.5f, 0.5f)), 0.0f);
  EXPECT_FLOAT_EQ(b.SquaredDistanceTo(Vec3(2, 0.5f, 0.5f)), 1.0f);
  EXPECT_FLOAT_EQ(b.SquaredDistanceTo(Vec3(2, 2, 0.5f)), 2.0f);
  EXPECT_FLOAT_EQ(b.SquaredDistanceTo(Vec3(2, 2, 2)), 3.0f);
}

TEST(AABBTest, DistanceToBox) {
  const AABB a(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_FLOAT_EQ(a.SquaredDistanceTo(AABB(Vec3(3, 0, 0), Vec3(4, 1, 1))),
                  4.0f);
  EXPECT_FLOAT_EQ(
      a.SquaredDistanceTo(AABB(Vec3(0.5f, 0.5f, 0.5f), Vec3(2, 2, 2))), 0.0f);
}

TEST(AABBTest, InflatedAndTranslated) {
  const AABB b(Vec3(1, 1, 1), Vec3(2, 2, 2));
  const AABB g = b.Inflated(0.5f);
  EXPECT_EQ(g.min, Vec3(0.5f, 0.5f, 0.5f));
  EXPECT_EQ(g.max, Vec3(2.5f, 2.5f, 2.5f));
  const AABB t = b.Translated(Vec3(1, 0, -1));
  EXPECT_EQ(t.min, Vec3(2, 1, 0));
  EXPECT_EQ(t.max, Vec3(3, 2, 1));
}

TEST(SegmentDistanceTest, PointSegment) {
  const Vec3 a(0, 0, 0);
  const Vec3 b(10, 0, 0);
  EXPECT_FLOAT_EQ(SquaredDistancePointSegment(Vec3(5, 3, 0), a, b), 9.0f);
  EXPECT_FLOAT_EQ(SquaredDistancePointSegment(Vec3(-3, 4, 0), a, b), 25.0f);
  EXPECT_FLOAT_EQ(SquaredDistancePointSegment(Vec3(13, 4, 0), a, b), 25.0f);
  // Degenerate segment.
  EXPECT_FLOAT_EQ(SquaredDistancePointSegment(Vec3(1, 0, 0), a, a), 1.0f);
}

TEST(SegmentDistanceTest, SegmentSegment) {
  // Perpendicular skew segments, closest at midpoints, distance 2.
  EXPECT_NEAR(SquaredDistanceSegmentSegment(Vec3(-1, 0, 0), Vec3(1, 0, 0),
                                            Vec3(0, -1, 2), Vec3(0, 1, 2)),
              4.0f, 1e-5f);
  // Intersecting segments.
  EXPECT_NEAR(SquaredDistanceSegmentSegment(Vec3(-1, 0, 0), Vec3(1, 0, 0),
                                            Vec3(0, -1, 0), Vec3(0, 1, 0)),
              0.0f, 1e-6f);
  // Parallel segments offset by 3.
  EXPECT_NEAR(SquaredDistanceSegmentSegment(Vec3(0, 0, 0), Vec3(5, 0, 0),
                                            Vec3(0, 3, 0), Vec3(5, 3, 0)),
              9.0f, 1e-5f);
  // Endpoint-to-endpoint case.
  EXPECT_NEAR(SquaredDistanceSegmentSegment(Vec3(0, 0, 0), Vec3(1, 0, 0),
                                            Vec3(3, 0, 0), Vec3(5, 0, 0)),
              4.0f, 1e-5f);
  // Both degenerate.
  EXPECT_FLOAT_EQ(SquaredDistanceSegmentSegment(Vec3(0, 0, 0), Vec3(0, 0, 0),
                                                Vec3(0, 0, 7), Vec3(0, 0, 7)),
                  49.0f);
}

TEST(CapsuleTest, BoundsContainDistance) {
  const Capsule c(Vec3(0, 0, 0), Vec3(10, 0, 0), 1.0f);
  const AABB b = c.Bounds();
  EXPECT_EQ(b.min, Vec3(-1, -1, -1));
  EXPECT_EQ(b.max, Vec3(11, 1, 1));
  EXPECT_TRUE(CapsuleContains(c, Vec3(5, 0.9f, 0)));
  EXPECT_FALSE(CapsuleContains(c, Vec3(5, 1.1f, 0)));
  EXPECT_TRUE(CapsuleContains(c, Vec3(-0.7f, 0, 0)));  // Cap region.
}

TEST(CapsuleTest, WithinDistancePredicate) {
  const Capsule a(Vec3(0, 0, 0), Vec3(10, 0, 0), 0.5f);
  const Capsule b(Vec3(0, 2, 0), Vec3(10, 2, 0), 0.5f);
  // Gap between surfaces = 2 - 0.5 - 0.5 = 1.
  EXPECT_FALSE(CapsulesWithinDistance(a, b, 0.9f));
  EXPECT_TRUE(CapsulesWithinDistance(a, b, 1.1f));
  EXPECT_TRUE(CapsulesWithinDistance(a, b, 1.0f));
}

TEST(SegmentBoxDistanceTest, KnownConfigurations) {
  const AABB box(Vec3(0, 0, 0), Vec3(2, 2, 2));
  // Segment passing through the box.
  EXPECT_NEAR(SquaredDistanceSegmentAABB(Vec3(-1, 1, 1), Vec3(3, 1, 1), box),
              0.0f, 1e-5f);
  // Segment parallel to a face at distance 3.
  EXPECT_NEAR(SquaredDistanceSegmentAABB(Vec3(0, 5, 1), Vec3(2, 5, 1), box),
              9.0f, 1e-3f);
  // Closest point in the segment interior, diagonal approach to an edge.
  EXPECT_NEAR(
      SquaredDistanceSegmentAABB(Vec3(3, 3, -2), Vec3(3, 3, 4), box),
      2.0f, 1e-3f);
  // Degenerate segment = point.
  EXPECT_NEAR(SquaredDistanceSegmentAABB(Vec3(4, 1, 1), Vec3(4, 1, 1), box),
              4.0f, 1e-4f);
}

TEST(SegmentBoxDistanceTest, MatchesSampledMinimum) {
  // Property: the ternary-search distance matches a dense parameter sweep.
  Rng rng(123);
  const AABB box(Vec3(0, 0, 0), Vec3(1, 2, 3));
  const AABB region(Vec3(-3, -3, -3), Vec3(4, 5, 6));
  for (int iter = 0; iter < 200; ++iter) {
    const Vec3 a = rng.PointIn(region);
    const Vec3 b = rng.PointIn(region);
    const float got = SquaredDistanceSegmentAABB(a, b, box);
    float want = std::numeric_limits<float>::max();
    for (int i = 0; i <= 200; ++i) {
      const float t = i / 200.0f;
      want = std::min(want, box.SquaredDistanceTo(a + (b - a) * t));
    }
    EXPECT_NEAR(got, want, std::max(1e-4f, want * 0.02f)) << "iter " << iter;
  }
}

TEST(CapsuleBoxTest, IntersectionCases) {
  const AABB box(Vec3(0, 0, 0), Vec3(4, 4, 4));
  // Fully inside.
  EXPECT_TRUE(CapsuleIntersectsAABB(
      Capsule(Vec3(1, 1, 1), Vec3(3, 3, 3), 0.2f), box));
  // Crossing through.
  EXPECT_TRUE(CapsuleIntersectsAABB(
      Capsule(Vec3(-2, 2, 2), Vec3(6, 2, 2), 0.1f), box));
  // Touching via radius only.
  EXPECT_TRUE(CapsuleIntersectsAABB(
      Capsule(Vec3(5, 2, 2), Vec3(7, 2, 2), 1.05f), box));
  // Near miss.
  EXPECT_FALSE(CapsuleIntersectsAABB(
      Capsule(Vec3(5.2f, 2, 2), Vec3(7, 2, 2), 1.0f), box));
  // Grazing an edge diagonally (interior closest point).
  EXPECT_TRUE(CapsuleIntersectsAABB(
      Capsule(Vec3(5, 5, -2), Vec3(5, 5, 6), 1.5f), box));
  EXPECT_FALSE(CapsuleIntersectsAABB(
      Capsule(Vec3(5, 5, -2), Vec3(5, 5, 6), 1.3f), box));
}

TEST(CapsuleBoxTest, ConsistentWithCapsuleBounds) {
  // If the capsule's AABB misses the box, the capsule must miss it too.
  Rng rng(321);
  const AABB box(Vec3(2, 2, 2), Vec3(5, 5, 5));
  const AABB region(Vec3(-2, -2, -2), Vec3(9, 9, 9));
  for (int iter = 0; iter < 300; ++iter) {
    const Capsule c(rng.PointIn(region), rng.PointIn(region),
                    rng.Uniform(0.05f, 0.8f));
    const bool exact = CapsuleIntersectsAABB(c, box);
    if (exact) {
      EXPECT_TRUE(c.Bounds().Intersects(box)) << "iter " << iter;
    }
  }
}

TEST(TetrahedronTest, VolumeAndContainment) {
  const Tetrahedron t{{Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0),
                       Vec3(0, 0, 1)}};
  EXPECT_NEAR(t.SignedVolume(), 1.0f / 6.0f, 1e-7f);
  EXPECT_TRUE(t.Contains(Vec3(0.1f, 0.1f, 0.1f)));
  EXPECT_TRUE(t.Contains(Vec3(0, 0, 0)));           // Vertex.
  EXPECT_TRUE(t.Contains(Vec3(0.25f, 0.25f, 0.25f)));
  EXPECT_FALSE(t.Contains(Vec3(0.5f, 0.5f, 0.5f)));  // Outside hypotenuse.
  EXPECT_FALSE(t.Contains(Vec3(-0.1f, 0.1f, 0.1f)));
}

TEST(TetrahedronTest, NegativeOrientationStillWorks) {
  const Tetrahedron t{{Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(1, 0, 0),
                       Vec3(0, 0, 1)}};
  EXPECT_LT(t.SignedVolume(), 0.0f);
  EXPECT_TRUE(t.Contains(Vec3(0.1f, 0.1f, 0.1f)));
  EXPECT_FALSE(t.Contains(Vec3(1, 1, 1)));
}

TEST(TriangleBoxTest, BasicCases) {
  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  // Triangle fully inside.
  EXPECT_TRUE(TriangleIntersectsAABB(Vec3(0.2f, 0.2f, 0.2f),
                                     Vec3(0.8f, 0.2f, 0.2f),
                                     Vec3(0.2f, 0.8f, 0.2f), box));
  // Triangle fully outside (beyond +x).
  EXPECT_FALSE(TriangleIntersectsAABB(Vec3(2, 0, 0), Vec3(3, 0, 0),
                                      Vec3(2, 1, 0), box));
  // Large triangle slicing through the box without any vertex inside.
  EXPECT_TRUE(TriangleIntersectsAABB(Vec3(-5, 0.5f, -5), Vec3(5, 0.5f, -5),
                                     Vec3(0, 0.5f, 10), box));
  // Plane passes near but the triangle misses the corner (SAT axis case).
  EXPECT_FALSE(TriangleIntersectsAABB(Vec3(2, 2, 0), Vec3(3, 1, 0),
                                      Vec3(2.5f, 2.5f, 1), box));
}

TEST(TriangleBoxTest, MatchesSamplingOnRandomTriangles) {
  // Property test: SAT result must agree with a dense point-sample check
  // whenever the sampling finds a hit (sampling can miss, SAT cannot).
  Rng rng(99);
  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const AABB region(Vec3(-2, -2, -2), Vec3(3, 3, 3));
  for (int iter = 0; iter < 300; ++iter) {
    const Vec3 a = rng.PointIn(region);
    const Vec3 b = rng.PointIn(region);
    const Vec3 c = rng.PointIn(region);
    const bool sat = TriangleIntersectsAABB(a, b, c, box);
    bool sampled = false;
    for (int i = 0; i <= 20 && !sampled; ++i) {
      for (int j = 0; i + j <= 20 && !sampled; ++j) {
        const float u = i / 20.0f;
        const float v = j / 20.0f;
        const Vec3 p = a * (1 - u - v) + b * u + c * v;
        sampled = box.Contains(p);
      }
    }
    if (sampled) EXPECT_TRUE(sat) << "iter " << iter;
  }
}

TEST(CellCodecTest, IntegerCodecsAreInjectiveOnTheLattice) {
  // The MemGrid cell layout relies on distinct cells getting distinct
  // curve keys; sweep a full 8^3 block plus the axis extremes.
  std::vector<std::uint64_t> morton, hilbert;
  for (std::uint32_t x = 0; x < 8; ++x) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      for (std::uint32_t z = 0; z < 8; ++z) {
        morton.push_back(MortonEncodeCell(x, y, z));
        hilbert.push_back(HilbertEncodeCell(x, y, z));
      }
    }
  }
  std::sort(morton.begin(), morton.end());
  std::sort(hilbert.begin(), hilbert.end());
  EXPECT_EQ(std::unique(morton.begin(), morton.end()) - morton.begin(), 512);
  EXPECT_EQ(std::unique(hilbert.begin(), hilbert.end()) - hilbert.begin(),
            512);
  // Morton of a lattice point is the classic bit interleave: x in the
  // least-significant slot.
  EXPECT_EQ(MortonEncodeCell(1, 0, 0), 1u);
  EXPECT_EQ(MortonEncodeCell(0, 1, 0), 2u);
  EXPECT_EQ(MortonEncodeCell(0, 0, 1), 4u);
  EXPECT_EQ(MortonEncodeCell(0, 0, 0), 0u);
  EXPECT_EQ(HilbertEncodeCell(0, 0, 0), 0u);
}

TEST(CellCodecTest, PositionCodecsQuantizeToCellCodecs) {
  // The Vec3 overloads must be the integer codecs applied to the 21-bit
  // quantised lattice — the property that lets MemGrid mix both.
  const AABB u(Vec3(0, 0, 0), Vec3(100, 100, 100));
  constexpr float kScale = 2097151.0f;  // 2^21 - 1, as in Quantize21.
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const Vec3 p = rng.PointIn(u);
    const auto q = [&](float v) {
      return static_cast<std::uint32_t>(v / 100.0f * kScale);
    };
    EXPECT_EQ(MortonEncode(p, u), MortonEncodeCell(q(p.x), q(p.y), q(p.z)));
    EXPECT_EQ(HilbertEncode(p, u),
              HilbertEncodeCell(q(p.x), q(p.y), q(p.z)));
  }
}

TEST(CellCodecTest, SizedHilbertIsABijectionOntoTheCube) {
  // With `bits` sized to the lattice, the codec is a bijection onto
  // [0, 2^(3*bits)) — what lets MemGrid pack (key << 32 | cell) and radix
  // sort by the key bytes.
  std::vector<std::uint64_t> keys;
  for (std::uint32_t x = 0; x < 8; ++x) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      for (std::uint32_t z = 0; z < 8; ++z) {
        const std::uint64_t k = HilbertEncodeCell(x, y, z, /*bits=*/3);
        EXPECT_LT(k, 512u);
        keys.push_back(k);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(keys[i], i) << "keys must cover 0..511 exactly once";
  }
}

TEST(CellCodecTest, HilbertConsecutiveKeysAreLatticeNeighbours) {
  // Defining property of the Hilbert curve (and what makes it the
  // tightest MemGrid layout): sort a full power-of-two block by key and
  // every consecutive pair differs by exactly one unit step on one axis.
  struct Cell {
    std::uint64_t key;
    std::uint32_t x, y, z;
  };
  std::vector<Cell> cells;
  for (std::uint32_t x = 0; x < 8; ++x) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      for (std::uint32_t z = 0; z < 8; ++z) {
        cells.push_back({HilbertEncodeCell(x, y, z), x, y, z});
      }
    }
  }
  std::sort(cells.begin(), cells.end(),
            [](const Cell& a, const Cell& b) { return a.key < b.key; });
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const int manhattan =
        std::abs(static_cast<int>(cells[i].x) -
                 static_cast<int>(cells[i - 1].x)) +
        std::abs(static_cast<int>(cells[i].y) -
                 static_cast<int>(cells[i - 1].y)) +
        std::abs(static_cast<int>(cells[i].z) -
                 static_cast<int>(cells[i - 1].z));
    EXPECT_EQ(manhattan, 1) << "hop " << i;
  }
}

TEST(MortonTest, OrderRespectsLocality) {
  const AABB u(Vec3(0, 0, 0), Vec3(100, 100, 100));
  const auto a = MortonEncode(Vec3(1, 1, 1), u);
  const auto b = MortonEncode(Vec3(1.5f, 1, 1), u);
  const auto far = MortonEncode(Vec3(99, 99, 99), u);
  EXPECT_LT(a, far);
  EXPECT_LT(b, far);
  // Origin maps to 0; the far corner maps to the max 63-bit pattern.
  EXPECT_EQ(MortonEncode(Vec3(0, 0, 0), u), 0u);
  EXPECT_EQ(MortonEncode(Vec3(100, 100, 100), u), 0x7fffffffffffffffULL);
}

TEST(MortonTest, DegenerateUniverse) {
  const AABB flat(Vec3(0, 0, 0), Vec3(0, 0, 0));
  EXPECT_EQ(MortonEncode(Vec3(0, 0, 0), flat), 0u);
}

TEST(HilbertTest, KeysAreDistinctAndDeterministic) {
  const AABB u(Vec3(0, 0, 0), Vec3(100, 100, 100));
  Rng rng(4);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    const Vec3 p = rng.PointIn(u);
    const auto k = HilbertEncode(p, u);
    EXPECT_EQ(k, HilbertEncode(p, u));
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()) - keys.begin(), 500);
}

TEST(HilbertTest, CurveHasBetterLocalityThanRandomOrder) {
  // Consecutive keys along the Hilbert order must correspond to nearby
  // points: mean hop distance along the sorted order should be a small
  // fraction of the mean distance between randomly ordered points.
  const AABB u(Vec3(0, 0, 0), Vec3(100, 100, 100));
  Rng rng(5);
  std::vector<Vec3> pts;
  for (int i = 0; i < 4000; ++i) pts.push_back(rng.PointIn(u));

  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    order.emplace_back(HilbertEncode(pts[i], u), i);
  }
  std::sort(order.begin(), order.end());
  double hilbert_hop = 0;
  double random_hop = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    hilbert_hop += Distance(pts[order[i - 1].second], pts[order[i].second]);
    random_hop += Distance(pts[i - 1], pts[i]);
  }
  EXPECT_LT(hilbert_hop, random_hop * 0.2);
}

TEST(HilbertTest, ExtremesMapToCurveEnds) {
  const AABB u(Vec3(0, 0, 0), Vec3(1, 1, 1));
  // The curve starts at the origin corner.
  EXPECT_EQ(HilbertEncode(Vec3(0, 0, 0), u), 0u);
  // All keys fit in 63 bits.
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(HilbertEncode(rng.PointIn(u), u), 1ULL << 63);
  }
}

// --- Batched AABB kernel -----------------------------------------------------

// A pool of NaN-free boxes stressing every comparison edge the kernel
// evaluates: ordinary overlapping/disjoint volumes, zero-extent boxes
// (min == max on one or all axes), inverted boxes (min > max — the empty
// convention and the serving layer's tombstones), the default empty
// sentinel, and huge-magnitude but finite coordinates.
std::vector<AABB> BatchKernelBoxPool() {
  std::vector<AABB> pool;
  Rng rng(77);
  const AABB u(Vec3(-50, -50, -50), Vec3(50, 50, 50));
  for (int i = 0; i < 200; ++i) {
    const Vec3 c = rng.PointIn(u);
    pool.push_back(AABB::FromCenterHalfExtents(
        c, Vec3(rng.Uniform(0.0f, 8.0f), rng.Uniform(0.0f, 8.0f),
                rng.Uniform(0.0f, 8.0f))));
  }
  for (int i = 0; i < 50; ++i) {
    pool.push_back(AABB::FromPoint(rng.PointIn(u)));  // Zero extent.
  }
  for (int i = 0; i < 50; ++i) {  // Inverted on one or more axes.
    AABB b = pool[rng.NextBelow(pool.size())];
    const int axis = static_cast<int>(rng.NextBelow(3));
    std::swap(b.min[axis], b.max[axis]);
    b.min[axis] += 1.0f;  // Force min > max even for zero-extent sources.
    pool.push_back(b);
  }
  pool.push_back(AABB());  // Default empty sentinel (the padding lane).
  pool.push_back(AABB(Vec3(-3e37f, -3e37f, -3e37f), Vec3(3e37f, 3e37f, 3e37f)));
  return pool;
}

TEST(BoxBatchTest, IntersectAndContainsMatchScalarBitForBit) {
  const std::vector<AABB> pool = BatchKernelBoxPool();
  Rng rng(78);
  for (int trial = 0; trial < 500; ++trial) {
    BoxBatch batch;
    for (std::uint32_t lane = 0; lane < kBoxBatchWidth; ++lane) {
      batch.SetLane(lane, pool[rng.NextBelow(pool.size())]);
    }
    const AABB query = pool[rng.NextBelow(pool.size())];
    EXPECT_EQ(BoxBatchIntersect(batch, query),
              BoxBatchIntersectScalar(batch, query))
        << "trial " << trial;
    EXPECT_EQ(BoxBatchContains(batch, query),
              BoxBatchContainsScalar(batch, query))
        << "trial " << trial;
  }
}

TEST(BoxBatchTest, LoadPadsTailLanesWithTheEmptyBox) {
  const AABB everything(Vec3(-1e30f, -1e30f, -1e30f),
                        Vec3(1e30f, 1e30f, 1e30f));
  const AABB boxes[3] = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)),
                         AABB::FromPoint(Vec3(2, 2, 2)),
                         AABB(Vec3(-4, -4, -4), Vec3(-3, -3, -3))};
  BoxBatch batch;
  BoxBatchLoad(boxes, sizeof(AABB), 3, &batch);
  // Only the three loaded lanes can hit, even against an all-covering
  // query: padding lanes hold the empty box.
  EXPECT_EQ(BoxBatchIntersect(batch, everything), 0b111u);
  EXPECT_EQ(BoxBatchContains(batch, everything), 0b111u);
  for (std::uint32_t lane = 3; lane < kBoxBatchWidth; ++lane) {
    EXPECT_TRUE(batch.Lane(lane).IsEmpty());
  }
}

TEST(BoxBatchTest, StridedLoadReadsBoxesEmbeddedInRecords) {
  struct Record {
    AABB box;
    std::uint32_t id;
  };
  std::vector<Record> records;
  Rng rng(79);
  const AABB u(Vec3(0, 0, 0), Vec3(10, 10, 10));
  for (std::uint32_t i = 0; i < kBoxBatchWidth; ++i) {
    records.push_back(
        {AABB::FromCenterHalfExtent(rng.PointIn(u), rng.Uniform(0.1f, 2.0f)),
         i});
  }
  BoxBatch batch;
  BoxBatchLoad(&records[0].box, sizeof(Record), kBoxBatchWidth, &batch);
  const AABB query = AABB::FromCenterHalfExtent(rng.PointIn(u), 3.0f);
  std::uint32_t want = 0;
  for (std::uint32_t i = 0; i < kBoxBatchWidth; ++i) {
    EXPECT_EQ(batch.Lane(i), records[i].box);
    want |= static_cast<std::uint32_t>(records[i].box.Intersects(query)) << i;
  }
  EXPECT_EQ(BoxBatchIntersect(batch, query), want);
}

// --- Pair-run kernel ----------------------------------------------------------

// The batch pool plus the inputs on which the two argument orders of the
// distance predicate differ or the lane arithmetic could: NaN in one
// coordinate only (so one side of a distance term is NaN and the other is
// not), infinities, signed zeros, and boxes exactly eps apart.
std::vector<AABB> PairRunBoxPool() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<AABB> pool = BatchKernelBoxPool();
  const AABB unit(Vec3(0, 0, 0), Vec3(1, 1, 1));
  for (int axis = 0; axis < 3; ++axis) {
    AABB lo_nan = unit;
    lo_nan.min[axis] = nan;
    AABB hi_nan = unit;
    hi_nan.max[axis] = nan;
    AABB slab = unit;  // Infinite along one axis.
    slab.min[axis] = -inf;
    slab.max[axis] = inf;
    AABB near = unit;  // 0.5 from `unit`: on the eps = 0.5 boundary.
    near.min[axis] = 1.5f;
    near.max[axis] = 2.5f;
    pool.insert(pool.end(), {lo_nan, hi_nan, slab, near});
  }
  pool.push_back(AABB(Vec3(nan, 0.2f, 0.2f), Vec3(0.8f, 0.8f, 0.8f)));
  pool.push_back(AABB(Vec3(1.2f, 0, 0), Vec3(2, 1, 1)));  // Right of min.x NaN.
  pool.push_back(AABB(Vec3(-inf, -inf, -inf), Vec3(inf, inf, inf)));
  pool.push_back(AABB(Vec3(inf, inf, inf), Vec3(inf, inf, inf)));
  pool.push_back(AABB(Vec3(-inf, -inf, -inf), Vec3(-inf, -inf, -inf)));
  pool.push_back(AABB(Vec3(-0.0f, -0.0f, -0.0f), Vec3(0.0f, 0.0f, 0.0f)));
  pool.push_back(AABB(Vec3(0.0f, 0.0f, 0.0f), Vec3(-0.0f, -0.0f, -0.0f)));
  pool.push_back(AABB(Vec3(-1, -1, -1), Vec3(-0.0f, -0.0f, -0.0f)));
  pool.push_back(AABB(Vec3(nan, nan, nan), Vec3(nan, nan, nan)));
  // Boxes at squared distance ~eps^2 = 0.25 from [-1, 0]^3 whose three
  // terms round across 0.25 when summed in another order than the scalar
  // (dx * dx + dy * dy) + dz * dz.
  pool.push_back(AABB(Vec3(-1, -1, -1), Vec3(0, 0, 0)));
  Rng rng(82);
  int found = 0;
  for (int tries = 0; tries < 100000 && found < 4; ++tries) {
    const float dx = rng.Uniform(0.1f, 0.35f);
    const float dy = rng.Uniform(0.1f, 0.35f);
    float dz = std::sqrt(std::max(0.25f - dx * dx - dy * dy, 0.0f));
    dz = std::nextafter(dz, rng.NextBelow(2) == 0 ? 0.0f : 1.0f);
    if ((dx * dx + dy * dy) + dz * dz <= 0.25f ||
        dx * dx + (dy * dy + dz * dz) > 0.25f) {
      continue;
    }
    pool.push_back(AABB(Vec3(dx, dy, dz), Vec3(dx + 1, dy + 1, dz + 1)));
    ++found;
  }
  return pool;
}

// SoA columns of `boxes`, whose last kBoxRunWidth - 1 boxes are the
// kernel's documented read margin: a run may end at boxes.size() - margin,
// and an ASan build catches any load beyond the columns. The kernel must
// not report margin boxes.
struct PoolColumns {
  std::vector<AABB> boxes;
  std::vector<float> col[6];

  explicit PoolColumns(std::vector<AABB> b) : boxes(std::move(b)) {
    for (const AABB& x : boxes) {
      const float v[6] = {x.min.x, x.min.y, x.min.z, x.max.x, x.max.y, x.max.z};
      for (int c = 0; c < 6; ++c) col[c].push_back(v[c]);
    }
  }
  BoxColumns Columns() const {
    return BoxColumns{col[0].data(), col[1].data(), col[2].data(),
                      col[3].data(), col[4].data(), col[5].data()};
  }
};

// Columns of `size` random pool boxes plus the margin.
PoolColumns RandomColumns(const std::vector<AABB>& pool, Rng* rng,
                          std::size_t size) {
  std::vector<AABB> boxes;
  for (std::size_t j = 0; j < size + kBoxRunWidth - 1; ++j) {
    boxes.push_back(pool[rng->NextBelow(pool.size())]);
  }
  return PoolColumns(std::move(boxes));
}

using IndexPairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

// BoxRunMatch over outer boxes [o0, o1) and run [r0, r1) against
// PairMatches, in both argument orders, pairs in emission order.
void ExpectRunMatchesPairMatches(const PoolColumns& outer, std::uint32_t o0,
                                 std::uint32_t o1, const PoolColumns& run,
                                 std::uint32_t r0, std::uint32_t r1,
                                 float eps) {
  IndexPairs want_box_first;
  IndexPairs want_lane_first;
  for (std::uint32_t i = o0; i < o1; ++i) {
    for (std::uint32_t j = r0; j < r1; ++j) {
      const AABB& a = outer.boxes[i];
      const AABB& b = run.boxes[j];
      if (join::PairMatches(a, b, eps)) want_box_first.emplace_back(i, j);
      if (join::PairMatches(b, a, eps)) want_lane_first.emplace_back(i, j);
    }
  }
  IndexPairs got_box_first;
  IndexPairs got_lane_first;
  BoxRunMatch<false>(outer.Columns(), o0, o1, run.Columns(), r0, r1, eps,
                     [&](std::uint32_t i, std::uint32_t j) {
                       got_box_first.emplace_back(i, j);
                     });
  BoxRunMatch<true>(outer.Columns(), o0, o1, run.Columns(), r0, r1, eps,
                    [&](std::uint32_t i, std::uint32_t j) {
                      got_lane_first.emplace_back(i, j);
                    });
  const auto at = [&] {
    return "outer [" + std::to_string(o0) + ", " + std::to_string(o1) +
           ") run [" + std::to_string(r0) + ", " + std::to_string(r1) +
           ") eps " + std::to_string(eps);
  };
  EXPECT_EQ(got_box_first, want_box_first) << at();
  EXPECT_EQ(got_lane_first, want_lane_first) << at();
}

// BoxRunSelfMatch over [r0, r1): pairs i < j, box i first.
void ExpectSelfRunMatchesPairMatches(const std::vector<AABB>& pool, Rng* rng,
                                     std::uint32_t r0, std::uint32_t r1,
                                     float eps) {
  const PoolColumns c = RandomColumns(pool, rng, r1);
  IndexPairs want;
  for (std::uint32_t i = r0; i < r1; ++i) {
    for (std::uint32_t j = i + 1; j < r1; ++j) {
      if (join::PairMatches(c.boxes[i], c.boxes[j], eps)) {
        want.emplace_back(i, j);
      }
    }
  }
  IndexPairs got;
  BoxRunSelfMatch(c.Columns(), r0, r1, eps,
                  [&](std::uint32_t i, std::uint32_t j) {
                    got.emplace_back(i, j);
                  });
  EXPECT_EQ(got, want) << "run [" << r0 << ", " << r1 << ") eps " << eps;
}

TEST(BoxRunTest, MatchesPairMatchesBitForBitInBothArgumentOrders) {
  const std::vector<AABB> pool = PairRunBoxPool();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(80);
  for (const float eps : {0.0f, 0.5f, -1.0f, nan}) {
    for (int trial = 0; trial < 400; ++trial) {
      const auto o0 = static_cast<std::uint32_t>(rng.NextBelow(3));
      const auto o1 = o0 + static_cast<std::uint32_t>(rng.NextBelow(6));
      const auto r0 = static_cast<std::uint32_t>(rng.NextBelow(5));
      // Every tail length 0..kBoxRunWidth, then runs of several groups.
      const auto len = static_cast<std::uint32_t>(
          trial < 100 ? trial % (kBoxRunWidth + 1) : rng.NextBelow(23));
      const PoolColumns outer = RandomColumns(pool, &rng, o1);
      const PoolColumns run = RandomColumns(pool, &rng, r0 + len);
      ExpectRunMatchesPairMatches(outer, o0, o1, run, r0, r0 + len, eps);
      ExpectSelfRunMatchesPairMatches(pool, &rng, r0, r0 + len, eps);
    }
  }
}

// Each pool box meets the whole pool. The pool holds pairs whose two
// argument orders disagree and pairs whose squared distance depends on the
// summation order, so a kernel that changed either fails here.
TEST(BoxRunTest, ArgumentOrderMattersOnOneSidedNaN) {
  const std::vector<AABB> pool = PairRunBoxPool();
  std::size_t asymmetric = 0;
  for (const AABB& a : pool) {
    for (const AABB& b : pool) {
      asymmetric += join::PairMatches(a, b, 0.5f) !=
                    join::PairMatches(b, a, 0.5f);
    }
  }
  EXPECT_GT(asymmetric, 0u);
  std::vector<AABB> boxes = pool;
  boxes.insert(boxes.end(), pool.begin(), pool.begin() + kBoxRunWidth - 1);
  const PoolColumns all(std::move(boxes));
  const auto n = static_cast<std::uint32_t>(pool.size());
  for (const float eps : {0.0f, 0.5f}) {
    ExpectRunMatchesPairMatches(all, 0, n, all, 0, n, eps);
  }
}

}  // namespace
}  // namespace simspatial
