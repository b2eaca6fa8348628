// Registry-wide edge-case battery: every index must survive and stay exact
// on degenerate inputs — empty datasets, one element, all-identical boxes,
// zero-extent (point) elements, elements on universe walls, and queries
// that are points or cover everything.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/bruteforce.h"
#include "common/rng.h"
#include "core/memgrid.h"
#include "core/spatial_index.h"
#include "join/spatial_join.h"

namespace simspatial::core {
namespace {

const AABB kUniverse(Vec3(0, 0, 0), Vec3(10, 10, 10));

std::vector<ElementId> Sorted(std::vector<ElementId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void ExpectRangeMatches(SpatialIndex* index,
                        const std::vector<Element>& elems, const AABB& q,
                        const char* what) {
  if (!index->SupportsRangeQueries()) return;
  std::vector<ElementId> got;
  index->RangeQuery(q, &got);
  EXPECT_EQ(Sorted(got), Sorted(ScanRange(elems, q)))
      << index->name() << ": " << what;
}

class EdgeCaseTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EdgeCaseTest, EmptyDataset) {
  auto index = MakeIndex(GetParam());
  index->Build({}, kUniverse);
  EXPECT_EQ(index->size(), 0u);
  std::vector<ElementId> out;
  if (index->SupportsRangeQueries()) {
    index->RangeQuery(kUniverse, &out);
    EXPECT_TRUE(out.empty()) << index->name();
  }
  index->KnnQuery(Vec3(5, 5, 5), 3, &out);
  EXPECT_TRUE(out.empty()) << index->name();
}

TEST_P(EdgeCaseTest, SingleElement) {
  auto index = MakeIndex(GetParam());
  const std::vector<Element> elems{
      Element(7, AABB(Vec3(3, 3, 3), Vec3(4, 4, 4)))};
  index->Build(elems, kUniverse);
  ExpectRangeMatches(index.get(), elems, kUniverse, "whole universe");
  ExpectRangeMatches(index.get(), elems, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)),
                     "miss");
  std::vector<ElementId> out;
  index->KnnQuery(Vec3(0, 0, 0), 1, &out);
  if (index->KnnIsExact()) {
    ASSERT_EQ(out.size(), 1u) << index->name();
    EXPECT_EQ(out[0], 7u);
  }
}

TEST_P(EdgeCaseTest, AllIdenticalBoxes) {
  auto index = MakeIndex(GetParam());
  std::vector<Element> elems;
  for (ElementId i = 0; i < 500; ++i) {
    elems.emplace_back(i, AABB(Vec3(4, 4, 4), Vec3(5, 5, 5)));
  }
  index->Build(elems, kUniverse);
  ExpectRangeMatches(index.get(), elems,
                     AABB(Vec3(4.5f, 4.5f, 4.5f), Vec3(6, 6, 6)), "overlap");
  ExpectRangeMatches(index.get(), elems, AABB(Vec3(6, 6, 6), Vec3(7, 7, 7)),
                     "miss");
}

TEST_P(EdgeCaseTest, ZeroExtentPointElements) {
  auto index = MakeIndex(GetParam());
  Rng rng(7);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 800; ++i) {
    elems.emplace_back(i, AABB::FromPoint(rng.PointIn(kUniverse)));
  }
  index->Build(elems, kUniverse);
  Rng qrng(8);
  for (int q = 0; q < 10; ++q) {
    ExpectRangeMatches(
        index.get(), elems,
        AABB::FromCenterHalfExtent(qrng.PointIn(kUniverse), 2.0f), "points");
  }
  if (index->KnnIsExact()) {
    std::vector<ElementId> got;
    const Vec3 p = qrng.PointIn(kUniverse);
    index->KnnQuery(p, 5, &got);
    EXPECT_EQ(got, ScanKnn(elems, p, 5)) << index->name();
  }
}

TEST_P(EdgeCaseTest, ElementsOnUniverseWalls) {
  auto index = MakeIndex(GetParam());
  std::vector<Element> elems;
  ElementId id = 0;
  // Corners, edges, faces — including boxes protruding past the walls.
  for (const float x : {0.0f, 10.0f}) {
    for (const float y : {0.0f, 10.0f}) {
      for (const float z : {0.0f, 10.0f}) {
        elems.emplace_back(
            id++, AABB::FromCenterHalfExtent(Vec3(x, y, z), 0.5f));
      }
    }
  }
  index->Build(elems, kUniverse);
  ExpectRangeMatches(index.get(), elems, kUniverse.Inflated(1.0f), "all");
  ExpectRangeMatches(index.get(), elems,
                     AABB(Vec3(-0.6f, -0.6f, -0.6f), Vec3(0.4f, 0.4f, 0.4f)),
                     "low corner");
  ExpectRangeMatches(index.get(), elems,
                     AABB(Vec3(9.6f, 9.6f, 9.6f),
                          Vec3(10.6f, 10.6f, 10.6f)),
                     "high corner");
}

TEST_P(EdgeCaseTest, PointQuery) {
  auto index = MakeIndex(GetParam());
  std::vector<Element> elems{
      Element(0, AABB(Vec3(2, 2, 2), Vec3(4, 4, 4))),
      Element(1, AABB(Vec3(3, 3, 3), Vec3(5, 5, 5))),
      Element(2, AABB(Vec3(8, 8, 8), Vec3(9, 9, 9)))};
  index->Build(elems, kUniverse);
  // A zero-volume query at a point covered by two boxes.
  ExpectRangeMatches(index.get(), elems,
                     AABB::FromPoint(Vec3(3.5f, 3.5f, 3.5f)), "point query");
  // On a shared boundary (closed-box semantics).
  ExpectRangeMatches(index.get(), elems, AABB::FromPoint(Vec3(4, 4, 4)),
                     "boundary point");
}

// Degenerate query boxes: zero-volume boxes (lo == hi on one or more axes)
// are legitimate plane/line/point probes under the library's closed-box
// semantics — elements touching the plane must be reported. Inverted boxes
// (min > max on some axis) usually intersect nothing — but the pairwise
// closed-box Intersects can still accept an element that SPANS the whole
// inversion gap (e.min <= q.max && q.min <= e.max holds per axis), so
// "inverted" does not simply mean "empty result" (second test below).
// The brute-force ScanRange IS the normative behaviour throughout; every
// profile must agree with it (no crash, no clamped re-interpretation),
// and RangeQueryCount must agree with RangeQuery.
TEST_P(EdgeCaseTest, ZeroVolumeAndInvertedQueryBoxes) {
  auto index = MakeIndex(GetParam());
  Rng rng(57);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 200; ++i) {
    // Half the elements sit exactly ON the z=5 / x=5 planes the probes use.
    Vec3 c = rng.PointIn(kUniverse);
    if (i % 4 == 0) c.z = 5.0f;
    if (i % 4 == 1) c.x = 5.0f;
    elems.emplace_back(i, AABB::FromCenterHalfExtent(c, i % 2 == 0 ? 0.0f
                                                                   : 0.4f));
  }
  index->Build(elems, kUniverse);

  const AABB degenerate[] = {
      AABB(Vec3(0, 0, 5), Vec3(10, 10, 5)),    // z plane (zero volume).
      AABB(Vec3(5, 0, 0), Vec3(5, 10, 10)),    // x plane.
      AABB(Vec3(5, 5, 0), Vec3(5, 5, 10)),     // Line.
      AABB(Vec3(5, 5, 5), Vec3(5, 5, 5)),      // Point.
      AABB(Vec3(0, 0, -3), Vec3(10, 10, -3)),  // Plane outside the universe.
      AABB(Vec3(7, 1, 1), Vec3(3, 9, 9)),      // Inverted on x.
      AABB(Vec3(1, 1, 9), Vec3(9, 9, 1)),      // Inverted on z.
      AABB(Vec3(8, 8, 8), Vec3(2, 2, 2)),      // Inverted on all axes.
      AABB(),                                  // Default-constructed empty.
  };
  const char* const what[] = {"z plane", "x plane",    "line",
                              "point",   "outside",    "inverted x",
                              "inverted z", "inverted all", "empty"};
  for (std::size_t i = 0; i < std::size(degenerate); ++i) {
    ExpectRangeMatches(index.get(), elems, degenerate[i], what[i]);
    if (index->SupportsRangeQueries()) {
      std::vector<ElementId> got;
      index->RangeQuery(degenerate[i], &got);
      EXPECT_EQ(index->RangeQueryCount(degenerate[i]), got.size())
          << index->name() << ": " << what[i];
    }
  }
}

// The inverted-box subtlety above, pinned: an element spanning the
// inversion gap DOES intersect an inverted box under the closed-box
// pairwise semantics, and every profile must report it exactly like the
// brute-force oracle (a regression here once hid behind small test
// elements — the early-out that proves emptiness must come from the gap
// exceeding twice the largest half-extent, not from the inversion alone).
TEST_P(EdgeCaseTest, InvertedBoxStillMatchesGapSpanningElements) {
  auto index = MakeIndex(GetParam());
  std::vector<Element> elems;
  // One element covering the whole universe (spans any inversion gap
  // inside it), plus small ones that must never match inverted probes.
  elems.emplace_back(0, AABB(Vec3(0, 0, 0), Vec3(10, 10, 10)));
  elems.emplace_back(1, AABB::FromCenterHalfExtent(Vec3(2, 2, 2), 0.3f));
  elems.emplace_back(2, AABB::FromCenterHalfExtent(Vec3(8, 5, 3), 0.3f));
  index->Build(elems, kUniverse);
  const AABB inverted[] = {
      AABB(Vec3(6, 1, 1), Vec3(4, 9, 9)),  // Inverted on x: gap spanned.
      AABB(Vec3(1, 1, 9), Vec3(9, 9, 1)),  // Inverted on z.
      AABB(Vec3(7, 7, 7), Vec3(3, 3, 3)),  // Inverted on all axes.
  };
  for (std::size_t i = 0; i < std::size(inverted); ++i) {
    // The oracle reports the spanning element (and only it).
    ASSERT_EQ(ScanRange(elems, inverted[i]),
              (std::vector<ElementId>{0}));
    ExpectRangeMatches(index.get(), elems, inverted[i], "gap-spanning");
    if (index->SupportsRangeQueries()) {
      EXPECT_EQ(index->RangeQueryCount(inverted[i]), 1u)
          << index->name() << ": probe " << i;
    }
  }
}

TEST_P(EdgeCaseTest, DuplicateHeavyKnn) {
  auto index = MakeIndex(GetParam());
  if (!index->KnnIsExact()) GTEST_SKIP();
  // Many elements at identical distance: tie-breaking must match the
  // reference exactly (by id).
  std::vector<Element> elems;
  for (ElementId i = 0; i < 100; ++i) {
    elems.emplace_back(i, AABB(Vec3(4, 4, 4), Vec3(5, 5, 5)));
  }
  index->Build(elems, kUniverse);
  std::vector<ElementId> got;
  index->KnnQuery(Vec3(0, 0, 0), 10, &got);
  EXPECT_EQ(got, ScanKnn(elems, Vec3(0, 0, 0), 10)) << index->name();
}

// Batch entry points under degenerate probes: every registry profile —
// native batch scheduler (memgrid family) or the default per-probe loop —
// must produce, for a batch mixing planes/lines/points, gap-spanning
// inverted boxes, out-of-universe probes and exact duplicates, slot-for-slot
// exactly what the single-probe calls produce (same ids, same order), with
// RangeQueryCount agreeing per probe. Approximate structures (LSH) are
// held to batch-vs-single consistency rather than oracle equality.
TEST_P(EdgeCaseTest, BatchedDegenerateProbesMatchSingleProbeCalls) {
  auto index = MakeIndex(GetParam());
  Rng rng(61);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 300; ++i) {
    Vec3 c = rng.PointIn(kUniverse);
    if (i % 4 == 0) c.z = 5.0f;  // Mass on the z=5 plane probe below.
    elems.emplace_back(i, AABB::FromCenterHalfExtent(c, i % 2 == 0 ? 0.0f
                                                                   : 0.4f));
  }
  index->Build(elems, kUniverse);

  std::vector<AABB> probes = {
      AABB(Vec3(0, 0, 5), Vec3(10, 10, 5)),    // z plane (zero volume).
      AABB(Vec3(5, 5, 0), Vec3(5, 5, 10)),     // Line.
      AABB(Vec3(5, 5, 5), Vec3(5, 5, 5)),      // Point.
      AABB(Vec3(0, 0, -3), Vec3(10, 10, -3)),  // Outside the universe.
      AABB(Vec3(7, 1, 1), Vec3(3, 9, 9)),      // Inverted on x.
      AABB(Vec3(8, 8, 8), Vec3(2, 2, 2)),      // Inverted on all axes.
      AABB(),                                  // Default-constructed empty.
  };
  for (int i = 0; i < 12; ++i) {
    probes.push_back(AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                rng.Uniform(0.2f, 4.0f)));
  }
  probes.push_back(probes[0]);  // Exact duplicates, scattered.
  probes.push_back(probes[9]);
  probes.push_back(probes[9]);

  std::vector<std::vector<ElementId>> slots;
  index->RangeQueryBatch(probes, &slots);
  ASSERT_EQ(slots.size(), probes.size()) << index->name();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    std::vector<ElementId> single;
    index->RangeQuery(probes[i], &single);
    ASSERT_EQ(slots[i], single) << index->name() << ": slot " << i;
    if (index->SupportsRangeQueries()) {
      EXPECT_EQ(index->RangeQueryCount(probes[i]), slots[i].size())
          << index->name() << ": slot " << i;
      EXPECT_EQ(Sorted(slots[i]), Sorted(ScanRange(elems, probes[i])))
          << index->name() << ": slot " << i;
    }
  }

  // Counting batch over the same degenerate probes: per-slot counts must
  // equal the materializing slots and the return value their sum.
  std::vector<std::size_t> counts;
  const std::size_t total = index->RangeQueryCountBatch(probes, &counts);
  ASSERT_EQ(counts.size(), probes.size()) << index->name();
  std::size_t want_total = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(counts[i], slots[i].size())
        << index->name() << ": count slot " << i;
    want_total += counts[i];
  }
  EXPECT_EQ(total, want_total) << index->name();

  // kNN batch with k >= n (every element is a neighbour), duplicates and
  // out-of-universe points included.
  std::vector<Vec3> points = {Vec3(5, 5, 5), Vec3(-4, 5, 20), Vec3(0, 0, 0)};
  points.push_back(points[0]);
  for (int i = 0; i < 6; ++i) points.push_back(rng.PointIn(kUniverse));
  for (const std::size_t k : {std::size_t{3}, elems.size() + 10}) {
    std::vector<std::vector<ElementId>> knn_slots;
    index->KnnQueryBatch(points, k, &knn_slots);
    ASSERT_EQ(knn_slots.size(), points.size()) << index->name();
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::vector<ElementId> single;
      index->KnnQuery(points[i], k, &single);
      ASSERT_EQ(knn_slots[i], single)
          << index->name() << ": k=" << k << " slot " << i;
      if (index->KnnIsExact()) {
        EXPECT_EQ(knn_slots[i], ScanKnn(elems, points[i], k))
            << index->name() << ": k=" << k << " slot " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, EdgeCaseTest,
                         ::testing::ValuesIn(AllIndexNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// kInvalidElement is the reserved "no element" id. MemGrid sizes its slot
// map by the largest id, so accepting it would ask for 2^32 slots; Build
// and Insert reject it with std::invalid_argument and change nothing.
TEST(MemGridEdgeCaseTest, ReservedIdIsRejectedWithoutMutation) {
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 1.0f});
  const std::vector<Element> elems{
      Element(1, AABB(Vec3(1, 1, 1), Vec3(2, 2, 2))),
      Element(4, AABB(Vec3(6, 6, 6), Vec3(7, 7, 7)))};
  g.Build(elems);
  const std::size_t bytes = g.Shape().bytes;
  const Element reserved(kInvalidElement, AABB(Vec3(3, 3, 3), Vec3(4, 4, 4)));

  std::vector<Element> with_reserved = elems;
  with_reserved.push_back(reserved);
  EXPECT_THROW(g.Build(with_reserved), std::invalid_argument);
  EXPECT_THROW(g.Insert(reserved), std::invalid_argument);

  const std::vector<Element> snap = g.SnapshotElements();
  ASSERT_EQ(snap.size(), elems.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].id, elems[i].id);
    EXPECT_TRUE(snap[i].box == elems[i].box);
  }
  std::string err;
  EXPECT_TRUE(g.CheckInvariants(&err)) << err;
  // No slot map for 2^32 ids appeared (a failed Build may only keep its
  // small destination storage as the next rebuild's spare).
  EXPECT_LT(g.Shape().bytes, bytes + (std::size_t{1} << 20));
  // The grid stays usable.
  g.Insert(Element(9, AABB(Vec3(5, 5, 5), Vec3(5.5f, 5.5f, 5.5f))));
  EXPECT_EQ(g.size(), 3u);
  EXPECT_TRUE(g.CheckInvariants(&err)) << err;
}

// Join edge cases (algorithms are free functions, not in the registry).
TEST(JoinEdgeCaseTest, IdenticalBoxesSelfJoin) {
  std::vector<Element> elems;
  for (ElementId i = 0; i < 40; ++i) {
    elems.emplace_back(i, AABB(Vec3(1, 1, 1), Vec3(2, 2, 2)));
  }
  const std::size_t expected = 40 * 39 / 2;
  auto check = [&](std::vector<join::JoinPair> pairs, const char* name) {
    SortPairs(&pairs);
    EXPECT_EQ(pairs.size(), expected) << name;
  };
  check(join::PlaneSweepSelfJoin(elems, 0.0f), "sweep");
  check(join::PbsmSelfJoin(elems, 0.0f), "pbsm");
  check(join::TouchSelfJoin(elems, 0.0f), "touch");
  check(join::GridSelfJoin(elems, 0.0f), "grid");
}

TEST(JoinEdgeCaseTest, ZeroExtentElementsWithEps) {
  Rng rng(9);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 300; ++i) {
    elems.emplace_back(i, AABB::FromPoint(rng.PointIn(kUniverse)));
  }
  auto want = NestedLoopSelfJoin(elems, 0.7f);
  SortPairs(&want);
  for (auto [name, pairs] :
       {std::pair{"sweep", join::PlaneSweepSelfJoin(elems, 0.7f)},
        std::pair{"pbsm", join::PbsmSelfJoin(elems, 0.7f)},
        std::pair{"touch", join::TouchSelfJoin(elems, 0.7f)},
        std::pair{"grid", join::GridSelfJoin(elems, 0.7f)}}) {
    SortPairs(&pairs);
    EXPECT_EQ(pairs, want) << name;
  }
}

// The grid join's centre-cell keys come from a float -> int32 cast. Huge
// finite coordinates clamp to the edge of the key range, where far-apart
// centres can share a cell; the join must stay exact there, and the
// small-cell shortcut (pairs emitted untested) must not engage. Fat boxes
// at +-3e9 on a 1.0 cell meet the shortcut's geometric precondition while
// every key is clamped.
TEST(JoinEdgeCaseTest, GridJoinHugeCoordinatesMatchNestedLoop) {
  const auto cube = [](float c, float half) {
    return AABB::FromCenterHalfExtent(Vec3(c, c, c), half);
  };
  std::vector<Element> huge;
  std::vector<Element> fat;
  ElementId id = 0;
  for (const float sign : {1.0f, -1.0f}) {
    for (int k = 0; k < 5; ++k) {
      const float spread = 1.0f + 0.01f * static_cast<float>(k);
      huge.emplace_back(id++, cube(sign * 1e30f * spread, 0.5f));
      huge.emplace_back(id++, cube(sign * 3e9f * spread, 0.5f));
      fat.emplace_back(id++, cube(sign * 3e9f * spread, 1000.0f));
    }
    huge.emplace_back(id++, cube(sign * 1e30f, 0.5f));  // Duplicates.
    fat.emplace_back(id++, cube(sign * 3e9f, 1000.0f));
  }
  for (int i = 0; i < 4; ++i) {
    const float c = 0.1f * static_cast<float>(i);
    huge.emplace_back(id++, cube(c, 0.5f));
    fat.emplace_back(id++, cube(c, 1000.0f));
  }
  for (const auto& [name, elems] : {std::pair{"huge", huge},
                                    std::pair{"fat", fat}}) {
    std::vector<Element> other;
    for (const Element& e : elems) other.emplace_back(e.id + 1000, e.box);
    for (const float eps : {0.0f, 0.5f}) {
      auto want = NestedLoopSelfJoin(elems, eps);
      SortPairs(&want);
      auto want_binary = NestedLoopJoin(elems, other, eps);
      SortPairs(&want_binary);
      for (const float cell : {0.0f, 1.0f}) {
        join::GridJoinOptions opts;
        opts.cell_size = cell;
        join::GridJoinStats stats;
        auto got = join::GridSelfJoin(elems, eps, opts, nullptr, &stats);
        SortPairs(&got);
        EXPECT_EQ(got, want) << name << " eps=" << eps << " cell=" << cell;
        EXPECT_EQ(stats.skipped_tests, 0u) << name << " cell=" << cell;
        auto binary = join::GridJoin(elems, other, eps, opts);
        SortPairs(&binary);
        EXPECT_EQ(binary, want_binary)
            << name << " eps=" << eps << " cell=" << cell;
      }
    }
  }
}

// A NaN centre goes to a fixed cell (here the one every other centre
// shares) and turns the shortcut off, so the NaN box is tested like any
// other and matches nothing. The strict UBSan build checks the casts.
TEST(JoinEdgeCaseTest, GridJoinNaNElementRunsClean) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<Element> elems;
  for (ElementId i = 0; i < 6; ++i) {
    const float c = 0.05f * static_cast<float>(i);
    elems.emplace_back(i, AABB::FromCenterHalfExtent(Vec3(c, c, c), 3.0f));
  }
  elems.emplace_back(6, AABB(Vec3(nan, -2.9f, -2.9f), Vec3(nan, 3.1f, 3.1f)));
  elems.emplace_back(7, AABB(Vec3(nan, nan, nan), Vec3(nan, nan, nan)));
  for (const float eps : {0.0f, 0.5f}) {
    auto want = NestedLoopSelfJoin(elems, eps);
    SortPairs(&want);
    for (const float cell : {0.0f, 0.5f}) {
      join::GridJoinOptions opts;
      opts.cell_size = cell;
      join::GridJoinStats stats;
      auto got = join::GridSelfJoin(elems, eps, opts, nullptr, &stats);
      SortPairs(&got);
      EXPECT_EQ(got, want) << "eps=" << eps << " cell=" << cell;
      EXPECT_EQ(stats.skipped_tests, 0u) << "eps=" << eps << " cell=" << cell;
      auto binary = join::GridJoin(elems, elems, eps, opts);
      auto want_binary = NestedLoopJoin(elems, elems, eps);
      SortPairs(&binary);
      SortPairs(&want_binary);
      EXPECT_EQ(binary, want_binary) << "eps=" << eps << " cell=" << cell;
    }
  }
}

// BatchScanRange places its query grid from float cell coordinates. Huge,
// infinite and NaN elements and probes must clamp to defined cells (the
// strict UBSan build checks the casts) and finish quickly: an element at
// +-1e30 or +-3e9, or a box spanning them, must not walk the cells between.
// The small probes at 0 and 3e9 put ~2^21 cells on each axis of the grid.
TEST(BatchScanEdgeCaseTest, HugeAndNaNInputsMatchPerQueryScan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto cube = [](float c, float half) {
    return AABB::FromCenterHalfExtent(Vec3(c, c, c), half);
  };
  Rng rng(95);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 200; ++i) {
    elems.emplace_back(i, AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                     rng.Uniform(0.1f, 1.0f)));
  }
  for (const float sign : {1.0f, -1.0f}) {
    for (const float at : {1e30f, 3e9f}) {
      elems.emplace_back(static_cast<ElementId>(elems.size()),
                         cube(sign * at, 0.5f));
      elems.emplace_back(static_cast<ElementId>(elems.size()),
                         cube(sign * at, 1000.0f));
    }
  }
  elems.emplace_back(static_cast<ElementId>(elems.size()),
                     AABB(Vec3(-1e30f, -1e30f, -1e30f),
                          Vec3(1e30f, 1e30f, 1e30f)));
  elems.emplace_back(static_cast<ElementId>(elems.size()),
                     AABB(Vec3(-3e9f, 2, 2), Vec3(3e9f, 3, 3)));
  elems.emplace_back(static_cast<ElementId>(elems.size()),
                     AABB(Vec3(-inf, -inf, -inf), Vec3(inf, inf, inf)));
  elems.emplace_back(static_cast<ElementId>(elems.size()),
                     AABB(Vec3(nan, 1, 1), Vec3(2, 2, 2)));
  elems.emplace_back(static_cast<ElementId>(elems.size()),
                     AABB(Vec3(nan, nan, nan), Vec3(nan, nan, nan)));

  std::vector<AABB> small;
  for (int q = 0; q < 40; ++q) {
    small.push_back(
        AABB::FromCenterHalfExtent(rng.PointIn(kUniverse), rng.Uniform(0.5f, 2.0f)));
  }
  small.push_back(cube(3e9f, 0.5f));
  small.push_back(cube(-3e9f, 0.5f));
  small.push_back(AABB(Vec3(nan, 0, 0), Vec3(5, 5, 5)));
  small.push_back(AABB(Vec3(nan, nan, nan), Vec3(nan, nan, nan)));
  std::vector<AABB> huge = small;
  huge.push_back(AABB(Vec3(-1e30f, -1e30f, -1e30f), Vec3(1e30f, 1e30f, 1e30f)));
  huge.push_back(cube(1e30f, 0.5f));
  std::vector<AABB> infinite = small;
  infinite.push_back(AABB(Vec3(-inf, -inf, -inf), Vec3(inf, inf, inf)));
  infinite.push_back(AABB(Vec3(-inf, 2, 2), Vec3(inf, 3, 3)));

  // Ordinary probes and elements beside a NaN and an infinite probe: the
  // two must not size or place the grid, which stays fine enough to beat
  // repeated scans by far. "hostile" runs the same probes over the hostile
  // elements, whose boxes share many cells with the NaN probe's.
  std::vector<Element> ordinary;
  for (ElementId i = 0; i < 400; ++i) {
    ordinary.emplace_back(i, AABB::FromCenterHalfExtent(
                                 rng.PointIn(kUniverse), rng.Uniform(0.05f, 0.2f)));
  }
  std::vector<AABB> mixed;
  for (int q = 0; q < 40; ++q) {
    mixed.push_back(
        AABB::FromCenterHalfExtent(rng.PointIn(kUniverse), rng.Uniform(0.2f, 0.5f)));
  }
  mixed.push_back(AABB(Vec3(nan, 0, 0), Vec3(5, 5, 5)));
  mixed.push_back(AABB(Vec3(-inf, -inf, -inf), Vec3(inf, inf, inf)));

  for (const auto& [name, data, probes] :
       {std::tuple{"small", elems, small}, std::tuple{"huge", elems, huge},
        std::tuple{"infinite", elems, infinite},
        std::tuple{"mixed", ordinary, mixed},
        std::tuple{"hostile", elems, mixed}}) {
    QueryCounters batched;
    const auto got = BatchScanRange(data, probes, &batched);
    ASSERT_EQ(got.size(), probes.size()) << name;
    QueryCounters repeated;
    for (std::size_t q = 0; q < probes.size(); ++q) {
      EXPECT_EQ(got[q], ScanRange(data, probes[q], &repeated))
          << name << " probe " << q << " " << probes[q];
    }
    // One test per (element, query) pair at most, however many cells the
    // two share.
    EXPECT_LE(batched.element_tests, repeated.element_tests) << name;
    if (std::string(name) == "mixed") {
      EXPECT_LT(batched.element_tests, repeated.element_tests / 4);
    }
  }
}

}  // namespace
}  // namespace simspatial::core
