// KD-Tree, Octree and Loose Octree tests.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bruteforce.h"
#include "common/rng.h"
#include "datagen/neuron.h"
#include "pam/kdtree.h"
#include "pam/loose_octree.h"
#include "pam/octree.h"

namespace simspatial::pam {
namespace {

using datagen::GenerateClusteredBoxes;
using datagen::GenerateUniformBoxes;

const AABB kUniverse(Vec3(0, 0, 0), Vec3(100, 100, 100));

std::vector<ElementId> Sorted(std::vector<ElementId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Shared differential battery over all three structures.
struct PamCase {
  const char* name;
  std::size_t n;
  int dataset;  // 0 uniform, 1 clustered, 2 neurons.
};

std::vector<Element> MakeDataset(const PamCase& c) {
  switch (c.dataset) {
    case 0:
      return GenerateUniformBoxes(c.n, kUniverse, 0.05f, 1.2f);
    case 1:
      return GenerateClusteredBoxes(c.n, kUniverse, 10, 5.0f, 0.05f, 0.8f);
    default:
      return datagen::GenerateNeuronsWithSize(c.n).elements;
  }
}

class PamDifferentialTest : public ::testing::TestWithParam<PamCase> {};

TEST_P(PamDifferentialTest, KdTreeRangeAndKnn) {
  const auto elems = MakeDataset(GetParam());
  const AABB bounds = BoundsOf(elems);
  KdTree t;
  t.Build(elems, kUniverse);
  Rng rng(21);
  for (int q = 0; q < 30; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(
        rng.PointIn(bounds), rng.Uniform(0.5f, 12.0f));
    std::vector<ElementId> got;
    t.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), ScanRange(elems, query)) << "q" << q;
  }
  for (int q = 0; q < 15; ++q) {
    const Vec3 p = rng.PointIn(bounds);
    std::vector<ElementId> got;
    t.KnnQuery(p, 9, &got);
    EXPECT_EQ(got, ScanKnn(elems, p, 9)) << "q" << q;
  }
}

TEST_P(PamDifferentialTest, OctreeRangeAndKnn) {
  const auto elems = MakeDataset(GetParam());
  const AABB bounds = BoundsOf(elems);
  Octree t;
  t.Build(elems, kUniverse);
  Rng rng(22);
  for (int q = 0; q < 30; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(
        rng.PointIn(bounds), rng.Uniform(0.5f, 12.0f));
    std::vector<ElementId> got;
    t.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), ScanRange(elems, query)) << "q" << q;
  }
  for (int q = 0; q < 15; ++q) {
    const Vec3 p = rng.PointIn(bounds);
    std::vector<ElementId> got;
    t.KnnQuery(p, 9, &got);
    EXPECT_EQ(got, ScanKnn(elems, p, 9)) << "q" << q;
  }
}

TEST_P(PamDifferentialTest, LooseOctreeRangeAndKnn) {
  const auto elems = MakeDataset(GetParam());
  const AABB bounds = BoundsOf(elems);
  LooseOctree t(kUniverse);
  t.Build(elems);
  std::string err;
  ASSERT_TRUE(t.CheckInvariants(&err)) << err;
  Rng rng(23);
  for (int q = 0; q < 30; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(
        rng.PointIn(bounds), rng.Uniform(0.5f, 12.0f));
    std::vector<ElementId> got;
    t.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), ScanRange(elems, query)) << "q" << q;
  }
  for (int q = 0; q < 15; ++q) {
    const Vec3 p = rng.PointIn(bounds);
    std::vector<ElementId> got;
    t.KnnQuery(p, 9, &got);
    EXPECT_EQ(got, ScanKnn(elems, p, 9)) << "q" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PamDifferentialTest,
    ::testing::Values(PamCase{"uniform", 3000, 0},
                      PamCase{"clustered", 3000, 1},
                      PamCase{"neurons", 3000, 2},
                      PamCase{"tiny", 5, 0}),
    [](const ::testing::TestParamInfo<PamCase>& info) {
      return info.param.name;
    });

TEST(KdTreeTest, ReplicationReportedInShape) {
  // Elements far larger than leaves replicate heavily (§3.2's complaint).
  const auto elems = GenerateUniformBoxes(3000, kUniverse, 2.0f, 6.0f);
  KdTreeOptions opts;
  opts.leaf_capacity = 8;
  KdTree t(opts);
  t.Build(elems, kUniverse);
  const KdTreeShape s = t.Shape();
  EXPECT_GT(s.replication_factor, 1.5);
  EXPECT_GT(s.total_slots, s.elements);
}

TEST(KdTreeTest, EmptyAndSingle) {
  KdTree t;
  t.Build({}, kUniverse);
  std::vector<ElementId> out;
  t.RangeQuery(kUniverse, &out);
  EXPECT_TRUE(out.empty());
  t.KnnQuery(Vec3(0, 0, 0), 3, &out);
  EXPECT_TRUE(out.empty());

  std::vector<Element> one{Element(3, AABB(Vec3(1, 1, 1), Vec3(2, 2, 2)))};
  t.Build(one, kUniverse);
  t.RangeQuery(kUniverse, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 3u);
}

TEST(KdTreeTest, DegenerateIdenticalBoxesDoNotRecurseForever) {
  // All elements share the same box: splits cannot separate them; the tree
  // must stop and still answer correctly.
  std::vector<Element> elems;
  for (ElementId i = 0; i < 200; ++i) {
    elems.emplace_back(i, AABB(Vec3(10, 10, 10), Vec3(12, 12, 12)));
  }
  KdTreeOptions opts;
  opts.leaf_capacity = 4;
  KdTree t(opts);
  t.Build(elems, kUniverse);
  std::vector<ElementId> out;
  t.RangeQuery(AABB(Vec3(11, 11, 11), Vec3(13, 13, 13)), &out);
  EXPECT_EQ(out.size(), 200u);
}

TEST(OctreeTest, ShapeAndDepthBounds) {
  const auto elems = GenerateUniformBoxes(10000, kUniverse, 0.05f, 0.3f);
  OctreeOptions opts;
  opts.max_depth = 5;
  Octree t(opts);
  t.Build(elems, kUniverse);
  const OctreeShape s = t.Shape();
  EXPECT_LE(s.depth, 6u);  // Root at depth 1 plus max_depth subdivisions.
  EXPECT_GT(s.leaves, 100u);
  EXPECT_GE(s.replication_factor, 1.0);
}

TEST(OctreeTest, ElementsOutsideUniverseStillFound) {
  std::vector<Element> elems{
      Element(0, AABB(Vec3(-10, -10, -10), Vec3(-9, -9, -9))),
      Element(1, AABB(Vec3(50, 50, 50), Vec3(51, 51, 51)))};
  Octree t;
  t.Build(elems, kUniverse);
  std::vector<ElementId> out;
  t.RangeQuery(AABB(Vec3(-11, -11, -11), Vec3(-8, -8, -8)), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
}

TEST(LooseOctreeTest, NoReplicationSingleAssignment) {
  const auto elems = GenerateUniformBoxes(3000, kUniverse, 0.5f, 4.0f);
  LooseOctree t(kUniverse);
  t.Build(elems);
  // Exactly one slot per element (the loose octree's defining property).
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;  // Checks slot == placement.
  EXPECT_EQ(t.size(), elems.size());
}

TEST(LooseOctreeTest, UpdateFastPathForSmallMoves) {
  auto elems = GenerateUniformBoxes(3000, kUniverse, 0.1f, 0.4f);
  LooseOctree t(kUniverse);
  t.Build(elems);
  Rng rng(31);
  for (Element& e : elems) {
    e.box = e.box.Translated(Vec3(rng.Normal(0, 0.01f), rng.Normal(0, 0.01f),
                                  rng.Normal(0, 0.01f)));
    ASSERT_TRUE(t.Update(e.id, e.box));
  }
  std::string err;
  ASSERT_TRUE(t.CheckInvariants(&err)) << err;
  // Differential check after the walk.
  Rng qrng(32);
  for (int q = 0; q < 15; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(
        qrng.PointIn(kUniverse), qrng.Uniform(1.0f, 10.0f));
    std::vector<ElementId> got;
    t.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), ScanRange(elems, query));
  }
}

TEST(LooseOctreeTest, EraseAndReinsert) {
  LooseOctree t(kUniverse);
  t.Build({});
  t.Insert(Element(5, AABB(Vec3(1, 1, 1), Vec3(3, 3, 3))));
  EXPECT_TRUE(t.Erase(5));
  EXPECT_FALSE(t.Erase(5));
  EXPECT_EQ(t.size(), 0u);
  t.Insert(Element(5, AABB(Vec3(4, 4, 4), Vec3(6, 6, 6))));
  std::vector<ElementId> out;
  t.RangeQuery(AABB(Vec3(3.5f, 3.5f, 3.5f), Vec3(7, 7, 7)), &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(LooseOctreeTest, LoosenessCausesExtraTests) {
  // §3.2: "Bigger partitions ... introduce substantial overlap and
  // therefore increase unnecessary child traversals (and comparisons)".
  // Compare element tests against the exact result size.
  const auto elems = GenerateUniformBoxes(8000, kUniverse, 0.2f, 0.6f);
  LooseOctree t(kUniverse);
  t.Build(elems);
  QueryCounters c;
  std::vector<ElementId> out;
  const AABB q = AABB::FromCenterHalfExtent(Vec3(50, 50, 50), 6.0f);
  t.RangeQuery(q, &out, &c);
  EXPECT_GT(c.element_tests, out.size());
}

// A probe far larger than the universe (kNN with k > n doubles its cube
// to the far corner) enumerates only the keys each level has held, not
// its whole key span, and answers exactly as before.
TEST(LooseOctreeTest, HugeProbeEnumeratesOnlyOccupiedKeys) {
  const auto elems = GenerateUniformBoxes(300, kUniverse, 0.1f, 0.4f);
  LooseOctree t(kUniverse);
  t.Build(elems);
  // Centres inside the universe have keys in [0, 2^level] per axis.
  std::uint64_t occupied_span = 0;
  for (std::uint32_t level = 0; level < t.levels(); ++level) {
    const std::uint64_t side = (std::uint64_t{1} << level) + 1;
    occupied_span += side * side * side;
  }
  QueryCounters c;
  std::vector<ElementId> got;
  const AABB probe(Vec3(-200, -200, -200), Vec3(300, 300, 300));
  t.RangeQuery(probe, &got, &c);
  EXPECT_EQ(Sorted(got), ScanRange(elems, probe));
  EXPECT_LE(c.structure_tests, occupied_span);

  const Vec3 p(-40, 50, 200);
  t.KnnQuery(p, elems.size() + 10, &got);
  EXPECT_EQ(got, ScanKnn(elems, p, elems.size() + 10));
}

// With k >= size every element is a neighbour: the answer is one pass
// sorted by (distance, id), with no cube expansion (no structure probes),
// and it includes elements far outside the universe, as ScanKnn does.
TEST(LooseOctreeTest, KnnWithKAtLeastSizeScansOnce) {
  auto elems = GenerateUniformBoxes(300, kUniverse, 0.1f, 0.4f);
  elems.emplace_back(300, AABB::FromCenterHalfExtent(Vec3(900, 5, 5), 1.0f));
  elems.emplace_back(301, AABB::FromCenterHalfExtent(Vec3(-1e6f, 0, 0), 1.0f));
  elems.emplace_back(302, elems[7].box);  // A distance tie, broken by id.
  LooseOctree t(kUniverse);
  t.Build(elems);
  for (const Vec3& p : {Vec3(-4, 5, 20), Vec3(50, 50, 50), Vec3(0, 0, 0)}) {
    for (const std::size_t k : {elems.size(), elems.size() + 10}) {
      QueryCounters c;
      std::vector<ElementId> got;
      t.KnnQuery(p, k, &got, &c);
      EXPECT_EQ(got, ScanKnn(elems, p, k)) << "k=" << k;
      EXPECT_EQ(c.structure_tests, 0u) << "k=" << k;
      EXPECT_EQ(c.distance_computations, elems.size()) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace simspatial::pam
