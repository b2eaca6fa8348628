// Spatial joins: every algorithm must produce the nested-loop reference
// pair set on every dataset shape and epsilon, and the grid joins must
// reproduce the hash-grid reference's exact emission.

#include "join/spatial_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "common/bruteforce.h"
#include "common/rng.h"
#include "datagen/neuron.h"

namespace simspatial::join {
namespace {

using datagen::GenerateClusteredBoxes;
using datagen::GenerateNeuronsWithSize;
using datagen::GenerateUniformBoxes;

const AABB kUniverse(Vec3(0, 0, 0), Vec3(60, 60, 60));

std::vector<JoinPair> Reference(const std::vector<Element>& elems,
                                float eps) {
  auto pairs = NestedLoopSelfJoin(elems, eps);
  SortPairs(&pairs);
  return pairs;
}

struct JoinCase {
  const char* name;
  std::size_t n;
  int dataset;  // 0 uniform, 1 clustered, 2 neurons.
  float eps;
};

std::vector<Element> MakeDataset(const JoinCase& c) {
  switch (c.dataset) {
    case 0:
      return GenerateUniformBoxes(c.n, kUniverse, 0.2f, 0.8f);
    case 1:
      return GenerateClusteredBoxes(c.n, kUniverse, 6, 3.0f, 0.2f, 0.6f);
    default: {
      auto ds = GenerateNeuronsWithSize(c.n);
      return ds.elements;
    }
  }
}

class SelfJoinDifferentialTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(SelfJoinDifferentialTest, PlaneSweep) {
  const JoinCase& c = GetParam();
  const auto elems = MakeDataset(c);
  auto got = PlaneSweepSelfJoin(elems, c.eps);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, c.eps));
}

TEST_P(SelfJoinDifferentialTest, Pbsm) {
  const JoinCase& c = GetParam();
  const auto elems = MakeDataset(c);
  auto got = PbsmSelfJoin(elems, c.eps);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, c.eps));
}

TEST_P(SelfJoinDifferentialTest, Touch) {
  const JoinCase& c = GetParam();
  const auto elems = MakeDataset(c);
  auto got = TouchSelfJoin(elems, c.eps);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, c.eps));
}

TEST_P(SelfJoinDifferentialTest, GridJoin) {
  const JoinCase& c = GetParam();
  const auto elems = MakeDataset(c);
  auto got = GridSelfJoin(elems, c.eps);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, c.eps));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SelfJoinDifferentialTest,
    ::testing::Values(JoinCase{"uniform_overlap", 1500, 0, 0.0f},
                      JoinCase{"uniform_eps", 1500, 0, 0.5f},
                      JoinCase{"clustered_overlap", 1500, 1, 0.0f},
                      JoinCase{"clustered_eps", 1200, 1, 0.8f},
                      JoinCase{"neurons_synapse", 2000, 2, 0.5f},
                      JoinCase{"tiny", 3, 0, 0.0f},
                      JoinCase{"two_elements", 2, 0, 5.0f}),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      return info.param.name;
    });

// --- Binary joins -----------------------------------------------------------

TEST(BinaryJoinTest, AllAlgorithmsMatchReference) {
  const auto a = GenerateUniformBoxes(800, kUniverse, 0.3f, 1.0f, 111);
  auto b_raw = GenerateClusteredBoxes(700, kUniverse, 4, 4.0f, 0.3f, 1.0f,
                                      222);
  // Distinct id spaces keep pair semantics unambiguous.
  std::vector<Element> b;
  for (const Element& e : b_raw) {
    b.emplace_back(e.id + 10000, e.box);
  }
  for (const float eps : {0.0f, 0.7f}) {
    auto want = NestedLoopJoin(a, b, eps);
    SortPairs(&want);
    auto sweep = PlaneSweepJoin(a, b, eps);
    SortPairs(&sweep);
    EXPECT_EQ(sweep, want) << "sweep eps=" << eps;
    auto pbsm = PbsmJoin(a, b, eps);
    SortPairs(&pbsm);
    EXPECT_EQ(pbsm, want) << "pbsm eps=" << eps;
    auto touch = TouchJoin(a, b, eps);
    SortPairs(&touch);
    EXPECT_EQ(touch, want) << "touch eps=" << eps;
    auto gridj = GridJoin(a, b, eps);
    SortPairs(&gridj);
    EXPECT_EQ(gridj, want) << "grid eps=" << eps;
  }
}

TEST(BinaryJoinTest, EmptySidesYieldNoPairs) {
  const auto a = GenerateUniformBoxes(100, kUniverse, 0.2f, 0.5f);
  EXPECT_TRUE(PlaneSweepJoin(a, {}, 0.0f).empty());
  EXPECT_TRUE(PbsmJoin({}, a, 0.0f).empty());
  EXPECT_TRUE(TouchJoin(a, {}, 0.0f).empty());
  EXPECT_TRUE(GridJoin({}, {}, 0.0f).empty());
}

// --- Algorithmic properties the paper claims --------------------------------

TEST(JoinPropertyTest, EveryAlgorithmBeatsNestedLoopOnComparisons) {
  const auto elems = GenerateUniformBoxes(3000, kUniverse, 0.2f, 0.6f);
  QueryCounters nl, sweep, pbsm, touch, gridj;
  NestedLoopSelfJoin(elems, 0.0f, &nl);
  PlaneSweepSelfJoin(elems, 0.0f, &sweep);
  PbsmSelfJoin(elems, 0.0f, {}, &pbsm);
  TouchSelfJoin(elems, 0.0f, {}, &touch);
  GridSelfJoin(elems, 0.0f, {}, &gridj);
  EXPECT_LT(sweep.element_tests, nl.element_tests);
  EXPECT_LT(pbsm.element_tests, nl.element_tests);
  EXPECT_LT(touch.element_tests, nl.element_tests);
  EXPECT_LT(gridj.element_tests, nl.element_tests);
}

TEST(JoinPropertyTest, SweepComparesDistantObjects) {
  // §4.3: "The sweep line approach does not ensure that only spatially
  // close objects are compared." Construct a worst case: all elements
  // overlap in x but are spread in y — the sweep tests O(n^2) pairs while
  // the grid join stays near-linear.
  std::vector<Element> elems;
  for (ElementId i = 0; i < 400; ++i) {
    const float y = static_cast<float>(i) * 2.0f;
    elems.emplace_back(i, AABB(Vec3(0, y, 0), Vec3(50, y + 0.5f, 0.5f)));
  }
  QueryCounters sweep, gridj;
  PlaneSweepSelfJoin(elems, 0.0f, &sweep);
  GridSelfJoin(elems, 0.0f, {}, &gridj);
  EXPECT_GT(sweep.element_tests, gridj.element_tests * 5);
}

TEST(JoinPropertyTest, SmallCellShortcutSkipsTests) {
  // §4.3: "if the grid cell size is smaller than the smallest element size,
  // then objects in the same cell intersect by definition."
  std::vector<Element> elems;
  Rng rng(77);
  const AABB tight(Vec3(0, 0, 0), Vec3(10, 10, 10));
  for (ElementId i = 0; i < 300; ++i) {
    elems.emplace_back(i, AABB::FromCenterHalfExtent(rng.PointIn(tight),
                                                     3.0f));  // Big boxes.
  }
  GridJoinOptions opts;
  opts.cell_size = 0.5f;  // Much smaller than any element.
  opts.small_cell_shortcut = true;
  GridJoinStats stats;
  auto got = GridSelfJoin(elems, 0.0f, opts, nullptr, &stats);
  SortPairs(&got);
  // Cell far below element size violates the one-cell-neighbourhood
  // completeness bound, so compare only the shortcut accounting, not the
  // result set (the bench uses compliant sizes).
  EXPECT_GT(stats.skipped_tests, 0u);
  // Every shortcut-emitted pair must genuinely intersect.
  for (const auto& [lo, hi] : got) {
    EXPECT_TRUE(elems[lo].box.Intersects(elems[hi].box));
  }
}

TEST(JoinPropertyTest, GridJoinDefaultCellIsComplete) {
  // The default (max extent + eps) cell size must keep the join exact even
  // with very skewed element sizes.
  std::vector<Element> elems;
  Rng rng(78);
  for (ElementId i = 0; i < 600; ++i) {
    const float half = (i % 20 == 0) ? 4.0f : 0.2f;
    elems.emplace_back(
        i, AABB::FromCenterHalfExtent(rng.PointIn(kUniverse), half));
  }
  auto got = GridSelfJoin(elems, 0.3f);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, 0.3f));
}

// --- Exact grid-join emission -------------------------------------------------

// The hash-grid algorithm the flat grid replaced, kept as the reference:
// centre cells in ascending key order (a std::map), each cell's elements in
// input order, and 13 (self) or 27 (binary) neighbour lookups per cell.
struct RefJoin {
  std::vector<JoinPair> pairs;
  QueryCounters counters;
  std::uint64_t skipped = 0;
  float cell = 0;
};

using RefGrid = std::map<std::array<std::int32_t, 3>,
                         std::vector<const Element*>>;

RefGrid RefFill(const std::vector<Element>& elems, float inv) {
  RefGrid g;
  for (const Element& e : elems) {
    const Vec3 p = e.Center();
    g[{static_cast<std::int32_t>(std::floor(p.x * inv)),
       static_cast<std::int32_t>(std::floor(p.y * inv)),
       static_cast<std::int32_t>(std::floor(p.z * inv))}]
        .push_back(&e);
  }
  return g;
}

float RefCell(const std::vector<Element>& elems, float eps,
              const GridJoinOptions& o, float* min_extent) {
  float lo = std::numeric_limits<float>::max();
  float hi = 0.0f;
  for (const Element& e : elems) {
    const Vec3 x = e.box.Extent();
    lo = std::min({lo, x.x, x.y, x.z});
    hi = std::max({hi, x.x, x.y, x.z});
  }
  if (min_extent != nullptr) *min_extent = lo;
  return std::max(o.cell_size > 0.0f ? o.cell_size : hi + eps + 1e-5f, 1e-5f);
}

RefJoin RefSelfJoin(const std::vector<Element>& elems, float eps,
                    const GridJoinOptions& o) {
  constexpr int kFwd[13][3] = {{1, 0, 0},  {0, 1, 0},  {0, 0, 1},
                               {1, 1, 0},  {1, -1, 0}, {1, 0, 1},
                               {1, 0, -1}, {0, 1, 1},  {0, 1, -1},
                               {1, 1, 1},  {1, 1, -1}, {1, -1, 1},
                               {1, -1, -1}};
  RefJoin r;
  float min_extent = 0.0f;
  r.cell = RefCell(elems, eps, o, &min_extent);
  const RefGrid g = RefFill(elems, 1.0f / r.cell);
  const bool shortcut = o.small_cell_shortcut && eps == 0.0f &&
                        min_extent >= 2.0f * r.cell * std::sqrt(3.0f);
  const auto test = [&](const Element* a, const Element* b, bool same) {
    if (same && shortcut) {
      ++r.skipped;
    } else {
      ++r.counters.element_tests;
      if (!PairMatches(a->box, b->box, eps)) return;
    }
    r.pairs.emplace_back(std::min(a->id, b->id), std::max(a->id, b->id));
  };
  for (const auto& [key, bucket] : g) {
    ++r.counters.nodes_visited;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      for (std::size_t j = i + 1; j < bucket.size(); ++j) {
        test(bucket[i], bucket[j], true);
      }
    }
    for (const auto& d : kFwd) {
      const auto it = g.find({key[0] + d[0], key[1] + d[1], key[2] + d[2]});
      if (it == g.end()) continue;
      ++r.counters.structure_tests;
      for (const Element* a : bucket) {
        for (const Element* b : it->second) test(a, b, false);
      }
    }
  }
  r.counters.results = r.pairs.size();
  return r;
}

RefJoin RefBinaryJoin(const std::vector<Element>& a,
                      const std::vector<Element>& b, float eps,
                      const GridJoinOptions& o) {
  RefJoin r;
  std::vector<Element> both = a;
  both.insert(both.end(), b.begin(), b.end());
  r.cell = RefCell(both, eps, o, nullptr);
  const RefGrid ga = RefFill(a, 1.0f / r.cell);
  const RefGrid gb = RefFill(b, 1.0f / r.cell);
  for (const auto& [key, bucket_b] : gb) {
    ++r.counters.nodes_visited;
    for (int d = 0; d < 27; ++d) {
      const auto it = ga.find({key[0] + d / 9 - 1, key[1] + d / 3 % 3 - 1,
                               key[2] + d % 3 - 1});
      if (it == ga.end()) continue;
      ++r.counters.structure_tests;
      for (const Element* eb : bucket_b) {
        for (const Element* ea : it->second) {
          ++r.counters.element_tests;
          if (PairMatches(ea->box, eb->box, eps)) {
            r.pairs.emplace_back(ea->id, eb->id);
          }
        }
      }
    }
  }
  r.counters.results = r.pairs.size();
  return r;
}

struct EmissionCase {
  const char* name;
  std::vector<Element> elems;
  float cell_size;  // 0 = the join's default.
};

class GridEmissionTest : public ::testing::TestWithParam<int> {};

EmissionCase MakeEmissionCase(int which) {
  const AABB straddle(Vec3(-30, -30, -30), Vec3(30, 30, 30));
  switch (which) {
    case 0:
      return {"neurons", GenerateNeuronsWithSize(2000).elements, 0.0f};
    case 1:
      return {"uniform", GenerateUniformBoxes(1500, kUniverse, 0.2f, 0.8f),
              0.0f};
    case 2:
      return {"clustered",
              GenerateClusteredBoxes(1500, kUniverse, 6, 3.0f, 0.2f, 0.6f),
              0.0f};
    case 3:
      return {"straddling_zero",
              GenerateUniformBoxes(1500, straddle, 0.2f, 0.8f), 0.0f};
    case 4: {
      std::vector<Element> same;
      for (ElementId i = 0; i < 120; ++i) {
        same.emplace_back(i, AABB(Vec3(4, 4, 4), Vec3(5, 5, 5)));
      }
      return {"identical", same, 0.0f};
    }
    case 5:  // Fat boxes on a small cell: the shortcut engages at eps 0.
      return {"small_cell_shortcut",
              GenerateClusteredBoxes(600, kUniverse, 3, 1.0f, 4.0f, 6.0f),
              2.0f};
    default: {
      // A 3x3x3 lattice of tight clusters of 20-30 boxes, 1.0 apart: cells
      // (and neighbour runs) far longer than the pair kernel's lane width,
      // in shuffled input order. The highest cell's run ends at the last
      // element, where the kernel's tail loads reach the column padding.
      std::vector<Element> dense;
      Rng rng(91);
      int cluster = 0;
      for (int x = 0; x < 3; ++x) {
        for (int y = 0; y < 3; ++y) {
          for (int z = 0; z < 3; ++z, ++cluster) {
            const Vec3 c(0.25f + x, 0.25f + y, 0.25f + z);
            for (int i = 0; i < 20 + cluster * 7 % 11; ++i) {
              const Vec3 jitter(rng.Uniform(-0.02f, 0.02f),
                                rng.Uniform(-0.02f, 0.02f),
                                rng.Uniform(-0.02f, 0.02f));
              dense.emplace_back(
                  static_cast<ElementId>(dense.size()),
                  AABB::FromCenterHalfExtent(c + jitter,
                                             rng.Uniform(0.3f, 0.5f)));
            }
          }
        }
      }
      for (std::size_t i = dense.size() - 1; i > 0; --i) {
        std::swap(dense[i], dense[rng.NextBelow(i + 1)]);
      }
      return {"dense_cells", dense, 0.0f};
    }
  }
}

TEST_P(GridEmissionTest, MatchesHashGridReferenceAtEveryThreadCount) {
  const EmissionCase c = MakeEmissionCase(GetParam());
  const std::size_t half = c.elems.size() / 2;
  const std::vector<Element> a(c.elems.begin(), c.elems.begin() + half);
  const std::vector<Element> b(c.elems.begin() + half, c.elems.end());
  for (const float eps : {0.0f, 0.5f}) {
    GridJoinOptions o;
    o.cell_size = c.cell_size;
    const RefJoin self = RefSelfJoin(c.elems, eps, o);
    const RefJoin binary = RefBinaryJoin(a, b, eps, o);
    if (c.cell_size > 0.0f && eps == 0.0f) {
      EXPECT_GT(self.skipped, 0u) << "shortcut did not engage";
    }
    for (const std::uint32_t threads : {0u, 2u, par::kThreadsAuto}) {
      o.threads = threads;
      const std::string at = std::string(c.name) + " eps=" +
                             std::to_string(eps) +
                             " threads=" + std::to_string(threads);
      QueryCounters counters;
      GridJoinStats stats;
      EXPECT_EQ(GridSelfJoin(c.elems, eps, o, &counters, &stats),
                self.pairs)
          << at;
      EXPECT_EQ(counters, self.counters) << at;
      EXPECT_EQ(stats.skipped_tests, self.skipped) << at;
      EXPECT_EQ(stats.cell_size, self.cell) << at;
      QueryCounters bc;
      GridJoinStats bstats;
      EXPECT_EQ(GridJoin(a, b, eps, o, &bc, &bstats), binary.pairs) << at;
      EXPECT_EQ(bc, binary.counters) << at;
      EXPECT_EQ(bstats.cell_size, binary.cell) << at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, GridEmissionTest, ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               MakeEmissionCase(info.param).name);
                         });

}  // namespace
}  // namespace simspatial::join
