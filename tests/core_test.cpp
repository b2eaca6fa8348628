// MemGrid and the registry-wide differential battery: every registered
// index must agree with brute force on every dataset shape.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bruteforce.h"
#include "common/rng.h"
#include "core/memgrid.h"
#include "core/spatial_index.h"
#include "datagen/neuron.h"
#include "datagen/plasticity.h"

namespace simspatial::core {
namespace {

using datagen::GenerateClusteredBoxes;
using datagen::GenerateUniformBoxes;

const AABB kUniverse(Vec3(0, 0, 0), Vec3(100, 100, 100));

std::vector<ElementId> Sorted(std::vector<ElementId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// --- MemGrid ------------------------------------------------------------

TEST(MemGridTest, EmptyGrid) {
  MemGrid g(kUniverse);
  std::vector<ElementId> out;
  g.RangeQuery(kUniverse, &out);
  EXPECT_TRUE(out.empty());
  g.KnnQuery(Vec3(0, 0, 0), 5, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(g.CheckInvariants(nullptr));
}

TEST(MemGridTest, RangeAndKnnDifferential) {
  const auto elems = GenerateClusteredBoxes(6000, kUniverse, 10, 5.0f, 0.1f,
                                            0.8f);
  MemGridConfig cfg;
  cfg.cell_size = 3.0f;
  MemGrid g(kUniverse, cfg);
  g.Build(elems);
  std::string err;
  ASSERT_TRUE(g.CheckInvariants(&err)) << err;
  Rng rng(81);
  for (int q = 0; q < 40; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(
        rng.PointIn(kUniverse), rng.Uniform(0.5f, 12.0f));
    std::vector<ElementId> got;
    g.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), ScanRange(elems, query)) << "q" << q;
  }
  for (int q = 0; q < 20; ++q) {
    const Vec3 p = rng.PointIn(kUniverse);
    std::vector<ElementId> got;
    g.KnnQuery(p, 12, &got);
    EXPECT_EQ(got, ScanKnn(elems, p, 12)) << "q" << q;
  }
}

TEST(MemGridTest, MixedElementSizesStayExact) {
  // Large elements stress the probe-inflation completeness bound.
  Rng rng(82);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 3000; ++i) {
    const float half = (i % 25 == 0) ? 8.0f : 0.2f;
    elems.emplace_back(
        i, AABB::FromCenterHalfExtent(rng.PointIn(kUniverse), half));
  }
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 4.0f});
  g.Build(elems);
  for (int q = 0; q < 30; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(
        rng.PointIn(kUniverse), rng.Uniform(0.5f, 6.0f));
    std::vector<ElementId> got;
    g.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), ScanRange(elems, query)) << "q" << q;
  }
}

TEST(MemGridTest, PlasticityUpdatesAreOverwhelminglyInPlace) {
  // The §4.3/§5 headline: with paper-calibrated displacements, almost no
  // update changes cell.
  auto ds = datagen::GenerateNeuronsWithSize(20000);
  MemGridConfig cfg;
  cfg.cell_size = 5.0f;
  MemGrid g(ds.universe, cfg);
  g.Build(ds.elements);
  datagen::PlasticityConfig pcfg;  // 0.04 µm mean displacement.
  datagen::PlasticityModel model(pcfg, ds.universe);
  std::vector<ElementUpdate> updates;
  for (int step = 0; step < 3; ++step) {
    model.Step(&ds.elements, &updates);
    EXPECT_EQ(g.ApplyUpdates(updates), updates.size());
  }
  EXPECT_GT(g.update_stats().InPlaceFraction(), 0.97);
  std::string err;
  EXPECT_TRUE(g.CheckInvariants(&err)) << err;
}

// The per-shell distance lower bound must stop kNN shell expansion early
// WITHOUT changing results — exactness is checked against the linear scan
// on clustered data with coarse cells, the regime where the plain radius
// doubling overshoots by a whole shell (the ROADMAP item this closes).
TEST(MemGridTest, KnnShellLowerBoundStaysExactOnClusteredData) {
  const auto elems =
      GenerateClusteredBoxes(8000, kUniverse, 6, 3.0f, 0.1f, 0.7f);
  for (const CellLayout layout :
       {CellLayout::kRowMajor, CellLayout::kMorton, CellLayout::kHilbert}) {
    MemGridConfig cfg;
    cfg.cell_size = 6.0f;  // Coarse cells: shells expose many elements.
    cfg.layout = layout;
    MemGrid g(kUniverse, cfg);
    g.Build(elems);
    Rng rng(77);
    for (int q = 0; q < 24; ++q) {
      // Alternate probes inside clusters (dense, early stop matters) and
      // in the void between them (sparse, expansion must keep going).
      const Vec3 p = q % 2 == 0
                         ? elems[rng.NextBelow(elems.size())].Center()
                         : rng.PointIn(kUniverse);
      for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                                  std::size_t{33}}) {
        std::vector<ElementId> got;
        g.KnnQuery(p, k, &got);
        ASSERT_EQ(got, ScanKnn(elems, p, k))
            << "layout=" << ToString(layout) << " q" << q << " k=" << k;
      }
    }
  }
}

// Satellite audit of the kNN per-shell float-safety margin: the shell
// lower bound (gap - max_half_extent - 1e-3*cell) must never stop the
// expansion early on the degenerate inputs where the bound is tightest —
// zero-half-extent points (mhe contributes nothing), exact duplicates
// (distance ties resolved by id), query points EXACTLY on cell faces and
// lattice corners (gap == 0 on both sides of the face), probes outside
// the universe (CellCoords clamps into boundary cells) and k >= n (the
// expansion must run to grid exhaustion). Differential vs the linear scan
// across every layout and a sharded storage config.
TEST(MemGridTest, KnnDegenerateInputsStayExactAcrossLayouts) {
  const float cell = 4.0f;
  Rng rng(87);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 300; ++i) {
    Vec3 c;
    if (i % 3 == 0) {
      // Centres exactly on the cell lattice (faces, edges, corners).
      c = Vec3(cell * static_cast<float>(i % 26),
               cell * static_cast<float>((i / 5) % 26),
               cell * static_cast<float>((i / 7) % 26));
    } else {
      c = rng.PointIn(kUniverse);
    }
    if (i % 10 == 0 && i > 0) c = elems[i - 1].Center();  // Exact duplicate.
    elems.emplace_back(i, AABB::FromCenterHalfExtent(c, 0.0f));  // Points.
  }
  std::vector<Vec3> probes;
  // On-face / on-corner probes, including the universe boundary.
  probes.emplace_back(0, 0, 0);
  probes.emplace_back(cell, cell, cell);
  probes.emplace_back(cell * 12, cell * 7, cell * 3);
  probes.emplace_back(100, 100, 100);
  probes.emplace_back(cell * 5, 17.3f, 42.9f);  // Face in x only.
  // Outside the universe (clamped into boundary cells).
  probes.emplace_back(-7, 50, 50);
  probes.emplace_back(108, 108, -3);
  // On top of elements (distance exactly 0).
  probes.push_back(elems[0].Center());
  probes.push_back(elems[30].Center());
  for (const CellLayout layout :
       {CellLayout::kRowMajor, CellLayout::kMorton, CellLayout::kHilbert}) {
    for (const std::uint32_t shards : {1u, 4u}) {
      MemGrid g(kUniverse, MemGridConfig{.cell_size = cell,
                                         .layout = layout,
                                         .shards = shards});
      g.Build(elems);
      for (std::size_t p = 0; p < probes.size(); ++p) {
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{7}, std::size_t{299},
              std::size_t{300}, std::size_t{350}}) {
          std::vector<ElementId> got;
          g.KnnQuery(probes[p], k, &got);
          ASSERT_EQ(got, ScanKnn(elems, probes[p], k))
              << "layout=" << ToString(layout) << " shards=" << shards
              << " probe " << p << " k=" << k;
        }
      }
    }
  }
}

TEST(MemGridTest, SelfJoinMatchesReference) {
  const auto elems = GenerateUniformBoxes(1500, kUniverse, 0.2f, 0.8f);
  MemGridConfig cfg;
  cfg.cell_size = 2.5f;  // >= 2*max_half_extent + eps.
  MemGrid g(kUniverse, cfg);
  g.Build(elems);
  for (const float eps : {0.0f, 0.5f}) {
    std::vector<std::pair<ElementId, ElementId>> got;
    g.SelfJoin(eps, &got);
    SortPairs(&got);
    auto want = NestedLoopSelfJoin(elems, eps);
    SortPairs(&want);
    EXPECT_EQ(got, want) << "eps=" << eps;
  }
}

TEST(MemGridTest, InsertEraseUpdateSoak) {
  Rng rng(83);
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 5.0f});
  g.Build({});
  std::vector<Element> mirror;
  ElementId next = 0;
  for (int step = 0; step < 3000; ++step) {
    const float dice = rng.NextFloat();
    if (dice < 0.45f || mirror.empty()) {
      const Element e(next++, AABB::FromCenterHalfExtent(
                                  rng.PointIn(kUniverse),
                                  rng.Uniform(0.1f, 1.0f)));
      g.Insert(e);
      mirror.push_back(e);
    } else if (dice < 0.65f) {
      const std::size_t i = rng.NextBelow(mirror.size());
      EXPECT_TRUE(g.Erase(mirror[i].id));
      mirror[i] = mirror.back();
      mirror.pop_back();
    } else if (dice < 0.85f) {
      const std::size_t i = rng.NextBelow(mirror.size());
      const AABB nb = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                 rng.Uniform(0.1f, 1.0f));
      EXPECT_TRUE(g.Update(mirror[i].id, nb));
      mirror[i].box = nb;
    } else {
      const AABB q = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                rng.Uniform(1.0f, 12.0f));
      std::vector<ElementId> got;
      g.RangeQuery(q, &got);
      ASSERT_EQ(Sorted(got), Sorted(ScanRange(mirror, q))) << "step " << step;
    }
  }
  std::string err;
  EXPECT_TRUE(g.CheckInvariants(&err)) << err;
}

TEST(MemGridTest, SlackExhaustionRelayoutKeepsQueriesExact) {
  // Hammer a single cell with inserts so its region outgrows every slack
  // grant: regions must relocate, dead space must accumulate, and the full
  // re-layout must eventually fire — all invisible to queries.
  Rng rng(84);
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 5.0f});
  g.Build({});
  std::vector<Element> mirror;
  const Vec3 hot(2.5f, 2.5f, 2.5f);
  for (ElementId i = 0; i < 4000; ++i) {
    // ~90% of inserts land in the hot cell, the rest spread out.
    const Vec3 c = (i % 10 != 0)
                       ? hot + Vec3(rng.Uniform(-2.0f, 2.0f),
                                    rng.Uniform(-2.0f, 2.0f),
                                    rng.Uniform(-2.0f, 2.0f))
                       : rng.PointIn(kUniverse);
    const Element e(i, AABB::FromCenterHalfExtent(c, 0.2f));
    g.Insert(e);
    mirror.push_back(e);
  }
  std::string err;
  ASSERT_TRUE(g.CheckInvariants(&err)) << err;
  EXPECT_GT(g.update_stats().relayouts, 0u);
  for (int q = 0; q < 20; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(
        rng.PointIn(kUniverse), rng.Uniform(0.5f, 8.0f));
    std::vector<ElementId> got;
    g.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), Sorted(ScanRange(mirror, query))) << "q" << q;
  }
  std::vector<ElementId> knn;
  g.KnnQuery(hot, 9, &knn);
  EXPECT_EQ(knn, ScanKnn(mirror, hot, 9));
}

// Regression (churn cap): blocks below kMinEntriesForRelayout (4096) never
// hit the growth trigger, so relocation churn on a SMALL hot grid used to
// bloat the block to ~4096 slots while holding a few dozen live elements
// (dead + stranded slack bounded only by the constant, not the data). The
// churn cap re-layouts once relocation-abandoned dead slots outgrow a
// fixed multiple of the live count, regardless of absolute size (stranded
// geometric slack is itself bounded by a constant factor of dead, so
// capping dead bounds the total).
TEST(MemGridTest, ChurnCapBoundsSmallGridWaste) {
  Rng rng(88);
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 5.0f});
  // A small resident population so the bound has a live count to track.
  std::vector<Element> resident;
  for (ElementId i = 0; i < 16; ++i) {
    resident.emplace_back(i, AABB::FromCenterHalfExtent(
                                 rng.PointIn(kUniverse), 0.3f));
  }
  g.Build(resident);
  // Insert/erase cycles hammering one hot cell per cycle (a different cell
  // each cycle, so every burst churns a fresh zero-cap region through
  // geometric relocation and strands its capacity on erase).
  const ElementId kBurstBase = 1000;
  std::size_t max_waste = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    const Vec3 hot(2.5f + 5.0f * static_cast<float>(cycle % 19),
                   2.5f + 5.0f * static_cast<float>((cycle / 19) % 19),
                   2.5f);
    for (ElementId i = 0; i < 80; ++i) {
      g.Insert(Element(kBurstBase + i,
                       AABB::FromCenterHalfExtent(
                           hot + Vec3(rng.Uniform(-1.0f, 1.0f),
                                      rng.Uniform(-1.0f, 1.0f),
                                      rng.Uniform(-1.0f, 1.0f)),
                           0.2f)));
    }
    for (ElementId i = 0; i < 80; ++i) g.Erase(kBurstBase + i);
    const MemGridShape s = g.Shape();
    max_waste = std::max(max_waste, s.slack_slots + s.dead_slots);
  }
  // Pre-fix the waste marched to ~4096 slots (256x the live population);
  // the churn cap holds it to a small multiple of live + burst peak.
  EXPECT_LT(max_waste, 2048u);
  EXPECT_GT(g.update_stats().relayouts, 0u);
  std::string err;
  ASSERT_TRUE(g.CheckInvariants(&err)) << err;
  // The grid still answers exactly after all that churn.
  for (int q = 0; q < 10; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                  rng.Uniform(2.0f, 15.0f));
    std::vector<ElementId> got;
    g.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), ScanRange(resident, query)) << "q" << q;
  }
}

// Regression for the churn cap's counter side: layout-policy slack
// (min_slack / slack_fraction) must NOT count as reclaimable waste. A
// padded config with min_slack=8 and ~1 element per cell carries 8x live
// in slack by design; a trigger that counted it would re-layout on every
// reservation forever (each re-layout recreates the identical slack) and
// collapse update throughput to O(n/shards) per migration.
TEST(MemGridTest, PaddedLayoutSlackIsNotChurnWaste) {
  Rng rng(89);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 2000; ++i) {
    elems.emplace_back(i, AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                     0.2f));
  }
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 4.0f, .min_slack = 8});
  g.Build(elems);
  for (int i = 0; i < 1000; ++i) {
    const ElementId id = rng.NextBelow(2000);
    ASSERT_TRUE(g.Update(id, AABB::FromCenterHalfExtent(
                                 rng.PointIn(kUniverse), 0.2f)));
  }
  // 1000 scattered migrations into 8-slot-slack regions abandon almost no
  // dead space — nowhere near the dead-slot churn cap.
  EXPECT_EQ(g.update_stats().relayouts, 0u);
  std::string err;
  ASSERT_TRUE(g.CheckInvariants(&err)) << err;
}

TEST(MemGridTest, SelfJoinWidensReachWhenCellsAreTooSmall) {
  // Regression: with cell_size < 2*max_half_extent + eps the old code only
  // asserted (debug) and silently dropped pairs in release builds. The
  // runtime fallback must widen the neighbourhood and stay complete.
  // 600 elements: the widened sweep would visit more cells than there are
  // elements, so the all-pairs fallback fires; 3000 elements: the widened
  // forward-neighbourhood sweep itself runs.
  for (const ElementId n : {600u, 3000u}) {
    Rng rng(85);
    std::vector<Element> elems;
    for (ElementId i = 0; i < n; ++i) {
      // Half-extents up to 3.0 vs cell size 2.0: matching centres can sit
      // several cells apart.
      elems.emplace_back(
          i, AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                        rng.Uniform(0.5f, 3.0f)));
    }
    MemGrid g(kUniverse, MemGridConfig{.cell_size = 2.0f});
    g.Build(elems);
    for (const float eps : {0.0f, 1.0f}) {
      std::vector<std::pair<ElementId, ElementId>> got;
      g.SelfJoin(eps, &got);
      SortPairs(&got);
      auto want = NestedLoopSelfJoin(elems, eps);
      SortPairs(&want);
      EXPECT_EQ(got, want) << "n=" << n << " eps=" << eps;
    }
  }
}

// Curve-layout differential battery: a large probe on a curve layout walks
// the BIGMIN curve-range decomposition (CurveRangeRankRuns), kRowMajor the
// coordinate-order scan. Both visit the same cell set, so ids (sorted —
// emission order follows each layout's rank order) and the nodes_visited /
// element_tests / bytes_read counters must match a kRowMajor grid built
// from the same elements, across shards x threads, on a pristine build and
// with an incremental compaction pass caught mid-flight — plus the
// degenerate probes (empty / inverted boxes, single cell, zero-volume
// planes, full universe, boxes clipped at the universe faces). Runs under
// the "determinism" ctest label, so it is also TSan workload.
TEST(MemGridTest, CurveDecompositionMatchesRowMajor) {
  const auto elems =
      GenerateClusteredBoxes(6000, kUniverse, 8, 6.0f, 0.05f, 0.6f);
  Rng rng(95);
  std::vector<AABB> probes;
  for (int q = 0; q < 10; ++q) {
    probes.push_back(AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                rng.Uniform(2.0f, 35.0f)));
  }
  probes.push_back(kUniverse);                                // Everything.
  probes.push_back(AABB(Vec3(20, 20, 20), Vec3(20, 20, 20))); // Point box.
  probes.push_back(AABB(Vec3(0, 0, 40), Vec3(100, 100, 40))); // z plane.
  probes.push_back(AABB(Vec3(55, 0, 0), Vec3(55, 100, 100))); // x plane.
  probes.push_back(AABB(Vec3(-50, -50, -50), Vec3(5, 150, 5)));  // Clipped.
  probes.push_back(AABB(Vec3(90, 90, 90), Vec3(160, 160, 160)));
  probes.push_back(AABB(Vec3(60, 10, 10), Vec3(40, 90, 90)));  // Inverted x.
  probes.push_back(AABB(Vec3(7, 7, 7), Vec3(3, 3, 3)));  // Fully inverted.
  probes.push_back(AABB());                              // Default empty.

  const auto compare = [&](const MemGrid& curve_grid, const MemGrid& row_grid,
                           const std::vector<Element>& mirror,
                           const char* when) {
    for (std::size_t p = 0; p < probes.size(); ++p) {
      std::vector<ElementId> got_curve, got_row;
      QueryCounters c_curve, c_row;
      curve_grid.RangeQuery(probes[p], &got_curve, &c_curve);
      row_grid.RangeQuery(probes[p], &got_row, &c_row);
      ASSERT_EQ(Sorted(got_curve), Sorted(got_row)) << when << " probe " << p;
      ASSERT_EQ(c_curve.nodes_visited, c_row.nodes_visited)
          << when << " probe " << p;
      ASSERT_EQ(c_curve.element_tests, c_row.element_tests)
          << when << " probe " << p;
      ASSERT_EQ(c_curve.bytes_read, c_row.bytes_read)
          << when << " probe " << p;
      ASSERT_EQ(Sorted(got_curve), Sorted(ScanRange(mirror, probes[p])))
          << when << " probe " << p;
      ASSERT_EQ(curve_grid.RangeQueryCount(probes[p]), got_curve.size())
          << when << " probe " << p;
    }
  };

  for (const CellLayout layout : {CellLayout::kMorton, CellLayout::kHilbert}) {
    for (const std::uint32_t shards : {1u, 5u}) {
      for (const std::uint32_t threads : {0u, 2u}) {
        SCOPED_TRACE(::testing::Message()
                     << "layout=" << ToString(layout) << " shards=" << shards
                     << " threads=" << threads);
        MemGridConfig cfg;
        cfg.cell_size = 3.0f;
        cfg.shards = shards;
        cfg.threads = threads;
        cfg.compact_regions_per_batch = 2;  // Slow passes: easy to catch.
        MemGrid row_grid(kUniverse, cfg);
        cfg.layout = layout;
        MemGrid curve_grid(kUniverse, cfg);
        auto mirror = elems;
        curve_grid.Build(mirror);
        row_grid.Build(mirror);
        compare(curve_grid, row_grid, mirror, "pristine");

        // Drive identical churn into both grids until an incremental
        // compaction pass is caught in flight on the curve grid, so the
        // comparison above straddles its fresh/old block split.
        Rng churn(96);
        std::vector<ElementUpdate> batch;
        bool caught_mid_pass = false;
        for (int round = 0; round < 120 && !caught_mid_pass; ++round) {
          batch.clear();
          for (Element& e : mirror) {
            if (churn.NextFloat() < 0.3f) {
              e.box = AABB::FromCenterHalfExtent(churn.PointIn(kUniverse),
                                                 churn.Uniform(0.05f, 0.6f));
              batch.emplace_back(e.id, e.box);
            }
          }
          ASSERT_EQ(curve_grid.ApplyUpdates(batch), batch.size());
          ASSERT_EQ(row_grid.ApplyUpdates(batch), batch.size());
          caught_mid_pass = curve_grid.Shape().compacting_shards > 0;
        }
        // The churn above reliably leaves a pass in flight within a couple
        // of rounds; assert it so the mid-compaction coverage cannot
        // silently erode.
        ASSERT_TRUE(caught_mid_pass);
        compare(curve_grid, row_grid, mirror, "mid-compaction");
        std::string err;
        ASSERT_TRUE(curve_grid.CheckInvariants(&err)) << err;
        ASSERT_TRUE(row_grid.CheckInvariants(&err)) << err;
      }
    }
  }
}

// SelfJoin's widened-reach sweep walks the bulk forward box through the
// curve decomposition on the curve layouts: the pair set must match brute
// force on every layout (emission order inside the bulk box follows the
// rank order, so the comparison is on sorted pairs).
TEST(MemGridTest, SelfJoinWidenedReachMatchesBruteForce) {
  Rng rng(97);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 2500; ++i) {
    elems.emplace_back(i, AABB::FromCenterHalfExtent(
                              rng.PointIn(kUniverse),
                              rng.Uniform(0.5f, 3.0f)));
  }
  for (const CellLayout layout :
       {CellLayout::kRowMajor, CellLayout::kMorton, CellLayout::kHilbert}) {
    MemGridConfig cfg;
    cfg.cell_size = 2.0f;  // << 2*max_half_extent: the widened sweep runs.
    cfg.layout = layout;
    MemGrid grid(kUniverse, cfg);
    grid.Build(elems);
    for (const float eps : {0.0f, 0.8f}) {
      std::vector<std::pair<ElementId, ElementId>> got;
      grid.SelfJoin(eps, &got);
      SortPairs(&got);
      auto want = NestedLoopSelfJoin(elems, eps);
      SortPairs(&want);
      ASSERT_EQ(got, want) << ToString(layout) << " eps=" << eps;
    }
  }
}

// Mixed-workload differential battery: interleaved bulk-build / insert /
// erase / update / query phases with CheckInvariants after every phase —
// exactly the regime the slack-CSR layout must survive, run under both the
// default and the zero-slack ("tight", relocation-heavy) profiles.
class MemGridMixedWorkloadTest
    : public ::testing::TestWithParam<MemGridConfig> {};

TEST_P(MemGridMixedWorkloadTest, PhasesStayExactAndInvariant) {
  MemGrid g(kUniverse, GetParam());
  Rng rng(86);
  std::vector<Element> mirror;
  ElementId next = 0;

  const auto check_phase = [&](const char* phase) {
    std::string err;
    ASSERT_TRUE(g.CheckInvariants(&err)) << phase << ": " << err;
    ASSERT_EQ(g.size(), mirror.size()) << phase;
    for (int q = 0; q < 6; ++q) {
      const AABB query = AABB::FromCenterHalfExtent(
          rng.PointIn(kUniverse), rng.Uniform(1.0f, 10.0f));
      std::vector<ElementId> got;
      g.RangeQuery(query, &got);
      ASSERT_EQ(Sorted(got), Sorted(ScanRange(mirror, query)))
          << phase << " q" << q;
    }
    const Vec3 p = rng.PointIn(kUniverse);
    std::vector<ElementId> knn;
    g.KnnQuery(p, 6, &knn);
    ASSERT_EQ(knn, ScanKnn(mirror, p, 6)) << phase;
  };

  // Phase 1: bulk build.
  for (; next < 1200; ++next) {
    mirror.emplace_back(next, AABB::FromCenterHalfExtent(
                                  rng.PointIn(kUniverse),
                                  rng.Uniform(0.1f, 1.2f)));
  }
  g.Build(mirror);
  check_phase("build");

  // Phase 2: incremental inserts.
  for (int i = 0; i < 400; ++i, ++next) {
    const Element e(next, AABB::FromCenterHalfExtent(
                              rng.PointIn(kUniverse),
                              rng.Uniform(0.1f, 1.2f)));
    g.Insert(e);
    mirror.push_back(e);
  }
  check_phase("insert");

  // Phase 3: erases (including re-erase of gone ids).
  for (int i = 0; i < 300; ++i) {
    const std::size_t at = rng.NextBelow(mirror.size());
    ASSERT_TRUE(g.Erase(mirror[at].id));
    EXPECT_FALSE(g.Erase(mirror[at].id));
    mirror[at] = mirror.back();
    mirror.pop_back();
  }
  check_phase("erase");

  // Phase 4: single updates, mixing small nudges (in place) with jumps.
  for (int i = 0; i < 400; ++i) {
    auto& m = mirror[rng.NextBelow(mirror.size())];
    const Vec3 c = i % 2 == 0 ? m.Center() + Vec3(0.01f, 0.01f, 0.01f)
                              : rng.PointIn(kUniverse);
    m.box = AABB::FromCenterHalfExtent(c, rng.Uniform(0.1f, 1.2f));
    ASSERT_TRUE(g.Update(m.id, m.box));
  }
  check_phase("update");

  // Phase 5: batch updates (the ApplyUpdates migration-grouping path),
  // including a duplicate id inside one batch.
  std::vector<ElementUpdate> batch;
  for (auto& m : mirror) {
    m.box = AABB::FromCenterHalfExtent(
        rng.NextFloat() < 0.3f ? rng.PointIn(kUniverse)
                               : m.Center() + Vec3(0.02f, 0, 0),
        rng.Uniform(0.1f, 1.2f));
    batch.emplace_back(m.id, m.box);
  }
  mirror.front().box = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                  0.5f);
  batch.emplace_back(mirror.front().id, mirror.front().box);
  batch.emplace_back(kInvalidElement, batch.front().new_box);  // Unknown id.
  EXPECT_EQ(g.ApplyUpdates(batch), batch.size() - 1);
  check_phase("batch-update");

  // Phase 6: rebuild on top of the mutated state.
  g.Build(mirror);
  check_phase("rebuild");
}

INSTANTIATE_TEST_SUITE_P(
    SlackProfiles, MemGridMixedWorkloadTest,
    ::testing::Values(
        MemGridConfig{.cell_size = 4.0f},
        MemGridConfig{.cell_size = 4.0f, .min_slack = 2,
                      .slack_fraction = 0.25f}),
    [](const ::testing::TestParamInfo<MemGridConfig>& info) {
      return info.param.min_slack == 0 ? "compact" : "padded";
    });

TEST(MemGridTest, RebuildIsCheaperThanPerElementWork) {
  // Build must be a small constant per element (O(n) scatter); this is a
  // sanity guard, not a benchmark.
  const auto elems = GenerateUniformBoxes(200000, kUniverse, 0.05f, 0.3f);
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 2.0f});
  Stopwatch sw;
  g.Build(elems);
  EXPECT_LT(sw.ElapsedSeconds(), 2.0);
  EXPECT_EQ(g.size(), elems.size());
}

// --- Registry-wide differential battery ----------------------------------

struct RegistryCase {
  std::string index;
  int dataset;  // 0 uniform, 1 clustered, 2 neurons.
};

std::vector<Element> MakeDataset(int dataset, std::size_t n) {
  switch (dataset) {
    case 0:
      return GenerateUniformBoxes(n, kUniverse, 0.05f, 1.0f);
    case 1:
      return GenerateClusteredBoxes(n, kUniverse, 10, 5.0f, 0.05f, 0.8f);
    default:
      return datagen::GenerateNeuronsWithSize(n).elements;
  }
}

class RegistryDifferentialTest
    : public ::testing::TestWithParam<RegistryCase> {};

TEST_P(RegistryDifferentialTest, RangeAndKnnAgainstBruteForce) {
  const RegistryCase& c = GetParam();
  auto index = MakeIndex(c.index);
  ASSERT_NE(index, nullptr) << c.index;
  const auto elems = MakeDataset(c.dataset, 3000);
  const AABB universe =
      c.dataset == 2 ? AABB(Vec3(0, 0, 0), Vec3(285, 285, 285)) : kUniverse;
  index->Build(elems, universe);
  EXPECT_EQ(index->size(), elems.size());

  Rng rng(91);
  const AABB bounds = BoundsOf(elems);
  if (index->SupportsRangeQueries()) {
    for (int q = 0; q < 25; ++q) {
      const AABB query = AABB::FromCenterHalfExtent(
          rng.PointIn(bounds), rng.Uniform(0.5f, 15.0f));
      std::vector<ElementId> got;
      index->RangeQuery(query, &got);
      ASSERT_EQ(Sorted(got), ScanRange(elems, query))
          << c.index << " q" << q;
    }
  }
  for (int q = 0; q < 12; ++q) {
    const Vec3 p = rng.PointIn(bounds);
    std::vector<ElementId> got;
    index->KnnQuery(p, 8, &got);
    const auto want = ScanKnn(elems, p, 8);
    if (index->KnnIsExact()) {
      ASSERT_EQ(got, want) << c.index << " q" << q;
    } else {
      // Approximate contract: no garbage ids, sane size.
      EXPECT_LE(got.size(), 8u);
      for (const ElementId id : got) EXPECT_LT(id, elems.size());
    }
  }
}

TEST_P(RegistryDifferentialTest, UpdatesKeepExactness) {
  const RegistryCase& c = GetParam();
  auto index = MakeIndex(c.index);
  ASSERT_NE(index, nullptr);
  if (!index->SupportsUpdates() || !index->SupportsRangeQueries()) {
    GTEST_SKIP() << c.index << " is static or kNN-only";
  }
  auto elems = MakeDataset(c.dataset, 2000);
  const AABB universe =
      c.dataset == 2 ? AABB(Vec3(0, 0, 0), Vec3(285, 285, 285)) : kUniverse;
  index->Build(elems, universe);

  Rng rng(92);
  std::vector<ElementUpdate> updates;
  for (int round = 0; round < 3; ++round) {
    updates.clear();
    for (Element& e : elems) {
      e.box = e.box.Translated(Vec3(rng.Normal(0, 0.3f),
                                    rng.Normal(0, 0.3f),
                                    rng.Normal(0, 0.3f)));
      updates.emplace_back(e.id, e.box);
    }
    EXPECT_EQ(index->ApplyUpdates(updates), updates.size()) << c.index;
    for (int q = 0; q < 8; ++q) {
      const AABB query = AABB::FromCenterHalfExtent(
          rng.PointIn(BoundsOf(elems)), rng.Uniform(1.0f, 10.0f));
      std::vector<ElementId> got;
      index->RangeQuery(query, &got);
      ASSERT_EQ(Sorted(got), Sorted(ScanRange(elems, query)))
          << c.index << " round " << round;
    }
  }
}

std::vector<RegistryCase> AllCases() {
  std::vector<RegistryCase> cases;
  for (const std::string& name : AllIndexNames()) {
    for (int ds = 0; ds < 3; ++ds) {
      cases.push_back({name, ds});
    }
  }
  return cases;
}

std::string RegistryCaseName(
    const ::testing::TestParamInfo<RegistryCase>& info) {
  static const char* kDatasets[] = {"uniform", "clustered", "neurons"};
  std::string n = info.param.index + "_" + kDatasets[info.param.dataset];
  std::replace(n.begin(), n.end(), '-', '_');
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, RegistryDifferentialTest,
                         ::testing::ValuesIn(AllCases()), RegistryCaseName);

// Seeded mixed-workload differential fuzz: ONE op stream (bulk build,
// jitter batches, teleport batches with a duplicate and an unknown id,
// rebuild on the mutated state) driven through several registry profiles
// side by side. After every phase each profile must satisfy its structural
// invariants (SpatialIndex::CheckInvariants — real for the MemGrid
// profiles) and agree query-for-query with the brute-force mirror, which
// transitively cross-checks the profiles against each other.
TEST(RegistryTest, SeededMixedWorkloadDifferentialFuzz) {
  const std::vector<std::string> profiles = {
      "memgrid",          "memgrid-padded",
      "memgrid-morton",   "memgrid-hilbert",
      "memgrid-sharded",  "rtree",
      "rtree-packed-str", "rtree-packed-hilbert",
      "linear-scan"};
  std::vector<std::unique_ptr<SpatialIndex>> indexes;
  for (const std::string& p : profiles) {
    auto index = MakeIndex(p);
    ASSERT_NE(index, nullptr) << p;
    ASSERT_TRUE(index->SupportsUpdates()) << p;
    indexes.push_back(std::move(index));
  }

  Rng rng(123);
  std::vector<Element> mirror = MakeDataset(1, 2500);  // Clustered.
  const auto check_phase = [&](const char* phase) {
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      std::string err;
      ASSERT_TRUE(indexes[i]->CheckInvariants(&err))
          << profiles[i] << " after " << phase << ": " << err;
      ASSERT_EQ(indexes[i]->size(), mirror.size())
          << profiles[i] << " after " << phase;
    }
    for (int q = 0; q < 8; ++q) {
      const AABB query = AABB::FromCenterHalfExtent(
          rng.PointIn(kUniverse), rng.Uniform(1.0f, 10.0f));
      const auto want = Sorted(ScanRange(mirror, query));
      for (std::size_t i = 0; i < indexes.size(); ++i) {
        std::vector<ElementId> got;
        indexes[i]->RangeQuery(query, &got);
        ASSERT_EQ(Sorted(got), want)
            << profiles[i] << " after " << phase << " q" << q;
      }
    }
    const Vec3 p = rng.PointIn(kUniverse);
    const auto want_knn = ScanKnn(mirror, p, 7);
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      std::vector<ElementId> got;
      indexes[i]->KnnQuery(p, 7, &got);
      ASSERT_EQ(got, want_knn) << profiles[i] << " after " << phase;
    }
  };

  for (auto& index : indexes) index->Build(mirror, kUniverse);
  check_phase("build");

  std::vector<ElementUpdate> batch;
  for (int round = 0; round < 3; ++round) {
    // Jitter phase: everything moves a little (the §4.3 regime).
    batch.clear();
    for (Element& e : mirror) {
      e.box = e.box.Translated(Vec3(rng.Normal(0, 0.2f), rng.Normal(0, 0.2f),
                                    rng.Normal(0, 0.2f)));
      batch.emplace_back(e.id, e.box);
    }
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      ASSERT_EQ(indexes[i]->ApplyUpdates(batch), batch.size())
          << profiles[i] << " jitter round " << round;
    }
    check_phase("jitter");

    // Teleport phase: ~20% long-distance moves, plus a duplicate id (every
    // profile applies both, last write wins) and an unknown id (skipped).
    batch.clear();
    for (Element& e : mirror) {
      if (rng.NextFloat() < 0.2f) {
        e.box = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                           rng.Uniform(0.1f, 0.8f));
        batch.emplace_back(e.id, e.box);
      }
    }
    if (!mirror.empty()) {
      Element& dup = mirror[mirror.size() / 3];
      dup.box = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse), 0.3f);
      batch.emplace_back(dup.id, dup.box);
    }
    const std::size_t valid = batch.size();
    batch.emplace_back(kInvalidElement,
                       AABB::FromCenterHalfExtent(Vec3(1, 1, 1), 0.1f));
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      ASSERT_EQ(indexes[i]->ApplyUpdates(batch), valid)
          << profiles[i] << " teleport round " << round;
    }
    check_phase("teleport");
  }

  // Rebuild on the mutated state: Build must discard everything stale.
  for (auto& index : indexes) index->Build(mirror, kUniverse);
  check_phase("rebuild");
}

TEST(RegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeIndex("no-such-index"), nullptr);
}

TEST(RegistryTest, AllNamesConstructible) {
  for (const std::string& name : AllIndexNames()) {
    EXPECT_NE(MakeIndex(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace simspatial::core
