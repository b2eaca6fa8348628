// Property-based fuzz for CurveRangeRankRuns, the BIGMIN-style curve-range
// decomposition: for random lattice boxes across bits 1..10 and all three
// layouts, the emitted runs must be sorted, pairwise disjoint, non-empty,
// MAXIMAL (the rank just past a run belongs to a cell outside the box —
// adjacent runs cannot be fused), and their union must equal the
// brute-force rank set of the cells inside the box. On a full 2^bits cube
// rank == curve key, so the key-space cases check the walk directly
// against the codecs; the non-power-of-two cases check the rank
// accounting. This is the codec-level ground truth the MemGrid
// curve-vs-rowmajor differential battery (core_test) builds on.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "core/cell_layout.h"

namespace simspatial::core {
namespace {

constexpr CellLayout kLayouts[] = {CellLayout::kRowMajor, CellLayout::kMorton,
                                   CellLayout::kHilbert};

std::uint32_t Below(Rng& rng, std::uint32_t n) {
  return static_cast<std::uint32_t>(rng.NextBelow(n));
}

std::uint64_t KeyOf(CellLayout layout, std::uint32_t x, std::uint32_t y,
                    std::uint32_t z, const CellVec& dims, int bits) {
  switch (layout) {
    case CellLayout::kRowMajor:
      return (static_cast<std::uint64_t>(x) * dims[1] + y) * dims[2] + z;
    case CellLayout::kMorton:
      return MortonEncodeCell(x, y, z);
    case CellLayout::kHilbert:
      return HilbertEncodeCell(x, y, z, bits);
  }
  return 0;
}

bool DecodesIntoBox(CellLayout layout, std::uint64_t key, const CellVec& lo,
                    const CellVec& hi, const CellVec& dims, int bits) {
  std::uint32_t x = 0, y = 0, z = 0;
  switch (layout) {
    case CellLayout::kRowMajor:
      x = static_cast<std::uint32_t>(key / (dims[1] * dims[2]));
      y = static_cast<std::uint32_t>((key / dims[2]) % dims[1]);
      z = static_cast<std::uint32_t>(key % dims[2]);
      break;
    case CellLayout::kMorton:
      MortonDecodeCell(key, &x, &y, &z);
      break;
    case CellLayout::kHilbert:
      HilbertDecodeCell(key, bits, &x, &y, &z);
      break;
  }
  return x >= lo[0] && x <= hi[0] && y >= lo[1] && y <= hi[1] && z >= lo[2] &&
         z <= hi[2];
}

/// Check every CurveRangeRankRuns contract for one (layout, box) instance
/// on a lattice where rank == key: a full 2^bits cube for the curve
/// layouts, any dims for kRowMajor.
void CheckDecomposition(CellLayout layout, const CellVec& lo,
                        const CellVec& hi, const CellVec& dims, int bits) {
  SCOPED_TRACE(::testing::Message()
               << ToString(layout) << " bits=" << bits << " box=[" << lo[0]
               << "," << lo[1] << "," << lo[2] << "]..[" << hi[0] << ","
               << hi[1] << "," << hi[2] << "] dims=" << dims[0] << "x"
               << dims[1] << "x" << dims[2]);
  std::vector<CurveRun> runs;
  CurveRangeRankRuns(layout, lo, hi, dims, bits, &runs);

  // Sorted, disjoint, non-empty; adjacent runs separated by >= 1 key.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ASSERT_LT(runs[i].begin, runs[i].end) << "empty run " << i;
    if (i > 0) {
      ASSERT_LT(runs[i - 1].end, runs[i].begin)
          << "runs " << i - 1 << "/" << i << " out of order or fusable";
    }
  }

  // Union == brute-force key set of the box's cells.
  std::vector<std::uint64_t> want;
  for (std::uint32_t x = lo[0]; x <= hi[0]; ++x) {
    for (std::uint32_t y = lo[1]; y <= hi[1]; ++y) {
      for (std::uint32_t z = lo[2]; z <= hi[2]; ++z) {
        want.push_back(KeyOf(layout, x, y, z, dims, bits));
      }
    }
  }
  std::sort(want.begin(), want.end());
  std::vector<std::uint64_t> got;
  got.reserve(want.size());
  for (const CurveRun& r : runs) {
    for (std::uint64_t k = r.begin; k < r.end; ++k) got.push_back(k);
  }
  ASSERT_EQ(got, want);

  // Maximality: the key just past each run (and just before it) belongs to
  // a cell OUTSIDE the box, otherwise the run could have been extended.
  // (Union-exactness above already implies it for in-lattice keys; this
  // pins the boundary cells explicitly.)
  const std::uint64_t universe_keys =
      std::uint64_t{dims[0]} * dims[1] * dims[2];
  for (const CurveRun& r : runs) {
    if (r.end < universe_keys) {
      EXPECT_FALSE(DecodesIntoBox(layout, r.end, lo, hi, dims, bits))
          << "run ending at " << r.end << " is extendable";
    }
    if (r.begin > 0) {
      EXPECT_FALSE(DecodesIntoBox(layout, r.begin - 1, lo, hi, dims, bits))
          << "run starting at " << r.begin << " is extendable backwards";
    }
  }
}

TEST(CurveRunsTest, FullUniverseIsOneRun) {
  // The whole lattice collapses to a single run for every layout (the
  // curve layouts on a power-of-two cube, rowmajor on any dims).
  for (const CellLayout layout : kLayouts) {
    for (const int bits : {1, 2, 3, 4}) {
      const auto n = static_cast<std::uint32_t>(1u << bits);
      const CellVec dims{n, n, n};
      std::vector<CurveRun> runs;
      CurveRangeRankRuns(layout, CellVec{0, 0, 0},
                         CellVec{n - 1, n - 1, n - 1}, dims, bits, &runs);
      ASSERT_EQ(runs.size(), 1u) << ToString(layout) << " bits=" << bits;
      EXPECT_EQ(runs[0].begin, 0u);
      EXPECT_EQ(runs[0].end, std::uint64_t{n} * n * n);
    }
  }
}

TEST(CurveRunsTest, SingleCellBoxes) {
  Rng rng(311);
  for (const CellLayout layout : kLayouts) {
    for (int bits = 1; bits <= 10; ++bits) {
      const std::uint32_t n = 1u << bits;
      for (int i = 0; i < 8; ++i) {
        const CellVec c{Below(rng, n), Below(rng, n), Below(rng, n)};
        CheckDecomposition(layout, c, c, CellVec{n, n, n}, bits);
      }
    }
  }
}

TEST(CurveRunsTest, RandomBoxesAcrossBitsAndLayouts) {
  Rng rng(312);
  for (const CellLayout layout : kLayouts) {
    for (int bits = 1; bits <= 10; ++bits) {
      const std::uint32_t n = 1u << bits;
      // Brute force enumerates the box, so cap each axis span; spans up to
      // 17 cells cross plenty of block boundaries at every refinement
      // level while keeping the whole fuzz sub-second.
      const std::uint32_t max_span = std::min(n, 17u);
      for (int i = 0; i < 10; ++i) {
        CellVec lo, hi;
        for (int a = 0; a < 3; ++a) {
          const std::uint32_t span = 1 + Below(rng, max_span);
          lo[a] = Below(rng, n - std::min(n - 1, span - 1));
          hi[a] = std::min(n - 1, lo[a] + span - 1);
        }
        CheckDecomposition(layout, lo, hi, CellVec{n, n, n}, bits);
      }
    }
  }
}

TEST(CurveRunsTest, BoxesClippedAtUniverseFaces) {
  // Boxes flush with the lattice faces (including full-depth slabs): the
  // regime MemGrid's probe clamping produces, and where the curve blocks
  // straddle the box on one side only.
  Rng rng(313);
  for (const CellLayout layout : kLayouts) {
    for (const int bits : {2, 3, 5, 8}) {
      const std::uint32_t n = 1u << bits;
      for (int face = 0; face < 6; ++face) {
        CellVec lo{0, 0, 0};
        CellVec hi{n - 1, n - 1, n - 1};
        const int axis = face / 2;
        if (face % 2 == 0) {
          hi[axis] = Below(rng, std::min(n, 4u));  // Clipped at min face.
        } else {
          lo[axis] = n - 1 - Below(rng, std::min(n, 4u));  // At max face.
        }
        if (n > 16) {
          // Keep brute force bounded: thin down one other axis too.
          const int other = (axis + 1) % 3;
          lo[other] = Below(rng, n - 4);
          hi[other] = lo[other] + 3;
        }
        CheckDecomposition(layout, lo, hi, CellVec{n, n, n}, bits);
      }
    }
  }
}

TEST(CurveRunsTest, RowMajorNonPowerOfTwoDims) {
  // kRowMajor keys are row-major indices over arbitrary dims (the curve
  // layouts always see a power-of-two cube; rowmajor sees the real
  // lattice) — z-columns must fuse across y/x exactly when key-adjacent.
  Rng rng(314);
  for (int i = 0; i < 40; ++i) {
    const CellVec dims{1 + Below(rng, 11), 1 + Below(rng, 11),
                       1 + Below(rng, 11)};
    CellVec lo, hi;
    for (int a = 0; a < 3; ++a) {
      lo[a] = Below(rng, dims[a]);
      hi[a] = lo[a] + Below(rng, dims[a] - lo[a]);
    }
    CheckDecomposition(CellLayout::kRowMajor, lo, hi, dims, /*bits=*/0);
  }
  // Full-z-column boxes fuse into exactly one run per contiguous (x, y)
  // stretch — the whole box when it spans full y depth as well.
  std::vector<CurveRun> runs;
  const CellVec dims{5, 7, 3};
  CurveRangeRankRuns(CellLayout::kRowMajor, CellVec{1, 0, 0},
                     CellVec{3, 6, 2}, dims, 0, &runs);
  ASSERT_EQ(runs.size(), 1u);  // y and z both full: x-contiguous fuses too.
  EXPECT_EQ(runs[0].begin, 1u * 7 * 3);
  EXPECT_EQ(runs[0].end, 4u * 7 * 3);
}

/// Ground-truth rank of a cell: its position in the key-sorted order of
/// the whole (possibly non-power-of-two) lattice.
std::vector<std::uint64_t> BruteForceRankSet(CellLayout layout,
                                             const CellVec& lo,
                                             const CellVec& hi,
                                             const CellVec& dims, int bits) {
  std::vector<std::uint64_t> all;
  for (std::uint32_t x = 0; x < dims[0]; ++x) {
    for (std::uint32_t y = 0; y < dims[1]; ++y) {
      for (std::uint32_t z = 0; z < dims[2]; ++z) {
        all.push_back(KeyOf(layout, x, y, z, dims, bits));
      }
    }
  }
  std::sort(all.begin(), all.end());
  std::vector<std::uint64_t> ranks;
  for (std::uint32_t x = lo[0]; x <= hi[0]; ++x) {
    for (std::uint32_t y = lo[1]; y <= hi[1]; ++y) {
      for (std::uint32_t z = lo[2]; z <= hi[2]; ++z) {
        const std::uint64_t key = KeyOf(layout, x, y, z, dims, bits);
        ranks.push_back(static_cast<std::uint64_t>(
            std::lower_bound(all.begin(), all.end(), key) - all.begin()));
      }
    }
  }
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

// The rank-space variant MemGrid's hot path consumes: sorted, disjoint,
// non-empty, maximal IN RANK SPACE (adjacent runs separated by at least
// one in-lattice cell outside the box — runs split only by out-of-lattice
// keys must have been fused), and the union must equal the brute-force
// rank set of the box's cells. Non-power-of-two dims are the interesting
// case for the curve layouts: the walk's lattice-clamp counting is what
// turns key gaps into correct rank gaps.
TEST(CurveRunsTest, RankRunsMatchBruteForceRanks) {
  Rng rng(315);
  for (const CellLayout layout : kLayouts) {
    for (int bits = 1; bits <= 6; ++bits) {
      const std::uint32_t n = 1u << bits;
      for (int i = 0; i < 12; ++i) {
        // Dims anywhere in (2^(bits-1), 2^bits] so `bits` is the codec
        // MemGrid would pick, including the power-of-two boundary.
        CellVec dims;
        for (int a = 0; a < 3; ++a) {
          dims[a] = n / 2 + 1 + Below(rng, n - n / 2);
        }
        CellVec lo, hi;
        for (int a = 0; a < 3; ++a) {
          lo[a] = Below(rng, dims[a]);
          hi[a] = lo[a] + Below(rng, std::min(dims[a] - lo[a], 9u));
        }
        SCOPED_TRACE(::testing::Message()
                     << ToString(layout) << " bits=" << bits << " dims="
                     << dims[0] << "x" << dims[1] << "x" << dims[2]
                     << " box=[" << lo[0] << "," << lo[1] << "," << lo[2]
                     << "]..[" << hi[0] << "," << hi[1] << "," << hi[2]
                     << "]");
        std::vector<CurveRun> runs;
        CurveRangeRankRuns(layout, lo, hi, dims, bits, &runs);
        std::vector<std::uint64_t> got;
        for (std::size_t r = 0; r < runs.size(); ++r) {
          ASSERT_LT(runs[r].begin, runs[r].end) << "empty run " << r;
          if (r > 0) {
            ASSERT_LT(runs[r - 1].end, runs[r].begin)
                << "rank runs " << r - 1 << "/" << r
                << " out of order or fusable";
          }
          for (std::uint64_t v = runs[r].begin; v < runs[r].end; ++v) {
            got.push_back(v);
          }
        }
        ASSERT_EQ(got, BruteForceRankSet(layout, lo, hi, dims, bits));
      }
    }
  }
}

// The batch scheduler's anchor must agree with the full decomposition:
// CurveRangeFirstCell names the cell that owns the first run's begin
// (checked by decomposing the single-cell box [cell, cell], whose one
// run's begin is by definition the cell's rank).
TEST(CurveRunsTest, FirstCellAgreesWithRankRuns) {
  Rng rng(808);
  for (const CellLayout layout : kLayouts) {
    for (int bits = 1; bits <= 6; ++bits) {
      const std::uint32_t n = 1u << bits;
      for (int i = 0; i < 12; ++i) {
        CellVec dims;
        for (int a = 0; a < 3; ++a) {
          dims[a] = n / 2 + 1 + Below(rng, n - n / 2);
        }
        CellVec lo, hi;
        for (int a = 0; a < 3; ++a) {
          lo[a] = Below(rng, dims[a]);
          hi[a] = lo[a] + Below(rng, std::min(dims[a] - lo[a], 9u));
        }
        SCOPED_TRACE(::testing::Message()
                     << ToString(layout) << " bits=" << bits << " dims="
                     << dims[0] << "x" << dims[1] << "x" << dims[2]
                     << " box=[" << lo[0] << "," << lo[1] << "," << lo[2]
                     << "]..[" << hi[0] << "," << hi[1] << "," << hi[2]
                     << "]");
        std::vector<CurveRun> runs;
        CurveRangeRankRuns(layout, lo, hi, dims, bits, &runs);
        ASSERT_FALSE(runs.empty());
        const CellVec cell = CurveRangeFirstCell(layout, lo, hi, bits);
        for (int a = 0; a < 3; ++a) {
          ASSERT_GE(cell[a], lo[a]) << "axis " << a;
          ASSERT_LE(cell[a], hi[a]) << "axis " << a;
        }
        std::vector<CurveRun> one;
        CurveRangeRankRuns(layout, cell, cell, dims, bits, &one);
        ASSERT_EQ(one.size(), 1u);
        EXPECT_EQ(one[0].begin, runs[0].begin)
            << "first cell's rank is not the first run's begin";
      }
    }
  }
}

// Exhaustive pin of the curve state tables: on a full 2^bits cube every
// single-cell box must decompose to exactly the run [key(c), key(c) + 1),
// with the key taken from the codec the grid's rank maps are built with.
// All 24 Hilbert states are reached within three levels of the root, so
// bits 5 reads every oct AND next entry of the table at least once: a
// wrong entry cannot go unnoticed.
TEST(CurveRunsTest, SingleCellRunsMatchCodecExhaustively) {
  for (const CellLayout layout : {CellLayout::kMorton, CellLayout::kHilbert}) {
    for (int bits = 1; bits <= 5; ++bits) {
      const std::uint32_t n = 1u << bits;
      const CellVec dims{n, n, n};
      std::vector<CurveRun> runs;
      for (std::uint32_t x = 0; x < n; ++x) {
        for (std::uint32_t y = 0; y < n; ++y) {
          for (std::uint32_t z = 0; z < n; ++z) {
            const CellVec c{x, y, z};
            CurveRangeRankRuns(layout, c, c, dims, bits, &runs);
            const std::uint64_t key = KeyOf(layout, x, y, z, dims, bits);
            ASSERT_EQ(runs.size(), 1u)
                << ToString(layout) << " bits=" << bits << " cell " << x
                << "," << y << "," << z;
            ASSERT_EQ(runs[0].begin, key)
                << ToString(layout) << " bits=" << bits << " cell " << x
                << "," << y << "," << z;
            ASSERT_EQ(runs[0].end, key + 1);
          }
        }
      }
    }
  }
}

TEST(CurveRunsTest, RankRunsFuseAcrossOutOfLatticeKeys) {
  // A full-lattice box on non-power-of-two dims: the cube has keys outside
  // the lattice between its cells, and in RANK space the box must still
  // collapse to the single run [0, nx*ny*nz).
  const CellVec dims{5, 6, 7};
  const CellVec lo{0, 0, 0};
  const CellVec hi{4, 5, 6};
  for (const CellLayout layout : kLayouts) {
    std::vector<CurveRun> runs;
    CurveRangeRankRuns(layout, lo, hi, dims, /*bits=*/3, &runs);
    ASSERT_EQ(runs.size(), 1u) << ToString(layout);
    EXPECT_EQ(runs[0].begin, 0u);
    EXPECT_EQ(runs[0].end, 5u * 6 * 7);
  }
}

TEST(CurveRunsTest, MortonRunsMatchBigminGroundTruth) {
  // Cross-check one hand-computable Morton case: in a 4x4x4 cube the box
  // x in [0,1], y in [0,1], z in [0,3] is the two z-aligned octants, i.e.
  // keys [0,8) u [32,40) — precisely what one BIGMIN split at the z bit
  // yields.
  std::vector<CurveRun> runs;
  CurveRangeRankRuns(CellLayout::kMorton, CellVec{0, 0, 0}, CellVec{1, 1, 3},
                     CellVec{4, 4, 4}, /*bits=*/2, &runs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].begin, 0u);
  EXPECT_EQ(runs[0].end, 8u);
  EXPECT_EQ(runs[1].begin, 32u);
  EXPECT_EQ(runs[1].end, 40u);
}

TEST(CurveRunsTest, HilbertRunCountBeatsCoordinateFragmentation) {
  // The point of the curve layouts: a cubic box decomposes into far fewer
  // rank runs than its z-column count (what the coordinate scan would
  // stream at best under rowmajor-in-curve-storage). Not a correctness
  // property, but regressing it silently would gut the PR.
  const int bits = 6;
  const std::uint32_t n = 1u << bits;
  std::vector<CurveRun> runs;
  CurveRangeRankRuns(CellLayout::kHilbert, CellVec{8, 8, 8},
                     CellVec{23, 23, 23}, CellVec{n, n, n}, bits, &runs);
  const std::size_t columns = 16 * 16;
  EXPECT_LT(runs.size(), columns / 2)
      << "Hilbert cube decomposition no longer beats column order";
}

}  // namespace
}  // namespace simspatial::core
