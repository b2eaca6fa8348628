#include "core/cell_layout.h"

#include <algorithm>
#include <cassert>

namespace simspatial::core {

namespace {

/// Append [begin, end) to the run list, fusing with the previous run when
/// adjacent — valid only while emission is in ascending order.
inline void EmitRun(std::uint64_t begin, std::uint64_t end,
                    std::vector<CurveRun>* out) {
  if (!out->empty() && out->back().end == begin) {
    out->back().end = end;
  } else {
    out->push_back(CurveRun{begin, end});
  }
}

// ---------------------------------------------------------------------------
// Curve state machines.
//
// A Hilbert curve is self-similar: the sub-curve inside each octant is the
// canonical curve under a signed axis permutation (rotation/reflection),
// and that transform depends only on the octant's VISIT POSITION, not on
// the refinement level. A walk state is the accumulated transform, and one
// table lookup per octant yields both its lattice position and the child
// state — no codec evaluation anywhere in the recursion. The transforms
// reachable from the identity close to 24 states (of the 48 signed
// permutations); the table below was derived numerically from
// HilbertDecodeCell (child transforms solved from the bits=2 decode, the
// state set closed under composition) and curve_runs_test pins it against
// HilbertEncodeCell for every cell at bits 1-4.

/// (state, visit position) -> octant triple (x | y<<1 | z<<2) and the
/// child's state. State 0 is the root orientation.
struct CurveMachine {
  std::uint8_t oct[24][8];
  std::uint8_t next[24][8];
};

constexpr CurveMachine kHilbertMachine = {
    {{0, 4, 6, 2, 3, 7, 5, 1}, {0, 2, 3, 1, 5, 7, 6, 4},
     {0, 4, 5, 1, 3, 7, 6, 2}, {5, 4, 6, 7, 3, 2, 0, 1},
     {0, 1, 3, 2, 6, 7, 5, 4}, {3, 7, 6, 2, 0, 4, 5, 1},
     {5, 7, 6, 4, 0, 2, 3, 1}, {0, 1, 5, 4, 6, 7, 3, 2},
     {0, 2, 6, 4, 5, 7, 3, 1}, {6, 2, 3, 7, 5, 1, 0, 4},
     {5, 7, 3, 1, 0, 2, 6, 4}, {6, 7, 3, 2, 0, 1, 5, 4},
     {6, 4, 5, 7, 3, 1, 0, 2}, {3, 7, 5, 1, 0, 4, 6, 2},
     {6, 7, 5, 4, 0, 1, 3, 2}, {5, 4, 0, 1, 3, 2, 6, 7},
     {5, 1, 3, 7, 6, 2, 0, 4}, {3, 2, 6, 7, 5, 4, 0, 1},
     {3, 2, 0, 1, 5, 4, 6, 7}, {3, 1, 0, 2, 6, 4, 5, 7},
     {5, 1, 0, 4, 6, 2, 3, 7}, {3, 1, 5, 7, 6, 4, 0, 2},
     {6, 2, 0, 4, 5, 1, 3, 7}, {6, 4, 0, 2, 3, 1, 5, 7}},
    {{1, 2, 0, 3, 4, 0, 5, 6},       {7, 8, 1, 9, 2, 1, 10, 11},
     {4, 0, 2, 12, 1, 2, 13, 14},    {10, 15, 3, 0, 16, 3, 17, 8},
     {8, 7, 4, 16, 0, 4, 11, 10},    {18, 13, 5, 6, 19, 5, 0, 3},
     {15, 10, 6, 5, 20, 6, 8, 17},   {0, 4, 7, 21, 8, 7, 14, 13},
     {2, 1, 8, 17, 7, 8, 6, 5},      {14, 22, 9, 1, 12, 9, 16, 4},
     {20, 6, 10, 11, 15, 10, 1, 9},  {22, 14, 11, 10, 23, 11, 4, 16},
     {11, 23, 12, 2, 9, 12, 21, 7},  {19, 5, 13, 14, 18, 13, 2, 12},
     {23, 11, 14, 13, 22, 14, 7, 21}, {16, 3, 15, 23, 10, 15, 18, 22},
     {6, 20, 16, 4, 3, 16, 9, 1},    {13, 18, 17, 8, 21, 17, 3, 0},
     {21, 17, 18, 22, 13, 18, 15, 23}, {17, 21, 19, 20, 5, 19, 23, 15},
     {3, 16, 20, 19, 6, 20, 22, 18}, {5, 19, 21, 7, 17, 21, 12, 2},
     {12, 9, 22, 18, 14, 22, 20, 19}, {9, 12, 23, 15, 11, 23, 19, 20}},
};

/// The Morton "machine" is the trivial one-state machine: our encode puts
/// x in the least-significant interleave slot, so visit position p IS the
/// octant triple and every child shares the orientation.
constexpr CurveMachine kMortonMachine = {{{0, 1, 2, 3, 4, 5, 6, 7}},
                                         {{0, 0, 0, 0, 0, 0, 0, 0}}};

const CurveMachine& MachineOf(CellLayout layout) {
  assert(layout != CellLayout::kRowMajor);
  return layout == CellLayout::kMorton ? kMortonMachine : kHilbertMachine;
}

/// Lattice cells inside the side-2^level block at (bx, by, bz) — what a
/// pruned block advances the rank cursor by.
std::uint64_t LatticeCells(std::uint32_t bx, std::uint32_t by,
                           std::uint32_t bz, int level, const CellVec& dims) {
  const std::uint32_t side = 1u << level;
  const std::uint64_t ox =
      bx >= dims[0] ? 0 : std::min<std::uint64_t>(side, dims[0] - bx);
  const std::uint64_t oy =
      by >= dims[1] ? 0 : std::min<std::uint64_t>(side, dims[1] - by);
  const std::uint64_t oz =
      bz >= dims[2] ? 0 : std::min<std::uint64_t>(side, dims[2] - bz);
  return ox * oy * oz;
}

/// Key-order block walk (see the CurveRangeRankRuns header comment): the
/// block at (bx, by, bz) with side 2^level is traversed by `state`'s
/// orientation — O(1) per block, one table lookup per octant, no codec
/// evaluation. `*cursor` counts the lattice cells passed so far, so at
/// emission time it IS the block's first rank; every block, emitted or
/// pruned, advances it. Emission is in ascending rank order, so EmitRun's
/// one-back fusion yields the maximal runs directly — and blocks fully
/// outside the lattice advance nothing, fusing runs across out-of-lattice
/// key gaps.
void WalkBlocks(const CurveMachine& m, int level, std::uint32_t bx,
                std::uint32_t by, std::uint32_t bz, std::uint8_t state,
                const CellVec& lo, const CellVec& hi, const CellVec& dims,
                std::uint64_t* cursor, std::vector<CurveRun>* out) {
  const std::uint32_t side_minus_1 = (1u << level) - 1u;
  if (bx > hi[0] || bx + side_minus_1 < lo[0] || by > hi[1] ||
      by + side_minus_1 < lo[1] || bz > hi[2] || bz + side_minus_1 < lo[2]) {
    // Disjoint: the block's keys are exactly a (LITMAX, BIGMIN) gap.
    *cursor += LatticeCells(bx, by, bz, level, dims);
    return;
  }
  if (bx >= lo[0] && bx + side_minus_1 <= hi[0] && by >= lo[1] &&
      by + side_minus_1 <= hi[1] && bz >= lo[2] &&
      bz + side_minus_1 <= hi[2]) {
    // Contained (in the box, hence in the lattice): all 8^level cells
    // count.
    const std::uint64_t cells = std::uint64_t{1} << (3 * level);
    EmitRun(*cursor, *cursor + cells, out);
    *cursor += cells;
    return;
  }
  // Straddles the box; a single cell (level 0) is fully classified by the
  // two tests above, so there is always room to descend.
  assert(level > 0);
  if (level == 1) {
    // Fast path for the dominant straddler class (side-2 blocks on the
    // box surface): the children are single cells, so classify them
    // inline instead of paying a recursive call per cell — on thin-slab
    // probes this is most of the walk.
    for (std::uint32_t p = 0; p < 8; ++p) {
      const std::uint8_t o = m.oct[state][p];
      const std::uint32_t cx = bx + (o & 1u);
      const std::uint32_t cy = by + ((o >> 1) & 1u);
      const std::uint32_t cz = bz + ((o >> 2) & 1u);
      if (cx >= lo[0] && cx <= hi[0] && cy >= lo[1] && cy <= hi[1] &&
          cz >= lo[2] && cz <= hi[2]) {
        EmitRun(*cursor, *cursor + 1, out);
        ++*cursor;
      } else if (cx < dims[0] && cy < dims[1] && cz < dims[2]) {
        ++*cursor;
      }
    }
    return;
  }
  const std::uint32_t half = 1u << (level - 1);
  for (std::uint32_t p = 0; p < 8; ++p) {
    const std::uint8_t o = m.oct[state][p];
    WalkBlocks(m, level - 1, bx + (o & 1u) * half,
               by + ((o >> 1) & 1u) * half, bz + ((o >> 2) & 1u) * half,
               m.next[state][p], lo, hi, dims, cursor, out);
  }
}

/// Early-exit, pruning-only walk for the schedule anchor: find the first
/// in-box CELL in key order, with no cursor accounting at all — pruned
/// blocks cost only the disjointness test, and a fully-contained block
/// resolves by descending the curve's entry chain (octant p = 0 at every
/// level) straight to its first cell. Rank is monotone in key over
/// lattice cells, so this cell's rank is the first rank WalkBlocks emits.
bool FirstCellWalk(const CurveMachine& m, int level, std::uint32_t bx,
                   std::uint32_t by, std::uint32_t bz, std::uint8_t state,
                   const CellVec& lo, const CellVec& hi, CellVec* cell) {
  const std::uint32_t side_minus_1 = (1u << level) - 1u;
  if (bx > hi[0] || bx + side_minus_1 < lo[0] || by > hi[1] ||
      by + side_minus_1 < lo[1] || bz > hi[2] || bz + side_minus_1 < lo[2]) {
    return false;
  }
  if (bx >= lo[0] && bx + side_minus_1 <= hi[0] && by >= lo[1] &&
      by + side_minus_1 <= hi[1] && bz >= lo[2] &&
      bz + side_minus_1 <= hi[2]) {
    // Contained: the block's first key belongs to the cell reached by
    // taking the curve's first octant at every remaining level.
    while (level > 0) {
      const std::uint32_t half = 1u << (level - 1);
      const std::uint8_t o = m.oct[state][0];
      bx += (o & 1u) * half;
      by += ((o >> 1) & 1u) * half;
      bz += ((o >> 2) & 1u) * half;
      state = m.next[state][0];
      --level;
    }
    *cell = {bx, by, bz};
    return true;
  }
  assert(level > 0);
  if (level == 1) {
    for (std::uint32_t p = 0; p < 8; ++p) {
      const std::uint8_t o = m.oct[state][p];
      const std::uint32_t cx = bx + (o & 1u);
      const std::uint32_t cy = by + ((o >> 1) & 1u);
      const std::uint32_t cz = bz + ((o >> 2) & 1u);
      if (cx >= lo[0] && cx <= hi[0] && cy >= lo[1] && cy <= hi[1] &&
          cz >= lo[2] && cz <= hi[2]) {
        *cell = {cx, cy, cz};
        return true;
      }
    }
    return false;
  }
  const std::uint32_t half = 1u << (level - 1);
  for (std::uint32_t p = 0; p < 8; ++p) {
    const std::uint8_t o = m.oct[state][p];
    if (FirstCellWalk(m, level - 1, bx + (o & 1u) * half,
                      by + ((o >> 1) & 1u) * half,
                      bz + ((o >> 2) & 1u) * half, m.next[state][p], lo, hi,
                      cell)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void CurveRangeRankRuns(CellLayout layout, const CellVec& lo,
                        const CellVec& hi, const CellVec& dims, int bits,
                        std::vector<CurveRun>* out) {
  out->clear();
  assert(lo[0] <= hi[0] && lo[1] <= hi[1] && lo[2] <= hi[2]);
  assert(hi[0] < dims[0] && hi[1] < dims[1] && hi[2] < dims[2]);
  if (layout == CellLayout::kRowMajor) {
    // rank = (x * ny + y) * nz + z: every (x, y) column of the box is one
    // run [rank(x,y,lo_z), rank(x,y,hi_z)]; EmitRun fuses columns, planes
    // and ultimately the whole box when they happen to be adjacent
    // (full-depth columns in a full-height plane, etc).
    const std::uint64_t ny = dims[1];
    const std::uint64_t nz = dims[2];
    for (std::uint64_t x = lo[0]; x <= hi[0]; ++x) {
      for (std::uint64_t y = lo[1]; y <= hi[1]; ++y) {
        const std::uint64_t column = (x * ny + y) * nz;
        EmitRun(column + lo[2], column + hi[2] + 1, out);
      }
    }
    return;
  }
  std::uint64_t cursor = 0;
  WalkBlocks(MachineOf(layout), bits, 0, 0, 0, /*state=*/0, lo, hi, dims,
             &cursor, out);
}

CellVec CurveRangeFirstCell(CellLayout layout, const CellVec& lo,
                            const CellVec& hi, int bits) {
  assert(lo[0] <= hi[0] && lo[1] <= hi[1] && lo[2] <= hi[2]);
  // Row-major key is monotone per axis: the min corner comes first.
  if (layout == CellLayout::kRowMajor) return lo;
  CellVec cell = lo;
  [[maybe_unused]] const bool found = FirstCellWalk(
      MachineOf(layout), bits, 0, 0, 0, /*state=*/0, lo, hi, &cell);
  assert(found && "box outside the 2^bits cube");
  return cell;
}

}  // namespace simspatial::core
