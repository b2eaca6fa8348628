// Grid join — the §4.3 research direction, implemented.
//
// "Using grids where objects are quickly assigned to grid cells is an
// interesting research direction for the spatial join as well. Only objects
// in grid cells need to be compared with each other ... If, in addition,
// the size of the grid cells is chosen very small, then pairs of elements
// do not need to be tested for intersection ... elements may not be
// assigned to all intersecting cells, but elements in neighboring cells
// need to be compared with each other to limit replication."
//
// Exactly that design: every element is assigned to the single cell of its
// centre (no replication); candidate pairs come from the same cell and the
// 13 forward neighbour cells (half of the 26-neighbourhood, so each
// unordered cell pair is visited once). Completeness requires
//   cell_size >= max_element_extent + eps,
// because then two matching boxes have centres within one cell in every
// axis. The small-cell shortcut emits same-cell pairs without a test when
// the geometry already guarantees intersection.
//
// The grid is flat: a stable LSD radix sort of the elements by centre-cell
// key (x, y, z), a gather of boxes (as six SoA coordinate columns) and ids
// into that order, and the sorted array of occupied keys with begin
// offsets. Every pass is chunked over the thread pool. Neighbours are found
// without a hash: adding a fixed offset keeps lexicographic key order, so
// while the occupied cells are walked in ascending order each neighbour
// offset keeps a cursor into the key array that only moves forward. The
// stable sort keeps a cell's elements in input order and cells are walked
// in ascending key order, so the emission is the same at every thread
// count.
//
// The pair loops test a cell's elements against each candidate run with
// the pair-run kernel of common/geometry.h (BoxLanesMatch: a few lanes per
// step loaded straight from the columns, PairMatches bit for bit, hits
// emitted in ascending lane order).

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>

#include "common/parallel.h"
#include "join/join_parallel.h"
#include "join/spatial_join.h"

namespace simspatial::join {

namespace {

/// Centre-cell coordinates; std::array compares lexicographically.
using CellKey = std::array<std::int32_t, 3>;

// The 13 forward neighbours: lexicographically positive offsets.
constexpr int kForward[13][3] = {
    {1, 0, 0},  {0, 1, 0},  {0, 0, 1},  {1, 1, 0},   {1, -1, 0},
    {1, 0, 1},  {1, 0, -1}, {0, 1, 1},  {0, 1, -1},  {1, 1, 1},
    {1, 1, -1}, {1, -1, 1}, {1, -1, -1}};

/// Elements per chunk below which an element pass is not worth a dispatch.
constexpr std::size_t kElementGrain = 4096;

/// Radix digit width of the cell sort.
constexpr unsigned kDigitBits = 11;
constexpr std::uint32_t kDigits = 1u << kDigitBits;

/// Cell coordinates are clamped to +-(2^31 - 128), the largest float below
/// 2^31, so the cast is defined and a neighbour offset never overflows.
constexpr float kKeyLimit = 2147483520.0f;

CellKey Offset(const CellKey& k, const int (&d)[3]) {
  return CellKey{k[0] + d[0], k[1] + d[1], k[2] + d[2]};
}

/// floor(v * inv) as a cell coordinate. Out-of-range floors are clamped in
/// float before the cast and NaN goes to cell 0; either sets `*clamped`,
/// because a clamped cell may hold centres that are far apart.
std::int32_t CellCoord(float v, float inv, bool* clamped) {
  const float f = std::floor(v * inv);
  if (f >= -kKeyLimit && f <= kKeyLimit) return static_cast<std::int32_t>(f);
  *clamped = true;
  if (std::isnan(f)) return 0;
  return static_cast<std::int32_t>(f < 0.0f ? -kKeyLimit : kKeyLimit);
}

/// Smallest and largest box extent over all axes of all elements.
struct ExtentBounds {
  float min = std::numeric_limits<float>::max();
  float max = 0.0f;
};

ExtentBounds Extents(const std::vector<Element>& elems,
                     std::uint32_t threads) {
  const std::size_t chunks = par::ChunkCount(threads, elems.size(),
                                             kElementGrain);
  std::vector<ExtentBounds> part(chunks);
  par::ParallelChunks(chunks, elems.size(),
                      [&](std::size_t w, std::size_t begin, std::size_t end) {
                        ExtentBounds b;
                        for (std::size_t i = begin; i < end; ++i) {
                          const Vec3 ext = elems[i].box.Extent();
                          b.min = std::min({b.min, ext.x, ext.y, ext.z});
                          b.max = std::max({b.max, ext.x, ext.y, ext.z});
                        }
                        part[w] = b;
                      });
  ExtentBounds all;
  for (const ExtentBounds& b : part) {
    all.min = std::min(all.min, b.min);
    all.max = std::max(all.max, b.max);
  }
  return all;
}

/// Elements grouped by centre cell: cell c holds positions
/// [begin[c], begin[c + 1]) of the box columns and `ids`, in input order.
struct FlatGrid {
  std::vector<CellKey> keys;  ///< Occupied cells, ascending.
  std::vector<std::uint32_t> begin;
  /// Six SoA box columns (min x, y, z, max x, y, z) of `stride` floats
  /// each: the n boxes, then kBoxRunWidth floats of padding that the
  /// pair-run kernel's tail loads may read.
  std::unique_ptr<float[]> coords;
  std::size_t stride = 0;
  std::unique_ptr<ElementId[]> ids;
  bool clamped = false;  ///< Some centre coordinate was clamped or NaN.

  BoxColumns Columns() const {
    const float* c = coords.get();
    return BoxColumns{c,          c + stride,     c + 2 * stride,
                      c + 3 * stride, c + 4 * stride, c + 5 * stride};
  }
};

FlatGrid BuildFlatGrid(const std::vector<Element>& elems, float inv,
                       std::uint32_t threads) {
  const std::size_t n = elems.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("grid join: more than 2^32 - 1 elements");
  }
  const std::size_t chunks = par::ChunkCount(threads, n, kElementGrain);
  struct Entry {
    CellKey key;
    std::uint32_t index;
  };

  // Keys, with per-chunk key bounds and clamp flags.
  auto src = std::make_unique_for_overwrite<Entry[]>(n);
  std::vector<CellKey> lo(chunks), hi(chunks);
  std::vector<std::uint8_t> chunk_clamped(chunks, 0);
  par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                     std::size_t end) {
    CellKey l;
    CellKey h;
    l.fill(std::numeric_limits<std::int32_t>::max());
    h.fill(std::numeric_limits<std::int32_t>::min());
    bool clamped = false;
    for (std::size_t i = begin; i < end; ++i) {
      const Vec3 p = elems[i].Center();
      const CellKey k{CellCoord(p.x, inv, &clamped),
                      CellCoord(p.y, inv, &clamped),
                      CellCoord(p.z, inv, &clamped)};
      src[i] = Entry{k, static_cast<std::uint32_t>(i)};
      for (int a = 0; a < 3; ++a) {
        l[a] = std::min(l[a], k[a]);
        h[a] = std::max(h[a], k[a]);
      }
    }
    lo[w] = l;
    hi[w] = h;
    chunk_clamped[w] = clamped ? 1 : 0;
  });
  FlatGrid g;
  CellKey key_lo = lo[0];
  CellKey key_hi = hi[0];
  for (std::size_t w = 0; w < chunks; ++w) {
    for (int a = 0; a < 3; ++a) {
      key_lo[a] = std::min(key_lo[a], lo[w][a]);
      key_hi[a] = std::max(key_hi[a], hi[w][a]);
    }
    g.clamped = g.clamped || chunk_clamped[w] != 0;
  }

  // Stable LSD counting sort by (x, y, z): z digits first, each axis over
  // `key - key_lo` and only as many digits as its range needs. Per-chunk
  // histograms, a digit-major prefix and a per-chunk scatter keep equal
  // keys in input order at every chunk count.
  auto dst = std::make_unique_for_overwrite<Entry[]>(n);
  std::vector<std::uint32_t> hist(chunks * kDigits);
  for (int axis = 2; axis >= 0; --axis) {
    const auto base = static_cast<std::uint32_t>(key_lo[axis]);
    const int bits = std::bit_width(
        static_cast<std::uint32_t>(key_hi[axis]) - base);
    for (int shift = 0; shift < bits; shift += kDigitBits) {
      const auto digit = [&](const Entry& e) {
        return ((static_cast<std::uint32_t>(e.key[axis]) - base) >> shift) &
               (kDigits - 1);
      };
      par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                         std::size_t end) {
        std::uint32_t* h = &hist[w * kDigits];
        std::fill(h, h + kDigits, 0u);
        for (std::size_t i = begin; i < end; ++i) ++h[digit(src[i])];
      });
      std::uint32_t sum = 0;
      for (std::uint32_t d = 0; d < kDigits; ++d) {
        for (std::size_t w = 0; w < chunks; ++w) {
          const std::uint32_t count = hist[w * kDigits + d];
          hist[w * kDigits + d] = sum;
          sum += count;
        }
      }
      par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                         std::size_t end) {
        std::uint32_t* h = &hist[w * kDigits];
        for (std::size_t i = begin; i < end; ++i) {
          dst[h[digit(src[i])]++] = src[i];
        }
      });
      src.swap(dst);
    }
  }
  dst.reset();

  // Gather into cell order; each chunk records the cells that start in it.
  // The gather writes every box and id, so only the padding is zeroed and
  // the workers, not a serial fill, first touch the pages.
  g.stride = n + kBoxRunWidth;
  g.coords = std::make_unique_for_overwrite<float[]>(6 * g.stride);
  g.ids = std::make_unique_for_overwrite<ElementId[]>(n);
  float* const col[6] = {&g.coords[0],            &g.coords[g.stride],
                         &g.coords[2 * g.stride], &g.coords[3 * g.stride],
                         &g.coords[4 * g.stride], &g.coords[5 * g.stride]};
  for (float* c : col) std::fill(c + n, c + g.stride, 0.0f);
  std::vector<std::vector<std::uint32_t>> starts(chunks);
  par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                     std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      const Element& e = elems[src[p].index];
      col[0][p] = e.box.min.x;
      col[1][p] = e.box.min.y;
      col[2][p] = e.box.min.z;
      col[3][p] = e.box.max.x;
      col[4][p] = e.box.max.y;
      col[5][p] = e.box.max.z;
      g.ids[p] = e.id;
      if (p == 0 || src[p].key != src[p - 1].key) {
        starts[w].push_back(static_cast<std::uint32_t>(p));
      }
    }
  });
  std::size_t cells = 0;
  for (const auto& s : starts) cells += s.size();
  g.keys.reserve(cells);
  g.begin.reserve(cells + 1);
  for (const auto& s : starts) {
    for (const std::uint32_t p : s) {
      g.keys.push_back(src[p].key);
      g.begin.push_back(p);
    }
  }
  g.begin.push_back(static_cast<std::uint32_t>(n));
  return g;
}

/// Index of the first occupied cell not below `k`.
std::size_t LowerBound(const std::vector<CellKey>& keys, const CellKey& k) {
  return static_cast<std::size_t>(
      std::lower_bound(keys.begin(), keys.end(), k) - keys.begin());
}

/// Advances `*cursor` to `target`; true iff that cell is occupied.
bool Seek(const std::vector<CellKey>& keys, const CellKey& target,
          std::size_t* cursor) {
  std::size_t c = *cursor;
  while (c < keys.size() && keys[c] < target) ++c;
  *cursor = c;
  return c < keys.size() && keys[c] == target;
}

}  // namespace

std::vector<JoinPair> GridSelfJoin(const std::vector<Element>& elems,
                                   float eps, GridJoinOptions options,
                                   QueryCounters* counters,
                                   GridJoinStats* stats) {
  std::vector<JoinPair> out;
  if (elems.size() < 2) return out;
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;
  const std::uint32_t threads = par::ResolveThreads(options.threads);

  const ExtentBounds ext = Extents(elems, threads);
  float cell = options.cell_size > 0.0f ? options.cell_size
                                        : ext.max + eps + 1e-5f;
  cell = std::max(cell, 1e-5f);
  const FlatGrid g = BuildFlatGrid(elems, 1.0f / cell, threads);
  if (stats != nullptr) stats->cell_size = cell;

  // Small-cell shortcut precondition (§4.3): if every element extends at
  // least a full cell diagonal from its centre in every direction, two
  // same-cell centres always intersect. Conservative sufficient condition:
  // min extent >= 2 * cell diagonal. A clamped cell may hold centres that
  // are far apart, so any clamped key turns the shortcut off.
  const bool shortcut = options.small_cell_shortcut && eps == 0.0f &&
                        !g.clamped &&
                        ext.min >= 2.0f * cell * std::sqrt(3.0f);
  const BoxColumns cols = g.Columns();

  detail::RunDeterministicChunks(
      g.keys.size(), threads, &out, &c,
      stats != nullptr ? &stats->skipped_tests : nullptr,
      [&](detail::JoinShard* shard, std::size_t begin, std::size_t end) {
        if (begin == end) return;
        std::size_t cursor[13];
        for (int k = 0; k < 13; ++k) {
          cursor[k] = LowerBound(g.keys, Offset(g.keys[begin], kForward[k]));
        }
        const auto emit = [&](std::uint32_t i, std::uint32_t j) {
          shard->pairs.emplace_back(std::min(g.ids[i], g.ids[j]),
                                    std::max(g.ids[i], g.ids[j]));
        };
        for (std::size_t ci = begin; ci < end; ++ci) {
          const std::uint32_t b0 = g.begin[ci];
          const std::uint32_t b1 = g.begin[ci + 1];
          const std::uint64_t m = b1 - b0;
          shard->counters.nodes_visited += 1;
          // Within-cell pairs; the shortcut emits them untested.
          if (shortcut) {
            shard->skipped_tests += m * (m - 1) / 2;
            for (std::uint32_t i = b0; i < b1; ++i) {
              for (std::uint32_t j = i + 1; j < b1; ++j) emit(i, j);
            }
          } else {
            shard->counters.element_tests += m * (m - 1) / 2;
            BoxRunSelfMatch(cols, b0, b1, eps, emit);
          }
          // Forward neighbours (each unordered cell pair visited exactly
          // once).
          for (int k = 0; k < 13; ++k) {
            if (!Seek(g.keys, Offset(g.keys[ci], kForward[k]), &cursor[k])) {
              continue;
            }
            const std::uint32_t n0 = g.begin[cursor[k]];
            const std::uint32_t n1 = g.begin[cursor[k] + 1];
            shard->counters.structure_tests += 1;
            shard->counters.element_tests += m * (n1 - n0);
            BoxRunMatch<false>(cols, b0, b1, cols, n0, n1, eps, emit);
          }
        }
      });
  c.results += out.size();
  return out;
}

std::vector<JoinPair> GridJoin(const std::vector<Element>& a,
                               const std::vector<Element>& b, float eps,
                               GridJoinOptions options,
                               QueryCounters* counters,
                               GridJoinStats* stats) {
  std::vector<JoinPair> out;
  if (a.empty() || b.empty()) return out;
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;
  const std::uint32_t threads = par::ResolveThreads(options.threads);

  float cell = options.cell_size;
  if (cell <= 0.0f) {
    cell = std::max(Extents(a, threads).max, Extents(b, threads).max) + eps +
           1e-5f;
  }
  cell = std::max(cell, 1e-5f);
  const FlatGrid ga = BuildFlatGrid(a, 1.0f / cell, threads);
  const FlatGrid gb = BuildFlatGrid(b, 1.0f / cell, threads);
  if (stats != nullptr) stats->cell_size = cell;
  const BoxColumns a_cols = ga.Columns();
  const BoxColumns b_cols = gb.Columns();

  // For each b-cell (in ascending key order), probe the 27-neighbourhood
  // of a-cells (binary join has no symmetric halving). The offsets, in
  // (dx, dy, dz) nesting order, each keep a forward cursor into a's keys.
  int offsets[27][3];
  for (int i = 0; i < 27; ++i) {
    offsets[i][0] = i / 9 - 1;
    offsets[i][1] = i / 3 % 3 - 1;
    offsets[i][2] = i % 3 - 1;
  }
  detail::RunDeterministicChunks(
      gb.keys.size(), threads, &out, &c, nullptr,
      [&](detail::JoinShard* shard, std::size_t begin, std::size_t end) {
        if (begin == end) return;
        std::size_t cursor[27];
        for (int k = 0; k < 27; ++k) {
          cursor[k] = LowerBound(ga.keys, Offset(gb.keys[begin], offsets[k]));
        }
        for (std::size_t ci = begin; ci < end; ++ci) {
          const std::uint32_t b0 = gb.begin[ci];
          const std::uint32_t b1 = gb.begin[ci + 1];
          shard->counters.nodes_visited += 1;
          for (int k = 0; k < 27; ++k) {
            if (!Seek(ga.keys, Offset(gb.keys[ci], offsets[k]), &cursor[k])) {
              continue;
            }
            const std::uint32_t a0 = ga.begin[cursor[k]];
            const std::uint32_t a1 = ga.begin[cursor[k] + 1];
            shard->counters.structure_tests += 1;
            shard->counters.element_tests +=
                static_cast<std::uint64_t>(b1 - b0) * (a1 - a0);
            // The a-side box is PairMatches' first argument.
            BoxRunMatch<true>(b_cols, b0, b1, a_cols, a0, a1, eps,
                              [&](std::uint32_t i, std::uint32_t j) {
                                shard->pairs.emplace_back(ga.ids[j],
                                                          gb.ids[i]);
                              });
          }
        }
      });
  c.results += out.size();
  return out;
}

}  // namespace simspatial::join
