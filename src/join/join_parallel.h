// SimSpatial — deterministic parallel scaffolding shared by the joins.
//
// Every join in this directory parallelises the same way MemGrid's
// SelfJoin does (see common/parallel.h): the work units — the grid join's
// occupied cells in ascending key order, flat PBSM cell indices, TOUCH
// hierarchy nodes — already form a deterministically-ordered sequence, so
// we split that sequence into contiguous chunks whose boundaries depend
// only on (n, chunks), give each worker a private shard (pairs +
// counters), and concatenate the shards in chunk order. The merged output
// is bit-identical to the serial result — same pairs, same order, same
// counter totals — for ANY thread count, including 0/1 (ParallelChunks
// runs a single chunk inline on the caller).

#ifndef SIMSPATIAL_JOIN_JOIN_PARALLEL_H_
#define SIMSPATIAL_JOIN_JOIN_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/counters.h"
#include "common/parallel.h"
#include "join/spatial_join.h"

namespace simspatial::join::detail {

/// Work units per chunk below which fanning out is not worth a dispatch.
inline constexpr std::size_t kJoinGrain = 16;

/// Private per-worker output: merged in chunk order after the fan-out.
struct JoinShard {
  std::vector<JoinPair> pairs;
  QueryCounters counters;
  std::uint64_t skipped_tests = 0;  ///< Grid-join small-cell shortcut.
};

/// Run `work(&shard, begin, end)` over [0, n) in contiguous deterministic
/// chunks and merge the shards in chunk order: pairs appended to `out`,
/// counters summed into `c`, skipped-test tallies into `skipped` (may be
/// null). `threads` is the raw user knob (kThreadsAuto resolves to the
/// hardware concurrency; 0 and 1 run serially on the calling thread).
template <typename Work>
void RunDeterministicChunks(std::size_t n, std::uint32_t threads,
                            std::vector<JoinPair>* out, QueryCounters* c,
                            std::uint64_t* skipped, const Work& work) {
  const std::size_t chunks =
      par::ChunkCount(par::ResolveThreads(threads), n, kJoinGrain);
  std::vector<JoinShard> shards(chunks);
  par::ParallelChunks(chunks, n,
                      [&](std::size_t w, std::size_t begin, std::size_t end) {
                        work(&shards[w], begin, end);
                      });
  std::size_t total = out->size();
  for (const JoinShard& s : shards) total += s.pairs.size();
  out->reserve(total);
  for (JoinShard& s : shards) {
    out->insert(out->end(), s.pairs.begin(), s.pairs.end());
    *c += s.counters;
    if (skipped != nullptr) *skipped += s.skipped_tests;
  }
}

}  // namespace simspatial::join::detail

#endif  // SIMSPATIAL_JOIN_JOIN_PARALLEL_H_
