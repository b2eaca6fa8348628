#include "datagen/plasticity.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"

namespace simspatial::datagen {

namespace {

/// One block's share of DisplacementStats.
struct BlockTally {
  double sum = 0;
  double max = 0;
  std::size_t over = 0;
  std::size_t moved = 0;
};

// Translate a box rigidly by `d`, reflecting it into the universe if the
// translation would push it outside.
AABB TranslateReflected(const AABB& box, Vec3 d, const AABB& universe) {
  AABB moved = box.Translated(d);
  for (int axis = 0; axis < 3; ++axis) {
    const float under = universe.min[axis] - moved.min[axis];
    if (under > 0) {
      moved.min[axis] += 2 * under;
      moved.max[axis] += 2 * under;
    }
    const float over = moved.max[axis] - universe.max[axis];
    if (over > 0) {
      moved.min[axis] -= 2 * over;
      moved.max[axis] -= 2 * over;
    }
  }
  return moved;
}

}  // namespace

PlasticityModel::PlasticityModel(PlasticityConfig config, const AABB& universe)
    : config_(config),
      universe_(universe),
      // Maxwell mean = 2*sigma*sqrt(2/pi)  =>  sigma = mean/2 * sqrt(pi/2).
      sigma_(config.mean_displacement * 0.5f *
             std::sqrt(3.14159265358979323846f / 2.0f)),
      rng_(config.seed) {}

DisplacementStats PlasticityModel::Step(std::vector<Element>* elements,
                                        std::vector<ElementUpdate>* updates) {
  return Step(elements, nullptr, updates);
}

DisplacementStats PlasticityModel::Step(std::vector<Element>* elements,
                                        std::vector<Capsule>* capsules,
                                        std::vector<ElementUpdate>* updates) {
  const std::size_t n = elements->size();
  const std::size_t blocks = (n + kBlockElements - 1) / kBlockElements;
  const std::uint64_t step_seed = rng_.NextU64();
  const bool all_move = !(config_.moving_fraction < 1.0f);
  // Block b writes its updates from slot b * kBlockElements on; the merge
  // below closes the gaps that non-moving elements leave.
  if (updates != nullptr) updates->resize(n);
  ElementUpdate* const out = updates != nullptr ? updates->data() : nullptr;
  std::vector<BlockTally> tallies(blocks);

  const auto run_block = [&](std::size_t b) {
    Rng rng(SplitMix64(step_seed + (b + 1) * 0x9e3779b97f4a7c15ULL));
    const std::size_t begin = b * kBlockElements;
    const std::size_t end = std::min(n, begin + kBlockElements);
    BlockTally t;
    for (std::size_t i = begin; i < end; ++i) {
      if (!all_move && rng.NextFloat() >= config_.moving_fraction) continue;
      // Drawn one per statement: the stream order must not depend on the
      // compiler's argument evaluation order.
      const float dx = rng.Normal(0.0f, sigma_);
      const float dy = rng.Normal(0.0f, sigma_);
      const float dz = rng.Normal(0.0f, sigma_);
      const Vec3 d(dx, dy, dz);
      const double mag = d.Norm();
      t.sum += mag;
      t.max = std::max(t.max, mag);
      if (mag > 0.1) ++t.over;
      Element& e = (*elements)[i];
      const AABB before = e.box;
      e.box = TranslateReflected(e.box, d, universe_);
      if (capsules != nullptr) {
        // Apply the *effective* translation (after reflection) to the
        // capsule so primitive and box stay congruent.
        const Vec3 eff = e.box.min - before.min;
        Capsule& c = (*capsules)[i];
        c.a += eff;
        c.b += eff;
      }
      if (out != nullptr) out[begin + t.moved] = ElementUpdate(e.id, e.box);
      ++t.moved;
    }
    tallies[b] = t;
  };
  par::ParallelChunks(
      par::ChunkCount(par::ResolveThreads(par::kThreadsAuto), blocks, 1),
      blocks, [&](std::size_t, std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b) run_block(b);
      });

  // Merge in block order: the statistics do not depend on the chunking,
  // and shifting each block's updates left keeps them in element order.
  DisplacementStats stats;
  double sum = 0;
  std::size_t over_threshold = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const BlockTally& t = tallies[b];
    if (out != nullptr && stats.moved != b * kBlockElements) {
      std::copy_n(out + b * kBlockElements, t.moved, out + stats.moved);
    }
    sum += t.sum;
    stats.max_magnitude = std::max(stats.max_magnitude, t.max);
    over_threshold += t.over;
    stats.moved += t.moved;
  }
  if (updates != nullptr) updates->resize(stats.moved);
  stats.mean_magnitude = stats.moved > 0 ? sum / stats.moved : 0.0;
  stats.fraction_over_0p1 =
      n == 0 ? 0.0 : static_cast<double>(over_threshold) / n;
  return stats;
}

}  // namespace simspatial::datagen
