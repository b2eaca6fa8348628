// SimSpatial — neural-plasticity displacement model.
//
// §4.1 characterises the update workload: "In each of the one thousand
// simulation steps ... all elements move, but only by 0.04 µm ... on average
// with less than 0.5% of elements moving more than 0.1 µm." The model here
// is a per-step isotropic Gaussian random walk whose scale is calibrated so
// the displacement magnitude statistics match exactly:
//   |d| with d ~ N(0, sigma^2 I_3) follows a Maxwell distribution with
//   mean = 2*sigma*sqrt(2/pi), so sigma = mean * sqrt(pi/2) / 2.
// For mean 0.04 µm this yields sigma ≈ 0.02507 µm, and
// P(|d| > 0.1 µm) = P(chi_3 > 0.1/sigma) ≈ 0.24% — inside the paper's
// "<0.5%" bound. `DisplacementStats` verifies both in tests.
//
// Stream and threads. Each Step draws one step seed from the model's Rng.
// The elements are cut into fixed blocks of kBlockElements, and block b
// draws from its own Rng seeded with SplitMix64(step seed + (b + 1) *
// golden ratio), element by element in ascending order: the moving coin
// (when moving_fraction < 1) and then three normals. The trajectory is
// therefore a pure function of (config.seed, step, element position).
// Blocks run on the thread pool (at the hardware concurrency) in contiguous
// runs; each block sums its magnitudes in element order, and the block
// sums, maxima and counts merge in block order, so elements, capsules,
// updates and every DisplacementStats field do not depend on the thread
// count. tests/parallel_test.cpp recomputes this stream serially and
// checks Step against it bit for bit.

#ifndef SIMSPATIAL_DATAGEN_PLASTICITY_H_
#define SIMSPATIAL_DATAGEN_PLASTICITY_H_

#include <vector>

#include "common/element.h"
#include "common/rng.h"
#include "datagen/neuron.h"

namespace simspatial::datagen {

/// Configuration of the plasticity random walk.
struct PlasticityConfig {
  std::uint64_t seed = 23;
  /// Target mean displacement magnitude per step (µm). Paper: 0.04.
  float mean_displacement = 0.04f;
  /// Fraction of elements that move at all in a step. Paper: "almost all";
  /// 1.0 by default. The §4.1 bench sweeps this to find the update-vs-
  /// rebuild crossover.
  float moving_fraction = 1.0f;
};

/// Aggregate displacement statistics of one step (validated against §4.1).
struct DisplacementStats {
  double mean_magnitude = 0;
  double max_magnitude = 0;
  /// Fraction of all elements displaced by more than 0.1 µm.
  double fraction_over_0p1 = 0;
  std::size_t moved = 0;
};

/// Applies per-step displacements to a dataset in place.
class PlasticityModel {
 public:
  PlasticityModel(PlasticityConfig config, const AABB& universe);

  /// Gaussian sigma per axis implied by the configured mean magnitude.
  float sigma() const { return sigma_; }

  /// Elements per seeded block: the unit of the stream and of the parallel
  /// split. Fixed, so the trajectory does not depend on the thread count.
  static constexpr std::size_t kBlockElements = 4096;

  /// Advance `elements` (boxes translated rigidly) one step; replaces the
  /// contents of `updates` with one ElementUpdate per moved element, in
  /// ascending element order, and returns statistics. Elements reflect off
  /// the universe boundary.
  DisplacementStats Step(std::vector<Element>* elements,
                         std::vector<ElementUpdate>* updates);

  /// Same, but also moves the exact capsule primitives in lockstep (used by
  /// the simulation driver so filter and refine stay consistent).
  DisplacementStats Step(std::vector<Element>* elements,
                         std::vector<Capsule>* capsules,
                         std::vector<ElementUpdate>* updates);

 private:
  PlasticityConfig config_;
  AABB universe_;
  float sigma_;
  Rng rng_;
};

}  // namespace simspatial::datagen

#endif  // SIMSPATIAL_DATAGEN_PLASTICITY_H_
