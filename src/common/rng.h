// SimSpatial — deterministic random number generation.
//
// All stochastic components (data generators, LSH hash families, kinetics
// models) draw from this RNG so that every experiment in the repository is
// reproducible from a single seed. xoshiro256++ is used for speed; the
// quality is far beyond what spatial workload generation requires.

#ifndef SIMSPATIAL_COMMON_RNG_H_
#define SIMSPATIAL_COMMON_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/geometry.h"

namespace simspatial {

/// The SplitMix64 finalizer: a bijective 64-bit mix whose outputs for
/// nearby inputs are unrelated. Derives independent seeds from structured
/// ones, e.g. a per-block stream from (step seed, block index).
constexpr std::uint64_t SplitMix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ PRNG with SplitMix64 seeding.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  /// Re-seed the full state from a single 64-bit value. The state words are
  /// SplitMix64(seed + k * golden ratio) for k = 1..4, so seeds that differ
  /// by a multiple of the golden ratio share state words: derive related
  /// seeds through SplitMix64 rather than by stepping them linearly.
  void Seed(std::uint64_t seed) {
    for (auto& word : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      word = SplitMix64(seed);
    }
  }

  /// Uniform 64-bit value.
  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, n).
  std::uint64_t NextBelow(std::uint64_t n) { return NextU64() % n; }

  /// Uniform float in [0, 1).
  float NextFloat() {
    return static_cast<float>(NextU64() >> 40) * 0x1.0p-24f;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [lo, hi).
  float Uniform(float lo, float hi) { return lo + (hi - lo) * NextFloat(); }

  /// Standard normal via Box–Muller (no state caching; simple and branch-
  /// predictable). Not cheap: a log, a cos and a sqrt per draw, ~30 ns.
  /// Three draws per element made the plasticity random walk the largest
  /// phase of the Figure-1 loop while it ran serially, which is why
  /// PlasticityModel::Step draws from per-block streams on the pool.
  float Normal() {
    float u1 = NextFloat();
    while (u1 <= 1e-9f) u1 = NextFloat();
    const float u2 = NextFloat();
    return std::sqrt(-2.0f * std::log(u1)) *
           std::cos(6.28318530717958647692f * u2);
  }

  /// Normal with mean/stddev.
  float Normal(float mean, float stddev) { return mean + stddev * Normal(); }

  /// Uniform point inside `box`.
  Vec3 PointIn(const AABB& box) {
    return Vec3(Uniform(box.min.x, box.max.x), Uniform(box.min.y, box.max.y),
                Uniform(box.min.z, box.max.z));
  }

  /// Uniform unit vector (Marsaglia method).
  Vec3 UnitVector() {
    while (true) {
      const float a = Uniform(-1.0f, 1.0f);
      const float b = Uniform(-1.0f, 1.0f);
      const float s = a * a + b * b;
      if (s >= 1.0f || s <= 1e-12f) continue;
      const float t = 2.0f * std::sqrt(1.0f - s);
      return Vec3(a * t, b * t, 1.0f - 2.0f * s);
    }
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// Exact Zipf(s) sampler over ranks [0, n): P(i) proportional to
/// 1/(i+1)^s, drawn by inverse CDF over the precomputed cumulative
/// harmonic weights (one binary search per sample). s = 0 degenerates to
/// uniform; larger s concentrates mass on the low ranks — the skewed
/// popularity the serving benchmarks model (hot spatial regions probed
/// far more often than the tail). n is expected to be modest (workload
/// hotspot sets, thousands), so the O(n) table and O(log n) draw are both
/// negligible next to the index work the samples drive. Deterministic:
/// the sequence is a pure function of (n, s, the caller's Rng state).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cum_(n) {
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cum_[i] = acc;
    }
  }

  /// Draw one rank in [0, n).
  std::size_t Sample(Rng* rng) const {
    const double u = rng->NextDouble() * cum_.back();
    return static_cast<std::size_t>(
        std::lower_bound(cum_.begin(), cum_.end(), u) - cum_.begin());
  }

  /// Analytic probability of rank i (for distribution-shape tests).
  double Pmf(std::size_t i) const {
    const double prev = i == 0 ? 0.0 : cum_[i - 1];
    return (cum_[i] - prev) / cum_.back();
  }

  std::size_t size() const { return cum_.size(); }

 private:
  std::vector<double> cum_;  ///< cum_[i] = sum_{j<=i} 1/(j+1)^s.
};

}  // namespace simspatial

#endif  // SIMSPATIAL_COMMON_RNG_H_
