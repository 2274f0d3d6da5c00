// Deterministic pseudo-random generation for the fleet simulator.
//
// We ship our own generator instead of std::mt19937 because reproducibility
// across standard libraries matters: calibrated synthetic logs and all
// paper-reproduction benches must be bit-identical on every platform.
// The engine is xoshiro256** (Blackman & Vigna), seeded via SplitMix64.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace tsufail {

/// SplitMix64: used to expand a single 64-bit seed into engine state.
/// Also a fine stateless hash for deriving per-stream seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless seed fork: the seed for child stream `stream` of `base`.
/// This is THE seed-derivation contract for every stochastic stage in the
/// library: sim::replicate_seed(base, r) is fork_seed(base, r), and
/// ops-layer stages fork again from the replicate seed with a fixed
/// per-stage stream constant.  Golden-ratio stride over the stream index,
/// then a splitmix64 finalizer — stable across releases (tests pin it),
/// uncorrelated between adjacent streams, never equal to `base` itself.
constexpr std::uint64_t fork_seed(std::uint64_t base, std::uint64_t stream) noexcept {
  std::uint64_t state = base ^ ((stream + 1) * 0x9E3779B97F4A7C15ULL);
  return splitmix64(state);
}

/// xoshiro256**: 256-bit state, period 2^256 - 1, passes BigCrush.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from a single 64-bit value.
  explicit Rng(std::uint64_t seed = 0x1234ABCDULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child generator; `stream` selects the stream.
  /// Used to give each failure category its own reproducible stream, so
  /// adding a category never perturbs the draws of the others.
  Rng fork(std::uint64_t stream) const noexcept {
    std::uint64_t sm = state_[0] ^ (stream * 0x9E3779B97F4A7C15ULL) ^ state_[3];
    Rng child(0);
    for (auto& word : child.state_) word = splitmix64(sm);
    return child;
  }

  // --- Variates -------------------------------------------------------

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Precondition: lo <= hi.
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Precondition: n > 0. Lemire's method.
  /// Defined inline: it is the bootstrap resample loop's only call.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless unbiased bounded generation.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    std::uint64_t low = static_cast<std::uint64_t>(m);
    if (low < n) {
      const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via the polar (Marsaglia) method.
  double normal() noexcept;
  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) noexcept { return mean + sigma * normal(); }

  /// Exponential with the given mean (mean > 0).
  double exponential(double mean) noexcept;

  /// Weibull with shape k > 0 and scale lambda > 0.
  double weibull(double shape, double scale) noexcept;

  /// Lognormal: exp(Normal(mu_log, sigma_log)).
  double lognormal(double mu_log, double sigma_log) noexcept;

  /// Gamma with shape k > 0 and scale theta > 0 (Marsaglia-Tsang).
  double gamma(double shape, double scale) noexcept;

  /// Poisson with the given mean >= 0 (inversion for small, PTRS-free
  /// normal approximation with rejection fallback for large means).
  std::uint64_t poisson(double mean) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Samples indices 0..n-1 with the given relative weights in O(1) per draw
/// (Walker/Vose alias method).  Weights need not be normalized.
class DiscreteSampler {
 public:
  /// Builds the alias table. Errors: empty weights, a negative weight, or
  /// all-zero total weight.
  static Result<DiscreteSampler> create(std::span<const double> weights);

  std::size_t size() const noexcept { return prob_.size(); }

  /// Draws one index according to the weights.
  std::size_t sample(Rng& rng) const noexcept;

  /// Normalized probability of index i (for tests). Precondition: i < size().
  double probability(std::size_t i) const noexcept { return normalized_[i]; }

 private:
  DiscreteSampler() = default;
  std::vector<double> prob_;         // alias acceptance thresholds
  std::vector<std::size_t> alias_;   // alias targets
  std::vector<double> normalized_;   // normalized input weights
};

}  // namespace tsufail
