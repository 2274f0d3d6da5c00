#include "util/rng.h"

#include <cmath>
#include <numeric>

namespace tsufail {

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method: draws pairs of independent standard normals.
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::exponential(double mean) noexcept {
  // -mean * log(1 - U); 1 - U avoids log(0) since uniform() < 1.
  return -mean * std::log1p(-uniform());
}

double Rng::weibull(double shape, double scale) noexcept {
  // Inverse transform: scale * (-log(1-U))^(1/shape).
  return scale * std::pow(-std::log1p(-uniform()), 1.0 / shape);
}

double Rng::lognormal(double mu_log, double sigma_log) noexcept {
  return std::exp(normal(mu_log, sigma_log));
}

double Rng::gamma(double shape, double scale) noexcept {
  // Marsaglia & Tsang (2000).  For shape < 1, boost via Gamma(shape+1)
  // and the U^(1/shape) correction.
  if (shape < 1.0) {
    const double u = uniform();
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v * scale;
  }
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth inversion in the log domain is unnecessary at this size.
    const double limit = std::exp(-mean);
    double product = uniform();
    std::uint64_t count = 0;
    while (product > limit) {
      product *= uniform();
      ++count;
    }
    return count;
  }
  // Large mean: split recursively (Poisson is infinitely divisible), keeping
  // each sub-draw in the fast inversion regime. Depth is O(log(mean)).
  const double half = std::floor(mean / 2.0);
  return poisson(half) + poisson(mean - half);
}

Result<DiscreteSampler> DiscreteSampler::create(std::span<const double> weights) {
  if (weights.empty())
    return Error(ErrorKind::kDomain, "DiscreteSampler: empty weight list");
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w))
      return Error(ErrorKind::kDomain, "DiscreteSampler: weights must be finite and >= 0");
    total += w;
  }
  if (total <= 0.0)
    return Error(ErrorKind::kDomain, "DiscreteSampler: total weight must be positive");

  const std::size_t n = weights.size();
  DiscreteSampler sampler;
  sampler.prob_.assign(n, 0.0);
  sampler.alias_.assign(n, 0);
  sampler.normalized_.resize(n);

  // Vose's stable alias-table construction.
  std::vector<double> scaled(n);
  std::vector<std::size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sampler.normalized_[i] = weights[i] / total;
    scaled[i] = sampler.normalized_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    large.pop_back();
    sampler.prob_[s] = scaled[s];
    sampler.alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::size_t i : large) sampler.prob_[i] = 1.0;
  for (std::size_t i : small) sampler.prob_[i] = 1.0;  // numerical leftovers
  return sampler;
}

std::size_t DiscreteSampler::sample(Rng& rng) const noexcept {
  const std::size_t column = static_cast<std::size_t>(rng.uniform_index(prob_.size()));
  return rng.uniform() < prob_[column] ? column : alias_[column];
}

}  // namespace tsufail
