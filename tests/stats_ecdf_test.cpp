#include "stats/ecdf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "stats/distribution.h"
#include "stats/kernels.h"
#include "util/rng.h"

namespace tsufail::stats {
namespace {

TEST(Ecdf, EmptySampleIsError) {
  EXPECT_FALSE(Ecdf::create(std::vector<double>{}).ok());
}

TEST(Ecdf, EvaluateStepFunction) {
  auto ecdf = Ecdf::create(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(ecdf.ok());
  EXPECT_DOUBLE_EQ(ecdf.value().evaluate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.value().evaluate(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf.value().evaluate(2.5), 0.5);
  EXPECT_DOUBLE_EQ(ecdf.value().evaluate(4.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.value().evaluate(100.0), 1.0);
}

TEST(Ecdf, HandlesTies) {
  auto ecdf = Ecdf::create(std::vector<double>{2.0, 2.0, 2.0, 5.0});
  ASSERT_TRUE(ecdf.ok());
  EXPECT_DOUBLE_EQ(ecdf.value().evaluate(2.0), 0.75);
  EXPECT_DOUBLE_EQ(ecdf.value().evaluate(1.9), 0.0);
}

TEST(Ecdf, QuantileInverse) {
  auto ecdf = Ecdf::create(std::vector<double>{10.0, 20.0, 30.0, 40.0});
  ASSERT_TRUE(ecdf.ok());
  EXPECT_DOUBLE_EQ(ecdf.value().quantile(0.25).value(), 10.0);
  EXPECT_DOUBLE_EQ(ecdf.value().quantile(0.5).value(), 20.0);
  EXPECT_DOUBLE_EQ(ecdf.value().quantile(0.75).value(), 30.0);
  EXPECT_DOUBLE_EQ(ecdf.value().quantile(1.0).value(), 40.0);
  EXPECT_DOUBLE_EQ(ecdf.value().quantile(0.0).value(), 10.0);
  EXPECT_FALSE(ecdf.value().quantile(1.5).ok());
}

TEST(Ecdf, StatsAccessors) {
  auto ecdf = Ecdf::create(std::vector<double>{3.0, 1.0, 2.0});
  ASSERT_TRUE(ecdf.ok());
  EXPECT_EQ(ecdf.value().count(), 3u);
  EXPECT_DOUBLE_EQ(ecdf.value().min(), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.value().max(), 3.0);
  EXPECT_DOUBLE_EQ(ecdf.value().mean(), 2.0);
}

TEST(Ecdf, CurveEndsAtExtremes) {
  Rng rng(3);
  std::vector<double> sample(500);
  for (auto& x : sample) x = rng.exponential(10.0);
  auto ecdf = Ecdf::create(sample);
  ASSERT_TRUE(ecdf.ok());
  const auto curve = ecdf.value().curve(50);
  ASSERT_EQ(curve.size(), 50u);
  EXPECT_DOUBLE_EQ(curve.front().first, ecdf.value().min());
  EXPECT_DOUBLE_EQ(curve.back().first, ecdf.value().max());
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
  // Monotone in both coordinates.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LE(curve[i - 1].second, curve[i].second);
  }
}

TEST(Ecdf, CurveOnTinySample) {
  auto ecdf = Ecdf::create(std::vector<double>{5.0});
  ASSERT_TRUE(ecdf.ok());
  const auto curve = ecdf.value().curve(10);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_DOUBLE_EQ(curve[0].second, 1.0);
}

TEST(KsStatistic, IdenticalSamplesIsZero) {
  auto a = Ecdf::create(std::vector<double>{1, 2, 3, 4, 5});
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(ks_statistic(a.value(), a.value()), 0.0);
}

TEST(KsStatistic, DisjointSamplesIsOne) {
  auto a = Ecdf::create(std::vector<double>{1, 2, 3});
  auto b = Ecdf::create(std::vector<double>{10, 11, 12});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(ks_statistic(a.value(), b.value()), 1.0);
}

TEST(KsStatistic, SymmetricInArguments) {
  Rng rng(9);
  std::vector<double> x(200), y(300);
  for (auto& v : x) v = rng.exponential(5.0);
  for (auto& v : y) v = rng.exponential(8.0);
  auto a = Ecdf::create(x);
  auto b = Ecdf::create(y);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(ks_statistic(a.value(), b.value()), ks_statistic(b.value(), a.value()));
}

TEST(StatsKernels, AdjacentDeltasOnSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values{1.0, kInf, kInf, std::nan(""), kTiny, 0.0, -0.0, -kInf};
  const auto deltas = adjacent_deltas(values);
  ASSERT_EQ(deltas.size(), values.size() - 1);
  EXPECT_EQ(deltas[0], kInf);
  EXPECT_TRUE(std::isnan(deltas[1]));  // inf - inf
  EXPECT_TRUE(std::isnan(deltas[2]));
  EXPECT_TRUE(std::isnan(deltas[3]));
  EXPECT_EQ(deltas[4], -kTiny);  // denormal difference is exact
  EXPECT_EQ(deltas[5], 0.0);
  EXPECT_TRUE(std::signbit(deltas[5]));  // -0.0 - 0.0
  EXPECT_EQ(deltas[6], -kInf);
  EXPECT_TRUE(adjacent_deltas(std::vector<double>{}).empty());
  EXPECT_TRUE(adjacent_deltas(std::vector<double>{kInf}).empty());
}

TEST(StatsKernels, GatherPreservesSpecialValueBits) {
  const std::vector<double> values{std::nan("7"), -0.0, std::numeric_limits<double>::denorm_min(),
                                   -std::numeric_limits<double>::infinity(), 42.5};
  const std::vector<std::uint32_t> indices{4, 0, 1, 1, 3, 2, 0};
  const auto out = gather(values, indices);
  ASSERT_EQ(out.size(), indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&out[i], &values[indices[i]], sizeof(double))) << i;
  }
  EXPECT_TRUE(gather(values, std::vector<std::uint32_t>{}).empty());
}

TEST(StatsKernels, KsDistanceOnInfinitiesDenormalsAndTies) {
  // The merge sweep must equal the definition — the largest
  // |F_a(x) - F_b(x)| over every sample point, each F an upper_bound
  // count over its size — bit for bit, on samples full of infinities,
  // denormals and tie runs.
  const auto adversarial_sorted = [](std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> out;
    while (out.size() < n) {
      const double roll = rng.uniform();
      double v = rng.lognormal(2.0, 1.5);
      if (roll < 0.1) {
        v = rng.bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
      } else if (roll < 0.2) {
        v = std::numeric_limits<double>::denorm_min() * static_cast<double>(rng.uniform_index(5));
      }
      const std::size_t reps = rng.bernoulli(0.5) ? 1 + rng.uniform_index(4) : 1;
      for (std::size_t r = 0; r < reps && out.size() < n; ++r) out.push_back(v);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto by_definition = [](const std::vector<double>& a, const std::vector<double>& b) {
    const auto cdf = [](const std::vector<double>& s, double x) {
      return static_cast<double>(std::upper_bound(s.begin(), s.end(), x) - s.begin()) /
             static_cast<double>(s.size());
    };
    double worst = 0.0;
    for (const auto* sample : {&a, &b}) {
      for (const double x : *sample) worst = std::max(worst, std::abs(cdf(a, x) - cdf(b, x)));
    }
    return worst;
  };
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{129}}) {
    const auto a = adversarial_sorted(n, 60 + n);
    const auto b = adversarial_sorted(n + 37, 70 + n);
    const double got = ks_distance_sorted(a, b);
    const double want = by_definition(a, b);
    EXPECT_EQ(0, std::memcmp(&got, &want, sizeof got)) << "n=" << n;
  }
  const std::vector<double> ties_a(64, 3.5), ties_b(17, 3.5);
  EXPECT_EQ(ks_distance_sorted(ties_a, ties_b), 0.0);
  EXPECT_EQ(ks_distance_sorted(std::span<const double>{}, ties_b), 0.0);
}

TEST(KsAgainstModel, ExponentialSampleMatchesItsModel) {
  Rng rng(21);
  std::vector<double> sample(5000);
  for (auto& x : sample) x = rng.exponential(15.0);
  auto ecdf = Ecdf::create(sample);
  ASSERT_TRUE(ecdf.ok());
  const Exponential model{15.0};
  const double d = ks_statistic_against(ecdf.value(), [&](double x) { return model.cdf(x); });
  EXPECT_LT(d, 0.03);  // ~1.36/sqrt(5000) = 0.019 at the 5% level
  // And a clearly wrong model is clearly worse.
  const Exponential wrong{60.0};
  const double d_wrong =
      ks_statistic_against(ecdf.value(), [&](double x) { return wrong.cdf(x); });
  EXPECT_GT(d_wrong, 0.3);
}

TEST(DkwBand, KnownValuesAndErrors) {
  // sqrt(ln(2/0.05) / (2 * 100)) = 0.1358...
  EXPECT_NEAR(dkw_band_halfwidth(100, 0.95).value(), 0.13581, 1e-4);
  // Quadruple the sample, halve the band.
  EXPECT_NEAR(dkw_band_halfwidth(400, 0.95).value(),
              dkw_band_halfwidth(100, 0.95).value() / 2.0, 1e-12);
  EXPECT_FALSE(dkw_band_halfwidth(0, 0.95).ok());
  EXPECT_FALSE(dkw_band_halfwidth(10, 1.0).ok());
}

TEST(DkwBand, CoversTrueCdfOnSimulatedSample) {
  Rng rng(33);
  std::vector<double> sample(2000);
  for (auto& x : sample) x = rng.exponential(10.0);
  const auto ecdf = Ecdf::create(sample).value();
  const double band = dkw_band_halfwidth(sample.size(), 0.99).value();
  const Exponential truth{10.0};
  for (double x = 0.5; x < 50.0; x += 0.5) {
    EXPECT_NEAR(ecdf.evaluate(x), truth.cdf(x), band + 1e-12) << x;
  }
}

// Property sweep: ECDF invariants on random samples.
class EcdfProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdfProperties, MonotoneNormalizedAndQuantileConsistent) {
  Rng rng(GetParam() * 131);
  std::vector<double> sample(1 + rng.uniform_index(400));
  for (auto& x : sample) x = rng.normal(50.0, 20.0);
  auto ecdf = Ecdf::create(sample);
  ASSERT_TRUE(ecdf.ok());

  double prev = 0.0;
  for (double x = -50.0; x <= 150.0; x += 10.0) {
    const double f = ecdf.value().evaluate(x);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  // For every q, F(quantile(q)) >= q (inverse-CDF galois connection).
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double v = ecdf.value().quantile(q).value();
    EXPECT_GE(ecdf.value().evaluate(v) + 1e-12, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperties, ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace tsufail::stats
