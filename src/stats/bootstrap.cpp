#include "stats/bootstrap.h"

#include <algorithm>
#include <vector>

#include "stats/descriptive.h"
#include "util/parallel.h"

namespace tsufail::stats {
namespace {

/// Replicates per RNG shard.  The shard partition is a function of
/// `replicates` alone, so the same draws happen at any thread count.
constexpr std::size_t kShardSize = 128;

}  // namespace

Result<ConfidenceInterval> bootstrap_ci(
    std::span<const double> sample,
    const std::function<double(std::span<const double>)>& statistic, Rng& rng,
    std::size_t replicates, double level, std::size_t jobs) {
  if (sample.empty())
    return Error(ErrorKind::kDomain, "bootstrap_ci: empty sample");
  if (replicates == 0)
    return Error(ErrorKind::kDomain, "bootstrap_ci: need at least one replicate");
  if (!(level > 0.0 && level < 1.0))
    return Error(ErrorKind::kDomain, "bootstrap_ci: level must be in (0,1)");

  ConfidenceInterval ci;
  ci.point = statistic(sample);  // hoisted: computed once, before any resampling
  ci.level = level;

  // Advance the caller's generator once so consecutive calls differ, then
  // fork one child stream per shard off the advanced state.
  rng();
  const std::size_t n = sample.size();
  const std::size_t shard_count = (replicates + kShardSize - 1) / kShardSize;

  std::vector<double> replicate_stats(replicates);
  // Per worker: the resample buffer, reused across that worker's shards.
  util::parallel_for(shard_count, jobs, [&] {
    return [&, resample = std::vector<double>(n)](std::size_t shard) mutable {
      Rng shard_rng = rng.fork(shard);
      const std::size_t begin = shard * kShardSize;
      const std::size_t end = std::min(begin + kShardSize, replicates);
      for (std::size_t r = begin; r < end; ++r) {
        for (double& x : resample) x = sample[shard_rng.uniform_index(n)];
        replicate_stats[r] = statistic(resample);
      }
    };
  });

  std::sort(replicate_stats.begin(), replicate_stats.end());
  const double alpha = (1.0 - level) / 2.0;
  ci.low = quantile_sorted(replicate_stats, alpha).value();
  ci.high = quantile_sorted(replicate_stats, 1.0 - alpha).value();
  return ci;
}

Result<ConfidenceInterval> bootstrap_mean_ci(std::span<const double> sample, Rng& rng,
                                             std::size_t replicates, double level,
                                             std::size_t jobs) {
  return bootstrap_ci(
      sample, [](std::span<const double> s) { return mean(s); }, rng, replicates, level, jobs);
}

Result<ConfidenceInterval> bootstrap_median_ci(std::span<const double> sample, Rng& rng,
                                               std::size_t replicates, double level,
                                               std::size_t jobs) {
  return bootstrap_ci(
      sample, [](std::span<const double> s) { return quantile(s, 0.5).value_or(0.0); }, rng,
      replicates, level, jobs);
}

}  // namespace tsufail::stats
