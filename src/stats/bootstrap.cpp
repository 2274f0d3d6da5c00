#include "stats/bootstrap.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "stats/descriptive.h"

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
  const auto run_shard = [&](std::size_t shard, std::vector<double>& resample) {
    Rng shard_rng = rng.fork(shard);
    const std::size_t begin = shard * kShardSize;
    const std::size_t end = std::min(begin + kShardSize, replicates);
    for (std::size_t r = begin; r < end; ++r) {
      for (double& x : resample) x = sample[shard_rng.uniform_index(n)];
      replicate_stats[r] = statistic(resample);
    }
  };

  std::size_t workers = jobs == 0 ? std::max(1u, std::thread::hardware_concurrency()) : jobs;
  workers = std::min(workers, shard_count);
  if (workers <= 1) {
    std::vector<double> resample(n);
    for (std::size_t shard = 0; shard < shard_count; ++shard) run_shard(shard, resample);
  } else {
    std::atomic<std::size_t> next_shard{0};
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&] {
        std::vector<double> resample(n);
        for (std::size_t shard = next_shard.fetch_add(1); shard < shard_count;
             shard = next_shard.fetch_add(1)) {
          run_shard(shard, resample);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

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
