// parallel_for unit tests: every index runs exactly once at any jobs
// value, the calling thread is one of the workers, per-worker scratch
// stays on its own thread, and a throwing body reaches the caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.h"

namespace tsufail::util {
namespace {

TEST(ParallelFor, ResolveJobsMapsZeroToOneWorkerPerHardwareThread) {
  EXPECT_EQ(resolve_jobs(0), std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(3), 3u);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{0}}) {
    // At most 8 workers, so jobs = 0 starts few threads on any host.
    const std::size_t workers = std::min<std::size_t>(resolve_jobs(jobs), 8);
    // Fewer indices than workers, as many, and more.
    for (const std::size_t n : {workers - 1, workers, workers + 1, std::size_t{100}}) {
      if (n == 0) continue;
      std::vector<std::atomic<int>> runs(n);
      const std::size_t ran = parallel_for(n, jobs, [&] {
        return [&](std::size_t i) { runs[i].fetch_add(1); };
      });
      EXPECT_EQ(ran, std::min(resolve_jobs(jobs), n)) << "jobs " << jobs << " n " << n;
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "jobs " << jobs << " n " << n << " index " << i;
    }
  }
}

TEST(ParallelFor, ZeroItemsCallNothing) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{0}}) {
    int factory_calls = 0;
    const std::size_t ran = parallel_for(0, jobs, [&] {
      ++factory_calls;
      return [](std::size_t) { ADD_FAILURE() << "body called for n = 0"; };
    });
    EXPECT_EQ(ran, 0u);
    EXPECT_EQ(factory_calls, 0);
  }
}

TEST(ParallelFor, OneJobRunsOnTheCallingThreadOnly) {
  const auto caller = std::this_thread::get_id();
  int factory_calls = 0;
  std::vector<std::size_t> order;
  const std::size_t ran = parallel_for(10, 1, [&] {
    ++factory_calls;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    };
  });
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(factory_calls, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ParallelFor, EachWorkersScratchStaysOnOneThread) {
  struct Scratch {
    std::thread::id owner;
    std::size_t uses = 0;
  };
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    std::mutex mutex;
    std::vector<std::shared_ptr<Scratch>> scratches;
    std::atomic<int> foreign_uses{0};
    const std::size_t ran = parallel_for(200, jobs, [&] {
      auto scratch = std::make_shared<Scratch>();
      scratch->owner = std::this_thread::get_id();
      {
        const std::lock_guard lock(mutex);
        scratches.push_back(scratch);
      }
      return [&foreign_uses, scratch](std::size_t) {
        if (std::this_thread::get_id() != scratch->owner) foreign_uses.fetch_add(1);
        ++scratch->uses;
        std::this_thread::yield();
      };
    });
    EXPECT_EQ(foreign_uses.load(), 0) << "jobs " << jobs;
    ASSERT_EQ(scratches.size(), ran) << "jobs " << jobs;
    std::set<std::thread::id> owners;
    std::size_t uses = 0;
    for (const auto& scratch : scratches) {
      owners.insert(scratch->owner);
      uses += scratch->uses;
    }
    EXPECT_EQ(owners.size(), scratches.size()) << "two workers shared a thread";
    EXPECT_EQ(uses, 200u);
  }
}

TEST(ParallelFor, BodyExceptionReachesTheCallerAfterEveryWorkerStops) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    std::atomic<int> runs{0};
    EXPECT_THROW(parallel_for(50, jobs,
                              [&] {
                                return [&](std::size_t i) {
                                  runs.fetch_add(1);
                                  if (i == 7) throw std::runtime_error("boom");
                                };
                              }),
                 std::runtime_error);
    EXPECT_GE(runs.load(), 8);
    EXPECT_LE(runs.load(), 50);
  }
}

}  // namespace
}  // namespace tsufail::util
