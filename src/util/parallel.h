// parallel_for: the library's one fan-out over independent work items.
//
// The study's analyses, the Monte Carlo sweep's cells and the bootstrap's
// resample shards are all the same loop: call body(i) once for every i in
// [0, n), in any order, each call writing only its own result slot.
// parallel_for runs that loop on min(resolve_jobs(jobs), n) workers, and
// the calling thread is one of them, so jobs = 1 is a plain loop on the
// caller that starts no thread.  Workers claim indices from one atomic
// cursor, so which worker runs which index is up to the scheduler; callers
// stay deterministic by writing per-index slots and reducing them in index
// order after parallel_for returns (which happens-after every body call).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>

namespace tsufail::util {

/// Worker count for a `jobs` option: 0 means one worker per hardware
/// thread (at least 1); any other value is returned unchanged.
std::size_t resolve_jobs(std::size_t jobs) noexcept;

namespace detail {

/// Runs work(context) on the calling thread and on `workers - 1` started
/// threads, then joins them.  If a thread fails to start, the ones already
/// started are still joined and the loop runs on fewer workers.  The
/// first exception any worker throws is rethrown once all have joined.
/// Returns the number of workers that ran.
std::size_t run_workers(std::size_t workers, void (*work)(void*), void* context);

}  // namespace detail

/// Calls body(i) exactly once for every i in [0, n) on up to `jobs`
/// workers (see resolve_jobs), the calling thread included.
///
/// `make_body` is called once per worker, on that worker's thread, and
/// returns that worker's body: a callable taking the index.  State the
/// body owns (a mutable lambda's by-value captures) is per-worker scratch,
/// reused across the indices that worker claims and never shared with
/// another thread.  An exception from `make_body` or a body stops that
/// worker; the others finish the remaining indices and the exception is
/// rethrown on the caller.
///
/// Returns the number of workers that ran: 0 when n == 0 (nothing is
/// called), 1 when jobs == 1 (everything ran on the calling thread).
template <class MakeBody>
std::size_t parallel_for(std::size_t n, std::size_t jobs, MakeBody&& make_body) {
  if (n == 0) return 0;
  struct Loop {
    std::size_t n;
    MakeBody& make_body;
    std::atomic<std::size_t> cursor{0};
  } loop{n, make_body};
  const auto work = [](void* context) {
    Loop& loop = *static_cast<Loop*>(context);
    auto body = loop.make_body();
    for (std::size_t i = loop.cursor.fetch_add(1); i < loop.n; i = loop.cursor.fetch_add(1))
      body(i);
  };
  return detail::run_workers(std::min(resolve_jobs(jobs), n), work, &loop);
}

}  // namespace tsufail::util
