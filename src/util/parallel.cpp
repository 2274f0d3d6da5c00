#include "util/parallel.h"

#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace tsufail::util {

std::size_t resolve_jobs(std::size_t jobs) noexcept {
  if (jobs != 0) return jobs;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

namespace detail {

std::size_t run_workers(std::size_t workers, void (*work)(void*), void* context) {
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto guarded = [&] {
    try {
      work(context);
    } catch (...) {
      const std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  if (workers > 1) {
    threads.reserve(workers - 1);
    try {
      while (threads.size() + 1 < workers) threads.emplace_back(guarded);
    } catch (const std::system_error&) {
      // Out of threads: the workers already started share the indices
      // with the calling thread.
    }
  }
  guarded();
  for (auto& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
  return threads.size() + 1;
}

}  // namespace detail
}  // namespace tsufail::util
