// Shared plumbing of the perfbench program: options, clocks, order
// statistics, /proc readers, and the Ledger that collects one run's
// operation counts, metrics and raw samples and prints them.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"

namespace perfbench {

/// Input sizes of every workload.  The defaults are what BENCHMARK.json
/// runs; tiny() is the smoke-test preset (same code paths, smaller inputs).
struct Scale {
  std::size_t analyze_records = 1'000'000;  ///< N; the .exp probes also run N/10
  /// Distinct analyze logs per run (one set-up each), so one seed's
  /// slow or fast TBF fit does not decide the run's median.
  std::size_t analyze_logs = 5;
  std::size_t sweep_replicates = 2000;      ///< study replicates per run_sweep call
  std::size_t sweep_check_replicates = 64;  ///< set-up jobs=1 vs jobs=4 check
  std::size_t repair_failures = 10'000;     ///< failures per repair replicate
  std::size_t repair_replicates = 16;       ///< replicates per repair sweep call
  std::size_t census_replicates = 64;       ///< serially traced sweep replicates
  std::size_t serve_tenants = 256;
  std::size_t seals_per_tenant = 3;
  std::size_t restarts = 8;     ///< timed daemon restarts per serve iteration
  std::size_t study_scans = 2;  ///< `study` scans over every tenant per restart
  std::size_t setup_repeats = 3;   ///< sweep and serve
  std::size_t min_iterations = 3;  ///< sweep and serve

  static Scale tiny();
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space for generated inputs and data dirs
  std::string tsufail;   ///< the CLI binary the serve workload spawns
  Scale scale;
  std::size_t jobs = 4;  ///< min(4, hardware threads)
};

/// Monotonic seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall seconds of one call.
template <typename Fn>
double timed(Fn&& fn) {
  const double start = now_s();
  fn();
  return now_s() - start;
}

/// Median (mean of the middle pair for even sizes); 0 for an empty sample.
double median(std::vector<double> sample);

/// Nearest-rank percentile, q in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> sample, double q);

/// log10(t_big / t_small): the size exponent of a call timed at N and N/10.
double size_exponent(double t_big, double t_small);

/// Unwraps a library Result or throws with `what` as context.
template <typename T>
T must(tsufail::Result<T> result, const std::string& what) {
  if (!result.ok()) throw std::runtime_error(what + ": " + result.error().to_string());
  return std::move(result).value();
}
void must(const tsufail::Result<void>& result, const std::string& what);

/// A field of /proc/<pid>/status in KiB (or as a plain count, e.g.
/// "Threads:"); 0 when absent.  pid 0 means this process.
double proc_status(pid_t pid, const char* field);
/// Open file descriptors of `pid` (entries of /proc/<pid>/fd).
double proc_fds(pid_t pid);
/// Resets this process's peak-RSS mark (VmHWM) to its current RSS after
/// returning freed heap to the kernel, so the next reading covers only
/// the work that follows.
void reset_peak_rss();

/// 64-bit FNV-1a, for result digests.
class Digest {
 public:
  void add(const void* data, std::size_t size);
  void add(const std::string& text) { add(text.data(), text.size()); }
  void add(double value) { add(&value, sizeof value); }
  void add(std::uint64_t value) { add(&value, sizeof value); }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One run's record: the workload keys, operation counts, metrics with
/// units, and the raw samples behind them.
class Ledger {
 public:
  /// Counts one checked operation; a failed one is reported on stderr.
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations checked elsewhere, `failures` of them failed.
  void tally(std::size_t attempted, const std::vector<std::string>& failures);
  void key(const std::string& name, double value) { keys_[name] = value; }
  /// Records a metric; `samples` (when known) is printed as its sample count.
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  void raw(const std::string& name, std::vector<double> samples);
  /// A free-text line for the human-readable table.
  void note(const std::string& line) { notes_.push_back(line); }

  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }

  /// Prints the human-readable table, then the record line (workload
  /// keys and raw samples), then the result line, which is the last line
  /// of stdout.  `headline` are the named end-to-end readings of the
  /// workload; `result` are the metrics BENCHMARK.json declares.
  void print(const Options& options, const std::vector<std::string>& headline,
             const std::vector<std::string>& result) const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, double> keys_;
  struct Reading {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Reading> metrics_;
  std::map<std::string, std::vector<double>> raw_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
