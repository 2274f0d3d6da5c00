// Monte Carlo engine scaling bench: one 100-replicate Tsubame-3 sweep at
// jobs = 1 / 2 / 8, timing each run and byte-comparing the aggregate
// output across thread counts.  The determinism contract (replicate r is
// generated from a (base_seed, r) fork and owns its result slot) means
// the aggregates must be bit-identical at every jobs value; the fused
// generate->index->analyze->reduce pipeline means the speedup should be
// near-linear until the hardware runs out of threads.
//
//   $ ./bench_montecarlo            # full 100-replicate sweep
//   $ ./bench_montecarlo --quick    # 16 replicates (CI smoke)
//
// Emits BENCH_montecarlo.json (wall times and replicates/sec per jobs
// value) for cross-commit perf tracking.  The >= 4x speedup expectation is only
// enforced when the host actually has >= 8 hardware threads.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "report/table.h"
#include "sim/montecarlo.h"

using namespace tsufail;

namespace {

/// Full-precision rendering of everything the sweep computed, used for
/// the byte-identity check across jobs counts.
std::string fingerprint(const sim::SweepResult& sweep) {
  std::string out;
  char line[256];
  for (const auto& variant : sweep.variants) {
    out += variant.label + "\n";
    for (const auto& replicate : variant.replicates) {
      std::snprintf(line, sizeof line, "r%zu seed=%llu failures=%zu\n", replicate.replicate,
                    static_cast<unsigned long long>(replicate.seed), replicate.failures);
      out += line;
      for (const auto& metric : replicate.metrics) {
        std::snprintf(line, sizeof line, "  %s=%.17g\n", metric.name.c_str(), metric.value);
        out += line;
      }
    }
    for (const auto& aggregate : variant.aggregates) {
      std::snprintf(line, sizeof line, "%s n=%zu mean=%.17g sd=%.17g ci=[%.17g,%.17g]\n",
                    aggregate.name.c_str(), aggregate.n, aggregate.mean, aggregate.stddev,
                    aggregate.mean_ci.low, aggregate.mean_ci.high);
      out += line;
    }
  }
  return out;
}

struct Timing {
  std::size_t jobs = 0;
  double wall_s = 0.0;
  std::string fingerprint;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t replicates = 100;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      replicates = 16;
    } else if (std::strcmp(argv[i], "--replicates") == 0 && i + 1 < argc) {
      replicates = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::printf("usage: bench_montecarlo [--quick] [--replicates N]\n");
      return 2;
    }
  }

  bench::print_banner("bench_montecarlo",
                      "sim::run_sweep scaling + determinism (DESIGN.md section 11)");

  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("sweep: Tsubame-3, %zu replicates, %u hardware threads\n\n", replicates,
              hw_threads);

  std::vector<Timing> timings;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    sim::SweepOptions options;
    options.base_seed = bench::kBenchSeed;
    options.replicates = replicates;
    options.jobs = jobs;
    const obs::Stopwatch watch;
    const auto sweep = sim::run_sweep(sim::tsubame3_model(), options).value();
    timings.push_back({jobs, watch.seconds(), fingerprint(sweep)});
  }

  report::Table table({"jobs", "wall (s)", "replicates/s", "speedup"});
  table.set_alignment({report::Align::kRight, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight});
  for (const auto& timing : timings) {
    table.add_row({std::to_string(timing.jobs), report::fmt(timing.wall_s, 3),
                   report::fmt(static_cast<double>(replicates) / timing.wall_s, 1),
                   report::fmt(timings[0].wall_s / timing.wall_s, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());

  const bool identical = timings[1].fingerprint == timings[0].fingerprint &&
                         timings[2].fingerprint == timings[0].fingerprint;
  const double speedup8 = timings[0].wall_s / timings[2].wall_s;

  report::ComparisonSet cmp("montecarlo engine contract");
  cmp.add("aggregates byte-identical at jobs=1/2/8 (1 = yes)", 1.0, identical ? 1.0 : 0.0, 0.0);
  if (hw_threads >= 8) {
    // Center 8x with 50% relative tolerance: accepts [4x, 12x], i.e. the
    // ">= 4x at 8 threads" bar with headroom for near-linear hosts.
    cmp.add("speedup at 8 threads (>= 4x)", 8.0, speedup8, 0.5, "x");
  } else {
    std::printf("note: only %u hardware thread(s); the 8-thread speedup bar (>= 4x) is\n"
                "informational on this host and not gated.\n\n",
                hw_threads);
  }
  bench::print_comparisons(cmp);

  // The host's thread count and the measured speedup are printed above
  // but kept out of the record: bench_diff treats every field that is not
  // a measurement as part of the workload's identity.
  bench::PerfJson perf("montecarlo");
  perf.set("machine", std::string("tsubame-3"));
  perf.set("replicates", static_cast<std::int64_t>(replicates));
  for (const auto& timing : timings) {
    const std::string jobs = std::to_string(timing.jobs);
    perf.set("wall_s_jobs" + jobs, timing.wall_s);
    perf.set("jobs" + jobs + "_replicates_per_s",
             static_cast<double>(replicates) / timing.wall_s);
  }
  perf.set("deterministic", static_cast<std::int64_t>(identical ? 1 : 0));

  // One extra traced sweep (outside the timings above, which stay
  // instrumentation-dormant) for the per-phase generate/index/analyze
  // breakdown in the perf record.
  {
    obs::reset_trace();
    obs::set_enabled(true);
    sim::SweepOptions options;
    options.base_seed = bench::kBenchSeed;
    options.replicates = std::min<std::size_t>(replicates, 8);
    options.jobs = 2;
    (void)sim::run_sweep(sim::tsubame3_model(), options).value();
    obs::set_enabled(false);
    bench::add_span_aggregates(perf, obs::profile(obs::collect_trace()));
  }

  perf.write();
  return bench::exit_code();
}
