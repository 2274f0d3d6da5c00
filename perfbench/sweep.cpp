// Workload `sweep`: the capacity planner's what-if loop.  Each iteration
// makes two calls at jobs = min(4, hardware threads):
//
//   sim::run_sweep over the calibrated Tsubame-2 model (each replicate:
//     generate -> index -> 12 analyses -> metrics; then bootstrap reduce)
//   ops::run_repair_policy_sweep, the three default policies at 10^4
//     failures per replicate
//
// Both results are digested; every iteration must reproduce the first
// one's digests, and set-up checks that jobs=1 and jobs=N agree at a
// reduced replicate count.
#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "obs/obs.h"
#include "obs/trace.h"
#include "ops/availability.h"
#include "ops/job_impact.h"
#include "ops/repair_sweep.h"
#include "ops/repairshop.h"
#include "sim/generator.h"
#include "sim/montecarlo.h"
#include "sim/tsubame_models.h"
#include "stats/bootstrap.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace tsufail;

/// The stock `tsufail repairs` shop and job mix.
constexpr const char* kRepairConfig = "crews=2,spares=GPU:2:336,throttle=1,boost=0.95";
constexpr std::size_t kMixJobs = 400;

std::uint64_t digest(const sim::SweepResult& result) {
  Digest d;
  for (const auto& variant : result.variants) {
    d.add(variant.label);
    for (const auto& replicate : variant.replicates) {
      d.add(replicate.seed);
      d.add(static_cast<std::uint64_t>(replicate.failures));
      for (const auto& metric : replicate.metrics) {
        d.add(metric.name);
        d.add(metric.value);
      }
    }
    for (const auto& aggregate : variant.aggregates) {
      d.add(aggregate.name);
      d.add(aggregate.mean);
      d.add(aggregate.stddev);
      d.add(aggregate.mean_ci.low);
      d.add(aggregate.mean_ci.high);
    }
  }
  return d.value();
}

/// The repair-shop events one schedule processes: arrivals, completions,
/// repairs still in service at the horizon, and spare draws.
double event_count(const ops::RepairShopResult& result) {
  return static_cast<double>(result.assignments.size() + result.completed +
                             result.in_flight_at_horizon + result.spare_demands);
}

/// Sum of the durations of every span called `name` in a trace.
double span_seconds(const obs::TraceSnapshot& snapshot, const char* name) {
  double total = 0.0;
  for (const auto& thread : snapshot.threads) {
    for (const auto& span : thread.spans) {
      if (std::strcmp(span.name, name) == 0)
        total += static_cast<double>(span.duration_ns()) * 1e-9;
    }
  }
  return total;
}

class Sweep final : public Workload {
 public:
  explicit Sweep(const Options& options) : options_(options) {
    repair_model_ = sim::tsubame2_model();
    repair_model_.total_failures = options.scale.repair_failures;
    base_config_ = must(ops::parse_repair_config(kRepairConfig), "repair config");
  }

  std::size_t setup_repeats() const override { return options_.scale.setup_repeats; }
  std::size_t min_iterations() const override { return options_.scale.min_iterations; }

  void setup(Ledger& ledger, std::size_t) override {
    const std::size_t study_n = options_.scale.sweep_check_replicates;
    ledger.check(digest(run_study_sweep(study_n, 1)) == digest(run_study_sweep(study_n)),
                 "run_sweep differs between jobs=1 and jobs=" + std::to_string(options_.jobs));
    ledger.check(digest(run_repair_sweep(1, 1)) == digest(run_repair_sweep(1)),
                 "repair sweep differs between jobs=1 and jobs=" + std::to_string(options_.jobs));
  }

  double iterate(Ledger& ledger) override {
    reset_peak_rss();
    std::optional<sim::SweepResult> study;
    std::optional<sim::SweepResult> repairs;
    const double study_s =
        timed([&] { study.emplace(run_study_sweep(options_.scale.sweep_replicates)); });
    const double repair_s = timed(
        [&] { repairs.emplace(run_repair_sweep(options_.scale.repair_replicates)); });
    rss_mib_.push_back(proc_status(0, "VmHWM:") / 1024.0);
    study_s_.push_back(study_s);
    repair_s_.push_back(repair_s);
    check_digests(ledger, *study, *repairs);
    return study_s + repair_s;
  }

  std::vector<std::string> report(Ledger& ledger) override {
    const double study_s = median(study_s_);
    const double repair_s = median(repair_s_);
    ledger.key("N", static_cast<double>(sim::tsubame2_model().total_failures));
    ledger.key("repair_N", static_cast<double>(options_.scale.repair_failures));
    ledger.key("replicates", static_cast<double>(options_.scale.sweep_replicates));
    ledger.key("repair_replicates", static_cast<double>(options_.scale.repair_replicates));
    ledger.key("jobs", static_cast<double>(options_.jobs));
    const std::size_t n = study_s_.size();
    ledger.metric("primary_s", study_s, "s", n);
    ledger.metric("secondary_s", repair_s, "s", n);
    ledger.metric("rss_peak_mib", median(rss_mib_), "MiB", n);
    ledger.metric("sweep_replicates_per_s",
                  static_cast<double>(options_.scale.sweep_replicates) / study_s, "1/s", n);
    ledger.metric("repairs_replicates_per_s",
                  static_cast<double>(options_.scale.repair_replicates) / repair_s, "1/s", n);
    ledger.raw("sweep_call_s", study_s_);
    ledger.raw("repairs_call_s", repair_s_);
    ledger.raw("rss_peak_mib", rss_mib_);
    return {"sweep_replicates_per_s", "repairs_replicates_per_s"};
  }

  TraceSummary trace(Ledger& ledger) override {
    TraceSummary summary;
    // The two calls again, with the library's own obs spans on: the
    // per-cell spans give the fan-out's serial fraction.
    obs::reset_trace();
    obs::set_enabled(true);
    std::optional<sim::SweepResult> study;
    std::optional<sim::SweepResult> repairs;
    const double study_wall =
        timed([&] { study.emplace(run_study_sweep(options_.scale.sweep_replicates)); });
    const obs::TraceSnapshot study_trace = obs::collect_trace();
    obs::reset_trace();
    const double repair_wall = timed(
        [&] { repairs.emplace(run_repair_sweep(options_.scale.repair_replicates)); });
    const obs::TraceSnapshot repair_trace = obs::collect_trace();
    obs::set_enabled(false);
    obs::reset_trace();
    check_digests(ledger, *study, *repairs);
    ledger.check(study_trace.dropped_total() == 0 && repair_trace.dropped_total() == 0,
                 "obs ring buffers dropped spans");

    const double jobs = static_cast<double>(options_.jobs);
    const double study_cells = span_seconds(study_trace, "sweep.cell");
    ledger.metric("sim.run_sweep.serial_fraction", 1.0 - study_cells / (jobs * study_wall),
                  "ratio");
    summary.wall_s = study_wall + repair_wall;
    summary.attributed_s = (study_cells + span_seconds(repair_trace, "sweep.cell")) / jobs +
                           span_seconds(study_trace, "sweep.reduce") +
                           span_seconds(repair_trace, "sweep.reduce");

    trace_replicates(ledger, *study);
    trace_repair_shop(ledger);
    return summary;
  }

 private:
  /// run_sweep over the calibrated Tsubame-2 model; jobs 0 = options_.jobs.
  sim::SweepResult run_study_sweep(std::size_t replicates, std::size_t jobs = 0) const {
    sim::SweepOptions sweep;
    sweep.base_seed = options_.seed;
    sweep.replicates = replicates;
    sweep.jobs = jobs == 0 ? options_.jobs : jobs;
    return must(sim::run_sweep(sim::tsubame2_model(), sweep), "run_sweep");
  }

  /// The three default policies at repair_failures; jobs 0 = options_.jobs.
  sim::SweepResult run_repair_sweep(std::size_t replicates, std::size_t jobs = 0) const {
    ops::RepairSweepOptions sweep;
    sweep.sweep.base_seed = options_.seed;
    sweep.sweep.replicates = replicates;
    sweep.sweep.jobs = jobs == 0 ? options_.jobs : jobs;
    sweep.job_mix.jobs = kMixJobs;
    return must(ops::run_repair_policy_sweep(repair_model_,
                                             ops::default_policy_variants(base_config_), sweep),
                "run_repair_policy_sweep");
  }

  void check_digests(Ledger& ledger, const sim::SweepResult& study,
                     const sim::SweepResult& repairs) {
    const std::uint64_t study_digest = digest(study);
    const std::uint64_t repair_digest = digest(repairs);
    if (!study_digest_) study_digest_ = study_digest;
    if (!repair_digest_) repair_digest_ = repair_digest;
    ledger.check(study_digest == *study_digest_, "run_sweep result changed between calls");
    ledger.check(repair_digest == *repair_digest_, "repair sweep result changed between calls");
  }

  /// One replicate's layers, called serially by the benchmark itself:
  /// generate, study, metric extraction, and the reduce's bootstrap.
  void trace_replicates(Ledger& ledger, const sim::SweepResult& study) {
    std::vector<double> generate_s;
    std::vector<double> study_s;
    std::vector<double> metrics_s;
    for (std::size_t r = 0; r < options_.scale.census_replicates; ++r) {
      const std::uint64_t seed = sim::replicate_seed(options_.seed, r);
      std::optional<data::FailureLog> log;
      generate_s.push_back(timed([&] {
        log.emplace(must(sim::generate_log(sim::tsubame2_model(), seed), "generate_log"));
      }));
      std::optional<analysis::StudyReport> report;
      study_s.push_back(
          timed([&] { report.emplace(must(analysis::run_study(*log, {1}), "run_study")); }));
      std::vector<sim::MetricSample> metrics;
      metrics_s.push_back(timed([&] { metrics = sim::study_metrics(*report); }));
      const auto& expected = study.variants[0].replicates[r].metrics;
      bool same = metrics.size() == expected.size();
      for (std::size_t m = 0; same && m < metrics.size(); ++m)
        same = metrics[m].name == expected[m].name && metrics[m].value == expected[m].value;
      ledger.check(same, "serial replicate " + std::to_string(r) + " differs from the sweep's");
    }
    ledger.metric("sim.generate_log.s", median(generate_s), "s");
    ledger.metric("analysis.run_study.s", median(study_s), "s");
    ledger.metric("sim.study_metrics.s", median(metrics_s), "s");

    // The reduce bootstraps each metric's replicate sample (1000 resamples).
    std::vector<double> sample;
    for (const auto& replicate : study.variants[0].replicates) {
      for (const auto& metric : replicate.metrics) {
        if (metric.name == "mtbf_hours") sample.push_back(metric.value);
      }
    }
    std::vector<double> bootstrap_s;
    for (int k = 0; k < 5; ++k) {
      Rng rng(fork_seed(options_.seed, static_cast<std::uint64_t>(k)));
      bootstrap_s.push_back(
          timed([&] { must(stats::bootstrap_mean_ci(sample, rng, 1000, 0.95), "bootstrap"); }));
    }
    ledger.metric("stats.bootstrap_ci.s", median(bootstrap_s), "s");
  }

  /// The repair shop of one replicate under each default policy.
  struct ShopRun {
    data::FailureLog log;
    std::optional<ops::RepairShopResult> last;  ///< the last policy's schedule
    double seconds = 0.0;
    double events = 0.0;
    double peak_queue = 0.0;
  };

  ShopRun run_shops(std::size_t failures) const {
    sim::MachineModel model = repair_model_;
    model.total_failures = failures;
    ShopRun run{must(sim::generate_log(model, sim::replicate_seed(options_.seed, 0)),
                     "generate_log"),
                std::nullopt};
    for (const auto& policy : ops::default_policy_variants(base_config_)) {
      run.seconds += timed([&] {
        run.last.emplace(must(ops::run_repair_shop(run.log, policy.config), "run_repair_shop"));
      });
      run.events += event_count(*run.last);
      run.peak_queue = std::max(run.peak_queue, static_cast<double>(run.last->peak_queue_depth));
    }
    return run;
  }

  /// The repair stage of one replicate, at N and N/10 failures, then the
  /// rescoring calls make_repair_stage makes on the schedule.
  void trace_repair_shop(Ledger& ledger) {
    const ShopRun big = run_shops(options_.scale.repair_failures);
    const ShopRun small = run_shops(options_.scale.repair_failures / 10);
    ledger.metric("ops.run_repair_shop.s", big.seconds, "s");
    ledger.metric("ops.run_repair_shop.events_per_s", big.events / big.seconds, "1/s");
    ledger.metric("ops.run_repair_shop.exp", size_exponent(big.seconds, small.seconds), "log10");
    ledger.metric("ops.run_repair_shop.peak_queue", big.peak_queue, "count");

    std::optional<data::FailureLog> effective;
    ledger.metric("ops.effective_log.s",
                  timed([&] { effective.emplace(ops::effective_log(big.log, *big.last)); }), "s");
    ledger.metric("ops.analyze_availability.s", timed([&] {
                    must(ops::analyze_availability(*effective), "analyze_availability");
                  }),
                  "s");
    ops::JobMixSpec mix;
    mix.jobs = kMixJobs;
    ledger.metric("ops.replay_job_impact.s", timed([&] {
                    must(ops::replay_job_impact(*effective, mix, options_.seed),
                         "replay_job_impact");
                  }),
                  "s");
  }

  Options options_;
  sim::MachineModel repair_model_;
  ops::RepairShopConfig base_config_;
  std::optional<std::uint64_t> study_digest_;
  std::optional<std::uint64_t> repair_digest_;
  std::vector<double> study_s_;
  std::vector<double> repair_s_;
  std::vector<double> rss_mib_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const Options& options) {
  return std::make_unique<Sweep>(options);
}

}  // namespace perfbench
