#include "analysis/study.h"

#include <exception>
#include <utility>
#include <vector>

#include "data/log_index.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/parallel.h"

namespace tsufail::analysis {
namespace {

/// Moves a successful analysis result into its report slot.
template <class T, class Slot>
Result<void> store(Result<T> result, Slot& slot) {
  if (!result.ok()) return result.error();
  slot = std::move(result).value();
  return {};
}

// One table row: the analysis `analyze_<name>` fills `StudyReport::<name>`.
#define TSUFAIL_STUDY_ANALYSIS(name, required) \
  {#name, required,                             \
   [](const data::LogIndex& i, StudyReport& r) { return store(analyze_##name(i), r.name); }}

/// The study, in report order; required analyses abort it on failure.
constexpr StudyAnalysis kAnalyses[] = {
    TSUFAIL_STUDY_ANALYSIS(categories, true),
    TSUFAIL_STUDY_ANALYSIS(software_loci, false),
    TSUFAIL_STUDY_ANALYSIS(node_counts, true),
    TSUFAIL_STUDY_ANALYSIS(gpu_slots, false),
    TSUFAIL_STUDY_ANALYSIS(multi_gpu, false),
    TSUFAIL_STUDY_ANALYSIS(tbf, false),
    TSUFAIL_STUDY_ANALYSIS(tbf_by_category, false),
    TSUFAIL_STUDY_ANALYSIS(multi_gpu_clustering, false),
    TSUFAIL_STUDY_ANALYSIS(ttr, true),
    TSUFAIL_STUDY_ANALYSIS(ttr_by_category, false),
    TSUFAIL_STUDY_ANALYSIS(seasonal, true),
    TSUFAIL_STUDY_ANALYSIS(perf_error_prop, true),
};

#undef TSUFAIL_STUDY_ANALYSIS

/// Counts the study's steps: the index build and each analysis run.
obs::Counter& tasks_run_counter() {
  static obs::Counter c = obs::counter("study.tasks_run");
  return c;
}

/// Runs one analysis, downgrading anything it throws to an Error so a
/// worker thread never escapes via an exception.
std::optional<Error> run_guarded(const StudyAnalysis& analysis, const data::LogIndex& index,
                                 StudyReport& report) {
  try {
    auto result = analysis.run(index, report);
    if (!result.ok()) return result.error();
    return std::nullopt;
  } catch (const std::exception& e) {
    return Error(ErrorKind::kInternal, std::string("task threw: ") + e.what());
  } catch (...) {
    return Error(ErrorKind::kInternal, "task threw a non-exception");
  }
}

}  // namespace

Result<StudyReport> run_analyses(const data::LogIndex& index,
                                 std::span<const StudyAnalysis> analyses, std::size_t jobs) {
  static obs::Counter tasks_failed = obs::counter("study.tasks_failed");
  // Time from the fan-out to an analysis starting.  Timing-valued, so
  // (per the obs determinism contract) exempt from jobs-invariance.
  static obs::Histogram queue_wait =
      obs::histogram("study.queue_wait_seconds", obs::time_buckets_seconds());

  StudyReport report;
  std::vector<std::optional<Error>> errors(analyses.size());
  const bool traced = obs::enabled();
  const std::uint64_t fan_out_ns = traced ? obs::now_ns() : 0;
  util::parallel_for(analyses.size(), jobs, [&] {
    return [&](std::size_t a) {
      if (traced) queue_wait.observe(static_cast<double>(obs::now_ns() - fan_out_ns) * 1e-9);
      // Interned only while tracing, so the untraced path never allocates.
      obs::SpanScope span(
          traced ? obs::intern(("study." + std::string(analyses[a].name)).c_str()) : nullptr);
      errors[a] = run_guarded(analyses[a], index, report);
      tasks_run_counter().add();
      if (errors[a].has_value()) tasks_failed.add();
    };
  });

  for (std::size_t a = 0; a < analyses.size(); ++a) {
    if (errors[a].has_value() && analyses[a].required)
      return errors[a]->with_context(std::string("run_study: ") + analyses[a].name);
  }
  for (std::size_t a = 0; a < analyses.size(); ++a) {
    if (errors[a].has_value()) report.skipped.push_back({analyses[a].name, *errors[a]});
  }
  return report;
}

Result<StudyReport> run_study(const data::FailureLog& log, const StudyOptions& options) {
  if (log.empty())
    return Error(ErrorKind::kDomain, "run_study: empty log");

  OBS_SPAN("study.run");
  static obs::Counter runs = obs::counter("study.runs");
  runs.add();

  const auto index = [&] {
    OBS_SPAN("study.index");
    return data::LogIndex(log);
  }();
  tasks_run_counter().add();
  return run_analyses(index, kAnalyses, options.jobs);
}

Result<StudyReport> run_study(const data::FailureLog& log) {
  return run_study(log, StudyOptions{});
}

}  // namespace tsufail::analysis
