// Workload `analyze`: one analyst waiting for the full DSN'21 report on
// a 10^6-record Tsubame-2-model log, from CSV and from .tsnap.  Each run
// generates Scale::analyze_logs such logs (one timed set-up each) and
// iterates over them in turn.
//
//   CSV pipeline:    read_log_file -> run_study (jobs=1) -> render_study_text
//   .tsnap pipeline: ColumnarSnapshot::open -> to_log -> run_study -> render
//
// The traced pass replays run_study's composition call by call (index,
// then each of the twelve analyses in registration order) so every
// layer gets its own timer; its report must equal the untraced one.
#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "analysis/study.h"
#include "data/columnar.h"
#include "data/log_index.h"
#include "data/log_io.h"
#include "report/study_text.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace tsufail;

/// The per-layer timings of one traced pipeline.
struct Pass {
  double wall_s = 0.0;
  std::map<std::string, double> layer_s;  ///< "data.read_log_csv" -> seconds
  std::string text;
  std::optional<stats::FamilyChoice> tbf_family;

  double attributed_s() const {
    double sum = 0.0;
    for (const auto& [name, seconds] : layer_s) sum += seconds;
    return sum;
  }
};

/// Runs one analysis under its own timer and files the result the way
/// run_study does: into its report slot, or into `skipped` (optional
/// analyses) / a thrown error (required ones).
template <typename Fn, typename Slot>
void traced_analysis(Pass& pass, const char* name, bool required, Fn analyze,
                     const data::LogIndex& index, Slot& slot, analysis::StudyReport& report) {
  std::optional<decltype(analyze(index))> result;
  pass.layer_s[std::string("analysis.") + name] = timed([&] { result.emplace(analyze(index)); });
  if (result->ok()) {
    slot = std::move(*result).value();
  } else if (required) {
    throw std::runtime_error(std::string("run_study: ") + name + ": " +
                             result->error().to_string());
  } else {
    report.skipped.push_back({name, result->error()});
  }
}

/// Index, the twelve analyses and the render of one log, each timed.
void traced_study(Pass& pass, const data::FailureLog& log) {
  std::optional<data::LogIndex> index;
  pass.layer_s["data.log_index"] = timed([&] { index.emplace(log); });
  analysis::StudyReport report;
  using data::LogIndex;
  // Registration order and required flags as in analysis/study.cpp.
  traced_analysis(pass, "categories", true,
                  [](const LogIndex& i) { return analysis::analyze_categories(i); }, *index,
                  report.categories, report);
  traced_analysis(pass, "software_loci", false,
                  [](const LogIndex& i) { return analysis::analyze_software_loci(i); }, *index,
                  report.software_loci, report);
  traced_analysis(pass, "node_counts", true,
                  [](const LogIndex& i) { return analysis::analyze_node_counts(i); }, *index,
                  report.node_counts, report);
  traced_analysis(pass, "gpu_slots", false,
                  [](const LogIndex& i) { return analysis::analyze_gpu_slots(i); }, *index,
                  report.gpu_slots, report);
  traced_analysis(pass, "multi_gpu", false,
                  [](const LogIndex& i) { return analysis::analyze_multi_gpu(i); }, *index,
                  report.multi_gpu, report);
  traced_analysis(pass, "tbf", false,
                  [](const LogIndex& i) { return analysis::analyze_tbf(i); }, *index, report.tbf,
                  report);
  traced_analysis(pass, "tbf_by_category", false,
                  [](const LogIndex& i) { return analysis::analyze_tbf_by_category(i); }, *index,
                  report.tbf_by_category, report);
  traced_analysis(pass, "multi_gpu_clustering", false,
                  [](const LogIndex& i) { return analysis::analyze_multi_gpu_clustering(i); },
                  *index, report.multi_gpu_clustering, report);
  traced_analysis(pass, "ttr", true, [](const LogIndex& i) { return analysis::analyze_ttr(i); },
                  *index, report.ttr, report);
  traced_analysis(pass, "ttr_by_category", false,
                  [](const LogIndex& i) { return analysis::analyze_ttr_by_category(i); }, *index,
                  report.ttr_by_category, report);
  traced_analysis(pass, "seasonal", true,
                  [](const LogIndex& i) { return analysis::analyze_seasonal(i); }, *index,
                  report.seasonal, report);
  traced_analysis(pass, "perf_error_prop", true,
                  [](const LogIndex& i) { return analysis::analyze_perf_error_prop(i); }, *index,
                  report.perf_error_prop, report);
  if (report.tbf.has_value()) pass.tbf_family = report.tbf->best_family;
  pass.layer_s["report.render_study_text"] =
      timed([&] { pass.text = report::render_study_text(log, report); });
}

Pass traced_csv(const std::string& path) {
  Pass pass;
  const double start = now_s();
  std::optional<data::ReadReport> read;
  pass.layer_s["data.read_log_csv"] =
      timed([&] { read.emplace(must(data::read_log_file(path), "read " + path)); });
  traced_study(pass, read->log);
  pass.wall_s = now_s() - start;
  return pass;
}

Pass traced_tsnap(const std::string& path) {
  Pass pass;
  const double start = now_s();
  data::ColumnarSnapshotPtr snapshot;
  pass.layer_s["data.columnar_open"] =
      timed([&] { snapshot = must(data::ColumnarSnapshot::open(path), "open " + path); });
  std::optional<data::FailureLog> log;
  pass.layer_s["data.to_log"] = timed([&] { log.emplace(snapshot->to_log()); });
  traced_study(pass, *log);
  pass.wall_s = now_s() - start;
  return pass;
}

/// Writes a Tsubame-2-model log of `records` failures as CSV and .tsnap
/// (with its index, as `tsufail pack` writes it).
void write_inputs(std::size_t records, std::uint64_t seed, const std::string& csv,
                  const std::string& tsnap) {
  sim::MachineModel model = sim::tsubame2_model();
  model.total_failures = records;
  const data::FailureLog log = must(sim::generate_log(model, seed), "generate_log");
  must(data::write_log_file(csv, log), "write " + csv);
  const data::LogIndex index(log);
  must(data::write_columnar_file(tsnap, data::pack_columnar(log, &index)), "write " + tsnap);
}

std::string family_name(const std::optional<stats::FamilyChoice>& choice) {
  return choice.has_value() ? stats::to_string(choice->family) : "none";
}

class Analyze final : public Workload {
 public:
  explicit Analyze(const Options& options) : options_(options) {}

  std::size_t setup_repeats() const override { return options_.scale.analyze_logs; }
  std::size_t min_iterations() const override { return options_.scale.analyze_logs; }

  void setup(Ledger&, std::size_t repeat) override {
    Input input;
    input.seed = fork_seed(options_.seed, repeat);
    input.csv = options_.work_dir + "/analyze-" + std::to_string(repeat) + ".csv";
    input.tsnap = options_.work_dir + "/analyze-" + std::to_string(repeat) + ".tsnap";
    write_inputs(options_.scale.analyze_records, input.seed, input.csv, input.tsnap);
    if (repeat < inputs_.size()) inputs_[repeat] = input;
    else inputs_.push_back(input);
  }

  double iterate(Ledger& ledger) override {
    Input& input = inputs_[iterations_++ % inputs_.size()];
    reset_peak_rss();
    std::string via_csv;
    std::size_t bad_rows = 0;
    const double csv_s = timed([&] {
      const data::ReadReport read = must(data::read_log_file(input.csv), "read " + input.csv);
      bad_rows = read.row_errors.size();
      const auto study = must(analysis::run_study(read.log, {1}), "run_study (csv)");
      via_csv = report::render_study_text(read.log, study);
    });
    std::string via_tsnap;
    const double tsnap_s = timed([&] {
      const auto snapshot = must(data::ColumnarSnapshot::open(input.tsnap), "open " + input.tsnap);
      const data::FailureLog log = snapshot->to_log();
      const auto study = must(analysis::run_study(log, {1}), "run_study (tsnap)");
      via_tsnap = report::render_study_text(log, study);
    });
    rss_mib_.push_back(proc_status(0, "VmHWM:") / 1024.0);
    csv_s_.push_back(csv_s);
    tsnap_s_.push_back(tsnap_s);

    ledger.check(bad_rows == 0, "CSV parse dropped " + std::to_string(bad_rows) + " rows");
    ledger.check(via_csv == via_tsnap, "CSV and .tsnap reports differ");
    const std::string banner = " " + std::to_string(options_.scale.analyze_records) + " failures";
    ledger.check(via_csv.find(banner) != std::string::npos, "report banner lacks the log size");
    if (input.expected.empty()) input.expected = via_csv;
    ledger.check(via_csv == input.expected, "report differs between iterations");
    return csv_s + tsnap_s;
  }

  std::vector<std::string> report(Ledger& ledger) override {
    ledger.key("N", static_cast<double>(options_.scale.analyze_records));
    ledger.key("logs", static_cast<double>(inputs_.size()));
    ledger.key("jobs", 1);
    const std::size_t n = csv_s_.size();
    ledger.metric("primary_s", median(csv_s_), "s", n);
    ledger.metric("secondary_s", median(tsnap_s_), "s", n);
    ledger.metric("rss_peak_mib", median(rss_mib_), "MiB", n);
    ledger.metric("analyze_csv_s", median(csv_s_), "s", n);
    ledger.metric("analyze_tsnap_s", median(tsnap_s_), "s", n);
    ledger.raw("analyze_csv_s", csv_s_);
    ledger.raw("analyze_tsnap_s", tsnap_s_);
    ledger.raw("rss_peak_mib", rss_mib_);
    return {"analyze_csv_s", "analyze_tsnap_s"};
  }

  TraceSummary trace(Ledger& ledger) override {
    const std::size_t n = options_.scale.analyze_records;
    const std::string small_csv = options_.work_dir + "/analyze-tenth.csv";
    const std::string small_tsnap = options_.work_dir + "/analyze-tenth.tsnap";
    const Input& input = inputs_.front();
    write_inputs(n / 10, input.seed, small_csv, small_tsnap);
    reset_peak_rss();  // the same heap state an iteration starts from

    const Pass csv = traced_csv(input.csv);
    const Pass tsnap = traced_tsnap(input.tsnap);
    const Pass small = traced_csv(small_csv);
    ledger.check(csv.text == tsnap.text, "traced CSV and .tsnap reports differ");
    ledger.check(input.expected.empty() || csv.text == input.expected,
                 "traced study composition differs from run_study");

    const auto both = [&](const std::string& layer) {
      return 0.5 * (csv.layer_s.at(layer) + tsnap.layer_s.at(layer));
    };
    const auto exponent = [&](const std::string& layer) {
      return size_exponent(csv.layer_s.at(layer), small.layer_s.at(layer));
    };
    const double csv_mb = static_cast<double>(std::filesystem::file_size(input.csv)) / 1e6;
    ledger.metric("data.read_log_csv.s", csv.layer_s.at("data.read_log_csv"), "s");
    ledger.metric("data.read_log_csv.mb_per_s", csv_mb / csv.layer_s.at("data.read_log_csv"),
                  "MB/s");
    ledger.metric("data.read_log_csv.exp", exponent("data.read_log_csv"), "log10");
    ledger.metric("data.columnar_open.s", tsnap.layer_s.at("data.columnar_open"), "s");
    ledger.metric("data.to_log.s", tsnap.layer_s.at("data.to_log"), "s");
    ledger.metric("data.log_index.s", both("data.log_index"), "s");
    ledger.metric("data.log_index.exp", exponent("data.log_index"), "log10");
    for (const char* name : kAnalyses)
      ledger.metric(std::string("analysis.") + name + ".s", both(std::string("analysis.") + name),
                    "s");
    for (const char* name : {"tbf", "ttr", "seasonal", "tbf_by_category", "ttr_by_category"})
      ledger.metric(std::string("analysis.") + name + ".exp",
                    exponent(std::string("analysis.") + name), "log10");
    // Numerical health of the TBF fit at N and N/10: the KS distance of
    // the chosen family, and whether both sizes choose the same one.
    ledger.metric("analysis.tbf.ks", csv.tbf_family ? csv.tbf_family->ks_distance : 1.0, "ks");
    ledger.metric("analysis.tbf.ks_tenth",
                  small.tbf_family ? small.tbf_family->ks_distance : 1.0, "ks");
    const std::string family = family_name(csv.tbf_family);
    const std::string family_tenth = family_name(small.tbf_family);
    ledger.metric("analysis.tbf.family_agrees", family == family_tenth ? 1.0 : 0.0, "bool");
    ledger.note("analysis.tbf.family = " + family + " at N, " + family_tenth + " at N/10");
    ledger.metric("report.render_study_text.s", both("report.render_study_text"), "s");
    return {csv.wall_s + tsnap.wall_s, csv.attributed_s() + tsnap.attributed_s()};
  }

  static constexpr const char* kAnalyses[] = {
      "categories", "software_loci", "node_counts", "gpu_slots", "multi_gpu",
      "tbf", "tbf_by_category", "multi_gpu_clustering", "ttr", "ttr_by_category",
      "seasonal", "perf_error_prop"};

 private:
  /// One generated log on disk, as CSV and as .tsnap.
  struct Input {
    std::uint64_t seed = 0;
    std::string csv;
    std::string tsnap;
    std::string expected;  ///< the first report on this log; later ones must match
  };

  Options options_;
  std::vector<Input> inputs_;
  std::size_t iterations_ = 0;
  std::vector<double> csv_s_;
  std::vector<double> tsnap_s_;
  std::vector<double> rss_mib_;
};

}  // namespace

std::unique_ptr<Workload> make_analyze(const Options& options) {
  return std::make_unique<Analyze>(options);
}

}  // namespace perfbench
