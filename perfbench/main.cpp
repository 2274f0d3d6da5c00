// perfbench: the repository benchmark program.
//
//   perfbench --workload analyze|sweep|serve --seed N --seconds S --trace 0|1
//             --work-dir DIR --tsufail PATH [--tiny]
//
// Untraced (--trace 0): times set-up several times, runs the workload's
// iterations for S seconds, checks every output, and prints the
// end-to-end metrics.  Traced (--trace 1): runs the traced pass of every
// workload, with an untraced iteration of the chosen workload before and
// after its pass, and prints the per-layer metrics.  The last stdout line
// is the JSON result; the line before it is the run's record (workload
// keys and raw samples).
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <thread>

#include "workload.h"

namespace perfbench {
namespace {

/// BENCHMARK.json's end_to_end metrics, printed by every untraced run.
const std::vector<std::string> kEndToEnd = {"setup_s", "rss_peak_mib", "primary_s",
                                            "secondary_s"};

/// BENCHMARK.json's per_layer metrics, printed by every traced run.
const std::vector<std::string> kPerLayer = {
    "data.read_log_csv.s", "data.read_log_csv.mb_per_s", "data.read_log_csv.exp",
    "data.columnar_open.s", "data.to_log.s", "data.log_index.s", "data.log_index.exp",
    "analysis.categories.s", "analysis.software_loci.s", "analysis.node_counts.s",
    "analysis.gpu_slots.s", "analysis.multi_gpu.s", "analysis.tbf.s",
    "analysis.tbf_by_category.s", "analysis.multi_gpu_clustering.s", "analysis.ttr.s",
    "analysis.ttr_by_category.s", "analysis.seasonal.s", "analysis.perf_error_prop.s",
    "analysis.tbf.exp", "analysis.ttr.exp", "analysis.seasonal.exp",
    "analysis.tbf_by_category.exp", "analysis.ttr_by_category.exp", "analysis.tbf.ks",
    "analysis.tbf.ks_tenth", "analysis.tbf.family_agrees", "analysis.run_study.s",
    "report.render_study_text.s", "sim.generate_log.s",
    "sim.study_metrics.s", "sim.run_sweep.serial_fraction", "stats.bootstrap_ci.s",
    "ops.run_repair_shop.s", "ops.run_repair_shop.events_per_s", "ops.run_repair_shop.exp",
    "ops.run_repair_shop.peak_queue", "ops.effective_log.s", "ops.analyze_availability.s",
    "ops.replay_job_impact.s", "serve.seal_p50_ms", "serve.seal_p95_ms",
    "serve.query_miss_ms", "serve.query_hit_ms", "serve.cache_hit_ratio", "serve.connect_ms",
    "serve.query_p50_ms", "serve.query_p99_ms", "serve.scrape_p50_ms", "serve.scrape_p95_ms",
    "serve.segments", "serve.segment_bytes", "stream.bad_rows", "stream.rejected_duplicates",
    "proc.threads", "proc.fds", "proc.vmsize_mib", "unattributed_fraction",
    "tracing_overhead_ratio"};

const char* const kWorkloads[] = {"analyze", "sweep", "serve"};

std::unique_ptr<Workload> make(const std::string& name, const Options& options) {
  if (name == "analyze") return make_analyze(options);
  if (name == "sweep") return make_sweep(options);
  return make_serve(options);
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload analyze|sweep|serve --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --tsufail PATH [--tiny]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  const unsigned cores = std::thread::hardware_concurrency();
  options.jobs = cores == 0 ? 1 : std::min(4u, cores);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.scale = Scale::tiny();
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--work-dir") options.work_dir = value;
    else if (flag == "--tsufail") options.tsufail = value;
    else usage("unknown flag " + flag);
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!known) usage("unknown workload '" + options.workload + "'");
  if (options.work_dir.empty() || options.tsufail.empty())
    usage("--work-dir and --tsufail are required");
  return options;
}

void run_untraced(const Options& options, Ledger& ledger) {
  const auto workload = make(options.workload, options);
  std::vector<double> setup_s;
  for (std::size_t k = 0; k < workload->setup_repeats(); ++k)
    setup_s.push_back(timed([&] { workload->setup(ledger, k); }));
  const double start = now_s();
  for (std::size_t done = 0; done < workload->min_iterations() || now_s() - start < options.seconds;
       ++done)
    workload->iterate(ledger);

  std::vector<std::string> headline = workload->report(ledger);
  ledger.metric("setup_s", median(setup_s), "s", setup_s.size());
  ledger.raw("setup_s", setup_s);
  ledger.metric("failed_ratio",
                static_cast<double>(ledger.failed()) / static_cast<double>(ledger.attempted()),
                "ratio");
  for (const char* name : {"setup_s", "failed_ratio", "rss_peak_mib"}) headline.push_back(name);
  ledger.print(options, headline, kEndToEnd);
}

void run_traced(const Options& options, Ledger& ledger) {
  TraceSummary traced;
  double untraced_s = 0.0;
  for (const char* name : kWorkloads) {
    const auto workload = make(name, options);
    workload->setup(ledger, 0);
    if (options.workload != name) {
      workload->trace(ledger);
      continue;
    }
    // Untraced iterations before and after the traced pass, so neither
    // a cold start nor drift in host speed lands on one side only.
    untraced_s = workload->iterate(ledger);
    traced = workload->trace(ledger);
    untraced_s = 0.5 * (untraced_s + workload->iterate(ledger));
    workload->report(ledger);  // the workload keys and the untraced samples
  }
  ledger.metric("unattributed_fraction", 1.0 - traced.attributed_s / traced.wall_s, "ratio");
  ledger.metric("tracing_overhead_ratio", traced.wall_s / untraced_s, "ratio");
  ledger.print(options, kPerLayer, kPerLayer);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  try {
    std::filesystem::create_directories(options.work_dir);
    Ledger ledger;
    if (options.trace) run_traced(options, ledger);
    else run_untraced(options, ledger);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
