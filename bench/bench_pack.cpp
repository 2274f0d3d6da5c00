// bench_pack: the columnar snapshot's two contract numbers, measured.
//
// For both calibrated Tsubame presets:
//   1. speed   — loading a packed .tsnap (mmap + zero-copy index
//                adoption) must beat parsing the equivalent CSV by at
//                least kGateSpeedupMin (median of repeated runs);
//   2. fidelity — the full study report rendered from the loaded
//                snapshot must be byte-identical to the one rendered
//                from the parsed CSV, and unpacking the snapshot must
//                reproduce the canonical CSV byte-for-byte.
//
// Violating either gate makes the process exit non-zero, so CI can hold
// the line.  BENCH_pack.json carries each side's own time and throughput
// (`*_parse_*`, `*_load_*`), which bench_diff scores separately; the
// load/parse ratio is printed but not recorded, because a measured ratio
// in a perf record would count as a workload key (tools/bench_diff.cpp).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/study.h"
#include "bench_common.h"
#include "data/columnar.h"
#include "data/log_index.h"
#include "data/log_io.h"
#include "data/snapshot.h"
#include "report/study_text.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median wall time of `reps` runs of `body` (each run's result is
/// consumed via a volatile sink so the work cannot be elided).
template <typename Body>
double median_seconds(int reps, Body&& body) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    const std::size_t observed = body();
    times.push_back(seconds_since(start));
    volatile std::size_t sink = observed;
    (void)sink;
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// The speed gate.  Against the single-pass CSV reader a snapshot loads
/// these presets 6.3-8.8x faster (Release, GCC 12, 4-thread x86-64 host;
/// it was 31-35x against the two-stage reader it replaced, gated at 20x).
/// The gate keeps that old margin, about 0.6x of the lowest ratio seen.
constexpr double kGateSpeedupMin = 4.0;

}  // namespace

int main() {
  using namespace tsufail;

  bench::print_banner("pack", "columnar snapshot load vs CSV parse");

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tsufail_bench_pack";
  std::filesystem::create_directories(dir);

  bench::PerfJson perf("pack");
  bool ok = true;

  for (data::Machine machine : {data::Machine::kTsubame2, data::Machine::kTsubame3}) {
    const std::string tag = machine == data::Machine::kTsubame2 ? "t2" : "t3";
    const data::FailureLog& log = bench::bench_log(machine);
    const std::string csv = data::write_log_csv(log);
    const data::LogIndex index(log);
    const std::string packed = data::pack_columnar(log, &index);

    const std::string csv_path = (dir / (tag + ".csv")).string();
    const std::string snap_path = (dir / (tag + ".tsnap")).string();
    {
      std::ofstream out(csv_path, std::ios::binary);
      out << csv;
    }
    if (auto written = data::write_columnar_file(snap_path, packed); !written.ok()) {
      std::cerr << "FAIL: " << written.error().to_string() << "\n";
      return 1;
    }

    // Parse path: CSV file -> records -> index (what `tsufail analyze
    // log.csv` does before any analysis runs).
    const double parse_s = median_seconds(15, [&] {
      auto report = data::read_log_file(csv_path, data::ReadPolicy::kStrict);
      if (!report.ok()) return std::size_t{0};
      const data::LogIndex idx(report.value().log);
      return idx.size();
    });

    // Load path: .tsnap file -> mmap -> materialized records + adopted
    // index (what the same command does for a snapshot input).
    const double load_s = median_seconds(60, [&] {
      auto snap = data::ColumnarSnapshot::open(snap_path);
      if (!snap.ok()) return std::size_t{0};
      auto mounted = data::LogSnapshot::from_columnar(std::move(snap).value());
      if (!mounted.ok()) return std::size_t{0};
      return mounted.value()->index().size();
    });
    const double speedup = load_s > 0.0 ? parse_s / load_s : 0.0;

    // Fidelity gate 1: analyze-from-snapshot is byte-identical to
    // analyze-from-CSV.
    auto parsed = data::read_log_csv(csv, data::ReadPolicy::kStrict);
    auto loaded = data::ColumnarSnapshot::open(snap_path);
    if (!parsed.ok() || !loaded.ok()) {
      std::cerr << "FAIL: reload failed\n";
      return 1;
    }
    const std::string via_csv = report::render_study_text(
        parsed.value().log, analysis::run_study(parsed.value().log, {}).value());
    const data::FailureLog from_snap = loaded.value()->to_log();
    const std::string via_snap =
        report::render_study_text(from_snap, analysis::run_study(from_snap, {}).value());
    const bool reports_identical = via_csv == via_snap;

    // Fidelity gate 2: unpack reproduces the canonical CSV exactly.
    const bool csv_identical = data::write_log_csv(from_snap) == csv;

    const bool fast_enough = speedup >= kGateSpeedupMin;
    ok = ok && reports_identical && csv_identical && fast_enough;

    std::printf("%s: %zu records, csv %zu B, tsnap %zu B (%s load)\n", tag.c_str(), log.size(),
                csv.size(), packed.size(), loaded.value()->mapped() ? "mmap" : "stream");
    std::printf("  parse %.3f ms  load %.3f ms  speedup %.1fx  [gate >= %.0fx: %s]\n",
                parse_s * 1e3, load_s * 1e3, speedup, kGateSpeedupMin,
                fast_enough ? "ok" : "FAIL");
    std::printf("  study report byte-identical: %s; unpack byte-identical: %s\n",
                reports_identical ? "ok" : "FAIL", csv_identical ? "ok" : "FAIL");

    perf.set(tag + "_records", static_cast<std::int64_t>(log.size()));
    perf.set(tag + "_csv_bytes", static_cast<std::int64_t>(csv.size()));
    perf.set(tag + "_tsnap_bytes", static_cast<std::int64_t>(packed.size()));
    perf.set(tag + "_parse_s", parse_s);
    perf.set(tag + "_load_s", load_s);
    perf.set(tag + "_parse_records_per_s", static_cast<double>(log.size()) / parse_s);
    perf.set(tag + "_load_records_per_s", static_cast<double>(log.size()) / load_s);
    perf.set(tag + "_report_identical", reports_identical ? std::int64_t{1} : std::int64_t{0});

    std::remove(csv_path.c_str());
    std::remove(snap_path.c_str());
  }

  perf.set("gate_speedup_min", kGateSpeedupMin);
  perf.set("gate_ok", ok ? std::int64_t{1} : std::int64_t{0});
  perf.write();

  std::printf("\n%s\n", ok ? "pack gates: all ok" : "pack gates: FAILED");
  return ok ? 0 : 1;
}
