// Ablation bench: switch off each fleetsim design choice in turn and show
// which paper observation it carries.  This documents WHY the simulator
// has each mechanism (DESIGN.md's design-choice index).
//
//   knob                      carries
//   ------------------------  -----------------------------------------
//   node heterogeneity        Fig 4 repeat-failure node mass
//   slot weights              Fig 5 non-uniform slot distribution
//   burst arrivals            Fig 8 multi-GPU temporal clustering
//   seasonal modulation       Fig 11 Tsubame-2 H2 repair slowdown
//
// All five variants run through one sim::run_sweep call: every variant
// replays the same per-replicate seed set (common random numbers), so the
// off/full ratios below compare like with like, and the replicate fan-out
// uses every hardware thread while staying bit-identical to a serial run.
#include <cstdio>

#include "bench_common.h"
#include "obs/obs.h"
#include "report/table.h"
#include "sim/montecarlo.h"

using namespace tsufail;

namespace {

constexpr std::size_t kReplicates = 5;

sim::SweepVariant variant(std::string label,
                          void (*ablate)(sim::SimKnobs&) = nullptr) {
  sim::SweepVariant v{std::move(label), sim::tsubame2_model(), {}};
  if (ablate != nullptr) ablate(v.model.knobs);
  return v;
}

}  // namespace

int main() {
  bench::print_banner("bench_ablation_sim",
                      "fleetsim design-choice ablations (DESIGN.md section 4)");

  const std::vector<sim::SweepVariant> variants = {
      variant("full model (Tsubame-2)"),
      variant("- node heterogeneity", [](sim::SimKnobs& k) { k.enable_node_heterogeneity = false; }),
      variant("- slot weights", [](sim::SimKnobs& k) { k.enable_slot_weights = false; }),
      variant("- burst arrivals", [](sim::SimKnobs& k) { k.enable_bursts = false; }),
      variant("- seasonal modulation", [](sim::SimKnobs& k) { k.enable_seasonal = false; }),
  };

  sim::SweepOptions options;
  options.base_seed = bench::kBenchSeed;
  options.replicates = kReplicates;
  options.jobs = 0;  // all hardware threads; aggregates identical to jobs=1
  const obs::Stopwatch watch;
  const auto sweep = sim::run_sweep(variants, options).value();
  const double wall_s = watch.seconds();

  report::Table table({"Variant", "multi-failure nodes %", "slot imbalance",
                       "multi-GPU gap CV", "H2/H1 TTR"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight});
  for (const auto& row : sweep.variants) {
    table.add_row({row.label, report::fmt(row.mean_of("percent_multi_failure_nodes"), 1),
                   report::fmt(row.mean_of("slot_max_relative_excess"), 3),
                   report::fmt(row.mean_of("multi_gpu_gap_cv"), 2),
                   report::fmt(row.mean_of("h2_h1_ttr_ratio"), 2)});
  }
  std::printf("%s\n", table.render().c_str());

  const auto& full = sweep.variants[0];
  const auto ratio = [&full](const sim::VariantSweep& ablated, const char* metric) {
    return ablated.mean_of(metric) / full.mean_of(metric, 1.0);
  };
  report::ComparisonSet cmp("ablation deltas (each knob owns its signal)");
  cmp.add("heterogeneity knob cuts multi-failure mass (off/full < 0.85)", 0.55,
          ratio(sweep.variants[1], "percent_multi_failure_nodes"), 0.55, "x");
  cmp.add("slot-weight knob owns slot imbalance (off/full)", 0.3,
          ratio(sweep.variants[2], "slot_max_relative_excess"), 0.9, "x");
  cmp.add("burst knob owns gap over-dispersion (off/full)", 0.6,
          ratio(sweep.variants[3], "multi_gpu_gap_cv"), 0.4, "x");
  cmp.add("seasonal knob owns the H2 slowdown (off ~ 1.0)", 1.0,
          sweep.variants[4].mean_of("h2_h1_ttr_ratio"), 0.2, "x");
  bench::print_comparisons(cmp);

  bench::PerfJson perf("ablation_sim");
  perf.set("variants", static_cast<std::int64_t>(variants.size()));
  perf.set("replicates_per_variant", static_cast<std::int64_t>(kReplicates));
  perf.set("wall_s", wall_s);
  perf.set("replicates_per_s",
           static_cast<double>(variants.size() * kReplicates) / wall_s);
  perf.write();
  return bench::exit_code();
}
