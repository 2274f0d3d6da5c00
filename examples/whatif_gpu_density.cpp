// whatif_gpu_density: a forward-looking study the paper motivates but
// could not run — "the number of GPUs per node is likely to increase
// [Summit, Sierra]".  We build hypothetical 6- and 8-GPU-per-node
// machines from the calibrated Tsubame-3 model, scale the GPU failure
// share with GPU count, and ask how node-level reliability changes under
// two regimes: Tsubame-2-style correlated multi-GPU failures vs
// Tsubame-3-style independent ones.
//
// All five machines run through one sim::run_sweep call: every variant
// replays the same 5-replicate seed set (common random numbers), so the
// deltas between rows are model effects, not sampling noise.
//
//   $ ./whatif_gpu_density
#include <cstdio>

#include "report/table.h"
#include "sim/montecarlo.h"
#include "sim/scaling.h"
#include "sim/tsubame_models.h"

using namespace tsufail;

namespace {

/// Builds a hypothetical dense-GPU machine from the Tsubame-3 preset via
/// the library's scaling utilities.
sim::MachineModel dense_machine(int gpus_per_node, bool correlated_failures) {
  auto scaled = sim::scale_gpu_density(
      sim::tsubame3_model(), gpus_per_node,
      correlated_failures ? sim::InvolvementRegime::kCorrelated
                          : sim::InvolvementRegime::kIndependent);
  return std::move(scaled.value());
}

}  // namespace

int main() {
  std::printf("what-if: scaling GPUs per node beyond Tsubame-3 (5-replicate sweep)\n\n");

  std::vector<sim::SweepVariant> variants;
  variants.push_back({sim::tsubame3_model().spec.name, sim::tsubame3_model(), {}});
  for (int gpus : {6, 8}) {
    for (bool correlated : {false, true}) {
      auto model = dense_machine(gpus, correlated);
      variants.push_back(
          {model.spec.name + (correlated ? " (correlated)" : " (independent)"),
           std::move(model), {}});
    }
  }

  sim::SweepOptions options;
  options.base_seed = 1;
  options.replicates = 5;
  options.jobs = 0;  // all hardware threads; results identical to serial
  const auto sweep = sim::run_sweep(variants, options).value();

  report::Table table({"Machine", "System MTBF", "GPU MTBF", "multi-GPU failures",
                       "multi-failure nodes"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight});
  for (const auto& row : sweep.variants) {
    table.add_row({row.label, report::fmt(row.mean_of("mtbf_hours"), 1) + " h",
                   report::fmt(row.mean_of("mtbf_gpu_hours"), 1) + " h",
                   report::fmt_percent(row.mean_of("multi_gpu_percent"), 1),
                   report::fmt_percent(row.mean_of("percent_multi_failure_nodes"), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("reading: denser nodes erode system MTBF through sheer GPU count, and if\n"
              "multi-GPU correlation returns (Tsubame-2 regime), most GPU incidents take\n"
              "out several cards at once — the paper's warning to operators of Summit-\n"
              "class machines, quantified.\n");
  return 0;
}
