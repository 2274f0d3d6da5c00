#include "bench_common.h"

#include <cstdio>

#include "sim/generator.h"

namespace tsufail::bench {
namespace {

int g_mismatches = 0;

}  // namespace

const data::FailureLog& bench_log(data::Machine machine) {
  static const data::FailureLog t2 =
      sim::generate_log(sim::tsubame2_model(), kBenchSeed).value();
  static const data::FailureLog t3 =
      sim::generate_log(sim::tsubame3_model(), kBenchSeed).value();
  return machine == data::Machine::kTsubame2 ? t2 : t3;
}

void print_banner(const std::string& experiment, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("data: calibrated synthetic logs (fleetsim seed %llu)\n",
              static_cast<unsigned long long>(kBenchSeed));
  std::printf("================================================================\n\n");
}

void print_comparisons(const report::ComparisonSet& set) {
  std::printf("%s\n", set.render().c_str());
  if (!set.all_within_tolerance()) ++g_mismatches;
}

int exit_code() { return g_mismatches == 0 ? 0 : 1; }

}  // namespace tsufail::bench
