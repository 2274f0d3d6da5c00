// Shared scaffolding for the paper-reproduction bench binaries.
//
// Every bench regenerates one table or figure: it generates the two
// calibrated synthetic logs (fixed seed, so output is reproducible),
// prints the paper's reported values next to the measured ones, renders
// the figure as terminal text, and exports the plotted series as CSV
// under figures/.
#pragma once

#include <cstdint>
#include <string>

#include "data/log.h"
#include "report/compare.h"
#include "sim/tsubame_models.h"

namespace tsufail::bench {

/// The seed every bench uses, so all bench output lines up across binaries.
constexpr std::uint64_t kBenchSeed = 20210607;  // DSN 2021 vintage

/// Calibrated synthetic log for one machine (generated once, cached).
const data::FailureLog& bench_log(data::Machine machine);

/// Prints the standard bench banner: what is being reproduced and from what.
void print_banner(const std::string& experiment, const std::string& paper_ref);

/// Prints a comparison set and remembers the verdict for exit_code().
void print_comparisons(const report::ComparisonSet& set);

/// 0 if every printed comparison matched, 1 otherwise.  Benches return
/// this from main() so CI can gate on reproduction quality.
int exit_code();

}  // namespace tsufail::bench
