// The three perfbench workloads behind one interface.  main() times
// each setup() call, calls iterate() until the run's seconds are spent,
// and asks report() for the end-to-end metrics; a traced run calls
// trace() instead, which wraps each call into a src/ module's public
// functions in a timer and records the per-layer metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Wall time of a traced pass over the same pipelines an iteration runs,
/// and the part of it that timed layer calls cover.
struct TraceSummary {
  double wall_s = 0.0;
  double attributed_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// How many timed set-ups an untraced run makes, and the fewest
  /// iterations it measures.
  virtual std::size_t setup_repeats() const = 0;
  virtual std::size_t min_iterations() const = 0;
  /// Set-up number `repeat`: generates inputs from the seed.  Repeats
  /// either redo the whole set-up or each add one more input.
  virtual void setup(Ledger& ledger, std::size_t repeat) = 0;
  /// One untraced iteration with its output checks; returns the wall
  /// seconds of the pipelines it measures.
  virtual double iterate(Ledger& ledger) = 0;
  /// Records primary_s, secondary_s and rss_peak_mib from the iterations
  /// so far, plus the workload's named readings; returns those names.
  virtual std::vector<std::string> report(Ledger& ledger) = 0;
  /// One traced pass plus the size probes; records per-layer metrics.
  virtual TraceSummary trace(Ledger& ledger) = 0;
};

std::unique_ptr<Workload> make_analyze(const Options& options);
std::unique_ptr<Workload> make_sweep(const Options& options);
std::unique_ptr<Workload> make_serve(const Options& options);

}  // namespace perfbench
