// FailureLog: an immutable, time-sorted collection of failure records for
// one machine, plus the query API every analyzer is built on.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <vector>

#include "data/machine.h"
#include "data/record.h"
#include "util/error.h"

namespace tsufail::data {

/// Stable-sorts `records` by time, unless they already are in time order:
/// a stable sort leaves a sorted range as it is, so skipping it changes
/// nothing but the cost.  Ties keep their order.
void sort_by_time(std::vector<FailureRecord>& records);

class FailureLog {
 public:
  /// Builds a log, sorting records by time (sort_by_time) and validating
  /// each against the spec.  Errors name the offending record index.
  /// `slack_hours` relaxes the window check (generated logs may slightly
  /// overshoot the window).
  static Result<FailureLog> create(MachineSpec spec, std::vector<FailureRecord> records,
                                   double slack_hours = 0.0);

  const MachineSpec& spec() const noexcept { return spec_; }
  Machine machine() const noexcept { return spec_.machine; }
  std::span<const FailureRecord> records() const noexcept { return records_; }
  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }

  // --- Queries ---------------------------------------------------------

  /// Records satisfying an arbitrary predicate, in time order.
  std::vector<FailureRecord> filter(
      const std::function<bool(const FailureRecord&)>& predicate) const;

  /// Records of one category.
  std::vector<FailureRecord> by_category(Category category) const;

  /// Records of one hardware/software class.
  std::vector<FailureRecord> by_class(FailureClass cls) const;

  /// GPU-related records (GPU hardware + GPU driver).
  std::vector<FailureRecord> gpu_related() const;

  /// Records within [from, to] inclusive.
  std::vector<FailureRecord> in_window(TimePoint from, TimePoint to) const;

  /// Failure count per category, in the machine's Table II order
  /// (categories with zero occurrences included).
  std::map<Category, std::size_t> count_by_category() const;

  /// Failure count per node, only nodes with >= 1 failure.
  std::map<int, std::size_t> count_by_node() const;

  /// Distinct failure times as fractional hours since the log window start,
  /// for inter-arrival analysis.
  std::vector<double> failure_hours_since_start() const;

  /// All time-to-recovery values in record order.
  std::vector<double> ttr_values() const;

  /// A new log containing only `records` (keeps this log's spec).
  /// Used to derive per-category sub-logs.
  Result<FailureLog> sublog(std::vector<FailureRecord> records) const;

  /// A new log holding `base`'s records followed by `suffix` — the
  /// append-only shape a sealed stream epoch produces.  Only the suffix
  /// is sorted and validated; the base records ride along untouched, so
  /// the result is value-identical to re-creating the log from the full
  /// concatenation while doing O(suffix) new work (plus the prefix
  /// copy).  Errors: a suffix record fails validation, or the earliest
  /// suffix record predates `base`'s last record.
  static Result<FailureLog> append(const FailureLog& base, std::vector<FailureRecord> suffix,
                                   double slack_hours = 0.0);

  /// Adopts records that are already time-sorted and already validated —
  /// the shape a checksummed columnar snapshot materializes — skipping
  /// create()'s stable_sort and per-record checks.  Record order is
  /// preserved exactly (ties included), so a snapshot round-trip is
  /// order-identical to the log it was packed from.  Precondition
  /// (REQUIREd): records ascending by time.
  static FailureLog from_sorted(MachineSpec spec, std::vector<FailureRecord> records);

  /// Moves the record storage out of a finished log, so batch drivers
  /// (sim::run_sweep) can recycle one allocation across many generated
  /// logs instead of reallocating per replicate.  The log is left empty.
  static std::vector<FailureRecord> take_records(FailureLog&& log) noexcept {
    return std::move(log.records_);
  }

 private:
  FailureLog(MachineSpec spec, std::vector<FailureRecord> records)
      : spec_(std::move(spec)), records_(std::move(records)) {}

  MachineSpec spec_;
  std::vector<FailureRecord> records_;  // invariant: ascending by time
};

}  // namespace tsufail::data
