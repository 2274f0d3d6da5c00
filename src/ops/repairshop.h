// ops::repairshop — deterministic discrete-event repair orchestration.
//
// The paper samples a TTR per failure and calls that downtime.  Its
// implications section argues the opposite: at multi-GPU-node scale,
// *repair scheduling* — how many crews are on shift, whether the part is
// in stock, which broken node gets serviced first — is what determines
// fleet availability.  This module replaces the sampled-TTR model with a
// discrete-event simulator: each failure is a repair *job* whose service
// content is the log's TTR, and its actual downtime is queueing (crew
// contention, spare stockouts, maintenance-window batching, throttling)
// plus service.
//
// Model semantics (the contract both this engine and the naive reference
// simulator in testkit/repair_reference.h implement, diffed event-for-
// event by the differential oracle):
//
//   * Failure i (log record order; ties share a timestamp but keep their
//     record index) arrives at a_i = hours since log start, with service
//     content s_i = the record's ttr_hours.
//   * Degradation units: on a machine with G GPUs/node, a GPU-hardware
//     failure naming k slots costs min(G, max(1, k)) units on its node
//     (the node keeps serving on its remaining GPUs); every other
//     category costs G units (whole node down).  A node's loss is capped
//     at G no matter how many failures pile onto it.  Degradation runs
//     from *arrival* to *repair completion* — waiting in the queue is
//     real downtime, which is the whole point.
//   * Crews: `crews` identical servers; a repair occupies one crew for
//     exactly s_i hours, no preemption.  Starts assign the lowest-index
//     free crew.
//   * Spares: per-category pools (extending ops::spares semantics).  A
//     repair of a pooled category consumes one spare *at start* and
//     triggers a one-for-one restock arriving lead-time later.  An empty
//     pool blocks the start until a restock arrives.
//   * Throttling vs cluster load: when `max_active` > 0, at most that
//     many repairs may be in service at once (SNS-repair style: bound
//     repair's impact on production traffic) — unless the fleet's healthy
//     capacity fraction has dropped below `boost_below_capacity`, in
//     which case the cap is lifted to the crew count (urgency overrides
//     politeness).
//   * Policies decide the order in which waiting repairs start:
//       - FIFO: arrival order (record index).
//       - criticality-first: most degradation units first, then shortest
//         service, then arrival order.
//       - batched windows: partial-degradation repairs may only *start*
//         inside periodic maintenance windows; whole-node failures are
//         emergencies and start any time.  FIFO order within a window.
//   * Event processing: time advances tick by tick.  Within one tick at
//     time t, state changes apply in a fixed order — spare arrivals,
//     then completions (by failure index), then arrivals (by failure
//     index) — followed by a dispatch loop that repeatedly starts the
//     policy-best eligible waiting repair until crews, spares, the
//     throttle cap, or the window gate say stop.  Zero-service repairs
//     complete inside the same tick (the completion re-enters the tick
//     loop), so chains of instant repairs drain through one crew at one
//     instant deterministically.
//
// Everything is exact integer/double arithmetic on the same formulas in
// engine and reference, so the oracle compares start/completion times
// for equality, not tolerance.  The orchestrator draws no random
// numbers: given a log and a config the schedule is a pure function, and
// policy sweeps stay bit-identical at any thread count.
//
// Dispatch cost.  The waiting queue is one policy-ordered heap per
// bucket, a bucket being (spare pool or none) x (whole-node vs partial):
// 2*(pools+1) buckets, at most 130.  Every job in a bucket is eligible at
// the same instants (its pool has a part; for a partial repair under
// batched windows, the window is open), so a start compares only the
// admitted bucket heads and pops one heap: O(log q + buckets) for a
// queue of q, with ties still broken by record index.  The tick
// epilogue is O(buckets).  `waited_for_spare` is set lazily: each bucket
// remembers the last tick end at which a crew and the cap were free, the
// window admitted the bucket and its pool was empty; a job is flagged
// when it leaves the bucket (at its start, or at the horizon) if that
// tick is at or after its arrival.
// The stock shop (crews=2, spares=GPU:2:336, throttle=1, boost=0.95)
// queues nearly every failure: 9505 of a 10^4-failure Tsubame-2 log at
// the peak.  On that log, the three policies took 0.657 s with a sorted
// queue vector scanned in full per start (size exponent 1.85 from 10^3
// to 10^4 failures, 54k events/s) and take 0.012 s with the heaps
// (exponent 0.85, 3.0M events/s): `perfbench/run.py --workload sweep
// --trace 1`, Release, 4-vCPU x86-64 host.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/log.h"
#include "ops/spares.h"

namespace tsufail::ops {

/// Scheduling discipline for the waiting queue.
enum class RepairPolicy {
  kFifo,              ///< arrival order
  kCriticalityFirst,  ///< most capacity lost first, then shortest service
  kBatchedWindows,    ///< partials wait for maintenance windows; full-node
                      ///< failures start immediately
};

std::string_view to_string(RepairPolicy policy) noexcept;
/// Parses "fifo" / "critical" / "criticality-first" / "batched" /
/// "batched-windows" (case-insensitive, dashes/underscores ignored).
Result<RepairPolicy> parse_repair_policy(std::string_view name);

/// One per-category spare pool (ops::spares semantics: one-for-one
/// restock with a procurement lead time).  Categories without a pool
/// need no part.
struct SparePoolConfig {
  data::Category category = data::Category::kGpu;
  SparePolicy policy;  ///< initial_spares + restock_lead_time_hours
};

/// Periodic maintenance windows [offset + k*period, offset + k*period +
/// duration), k = 0, 1, ...  Only consulted by kBatchedWindows.
struct MaintenanceWindows {
  double offset_hours = 0.0;
  double period_hours = 168.0;   ///< weekly
  double duration_hours = 24.0;  ///< window length; == period means always open
};

/// Concurrency throttle against production load.
struct RepairThrottle {
  /// Max repairs in service at once; 0 = no throttle (crews still bound).
  std::size_t max_active = 0;
  /// When healthy capacity fraction drops strictly below this, the
  /// throttle lifts to the crew count.  0 = never lift.
  double boost_below_capacity = 0.0;
};

struct RepairShopConfig {
  std::size_t crews = 4;
  RepairPolicy policy = RepairPolicy::kFifo;
  std::vector<SparePoolConfig> spare_pools;  ///< at most one per category
  RepairThrottle throttle;
  MaintenanceWindows windows;
  /// Simulation horizon: last arrival (or window end, whichever is
  /// later) plus this slack.  Repairs not finished by then are reported
  /// unfinished and their downtime runs to the horizon.
  double horizon_slack_hours = 24.0 * 365.0;
};

/// Bounds-checks a config (crews in [1, 1e6], pools unique with sane
/// sizes/leads, throttle boost in [0, 1], windows with period in
/// [0.5 h, 1e6 h] and 0 < duration <= period, slack in [0, 1e7 h]).
Result<void> validate_repair_config(const RepairShopConfig& config);

/// One-line human rendering of a config, in the same key=value shape the
/// parser accepts ("crews=4, policy=fifo, spares=GPU:2:336, ...").
std::string describe_repair_config(const RepairShopConfig& config);

/// Parses a compact "key=value,key=value" shop description:
///   crews=4,policy=critical,spares=GPU:2:336;Memory:1:168,
///   throttle=2,boost=0.9,window=0/168/24,horizon-slack=8760
/// Unknown keys, malformed numbers, and out-of-range values are domain
/// errors, never crashes (the fuzz suite feeds this garbage).
Result<RepairShopConfig> parse_repair_config(std::string_view text);

/// The schedule for one failure.  Times are hours since log start;
/// kNever marks a repair still waiting at the horizon.
struct RepairAssignment {
  static constexpr double kNever = -1.0;
  double arrival_hours = 0.0;
  double start_hours = kNever;       ///< kNever = never started
  double completion_hours = kNever;  ///< known at start (start + service)
  std::size_t crew = SIZE_MAX;       ///< SIZE_MAX = never assigned
  int degradation_units = 0;         ///< capacity units lost while open
  bool consumed_spare = false;
  bool waited_for_spare = false;     ///< blocked by an empty pool >= 1 tick

  bool started() const noexcept { return start_hours >= 0.0; }
  double wait_hours(double horizon) const noexcept {
    return (started() ? start_hours : horizon) - arrival_hours;
  }
};

struct RepairShopResult {
  std::vector<RepairAssignment> assignments;  ///< by failure index
  std::size_t completed = 0;            ///< completion <= horizon
  std::size_t in_flight_at_horizon = 0; ///< started, completes later
  std::size_t unstarted_at_horizon = 0;
  double horizon_hours = 0.0;
  double makespan_hours = 0.0;          ///< last completion (or horizon)

  double total_wait_hours = 0.0;  ///< queue time (start - arrival)
  double mean_wait_hours = 0.0;
  double max_wait_hours = 0.0;
  std::size_t peak_queue_depth = 0;  ///< waiting repairs after any tick
  std::size_t peak_active = 0;       ///< concurrent in-service repairs

  std::vector<double> crew_busy_hours;  ///< service hours per crew
  double crew_utilization = 0.0;        ///< sum busy / (crews * makespan)

  std::size_t spare_demands = 0;  ///< starts that consumed a pooled part
  std::size_t stockouts = 0;      ///< repairs that waited on an empty pool
  std::vector<std::size_t> final_pool_counts;  ///< per config pool, at end

  /// Integral of lost capacity over time, node-capped, in node-hours.
  double degraded_node_hours = 0.0;
  /// 1 - degraded_node_hours / (nodes * log window), clamped to [0, 1]:
  /// the fleet capacity actually served, repair contention included.
  double availability = 0.0;
};

/// Runs the orchestrator over a log.  Deterministic: no RNG, and the
/// result is a pure function of (log, config).  Errors: invalid config
/// or a pool category outside the machine's vocabulary.
Result<RepairShopResult> run_repair_shop(const data::FailureLog& log,
                                         const RepairShopConfig& config);

/// The log with every record's ttr_hours replaced by its *effective*
/// downtime under the schedule (completion - arrival; horizon - arrival
/// for unfinished repairs), so the existing availability / job-impact
/// models score the schedule instead of the sampled TTR.
/// Precondition: `result` came from run_repair_shop on `log`.
data::FailureLog effective_log(const data::FailureLog& log, const RepairShopResult& result);

}  // namespace tsufail::ops
