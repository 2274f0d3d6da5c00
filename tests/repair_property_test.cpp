// Property suite for the repair orchestrator (ctest labels: property,
// repair): policy degeneracy under infinite crews, spare-pool
// monotonicity, conservation invariants over random adversarial logs and
// a 10^5-failure log, pure-function replay, and bit-identical policy
// sweeps at any thread count.  TSUFAIL_TEST_SEED replays a failure,
// TSUFAIL_TEST_ITERS deepens the nightly run.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "ops/repair_sweep.h"
#include "ops/repairshop.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "testkit/property.h"

namespace tsufail::testkit {
namespace {

using ops::RepairPolicy;
using ops::RepairShopConfig;

RepairShopConfig infinite_crews(RepairPolicy policy) {
  RepairShopConfig config;
  config.crews = 1'000'000;  // >= any generated log size: no contention
  config.policy = policy;
  if (policy == RepairPolicy::kBatchedWindows) {
    config.windows.duration_hours = config.windows.period_hours;  // always open
  }
  return config;
}

TEST(RepairProperty, InfiniteCrewsDegenerateToSampledTtr) {
  // With unlimited crews, no pools, and no throttle, nothing ever queues:
  // every policy starts every repair at its arrival, so the schedule's
  // effective downtime IS the sampled TTR — the paper's original model.
  for (RepairPolicy policy : {RepairPolicy::kFifo, RepairPolicy::kCriticalityFirst,
                              RepairPolicy::kBatchedWindows}) {
    PropertyOptions options;
    options.iterations = 16;
    const auto ce = check_property(
        "infinite-crews-" + std::string(ops::to_string(policy)), options,
        [&](const data::FailureLog& log) -> std::optional<std::string> {
          auto result = ops::run_repair_shop(log, infinite_crews(policy));
          if (!result.ok()) return result.error().to_string();
          const auto records = log.records();
          for (std::size_t i = 0; i < records.size(); ++i) {
            const auto& a = result.value().assignments[i];
            if (a.start_hours != a.arrival_hours) {
              std::ostringstream out;
              out << "assignment " << i << " waited: start " << a.start_hours << " vs arrival "
                  << a.arrival_hours;
              return out.str();
            }
            if (a.completion_hours != a.arrival_hours + records[i].ttr_hours) {
              return "assignment " + std::to_string(i) + " completion != arrival + ttr";
            }
          }
          const data::FailureLog effective = ops::effective_log(log, result.value());
          for (std::size_t i = 0; i < records.size(); ++i) {
            // (arrival + ttr) - arrival reassociates: compare to the
            // absolute rounding floor of the arrival magnitude, not
            // bitwise.
            if (std::abs(effective.records()[i].ttr_hours - records[i].ttr_hours) > 1e-9) {
              return "effective ttr diverged from sampled ttr at record " + std::to_string(i);
            }
          }
          return std::nullopt;
        });
    if (ce.has_value()) FAIL() << ce->describe();
  }
}

TEST(RepairProperty, AllPoliciesAgreeUnderInfiniteCrews) {
  PropertyOptions options;
  options.iterations = 12;
  const auto ce = check_property(
      "policies-degenerate-together", options,
      [](const data::FailureLog& log) -> std::optional<std::string> {
        auto fifo = ops::run_repair_shop(log, infinite_crews(RepairPolicy::kFifo));
        auto critical =
            ops::run_repair_shop(log, infinite_crews(RepairPolicy::kCriticalityFirst));
        auto batched =
            ops::run_repair_shop(log, infinite_crews(RepairPolicy::kBatchedWindows));
        if (!fifo.ok() || !critical.ok() || !batched.ok()) return "a policy errored";
        if (fifo.value().degraded_node_hours != critical.value().degraded_node_hours ||
            fifo.value().degraded_node_hours != batched.value().degraded_node_hours) {
          return "degraded node-hours diverged across degenerate policies";
        }
        if (fifo.value().availability != critical.value().availability ||
            fifo.value().availability != batched.value().availability) {
          return "availability diverged across degenerate policies";
        }
        return std::nullopt;
      });
  if (ce.has_value()) FAIL() << ce->describe();
}

TEST(RepairProperty, ZeroSparesMonotonicallyIncreaseDegradedTime) {
  // Under infinite crews the spare pool is the only constraint.  A pool
  // that starts empty never restocks (restocks are one-for-one after a
  // start), so its category never repairs; a pool deeper than the log
  // never blocks.  Degraded time must order: empty >= default >= deep ==
  // no pool.
  PropertyOptions options;
  options.gen.min_records = 1;
  options.iterations = 16;
  const auto ce = check_property(
      "zero-spares-monotone", options,
      [](const data::FailureLog& log) -> std::optional<std::string> {
        const auto with_pool = [&](std::size_t initial) {
          RepairShopConfig config = infinite_crews(RepairPolicy::kFifo);
          config.spare_pools = {{data::Category::kGpu, {initial, 336.0}}};
          return ops::run_repair_shop(log, config);
        };
        auto empty = with_pool(0);
        auto modest = with_pool(2);
        auto deep = with_pool(1'000'000);
        auto unconstrained = ops::run_repair_shop(log, infinite_crews(RepairPolicy::kFifo));
        if (!empty.ok() || !modest.ok() || !deep.ok() || !unconstrained.ok()) {
          return "a run errored";
        }
        const double e = empty.value().degraded_node_hours;
        const double m = modest.value().degraded_node_hours;
        const double d = deep.value().degraded_node_hours;
        const double u = unconstrained.value().degraded_node_hours;
        // Restock events refine the integration partition, so equal
        // schedules can differ by accumulated rounding; allow that much.
        const double slack = 1e-9 * (1.0 + std::abs(e));
        if (!(e >= m - slack && m >= d - slack)) {
          std::ostringstream out;
          out << "spare monotonicity violated: empty " << e << ", modest " << m << ", deep "
              << d;
          return out.str();
        }
        if (std::abs(d - u) > slack) return "deep pool diverged from no pool";
        bool any_gpu = false;
        for (const auto& record : log.records()) {
          if (record.category == data::Category::kGpu) any_gpu = true;
        }
        if (any_gpu && !(e > d)) {
          return "empty pool did not strictly increase degraded time despite GPU failures";
        }
        return std::nullopt;
      });
  if (ce.has_value()) FAIL() << ce->describe();
}

// The conservation invariants of one schedule, or what broke first.
std::optional<std::string> conservation_violation(const data::FailureLog& log,
                                                  const RepairShopConfig& config,
                                                  const ops::RepairShopResult& r) {
  const std::size_t n = log.size();
  if (r.completed + r.in_flight_at_horizon + r.unstarted_at_horizon != n) {
    return "failure count not conserved across completed/in-flight/unstarted";
  }
  std::size_t consumed = 0, flagged = 0;
  const auto records = log.records();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = r.assignments[i];
    if (a.started()) {
      if (a.crew >= config.crews) return "started repair has no crew";
      if (a.start_hours < a.arrival_hours) return "start before arrival";
      if (a.start_hours > r.horizon_hours) return "start past horizon";
      if (a.completion_hours != a.start_hours + records[i].ttr_hours) {
        return "completion != start + service";
      }
    } else {
      if (a.crew != SIZE_MAX) return "unstarted repair holds a crew";
      if (a.consumed_spare) return "unstarted repair consumed a spare";
    }
    if (a.wait_hours(r.horizon_hours) < 0.0) return "negative wait";
    consumed += a.consumed_spare ? 1 : 0;
    flagged += a.waited_for_spare ? 1 : 0;
  }
  if (consumed != r.spare_demands) return "spare_demands != consumed flags";
  if (flagged != r.stockouts) return "stockouts != waited_for_spare flags";
  double busy_total = 0.0;
  for (double busy : r.crew_busy_hours) {
    if (busy < 0.0 || busy > r.horizon_hours + 1e-9) return "crew busy out of range";
    busy_total += busy;
  }
  if (busy_total > static_cast<double>(config.crews) * r.horizon_hours + 1e-6) {
    return "total crew busy exceeds crews x horizon";
  }
  for (std::size_t p = 0; p < r.final_pool_counts.size(); ++p) {
    if (r.final_pool_counts[p] > config.spare_pools[p].policy.initial_spares) {
      return "pool ended above its initial stock";
    }
  }
  if (r.peak_active > config.crews) return "peak active exceeds crews";
  if (r.peak_queue_depth > n) return "peak queue exceeds log size";
  if (!(r.availability >= 0.0 && r.availability <= 1.0)) {
    return "availability outside [0, 1]";
  }
  if (r.degraded_node_hours < 0.0) return "negative degraded node-hours";
  return std::nullopt;
}

TEST(RepairProperty, ConservationInvariants) {
  const auto configs = std::vector<const char*>{
      "crews=1", "crews=2,policy=critical,spares=GPU:1:100,throttle=1",
      "crews=3,policy=batched,window=0/72/6,spares=GPU:0:24"};
  for (const char* text : configs) {
    auto parsed = ops::parse_repair_config(text);
    ASSERT_TRUE(parsed.ok()) << text;
    const RepairShopConfig config = parsed.value();
    PropertyOptions options;
    options.iterations = 16;
    const auto ce = check_property(
        std::string("repair-conservation-") + text, options,
        [&config](const data::FailureLog& log) -> std::optional<std::string> {
          auto run = ops::run_repair_shop(log, config);
          if (!run.ok()) return run.error().to_string();
          return conservation_violation(log, config, run.value());
        });
    if (ce.has_value()) FAIL() << "config '" << text << "':\n" << ce->describe();
  }
}

TEST(RepairProperty, ConservationAtScaleUnderTheStockShop) {
  // Scale tier: 10^5 Tsubame-2-model failures through the stock shop,
  // whose backlog holds most of the log, under every policy.  Run time is
  // left to the benchmark; this pins that the schedule stays conserved
  // when the queue is tens of thousands deep.
  sim::MachineModel model = sim::tsubame2_model();
  model.total_failures = 100'000;
  auto log = sim::generate_log(model, test_seed());
  ASSERT_TRUE(log.ok()) << log.error().to_string();
  ASSERT_EQ(log.value().size(), model.total_failures);
  for (const char* policy : {"fifo", "critical", "batched"}) {
    auto config = ops::parse_repair_config(
        std::string("crews=2,spares=GPU:2:336,throttle=1,boost=0.95,policy=") + policy);
    ASSERT_TRUE(config.ok()) << policy;
    auto run = ops::run_repair_shop(log.value(), config.value());
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    EXPECT_GT(run.value().peak_queue_depth, 10'000u) << policy;
    const auto violation = conservation_violation(log.value(), config.value(), run.value());
    EXPECT_FALSE(violation.has_value()) << policy << ": " << violation.value_or("");
  }
}

TEST(RepairProperty, ScheduleIsAPureFunctionOfLogAndConfig) {
  PropertyOptions options;
  options.iterations = 8;
  auto config = ops::parse_repair_config("crews=2,policy=critical,spares=GPU:1:50,throttle=1");
  ASSERT_TRUE(config.ok());
  const auto ce = check_property(
      "repair-pure-function", options,
      [&](const data::FailureLog& log) -> std::optional<std::string> {
        auto first = ops::run_repair_shop(log, config.value());
        auto second = ops::run_repair_shop(log, config.value());
        if (!first.ok() || !second.ok()) return "run errored";
        const auto& a = first.value();
        const auto& b = second.value();
        for (std::size_t i = 0; i < a.assignments.size(); ++i) {
          if (a.assignments[i].start_hours != b.assignments[i].start_hours ||
              a.assignments[i].completion_hours != b.assignments[i].completion_hours ||
              a.assignments[i].crew != b.assignments[i].crew) {
            return "replay diverged at assignment " + std::to_string(i);
          }
        }
        if (a.degraded_node_hours != b.degraded_node_hours ||
            a.availability != b.availability || a.total_wait_hours != b.total_wait_hours) {
          return "replay diverged in summary stats";
        }
        return std::nullopt;
      });
  if (ce.has_value()) FAIL() << ce->describe();
}

// The acceptance criterion for the sweep integration: the whole policy
// comparison is bit-identical at jobs = 1, 2, and 8.
TEST(RepairProperty, PolicySweepBitIdenticalAcrossJobCounts) {
  RepairShopConfig base;
  base.crews = 2;
  base.spare_pools = {{data::Category::kGpu, {2, 336.0}}};
  base.throttle.max_active = 1;
  base.throttle.boost_below_capacity = 0.95;

  ops::RepairSweepOptions options;
  options.sweep.base_seed = test_seed();
  options.sweep.replicates = 3;
  options.job_mix.jobs = 100;

  std::vector<sim::SweepResult> results;
  for (std::size_t jobs : {1u, 2u, 8u}) {
    options.sweep.jobs = jobs;
    auto sweep = ops::run_repair_policy_sweep(sim::tsubame2_model(),
                                              ops::default_policy_variants(base), options);
    ASSERT_TRUE(sweep.ok()) << "jobs=" << jobs << ": " << sweep.error().to_string();
    results.push_back(std::move(sweep).value());
  }
  const sim::SweepResult& serial = results[0];
  for (std::size_t r = 1; r < results.size(); ++r) {
    const sim::SweepResult& parallel = results[r];
    ASSERT_EQ(parallel.variants.size(), serial.variants.size());
    for (std::size_t v = 0; v < serial.variants.size(); ++v) {
      const auto& sv = serial.variants[v];
      const auto& pv = parallel.variants[v];
      EXPECT_EQ(sv.label, pv.label);
      ASSERT_EQ(sv.replicates.size(), pv.replicates.size());
      for (std::size_t i = 0; i < sv.replicates.size(); ++i) {
        ASSERT_EQ(sv.replicates[i].metrics.size(), pv.replicates[i].metrics.size());
        for (std::size_t m = 0; m < sv.replicates[i].metrics.size(); ++m) {
          EXPECT_EQ(sv.replicates[i].metrics[m].name, pv.replicates[i].metrics[m].name);
          // Bitwise: no tolerance.
          EXPECT_EQ(sv.replicates[i].metrics[m].value, pv.replicates[i].metrics[m].value)
              << sv.label << " replicate " << i << " metric "
              << sv.replicates[i].metrics[m].name;
        }
      }
      ASSERT_EQ(sv.aggregates.size(), pv.aggregates.size());
      for (std::size_t m = 0; m < sv.aggregates.size(); ++m) {
        EXPECT_EQ(sv.aggregates[m].mean, pv.aggregates[m].mean) << sv.aggregates[m].name;
        EXPECT_EQ(sv.aggregates[m].stddev, pv.aggregates[m].stddev) << sv.aggregates[m].name;
        EXPECT_EQ(sv.aggregates[m].mean_ci.low, pv.aggregates[m].mean_ci.low)
            << sv.aggregates[m].name;
        EXPECT_EQ(sv.aggregates[m].mean_ci.high, pv.aggregates[m].mean_ci.high)
            << sv.aggregates[m].name;
      }
    }
  }
}

TEST(RepairProperty, ContentionOnlyEverHurtsAvailability) {
  // Scheduling can only delay completions relative to the unconstrained
  // shop, so the single-crew schedule never beats infinite crews.
  PropertyOptions options;
  options.iterations = 12;
  const auto ce = check_property(
      "contention-hurts", options,
      [](const data::FailureLog& log) -> std::optional<std::string> {
        RepairShopConfig one;
        one.crews = 1;
        auto constrained = ops::run_repair_shop(log, one);
        auto unconstrained =
            ops::run_repair_shop(log, infinite_crews(RepairPolicy::kFifo));
        if (!constrained.ok() || !unconstrained.ok()) return "run errored";
        if (constrained.value().degraded_node_hours + 1e-9 <
            unconstrained.value().degraded_node_hours) {
          return "single crew produced LESS degraded time than infinite crews";
        }
        if (constrained.value().availability >
            unconstrained.value().availability + 1e-12) {
          return "single crew produced HIGHER availability than infinite crews";
        }
        return std::nullopt;
      });
  if (ce.has_value()) FAIL() << ce->describe();
}

}  // namespace
}  // namespace tsufail::testkit
