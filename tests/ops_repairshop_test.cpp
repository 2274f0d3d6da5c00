// Unit tests for ops::repairshop — policy/config parsing, validation,
// and the discrete-event engine's semantics on hand-built logs small
// enough to schedule by hand (ctest labels: unit, repair).
#include "ops/repairshop.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ops/repair_sweep.h"
#include "sim/tsubame_models.h"

namespace tsufail::ops {
namespace {

using data::Category;

data::FailureRecord rec(int node, Category category, const char* time, double ttr = 10.0,
                        std::vector<int> slots = {}) {
  data::FailureRecord r;
  r.node = node;
  r.category = category;
  r.time = parse_time(time).value();
  r.ttr_hours = ttr;
  r.gpu_slots = std::move(slots);
  return r;
}

data::FailureLog t2_log(std::vector<data::FailureRecord> records) {
  return data::FailureLog::create(data::tsubame2_spec(), std::move(records)).value();
}

// Tsubame-2: log starts 2012-01-07 00:00, 1408 nodes x 3 GPUs.
constexpr double kT2Units = 1408.0 * 3.0;

// ---- Policy parsing ------------------------------------------------------

TEST(RepairPolicy, ToStringParseRoundTrip) {
  for (RepairPolicy policy : {RepairPolicy::kFifo, RepairPolicy::kCriticalityFirst,
                              RepairPolicy::kBatchedWindows}) {
    auto parsed = parse_repair_policy(to_string(policy));
    ASSERT_TRUE(parsed.ok()) << to_string(policy);
    EXPECT_EQ(parsed.value(), policy);
  }
}

TEST(RepairPolicy, ParseAliases) {
  EXPECT_EQ(parse_repair_policy("FIFO").value(), RepairPolicy::kFifo);
  EXPECT_EQ(parse_repair_policy("critical").value(), RepairPolicy::kCriticalityFirst);
  EXPECT_EQ(parse_repair_policy("Criticality_First").value(), RepairPolicy::kCriticalityFirst);
  EXPECT_EQ(parse_repair_policy("batched").value(), RepairPolicy::kBatchedWindows);
  EXPECT_EQ(parse_repair_policy("windows").value(), RepairPolicy::kBatchedWindows);
  EXPECT_EQ(parse_repair_policy("batched windows").value(), RepairPolicy::kBatchedWindows);
  EXPECT_FALSE(parse_repair_policy("lifo").ok());
  EXPECT_FALSE(parse_repair_policy("").ok());
}

// ---- Config validation ---------------------------------------------------

TEST(RepairConfig, ValidateRejectsOutOfRange) {
  RepairShopConfig config;
  EXPECT_TRUE(validate_repair_config(config).ok());

  config.crews = 0;
  EXPECT_FALSE(validate_repair_config(config).ok());
  config.crews = 2'000'000;
  EXPECT_FALSE(validate_repair_config(config).ok());
  config.crews = 4;

  config.spare_pools = {{Category::kGpu, {2, 100.0}}, {Category::kGpu, {1, 50.0}}};
  EXPECT_FALSE(validate_repair_config(config).ok()) << "duplicate pool category";
  config.spare_pools = {{Category::kGpu, {2, -1.0}}};
  EXPECT_FALSE(validate_repair_config(config).ok()) << "negative lead";
  config.spare_pools.clear();

  config.throttle.boost_below_capacity = 1.5;
  EXPECT_FALSE(validate_repair_config(config).ok());
  config.throttle.boost_below_capacity = std::nan("");
  EXPECT_FALSE(validate_repair_config(config).ok());
  config.throttle.boost_below_capacity = 0.0;

  config.windows.duration_hours = 0.0;
  EXPECT_FALSE(validate_repair_config(config).ok());
  config.windows.duration_hours = 200.0;  // > period
  EXPECT_FALSE(validate_repair_config(config).ok());
  config.windows.duration_hours = 24.0;
  config.windows.period_hours = 0.1;
  EXPECT_FALSE(validate_repair_config(config).ok());
  config.windows.period_hours = 168.0;

  config.horizon_slack_hours = -1.0;
  EXPECT_FALSE(validate_repair_config(config).ok());
}

TEST(RepairConfig, ParseFullString) {
  auto config = parse_repair_config(
      "crews=8,policy=critical,spares=GPU:2:336;Memory:1:168,throttle=2,boost=0.9,"
      "window=12/168/24,horizon-slack=8760");
  ASSERT_TRUE(config.ok()) << config.error().to_string();
  EXPECT_EQ(config.value().crews, 8u);
  EXPECT_EQ(config.value().policy, RepairPolicy::kCriticalityFirst);
  ASSERT_EQ(config.value().spare_pools.size(), 2u);
  EXPECT_EQ(config.value().spare_pools[0].category, Category::kGpu);
  EXPECT_EQ(config.value().spare_pools[0].policy.initial_spares, 2u);
  EXPECT_DOUBLE_EQ(config.value().spare_pools[0].policy.restock_lead_time_hours, 336.0);
  EXPECT_EQ(config.value().spare_pools[1].category, Category::kMemory);
  EXPECT_EQ(config.value().throttle.max_active, 2u);
  EXPECT_DOUBLE_EQ(config.value().throttle.boost_below_capacity, 0.9);
  EXPECT_DOUBLE_EQ(config.value().windows.offset_hours, 12.0);
  EXPECT_DOUBLE_EQ(config.value().windows.period_hours, 168.0);
  EXPECT_DOUBLE_EQ(config.value().windows.duration_hours, 24.0);
  EXPECT_DOUBLE_EQ(config.value().horizon_slack_hours, 8760.0);
}

TEST(RepairConfig, ParseEmptyStringIsDefaults) {
  auto config = parse_repair_config("");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().crews, 4u);
  EXPECT_EQ(config.value().policy, RepairPolicy::kFifo);
  EXPECT_TRUE(config.value().spare_pools.empty());
  EXPECT_EQ(config.value().throttle.max_active, 0u);
}

TEST(RepairConfig, ParseErrors) {
  EXPECT_FALSE(parse_repair_config("crews").ok()) << "missing =";
  EXPECT_FALSE(parse_repair_config("crews=abc").ok());
  EXPECT_FALSE(parse_repair_config("crews=-1").ok());
  EXPECT_FALSE(parse_repair_config("crews=1.5").ok());
  EXPECT_FALSE(parse_repair_config("frobnicate=1").ok()) << "unknown key";
  EXPECT_FALSE(parse_repair_config("policy=lifo").ok());
  EXPECT_FALSE(parse_repair_config("spares=GPU:2").ok()) << "missing lead field";
  EXPECT_FALSE(parse_repair_config("spares=NoSuchPart:2:10").ok());
  EXPECT_FALSE(parse_repair_config("spares=GPU:2:1e99").ok()) << "lead out of range";
  EXPECT_FALSE(parse_repair_config("window=0/168").ok());
  EXPECT_FALSE(parse_repair_config("window=0/168/nan").ok());
  EXPECT_FALSE(parse_repair_config("boost=inf").ok());
}

TEST(RepairConfig, DescribeIsAParseFixpoint) {
  for (const char* text :
       {"crews=2,spares=GPU:2:336,throttle=1,boost=0.95",
        "crews=8,policy=batched-windows,window=12/168/24",
        "crews=1,policy=critical,spares=GPU:4:100;Memory:2:50,throttle=3"}) {
    auto config = parse_repair_config(text);
    ASSERT_TRUE(config.ok()) << text;
    const std::string described = describe_repair_config(config.value());
    auto reparsed = parse_repair_config(described);
    ASSERT_TRUE(reparsed.ok()) << described;
    EXPECT_EQ(describe_repair_config(reparsed.value()), described) << text;
  }
}

// ---- Engine semantics ----------------------------------------------------

TEST(RepairShop, SingleFailureStartsImmediately) {
  // One whole-node failure (SSD = 3 units on Tsubame-2), one crew.
  const auto log = t2_log({rec(5, Category::kSsd, "2012-01-08", 10.0)});
  RepairShopConfig config;
  config.crews = 1;
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const RepairShopResult& r = result.value();
  ASSERT_EQ(r.assignments.size(), 1u);
  EXPECT_DOUBLE_EQ(r.assignments[0].arrival_hours, 24.0);
  EXPECT_DOUBLE_EQ(r.assignments[0].start_hours, 24.0);
  EXPECT_DOUBLE_EQ(r.assignments[0].completion_hours, 34.0);
  EXPECT_EQ(r.assignments[0].crew, 0u);
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.unstarted_at_horizon, 0u);
  EXPECT_DOUBLE_EQ(r.total_wait_hours, 0.0);
  EXPECT_DOUBLE_EQ(r.makespan_hours, 34.0);
  // 3 units down for 10 h on a 3-GPU node = 10 node-hours.
  EXPECT_NEAR(r.degraded_node_hours, 10.0, 1e-9);
  EXPECT_NEAR(r.availability, 1.0 - 10.0 / (1408.0 * log.spec().window_hours()), 1e-12);
}

TEST(RepairShop, SecondFailureQueuesBehindBusyCrew) {
  const auto log = t2_log({rec(1, Category::kSsd, "2012-01-08 00:00:00", 10.0),
                           rec(2, Category::kSsd, "2012-01-08 01:00:00", 10.0)});
  RepairShopConfig config;
  config.crews = 1;
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  const RepairShopResult& r = result.value();
  EXPECT_DOUBLE_EQ(r.assignments[0].start_hours, 24.0);
  EXPECT_DOUBLE_EQ(r.assignments[1].start_hours, 34.0);  // first completion
  EXPECT_DOUBLE_EQ(r.assignments[1].completion_hours, 44.0);
  EXPECT_DOUBLE_EQ(r.total_wait_hours, 9.0);
  EXPECT_DOUBLE_EQ(r.mean_wait_hours, 4.5);
  EXPECT_DOUBLE_EQ(r.max_wait_hours, 9.0);
  EXPECT_EQ(r.peak_queue_depth, 1u);
  EXPECT_EQ(r.peak_active, 1u);
  EXPECT_DOUBLE_EQ(r.crew_busy_hours[0], 20.0);
  EXPECT_DOUBLE_EQ(r.crew_utilization, 20.0 / 44.0);
}

TEST(RepairShop, FifoBreaksSimultaneousTiesByRecordIndex) {
  const auto log = t2_log({rec(1, Category::kSsd, "2012-01-08", 10.0),
                           rec(2, Category::kSsd, "2012-01-08", 10.0)});
  RepairShopConfig config;
  config.crews = 1;
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().assignments[0].start_hours, 24.0);
  EXPECT_DOUBLE_EQ(result.value().assignments[1].start_hours, 34.0);
}

TEST(RepairShop, CriticalityPrefersMoreDegradationUnits) {
  // Record 0: single-slot GPU repair (1 unit).  Record 1: whole-node SSD
  // (3 units), same instant.  One crew: criticality-first services the
  // SSD first, FIFO the GPU.
  const auto records = std::vector<data::FailureRecord>{
      rec(1, Category::kGpu, "2012-01-08", 10.0, {0}),
      rec(2, Category::kSsd, "2012-01-08", 10.0)};
  RepairShopConfig config;
  config.crews = 1;

  config.policy = RepairPolicy::kCriticalityFirst;
  auto critical = run_repair_shop(t2_log(records), config);
  ASSERT_TRUE(critical.ok());
  EXPECT_DOUBLE_EQ(critical.value().assignments[1].start_hours, 24.0);
  EXPECT_DOUBLE_EQ(critical.value().assignments[0].start_hours, 34.0);

  config.policy = RepairPolicy::kFifo;
  auto fifo = run_repair_shop(t2_log(records), config);
  ASSERT_TRUE(fifo.ok());
  EXPECT_DOUBLE_EQ(fifo.value().assignments[0].start_hours, 24.0);
  EXPECT_DOUBLE_EQ(fifo.value().assignments[1].start_hours, 34.0);
}

TEST(RepairShop, CriticalityTieBreaksOnShorterService) {
  // Equal units (both whole-node), second repair is shorter: it jumps
  // the queue under criticality-first.
  const auto log = t2_log({rec(1, Category::kSsd, "2012-01-08", 50.0),
                           rec(2, Category::kDisk, "2012-01-08", 5.0)});
  RepairShopConfig config;
  config.crews = 1;
  config.policy = RepairPolicy::kCriticalityFirst;
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().assignments[1].start_hours, 24.0);
  EXPECT_DOUBLE_EQ(result.value().assignments[0].start_hours, 29.0);
}

TEST(RepairShop, EmptySparePoolBlocksUntilRestock) {
  // One GPU spare, 100 h lead, two GPU repairs an hour apart with idle
  // crews: the second blocks on the pool until the first's restock.
  const auto log = t2_log({rec(1, Category::kGpu, "2012-01-08 00:00:00", 5.0, {0}),
                           rec(2, Category::kGpu, "2012-01-08 01:00:00", 5.0, {1})});
  RepairShopConfig config;
  config.crews = 2;
  config.spare_pools = {{Category::kGpu, {1, 100.0}}};
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  const RepairShopResult& r = result.value();
  EXPECT_DOUBLE_EQ(r.assignments[0].start_hours, 24.0);
  EXPECT_TRUE(r.assignments[0].consumed_spare);
  EXPECT_FALSE(r.assignments[0].waited_for_spare);
  EXPECT_DOUBLE_EQ(r.assignments[1].start_hours, 124.0);  // restock arrival
  EXPECT_TRUE(r.assignments[1].consumed_spare);
  EXPECT_TRUE(r.assignments[1].waited_for_spare);
  EXPECT_EQ(r.spare_demands, 2u);
  EXPECT_EQ(r.stockouts, 1u);
  ASSERT_EQ(r.final_pool_counts.size(), 1u);
  EXPECT_EQ(r.final_pool_counts[0], 1u);  // second restock arrived at 224
}

TEST(RepairShop, ZeroSparesWithNoDemandNeverRestocks) {
  // An empty pool only restocks one-for-one after a start, so a pool
  // that begins at zero blocks its category forever.
  const auto log = t2_log({rec(1, Category::kGpu, "2012-01-08", 5.0, {0})});
  RepairShopConfig config;
  config.crews = 2;
  config.spare_pools = {{Category::kGpu, {0, 10.0}}};
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  const RepairShopResult& r = result.value();
  EXPECT_FALSE(r.assignments[0].started());
  EXPECT_TRUE(r.assignments[0].waited_for_spare);
  EXPECT_EQ(r.unstarted_at_horizon, 1u);
  EXPECT_EQ(r.stockouts, 1u);
  EXPECT_EQ(r.completed, 0u);
  // Degradation runs to the horizon: 1 unit on a 3-GPU node.
  EXPECT_NEAR(r.degraded_node_hours, (r.horizon_hours - 24.0) / 3.0, 1e-6);
}

TEST(RepairShop, StockoutFlagNeedsAFreeCrewAndAnAdmittedRepair) {
  // A repair waited for a spare only if, at some tick end while it was
  // queued, a crew and the throttle cap were free, its pool was empty,
  // and it was allowed to start at that instant.  Record 0 takes the
  // only GPU spare at 24 h (restock lead 10 h); record 1, a GPU repair,
  // arrives at 25 h into the empty pool.
  const auto log = t2_log({rec(1, Category::kGpu, "2012-01-08 00:00:00", 50.0, {0}),
                           rec(2, Category::kGpu, "2012-01-08 01:00:00", 5.0, {1})});
  RepairShopConfig config;
  config.spare_pools = {{Category::kGpu, {1, 10.0}}};

  // One crew, busy until 74 h: the pool is empty from 25 h to 34 h, but
  // no crew is free then, so record 1 waits on the crew, not the part.
  config.crews = 1;
  auto busy = run_repair_shop(log, config);
  ASSERT_TRUE(busy.ok());
  EXPECT_DOUBLE_EQ(busy.value().assignments[1].start_hours, 74.0);
  EXPECT_FALSE(busy.value().assignments[1].waited_for_spare);
  EXPECT_EQ(busy.value().stockouts, 0u);

  // Two crews: one idles at 25 h while the pool is empty, so record 1 is
  // a stockout and starts on the restock at 34 h.
  config.crews = 2;
  auto idle = run_repair_shop(log, config);
  ASSERT_TRUE(idle.ok());
  EXPECT_DOUBLE_EQ(idle.value().assignments[1].start_hours, 34.0);
  EXPECT_TRUE(idle.value().assignments[1].waited_for_spare);
  EXPECT_EQ(idle.value().stockouts, 1u);

  // Batched windows open [0, 24) every 168 h.  Record 0 takes the spare
  // at 2 h (lead 100 h); record 1, a partial repair, arrives at 30 h with
  // the window shut.  The restock lands at 102 h, before the next window
  // opens at 168 h: the empty pool never held record 1 back.
  const auto windowed = t2_log({rec(1, Category::kGpu, "2012-01-07 02:00:00", 5.0, {0}),
                                rec(2, Category::kGpu, "2012-01-08 06:00:00", 5.0, {1})});
  config.policy = RepairPolicy::kBatchedWindows;
  config.windows = {0.0, 168.0, 24.0};
  config.spare_pools = {{Category::kGpu, {1, 100.0}}};
  auto closed = run_repair_shop(windowed, config);
  ASSERT_TRUE(closed.ok());
  EXPECT_DOUBLE_EQ(closed.value().assignments[1].start_hours, 168.0);
  EXPECT_FALSE(closed.value().assignments[1].waited_for_spare);
  EXPECT_EQ(closed.value().stockouts, 0u);

  // With a 180 h lead the pool is still empty when the window opens at
  // 168 h: record 1 is admitted, a crew is free, and it waits for the
  // part until 182 h, inside the same window.
  config.spare_pools = {{Category::kGpu, {1, 180.0}}};
  auto open = run_repair_shop(windowed, config);
  ASSERT_TRUE(open.ok());
  EXPECT_DOUBLE_EQ(open.value().assignments[1].start_hours, 182.0);
  EXPECT_TRUE(open.value().assignments[1].waited_for_spare);
  EXPECT_EQ(open.value().stockouts, 1u);
}

TEST(RepairShop, ThrottleSerializesAndBoostLifts) {
  // Shrink the fleet so one failure craters healthy capacity: 2 nodes,
  // 1 GPU each.  Two simultaneous whole-node failures, 2 crews,
  // max_active = 1.
  data::MachineSpec tiny = data::tsubame2_spec();
  tiny.node_count = 2;
  tiny.gpus_per_node = 1;
  const auto records = std::vector<data::FailureRecord>{
      rec(0, Category::kSsd, "2012-01-08", 10.0), rec(1, Category::kSsd, "2012-01-08", 10.0)};
  const auto log = data::FailureLog::create(tiny, records).value();

  RepairShopConfig config;
  config.crews = 2;
  config.throttle.max_active = 1;
  auto throttled = run_repair_shop(log, config);
  ASSERT_TRUE(throttled.ok());
  EXPECT_DOUBLE_EQ(throttled.value().assignments[0].start_hours, 24.0);
  EXPECT_DOUBLE_EQ(throttled.value().assignments[1].start_hours, 34.0);
  EXPECT_EQ(throttled.value().peak_active, 1u);

  // Healthy capacity is 0 < 0.95 at dispatch time, so the boost lifts
  // the cap to the crew count and both start at once.
  config.throttle.boost_below_capacity = 0.95;
  auto boosted = run_repair_shop(log, config);
  ASSERT_TRUE(boosted.ok());
  EXPECT_DOUBLE_EQ(boosted.value().assignments[0].start_hours, 24.0);
  EXPECT_DOUBLE_EQ(boosted.value().assignments[1].start_hours, 24.0);
  EXPECT_EQ(boosted.value().peak_active, 2u);
}

TEST(RepairShop, BatchedWindowsHoldPartialsOnly) {
  // Weekly windows open [0, 24).  At t = 30 the window is shut: the
  // single-slot GPU repair (partial) waits for the next window at 168,
  // the whole-node SSD is an emergency and starts immediately.
  const auto log = t2_log({rec(1, Category::kGpu, "2012-01-08 06:00:00", 5.0, {0}),
                           rec(2, Category::kSsd, "2012-01-08 06:00:00", 5.0)});
  RepairShopConfig config;
  config.crews = 2;
  config.policy = RepairPolicy::kBatchedWindows;
  config.windows = {0.0, 168.0, 24.0};
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().assignments[0].start_hours, 168.0);
  EXPECT_DOUBLE_EQ(result.value().assignments[1].start_hours, 30.0);
}

TEST(RepairShop, AlwaysOpenWindowDegeneratesToFifo) {
  const auto records = std::vector<data::FailureRecord>{
      rec(1, Category::kGpu, "2012-01-08 06:00:00", 5.0, {0}),
      rec(2, Category::kGpu, "2012-01-09 06:00:00", 5.0, {1})};
  RepairShopConfig batched;
  batched.policy = RepairPolicy::kBatchedWindows;
  batched.windows = {0.0, 168.0, 168.0};  // duration == period: always open
  RepairShopConfig fifo;
  auto a = run_repair_shop(t2_log(records), batched);
  auto b = run_repair_shop(t2_log(records), fifo);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.value().assignments[i].start_hours, b.value().assignments[i].start_hours) << i;
    EXPECT_EQ(a.value().assignments[i].crew, b.value().assignments[i].crew) << i;
  }
}

TEST(RepairShop, ZeroServiceChainDrainsThroughOneCrewInstantly) {
  const auto log = t2_log({rec(1, Category::kSsd, "2012-01-08", 0.0),
                           rec(2, Category::kDisk, "2012-01-08", 0.0),
                           rec(3, Category::kCpu, "2012-01-08", 0.0)});
  RepairShopConfig config;
  config.crews = 1;
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  const RepairShopResult& r = result.value();
  EXPECT_EQ(r.completed, 3u);
  for (const auto& a : r.assignments) {
    EXPECT_DOUBLE_EQ(a.start_hours, 24.0);
    EXPECT_DOUBLE_EQ(a.completion_hours, 24.0);
    EXPECT_EQ(a.crew, 0u);
  }
  EXPECT_DOUBLE_EQ(r.degraded_node_hours, 0.0);
  EXPECT_DOUBLE_EQ(r.makespan_hours, 24.0);
}

TEST(RepairShop, DegradationUnitsPerCategory) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-01-08", 1.0, {0}),
                           rec(2, Category::kGpu, "2012-01-09", 1.0, {0, 1}),
                           rec(3, Category::kGpu, "2012-01-10", 1.0),
                           rec(4, Category::kSsd, "2012-01-11", 1.0)});
  auto result = run_repair_shop(log, RepairShopConfig{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().assignments[0].degradation_units, 1);  // one slot
  EXPECT_EQ(result.value().assignments[1].degradation_units, 2);  // two slots
  EXPECT_EQ(result.value().assignments[2].degradation_units, 1);  // no slots named
  EXPECT_EQ(result.value().assignments[3].degradation_units, 3);  // whole node
}

TEST(RepairShop, NodeDegradationCappedAtWholeNode) {
  // Two overlapping whole-node failures on the SAME node: the node can
  // only be down once.  [24, 34] u [26, 38] = 14 node-hours.
  const auto log = t2_log({rec(7, Category::kSsd, "2012-01-08 00:00:00", 10.0),
                           rec(7, Category::kDisk, "2012-01-08 02:00:00", 12.0)});
  RepairShopConfig config;
  config.crews = 2;
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().degraded_node_hours, 14.0, 1e-9);
}

TEST(RepairShop, CrewAssignmentUsesLowestFreeIndex) {
  const auto log = t2_log({rec(1, Category::kSsd, "2012-01-08 00:00:00", 10.0),
                           rec(2, Category::kDisk, "2012-01-08 00:00:00", 2.0),
                           rec(3, Category::kCpu, "2012-01-08 04:00:00", 1.0)});
  RepairShopConfig config;
  config.crews = 3;
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().assignments[0].crew, 0u);
  EXPECT_EQ(result.value().assignments[1].crew, 1u);
  // Crew 1 freed at 26; the 28:00 arrival takes the lowest free crew.
  EXPECT_EQ(result.value().assignments[2].crew, 1u);
}

TEST(RepairShop, EffectiveLogCarriesScheduledDowntime) {
  const auto log = t2_log({rec(1, Category::kSsd, "2012-01-08 00:00:00", 10.0),
                           rec(2, Category::kGpu, "2012-01-08 01:00:00", 5.0, {0})});
  RepairShopConfig config;
  config.crews = 1;
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  const data::FailureLog effective = effective_log(log, result.value());
  ASSERT_EQ(effective.size(), 2u);
  // First: no wait, downtime == service.  Second: waits 9 h behind the
  // crew, downtime = 34 + 5 - 25 = 14 h.
  EXPECT_DOUBLE_EQ(effective.records()[0].ttr_hours, 10.0);
  EXPECT_DOUBLE_EQ(effective.records()[1].ttr_hours, 14.0);
}

TEST(RepairShop, EffectiveLogRunsUnstartedToHorizon) {
  const auto log = t2_log({rec(1, Category::kGpu, "2012-01-08", 5.0, {0})});
  RepairShopConfig config;
  config.spare_pools = {{Category::kGpu, {0, 10.0}}};  // blocks forever
  auto result = run_repair_shop(log, config);
  ASSERT_TRUE(result.ok());
  const data::FailureLog effective = effective_log(log, result.value());
  EXPECT_DOUBLE_EQ(effective.records()[0].ttr_hours, result.value().horizon_hours - 24.0);
}

TEST(RepairShop, PoolCategoryMustBeInMachineVocabulary) {
  const auto log = t2_log({rec(1, Category::kSsd, "2012-01-08", 1.0)});
  RepairShopConfig config;
  config.spare_pools = {{Category::kOmniPath, {1, 10.0}}};  // Tsubame-3 only
  auto result = run_repair_shop(log, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind(), ErrorKind::kValidation);
}

TEST(RepairShop, EmptyLogIsFullyAvailable) {
  const auto log = t2_log({});
  auto result = run_repair_shop(log, RepairShopConfig{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().assignments.empty());
  EXPECT_DOUBLE_EQ(result.value().degraded_node_hours, 0.0);
  EXPECT_DOUBLE_EQ(result.value().availability, 1.0);
  EXPECT_DOUBLE_EQ(result.value().makespan_hours, 0.0);
  EXPECT_EQ(result.value().completed, 0u);
}

TEST(RepairShop, InvalidConfigRejected) {
  const auto log = t2_log({rec(1, Category::kSsd, "2012-01-08", 1.0)});
  RepairShopConfig config;
  config.crews = 0;
  EXPECT_FALSE(run_repair_shop(log, config).ok());
}

TEST(RepairShop, AvailabilityAccountsQueueingDelay) {
  // The same two failures under 2 crews vs 1 crew: queueing under the
  // single crew strictly increases degraded node-hours.
  const auto records = std::vector<data::FailureRecord>{
      rec(1, Category::kSsd, "2012-01-08 00:00:00", 10.0),
      rec(2, Category::kDisk, "2012-01-08 01:00:00", 10.0)};
  RepairShopConfig two;
  two.crews = 2;
  RepairShopConfig one;
  one.crews = 1;
  auto parallel = run_repair_shop(t2_log(records), two);
  auto serial = run_repair_shop(t2_log(records), one);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(serial.ok());
  EXPECT_NEAR(parallel.value().degraded_node_hours, 20.0, 1e-9);
  EXPECT_NEAR(serial.value().degraded_node_hours, 29.0, 1e-9);
  EXPECT_LT(serial.value().availability, parallel.value().availability);
  EXPECT_GT(serial.value().availability, 1.0 - 30.0 / kT2Units);
}

// ---- Policy-sweep plumbing ----------------------------------------------

TEST(RepairSweep, DefaultVariantsCoverAllPolicies) {
  RepairShopConfig base;
  base.crews = 3;
  const auto variants = default_policy_variants(base);
  ASSERT_EQ(variants.size(), 3u);
  EXPECT_EQ(variants[0].config.policy, RepairPolicy::kFifo);
  EXPECT_EQ(variants[1].config.policy, RepairPolicy::kCriticalityFirst);
  EXPECT_EQ(variants[2].config.policy, RepairPolicy::kBatchedWindows);
  for (const auto& variant : variants) {
    EXPECT_EQ(variant.config.crews, 3u) << variant.label;
    EXPECT_FALSE(variant.label.empty());
  }
}

TEST(RepairSweep, StageEmitsScheduleMetrics) {
  const auto log = t2_log({rec(1, Category::kSsd, "2012-01-08 00:00:00", 10.0),
                           rec(2, Category::kDisk, "2012-01-08 01:00:00", 10.0)});
  RepairSweepOptions options;
  options.job_mix.jobs = 50;
  auto stage = make_repair_stage(RepairShopConfig{}, options);
  auto metrics = stage(log, 42);
  ASSERT_TRUE(metrics.ok()) << metrics.error().to_string();
  const auto find = [&](std::string_view name) -> const sim::MetricSample* {
    for (const auto& sample : metrics.value()) {
      if (sample.name == name) return &sample;
    }
    return nullptr;
  };
  ASSERT_NE(find("availability"), nullptr);
  ASSERT_NE(find("goodput_ckpt"), nullptr);
  ASSERT_NE(find("goodput_ckpt_sampled"), nullptr);
  ASSERT_NE(find("mttr_effective_hours"), nullptr);
  EXPECT_GT(find("availability")->value, 0.99);
  // No queueing here (4 crews, 2 staggered failures): the effective MTTR
  // is the sampled MTTR.
  EXPECT_DOUBLE_EQ(find("mttr_effective_hours")->value, 10.0);
  EXPECT_EQ(find("unfinished")->value, 0.0);

  options.score_sampled_baseline = false;
  auto lean = make_repair_stage(RepairShopConfig{}, options)(log, 42);
  ASSERT_TRUE(lean.ok());
  for (const auto& sample : lean.value()) {
    EXPECT_EQ(sample.name.find("_sampled"), std::string::npos) << sample.name;
  }
}

TEST(RepairSweep, RejectsInvalidPolicyConfig) {
  RepairShopConfig bad;
  bad.crews = 0;
  RepairSweepOptions options;
  options.sweep.replicates = 1;
  auto sweep = run_repair_policy_sweep(sim::tsubame2_model(),
                                       {{"bad", bad}}, options);
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.error().to_string().find("bad"), std::string::npos);
}

}  // namespace
}  // namespace tsufail::ops
