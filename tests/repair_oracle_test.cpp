// Differential verification of the repair-shop event loop: every
// schedule recomputed with the naive O(n^2) scan-based reference
// simulator and diffed event-for-event (start/completion times, crew
// assignments, spare consumption, summary stats) across a grid of shop
// configurations — over the edge corpus, calibrated simulator logs,
// random adversarial logs, and for the deep-backlog shops a
// 2500-failure log (ctest labels: property, repair;
// TSUFAIL_TEST_SEED replays, TSUFAIL_TEST_ITERS deepens).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "testkit/property.h"
#include "testkit/repair_reference.h"

namespace tsufail::testkit {
namespace {

using ops::RepairPolicy;
using ops::RepairShopConfig;

// The adversarial config grid: every scheduling feature exercised alone
// and in combination, including the regimes where tie-breaking decides
// the schedule (1 crew, simultaneous arrivals) and where instant-event
// chains matter (zero restock lead).
using ConfigGrid = std::vector<std::pair<std::string, RepairShopConfig>>;

void add_config(ConfigGrid& grid, const char* name, const char* text) {
  auto config = ops::parse_repair_config(text);
  TSUFAIL_REQUIRE(config.ok(), "config grid entry must parse");
  grid.emplace_back(name, std::move(config).value());
}

// Shops that keep a deep backlog on a long log: the stock `tsufail
// repairs` shop under each policy (one crew at a time until fleet health
// drops below 95%); two pools where one never has a part while the other
// is stocked, so dispatch must skip a permanently blocked bucket; and a
// GPU pool far too small for eight mostly idle crews, so most GPU repairs
// are stockouts (with and without the window gate on partial repairs).
ConfigGrid deep_queue_configs() {
  ConfigGrid grid;
  add_config(grid, "stock-fifo", "crews=2,spares=GPU:2:336,throttle=1,boost=0.95");
  add_config(grid, "stock-critical",
             "crews=2,policy=critical,spares=GPU:2:336,throttle=1,boost=0.95");
  add_config(grid, "stock-batched",
             "crews=2,policy=batched,spares=GPU:2:336,throttle=1,boost=0.95");
  add_config(grid, "two-pool-one-empty",
             "crews=2,policy=critical,spares=GPU:0:200;Memory:1:50,throttle=1");
  add_config(grid, "starved-pool", "crews=8,policy=critical,spares=GPU:1:336;Memory:0:50");
  add_config(grid, "starved-pool-batched",
             "crews=8,policy=batched,spares=GPU:1:336;Memory:0:50");
  return grid;
}

ConfigGrid config_grid() {
  ConfigGrid grid;
  const auto parse = [&grid](const char* name, const char* text) {
    add_config(grid, name, text);
  };
  parse("one-crew-fifo", "crews=1");
  parse("one-crew-critical", "crews=1,policy=critical");
  parse("two-crew-batched", "crews=2,policy=batched,window=0/168/24");
  parse("tight-window", "crews=3,policy=batched,window=5/48/0.5");
  parse("scarce-spares", "crews=2,spares=GPU:1:336");
  parse("zero-lead-spares", "crews=1,spares=GPU:1:0;Memory:1:0");
  parse("zero-spares", "crews=4,spares=GPU:0:24");
  parse("throttled", "crews=4,throttle=1");
  parse("throttled-boost", "crews=4,throttle=1,boost=0.999");
  parse("kitchen-sink",
        "crews=2,policy=critical,spares=GPU:1:100;Disk:1:0,throttle=2,boost=0.9");
  parse("kitchen-sink-batched",
        "crews=2,policy=batched,spares=GPU:1:50,throttle=1,window=0/72/6,horizon-slack=4000");
  for (auto& entry : deep_queue_configs()) grid.push_back(std::move(entry));
  return grid;
}

std::string render(const std::vector<std::string>& mismatches) {
  std::ostringstream out;
  for (const auto& line : mismatches) out << "  " << line << "\n";
  return out.str();
}

// A property closure over one config: oracle-clean on every log.
Property oracle_property_for(const RepairShopConfig& config) {
  return [config](const data::FailureLog& log) -> std::optional<std::string> {
    const auto mismatches = repair_oracle(log, config);
    if (mismatches.empty()) return std::nullopt;
    return render(mismatches);
  };
}

TEST(RepairOracle, EdgeCaseCorpusAllConfigs) {
  for (data::Machine machine : {data::Machine::kTsubame2, data::Machine::kTsubame3}) {
    for (const EdgeCase& ec : edge_case_logs(machine)) {
      for (const auto& [name, config] : config_grid()) {
        const auto mismatches = repair_oracle(ec.log, config);
        EXPECT_TRUE(mismatches.empty())
            << "edge case '" << ec.name << "' x config '" << name << "' ("
            << data::to_string(machine) << "):\n"
            << render(mismatches) << describe_log(ec.log);
      }
    }
  }
}

TEST(RepairOracle, CalibratedTsubamePresets) {
  const std::uint64_t seed = test_seed();
  for (data::Machine machine : {data::Machine::kTsubame2, data::Machine::kTsubame3}) {
    const sim::MachineModel& model = machine == data::Machine::kTsubame2
                                         ? sim::tsubame2_model()
                                         : sim::tsubame3_model();
    auto log = sim::generate_log(model, seed);
    ASSERT_TRUE(log.ok()) << log.error().to_string();
    for (const auto& [name, config] : config_grid()) {
      const auto mismatches = repair_oracle(log.value(), config);
      EXPECT_TRUE(mismatches.empty()) << data::to_string(machine) << " x config '" << name
                                      << "' (seed " << seed << "):\n"
                                      << render(mismatches);
    }
  }
}

TEST(RepairOracle, RandomAdversarialLogs) {
  for (const auto& [name, config] : config_grid()) {
    PropertyOptions options;
    options.gen.max_records = 48;  // n^2 reference: keep logs moderate
    options.iterations = 6;
    const auto ce = check_property("repair-oracle-" + name, options,
                                   oracle_property_for(config));
    if (ce.has_value()) FAIL() << "config '" << name << "':\n" << ce->describe();
  }
}

TEST(RepairOracle, SimultaneousFailureTieBreaking) {
  // Crank duplicate timestamps and hot nodes so many failures share an
  // instant and a node — the regime where intra-tick ordering (spares,
  // completions, arrivals, then policy order) decides every assignment.
  for (const char* text : {"crews=1", "crews=1,policy=critical",
                           "crews=2,spares=GPU:1:0", "crews=2,throttle=1"}) {
    auto config = ops::parse_repair_config(text);
    ASSERT_TRUE(config.ok());
    PropertyOptions options;
    options.gen.min_records = 16;
    options.gen.max_records = 40;
    options.gen.duplicate_time_probability = 0.6;
    options.gen.hot_node_probability = 0.8;
    options.gen.zero_ttr_probability = 0.3;
    options.iterations = 8;
    const auto ce = check_property(std::string("repair-oracle-ties-") + text, options,
                                   oracle_property_for(config.value()));
    if (ce.has_value()) FAIL() << "config '" << text << "':\n" << ce->describe();
  }
}

// The oracle on one deep-queue shop over a Tsubame-2-model log of 2500
// failures: more than a thousand repairs wait at once, so every start
// chooses among many queued jobs across several spare/window buckets.
// That size still keeps the O(n^2) reference affordable.
void expect_oracle_clean_on_deep_queue(const std::string& name, std::size_t min_stockouts = 0) {
  const ConfigGrid grid = deep_queue_configs();
  const auto entry = std::find_if(grid.begin(), grid.end(),
                                  [&name](const auto& e) { return e.first == name; });
  ASSERT_NE(entry, grid.end()) << name;
  sim::MachineModel model = sim::tsubame2_model();
  model.total_failures = 2500;
  const std::uint64_t seed = test_seed();
  auto log = sim::generate_log(model, seed);
  ASSERT_TRUE(log.ok()) << log.error().to_string();
  auto engine = ops::run_repair_shop(log.value(), entry->second);
  auto reference = reference_repair_shop(log.value(), entry->second);
  ASSERT_TRUE(engine.ok()) << engine.error().to_string();
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();
  EXPECT_GE(engine.value().peak_queue_depth, 1000u);
  EXPECT_GE(engine.value().stockouts, min_stockouts);
  const auto mismatches = diff_repair_runs(engine.value(), reference.value());
  EXPECT_TRUE(mismatches.empty()) << "config '" << name << "' (seed " << seed << "):\n"
                                  << render(mismatches);
}

TEST(RepairOracleDeepQueue, StockFifo) { expect_oracle_clean_on_deep_queue("stock-fifo"); }

TEST(RepairOracleDeepQueue, StockCritical) {
  expect_oracle_clean_on_deep_queue("stock-critical");
}

TEST(RepairOracleDeepQueue, StockBatched) { expect_oracle_clean_on_deep_queue("stock-batched"); }

TEST(RepairOracleDeepQueue, TwoPoolsOneEmpty) {
  expect_oracle_clean_on_deep_queue("two-pool-one-empty");
}

TEST(RepairOracleDeepQueue, StarvedPool) { expect_oracle_clean_on_deep_queue("starved-pool", 500); }

TEST(RepairOracleDeepQueue, StarvedPoolBatched) {
  expect_oracle_clean_on_deep_queue("starved-pool-batched", 500);
}

TEST(RepairOracle, DiffReportsInjectedDivergence) {
  // The oracle must actually see: perturb one engine field and expect a
  // named mismatch.
  Rng rng(test_seed());
  GenOptions gen;
  gen.min_records = 4;
  const data::FailureLog log = random_log(gen, rng);
  auto config = ops::parse_repair_config("crews=1");
  ASSERT_TRUE(config.ok());
  auto engine = ops::run_repair_shop(log, config.value());
  auto reference = reference_repair_shop(log, config.value());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(diff_repair_runs(engine.value(), reference.value()).empty());

  engine.value().assignments[0].start_hours += 0.5;
  const auto mismatches = diff_repair_runs(engine.value(), reference.value());
  ASSERT_FALSE(mismatches.empty());
  bool found = false;
  for (const auto& line : mismatches) {
    if (line.find("start_hours") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << render(mismatches);
}

}  // namespace
}  // namespace tsufail::testkit
