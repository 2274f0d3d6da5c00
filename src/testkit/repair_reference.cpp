#include "testkit/repair_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "testkit/oracle.h"

namespace tsufail::testkit {
namespace {

constexpr double kNoTime = std::numeric_limits<double>::infinity();

// Same arithmetic as the production engine, re-stated independently.
int reference_units(const data::FailureRecord& record, int gpus_per_node) {
  const int g = std::max(1, gpus_per_node);
  if (record.category == data::Category::kGpu && gpus_per_node > 0) {
    const int slots = static_cast<int>(record.gpu_slots.size());
    return std::min(g, std::max(1, slots));
  }
  return g;
}

bool window_open(const ops::MaintenanceWindows& w, double t) {
  if (w.duration_hours >= w.period_hours) return true;
  if (t < w.offset_hours) return false;
  const double k = std::floor((t - w.offset_hours) / w.period_hours);
  return t - (w.offset_hours + k * w.period_hours) < w.duration_hours;
}

double window_start_after(const ops::MaintenanceWindows& w, double t) {
  if (t < w.offset_hours) return w.offset_hours;
  const double k = std::floor((t - w.offset_hours) / w.period_hours);
  double start = w.offset_hours + (k + 1.0) * w.period_hours;
  if (start <= t) start += w.period_hours;
  return start;
}

enum class Phase { kNotArrived, kWaiting, kInService, kDone };

struct RefJob {
  double arrival = 0.0;
  double service = 0.0;
  int units = 0;
  int node = 0;
  int pool = -1;
  Phase phase = Phase::kNotArrived;
};

}  // namespace

Result<ops::RepairShopResult> reference_repair_shop(const data::FailureLog& log,
                                                    const ops::RepairShopConfig& config) {
  if (auto valid = ops::validate_repair_config(config); !valid.ok()) return valid.error();
  const data::MachineSpec& spec = log.spec();
  for (const ops::SparePoolConfig& pool : config.spare_pools) {
    if (!data::valid_for(pool.category, spec.machine)) {
      return Error(ErrorKind::kValidation,
                   "spare pool category '" + std::string(data::to_string(pool.category)) +
                       "' is not in " + spec.name + "'s vocabulary");
    }
  }

  const int g = std::max(1, spec.gpus_per_node);
  const long long total_units = static_cast<long long>(std::max(1, spec.node_count)) * g;
  const auto records = log.records();
  const std::size_t n = records.size();

  std::vector<RefJob> jobs(n);
  double last_arrival = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].arrival = hours_between(spec.log_start, records[i].time);
    jobs[i].service = records[i].ttr_hours;
    jobs[i].units = reference_units(records[i], spec.gpus_per_node);
    jobs[i].node = records[i].node;
    for (std::size_t p = 0; p < config.spare_pools.size(); ++p) {
      if (config.spare_pools[p].category == records[i].category) {
        jobs[i].pool = static_cast<int>(p);
        break;
      }
    }
    last_arrival = std::max(last_arrival, jobs[i].arrival);
  }
  const double horizon =
      std::max(spec.window_hours(), last_arrival) + config.horizon_slack_hours;

  ops::RepairShopResult result;
  result.assignments.resize(n);
  result.horizon_hours = horizon;
  result.crew_busy_hours.assign(config.crews, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    result.assignments[i].arrival_hours = jobs[i].arrival;
    result.assignments[i].degradation_units = jobs[i].units;
  }

  std::vector<std::size_t> pools(config.spare_pools.size());
  for (std::size_t p = 0; p < pools.size(); ++p) {
    pools[p] = config.spare_pools[p].policy.initial_spares;
  }
  std::vector<double> restocks;           // outstanding restock arrival times
  std::vector<std::size_t> restock_pool;  // parallel: which pool each feeds
  std::vector<bool> crew_busy(config.crews, false);

  // Full-scan helpers — recomputed from scratch every time, on purpose.
  int max_node = 0;
  for (const RefJob& job : jobs) max_node = std::max(max_node, job.node);
  std::vector<int> node_units(static_cast<std::size_t>(max_node) + 1, 0);
  const auto lost_units_now = [&]() {
    // Sum open units per node, then cap each node's total at g.  The
    // second pass zeroes each node as it counts it, so the buffer is
    // clean for the next call.
    const auto open = [](const RefJob& job) {
      return job.phase == Phase::kWaiting || job.phase == Phase::kInService;
    };
    for (const RefJob& job : jobs) {
      if (open(job)) node_units[job.node] += job.units;
    }
    long long lost = 0;
    for (const RefJob& job : jobs) {
      if (!open(job) || node_units[job.node] == 0) continue;
      lost += std::min(g, node_units[job.node]);
      node_units[job.node] = 0;
    }
    return lost;
  };

  const auto active_now = [&]() {
    std::size_t active = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (jobs[i].phase == Phase::kInService) ++active;
    }
    return active;
  };

  const auto active_cap = [&](long long lost) -> std::size_t {
    if (config.throttle.max_active == 0) return config.crews;
    if (config.throttle.boost_below_capacity > 0.0) {
      const double healthy =
          static_cast<double>(total_units - lost) / static_cast<double>(total_units);
      if (healthy < config.throttle.boost_below_capacity) return config.crews;
    }
    return std::min(config.throttle.max_active, config.crews);
  };

  const auto window_admits = [&](const RefJob& job, double t) {
    if (config.policy != ops::RepairPolicy::kBatchedWindows) return true;
    if (job.units >= g) return true;
    return window_open(config.windows, t);
  };

  const auto policy_prefers = [&](std::size_t a, std::size_t b) {
    if (config.policy == ops::RepairPolicy::kCriticalityFirst) {
      if (jobs[a].units != jobs[b].units) return jobs[a].units > jobs[b].units;
      if (jobs[a].service != jobs[b].service) return jobs[a].service < jobs[b].service;
    }
    return a < b;
  };

  double now = 0.0;
  double degraded_units_hours = 0.0;
  bool first_step = true;

  while (true) {
    // Next time anything can happen, by scanning everything.
    double t = kNoTime;
    if (first_step) {
      for (std::size_t i = 0; i < n; ++i) t = std::min(t, jobs[i].arrival);
      first_step = false;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (jobs[i].phase == Phase::kNotArrived && jobs[i].arrival > now) {
          t = std::min(t, jobs[i].arrival);
        }
        if (jobs[i].phase == Phase::kInService &&
            result.assignments[i].completion_hours > now) {
          t = std::min(t, result.assignments[i].completion_hours);
        }
      }
      for (double restock : restocks) {
        if (restock > now) t = std::min(t, restock);
      }
      bool stalled_on_window = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (jobs[i].phase == Phase::kWaiting && !window_admits(jobs[i], now)) {
          stalled_on_window = true;
        }
      }
      if (stalled_on_window) {
        t = std::min(t, window_start_after(config.windows, now));
      }
    }
    if (t == kNoTime || t > horizon) break;
    degraded_units_hours += static_cast<double>(lost_units_now()) * (t - now);
    now = t;

    // Keep processing the instant t until it quiesces: the dispatch below
    // can schedule zero-service completions and zero-lead restocks right
    // back at t, which must re-enter this loop like any other event.
    bool again = true;
    while (again) {
      for (std::size_t r = 0; r < restocks.size();) {
        if (restocks[r] == t) {
          ++pools[restock_pool[r]];
          restocks.erase(restocks.begin() + static_cast<std::ptrdiff_t>(r));
          restock_pool.erase(restock_pool.begin() + static_cast<std::ptrdiff_t>(r));
        } else {
          ++r;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (jobs[i].phase == Phase::kInService &&
            result.assignments[i].completion_hours == t) {
          jobs[i].phase = Phase::kDone;
          crew_busy[result.assignments[i].crew] = false;
          ++result.completed;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (jobs[i].phase == Phase::kNotArrived && jobs[i].arrival == t) {
          jobs[i].phase = Phase::kWaiting;
        }
      }

      while (true) {
        const long long lost = lost_units_now();
        if (active_now() >= active_cap(lost)) break;
        bool crew_free = false;
        for (bool busy : crew_busy) crew_free = crew_free || !busy;
        if (!crew_free) break;
        std::size_t best = n;
        for (std::size_t i = 0; i < n; ++i) {
          if (jobs[i].phase != Phase::kWaiting) continue;
          if (!window_admits(jobs[i], t)) continue;
          if (jobs[i].pool >= 0 && pools[static_cast<std::size_t>(jobs[i].pool)] == 0) continue;
          if (best == n || policy_prefers(i, best)) best = i;
        }
        if (best == n) break;
        std::size_t crew = 0;
        while (crew_busy[crew]) ++crew;
        crew_busy[crew] = true;
        jobs[best].phase = Phase::kInService;
        ops::RepairAssignment& assignment = result.assignments[best];
        assignment.crew = crew;
        assignment.start_hours = t;
        assignment.completion_hours = t + jobs[best].service;
        if (jobs[best].pool >= 0) {
          const auto p = static_cast<std::size_t>(jobs[best].pool);
          --pools[p];
          assignment.consumed_spare = true;
          ++result.spare_demands;
          restocks.push_back(t + config.spare_pools[p].policy.restock_lead_time_hours);
          restock_pool.push_back(p);
        }
        result.peak_active = std::max(result.peak_active, active_now());
      }

      again = false;
      for (double restock : restocks) again = again || restock == t;
      for (std::size_t i = 0; i < n; ++i) {
        if (jobs[i].phase == Phase::kInService &&
            result.assignments[i].completion_hours == t) {
          again = true;
        }
      }
    }

    // End-of-instant bookkeeping, matching the engine's tick epilogue.
    std::size_t waiting_count = 0;
    bool crew_free = false;
    for (bool busy : crew_busy) crew_free = crew_free || !busy;
    const bool crew_and_cap_free = crew_free && active_now() < active_cap(lost_units_now());
    for (std::size_t i = 0; i < n; ++i) {
      if (jobs[i].phase != Phase::kWaiting) continue;
      ++waiting_count;
      if (!window_admits(jobs[i], t)) continue;
      if (crew_and_cap_free && jobs[i].pool >= 0 &&
          pools[static_cast<std::size_t>(jobs[i].pool)] == 0) {
        result.assignments[i].waited_for_spare = true;
      }
    }
    result.peak_queue_depth = std::max(result.peak_queue_depth, waiting_count);
  }
  degraded_units_hours += static_cast<double>(lost_units_now()) * (horizon - now);

  std::size_t started = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ops::RepairAssignment& assignment = result.assignments[i];
    if (!assignment.started()) {
      ++result.unstarted_at_horizon;
      if (assignment.waited_for_spare) ++result.stockouts;
      continue;
    }
    ++started;
    if (assignment.completion_hours > horizon) ++result.in_flight_at_horizon;
    const double clipped = std::min(assignment.completion_hours, horizon);
    result.crew_busy_hours[assignment.crew] += clipped - assignment.start_hours;
    result.makespan_hours = std::max(result.makespan_hours, clipped);
    const double wait = assignment.start_hours - assignment.arrival_hours;
    result.total_wait_hours += wait;
    result.max_wait_hours = std::max(result.max_wait_hours, wait);
    if (assignment.waited_for_spare) ++result.stockouts;
  }
  result.mean_wait_hours =
      started > 0 ? result.total_wait_hours / static_cast<double>(started) : 0.0;
  double busy_total = 0.0;
  for (double busy : result.crew_busy_hours) busy_total += busy;
  result.crew_utilization =
      result.makespan_hours > 0.0
          ? busy_total / (static_cast<double>(config.crews) * result.makespan_hours)
          : 0.0;
  result.final_pool_counts = pools;
  result.degraded_node_hours = degraded_units_hours / static_cast<double>(g);
  const double exposure = static_cast<double>(spec.node_count) * spec.window_hours();
  result.availability =
      exposure > 0.0 ? std::clamp(1.0 - result.degraded_node_hours / exposure, 0.0, 1.0) : 1.0;
  return result;
}

namespace {

// Schedule-path doubles: identical arithmetic chains, 4-ULP guard.
constexpr std::int64_t kExactUlps = 4;
// Integral-path doubles: differently-partitioned accumulation.
constexpr std::int64_t kAccumUlps = 512;
constexpr double kAccumRel = 1e-9;

void diff_double(std::vector<std::string>& out, const std::string& path, double engine,
                 double reference, std::int64_t max_ulps, double rel) {
  if (nearly_equal(engine, reference, max_ulps, rel)) return;
  std::ostringstream line;
  line.precision(17);
  line << path << ": engine=" << engine << " reference=" << reference;
  out.push_back(line.str());
}

void diff_count(std::vector<std::string>& out, const std::string& path, std::size_t engine,
                std::size_t reference) {
  if (engine == reference) return;
  out.push_back(path + ": engine=" + std::to_string(engine) +
                " reference=" + std::to_string(reference));
}

}  // namespace

std::vector<std::string> diff_repair_runs(const ops::RepairShopResult& engine,
                                          const ops::RepairShopResult& reference) {
  std::vector<std::string> out;
  diff_count(out, "assignments.size", engine.assignments.size(), reference.assignments.size());
  if (!out.empty()) return out;
  for (std::size_t i = 0; i < engine.assignments.size(); ++i) {
    const ops::RepairAssignment& e = engine.assignments[i];
    const ops::RepairAssignment& r = reference.assignments[i];
    const std::string prefix = "assignments[" + std::to_string(i) + "].";
    diff_double(out, prefix + "arrival_hours", e.arrival_hours, r.arrival_hours, kExactUlps, 0.0);
    diff_double(out, prefix + "start_hours", e.start_hours, r.start_hours, kExactUlps, 0.0);
    diff_double(out, prefix + "completion_hours", e.completion_hours, r.completion_hours,
                kExactUlps, 0.0);
    diff_count(out, prefix + "crew", e.crew, r.crew);
    diff_count(out, prefix + "degradation_units", static_cast<std::size_t>(e.degradation_units),
               static_cast<std::size_t>(r.degradation_units));
    if (e.consumed_spare != r.consumed_spare) {
      out.push_back(prefix + "consumed_spare: engine=" + std::to_string(e.consumed_spare) +
                    " reference=" + std::to_string(r.consumed_spare));
    }
    if (e.waited_for_spare != r.waited_for_spare) {
      out.push_back(prefix + "waited_for_spare: engine=" + std::to_string(e.waited_for_spare) +
                    " reference=" + std::to_string(r.waited_for_spare));
    }
    if (out.size() > 40) return out;  // a broken run floods; cap the noise
  }
  diff_count(out, "completed", engine.completed, reference.completed);
  diff_count(out, "in_flight_at_horizon", engine.in_flight_at_horizon,
             reference.in_flight_at_horizon);
  diff_count(out, "unstarted_at_horizon", engine.unstarted_at_horizon,
             reference.unstarted_at_horizon);
  diff_double(out, "horizon_hours", engine.horizon_hours, reference.horizon_hours, kExactUlps, 0.0);
  diff_double(out, "makespan_hours", engine.makespan_hours, reference.makespan_hours, kExactUlps,
              0.0);
  diff_double(out, "total_wait_hours", engine.total_wait_hours, reference.total_wait_hours,
              kExactUlps, 0.0);
  diff_double(out, "mean_wait_hours", engine.mean_wait_hours, reference.mean_wait_hours,
              kExactUlps, 0.0);
  diff_double(out, "max_wait_hours", engine.max_wait_hours, reference.max_wait_hours, kExactUlps,
              0.0);
  diff_count(out, "peak_queue_depth", engine.peak_queue_depth, reference.peak_queue_depth);
  diff_count(out, "peak_active", engine.peak_active, reference.peak_active);
  diff_count(out, "crew_busy_hours.size", engine.crew_busy_hours.size(),
             reference.crew_busy_hours.size());
  if (engine.crew_busy_hours.size() == reference.crew_busy_hours.size()) {
    for (std::size_t c = 0; c < engine.crew_busy_hours.size(); ++c) {
      diff_double(out, "crew_busy_hours[" + std::to_string(c) + "]", engine.crew_busy_hours[c],
                  reference.crew_busy_hours[c], kExactUlps, 0.0);
    }
  }
  diff_double(out, "crew_utilization", engine.crew_utilization, reference.crew_utilization,
              kExactUlps, 0.0);
  diff_count(out, "spare_demands", engine.spare_demands, reference.spare_demands);
  diff_count(out, "stockouts", engine.stockouts, reference.stockouts);
  diff_count(out, "final_pool_counts.size", engine.final_pool_counts.size(),
             reference.final_pool_counts.size());
  if (engine.final_pool_counts.size() == reference.final_pool_counts.size()) {
    for (std::size_t p = 0; p < engine.final_pool_counts.size(); ++p) {
      diff_count(out, "final_pool_counts[" + std::to_string(p) + "]",
                 engine.final_pool_counts[p], reference.final_pool_counts[p]);
    }
  }
  diff_double(out, "degraded_node_hours", engine.degraded_node_hours,
              reference.degraded_node_hours, kAccumUlps, kAccumRel);
  diff_double(out, "availability", engine.availability, reference.availability, kAccumUlps,
              kAccumRel);
  return out;
}

std::vector<std::string> repair_oracle(const data::FailureLog& log,
                                       const ops::RepairShopConfig& config) {
  auto engine = ops::run_repair_shop(log, config);
  auto reference = reference_repair_shop(log, config);
  if (engine.ok() != reference.ok()) {
    return {std::string("outcome: engine=") + (engine.ok() ? "ok" : engine.error().to_string()) +
            " reference=" + (reference.ok() ? "ok" : reference.error().to_string())};
  }
  if (!engine.ok()) {
    if (engine.error().to_string() != reference.error().to_string()) {
      return {"error: engine=" + engine.error().to_string() +
              " reference=" + reference.error().to_string()};
    }
    return {};
  }
  return diff_repair_runs(engine.value(), reference.value());
}

}  // namespace tsufail::testkit
