#include "ops/repairshop.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <queue>
#include <string>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace tsufail::ops {
namespace {

// One unit = one GPU's worth of capacity.  A whole node is G units.
int degradation_units(const data::FailureRecord& record, int gpus_per_node) {
  const int g = std::max(1, gpus_per_node);
  if (record.category == data::Category::kGpu && gpus_per_node > 0) {
    const int slots = static_cast<int>(record.gpu_slots.size());
    return std::min(g, std::max(1, slots));
  }
  return g;
}

// Half-open window membership [offset + k*period, offset + k*period +
// duration).  The reference simulator uses this same function.
bool in_maintenance_window(const MaintenanceWindows& w, double t) {
  if (w.duration_hours >= w.period_hours) return true;
  if (t < w.offset_hours) return false;
  const double k = std::floor((t - w.offset_hours) / w.period_hours);
  return t - (w.offset_hours + k * w.period_hours) < w.duration_hours;
}

// First window start strictly after t (the wake time for a closed-window
// stall).
double next_window_start(const MaintenanceWindows& w, double t) {
  if (t < w.offset_hours) return w.offset_hours;
  const double k = std::floor((t - w.offset_hours) / w.period_hours);
  double start = w.offset_hours + (k + 1.0) * w.period_hours;
  if (start <= t) start += w.period_hours;  // guard FP round-down
  return start;
}

struct Job {
  double arrival = 0.0;
  double service = 0.0;
  int units = 0;
  int node = 0;
  int pool = -1;  ///< index into config.spare_pools, -1 = no part needed
};

// The waiting queue is split into buckets of jobs that are eligible to
// start at exactly the same instants: bucket 2*(pool+1) holds whole-node
// jobs drawing on `pool` (-1 = no part), bucket 2*(pool+1)+1 the partial
// ones.  Within a bucket only the policy-best job can be the next start,
// so each bucket is a heap and dispatch compares bucket heads alone.
struct WaitBucket {
  std::vector<std::size_t> heap;  ///< failure indices, policy-best at front
  int pool = -1;
  bool partial = false;
  /// The last tick end at which this bucket was admitted and had a crew
  /// and the cap free but its pool empty.  Ticks advance, so a job still
  /// queued here that arrived at or before it waited for a spare.
  double last_stockout = -std::numeric_limits<double>::infinity();
};

// Event kinds in intra-tick application order.
enum EventKind : int { kSpareArrival = 0, kCompletion = 1, kArrival = 2, kWake = 3 };

struct Event {
  double time = 0.0;
  int kind = kWake;
  std::size_t seq = 0;  ///< failure index (completion/arrival) or pool index
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.seq > b.seq;
  }
};

bool parse_number(std::string_view text, double& out) {
  if (text.empty() || text.size() > 64) return false;
  std::string buffer(text);
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return false;
  if (!std::isfinite(value)) return false;
  out = value;
  return true;
}

bool parse_count(std::string_view text, std::size_t& out) {
  double value = 0.0;
  if (!parse_number(text, value)) return false;
  if (value < 0.0 || value > 1e9 || value != std::floor(value)) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string_view::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

Error domain_error(std::string message) { return Error(ErrorKind::kDomain, std::move(message)); }

}  // namespace

std::string_view to_string(RepairPolicy policy) noexcept {
  switch (policy) {
    case RepairPolicy::kFifo: return "fifo";
    case RepairPolicy::kCriticalityFirst: return "criticality-first";
    case RepairPolicy::kBatchedWindows: return "batched-windows";
  }
  return "fifo";
}

Result<RepairPolicy> parse_repair_policy(std::string_view name) {
  std::string folded;
  folded.reserve(name.size());
  for (char c : name) {
    if (c == '-' || c == '_' || c == ' ') continue;
    folded.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (folded == "fifo") return RepairPolicy::kFifo;
  if (folded == "critical" || folded == "criticality" || folded == "criticalityfirst") {
    return RepairPolicy::kCriticalityFirst;
  }
  if (folded == "batched" || folded == "batchedwindows" || folded == "windows") {
    return RepairPolicy::kBatchedWindows;
  }
  return Error(ErrorKind::kNotFound,
               "unknown repair policy '" + std::string(name) +
                   "' (expected fifo, criticality-first, or batched-windows)");
}

Result<void> validate_repair_config(const RepairShopConfig& config) {
  if (config.crews < 1 || config.crews > 1'000'000) {
    return domain_error("crews must be in [1, 1000000], got " + std::to_string(config.crews));
  }
  if (config.spare_pools.size() > 64) {
    return domain_error("too many spare pools (max 64)");
  }
  for (std::size_t i = 0; i < config.spare_pools.size(); ++i) {
    const SparePoolConfig& pool = config.spare_pools[i];
    for (std::size_t j = 0; j < i; ++j) {
      if (config.spare_pools[j].category == pool.category) {
        return domain_error("duplicate spare pool for category '" +
                            std::string(data::to_string(pool.category)) + "'");
      }
    }
    if (pool.policy.initial_spares > 1'000'000) {
      return domain_error("initial spares must be <= 1000000");
    }
    const double lead = pool.policy.restock_lead_time_hours;
    if (!(lead >= 0.0) || lead > 1e6) {
      return domain_error("restock lead time must be in [0, 1e6] hours");
    }
  }
  if (config.throttle.max_active > 1'000'000) {
    return domain_error("throttle max_active must be <= 1000000");
  }
  const double boost = config.throttle.boost_below_capacity;
  if (!(boost >= 0.0 && boost <= 1.0)) {
    return domain_error("throttle boost threshold must be in [0, 1]");
  }
  const MaintenanceWindows& w = config.windows;
  if (!(w.offset_hours >= 0.0) || w.offset_hours > 1e6) {
    return domain_error("window offset must be in [0, 1e6] hours");
  }
  if (!(w.period_hours >= 0.5) || w.period_hours > 1e6) {
    return domain_error("window period must be in [0.5, 1e6] hours");
  }
  if (!(w.duration_hours > 0.0) || w.duration_hours > w.period_hours) {
    return domain_error("window duration must be in (0, period] hours");
  }
  if (!(config.horizon_slack_hours >= 0.0) || config.horizon_slack_hours > 1e7) {
    return domain_error("horizon slack must be in [0, 1e7] hours");
  }
  return {};
}

std::string describe_repair_config(const RepairShopConfig& config) {
  std::string out = "crews=" + std::to_string(config.crews);
  out += ", policy=" + std::string(to_string(config.policy));
  if (!config.spare_pools.empty()) {
    out += ", spares=";
    for (std::size_t p = 0; p < config.spare_pools.size(); ++p) {
      if (p > 0) out += ';';
      const SparePoolConfig& pool = config.spare_pools[p];
      out += std::string(data::to_string(pool.category)) + ":" +
             std::to_string(pool.policy.initial_spares) + ":" +
             std::to_string(static_cast<long long>(pool.policy.restock_lead_time_hours));
    }
  }
  if (config.throttle.max_active > 0) {
    out += ", throttle=" + std::to_string(config.throttle.max_active);
    if (config.throttle.boost_below_capacity > 0.0) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%g", config.throttle.boost_below_capacity);
      out += ", boost=" + std::string(buffer);
    }
  }
  if (config.policy == RepairPolicy::kBatchedWindows) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, ", window=%g/%g/%g", config.windows.offset_hours,
                  config.windows.period_hours, config.windows.duration_hours);
    out += buffer;
  }
  return out;
}

Result<RepairShopConfig> parse_repair_config(std::string_view text) {
  RepairShopConfig config;
  for (std::string_view entry : split(text, ',')) {
    entry = trim(entry);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Error(ErrorKind::kParse, "expected key=value, got '" + std::string(entry) + "'");
    }
    const std::string_view key = trim(entry.substr(0, eq));
    const std::string_view value = trim(entry.substr(eq + 1));
    if (key == "crews") {
      if (!parse_count(value, config.crews)) {
        return Error(ErrorKind::kParse, "bad crews count '" + std::string(value) + "'");
      }
    } else if (key == "policy") {
      auto policy = parse_repair_policy(value);
      if (!policy.ok()) return policy.error();
      config.policy = policy.value();
    } else if (key == "throttle") {
      if (!parse_count(value, config.throttle.max_active)) {
        return Error(ErrorKind::kParse, "bad throttle count '" + std::string(value) + "'");
      }
    } else if (key == "boost") {
      if (!parse_number(value, config.throttle.boost_below_capacity)) {
        return Error(ErrorKind::kParse, "bad boost threshold '" + std::string(value) + "'");
      }
    } else if (key == "window") {
      const auto parts = split(value, '/');
      if (parts.size() != 3 || !parse_number(trim(parts[0]), config.windows.offset_hours) ||
          !parse_number(trim(parts[1]), config.windows.period_hours) ||
          !parse_number(trim(parts[2]), config.windows.duration_hours)) {
        return Error(ErrorKind::kParse,
                     "bad window spec '" + std::string(value) + "' (expected offset/period/duration)");
      }
    } else if (key == "horizon-slack" || key == "horizon_slack") {
      if (!parse_number(value, config.horizon_slack_hours)) {
        return Error(ErrorKind::kParse, "bad horizon slack '" + std::string(value) + "'");
      }
    } else if (key == "spares") {
      for (std::string_view pool_text : split(value, ';')) {
        pool_text = trim(pool_text);
        if (pool_text.empty()) continue;
        const auto fields = split(pool_text, ':');
        if (fields.size() != 3) {
          return Error(ErrorKind::kParse, "bad spare pool '" + std::string(pool_text) +
                                              "' (expected CATEGORY:count:lead_hours)");
        }
        SparePoolConfig pool;
        auto category = data::parse_category(trim(fields[0]));
        if (!category.ok()) return category.error();
        pool.category = category.value();
        if (!parse_count(trim(fields[1]), pool.policy.initial_spares)) {
          return Error(ErrorKind::kParse, "bad spare count '" + std::string(fields[1]) + "'");
        }
        if (!parse_number(trim(fields[2]), pool.policy.restock_lead_time_hours)) {
          return Error(ErrorKind::kParse, "bad restock lead '" + std::string(fields[2]) + "'");
        }
        config.spare_pools.push_back(pool);
      }
    } else {
      return Error(ErrorKind::kParse, "unknown repair config key '" + std::string(key) + "'");
    }
  }
  if (auto valid = validate_repair_config(config); !valid.ok()) return valid.error();
  return config;
}

Result<RepairShopResult> run_repair_shop(const data::FailureLog& log,
                                         const RepairShopConfig& config) {
  OBS_SPAN("repairshop.run");
  static obs::Counter runs = obs::counter("repairshop.runs");
  static obs::Counter stockout_counter = obs::counter("repairshop.stockouts");
  static obs::Gauge queue_gauge = obs::gauge("repairshop.queue_depth");
  static constexpr double kWaitBounds[] = {0.1, 1.0, 4.0, 12.0, 24.0, 72.0, 168.0, 720.0};
  static constexpr double kUtilizationBounds[] = {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0};
  static obs::Histogram wait_histogram = obs::histogram("repairshop.wait_hours", kWaitBounds);
  static obs::Histogram utilization_histogram =
      obs::histogram("repairshop.crew_utilization", kUtilizationBounds);
  runs.add();

  if (auto valid = validate_repair_config(config); !valid.ok()) return valid.error();
  const data::MachineSpec& spec = log.spec();
  for (const SparePoolConfig& pool : config.spare_pools) {
    if (!data::valid_for(pool.category, spec.machine)) {
      return Error(ErrorKind::kValidation,
                   "spare pool category '" + std::string(data::to_string(pool.category)) +
                       "' is not in " + spec.name + "'s vocabulary");
    }
  }

  const int g = std::max(1, spec.gpus_per_node);
  const long long total_units = static_cast<long long>(std::max(1, spec.node_count)) * g;

  // --- Precompute per-failure jobs ------------------------------------
  const auto records = log.records();
  const std::size_t n = records.size();
  std::vector<Job> jobs(n);
  double last_arrival = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Job& job = jobs[i];
    job.arrival = hours_between(spec.log_start, records[i].time);
    job.service = records[i].ttr_hours;
    job.units = degradation_units(records[i], spec.gpus_per_node);
    job.node = records[i].node;
    for (std::size_t p = 0; p < config.spare_pools.size(); ++p) {
      if (config.spare_pools[p].category == records[i].category) {
        job.pool = static_cast<int>(p);
        break;
      }
    }
    last_arrival = std::max(last_arrival, job.arrival);
  }
  const double horizon =
      std::max(spec.window_hours(), last_arrival) + config.horizon_slack_hours;

  RepairShopResult result;
  result.assignments.resize(n);
  result.horizon_hours = horizon;
  result.crew_busy_hours.assign(config.crews, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    result.assignments[i].arrival_hours = jobs[i].arrival;
    result.assignments[i].degradation_units = jobs[i].units;
  }

  // --- Simulation state ------------------------------------------------
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  for (std::size_t i = 0; i < n; ++i) {
    events.push(Event{jobs[i].arrival, kArrival, i});
  }
  std::vector<std::size_t> pools(config.spare_pools.size());
  for (std::size_t p = 0; p < pools.size(); ++p) {
    pools[p] = config.spare_pools[p].policy.initial_spares;
  }
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>> free_crews;
  for (std::size_t c = 0; c < config.crews; ++c) free_crews.push(c);
  std::vector<WaitBucket> buckets(2 * (pools.size() + 1));
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    buckets[b].pool = static_cast<int>(b / 2) - 1;
    buckets[b].partial = b % 2 == 1;
  }
  std::map<int, int> node_units;  // node -> capacity units currently lost
  long long lost_units = 0;
  std::size_t active = 0;
  double now = 0.0;
  double degraded_units_hours = 0.0;
  double last_wake = -1.0;  // dedup for window wake events

  const auto add_units = [&](const Job& job, int sign) {
    int& current = node_units[job.node];
    const int before = std::min(g, current);
    current += sign * job.units;
    lost_units += std::min(g, current) - before;
  };

  // Effective concurrency cap for the current degradation level.  Both
  // simulators evaluate this identical expression, so the FP compare is
  // reproducible.
  const auto active_cap = [&]() -> std::size_t {
    if (config.throttle.max_active == 0) return config.crews;
    if (config.throttle.boost_below_capacity > 0.0) {
      const double healthy =
          static_cast<double>(total_units - lost_units) / static_cast<double>(total_units);
      if (healthy < config.throttle.boost_below_capacity) return config.crews;
    }
    return std::min(config.throttle.max_active, config.crews);
  };

  const auto policy_prefers = [&](std::size_t a, std::size_t b) {
    if (config.policy == RepairPolicy::kCriticalityFirst) {
      if (jobs[a].units != jobs[b].units) return jobs[a].units > jobs[b].units;
      if (jobs[a].service != jobs[b].service) return jobs[a].service < jobs[b].service;
    }
    return a < b;  // FIFO / batched: arrival (= record index) order
  };
  // Heap order: the front is the job no other job is preferred over.
  const auto dispatched_later = [&](std::size_t a, std::size_t b) { return policy_prefers(b, a); };

  const auto bucket_of = [&](const Job& job) -> WaitBucket& {
    return buckets[2 * static_cast<std::size_t>(job.pool + 1) + (job.units < g ? 1 : 0)];
  };
  // A job leaving its bucket (started, or still waiting at the horizon)
  // waited for a spare iff its bucket stocked out while it was queued.
  const auto leave_bucket = [&](std::size_t i) {
    if (bucket_of(jobs[i]).last_stockout >= jobs[i].arrival) {
      result.assignments[i].waited_for_spare = true;
    }
  };

  // --- Event loop ------------------------------------------------------
  std::vector<std::size_t> tick_spares, tick_completions, tick_arrivals;
  while (!events.empty() && events.top().time <= horizon) {
    const double t = events.top().time;
    degraded_units_hours += static_cast<double>(lost_units) * (t - now);
    now = t;
    // Partial repairs may start at t; whole-node repairs always may.
    const bool window_open = config.policy != RepairPolicy::kBatchedWindows ||
                             in_maintenance_window(config.windows, t);
    const auto admits = [&](const WaitBucket& bucket) {
      if (bucket.partial && !window_open) return false;
      return bucket.pool < 0 || pools[static_cast<std::size_t>(bucket.pool)] > 0;
    };

    // The tick loop: zero-service completions and zero-lead restocks
    // scheduled by the dispatch below land back at time t and re-enter.
    while (!events.empty() && events.top().time == t) {
      tick_spares.clear();
      tick_completions.clear();
      tick_arrivals.clear();
      while (!events.empty() && events.top().time == t) {
        const Event event = events.top();
        events.pop();
        switch (event.kind) {
          case kSpareArrival: tick_spares.push_back(event.seq); break;
          case kCompletion: tick_completions.push_back(event.seq); break;
          case kArrival: tick_arrivals.push_back(event.seq); break;
          case kWake: break;
        }
      }
      for (std::size_t p : tick_spares) ++pools[p];
      std::sort(tick_completions.begin(), tick_completions.end());
      for (std::size_t i : tick_completions) {
        add_units(jobs[i], -1);
        free_crews.push(result.assignments[i].crew);
        --active;
        ++result.completed;
      }
      std::sort(tick_arrivals.begin(), tick_arrivals.end());
      for (std::size_t i : tick_arrivals) {
        add_units(jobs[i], +1);
        WaitBucket& bucket = bucket_of(jobs[i]);
        bucket.heap.push_back(i);
        std::push_heap(bucket.heap.begin(), bucket.heap.end(), dispatched_later);
      }

      // Dispatch: start the policy-best eligible repair until crews, the
      // throttle cap, spares, or the window gate say stop.  Every job in
      // a bucket is eligible exactly when the bucket is, so the best
      // eligible job is the best admitted bucket head.
      while (!free_crews.empty() && active < active_cap()) {
        std::size_t best = n;
        for (const WaitBucket& bucket : buckets) {
          if (bucket.heap.empty() || !admits(bucket)) continue;
          const std::size_t head = bucket.heap.front();
          if (best == n || policy_prefers(head, best)) best = head;
        }
        if (best == n) break;
        WaitBucket& from = bucket_of(jobs[best]);
        std::pop_heap(from.heap.begin(), from.heap.end(), dispatched_later);
        from.heap.pop_back();
        leave_bucket(best);
        RepairAssignment& assignment = result.assignments[best];
        assignment.crew = free_crews.top();
        free_crews.pop();
        assignment.start_hours = t;
        assignment.completion_hours = t + jobs[best].service;
        if (jobs[best].pool >= 0) {
          const auto p = static_cast<std::size_t>(jobs[best].pool);
          --pools[p];
          assignment.consumed_spare = true;
          ++result.spare_demands;
          events.push(
              Event{t + config.spare_pools[p].policy.restock_lead_time_hours, kSpareArrival, p});
        }
        events.push(Event{assignment.completion_hours, kCompletion, best});
        ++active;
        result.peak_active = std::max(result.peak_active, active);
      }
    }

    // End-of-tick bookkeeping: stockout marks, queue depth, window wakes.
    const bool crew_and_cap_free = !free_crews.empty() && active < active_cap();
    bool stalled_on_window = false;
    std::size_t waiting = 0;
    for (WaitBucket& bucket : buckets) {
      waiting += bucket.heap.size();
      if (bucket.heap.empty()) continue;
      if (bucket.partial && !window_open) {
        stalled_on_window = true;
        continue;
      }
      if (crew_and_cap_free && !admits(bucket)) bucket.last_stockout = t;
    }
    result.peak_queue_depth = std::max(result.peak_queue_depth, waiting);
    if (stalled_on_window) {
      const double wake = next_window_start(config.windows, t);
      if (wake > t && wake <= horizon && wake != last_wake) {
        events.push(Event{wake, kWake, 0});
        last_wake = wake;
      }
    }
  }
  degraded_units_hours += static_cast<double>(lost_units) * (horizon - now);
  for (const WaitBucket& bucket : buckets) {
    for (std::size_t i : bucket.heap) leave_bucket(i);
  }

  // --- Summary ---------------------------------------------------------
  std::size_t started = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const RepairAssignment& assignment = result.assignments[i];
    if (!assignment.started()) {
      ++result.unstarted_at_horizon;
      continue;
    }
    ++started;
    if (assignment.completion_hours > horizon) ++result.in_flight_at_horizon;
    const double clipped_completion = std::min(assignment.completion_hours, horizon);
    result.crew_busy_hours[assignment.crew] += clipped_completion - assignment.start_hours;
    result.makespan_hours = std::max(result.makespan_hours, clipped_completion);
    const double wait = assignment.start_hours - assignment.arrival_hours;
    result.total_wait_hours += wait;
    result.max_wait_hours = std::max(result.max_wait_hours, wait);
    wait_histogram.observe(wait);
    if (assignment.waited_for_spare) ++result.stockouts;
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Flagged-but-never-started repairs are stockouts too.
    if (!result.assignments[i].started() && result.assignments[i].waited_for_spare) {
      ++result.stockouts;
    }
  }
  result.mean_wait_hours = started > 0 ? result.total_wait_hours / static_cast<double>(started) : 0.0;
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

  stockout_counter.add(result.stockouts);
  queue_gauge.set(static_cast<double>(result.peak_queue_depth));
  utilization_histogram.observe(result.crew_utilization);
  return result;
}

data::FailureLog effective_log(const data::FailureLog& log, const RepairShopResult& result) {
  TSUFAIL_REQUIRE(result.assignments.size() == log.size(),
                  "effective_log: result does not match log");
  std::vector<data::FailureRecord> records(log.records().begin(), log.records().end());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RepairAssignment& assignment = result.assignments[i];
    const double downtime = assignment.started()
                                ? assignment.completion_hours - assignment.arrival_hours
                                : result.horizon_hours - assignment.arrival_hours;
    records[i].ttr_hours = std::max(0.0, downtime);
  }
  return data::FailureLog::from_sorted(log.spec(), std::move(records));
}

}  // namespace tsufail::ops
