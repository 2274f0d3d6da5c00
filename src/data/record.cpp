#include "data/record.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace tsufail::data {
namespace {

Error duplicate_slot() { return Error(ErrorKind::kValidation, "duplicate GPU slot in record"); }

Error slot_out_of_range(int slot, int gpus_per_node) {
  return Error(ErrorKind::kValidation, "GPU slot " + std::to_string(slot) + " outside [0, " +
                                           std::to_string(gpus_per_node) + ")");
}

/// The slot checks as a scan of the sorted slot list reports them: any
/// duplicate first, then the smallest slot outside [0, gpus_per_node).
/// Slots in [0, 64), every slot of a valid record, are checked in one pass
/// over a bit set; only a list holding a slot outside that range (a
/// record about to be rejected) is copied and sorted.
Result<void> check_gpu_slots(const std::vector<int>& slots, int gpus_per_node) {
  std::uint64_t seen = 0;
  bool in_set = true;
  for (const int slot : slots) {
    if (slot < 0 || slot >= 64) {
      in_set = false;
      break;
    }
    const std::uint64_t bit = std::uint64_t{1} << slot;
    if ((seen & bit) != 0) return duplicate_slot();
    seen |= bit;
  }
  if (in_set) {
    const std::uint64_t in_range = gpus_per_node <= 0    ? 0
                                   : gpus_per_node >= 64 ? ~std::uint64_t{0}
                                                         : (std::uint64_t{1} << gpus_per_node) - 1;
    const std::uint64_t over = seen & ~in_range;
    if (over != 0) return slot_out_of_range(std::countr_zero(over), gpus_per_node);
    return {};
  }
  std::vector<int> sorted = slots;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) return duplicate_slot();
  for (const int slot : sorted) {
    if (slot < 0 || slot >= gpus_per_node) return slot_out_of_range(slot, gpus_per_node);
  }
  return {};
}

}  // namespace

Result<void> validate_record(const FailureRecord& record, const MachineSpec& spec,
                             double slack_hours) {
  if (!valid_for(record.category, spec.machine))
    return Error(ErrorKind::kValidation,
                 "category '" + std::string(to_string(record.category)) + "' is not in the " +
                     spec.name + " vocabulary");
  if (record.node < 0 || record.node >= spec.node_count)
    return Error(ErrorKind::kValidation, "node index " + std::to_string(record.node) +
                                             " outside [0, " + std::to_string(spec.node_count) +
                                             ")");
  if (!(record.ttr_hours >= 0.0) || !std::isfinite(record.ttr_hours))
    return Error(ErrorKind::kValidation, "time to recovery must be finite and >= 0");

  const TimePoint earliest = spec.log_start.plus_hours(-slack_hours);
  const TimePoint latest = spec.log_end.plus_hours(slack_hours);
  if (record.time < earliest || record.time > latest)
    return Error(ErrorKind::kValidation,
                 "failure time " + format_time(record.time) + " outside the log window " +
                     format_date(spec.log_start) + " .. " + format_date(spec.log_end));

  if (auto slots = check_gpu_slots(record.gpu_slots, spec.gpus_per_node); !slots.ok())
    return slots;
  if (!record.gpu_slots.empty() && !record.gpu_related())
    return Error(ErrorKind::kValidation,
                 "GPU slots listed on a non-GPU-related category '" +
                     std::string(to_string(record.category)) + "'");
  return {};
}

}  // namespace tsufail::data
