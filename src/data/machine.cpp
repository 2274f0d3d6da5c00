#include "data/machine.h"

#include "util/strings.h"

namespace tsufail::data {

std::string_view to_string(Machine machine) noexcept {
  switch (machine) {
    case Machine::kTsubame2: return "Tsubame-2";
    case Machine::kTsubame3: return "Tsubame-3";
  }
  return "unknown";
}

Result<Machine> parse_machine(std::string_view name) {
  const std::string_view key = trim(name);
  if (iequals(key, "tsubame-2") || iequals(key, "tsubame2") || iequals(key, "t2"))
    return Machine::kTsubame2;
  if (iequals(key, "tsubame-3") || iequals(key, "tsubame3") || iequals(key, "t3"))
    return Machine::kTsubame3;
  return Error(ErrorKind::kNotFound, "unknown machine: '" + std::string(name) + "'");
}

const MachineSpec& tsubame2_spec() {
  static const MachineSpec spec = [] {
    MachineSpec s;
    s.machine = Machine::kTsubame2;
    s.name = "Tsubame-2";
    s.node_count = 1408;
    s.gpus_per_node = 3;
    s.cpus_per_node = 2;
    s.nodes_per_rack = 32;  // 44 racks of thin nodes
    s.rpeak_pflops = 2.3;
    s.power_mw = 1.4;
    s.log_start = TimePoint::from_civil({2012, 1, 7, 0, 0, 0});
    s.log_end = TimePoint::from_civil({2013, 8, 1, 0, 0, 0});
    return s;
  }();
  return spec;
}

const MachineSpec& tsubame3_spec() {
  static const MachineSpec spec = [] {
    MachineSpec s;
    s.machine = Machine::kTsubame3;
    s.name = "Tsubame-3";
    s.node_count = 540;
    s.gpus_per_node = 4;
    s.cpus_per_node = 2;
    s.nodes_per_rack = 36;  // 15 racks of SXM2 nodes
    s.rpeak_pflops = 12.1;
    s.power_mw = 0.792;
    s.log_start = TimePoint::from_civil({2017, 5, 9, 0, 0, 0});
    s.log_end = TimePoint::from_civil({2020, 2, 22, 0, 0, 0});
    return s;
  }();
  return spec;
}

const MachineSpec& spec_for(Machine machine) {
  return machine == Machine::kTsubame2 ? tsubame2_spec() : tsubame3_spec();
}

}  // namespace tsufail::data
