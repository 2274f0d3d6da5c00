#include "common.h"

#include <dirent.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

Scale Scale::tiny() {
  Scale s;
  s.analyze_records = 20'000;
  s.analyze_logs = 2;
  s.sweep_replicates = 40;
  s.sweep_check_replicates = 8;
  s.repair_failures = 1'000;
  s.repair_replicates = 2;
  s.census_replicates = 8;
  s.serve_tenants = 4;
  s.restarts = 1;
  s.setup_repeats = 1;
  s.min_iterations = 1;
  return s;
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t mid = sample.size() / 2;
  return sample.size() % 2 == 1 ? sample[mid] : 0.5 * (sample[mid - 1] + sample[mid]);
}

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sample.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sample[std::min(index, sample.size() - 1)];
}

double size_exponent(double t_big, double t_small) {
  return t_big > 0.0 && t_small > 0.0 ? std::log10(t_big / t_small) : 0.0;
}

void must(const tsufail::Result<void>& result, const std::string& what) {
  if (!result.ok()) throw std::runtime_error(what + ": " + result.error().to_string());
}

double proc_status(pid_t pid, const char* field) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  const std::size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0) return std::strtod(line.c_str() + length, nullptr);
  }
  return 0.0;
}

double proc_fds(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/fd";
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) return 0.0;
  double count = 0.0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') count += 1.0;
  }
  closedir(dir);
  return count;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

void Digest::add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Ledger::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void Ledger::tally(std::size_t attempted, const std::vector<std::string>& failures) {
  attempted_ += attempted;
  failed_ += failures.size();
  for (const std::string& what : failures) std::cerr << "perfbench: check failed: " << what << "\n";
}

void Ledger::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  metrics_[name] = {value, unit, samples};
}

void Ledger::raw(const std::string& name, std::vector<double> samples) {
  raw_[name] = std::move(samples);
}

namespace {

/// A JSON number with every significant digit (NaN/inf become null).
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

void Ledger::print(const Options& options, const std::vector<std::string>& headline,
                   const std::vector<std::string>& result) const {
  const auto reading = [&](const std::string& name) -> const Reading& {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) throw std::logic_error("metric not recorded: " + name);
    return it->second;
  };

  std::cout << "workload " << options.workload << "  seed " << options.seed << "  trace "
            << (options.trace ? 1 : 0) << "  attempted " << attempted_ << "  failed " << failed_
            << "\n";
  for (const std::string& name : headline) {
    const Reading& r = reading(name);
    std::cout << "  " << name << " = " << json_number(r.value) << " " << r.unit;
    if (r.samples > 0) std::cout << "  (n=" << r.samples << ")";
    std::cout << "\n";
  }
  for (const std::string& note : notes_) std::cout << "  " << note << "\n";

  std::ostringstream record;
  record << "{\"record\": {\"workload\": " << json_string(options.workload)
         << ", \"seed\": " << options.seed << ", \"trace\": " << (options.trace ? 1 : 0);
  for (const auto& [name, value] : keys_) record << ", " << json_string(name) << ": "
                                                 << json_number(value);
  record << ", \"raw\": {";
  bool first = true;
  for (const auto& [name, samples] : raw_) {
    record << (first ? "" : ", ") << json_string(name) << ": [";
    for (std::size_t i = 0; i < samples.size(); ++i)
      record << (i == 0 ? "" : ", ") << json_number(samples[i]);
    record << "]";
    first = false;
  }
  record << "}}}";
  std::cout << record.str() << "\n";

  std::ostringstream line;
  line << "{\"correct\": " << (failed_ == 0 ? "true" : "false") << ", \"attempted\": "
       << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.size(); ++i) {
    const Reading& r = reading(result[i]);
    line << (i == 0 ? "" : ", ") << json_string(result[i]) << ": {\"value\": "
         << json_number(r.value) << ", \"unit\": " << json_string(r.unit) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

}  // namespace perfbench
