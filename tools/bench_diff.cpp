// bench_diff — compare fresh BENCH_*.json perf records against committed
// baselines (bench/baselines/*.json).
//
// Two records are compared only when they measured the same workload:
// every field both carry that is not a measurement (`env_*`, `*_per_s`,
// `*_s`, `*_s_*`) must be equal, or the record is reported as a workload
// mismatch and skipped — a 5000-failure quick run says nothing about a
// 20000-failure baseline.  Throughput fields (`*_per_s`) are then
// compared as raw fresh/baseline ratios.  When the envs differ (compiler
// or build type) every finding is downgraded to informational, because
// the numbers are not commensurate.
//
// Usage: bench_diff <baseline-dir> <fresh-dir> [--threshold F]
//
//   threshold (default 0.30): a throughput ratio below 1-threshold is a
//   REGRESSION, above 1+threshold an IMPROVEMENT.
//
// Exit code: 1 if any REGRESSION was found under a matching env and
// workload, 0 otherwise (missing baselines and mismatches never fail —
// CI runs this as a soft gate and surfaces the report as an annotation).
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

struct BenchRecord {
  std::string name;  // "pack" for BENCH_pack.json
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

/// Parses the flat one-field-per-line JSON objects PerfJson renders.
/// Nested objects are not produced by PerfJson and not accepted here.
std::optional<BenchRecord> parse_bench_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  BenchRecord record;
  std::size_t pos = 0;
  const auto skip_ws = [&] {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  };
  skip_ws();
  if (pos >= text.size() || text[pos] != '{') return std::nullopt;
  ++pos;
  while (true) {
    skip_ws();
    if (pos >= text.size()) return std::nullopt;
    if (text[pos] == '}') break;
    if (text[pos] == ',') {
      ++pos;
      continue;
    }
    if (text[pos] != '"') return std::nullopt;
    const std::size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) return std::nullopt;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    pos = key_end + 1;
    skip_ws();
    if (pos >= text.size() || text[pos] != ':') return std::nullopt;
    ++pos;
    skip_ws();
    if (pos < text.size() && text[pos] == '"') {
      const std::size_t value_end = text.find('"', pos + 1);
      if (value_end == std::string::npos) return std::nullopt;
      record.strings[key] = text.substr(pos + 1, value_end - pos - 1);
      pos = value_end + 1;
    } else {
      char* end = nullptr;
      const double value = std::strtod(text.c_str() + pos, &end);
      if (end == text.c_str() + pos) return std::nullopt;
      record.numbers[key] = value;
      pos = static_cast<std::size_t>(end - text.c_str());
    }
  }
  if (auto it = record.strings.find("bench"); it != record.strings.end())
    record.name = it->second;
  return record;
}

/// Collects BENCH_*.json (and baselines saved without the prefix) from a
/// directory, keyed by bench name.
std::map<std::string, BenchRecord> load_dir(const std::string& dir) {
  std::map<std::string, BenchRecord> records;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string filename = entry.path().filename().string();
    if (filename.size() < 6 || filename.substr(filename.size() - 5) != ".json") continue;
    auto record = parse_bench_json(entry.path().string());
    if (!record.has_value() || record->name.empty()) continue;
    records[record->name] = std::move(*record);
  }
  return records;
}

bool ends_with(const std::string& key, std::string_view suffix) {
  return key.size() >= suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True for fields where higher is better (throughputs).
bool is_throughput_field(const std::string& key) {
  return ends_with(key, "_per_s") && key.rfind("env_", 0) != 0;
}

/// True for fields that describe the workload rather than measure it:
/// anything but the env block, throughputs and wall times.
bool is_workload_field(const std::string& key) {
  return key.rfind("env_", 0) != 0 && !ends_with(key, "_per_s") && !ends_with(key, "_s") &&
         key.find("_s_") == std::string::npos;
}

std::string show(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}
std::string show(const std::string& value) { return value; }

/// The first workload field both maps carry with different values,
/// rendered as "key: base vs fresh", or empty when they agree.
template <typename Map>
std::string workload_difference(const Map& base, const Map& now) {
  for (const auto& [key, value] : base) {
    const auto it = now.find(key);
    if (is_workload_field(key) && it != now.end() && it->second != value)
      return key + ": " + show(value) + " vs " + show(it->second);
  }
  return {};
}

std::string env_string(const BenchRecord& record, const char* key) {
  auto it = record.strings.find(key);
  return it == record.strings.end() ? std::string("?") : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.30;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::strtod(argv[++i], nullptr);
    } else {
      dirs.emplace_back(argv[i]);
    }
  }
  if (dirs.size() != 2 || threshold <= 0.0 || threshold >= 1.0) {
    std::fprintf(stderr, "usage: bench_diff <baseline-dir> <fresh-dir> [--threshold F in (0,1)]\n");
    return 2;
  }

  const auto baselines = load_dir(dirs[0]);
  const auto fresh = load_dir(dirs[1]);
  if (baselines.empty()) {
    std::printf("bench_diff: no baselines under %s — nothing to compare\n", dirs[0].c_str());
    return 0;
  }

  int regressions = 0;
  int compared = 0;
  for (const auto& [name, base] : baselines) {
    const auto fresh_it = fresh.find(name);
    if (fresh_it == fresh.end()) {
      std::printf("[%s] no fresh record — skipped\n", name.c_str());
      continue;
    }
    const BenchRecord& now = fresh_it->second;

    std::string diff = workload_difference(base.numbers, now.numbers);
    if (diff.empty()) diff = workload_difference(base.strings, now.strings);
    if (!diff.empty()) {
      std::printf("[%s] workload mismatch — not compared (%s)\n", name.c_str(), diff.c_str());
      continue;
    }
    const bool env_match = env_string(base, "env_compiler") == env_string(now, "env_compiler") &&
                           env_string(base, "env_build_type") == env_string(now, "env_build_type");
    std::printf("[%s] env %s (compiler %s/%s, build %s/%s)\n", name.c_str(),
                env_match ? "match" : "MISMATCH — informational only",
                env_string(base, "env_compiler").c_str(), env_string(now, "env_compiler").c_str(),
                env_string(base, "env_build_type").c_str(),
                env_string(now, "env_build_type").c_str());

    for (const auto& [key, base_value] : base.numbers) {
      if (!is_throughput_field(key)) continue;
      const auto now_value = now.numbers.find(key);
      if (now_value == now.numbers.end() || base_value <= 0.0) continue;
      ++compared;
      const double ratio = now_value->second / base_value;
      const char* verdict = "ok";
      if (ratio < 1.0 - threshold) {
        verdict = env_match ? "REGRESSION" : "regression (env mismatch, not gating)";
        if (env_match) ++regressions;
      } else if (ratio > 1.0 + threshold) {
        verdict = "IMPROVEMENT";
      }
      std::printf("  %-44s base %12.4g  fresh %12.4g  ratio %5.2f  %s\n", key.c_str(),
                  base_value, now_value->second, ratio, verdict);
    }
  }
  std::printf("bench_diff: %d throughput fields compared, %d regressions (threshold %.0f%%)\n",
              compared, regressions, threshold * 100.0);
  return regressions > 0 ? 1 : 0;
}
