// obs_check: structural validator for tsufail::obs exports, used by the
// CI release-smoke / serve-smoke jobs and handy interactively.
//
//   $ obs_check --trace trace.json        # Chrome-trace structure
//   $ obs_check --metrics metrics.prom    # Prometheus exposition
//   $ obs_check --cross trace.json metrics.prom
//                                         # + every exemplar trace id in
//                                         #   the exposition must name a
//                                         #   span in the trace
//
// Checks are the library's own (obs::check_chrome_trace /
// obs::check_prometheus_text), so the tool, the tests, and CI agree on
// what "well-formed" means.  --cross is the end-to-end exemplar link:
// it proves a burning SLO's exemplar can actually be followed into the
// Chrome trace.  Exit 0 when every given file validates.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace tsufail;

Result<std::string> slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file)
    return Error(ErrorKind::kIo, "cannot open '" + path + "'");
  std::ostringstream text;
  text << file.rdbuf();
  return std::move(text).str();
}

int check_trace(const std::string& path) {
  auto text = slurp(path);
  if (!text.ok()) {
    std::printf("FAIL %s: %s\n", path.c_str(), text.error().to_string().c_str());
    return 1;
  }
  auto check = obs::check_chrome_trace(text.value());
  if (!check.ok()) {
    std::printf("FAIL %s: %s\n", path.c_str(), check.error().to_string().c_str());
    return 1;
  }
  std::printf("OK   %s: %zu events (%zu spans) on %zu threads, %zu trace ids\n", path.c_str(),
              check.value().events, check.value().begin_events, check.value().threads,
              check.value().trace_ids.size());
  for (const auto& [name, count] : check.value().spans_by_name)
    std::printf("       %-28s %zu\n", name.c_str(), count);
  return 0;
}

int check_metrics(const std::string& path) {
  auto text = slurp(path);
  if (!text.ok()) {
    std::printf("FAIL %s: %s\n", path.c_str(), text.error().to_string().c_str());
    return 1;
  }
  auto check = obs::check_prometheus_text(text.value());
  if (!check.ok()) {
    std::printf("FAIL %s: %s\n", path.c_str(), check.error().to_string().c_str());
    return 1;
  }
  std::printf("OK   %s: %zu samples across %zu metric families, %zu exemplars\n", path.c_str(),
              check.value().samples, check.value().families, check.value().exemplars);
  return 0;
}

/// Validates both files, then requires every exemplar trace id on the
/// metrics page to resolve to a span in the trace.
int check_cross(const std::string& trace_path, const std::string& metrics_path) {
  auto trace_text = slurp(trace_path);
  auto metrics_text = slurp(metrics_path);
  if (!trace_text.ok() || !metrics_text.ok()) {
    std::printf("FAIL cross: %s\n", (trace_text.ok() ? metrics_text : trace_text)
                                        .error()
                                        .to_string()
                                        .c_str());
    return 1;
  }
  auto trace = obs::check_chrome_trace(trace_text.value());
  auto metrics = obs::check_prometheus_text(metrics_text.value());
  if (!trace.ok() || !metrics.ok()) {
    std::printf("FAIL cross: %s\n",
                (trace.ok() ? metrics.error() : trace.error()).to_string().c_str());
    return 1;
  }
  std::size_t dangling = 0;
  for (const std::string& id : metrics.value().exemplar_trace_ids) {
    if (!trace.value().has_trace_id(id)) {
      std::printf("FAIL cross: exemplar trace_id %s not present in %s\n", id.c_str(),
                  trace_path.c_str());
      ++dangling;
    }
  }
  if (dangling > 0) return 1;
  std::printf("OK   cross: %zu exemplar trace ids, all resolve to spans in %s\n",
              metrics.value().exemplar_trace_ids.size(), trace_path.c_str());
  return 0;
}

void usage() {
  std::printf(
      "usage: obs_check [--trace FILE]... [--metrics FILE]... [--cross TRACE METRICS]...\n");
}

}  // namespace

int main(int argc, char** argv) {
  struct Job {
    enum Kind { kTrace, kMetrics, kCross } kind;
    std::string path;
    std::string second;  // kCross: the metrics file
  };
  std::vector<Job> jobs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      jobs.push_back({Job::kTrace, argv[++i], {}});
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      jobs.push_back({Job::kMetrics, argv[++i], {}});
    } else if (std::strcmp(argv[i], "--cross") == 0 && i + 2 < argc) {
      Job job{Job::kCross, argv[i + 1], argv[i + 2]};
      i += 2;
      jobs.push_back(std::move(job));
    } else {
      usage();
      return 2;
    }
  }
  if (jobs.empty()) {
    usage();
    return 2;
  }
  int failures = 0;
  for (const auto& job : jobs) {
    switch (job.kind) {
      case Job::kTrace: failures += check_trace(job.path); break;
      case Job::kMetrics: failures += check_metrics(job.path); break;
      case Job::kCross: failures += check_cross(job.path, job.second); break;
    }
  }
  return failures == 0 ? 0 : 1;
}
