// Build provenance: which compiler, build type, and flags produced this
// binary.
//
// One shared definition feeds both `tsufail --version` and the env block
// bench_common stamps into every BENCH_*.json, so perf records and bug
// reports always describe the same build the same way.
#pragma once

#include <string>

namespace tsufail::util {

struct BuildInfo {
  std::string project;     ///< "tsufail <version>"
  std::string compiler;    ///< the compiler's own __VERSION__ string
  std::string build_type;  ///< CMAKE_BUILD_TYPE ("Release", ...)
  std::string flags;       ///< CXX flags for that configuration
};

/// The one instance, filled at compile time from CMake definitions.
const BuildInfo& build_info() noexcept;

/// Multi-line human-readable block (the `tsufail --version` output).
std::string build_info_text();

}  // namespace tsufail::util
