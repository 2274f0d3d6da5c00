#include "util/build_info.h"

#ifndef TSUFAIL_VERSION
#define TSUFAIL_VERSION "unknown"
#endif
#ifndef TSUFAIL_BUILD_TYPE
#define TSUFAIL_BUILD_TYPE "unknown"
#endif
#ifndef TSUFAIL_BUILD_FLAGS
#define TSUFAIL_BUILD_FLAGS "unknown"
#endif

namespace tsufail::util {

const BuildInfo& build_info() noexcept {
  static const BuildInfo info{
      "tsufail " TSUFAIL_VERSION,
      __VERSION__,
      TSUFAIL_BUILD_TYPE,
      TSUFAIL_BUILD_FLAGS,
  };
  return info;
}

std::string build_info_text() {
  const BuildInfo& info = build_info();
  std::string out = info.project + "\n";
  out += "compiler:   " + info.compiler + "\n";
  out += "build type: " + info.build_type + "\n";
  out += "flags:      " + info.flags + "\n";
  return out;
}

}  // namespace tsufail::util
