#include "fingerprint.hpp"

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <thread>

#include "setops/intersect.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

using ppscan::obs::JsonValue;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  return std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
         std::string::npos;
}

}  // namespace

JsonValue fingerprint(std::uint64_t seed, const std::string& commit,
                      const std::string& source_digest) {
  JsonValue f = JsonValue::object();
  f.set("nproc", JsonValue::number_u64(std::thread::hardware_concurrency()));
  f.set("online_cpus", JsonValue::number_u64(static_cast<std::uint64_t>(
                           sysconf(_SC_NPROCESSORS_ONLN))));
  f.set("cpu_model", JsonValue::string(cpu_model()));
  utsname u{};
  uname(&u);
  f.set("kernel", JsonValue::string(std::string(u.sysname) + " " + u.release));
  f.set("compiler", JsonValue::string(__VERSION__));
  f.set("build_type", JsonValue::string(PERFBENCH_BUILD_TYPE));
  f.set("cxx_flags", JsonValue::string(PERFBENCH_CXX_FLAGS));
  f.set("ppscan_trace", JsonValue::boolean(PPSCAN_TRACE_ENABLED != 0));
  f.set("ppscan_faults", JsonValue::boolean(PPSCAN_FAULTS_ENABLED != 0));
  f.set("avx2", JsonValue::boolean(ppscan::kernel_supported(
                    ppscan::IntersectKind::PivotAvx2)));
  f.set("avx512", JsonValue::boolean(ppscan::kernel_supported(
                      ppscan::IntersectKind::PivotAvx512)));
  const char* skew = std::getenv("PPSCAN_GALLOP_SKEW");
  f.set("ppscan_gallop_skew", JsonValue::string(skew ? skew : "default"));
  f.set("commit", JsonValue::string(commit));
  f.set("source_digest", JsonValue::string(source_digest));
  f.set("seed", JsonValue::number_u64(seed));
  return f;
}

std::string refusal_reason() {
  if (PPSCAN_FAULTS_ENABLED != 0) return "built with PPSCAN_FAULTS=ON";
  if (sanitized_build()) return "built with a sanitizer";
  if (std::getenv("PPSCAN_FAULT") != nullptr) return "PPSCAN_FAULT is set";
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not optimized";
  }
  return {};
}

}  // namespace perfbench
