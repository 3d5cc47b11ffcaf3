// Host and build fingerprint stamped on every result, and the check that
// refuses to record numbers from a build unfit for measurement.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace perfbench {

/// nproc, CPU model, kernel, compiler, build type and flags, library
/// options, vector support, source revision and seed.
ppscan::obs::JsonValue fingerprint(std::uint64_t seed,
                                   const std::string& commit,
                                   const std::string& source_digest);

/// Why this build must not record numbers (sanitizers, fault injection,
/// an unoptimized build type); empty when it may.
std::string refusal_reason();

}  // namespace perfbench
