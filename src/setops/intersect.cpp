#include "setops/intersect.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/env.hpp"

namespace ppscan {
namespace {

/// Degree-skew ratio above which the Auto dispatcher switches a pair to the
/// galloping kernel: galloping wins once the longer list is so much longer
/// that jumping beats scanning. Tunable via PPSCAN_GALLOP_SKEW (docs/
/// tuning.md); 0 disables galloping entirely. Note the checked parse: a
/// malformed value now warns and keeps the default 64, where the old
/// atol() silently read garbage as 0 and turned galloping off.
std::size_t gallop_skew_threshold() {
  static const std::size_t value =
      static_cast<std::size_t>(env_u64("PPSCAN_GALLOP_SKEW", 64));
  return value;
}

/// The Auto similarity kernel: best vector kernel the CPU supports, except
/// that high degree-skew pairs divert to the galloping kernel. Both sides
/// of the switch decide the identical predicate, so results are
/// bit-identical across thresholds.
bool similar_auto(Neighbors nu, Neighbors nv, std::uint32_t min_cn) {
  static const SimilarFn base =
      similar_fn(resolve_kernel(IntersectKind::Auto));
  const std::size_t threshold = gallop_skew_threshold();
  if (threshold > 0) {
    const std::size_t small = std::min(nu.size(), nv.size());
    const std::size_t large = std::max(nu.size(), nv.size());
    if (large > threshold * std::max<std::size_t>(small, 1)) {
      return similar_gallop(nu, nv, min_cn);
    }
  }
  return base(nu, nv, min_cn);
}

using MarkedSimilarFn = bool (*)(const std::uint64_t*, std::size_t, Neighbors,
                                 std::uint32_t);
using MarkedCountFn = std::uint64_t (*)(const std::uint64_t*, Neighbors);

}  // namespace

bool similar_marked(NeighborMarks& marks, VertexId u, Neighbors nu,
                    Neighbors nv, std::uint32_t min_cn) {
  static const MarkedSimilarFn probe =
      kernel_supported(IntersectKind::PivotAvx512) ? &similar_marked_avx512
                                                   : &similar_marked_scalar;
  const std::size_t threshold = gallop_skew_threshold();
  if (threshold > 0 &&
      nv.size() > threshold * std::max<std::size_t>(nu.size(), 1)) {
    return similar_gallop(nu, nv, min_cn);
  }
  marks.mark(u, nu);
  return probe(marks.words().data(), nu.size(), nv, min_cn);
}

std::uint64_t count_marked(NeighborMarks& marks, VertexId u, Neighbors nu,
                           Neighbors nv) {
  static const MarkedCountFn probe =
      kernel_supported(IntersectKind::PivotAvx512) ? &count_marked_avx512
                                                   : &count_marked_scalar;
  marks.mark(u, nu);
  return probe(marks.words().data(), nv);
}

std::string to_string(IntersectKind kind) {
  switch (kind) {
    case IntersectKind::MergeEarlyStop: return "merge";
    case IntersectKind::PivotScalar: return "pivot";
    case IntersectKind::PivotAvx2: return "avx2";
    case IntersectKind::PivotAvx512: return "avx512";
    case IntersectKind::GallopEarlyStop: return "gallop";
    case IntersectKind::Auto: return "auto";
  }
  return "?";
}

IntersectKind parse_intersect_kind(const std::string& name) {
  if (name == "merge") return IntersectKind::MergeEarlyStop;
  if (name == "pivot") return IntersectKind::PivotScalar;
  if (name == "avx2") return IntersectKind::PivotAvx2;
  if (name == "avx512") return IntersectKind::PivotAvx512;
  if (name == "gallop") return IntersectKind::GallopEarlyStop;
  if (name == "auto") return IntersectKind::Auto;
  throw std::invalid_argument("unknown intersect kind: " + name);
}

bool kernel_supported(IntersectKind kind) {
  switch (kind) {
    case IntersectKind::MergeEarlyStop:
    case IntersectKind::PivotScalar:
    case IntersectKind::GallopEarlyStop:
    case IntersectKind::Auto:
      return true;
    case IntersectKind::PivotAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case IntersectKind::PivotAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
}

IntersectKind resolve_kernel(IntersectKind kind) {
  if (kind == IntersectKind::Auto) {
    if (kernel_supported(IntersectKind::PivotAvx512)) {
      return IntersectKind::PivotAvx512;
    }
    if (kernel_supported(IntersectKind::PivotAvx2)) {
      return IntersectKind::PivotAvx2;
    }
    return IntersectKind::PivotScalar;
  }
  if (!kernel_supported(kind)) {
    throw std::runtime_error("intersect kernel not supported on this CPU: " +
                             to_string(kind));
  }
  return kind;
}

CountFn count_fn(IntersectKind kind) {
  switch (resolve_kernel(kind)) {
    case IntersectKind::MergeEarlyStop:
    case IntersectKind::PivotScalar:
      return &intersect_count_merge;
    case IntersectKind::GallopEarlyStop:
      return &intersect_count_galloping;
    case IntersectKind::PivotAvx2:
      return &intersect_count_avx2;
    case IntersectKind::PivotAvx512:
      return &intersect_count_avx512;
    case IntersectKind::Auto:
      break;  // resolved above
  }
  throw std::logic_error("count_fn: unreachable");
}

SimilarFn similar_fn(IntersectKind kind) {
  // Auto is special-cased before resolution: it is the per-pair dispatcher
  // (skew → gallop, else best vector kernel), not a fixed kernel.
  if (kind == IntersectKind::Auto) return &similar_auto;
  switch (resolve_kernel(kind)) {
    case IntersectKind::MergeEarlyStop: return &similar_merge_early_stop;
    case IntersectKind::PivotScalar: return &similar_pivot_scalar;
    case IntersectKind::PivotAvx2: return &similar_pivot_avx2;
    case IntersectKind::PivotAvx512: return &similar_pivot_avx512;
    case IntersectKind::GallopEarlyStop: return &similar_gallop;
    case IntersectKind::Auto: break;  // handled above
  }
  throw std::logic_error("similar_fn: unreachable");
}

}  // namespace ppscan
