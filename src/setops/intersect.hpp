// Sorted-set intersection kernels for structural-similarity computation.
//
// Every `similar_*` kernel answers CompSim(u,v) for *adjacent* u, v: given
// the two sorted open neighbor lists and the required closed-neighborhood
// overlap `min_cn` (= ⌈ε·√((d_u+1)(d_v+1))⌉), it decides whether
// |Γ(u)∩Γ(v)| = |N(u)∩N(v)| + 2 ≥ min_cn, maintaining pSCAN's
// early-termination bounds (paper Definition 3.9):
//     cn ≤ |Γ(u)∩Γ(v)| ≤ min(du, dv),
//     du/dv start at d+2 and shrink with every observed mismatch,
//     cn starts at 2 (u and v are adjacent) and grows with every match.
//
// Kernel menu:
//   MergeEarlyStop  — scalar merge with the bounds; pSCAN's kernel and the
//                     "ppSCAN-NO" configuration of the paper's Figure 5.
//   PivotScalar     — the paper's pivot-based loop without vector units;
//                     also the tail fallback of both vector kernels.
//   PivotAvx2       — Algorithm 6 ported to 8-lane AVX2.
//   PivotAvx512     — Algorithm 6 verbatim (16-lane,
//                     `_mm512_cmpgt_epi32_mask`).
//   GallopEarlyStop — galloping (binary-search) intersection from the
//                     smaller list, with the same early-termination bounds;
//                     wins on heavy degree skew (hub vs member) where the
//                     linear kernels walk the long list element by element.
//   Auto            — best kernel the executing CPU supports, switching to
//                     GallopEarlyStop per pair when max(du,dv)/min(du,dv)
//                     exceeds a threshold (PPSCAN_GALLOP_SKEW, default 64).
//
// The explicit kinds intersect two sorted lists. ppSCAN and the GS*-Index
// build run Auto as a marked-neighborhood probe instead (similar_marked /
// count_marked below): their pairs come in runs that share u, so N(u) is
// marked once in a bitmap and each pair probes N(v) against it.
//
// Vector kernels require vertex ids < 2^31 (compares are signed); CsrGraph
// guarantees that for any graph that fits in memory.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace ppscan {

enum class IntersectKind : std::uint8_t {
  MergeEarlyStop,
  PivotScalar,
  PivotAvx2,
  PivotAvx512,
  GallopEarlyStop,
  Auto,
};

[[nodiscard]] std::string to_string(IntersectKind kind);

/// Parses "merge" / "pivot" / "avx2" / "avx512" / "gallop" / "auto".
IntersectKind parse_intersect_kind(const std::string& name);

/// True when the executing CPU can run `kind`.
bool kernel_supported(IntersectKind kind);

/// Resolves Auto to the best supported kernel; other kinds pass through
/// (throws std::runtime_error if unsupported on this CPU).
IntersectKind resolve_kernel(IntersectKind kind);

using Neighbors = std::span<const VertexId>;

// --- individual kernels -----------------------------------------------------

bool similar_merge_early_stop(Neighbors nu, Neighbors nv, std::uint32_t min_cn);
bool similar_pivot_scalar(Neighbors nu, Neighbors nv, std::uint32_t min_cn);
bool similar_pivot_avx2(Neighbors nu, Neighbors nv, std::uint32_t min_cn);
bool similar_pivot_avx512(Neighbors nu, Neighbors nv, std::uint32_t min_cn);
bool similar_gallop(Neighbors nu, Neighbors nv, std::uint32_t min_cn);

/// Function-pointer type of the kernels above.
using SimilarFn = bool (*)(Neighbors, Neighbors, std::uint32_t);

/// Returns the kernel function for `kind` (resolving Auto).
SimilarFn similar_fn(IntersectKind kind);

// --- exact counting (no early termination) ----------------------------------

/// |A ∩ B| by linear merge. Reference for tests and triangle counting.
std::uint64_t intersect_count_merge(Neighbors a, Neighbors b);

/// |A ∩ B| by galloping (binary-search) from the smaller side; the
/// related-work alternative the paper discusses and rejects for pSCAN.
std::uint64_t intersect_count_galloping(Neighbors a, Neighbors b);

/// |A ∩ B| with the pivot-skipping vector loop but no early termination —
/// the exhaustive SIMD intersection SCAN-XP runs on every edge.
std::uint64_t intersect_count_avx2(Neighbors a, Neighbors b);
std::uint64_t intersect_count_avx512(Neighbors a, Neighbors b);

/// |A ∩ B| by branchless block-merge (after Inoue et al., VLDB 2015 —
/// reference [12] of the paper): 4×4 all-pairs vector comparisons per
/// step, advancing whichever block ends first. The paper rejects this
/// family for pSCAN because it cannot early-terminate; it is provided as
/// the related-work point of the kernel study. Requires AVX2.
std::uint64_t intersect_count_blocked_simd(Neighbors a, Neighbors b);

using CountFn = std::uint64_t (*)(Neighbors, Neighbors);

/// Exact-count kernel for `kind`: scalar kinds map to the merge count,
/// vector kinds to their SIMD counts, Auto to the best supported.
CountFn count_fn(IntersectKind kind);

// --- marked-neighborhood kernels ------------------------------------------
//
// Every intersection on ppSCAN's and the GS*-Index build's hot paths is
// "u against one of u's neighbors v", with u fixed across a run of pairs.
// NeighborMarks holds N(u) as a bitmap of ⌈n/64⌉ words; re-marking costs
// O(d_u) and happens only when u changes, and a pair then costs one probe
// of each element of N(v): O(d_v), with no data-dependent merge branches.

/// One worker's marked neighbor list. Not thread-safe: one per worker.
class NeighborMarks {
 public:
  NeighborMarks() = default;
  explicit NeighborMarks(VertexId num_vertices)
      : words_(bytes_for(num_vertices) / sizeof(std::uint64_t), 0) {}

  /// Heap bytes of a NeighborMarks over `num_vertices` ids.
  static std::uint64_t bytes_for(VertexId num_vertices) {
    return (std::uint64_t{num_vertices} + 63) / 64 * sizeof(std::uint64_t);
  }

  /// Makes `nu` = N(u) the marked list, unmarking the previous one; a no-op
  /// when u is already marked. Callers pass the same list for the same u,
  /// and it must stay valid while marked (CSR neighbor lists do).
  void mark(VertexId u, Neighbors nu);

  /// Unmarks the current list, leaving the bitmap all zero.
  void clear();

  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }

 private:
  std::vector<std::uint64_t> words_;
  Neighbors marked_;
  VertexId owner_ = kInvalidVertex;
};

/// CompSim(u, v) with N(u) (of size du) marked in `marks`: every element of
/// nv is one bitmap probe. Keeps pSCAN's bounds — cn starts at 2 and counts
/// hits, dv = d_v + 2 counts down on each miss, du + 2 < min_cn fails up
/// front — and decides exactly what similar_merge_early_stop decides.
bool similar_marked_scalar(const std::uint64_t* marks, std::size_t du,
                           Neighbors nv, std::uint32_t min_cn);
/// 16 probes per step: a masked load of nv, an i32gather of the bitmap
/// words and a popcount of the hits. Requires AVX-512F.
bool similar_marked_avx512(const std::uint64_t* marks, std::size_t du,
                           Neighbors nv, std::uint32_t min_cn);

/// |N(u) ∩ nv| with N(u) marked in `marks`.
std::uint64_t count_marked_scalar(const std::uint64_t* marks, Neighbors nv);
std::uint64_t count_marked_avx512(const std::uint64_t* marks, Neighbors nv);

/// Auto's CompSim for a pair (u, v) of a run sharing u. Probes with the best
/// supported variant after marking N(u) in `marks`, except that a pair whose
/// nv is more than Auto's skew threshold times longer than nu gallops (the
/// probe would walk the long list). Marking costs O(d_u) once per run, no
/// more than the scan of u's arcs its caller makes anyway. Same decision
/// as every other kernel.
bool similar_marked(NeighborMarks& marks, VertexId u, Neighbors nu,
                    Neighbors nv, std::uint32_t min_cn);

/// Auto's exact count for a pair (u, v) of a run sharing u: |nu ∩ nv| by
/// probing nv after marking N(u) in `marks`.
std::uint64_t count_marked(NeighborMarks& marks, VertexId u, Neighbors nu,
                           Neighbors nv);

// --- shared pivot tail (exposed for the vector kernels and tests) -----------

namespace detail {

/// Continues a pivot intersection from (off_u, off_v) with live bounds; used
/// as the scalar tail once fewer than one vector width of elements remains.
bool pivot_scalar_tail(Neighbors nu, Neighbors nv, std::size_t off_u,
                       std::size_t off_v, std::uint32_t cn, std::uint64_t du,
                       std::uint64_t dv, std::uint32_t min_cn);

/// Scalar merge-count tail for the vector exact-count kernels.
std::uint64_t merge_count_tail(Neighbors a, Neighbors b, std::size_t i,
                               std::size_t j, std::uint64_t count);

}  // namespace detail

}  // namespace ppscan
