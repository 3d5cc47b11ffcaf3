// Paper Algorithm 6: pivot-based vectorized CompSim with AVX512, and the
// 16-lane marked-neighborhood probe.
//
// Per 16-lane step, the pivot (the current head of the other list) is
// broadcast and compared against 16 sorted elements; the popcount of the
// comparison mask is exactly the number of elements below the pivot (they
// form a prefix of the vector because the list is sorted), so the offset and
// the upper bound `du`/`dv` advance by bit_cnt in one instruction — fewer
// bound updates and no data-dependent branches inside the scan.
#include <immintrin.h>

#include <algorithm>
#include <bit>

#include "setops/intersect.hpp"

namespace ppscan {

namespace {
constexpr std::size_t kLanes = 16;

/// Probes nv[i, i + 16) — fewer at the tail — against the bitmap: a masked
/// load of the ids, a gather of the 32-bit bitmap words id >> 5 and a test
/// of bit id & 31. Returns the number of marked ids.
inline std::uint32_t probe16(const std::uint64_t* marks, Neighbors nv,
                             std::size_t i) {
  const std::size_t left = nv.size() - i;
  const auto live = static_cast<__mmask16>(
      left >= kLanes ? 0xFFFFu : (1u << left) - 1);
  // The maskz shift forms keep GCC 12's -Wmaybe-uninitialized quiet (the
  // unmasked ones expand through _mm512_undefined_epi32).
  const __m512i ids = _mm512_maskz_loadu_epi32(live, nv.data() + i);
  const __m512i words = _mm512_mask_i32gather_epi32(
      _mm512_setzero_si512(), live, _mm512_maskz_srli_epi32(live, ids, 5),
      marks, 4);
  const __m512i bits = _mm512_maskz_srlv_epi32(
      live, words, _mm512_and_si512(ids, _mm512_set1_epi32(31)));
  return static_cast<std::uint32_t>(std::popcount(static_cast<unsigned>(
      _mm512_test_epi32_mask(bits, _mm512_set1_epi32(1)))));
}

}  // namespace

bool similar_pivot_avx512(Neighbors nu, Neighbors nv, std::uint32_t min_cn) {
  std::uint32_t cn = 2;
  std::uint64_t du = nu.size() + 2;
  std::uint64_t dv = nv.size() + 2;
  if (cn >= min_cn) return true;
  if (du < min_cn || dv < min_cn) return false;

  std::size_t off_u = 0, off_v = 0;
  while (off_u + kLanes <= nu.size() && off_v + kLanes <= nv.size()) {
    // Step 1: find the first u-element >= pivot nv[off_v].
    while (off_u + kLanes <= nu.size()) {
      const __m512i pivot = _mm512_set1_epi32(static_cast<int>(nv[off_v]));
      const __m512i u_eles = _mm512_loadu_si512(
          reinterpret_cast<const void*>(nu.data() + off_u));
      const __mmask16 mask = _mm512_cmpgt_epi32_mask(pivot, u_eles);
      const auto bit_cnt = static_cast<std::uint32_t>(
          _mm_popcnt_u32(static_cast<unsigned>(mask)));
      off_u += bit_cnt;
      du -= bit_cnt;
      if (du < min_cn) return false;
      if (bit_cnt < kLanes) break;
    }
    if (off_u + kLanes > nu.size()) break;

    // Step 2: find the first v-element >= pivot nu[off_u].
    while (off_v + kLanes <= nv.size()) {
      const __m512i pivot = _mm512_set1_epi32(static_cast<int>(nu[off_u]));
      const __m512i v_eles = _mm512_loadu_si512(
          reinterpret_cast<const void*>(nv.data() + off_v));
      const __mmask16 mask = _mm512_cmpgt_epi32_mask(pivot, v_eles);
      const auto bit_cnt = static_cast<std::uint32_t>(
          _mm_popcnt_u32(static_cast<unsigned>(mask)));
      off_v += bit_cnt;
      dv -= bit_cnt;
      if (dv < min_cn) return false;
      if (bit_cnt < kLanes) break;
    }
    if (off_v + kLanes > nv.size()) break;

    // Step 3: both heads are >= each other's pivot; on equality it's a match.
    if (nu[off_u] == nv[off_v]) {
      if (++cn >= min_cn) return true;
      ++off_u;
      ++off_v;
    }
  }

  // Fewer than one vector width remains on a side: finish scalar.
  return detail::pivot_scalar_tail(nu, nv, off_u, off_v, cn, du, dv, min_cn);
}

std::uint64_t intersect_count_avx512(Neighbors a, Neighbors b) {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;
  while (i + kLanes <= a.size() && j + kLanes <= b.size()) {
    while (i + kLanes <= a.size()) {
      const __m512i pivot = _mm512_set1_epi32(static_cast<int>(b[j]));
      const __m512i eles =
          _mm512_loadu_si512(reinterpret_cast<const void*>(a.data() + i));
      const auto bit_cnt = static_cast<std::uint32_t>(_mm_popcnt_u32(
          static_cast<unsigned>(_mm512_cmpgt_epi32_mask(pivot, eles))));
      i += bit_cnt;
      if (bit_cnt < kLanes) break;
    }
    if (i + kLanes > a.size()) break;
    while (j + kLanes <= b.size()) {
      const __m512i pivot = _mm512_set1_epi32(static_cast<int>(a[i]));
      const __m512i eles =
          _mm512_loadu_si512(reinterpret_cast<const void*>(b.data() + j));
      const auto bit_cnt = static_cast<std::uint32_t>(_mm_popcnt_u32(
          static_cast<unsigned>(_mm512_cmpgt_epi32_mask(pivot, eles))));
      j += bit_cnt;
      if (bit_cnt < kLanes) break;
    }
    if (j + kLanes > b.size()) break;
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    }
  }
  return detail::merge_count_tail(a, b, i, j, count);
}

bool similar_marked_avx512(const std::uint64_t* marks, std::size_t du,
                           Neighbors nv, std::uint32_t min_cn) {
  std::uint32_t cn = 2;
  std::uint64_t dv = nv.size() + 2;
  if (cn >= min_cn) return true;
  if (du + 2 < min_cn || dv < min_cn) return false;
  for (std::size_t i = 0; i < nv.size(); i += kLanes) {
    const std::uint32_t hits = probe16(marks, nv, i);
    cn += hits;
    dv -= std::min(kLanes, nv.size() - i) - hits;
    if (cn >= min_cn) return true;
    if (dv < min_cn) return false;
  }
  return cn >= min_cn;
}

std::uint64_t count_marked_avx512(const std::uint64_t* marks, Neighbors nv) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < nv.size(); i += kLanes) {
    count += probe16(marks, nv, i);
  }
  return count;
}

}  // namespace ppscan
