#include "setops/intersect.hpp"

namespace ppscan {
namespace {

/// 1 when `w` is marked, else 0.
inline std::uint32_t marked_bit(const std::uint64_t* marks, VertexId w) {
  return static_cast<std::uint32_t>((marks[w >> 6] >> (w & 63)) & 1);
}

}  // namespace

bool similar_merge_early_stop(Neighbors nu, Neighbors nv,
                              std::uint32_t min_cn) {
  std::uint32_t cn = 2;
  std::uint64_t du = nu.size() + 2;
  std::uint64_t dv = nv.size() + 2;
  if (cn >= min_cn) return true;
  if (du < min_cn || dv < min_cn) return false;

  std::size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] < nv[j]) {
      ++i;
      if (--du < min_cn) return false;
    } else if (nu[i] > nv[j]) {
      ++j;
      if (--dv < min_cn) return false;
    } else {
      ++i;
      ++j;
      if (++cn >= min_cn) return true;
    }
  }
  return cn >= min_cn;
}

namespace detail {

bool pivot_scalar_tail(Neighbors nu, Neighbors nv, std::size_t off_u,
                       std::size_t off_v, std::uint32_t cn, std::uint64_t du,
                       std::uint64_t dv, std::uint32_t min_cn) {
  while (off_u < nu.size() && off_v < nv.size()) {
    // Step 1: advance u past everything below the current v pivot.
    const VertexId pivot_v = nv[off_v];
    while (off_u < nu.size() && nu[off_u] < pivot_v) {
      ++off_u;
      if (--du < min_cn) return false;
    }
    if (off_u == nu.size()) break;
    // Step 2: advance v past everything below the (possibly new) u pivot.
    const VertexId pivot_u = nu[off_u];
    while (off_v < nv.size() && nv[off_v] < pivot_u) {
      ++off_v;
      if (--dv < min_cn) return false;
    }
    if (off_v == nv.size()) break;
    // Step 3: record a match.
    if (nu[off_u] == nv[off_v]) {
      if (++cn >= min_cn) return true;
      ++off_u;
      ++off_v;
    }
  }
  return cn >= min_cn;
}

std::uint64_t merge_count_tail(Neighbors a, Neighbors b, std::size_t i,
                               std::size_t j, std::uint64_t count) {
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace detail

bool similar_pivot_scalar(Neighbors nu, Neighbors nv, std::uint32_t min_cn) {
  const std::uint32_t cn = 2;
  const std::uint64_t du = nu.size() + 2;
  const std::uint64_t dv = nv.size() + 2;
  if (cn >= min_cn) return true;
  if (du < min_cn || dv < min_cn) return false;
  return detail::pivot_scalar_tail(nu, nv, 0, 0, cn, du, dv, min_cn);
}

std::uint64_t intersect_count_merge(Neighbors a, Neighbors b) {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

std::uint64_t intersect_count_galloping(Neighbors a, Neighbors b) {
  if (a.size() > b.size()) return intersect_count_galloping(b, a);
  std::uint64_t count = 0;
  std::size_t lo = 0;
  for (const VertexId x : a) {
    // Gallop: double the step until we overshoot x, then binary search the
    // bracketed range.
    std::size_t step = 1;
    std::size_t hi = lo;
    while (hi < b.size() && b[hi] < x) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    if (hi > b.size()) hi = b.size();
    // Binary search for x in b[lo, hi).
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (b[mid] < x) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < b.size() && b[lo] == x) {
      ++count;
      ++lo;
    }
    if (lo >= b.size()) break;
  }
  return count;
}

void NeighborMarks::mark(VertexId u, Neighbors nu) {
  if (owner_ == u) return;
  clear();
  for (const VertexId w : nu) words_[w >> 6] |= std::uint64_t{1} << (w & 63);
  marked_ = nu;
  owner_ = u;
}

void NeighborMarks::clear() {
  // Only the marked list's bits are set, so zeroing its words clears all.
  for (const VertexId w : marked_) words_[w >> 6] = 0;
  marked_ = {};
  owner_ = kInvalidVertex;
}

bool similar_marked_scalar(const std::uint64_t* marks, std::size_t du,
                           Neighbors nv, std::uint32_t min_cn) {
  std::uint32_t cn = 2;
  std::uint64_t dv = nv.size() + 2;
  if (cn >= min_cn) return true;
  if (du + 2 < min_cn || dv < min_cn) return false;
  for (const VertexId w : nv) {
    const std::uint32_t hit = marked_bit(marks, w);
    cn += hit;
    dv -= hit ^ 1;
    if (cn >= min_cn || dv < min_cn) break;
  }
  return cn >= min_cn;
}

std::uint64_t count_marked_scalar(const std::uint64_t* marks, Neighbors nv) {
  std::uint64_t count = 0;
  for (const VertexId w : nv) count += marked_bit(marks, w);
  return count;
}

}  // namespace ppscan
