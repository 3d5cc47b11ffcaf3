#include "setops/intersect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace ppscan {
namespace {

std::vector<VertexId> random_sorted_set(Rng& rng, std::size_t size,
                                        VertexId universe) {
  std::set<VertexId> s;
  while (s.size() < size) {
    s.insert(static_cast<VertexId>(rng.next_below(universe)));
  }
  return {s.begin(), s.end()};
}

/// Ground-truth decision: |A ∩ B| + 2 >= min_cn.
bool naive_similar(const std::vector<VertexId>& a,
                   const std::vector<VertexId>& b, std::uint32_t min_cn) {
  std::vector<VertexId> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return common.size() + 2 >= min_cn;
}

// ---------------------------------------------------------------------------
// Exact counting kernels.

TEST(IntersectCount, MergeOnKnownSets) {
  const std::vector<VertexId> a{1, 3, 5, 7, 9};
  const std::vector<VertexId> b{2, 3, 4, 7, 10};
  EXPECT_EQ(intersect_count_merge(a, b), 2u);
}

TEST(IntersectCount, MergeDisjointAndEmpty) {
  const std::vector<VertexId> a{1, 2, 3};
  const std::vector<VertexId> b{4, 5, 6};
  const std::vector<VertexId> empty;
  EXPECT_EQ(intersect_count_merge(a, b), 0u);
  EXPECT_EQ(intersect_count_merge(a, empty), 0u);
  EXPECT_EQ(intersect_count_merge(empty, empty), 0u);
}

TEST(IntersectCount, GallopingMatchesMergeRandomized) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = random_sorted_set(rng, 1 + rng.next_below(200), 1000);
    const auto b = random_sorted_set(rng, 1 + rng.next_below(200), 1000);
    EXPECT_EQ(intersect_count_galloping(a, b), intersect_count_merge(a, b));
  }
}

TEST(IntersectCount, GallopingOnHighlySkewedSizes) {
  Rng rng(19);
  const auto small = random_sorted_set(rng, 5, 100000);
  const auto large = random_sorted_set(rng, 5000, 100000);
  EXPECT_EQ(intersect_count_galloping(small, large),
            intersect_count_merge(small, large));
  EXPECT_EQ(intersect_count_galloping(large, small),
            intersect_count_merge(large, small));
}

TEST(IntersectCount, IdenticalSets) {
  Rng rng(23);
  const auto a = random_sorted_set(rng, 64, 1000);
  EXPECT_EQ(intersect_count_merge(a, a), a.size());
  EXPECT_EQ(intersect_count_galloping(a, a), a.size());
}

TEST(IntersectCountSimd, Avx2MatchesMergeRandomized) {
  if (!kernel_supported(IntersectKind::PivotAvx2)) {
    GTEST_SKIP() << "no AVX2";
  }
  Rng rng(71);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = random_sorted_set(rng, 1 + rng.next_below(400), 2000);
    const auto b = random_sorted_set(rng, 1 + rng.next_below(400), 2000);
    EXPECT_EQ(intersect_count_avx2(a, b), intersect_count_merge(a, b));
  }
}

TEST(IntersectCountSimd, Avx512MatchesMergeRandomized) {
  if (!kernel_supported(IntersectKind::PivotAvx512)) {
    GTEST_SKIP() << "no AVX512";
  }
  Rng rng(73);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = random_sorted_set(rng, 1 + rng.next_below(400), 2000);
    const auto b = random_sorted_set(rng, 1 + rng.next_below(400), 2000);
    EXPECT_EQ(intersect_count_avx512(a, b), intersect_count_merge(a, b));
  }
}

TEST(IntersectCountSimd, TinyAndEmptyInputs) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> tiny{3, 9};
  for (const auto kind :
       {IntersectKind::PivotAvx2, IntersectKind::PivotAvx512}) {
    if (!kernel_supported(kind)) continue;
    const auto fn = count_fn(kind);
    EXPECT_EQ(fn(empty, tiny), 0u);
    EXPECT_EQ(fn(tiny, tiny), 2u);
  }
}

TEST(IntersectCountSimd, DenseRunsAndFullOverlap) {
  std::vector<VertexId> a, b;
  for (VertexId i = 0; i < 100; ++i) a.push_back(2 * i);
  for (VertexId i = 0; i < 100; ++i) b.push_back(4 * i);
  for (const auto kind :
       {IntersectKind::PivotAvx2, IntersectKind::PivotAvx512}) {
    if (!kernel_supported(kind)) continue;
    const auto fn = count_fn(kind);
    EXPECT_EQ(fn(a, b), intersect_count_merge(a, b));
    EXPECT_EQ(fn(a, a), a.size());
  }
}

TEST(IntersectCountSimd, BlockedMergeMatchesMergeRandomized) {
  if (!kernel_supported(IntersectKind::PivotAvx2)) {
    GTEST_SKIP() << "no AVX2";
  }
  Rng rng(79);
  for (int trial = 0; trial < 400; ++trial) {
    const auto a = random_sorted_set(rng, 1 + rng.next_below(300), 1500);
    const auto b = random_sorted_set(rng, 1 + rng.next_below(300), 1500);
    EXPECT_EQ(intersect_count_blocked_simd(a, b),
              intersect_count_merge(a, b));
  }
}

TEST(IntersectCountSimd, BlockedMergeEdgeCases) {
  if (!kernel_supported(IntersectKind::PivotAvx2)) {
    GTEST_SKIP() << "no AVX2";
  }
  const std::vector<VertexId> empty;
  const std::vector<VertexId> tiny{1, 5, 9};
  const std::vector<VertexId> run{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(intersect_count_blocked_simd(empty, run), 0u);
  EXPECT_EQ(intersect_count_blocked_simd(tiny, run), 3u);
  EXPECT_EQ(intersect_count_blocked_simd(run, run), run.size());
}

TEST(IntersectDispatch, CountFnMapsScalarKindsToMerge) {
  EXPECT_EQ(count_fn(IntersectKind::MergeEarlyStop), &intersect_count_merge);
  EXPECT_EQ(count_fn(IntersectKind::PivotScalar), &intersect_count_merge);
}

// ---------------------------------------------------------------------------
// Similarity kernels — all must agree with the naive decision.

struct KernelCase {
  IntersectKind kind;
};

class SimilarKernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (!kernel_supported(GetParam().kind)) {
      GTEST_SKIP() << "kernel not supported on this CPU";
    }
    fn_ = similar_fn(GetParam().kind);
  }
  SimilarFn fn_ = nullptr;
};

TEST_P(SimilarKernelTest, TrivialThresholds) {
  const std::vector<VertexId> a{1, 2, 3};
  const std::vector<VertexId> b{4, 5, 6};
  // min_cn <= 2 is always satisfied by adjacency itself.
  EXPECT_TRUE(fn_(a, b, 0));
  EXPECT_TRUE(fn_(a, b, 2));
  // min_cn above min(|a|,|b|)+2 can never be reached.
  EXPECT_FALSE(fn_(a, b, 6));
}

TEST_P(SimilarKernelTest, EmptyNeighborLists) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> a{1, 2, 3};
  EXPECT_TRUE(fn_(empty, a, 2));
  EXPECT_FALSE(fn_(empty, a, 3));
  EXPECT_FALSE(fn_(empty, empty, 3));
}

TEST_P(SimilarKernelTest, ExactBoundaryDecision) {
  // |A ∩ B| = 3, so cn = 5: similar iff min_cn <= 5.
  const std::vector<VertexId> a{1, 2, 3, 10, 20};
  const std::vector<VertexId> b{2, 3, 10, 30, 40};
  EXPECT_TRUE(fn_(a, b, 5));
  EXPECT_FALSE(fn_(a, b, 6));
}

TEST_P(SimilarKernelTest, RandomizedAgainstNaive) {
  Rng rng(41 + static_cast<std::uint64_t>(GetParam().kind));
  for (int trial = 0; trial < 1500; ++trial) {
    const std::size_t size_a = 1 + rng.next_below(120);
    const std::size_t size_b = 1 + rng.next_below(120);
    // Universe size controls overlap density; sweep it.
    const VertexId universe = 10 + static_cast<VertexId>(rng.next_below(400));
    const auto a = random_sorted_set(
        rng, std::min<std::size_t>(size_a, universe), universe);
    const auto b = random_sorted_set(
        rng, std::min<std::size_t>(size_b, universe), universe);
    const auto min_cn =
        static_cast<std::uint32_t>(rng.next_below(a.size() + b.size() + 4));
    EXPECT_EQ(fn_(a, b, min_cn), naive_similar(a, b, min_cn))
        << "kind=" << to_string(GetParam().kind) << " |a|=" << a.size()
        << " |b|=" << b.size() << " min_cn=" << min_cn;
  }
}

TEST_P(SimilarKernelTest, LongListsExerciseVectorPath) {
  Rng rng(53);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = random_sorted_set(rng, 200 + rng.next_below(300), 4000);
    const auto b = random_sorted_set(rng, 200 + rng.next_below(300), 4000);
    for (const std::uint32_t min_cn : {3u, 10u, 50u, 150u, 400u}) {
      EXPECT_EQ(fn_(a, b, min_cn), naive_similar(a, b, min_cn));
    }
  }
}

TEST_P(SimilarKernelTest, SkewedSizesExerciseGallopingBehavior) {
  Rng rng(59);
  const auto small = random_sorted_set(rng, 10, 10000);
  const auto large = random_sorted_set(rng, 3000, 10000);
  for (const std::uint32_t min_cn : {3u, 5u, 8u, 12u}) {
    EXPECT_EQ(fn_(small, large, min_cn), naive_similar(small, large, min_cn));
    EXPECT_EQ(fn_(large, small, min_cn), naive_similar(large, small, min_cn));
  }
}

TEST_P(SimilarKernelTest, IdenticalListsAreMaximallySimilar) {
  Rng rng(61);
  const auto a = random_sorted_set(rng, 100, 1000);
  EXPECT_TRUE(fn_(a, a, static_cast<std::uint32_t>(a.size() + 2)));
  EXPECT_FALSE(fn_(a, a, static_cast<std::uint32_t>(a.size() + 3)));
}

TEST_P(SimilarKernelTest, ConsecutiveRunsExerciseFullVectorSkips) {
  // Dense consecutive ranges with a controlled overlap: the vector loop
  // takes whole-width skips (bit_cnt == lane count) repeatedly.
  std::vector<VertexId> a, b;
  for (VertexId i = 0; i < 200; ++i) a.push_back(i);
  for (VertexId i = 150; i < 350; ++i) b.push_back(i);
  // Overlap = 50 → cn = 52.
  EXPECT_TRUE(fn_(a, b, 52));
  EXPECT_FALSE(fn_(a, b, 53));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SimilarKernelTest,
    ::testing::Values(KernelCase{IntersectKind::MergeEarlyStop},
                      KernelCase{IntersectKind::PivotScalar},
                      KernelCase{IntersectKind::PivotAvx2},
                      KernelCase{IntersectKind::PivotAvx512},
                      KernelCase{IntersectKind::GallopEarlyStop}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return to_string(info.param.kind);
    });

// ---------------------------------------------------------------------------
// Dispatch.

TEST(IntersectDispatch, ParseRoundTrip) {
  for (const auto kind :
       {IntersectKind::MergeEarlyStop, IntersectKind::PivotScalar,
        IntersectKind::PivotAvx2, IntersectKind::PivotAvx512,
        IntersectKind::GallopEarlyStop, IntersectKind::Auto}) {
    EXPECT_EQ(parse_intersect_kind(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_intersect_kind("bogus"), std::invalid_argument);
}

TEST(IntersectDispatch, GallopCountFnAndAlwaysSupported) {
  EXPECT_TRUE(kernel_supported(IntersectKind::GallopEarlyStop));
  EXPECT_EQ(count_fn(IntersectKind::GallopEarlyStop),
            &intersect_count_galloping);
  EXPECT_EQ(similar_fn(IntersectKind::GallopEarlyStop), &similar_gallop);
}

TEST(IntersectDispatch, AutoAgreesWithNaiveOnSkewedPairs) {
  // Above the default skew threshold (64x) the Auto dispatcher takes the
  // galloping path; it must still decide identically to the ground truth.
  Rng rng(67);
  const auto fn = similar_fn(IntersectKind::Auto);
  for (int trial = 0; trial < 50; ++trial) {
    const auto small = random_sorted_set(rng, 1 + rng.next_below(6), 100000);
    const auto large = random_sorted_set(rng, 2000, 100000);
    for (const std::uint32_t min_cn : {2u, 3u, 5u, 9u}) {
      EXPECT_EQ(fn(small, large, min_cn), naive_similar(small, large, min_cn));
      EXPECT_EQ(fn(large, small, min_cn), naive_similar(large, small, min_cn));
    }
  }
}

TEST(IntersectDispatch, AutoResolvesToSupportedKernel) {
  const auto resolved = resolve_kernel(IntersectKind::Auto);
  EXPECT_NE(resolved, IntersectKind::Auto);
  EXPECT_TRUE(kernel_supported(resolved));
}

TEST(IntersectDispatch, ScalarKernelsAlwaysSupported) {
  EXPECT_TRUE(kernel_supported(IntersectKind::MergeEarlyStop));
  EXPECT_TRUE(kernel_supported(IntersectKind::PivotScalar));
}

TEST(IntersectDispatch, SimilarFnReturnsWorkingFunction) {
  const auto fn = similar_fn(IntersectKind::Auto);
  const std::vector<VertexId> a{1, 2, 3, 4};
  const std::vector<VertexId> b{2, 3, 4, 5};
  EXPECT_TRUE(fn(a, b, 5));   // cn = 3 + 2
  EXPECT_FALSE(fn(a, b, 6));
}

// ---------------------------------------------------------------------------
// Marked-neighborhood kernels: one bitmap probe per element of N(v).

/// A sorted set of `size` ids below `universe` that favors the ids where a
/// bitmap kernel can go wrong: word boundaries of both the 32-bit gather
/// words and the 64-bit bitmap words, and the last id universe − 1.
std::vector<VertexId> boundary_heavy_set(Rng& rng, std::size_t size,
                                         VertexId universe) {
  std::set<VertexId> s;
  while (s.size() < size) {
    if (rng.next_below(3) == 0) {
      const auto word = static_cast<VertexId>(rng.next_below(universe / 32));
      const VertexId edge[] = {32 * word, 32 * word + 31, universe - 1};
      s.insert(edge[rng.next_below(3)]);
    } else {
      s.insert(static_cast<VertexId>(rng.next_below(universe)));
    }
  }
  return {s.begin(), s.end()};
}

bool all_clear(const NeighborMarks& marks) {
  const auto words = marks.words();
  return std::all_of(words.begin(), words.end(),
                     [](std::uint64_t w) { return w == 0; });
}

using MarkedSimilar = bool (*)(const std::uint64_t*, std::size_t, Neighbors,
                               std::uint32_t);
using MarkedCount = std::uint64_t (*)(const std::uint64_t*, Neighbors);

/// Every nv length 0–70 (each tail length mod 16) against nu of length
/// 0–70 — independent, a subset of nv, or a superset of it, so both bounds
/// meet min_cn exactly — over universes that end mid-word and on a word
/// boundary; every min_cn in [0, min(du, dv) + 3].
void expect_marked_kernels_match(MarkedSimilar similar, MarkedCount count,
                                 std::uint64_t seed) {
  Rng rng(seed);
  for (const VertexId universe : {VertexId{160}, VertexId{1000},
                                  VertexId{4096}, VertexId{100003}}) {
    NeighborMarks marks(universe);
    // Marked lists must outlive their marking, as CSR lists do.
    std::vector<std::vector<VertexId>> lists;
    lists.reserve(71);
    for (std::size_t dv = 0; dv <= 70; ++dv) {
      const auto nv = boundary_heavy_set(rng, dv, universe);
      std::vector<VertexId> u_list =
          boundary_heavy_set(rng, rng.next_below(71), universe);
      if (dv % 3 == 1) {  // nu ⊆ nv
        u_list.clear();
        for (const VertexId w : nv) {
          if (rng.next_below(2) == 0) u_list.push_back(w);
        }
      } else if (dv % 3 == 2) {  // nv ⊆ nu
        std::set<VertexId> both(u_list.begin(), u_list.end());
        both.insert(nv.begin(), nv.end());
        u_list.assign(both.begin(), both.end());
      }
      const auto& nu = lists.emplace_back(std::move(u_list));
      marks.mark(static_cast<VertexId>(dv), nu);
      const std::uint64_t* bits = marks.words().data();
      ASSERT_EQ(count(bits, nv), intersect_count_merge(nu, nv))
          << "universe=" << universe << " du=" << nu.size() << " dv=" << dv;
      const std::size_t top = std::min(nu.size(), nv.size()) + 3;
      for (std::uint32_t min_cn = 0; min_cn <= top; ++min_cn) {
        ASSERT_EQ(similar(bits, nu.size(), nv, min_cn),
                  similar_merge_early_stop(nu, nv, min_cn))
            << "universe=" << universe << " du=" << nu.size()
            << " dv=" << dv << " min_cn=" << min_cn;
      }
    }
    marks.clear();
    EXPECT_TRUE(all_clear(marks)) << "universe=" << universe;
  }
}

TEST(MarkedKernels, ScalarMatchesMerge) {
  expect_marked_kernels_match(&similar_marked_scalar, &count_marked_scalar,
                              83);
}

TEST(MarkedKernels, Avx512MatchesMerge) {
  if (!kernel_supported(IntersectKind::PivotAvx512)) {
    GTEST_SKIP() << "no AVX512";
  }
  expect_marked_kernels_match(&similar_marked_avx512, &count_marked_avx512,
                              89);
}

TEST(MarkedKernels, RemarkingLeavesOnlyTheNewList) {
  Rng rng(97);
  const VertexId universe = 777;
  NeighborMarks marks(universe);
  EXPECT_TRUE(all_clear(marks));
  std::vector<std::vector<VertexId>> lists;
  lists.reserve(200);
  std::vector<VertexId> previous;
  const auto set_bits = [&] {
    std::vector<VertexId> bits;
    for (VertexId w = 0; w < universe; ++w) {
      if ((marks.words()[w >> 6] >> (w & 63)) & 1) bits.push_back(w);
    }
    return bits;
  };
  for (VertexId u = 0; u < 200; ++u) {
    const auto& nu = lists.emplace_back(
        boundary_heavy_set(rng, rng.next_below(90), universe));
    marks.mark(u, nu);
    ASSERT_EQ(set_bits(), nu) << "u=" << u;
    // Marking the held vertex again is a no-op, whatever list is passed.
    marks.mark(u, previous);
    ASSERT_EQ(set_bits(), nu) << "u=" << u;
    previous = nu;
  }
  marks.clear();
  EXPECT_TRUE(all_clear(marks));
}

TEST(MarkedKernels, DispatchersMatchMergeIncludingGallopedPairs) {
  // The dispatchers mark lazily and similar_marked gallops when N(v) is
  // far longer than N(u); every route must decide and count like the
  // merge, hubs on either side included.
  Rng rng(101);
  const VertexId universe = 50000;
  NeighborMarks marks(universe);
  std::vector<std::vector<VertexId>> lists;
  lists.reserve(120);
  for (VertexId u = 0; u < 120; ++u) {
    const bool hub = u % 3 == 0;
    const auto& nu = lists.emplace_back(
        random_sorted_set(rng, hub ? 3000 : 1 + rng.next_below(40), universe));
    for (int pair = 0; pair < 6; ++pair) {
      const bool big_v = pair % 3 == 2;
      const auto nv = random_sorted_set(
          rng, big_v ? 4000 : 1 + rng.next_below(40), universe);
      EXPECT_EQ(count_marked(marks, u, nu, nv), intersect_count_merge(nu, nv));
      for (const std::uint32_t min_cn : {0u, 3u, 4u, 6u, 9u, 30u}) {
        EXPECT_EQ(similar_marked(marks, u, nu, nv, min_cn),
                  similar_merge_early_stop(nu, nv, min_cn))
            << "u=" << u << " |nu|=" << nu.size() << " |nv|=" << nv.size()
            << " min_cn=" << min_cn;
      }
    }
  }
  marks.clear();
  EXPECT_TRUE(all_clear(marks));
}

TEST(MarkedKernels, BytesCoverEveryId) {
  EXPECT_EQ(NeighborMarks::bytes_for(0), 0u);
  EXPECT_EQ(NeighborMarks::bytes_for(1), 8u);
  EXPECT_EQ(NeighborMarks::bytes_for(64), 8u);
  EXPECT_EQ(NeighborMarks::bytes_for(65), 16u);
  EXPECT_EQ(NeighborMarks(440000).words().size(), 6875u);
}

}  // namespace
}  // namespace ppscan
