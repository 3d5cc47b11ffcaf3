// Kernel micro-benchmarks (google-benchmark): the §6.2 set-intersection
// study at the level of individual kernels, outside any graph algorithm.
//
// Sweeps list length and overlap density for every similarity kernel plus
// the exact-count baselines, so per-call costs and the crossover between
// merge and pivot strategies are directly visible. The marked_* rows are
// the probe Auto runs in ppSCAN and the GS*-Index build: N(u) is marked in
// a bitmap once (outside the timed loop, as a run of pairs sharing u
// amortizes it) and each pair probes N(v) against it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "setops/intersect.hpp"
#include "setops/similarity.hpp"
#include "util/rng.hpp"

namespace {

using ppscan::IntersectKind;
using ppscan::VertexId;

/// Builds two sorted lists of `size` elements whose expected overlap
/// fraction is controlled by the shared-universe density.
std::pair<std::vector<VertexId>, std::vector<VertexId>> make_lists(
    std::size_t size, double overlap, std::uint64_t seed) {
  ppscan::Rng rng(seed);
  const auto universe =
      static_cast<VertexId>(static_cast<double>(size) / std::max(0.01, overlap));
  std::vector<VertexId> a, b;
  a.reserve(size);
  b.reserve(size);
  // Sample strictly increasing sequences via gap sampling.
  VertexId xa = 0, xb = 0;
  for (std::size_t i = 0; i < size; ++i) {
    xa += 1 + static_cast<VertexId>(rng.next_below(
              std::max<std::uint64_t>(1, universe / size)));
    xb += 1 + static_cast<VertexId>(rng.next_below(
              std::max<std::uint64_t>(1, universe / size)));
    a.push_back(xa);
    b.push_back(xb);
  }
  return {std::move(a), std::move(b)};
}

void bench_similar_kernel(benchmark::State& state, IntersectKind kind) {
  if (!ppscan::kernel_supported(kind)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const auto fn = ppscan::similar_fn(kind);
  const auto size = static_cast<std::size_t>(state.range(0));
  const double overlap = static_cast<double>(state.range(1)) / 100.0;
  const auto [a, b] = make_lists(size, overlap, 1234);
  // Threshold in the undecided middle so kernels do real work.
  const auto min_cn = static_cast<std::uint32_t>(size / 4 + 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(a, b, min_cn));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * size));
}

using MarkedSimilar = bool (*)(const std::uint64_t*, std::size_t,
                               ppscan::Neighbors, std::uint32_t);
using MarkedCount = std::uint64_t (*)(const std::uint64_t*, ppscan::Neighbors);

struct MarkedProbe {
  const char* name;
  MarkedSimilar similar;
  MarkedCount count;
  bool needs_avx512;
};

const MarkedProbe kMarkedProbes[] = {
    {"marked_scalar", &ppscan::similar_marked_scalar,
     &ppscan::count_marked_scalar, false},
    {"marked_avx512", &ppscan::similar_marked_avx512,
     &ppscan::count_marked_avx512, true},
};

bool probe_supported(const MarkedProbe& probe) {
  return !probe.needs_avx512 ||
         ppscan::kernel_supported(IntersectKind::PivotAvx512);
}

/// Marks `a` in a bitmap over [0, max id] — the run-of-pairs state the
/// marked probes read.
ppscan::NeighborMarks marks_of(const std::vector<VertexId>& a,
                               const std::vector<VertexId>& b) {
  const VertexId top = std::max(a.empty() ? 0 : a.back(),
                                b.empty() ? 0 : b.back());
  ppscan::NeighborMarks marks(top + 1);
  marks.mark(0, a);
  return marks;
}

void bench_similar_marked(benchmark::State& state, const MarkedProbe& probe) {
  if (!probe_supported(probe)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const auto size = static_cast<std::size_t>(state.range(0));
  const double overlap = static_cast<double>(state.range(1)) / 100.0;
  const auto [a, b] = make_lists(size, overlap, 1234);
  const auto marks = marks_of(a, b);
  const auto min_cn = static_cast<std::uint32_t>(size / 4 + 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe.similar(marks.words().data(), a.size(), b, min_cn));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * size));
}

void register_kernels() {
  static const struct {
    const char* name;
    IntersectKind kind;
  } kKernels[] = {
      {"merge_early_stop", IntersectKind::MergeEarlyStop},
      {"pivot_scalar", IntersectKind::PivotScalar},
      {"pivot_avx2", IntersectKind::PivotAvx2},
      {"pivot_avx512", IntersectKind::PivotAvx512},
  };
  for (const auto& k : kKernels) {
    const std::string name = std::string("similar/") + k.name;
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(), [kind = k.kind](benchmark::State& state) {
          bench_similar_kernel(state, kind);
        });
    for (const std::int64_t size : {32, 64, 512, 4096}) {
      for (const std::int64_t overlap_pct : {10, 50, 90}) {
        bench->Args({size, overlap_pct});
      }
    }
  }
  for (const auto& probe : kMarkedProbes) {
    const std::string name = std::string("similar/") + probe.name;
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(), [&probe](benchmark::State& state) {
          bench_similar_marked(state, probe);
        });
    for (const std::int64_t size : {32, 64, 512, 4096}) {
      for (const std::int64_t overlap_pct : {10, 50, 90}) {
        bench->Args({size, overlap_pct});
      }
    }
  }
}

/// Skewed-size pairs: a short list almost entirely contained in a long
/// dense list — the hub-versus-member case hub-heavy graphs produce, and
/// where the pivot vector kernels shine (each short-side pivot lets the
/// long side advance a full vector width per load). The threshold is only
/// decidable at the very end, so no kernel can exit early and the full
/// scan cost is what gets measured. Args: {short size, long size}.
std::pair<std::vector<VertexId>, std::vector<VertexId>> make_skewed_lists(
    std::size_t small, std::size_t large) {
  ppscan::Rng rng(4242);
  // Long list: dense ascending ids with small random gaps.
  std::vector<VertexId> b;
  b.reserve(large);
  VertexId x = 0;
  for (std::size_t i = 0; i < large; ++i) {
    x += 1 + static_cast<VertexId>(rng.next_below(2));
    b.push_back(x);
  }
  // Short list: a uniform sample of the long one, plus two non-members so
  // the decision stays open until both have been passed.
  std::vector<VertexId> a;
  a.reserve(small);
  for (std::size_t i = 0; i + 2 < small; ++i) {
    a.push_back(b[(i * large) / (small - 2)]);
  }
  a.push_back(b.back() + 5);
  a.push_back(b.back() + 9);
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return {std::move(a), std::move(b)};
}

void bench_similar_skewed(benchmark::State& state, IntersectKind kind) {
  if (!ppscan::kernel_supported(kind)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const auto fn = ppscan::similar_fn(kind);
  const auto small = static_cast<std::size_t>(state.range(0));
  const auto large = static_cast<std::size_t>(state.range(1));
  const auto [a, b] = make_skewed_lists(small, large);
  // cn tops out at 2 + (|a| - 2) = |a|: reachable only at the very end.
  const auto min_cn = static_cast<std::uint32_t>(a.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(a, b, min_cn));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(small + large));
}

/// The marked probe on the skewed pairs, both ways round: "short_marked"
/// marks the short list and probes the long one (the case Auto hands to
/// galloping instead), "long_marked" marks the long one and probes the
/// short one. Args: {short size, long size}.
void bench_similar_skewed_marked(benchmark::State& state,
                                 const MarkedProbe& probe, bool long_marked) {
  if (!probe_supported(probe)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const auto small = static_cast<std::size_t>(state.range(0));
  const auto large = static_cast<std::size_t>(state.range(1));
  const auto [a, b] = make_skewed_lists(small, large);
  const auto& marked = long_marked ? b : a;
  const auto& probed = long_marked ? a : b;
  const auto marks = marks_of(marked, probed);
  const auto min_cn = static_cast<std::uint32_t>(a.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe.similar(marks.words().data(), marked.size(), probed, min_cn));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probed.size()));
}

void register_skewed_kernels() {
  static const struct {
    const char* name;
    IntersectKind kind;
  } kKernels[] = {
      {"merge_early_stop", IntersectKind::MergeEarlyStop},
      {"pivot_scalar", IntersectKind::PivotScalar},
      {"pivot_avx2", IntersectKind::PivotAvx2},
      {"pivot_avx512", IntersectKind::PivotAvx512},
  };
  for (const auto& k : kKernels) {
    const std::string name = std::string("similar_skewed/") + k.name;
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(), [kind = k.kind](benchmark::State& state) {
          bench_similar_skewed(state, kind);
        });
    bench->Args({64, 4096})->Args({64, 65536})->Args({1024, 16384});
  }
  for (const auto& probe : kMarkedProbes) {
    for (const bool long_marked : {false, true}) {
      const std::string name = std::string("similar_skewed/") + probe.name +
                               (long_marked ? "/long_marked" : "/short_marked");
      auto* bench = benchmark::RegisterBenchmark(
          name.c_str(), [&probe, long_marked](benchmark::State& state) {
            bench_similar_skewed_marked(state, probe, long_marked);
          });
      bench->Args({64, 4096})->Args({64, 65536})->Args({1024, 16384});
    }
  }
}

void BM_count_merge(benchmark::State& state) {
  const auto [a, b] =
      make_lists(static_cast<std::size_t>(state.range(0)), 0.5, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppscan::intersect_count_merge(a, b));
  }
}
BENCHMARK(BM_count_merge)->Arg(32)->Arg(64)->Arg(512)->Arg(4096);

void BM_count_avx512(benchmark::State& state) {
  if (!ppscan::kernel_supported(ppscan::IntersectKind::PivotAvx512)) {
    state.SkipWithError("no AVX512");
    return;
  }
  const auto [a, b] =
      make_lists(static_cast<std::size_t>(state.range(0)), 0.5, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppscan::intersect_count_avx512(a, b));
  }
}
BENCHMARK(BM_count_avx512)->Arg(32)->Arg(64)->Arg(512)->Arg(4096);

/// Exact counts by marked probe — the GS*-Index build's Auto count.
void bench_count_marked(benchmark::State& state, const MarkedProbe& probe) {
  if (!probe_supported(probe)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const auto [a, b] =
      make_lists(static_cast<std::size_t>(state.range(0)), 0.5, 99);
  const auto marks = marks_of(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe.count(marks.words().data(), b));
  }
}

void register_marked_counts() {
  for (const auto& probe : kMarkedProbes) {
    const std::string name = std::string("count/") + probe.name;
    benchmark::RegisterBenchmark(name.c_str(),
                                 [&probe](benchmark::State& state) {
                                   bench_count_marked(state, probe);
                                 })
        ->Arg(32)
        ->Arg(64)
        ->Arg(512)
        ->Arg(4096);
  }
}

void BM_count_blocked_simd(benchmark::State& state) {
  if (!ppscan::kernel_supported(ppscan::IntersectKind::PivotAvx2)) {
    state.SkipWithError("no AVX2");
    return;
  }
  const auto [a, b] =
      make_lists(static_cast<std::size_t>(state.range(0)), 0.5, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppscan::intersect_count_blocked_simd(a, b));
  }
}
BENCHMARK(BM_count_blocked_simd)->Arg(64)->Arg(512)->Arg(4096);

void BM_count_galloping(benchmark::State& state) {
  // Skewed sizes: galloping's favorable regime.
  const auto [a, _unused] =
      make_lists(static_cast<std::size_t>(state.range(0)), 0.5, 7);
  const auto [b, _unused2] = make_lists(32, 0.5, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppscan::intersect_count_galloping(b, a));
  }
}
BENCHMARK(BM_count_galloping)->Arg(512)->Arg(4096)->Arg(32768);

void BM_min_common_neighbors(benchmark::State& state) {
  const auto eps = ppscan::EpsRational::parse("0.37");
  ppscan::Rng rng(5);
  std::vector<std::pair<VertexId, VertexId>> degrees;
  for (int i = 0; i < 1024; ++i) {
    degrees.emplace_back(static_cast<VertexId>(rng.next_below(10000)),
                         static_cast<VertexId>(rng.next_below(10000)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [du, dv] = degrees[i++ & 1023];
    benchmark::DoNotOptimize(ppscan::min_common_neighbors(eps, du, dv));
  }
}
BENCHMARK(BM_min_common_neighbors);

}  // namespace

int main(int argc, char** argv) {
  register_kernels();
  register_skewed_kernels();
  register_marked_counts();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
