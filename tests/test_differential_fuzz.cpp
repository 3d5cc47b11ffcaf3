// Differential fuzzing: random graphs × random (ε, µ) × every algorithm,
// every kernel, the GS*-Index (built on a random thread count, queried
// directly and through a QueryService), and permutation-equivariance — all
// checked against the brute-force oracle in one loop. Catches interaction
// bugs the per-module suites cannot (e.g. a kernel edge case that only
// appears with a particular pruning state). A second loop drives
// DynamicScan through random insert/delete streams on the same kind of
// graphs and parameters, checking it against the oracle after every batch.
#include <gtest/gtest.h>

#include <algorithm>

#include "bench_support/algorithms.hpp"
#include "core/ppscan.hpp"
#include "dynamic/dynamic_scan.hpp"
#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "scan/relabel.hpp"
#include "serve/query_service.hpp"
#include "support/reference_scan.hpp"
#include "util/rng.hpp"

namespace ppscan {
namespace {

CsrGraph random_graph(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: {
      const auto n = static_cast<VertexId>(20 + rng.next_below(150));
      const EdgeId max_m = static_cast<EdgeId>(n) * (n - 1) / 2;
      const EdgeId m = 1 + rng.next_below(std::min<EdgeId>(max_m, n * 6));
      return erdos_renyi(n, m, rng.next_u64());
    }
    case 1: {
      const auto m = static_cast<VertexId>(1 + rng.next_below(6));
      const auto n = static_cast<VertexId>(m + 2 + rng.next_below(150));
      return barabasi_albert(n, m, rng.next_u64());
    }
    case 2: {
      RmatParams p;
      p.scale = 6 + static_cast<int>(rng.next_below(3));
      p.edge_factor = 2 + static_cast<double>(rng.next_below(8));
      return rmat(p, rng.next_u64());
    }
    default: {
      LfrParams p;
      p.n = static_cast<VertexId>(60 + rng.next_below(200));
      p.avg_degree = 4 + static_cast<double>(rng.next_below(16));
      p.mixing = 0.05 + 0.4 * rng.next_double();
      p.min_community = 5;
      p.max_community = 50;
      return lfr_like(p, rng.next_u64());
    }
  }
}

ScanParams random_params(Rng& rng) {
  // Random rational ε in (0,1] with denominators that produce awkward
  // thresholds (ties, near-integers).
  const std::uint64_t den = 2 + rng.next_below(999);
  const std::uint64_t num = 1 + rng.next_below(den);
  ScanParams params;
  params.eps = {num, den};
  // µ in [0, 10]: 0 makes every vertex a core, and the small graphs'
  // maximum degree is often below 10.
  params.mu = static_cast<std::uint32_t>(rng.next_below(11));
  return params;
}

TEST(DifferentialFuzz, AllImplementationsAgreeWithTheOracle) {
  Rng rng(0xf0226d);
  constexpr int kRounds = 80;
  for (int round = 0; round < kRounds; ++round) {
    const auto graph = random_graph(rng);
    const auto params = random_params(rng);
    const auto expected = testing::reference_scan(graph, params);
    const std::string context =
        "round " + std::to_string(round) + " |V|=" +
        std::to_string(graph.num_vertices()) + " |E|=" +
        std::to_string(graph.num_edges()) + " eps=" +
        std::to_string(params.eps.num) + "/" + std::to_string(params.eps.den) +
        " mu=" + std::to_string(params.mu);

    AlgorithmConfig config;
    config.num_threads = 1 + static_cast<int>(rng.next_below(6));
    for (const auto& name : algorithm_names()) {
      const auto run = run_algorithm(name, graph, params, config);
      ASSERT_TRUE(results_equivalent(expected, run.result))
          << name << " @ " << context << ": "
          << describe_result_difference(expected, run.result);
    }

    // Every intersection kernel through ppSCAN.
    for (const auto kind :
         {IntersectKind::MergeEarlyStop, IntersectKind::PivotScalar,
          IntersectKind::PivotAvx2, IntersectKind::PivotAvx512}) {
      if (!kernel_supported(kind)) continue;
      PpScanOptions options;
      options.num_threads = config.num_threads;
      options.kernel = kind;
      options.use_reverse_index = (round % 2) == 0;
      const auto run = ppscan(graph, params, options);
      ASSERT_TRUE(results_equivalent(expected, run.result))
          << "ppSCAN/" << to_string(kind) << " @ " << context;
    }

    // Index queries, direct and served.
    GsIndex::BuildOptions build;
    build.num_threads = 1 + static_cast<int>(rng.next_below(4));
    const GsIndex index(graph, build);
    ASSERT_TRUE(results_equivalent(expected, index.query(params).result))
        << "GsIndex (" << build.num_threads << " build threads) @ "
        << context;
    serve::ServiceOptions serving;
    serving.num_threads = 1 + static_cast<int>(rng.next_below(4));
    serving.cache_results = false;
    serve::QueryService service(index, serving);
    const serve::QueryResponse response = service.submit(params).get();
    ASSERT_NE(response.run, nullptr) << "QueryService @ " << context;
    ASSERT_TRUE(results_equivalent(expected, response.run->result))
        << "QueryService (" << serving.num_threads << " workers) @ "
        << context;

    // Permutation equivariance through a random relabeling.
    std::vector<VertexId> perm(graph.num_vertices());
    for (VertexId i = 0; i < graph.num_vertices(); ++i) perm[i] = i;
    for (VertexId i = graph.num_vertices(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }
    const auto relabeling = make_relabeling(std::move(perm));
    const auto relabeled_run =
        ppscan(apply_relabeling(graph, relabeling), params);
    const auto mapped =
        map_result_to_original(relabeled_run.result, relabeling);
    ASSERT_TRUE(results_equivalent(expected, mapped))
        << "relabeled ppSCAN @ " << context;
  }
}

TEST(DifferentialFuzz, DynamicScanTracksTheOracleUnderUpdateStreams) {
  Rng rng(0xd1a5ca);
  constexpr int kRounds = 120;
  constexpr int kBatches = 6;
  for (int round = 0; round < kRounds; ++round) {
    const auto graph = random_graph(rng);
    auto params = random_params(rng);
    // Pin the µ extremes on a fixed cadence: µ = 0 (every vertex is a
    // core, including isolated ones) and µ above the maximum degree (no
    // vertex starts as a core; insertions may promote some).
    VertexId max_degree = 0;
    for (VertexId u = 0; u < graph.num_vertices(); ++u) {
      max_degree = std::max(max_degree, graph.degree(u));
    }
    if (round % 4 == 1) params.mu = 0;
    if (round % 4 == 2) {
      params.mu =
          max_degree + 1 + static_cast<std::uint32_t>(rng.next_below(3));
    }
    DynamicScan dynamic(graph, params);
    for (int batch = 0; batch < kBatches; ++batch) {
      const std::uint64_t updates = 1 + rng.next_below(24);
      for (std::uint64_t i = 0; i < updates; ++i) {
        const VertexId n = dynamic.num_vertices();
        const VertexId u = static_cast<VertexId>(rng.next_below(n));
        if (rng.next_below(2) == 0 && dynamic.degree(u) > 0) {
          const VertexId v = dynamic.neighbor_at(
              u, static_cast<VertexId>(rng.next_below(dynamic.degree(u))));
          ASSERT_TRUE(dynamic.remove_edge(u, v));
        } else {
          // Now and then an endpoint one past the vertex range, which
          // grows the vertex set.
          const VertexId v =
              static_cast<VertexId>(rng.next_below(n + (i % 8 == 0 ? 1 : 0)));
          dynamic.insert_edge(u, v);  // false on a self loop or duplicate
        }
      }
      const auto current = dynamic.snapshot();
      const auto expected = testing::reference_scan(current, params);
      ASSERT_TRUE(results_equivalent(expected, dynamic.result()))
          << "round " << round << " batch " << batch
          << " |V|=" << current.num_vertices()
          << " |E|=" << current.num_edges() << " eps=" << params.eps.num
          << "/" << params.eps.den << " mu=" << params.mu << ": "
          << describe_result_difference(expected, dynamic.result());
    }
  }
}

}  // namespace
}  // namespace ppscan
