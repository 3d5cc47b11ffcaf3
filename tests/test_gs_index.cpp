#include "index/gs_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/ppscan.hpp"
#include "graph/fixtures.hpp"
#include "graph/generators.hpp"
#include "graph/graph_builder.hpp"
#include "support/random_graphs.hpp"
#include "support/reference_scan.hpp"

namespace ppscan {
namespace {

using testing::property_test_graphs;
using testing::reference_scan;

TEST(GsIndex, QueryMatchesReferenceAcrossTheGrid) {
  for (const auto& g : property_test_graphs(6001, 2)) {
    const GsIndex index(g);
    for (const auto& params : testing::parameter_grid()) {
      const auto expected = reference_scan(g, params);
      const auto run = index.query(params);
      EXPECT_TRUE(results_equivalent(expected, run.result))
          << "eps=" << params.eps.to_double() << " mu=" << params.mu << ": "
          << describe_result_difference(expected, run.result);
    }
  }
}

TEST(GsIndex, ParallelConstructionMatchesSequential) {
  // Large enough that the low-µ core orders take the radix-sort path, and
  // the parallel build sorts them on different workers.
  LfrParams p;
  p.n = 3000;
  p.avg_degree = 12;
  const auto g = lfr_like(p, 19);
  GsIndex::BuildOptions sequential;
  GsIndex::BuildOptions parallel;
  parallel.num_threads = 4;
  const GsIndex a(g, sequential);
  const GsIndex b(g, parallel);
  for (const auto& params : testing::parameter_grid()) {
    const auto ra = a.query(params);
    const auto rb = b.query(params);
    EXPECT_TRUE(results_equivalent(ra.result, rb.result))
        << "eps=" << params.eps.to_double() << " mu=" << params.mu << ": "
        << describe_result_difference(ra.result, rb.result);
    EXPECT_EQ(ra.stats.counters.arcs_touched, rb.stats.counters.arcs_touched);
  }
}

TEST(GsIndex, CoreOrdersStayExactAroundAHighDegreeHub) {
  // A hub of degree ~1000 is too wide for the sort keys to separate every
  // pair of distinct σ on their own, so the build re-checks runs of equal
  // keys with the exact comparator; answers must not change.
  const VertexId n = 2500;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v <= 1000; ++v) edges.emplace_back(0, v);
  const auto er = erdos_renyi(n, 10000, 73);
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : er.neighbors(u)) {
      if (u < v && u != 0) edges.emplace_back(u, v);
    }
  }
  const auto g = GraphBuilder::from_edges(edges, n);
  GsIndex::BuildOptions options;
  options.num_threads = 2;
  const GsIndex index(g, options);
  for (const auto& params : testing::parameter_grid()) {
    const auto run = index.query(params);
    const auto online = ppscan(g, params);
    EXPECT_TRUE(results_equivalent(online.result, run.result))
        << "eps=" << params.eps.to_double() << " mu=" << params.mu << ": "
        << describe_result_difference(online.result, run.result);
  }
}

TEST(GsIndex, MuZeroMakesEveryVertexACore) {
  // The core test's µ − 1 slot arithmetic must not reach µ = 0: every
  // vertex, isolated ones included, has at least zero ε-similar neighbors.
  const auto g = erdos_renyi(200, 500, 59);
  const GsIndex index(g);
  for (const char* eps : {"0.2", "0.5", "0.9", "1"}) {
    const auto params = ScanParams::make(eps, 0);
    const auto run = index.query(params);
    const auto online = ppscan(g, params);
    EXPECT_TRUE(results_equivalent(online.result, run.result))
        << "eps=" << eps << ": "
        << describe_result_difference(online.result, run.result);
    EXPECT_EQ(run.result.num_cores(), g.num_vertices());
  }
}

TEST(GsIndex, MuAboveTheMaximumDegreeHasNoCores) {
  const auto g = make_clique(6);
  const GsIndex index(g);
  for (const std::uint32_t mu : {5u, 6u, 7u, 1000u}) {
    const auto params = ScanParams::make("0.5", mu);
    const auto run = index.query(params);
    EXPECT_TRUE(results_equivalent(reference_scan(g, params), run.result))
        << "mu=" << mu;
    EXPECT_EQ(run.result.num_cores(), mu <= 5 ? 6u : 0u) << "mu=" << mu;
  }
}

TEST(GsIndex, CoreTestHoldsAtAnExactBoundaryTie) {
  // ε equal to the exact σ of a vertex's µ-th most similar neighbor makes
  // cn²·den² == num²·P: the vertex is a core (σ ≥ ε) and must land
  // inside the core-order prefix. σ is rational where P = (d_u+1)(d_v+1)
  // is a perfect square; pick such entries for several µ.
  LfrParams p;
  p.n = 1500;
  p.avg_degree = 12;
  const auto g = lfr_like(p, 71);
  const GsIndex index(g);
  using U128 = unsigned __int128;
  for (const std::uint32_t mu : {1u, 2u, 3u, 5u, 8u}) {
    int ties = 0;
    for (VertexId u = 0; u < g.num_vertices() && ties < 3; ++u) {
      if (g.degree(u) < mu) continue;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> sims;  // (cn, P)
      for (const VertexId v : g.neighbors(u)) {
        sims.emplace_back(
            intersect_count_merge(g.neighbors(u), g.neighbors(v)) + 2,
            (std::uint64_t{g.degree(u)} + 1) * (g.degree(v) + 1));
      }
      std::sort(sims.begin(), sims.end(), [](const auto& a, const auto& b) {
        return U128(a.first) * a.first * b.second >
               U128(b.first) * b.first * a.second;
      });
      const auto [cn, pk] = sims[mu - 1];
      auto root = static_cast<std::uint64_t>(std::sqrt(double(pk)));
      while (root * root > pk) --root;
      while ((root + 1) * (root + 1) <= pk) ++root;
      if (root * root != pk) continue;
      ++ties;
      ScanParams params;
      params.eps = {cn, root};
      params.mu = mu;
      const auto run = index.query(params);
      EXPECT_EQ(run.result.roles[u], Role::Core) << "u=" << u << " mu=" << mu;
      const auto online = ppscan(g, params);
      EXPECT_TRUE(results_equivalent(online.result, run.result))
          << "u=" << u << " eps=" << cn << "/" << root << " mu=" << mu
          << ": " << describe_result_difference(online.result, run.result);
    }
    EXPECT_GT(ties, 0) << "no rational tie found for mu=" << mu;
  }
}

TEST(GsIndex, CountKernelChoiceDoesNotChangeTheIndex) {
  const auto g = erdos_renyi(300, 2500, 23);
  for (const auto kind : {IntersectKind::MergeEarlyStop,
                          IntersectKind::PivotAvx2,
                          IntersectKind::PivotAvx512}) {
    if (!kernel_supported(kind)) continue;
    GsIndex::BuildOptions options;
    options.count_kernel = kind;
    const GsIndex index(g, options);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (EdgeId e = g.offset_begin(u); e < g.offset_end(u); ++e) {
        const VertexId v = g.dst()[e];
        const auto expected = static_cast<std::uint32_t>(
            intersect_count_merge(g.neighbors(u), g.neighbors(v)) + 2);
        ASSERT_EQ(index.arc_overlap(e), expected)
            << to_string(kind) << " arc (" << u << "," << v << ")";
      }
    }
  }
}

TEST(GsIndex, ConstructionDoesOneIntersectionPerEdge) {
  const auto g = erdos_renyi(200, 1200, 29);
  const GsIndex index(g);
  EXPECT_EQ(index.build_stats().intersections, g.num_edges());
  EXPECT_GT(index.build_stats().construction_seconds, 0.0);
}

TEST(GsIndex, MemoryFootprintIsPerArc) {
  const auto g = erdos_renyi(100, 600, 31);
  const GsIndex index(g);
  // Per arc slot: overlap (u32) + neighbor-order dst (u32), cn (u32) and
  // neighbor degree (u32) + one core-order entry (u32, Σ_µ |{d_u ≥ µ}| =
  // |arcs|); plus one core-order offset per µ = 0…max degree. The sort-time
  // scratch is transient.
  VertexId max_degree = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    max_degree = std::max(max_degree, g.degree(u));
  }
  EXPECT_EQ(index.memory_bytes(),
            g.num_arcs() * (sizeof(std::uint32_t) + sizeof(VertexId) +
                            sizeof(std::uint32_t) + sizeof(std::uint32_t) +
                            sizeof(VertexId)) +
                (std::uint64_t{max_degree} + 1) * sizeof(EdgeId));
}

TEST(GsIndex, QueryCountsThePruningFunnel) {
  // Index queries answer every similarity from the stored neighbor order,
  // so the funnel must balance as pure reuse: nothing pruned, nothing
  // computed, and the invariant pruned + computed + reused == touched must
  // hold non-vacuously (it used to be all zeros).
  const auto g = erdos_renyi(300, 2400, 37);
  const GsIndex index(g);
  for (const auto& params : testing::parameter_grid()) {
    const auto run = index.query(params);
    const auto& c = run.stats.counters;
    EXPECT_EQ(c.arcs_predicate_pruned + c.sims_computed + c.sims_reused,
              c.arcs_touched)
        << "eps=" << params.eps.to_double() << " mu=" << params.mu;
    EXPECT_EQ(c.sims_computed, 0u);
    EXPECT_EQ(c.arcs_predicate_pruned, 0u);
    // The core test's binary search probes the µ core order at least once
    // whenever some vertex has degree >= mu.
    EXPECT_GT(c.arcs_touched, 0u);
    if (run.result.num_cores() > 0) {
      EXPECT_GT(c.uf_finds, 0u);
      EXPECT_EQ(c.uf_finds, 2 * run.result.num_cores());
    }
  }
}

TEST(GsIndex, PooledScratchReturnsIdenticalAnswers) {
  // serve::QueryService reuses one QueryScratch per worker across many
  // queries; reuse must never leak state between (ε, µ) combinations.
  const auto g = erdos_renyi(250, 1800, 41);
  const GsIndex index(g);
  GsIndex::QueryScratch scratch;
  for (const auto& params : testing::parameter_grid()) {
    const auto pooled = index.query(params, scratch, nullptr);
    const auto fresh = index.query(params);
    EXPECT_TRUE(results_equivalent(fresh.result, pooled.result))
        << describe_result_difference(fresh.result, pooled.result);
    EXPECT_EQ(fresh.stats.counters.arcs_touched,
              pooled.stats.counters.arcs_touched);
  }
}

TEST(GsIndex, GovernedQueryReturnsClassifiedPartial) {
  const auto g = erdos_renyi(300, 2400, 43);
  const GsIndex index(g);
  const auto params = ScanParams::make("0.4", 3);
  GsIndex::QueryScratch scratch;

  // Trip on entry to phase 2 (QCoreCluster): every role is decided, no
  // cluster ids were assigned yet.
  {
    RunLimits limits;
    limits.cancel_at_phase = 2;
    RunGovernor governor(limits, nullptr);
    const auto run = index.query(params, scratch, &governor);
    EXPECT_TRUE(run.partial());
    EXPECT_EQ(run.stats.abort_reason, AbortReason::UserCancelled);
    EXPECT_EQ(run.stats.abort_phase, "QCoreCluster");
    EXPECT_EQ(run.stats.phases_completed, 1u);
    for (const auto role : run.result.roles) {
      EXPECT_NE(role, Role::Unknown);
    }
    for (const auto cid : run.result.core_cluster_id) {
      EXPECT_EQ(cid, kInvalidVertex);
    }
    EXPECT_TRUE(run.result.noncore_memberships.empty());
  }

  // Trip on entry to phase 1: nothing was decided at all.
  {
    RunLimits limits;
    limits.cancel_at_phase = 1;
    RunGovernor governor(limits, nullptr);
    const auto run = index.query(params, scratch, &governor);
    EXPECT_TRUE(run.partial());
    EXPECT_EQ(run.stats.abort_phase, "QCoreTest");
    for (const auto role : run.result.roles) {
      EXPECT_EQ(role, Role::Unknown);
    }
  }

  // The scratch is still good for a full query afterwards.
  const auto full = index.query(params, scratch, nullptr);
  EXPECT_FALSE(full.partial());
  EXPECT_TRUE(results_equivalent(full.result, index.query(params).result));
}

TEST(GsIndex, ManyQueriesAgainstPpScan) {
  // The index's reason to exist: repeated (ε, µ) queries. Each must agree
  // with a fresh ppSCAN run.
  LfrParams p;
  p.n = 800;
  p.avg_degree = 14;
  const auto g = lfr_like(p, 67);
  GsIndex::BuildOptions options;
  options.num_threads = 2;
  const GsIndex index(g, options);
  for (const char* eps : {"0.25", "0.45", "0.65", "0.85"}) {
    for (const std::uint32_t mu : {2u, 5u, 8u}) {
      const auto params = ScanParams::make(eps, mu);
      const auto from_index = index.query(params);
      const auto online = ppscan(g, params);
      EXPECT_TRUE(
          results_equivalent(from_index.result, online.result))
          << "eps=" << eps << " mu=" << mu;
    }
  }
}

TEST(GsIndex, CliqueAndPathEdgeCases) {
  const auto clique = make_clique(6);
  const GsIndex clique_index(clique);
  const auto run = clique_index.query(ScanParams::make("0.5", 2));
  EXPECT_EQ(run.result.num_clusters(), 1u);

  const auto path = make_path(8);
  const GsIndex path_index(path);
  const auto path_run = path_index.query(ScanParams::make("0.9", 2));
  EXPECT_EQ(path_run.result.num_clusters(), 0u);
}

TEST(GsIndex, EmptyGraph) {
  const auto g = GraphBuilder::from_edges({}, 5);
  const GsIndex index(g);
  const auto run = index.query(ScanParams::make("0.5", 1));
  EXPECT_EQ(run.result.num_clusters(), 0u);
  EXPECT_EQ(run.result.num_cores(), 0u);
}

}  // namespace
}  // namespace ppscan
