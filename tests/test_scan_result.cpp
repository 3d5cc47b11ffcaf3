#include "scan/scan_common.hpp"

#include <gtest/gtest.h>

#include "bench_support/algorithms.hpp"
#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "support/random_graphs.hpp"

namespace ppscan {
namespace {

ScanResult tiny_result() {
  // 5 vertices: cores 0,1 in cluster 0; core 3 in cluster 3; non-core 2
  // belongs to both clusters; vertex 4 unclustered.
  ScanResult r;
  r.roles = {Role::Core, Role::Core, Role::NonCore, Role::Core,
             Role::NonCore};
  r.core_cluster_id = {0, 0, kInvalidVertex, 3, kInvalidVertex};
  r.noncore_memberships = {{2, 0}, {2, 3}, {2, 0}};  // duplicate on purpose
  return r;
}

TEST(ScanResult, NormalizeDeduplicatesMemberships) {
  auto r = tiny_result();
  r.normalize();
  EXPECT_EQ(r.noncore_memberships.size(), 2u);
}

TEST(ScanResult, CanonicalClustersMergeCoresAndNonCores) {
  auto r = tiny_result();
  r.normalize();
  const auto clusters = r.canonical_clusters();
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(clusters[1], (std::vector<VertexId>{2, 3}));
}

TEST(ScanResult, CountsCores) {
  EXPECT_EQ(tiny_result().num_cores(), 3u);
}

TEST(ScanResult, NumClusters) {
  EXPECT_EQ(tiny_result().num_clusters(), 2u);
}

// num_clusters() counts distinct cluster ids instead of building the
// canonical clusters; the two must agree on every shape a result can take.
TEST(ScanResult, NumClustersMatchesCanonicalClustersOnEveryAlgorithm) {
  const auto g = erdos_renyi(300, 2400, 47);
  for (const auto& name : algorithm_names()) {
    for (const auto& params : testing::parameter_grid()) {
      const auto run = run_algorithm(name, g, params);
      EXPECT_EQ(run.result.num_clusters(),
                run.result.canonical_clusters().size())
          << name << " eps=" << params.eps.to_double()
          << " mu=" << params.mu;
    }
  }
}

TEST(ScanResult, NumClustersMatchesCanonicalClustersOnPartialRuns) {
  const auto g = erdos_renyi(300, 2400, 53);
  const auto params = ScanParams::make("0.3", 2);
  for (int phase = 1; phase <= 7; ++phase) {
    AlgorithmConfig config;
    config.num_threads = 2;
    config.limits.cancel_at_phase = phase;
    const auto run = run_algorithm("ppSCAN", g, params, config);
    ASSERT_TRUE(run.partial()) << "phase " << phase;
    EXPECT_EQ(run.result.num_clusters(),
              run.result.canonical_clusters().size())
        << "ppSCAN cancelled at phase " << phase;
  }
  // An index query cut before labeling leaves every core at
  // kInvalidVertex: one canonical cluster, one distinct id.
  const GsIndex index(g);
  GsIndex::QueryScratch scratch;
  RunLimits limits;
  limits.cancel_at_phase = 2;
  RunGovernor governor(limits, nullptr);
  const auto run = index.query(params, scratch, &governor);
  ASSERT_TRUE(run.partial());
  ASSERT_GT(run.result.num_cores(), 0u);
  EXPECT_EQ(run.result.num_clusters(), 1u);
  EXPECT_EQ(run.result.canonical_clusters().size(), 1u);
}

TEST(ScanResult, NumClustersCountsOutOfRangeIds) {
  auto r = tiny_result();
  // Core 1 carries kInvalidVertex; vertex 4 belongs to an id past |V|.
  r.core_cluster_id[1] = kInvalidVertex;
  r.noncore_memberships.emplace_back(4, 99);
  r.noncore_memberships.emplace_back(4, 99);
  EXPECT_EQ(r.num_clusters(), r.canonical_clusters().size());
  EXPECT_EQ(r.num_clusters(), 4u);
}

TEST(ResultsEquivalent, IgnoresClusterIdNumbering) {
  auto a = tiny_result();
  auto b = tiny_result();
  // Renumber b's clusters: 0 → 7, 3 → 1.
  b.core_cluster_id = {7, 7, kInvalidVertex, 1, kInvalidVertex};
  b.noncore_memberships = {{2, 7}, {2, 1}};
  a.normalize();
  b.normalize();
  EXPECT_TRUE(results_equivalent(a, b));
}

TEST(ResultsEquivalent, DetectsRoleDifference) {
  auto a = tiny_result();
  auto b = tiny_result();
  b.roles[4] = Role::Core;
  EXPECT_FALSE(results_equivalent(a, b));
  EXPECT_NE(describe_result_difference(a, b).find("role of vertex 4"),
            std::string::npos);
}

TEST(ResultsEquivalent, DetectsMembershipDifference) {
  auto a = tiny_result();
  auto b = tiny_result();
  b.noncore_memberships = {{2, 0}};  // drop the membership in cluster 3
  a.normalize();
  b.normalize();
  EXPECT_FALSE(results_equivalent(a, b));
  EXPECT_FALSE(describe_result_difference(a, b).empty());
}

TEST(ResultsEquivalent, EmptyDifferenceWhenEqual) {
  auto a = tiny_result();
  auto b = tiny_result();
  a.normalize();
  b.normalize();
  EXPECT_TRUE(describe_result_difference(a, b).empty());
}

TEST(ScanParams, MakeParsesEps) {
  const auto p = ScanParams::make("0.4", 7);
  EXPECT_EQ(p.mu, 7u);
  EXPECT_DOUBLE_EQ(p.eps.to_double(), 0.4);
}

}  // namespace
}  // namespace ppscan
