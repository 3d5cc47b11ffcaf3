// Partial-result invariants of governed runs, per algorithm.
//
// The governance contract (scan_common.hpp): whatever a cut-short run
// *decided* is final and agrees with an unconstrained run, whatever it did
// not decide is explicitly undecided (Role::Unknown, kInvalidVertex ids).
// The cancel_at_phase hook makes this deterministic — phases before the
// hook complete at their barriers, the hooked phase and everything after
// never execute — so we can sweep the cut point across every phase of
// every algorithm and diff against the full run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "bench_support/algorithms.hpp"
#include "graph/generators.hpp"
#include "index/gs_index.hpp"
#include "scan/validate_result.hpp"

namespace ppscan {
namespace {

struct AlgorithmPhases {
  const char* name;
  int phases;
};

// Phase counts match the enter_phase() calls in each implementation.
constexpr AlgorithmPhases kAlgorithms[] = {
    {"SCAN", 1},     {"pSCAN", 2},  {"anySCAN", 3},
    {"SCAN-XP", 5},  {"ppSCAN", 7},
};

CsrGraph community_graph(std::uint32_t n, std::uint64_t seed) {
  LfrParams lfr;
  lfr.n = n;
  lfr.avg_degree = 12;
  lfr.mixing = 0.2;
  lfr.min_community = 8;
  lfr.max_community = 40;
  return lfr_like(lfr, seed);
}

void expect_decided_prefix_agrees(const ScanResult& partial,
                                  const ScanResult& full,
                                  const std::string& label) {
  ASSERT_EQ(partial.roles.size(), full.roles.size()) << label;
  for (std::size_t v = 0; v < partial.roles.size(); ++v) {
    if (partial.roles[v] == Role::Unknown) continue;
    EXPECT_EQ(partial.roles[v], full.roles[v])
        << label << ": decided role of vertex " << v
        << " disagrees with the unconstrained run";
  }
}

TEST(PartialResults, CancelAtEveryPhaseKeepsTheDecidedPrefix) {
  const CsrGraph graph = community_graph(300, 20260806);
  const ScanParams params = ScanParams::make("0.4", 3);
  for (const AlgorithmPhases& algo : kAlgorithms) {
    AlgorithmConfig unconstrained;
    unconstrained.num_threads = 4;
    const ScanRun full =
        run_algorithm(algo.name, graph, params, unconstrained);
    ASSERT_FALSE(full.partial()) << algo.name;

    for (int k = 1; k <= algo.phases; ++k) {
      AlgorithmConfig config;
      config.num_threads = 4;
      config.limits.cancel_at_phase = k;
      const ScanRun run = run_algorithm(algo.name, graph, params, config);
      const std::string label =
          std::string(algo.name) + " cancelled at phase " +
          std::to_string(k);

      EXPECT_TRUE(run.partial()) << label;
      EXPECT_EQ(run.stats.abort_reason, AbortReason::UserCancelled) << label;
      EXPECT_EQ(run.stats.phases_completed,
                static_cast<std::uint32_t>(k - 1))
          << label;
      expect_decided_prefix_agrees(run.result, full.result, label);
      const ValidationReport report = validate_scan_result(
          graph, params, run.result, ValidateMode::Partial);
      EXPECT_TRUE(report.ok) << label << ": " << report.first_error;
    }

    // A hook past the last phase never fires: the run must complete and
    // match the unconstrained result exactly (governance is a no-op).
    AlgorithmConfig config;
    config.num_threads = 4;
    config.limits.cancel_at_phase = algo.phases + 1;
    const ScanRun run = run_algorithm(algo.name, graph, params, config);
    EXPECT_FALSE(run.partial()) << algo.name;
    EXPECT_TRUE(results_equivalent(run.result, full.result))
        << algo.name << ": "
        << describe_result_difference(run.result, full.result);
  }
}

TEST(PartialResults, TinyMemoryBudgetAbortsBeforeDecidingAnything) {
  const CsrGraph graph = community_graph(300, 7);
  const ScanParams params = ScanParams::make("0.4", 3);
  for (const AlgorithmPhases& algo : kAlgorithms) {
    AlgorithmConfig config;
    config.num_threads = 2;
    config.limits.memory_budget_bytes = 1;  // nothing fits
    const ScanRun run = run_algorithm(algo.name, graph, params, config);
    EXPECT_TRUE(run.partial()) << algo.name;
    EXPECT_EQ(run.stats.abort_reason, AbortReason::BudgetExceeded)
        << algo.name;
    EXPECT_GT(run.stats.abort_bytes, 0u) << algo.name;
    ASSERT_EQ(run.result.roles.size(), graph.num_vertices()) << algo.name;
    for (std::size_t v = 0; v < run.result.roles.size(); ++v) {
      ASSERT_EQ(run.result.roles[v], Role::Unknown)
          << algo.name << ": vertex " << v
          << " decided despite the state arrays never being allocated";
    }
    EXPECT_EQ(run.result.num_cores(), 0u) << algo.name;
    const ValidationReport report = validate_scan_result(
        graph, params, run.result, ValidateMode::Partial);
    EXPECT_TRUE(report.ok) << algo.name << ": " << report.first_error;
  }
}

TEST(PartialResults, PreTrippedExternalTokenReturnsImmediately) {
  const CsrGraph graph = community_graph(300, 11);
  const ScanParams params = ScanParams::make("0.5", 4);
  for (const AlgorithmPhases& algo : kAlgorithms) {
    CancelToken token;
    token.trip(AbortReason::UserCancelled);
    AlgorithmConfig config;
    config.num_threads = 2;
    config.cancel = &token;
    const ScanRun run = run_algorithm(algo.name, graph, params, config);
    EXPECT_TRUE(run.partial()) << algo.name;
    EXPECT_EQ(run.stats.abort_reason, AbortReason::UserCancelled)
        << algo.name;
    EXPECT_EQ(run.stats.phases_completed, 0u) << algo.name;
    for (const Role role : run.result.roles) {
      ASSERT_EQ(role, Role::Unknown) << algo.name;
    }
  }
}

TEST(PartialResults, DeadlinePartialStillValidates) {
  // Non-deterministic cut point (the wall clock decides), so the test
  // certifies whichever outcome occurred: a completed run must pass full
  // validation, an aborted one must pass partial validation — the point is
  // that a deadline can never yield an *inconsistent* result.
  const CsrGraph graph = community_graph(20000, 99);
  const ScanParams params = ScanParams::make("0.5", 4);
  AlgorithmConfig config;
  config.num_threads = 4;
  config.limits.deadline = std::chrono::milliseconds(1);
  const ScanRun run = run_algorithm("ppSCAN", graph, params, config);
  if (run.partial()) {
    EXPECT_EQ(run.stats.abort_reason, AbortReason::DeadlineExpired);
    const ValidationReport report = validate_scan_result(
        graph, params, run.result, ValidateMode::Partial);
    EXPECT_TRUE(report.ok) << report.first_error;
  } else {
    const ValidationReport report =
        validate_scan_result(graph, params, run.result);
    EXPECT_TRUE(report.ok) << report.first_error;
  }
}

TEST(PartialResults, DeadlineInsidePruneSimReadsNoSimilarityState) {
  // ppSCAN leaves its per-arc similarity array uninitialized until
  // PruneSim's parallel stores, so a run cut short inside PruneSim must
  // read none of it: every later phase is skipped and the partial result
  // comes from the roles PruneSim settled. Deadlines sweep upward 1 ms at a
  // time until one trips inside PruneSim.
  const CsrGraph graph = community_graph(100000, 17);
  const ScanParams params = ScanParams::make("0.5", 4);
  AlgorithmConfig unconstrained;
  unconstrained.num_threads = 2;
  const ScanRun full = run_algorithm("ppSCAN", graph, params, unconstrained);
  bool tripped_in_prune = false;
  for (int ms = 1; ms <= 200 && !tripped_in_prune; ++ms) {
    AlgorithmConfig config;
    config.num_threads = 2;
    config.limits.deadline = std::chrono::milliseconds(ms);
    const ScanRun run = run_algorithm("ppSCAN", graph, params, config);
    if (!run.partial()) break;  // the deadline outlasted the whole run
    const std::string label = "deadline " + std::to_string(ms) + " ms";
    EXPECT_EQ(run.stats.abort_reason, AbortReason::DeadlineExpired) << label;
    expect_decided_prefix_agrees(run.result, full.result, label);
    const ValidationReport report = validate_scan_result(
        graph, params, run.result, ValidateMode::Partial);
    EXPECT_TRUE(report.ok) << label << ": " << report.first_error;
    if (run.stats.abort_phase == "PruneSim") {
      tripped_in_prune = true;
      EXPECT_EQ(run.stats.phases_completed, 0u) << label;
      EXPECT_EQ(run.stats.counters.sims_computed, 0u) << label;
      EXPECT_EQ(run.result.num_clusters(), 0u) << label;
    }
  }
  EXPECT_TRUE(tripped_in_prune);
}

TEST(PartialResults, AbortedGsIndexConstructionRefusesQueries) {
  const CsrGraph graph = community_graph(300, 13);
  const ScanParams params = ScanParams::make("0.4", 3);

  CancelToken token;
  token.trip(AbortReason::UserCancelled);
  GsIndex::BuildOptions options;
  options.num_threads = 2;
  options.cancel = &token;
  const GsIndex aborted(graph, options);
  EXPECT_FALSE(aborted.complete());
  EXPECT_EQ(aborted.build_stats().abort.reason, AbortReason::UserCancelled);
  // An incomplete neighbor order would answer wrongly, not partially —
  // refusal is the only sound behavior.
  EXPECT_THROW((void)aborted.query(params), std::logic_error);

  const GsIndex complete(graph, GsIndex::BuildOptions{});
  ASSERT_TRUE(complete.complete());
  const ScanRun from_index = complete.query(params);
  const ScanRun online = run_algorithm("ppSCAN", graph, params, {});
  EXPECT_TRUE(results_equivalent(from_index.result, online.result))
      << describe_result_difference(from_index.result, online.result);
}

}  // namespace
}  // namespace ppscan
