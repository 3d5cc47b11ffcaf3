#include "concurrent/task_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ppscan {
namespace {

struct Harness {
  explicit Harness(VertexId n) : visited(n) {
    for (auto& v : visited) v.store(0);
  }
  std::vector<std::atomic<int>> visited;
};

TEST(TaskScheduler, SkipsVerticesNotNeedingWork) {
  constexpr VertexId n = 1000;
  Executor pool(2);
  Harness h(n);
  schedule_vertex_tasks(
      pool, n, [](VertexId) { return 1; },
      [](VertexId u) { return u % 3 == 0; },
      [&](VertexId u) { h.visited[u].fetch_add(1); });
  for (VertexId u = 0; u < n; ++u) {
    EXPECT_EQ(h.visited[u].load(), u % 3 == 0 ? 1 : 0);
  }
}

TEST(TaskScheduler, DegreeThresholdControlsTaskCount) {
  constexpr VertexId n = 1024;
  Executor pool(2);
  SchedulerOptions options;
  options.kind = SchedulerKind::DegreeSum;
  options.degree_threshold = 100;
  Harness h(n);
  const auto stats = schedule_vertex_tasks(
      pool, n, [](VertexId) { return 10; }, [](VertexId) { return true; },
      [&](VertexId u) { h.visited[u].fetch_add(1); }, options);
  // 1024 vertices of degree 10 → a task every ~11 vertices.
  EXPECT_GE(stats.tasks_submitted, 80u);
  EXPECT_LE(stats.tasks_submitted, 110u);
}

TEST(TaskScheduler, HighDegreeVertexGetsItsOwnTask) {
  // One huge-degree vertex must immediately flush a task.
  constexpr VertexId n = 10;
  Executor pool(2);
  SchedulerOptions options;
  options.degree_threshold = 100;
  std::atomic<std::uint64_t> count{0};
  const auto stats = schedule_vertex_tasks(
      pool, n, [](VertexId u) { return u == 5 ? 1000u : 1u; },
      [](VertexId) { return true; }, [&](VertexId) { count.fetch_add(1); },
      options);
  EXPECT_EQ(count.load(), n);
  EXPECT_GE(stats.tasks_submitted, 2u);
}

TEST(TaskScheduler, StaticRangePolicyCoversAllVertices) {
  constexpr VertexId n = 997;  // prime, to catch off-by-one in range math
  Executor pool(4);
  SchedulerOptions options;
  options.kind = SchedulerKind::StaticRange;
  Harness h(n);
  const auto stats = schedule_vertex_tasks(
      pool, n, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [&](VertexId u) { h.visited[u].fetch_add(1); }, options);
  for (VertexId u = 0; u < n; ++u) EXPECT_EQ(h.visited[u].load(), 1);
  EXPECT_EQ(stats.tasks_submitted, 4u);
}

TEST(TaskScheduler, StaticRangeSplitsByDegreeMass) {
  // Harmonic degrees: vertex u has degree 1 + 10000/(u+1), so an
  // equal-vertex split would hand the first task most of the edges. The
  // degree-weighted split keeps every task's degree mass within one
  // vertex's degree of total/t.
  constexpr VertexId n = 10000;
  constexpr int t = 4;
  const auto degree_of = [](VertexId u) -> std::uint64_t {
    return 1 + 10000 / (static_cast<std::uint64_t>(u) + 1);
  };
  std::uint64_t total = 0;
  std::uint64_t max_degree = 0;
  for (VertexId u = 0; u < n; ++u) {
    total += degree_of(u);
    max_degree = std::max(max_degree, degree_of(u));
  }
  SchedulerOptions options;
  options.kind = SchedulerKind::StaticRange;
  std::vector<TaskRange> ranges;
  const auto tasks = detail::bundle_ranges(
      ranges, n, t, degree_of, [](VertexId) { return true; }, options);
  ASSERT_EQ(tasks, static_cast<std::uint64_t>(t));
  VertexId next = 0;
  for (const TaskRange& r : ranges) {
    ASSERT_EQ(r.beg, next);
    next = r.end;
    std::uint64_t mass = 0;
    for (VertexId u = r.beg; u < r.end; ++u) mass += degree_of(u);
    const double deviation =
        std::abs(static_cast<double>(mass) - static_cast<double>(total) / t);
    EXPECT_LE(deviation, static_cast<double>(max_degree))
        << "task [" << r.beg << ", " << r.end << ") carries " << mass
        << " of " << total;
  }
  EXPECT_EQ(next, n);
}

TEST(TaskScheduler, FixedChunkPolicyCoversAllVertices) {
  constexpr VertexId n = 10000;  // not a multiple of kFixedChunkSize
  Executor pool(4);
  SchedulerOptions options;
  options.kind = SchedulerKind::FixedChunk;
  Harness h(n);
  const auto stats = schedule_vertex_tasks(
      pool, n, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [&](VertexId u) { h.visited[u].fetch_add(1); }, options);
  for (VertexId u = 0; u < n; ++u) EXPECT_EQ(h.visited[u].load(), 1);
  EXPECT_EQ(stats.tasks_submitted,
            (n + kFixedChunkSize - 1) / kFixedChunkSize);
}

TEST(TaskScheduler, EmptyVertexRange) {
  Executor pool(2);
  const auto stats = schedule_vertex_tasks(
      pool, 0, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [](VertexId) { FAIL() << "no vertex should be visited"; });
  EXPECT_EQ(stats.tasks_submitted, 0u);
}

TEST(TaskScheduler, NothingNeedsWork) {
  Executor pool(2);
  std::atomic<int> visits{0};
  schedule_vertex_tasks(
      pool, 100, [](VertexId) { return 1; }, [](VertexId) { return false; },
      [&](VertexId) { visits.fetch_add(1); });
  EXPECT_EQ(visits.load(), 0);
}

TEST(TaskScheduler, PredicateReTestedInsideTask) {
  // A vertex whose predicate flips between bundling and execution is
  // skipped by the worker-side re-test (vertices settled by other tasks).
  constexpr VertexId n = 100;
  Executor pool(1);
  std::vector<std::atomic<bool>> todo(n);
  for (auto& t : todo) t.store(true);
  std::atomic<int> visits{0};
  schedule_vertex_tasks(
      pool, n, [](VertexId) { return 1; },
      [&](VertexId u) { return todo[u].load(); },
      [&](VertexId u) {
        visits.fetch_add(1);
        // Settle the next 5 vertices, emulating role propagation.
        for (VertexId v = u + 1; v < std::min<VertexId>(u + 6, n); ++v) {
          todo[v].store(false);
        }
      });
  // Every visited vertex was still pending; far fewer than n visits happen.
  EXPECT_GT(visits.load(), 0);
  EXPECT_LE(visits.load(), static_cast<int>(n));
}

TEST(TaskScheduler, ExecutorRuntimeVisitsEveryVertexExactlyOnce) {
  constexpr VertexId n = 10000;
  Executor executor(4);
  Harness h(n);
  for (const auto kind : {SchedulerKind::DegreeSum, SchedulerKind::StaticRange,
                          SchedulerKind::FixedChunk}) {
    for (auto& v : h.visited) v.store(0);
    SchedulerOptions options;
    options.kind = kind;
    options.degree_threshold = 100;
    schedule_vertex_tasks(
        executor, n, [](VertexId) { return 10; },
        [](VertexId) { return true; },
        [&](VertexId u) { h.visited[u].fetch_add(1); }, options);
    for (VertexId u = 0; u < n; ++u) {
      ASSERT_EQ(h.visited[u].load(), 1)
          << "vertex " << u << " kind " << to_string(kind);
    }
  }
}

TEST(TaskScheduler, ExecutorRuntimeReusesScratch) {
  constexpr VertexId n = 5000;
  Executor executor(4);
  std::vector<TaskRange> scratch;
  Harness h(n);
  for (int round = 0; round < 3; ++round) {
    for (auto& v : h.visited) v.store(0);
    SchedulerOptions options;
    options.degree_threshold = 50;
    const auto stats = schedule_vertex_tasks(
        executor, n, [](VertexId) { return 5; },
        [](VertexId) { return true; },
        [&](VertexId u) { h.visited[u].fetch_add(1); }, options, &scratch);
    EXPECT_GT(stats.tasks_submitted, 1u);
    EXPECT_EQ(scratch.size(), stats.tasks_submitted);
    for (VertexId u = 0; u < n; ++u) ASSERT_EQ(h.visited[u].load(), 1);
  }
}

TEST(TaskScheduler, StaticRangeEmptyVertexRange) {
  // n == 0 must produce no tasks and no zero-width ranges (the
  // static-range split math is where the division hazards live; see
  // bundle_ranges).
  SchedulerOptions options;
  options.kind = SchedulerKind::StaticRange;
  Executor executor(4);
  const auto stats = schedule_vertex_tasks(
      executor, 0, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [](VertexId) { FAIL() << "no vertex should be visited"; }, options);
  EXPECT_EQ(stats.tasks_submitted, 0u);
}

TEST(TaskScheduler, StaticRangeFewerVerticesThanThreads) {
  // n < num_threads: every vertex crosses a split point, giving n unit
  // tasks — every vertex covered exactly once, no zero-width ranges.
  constexpr VertexId n = 3;
  SchedulerOptions options;
  options.kind = SchedulerKind::StaticRange;
  Executor executor(8);
  Harness h(n);
  const auto stats = schedule_vertex_tasks(
      executor, n, [](VertexId) { return 1; }, [](VertexId) { return true; },
      [&](VertexId u) { h.visited[u].fetch_add(1); }, options);
  for (VertexId u = 0; u < n; ++u) EXPECT_EQ(h.visited[u].load(), 1);
  EXPECT_EQ(stats.tasks_submitted, n);
}

}  // namespace
}  // namespace ppscan
