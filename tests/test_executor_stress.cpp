// Stress tests for the work-stealing executor, sized for ThreadSanitizer:
// they run in the `tsan` CI job, so iteration counts are chosen to finish in
// seconds under TSan's ~10x slowdown while still exercising thousands of
// claim/steal/park transitions.
#include "concurrent/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "concurrent/topology.hpp"

namespace ppscan {
namespace {

TEST(ExecutorStress, ManyTinyTasksAcrossManyPhases) {
  Executor executor(4);
  constexpr int kPhases = 300;
  constexpr VertexId kTasks = 128;
  std::vector<TaskRange> tasks;
  for (VertexId i = 0; i < kTasks; ++i) tasks.push_back({i, i + 1});
  std::atomic<std::uint64_t> sum{0};
  for (int p = 0; p < kPhases; ++p) {
    executor.run(tasks.data(), tasks.size(),
                 [&](VertexId beg, VertexId) { sum.fetch_add(beg); });
  }
  constexpr std::uint64_t per_phase =
      static_cast<std::uint64_t>(kTasks - 1) * kTasks / 2;
  EXPECT_EQ(sum.load(), per_phase * kPhases);
  EXPECT_EQ(executor.stats().tasks_executed,
            static_cast<std::uint64_t>(kPhases) * kTasks);
}

TEST(ExecutorStress, AlternatingFlatAndShardedPhases) {
  // run() and run_sharded() share the tagged cursors but segment the array
  // differently (one window over all workers vs one window per node, with
  // the node split moving every round); alternating them catches
  // cross-phase tag bugs — a stale segment cursor must never validate
  // against a later phase's segmentation.
  Executor executor(4, emulated_topology(2, {0, 1, 2, 3}),
                    /*pin_workers=*/false);
  ASSERT_EQ(executor.num_nodes(), 2);
  constexpr int kRounds = 150;
  constexpr VertexId kTasks = 96;
  std::vector<TaskRange> tasks;
  for (VertexId i = 0; i < kTasks; ++i) tasks.push_back({i, i + 1});
  std::vector<std::atomic<std::uint8_t>> visited(kTasks);
  auto body = [&](VertexId beg, VertexId) { visited[beg].fetch_add(1); };
  const auto expect_each_once = [&](int r, const char* mode) {
    for (VertexId i = 0; i < kTasks; ++i) {
      ASSERT_EQ(visited[i].exchange(0), 1)
          << mode << " round " << r << " task " << i;
    }
  };
  for (int r = 0; r < kRounds; ++r) {
    executor.run(tasks.data(), tasks.size(), body);
    expect_each_once(r, "flat");
    const std::size_t split = static_cast<std::size_t>(r) % (kTasks + 1);
    const std::size_t node_task_begin[] = {0, split, tasks.size()};
    executor.run_sharded(tasks.data(), tasks.size(), node_task_begin, body);
    expect_each_once(r, "sharded");
  }
  EXPECT_EQ(executor.stats().tasks_executed,
            static_cast<std::uint64_t>(kRounds) * kTasks * 2);
}

TEST(ExecutorStress, SteadyStealPressure) {
  // Repeated dense phases on more workers than cores keep every cursor
  // contended (fast workers finish their segment and raid the laggards'),
  // verifying the claim CAS and exactly-once delivery under steal pressure.
  Executor executor(4);
  constexpr int kRounds = 100;
  constexpr VertexId kTasks = 256;
  std::vector<TaskRange> tasks;
  for (VertexId i = 0; i < kTasks; ++i) tasks.push_back({i, i + 1});
  std::vector<std::atomic<std::uint8_t>> visited(kTasks);
  for (int r = 0; r < kRounds; ++r) {
    for (auto& v : visited) v.store(0);
    executor.run(tasks.data(), tasks.size(), [&](VertexId beg, VertexId) {
      visited[beg].fetch_add(1);
    });
    for (VertexId i = 0; i < kTasks; ++i) {
      ASSERT_EQ(visited[i].load(), 1) << "round " << r << " task " << i;
    }
  }
}

}  // namespace
}  // namespace ppscan
