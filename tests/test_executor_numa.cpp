// Topology-aware executor (hierarchical stealing): worker→node assignment,
// the same-node-victims-first property of every worker's deterministic
// steal order, shard-aligned phase execution, the steal-locality counter
// invariants, and end-to-end ppSCAN equivalence between numa=auto (on an
// emulated 2-node topology) and numa=off. All properties are exercised
// under PPSCAN_NUMA_NODES-style emulation so they hold — and run under
// TSan — on a single-socket CI box.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "concurrent/executor.hpp"
#include "concurrent/topology.hpp"
#include "core/ppscan.hpp"
#include "graph/fixtures.hpp"
#include "scan/scan_common.hpp"

namespace ppscan {
namespace {

/// Emulated topology over synthetic CPU ids — node structure without any
/// assumption about the machine the test runs on.
NumaTopology two_nodes(int cpus = 8) {
  std::vector<int> ids;
  for (int c = 0; c < cpus; ++c) ids.push_back(c);
  return emulated_topology(2, ids);
}

std::vector<TaskRange> unit_ranges(VertexId count) {
  std::vector<TaskRange> tasks;
  tasks.reserve(count);
  for (VertexId i = 0; i < count; ++i) tasks.push_back({i, i + 1});
  return tasks;
}

TEST(ExecutorNuma, WorkersAssignedRoundRobinAcrossNodes) {
  Executor executor(6, two_nodes(), /*pin_workers=*/false);
  ASSERT_EQ(executor.num_nodes(), 2);
  for (int w = 0; w < 6; ++w) {
    EXPECT_EQ(executor.worker_node(w), w % 2) << "worker " << w;
  }
}

TEST(ExecutorNuma, NodeCountClampedToThreadCount) {
  // One worker cannot populate two nodes; the executor degrades to
  // uniform instead of leaving a node workerless.
  Executor executor(1, two_nodes(), /*pin_workers=*/false);
  EXPECT_EQ(executor.num_nodes(), 1);
  EXPECT_EQ(executor.worker_node(0), 0);
}

TEST(ExecutorNuma, UniformExecutorHasSingleNode) {
  Executor executor(4);
  EXPECT_EQ(executor.num_nodes(), 1);
  // Every victim is "same-node": the steal order's same-node prefix is
  // the whole ring.
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(executor.same_node_victims(w), executor.steal_order(w).size());
  }
}

// The property the hierarchical steal order exists for: every same-node
// victim precedes every remote victim, and the scan covers each other
// worker exactly once.
TEST(ExecutorNuma, SameNodeVictimsPrecedeRemoteOnes) {
  constexpr int kThreads = 8;
  Executor executor(kThreads, two_nodes(), /*pin_workers=*/false);
  ASSERT_EQ(executor.num_nodes(), 2);
  for (int w = 0; w < kThreads; ++w) {
    const std::vector<int>& order = executor.steal_order(w);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kThreads - 1));
    const std::size_t same = executor.same_node_victims(w);
    std::vector<bool> seen(kThreads, false);
    seen[static_cast<std::size_t>(w)] = true;  // self never scanned
    for (std::size_t i = 0; i < order.size(); ++i) {
      const int victim = order[i];
      ASSERT_GE(victim, 0);
      ASSERT_LT(victim, kThreads);
      EXPECT_FALSE(seen[static_cast<std::size_t>(victim)])
          << "victim " << victim << " scanned twice by worker " << w;
      seen[static_cast<std::size_t>(victim)] = true;
      if (i < same) {
        EXPECT_EQ(executor.worker_node(victim), executor.worker_node(w))
            << "remote victim inside the same-node prefix of worker " << w;
      } else {
        EXPECT_NE(executor.worker_node(victim), executor.worker_node(w))
            << "same-node victim after the prefix of worker " << w;
      }
    }
  }
}

TEST(ExecutorNuma, ShardedRunCoversEveryRangeExactlyOnce) {
  constexpr VertexId n = 20000;
  const auto tasks = unit_ranges(n);
  struct Case {
    const char* name;
    int threads;
    std::size_t split;  // node 0 owns [0, split), node 1 [split, n)
  };
  // Deliberately unbalanced shards (node 0 owns 3/4 of the tasks, so node
  // 1's workers must steal, mostly remotely), an empty node-0 window, and
  // unequal node membership (3 workers: node 0 has two, node 1 one).
  const Case cases[] = {{"3/4 split", 4, (3 * tasks.size()) / 4},
                        {"empty node window", 4, 0},
                        {"3 workers on 2 nodes", 3, tasks.size() / 3}};
  for (const Case& c : cases) {
    Executor executor(c.threads, two_nodes(), /*pin_workers=*/false);
    ASSERT_EQ(executor.num_nodes(), 2) << c.name;
    std::vector<std::atomic<int>> visited(n);
    for (auto& v : visited) v.store(0);
    const std::size_t node_task_begin[] = {0, c.split, tasks.size()};
    executor.run_sharded(tasks.data(), tasks.size(), node_task_begin,
                         [&](VertexId beg, VertexId end) {
                           for (VertexId u = beg; u < end; ++u) {
                             visited[u].fetch_add(1);
                           }
                         });
    for (VertexId u = 0; u < n; ++u) {
      ASSERT_EQ(visited[u].load(), 1) << c.name << ": vertex " << u;
    }
    EXPECT_EQ(executor.stats().tasks_executed, static_cast<std::uint64_t>(n))
        << c.name;
  }
}

TEST(ExecutorNuma, StealCountersSplitConsistently) {
  constexpr VertexId n = 50000;
  Executor executor(4, two_nodes(), /*pin_workers=*/false);
  const auto tasks = unit_ranges(n);
  const std::size_t node_task_begin[] = {0, tasks.size() / 2, tasks.size()};
  for (int round = 0; round < 3; ++round) {
    executor.run_sharded(tasks.data(), tasks.size(), node_task_begin,
                         [&](VertexId, VertexId) {});
  }
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.steals, stats.steals_same_node + stats.steals_remote);
  ASSERT_EQ(stats.per_node.size(), 2u);
  std::uint64_t same = 0, remote = 0, misses = 0, workers = 0;
  for (const obs::NodeCounters& node : stats.per_node) {
    same += node.steals_same_node;
    remote += node.steals_remote;
    misses += node.remote_misses;
    workers += node.workers;
  }
  EXPECT_EQ(same, stats.steals_same_node);
  EXPECT_EQ(remote, stats.steals_remote);
  EXPECT_EQ(misses, stats.remote_misses);
  EXPECT_EQ(workers, 4u);
}

TEST(ExecutorNuma, UniformExecutorNeverCountsRemote) {
  constexpr VertexId n = 50000;
  Executor executor(4);
  const auto tasks = unit_ranges(n);
  executor.run(tasks.data(), tasks.size(), [&](VertexId, VertexId) {});
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.steals_remote, 0u);
  EXPECT_EQ(stats.remote_misses, 0u);
  EXPECT_EQ(stats.steals_same_node, stats.steals);
}

// End to end: numa=auto on an emulated two-node topology must produce the
// same clustering as numa=off — sharding and hierarchical stealing change
// memory traffic, never results.
TEST(ExecutorNuma, PpscanAutoMatchesOffOnEmulatedTopology) {
  const CsrGraph graph = make_clique_chain(6, 8);
  const ScanParams params = ScanParams::make("0.5", 3);

  PpScanOptions off;
  off.num_threads = 4;
  const ScanRun base = ppscan(graph, params, off);

  const NumaTopology topo = two_nodes();
  PpScanOptions numa;
  numa.num_threads = 4;
  numa.numa = NumaMode::Auto;
  numa.topology = &topo;
  const ScanRun run = ppscan(graph, params, numa);

  EXPECT_TRUE(results_equivalent(base.result, run.result))
      << describe_result_difference(base.result, run.result);
  EXPECT_EQ(run.stats.numa_mode, "auto");
  EXPECT_EQ(run.stats.numa_nodes, 2u);
  EXPECT_EQ(run.stats.steals,
            run.stats.steals_same_node + run.stats.steals_remote);
  ASSERT_EQ(run.stats.per_node.size(), 2u);
  EXPECT_EQ(base.stats.numa_mode, "off");
  EXPECT_EQ(base.stats.numa_nodes, 1u);
}

}  // namespace
}  // namespace ppscan
