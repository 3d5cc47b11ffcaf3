// Figure 6: scalability to the number of threads (ε = 0.2, µ = 5).
//
// Per-stage wall time of ppSCAN's four stages across a thread sweep.
// Expected shape on a multi-core machine: all stages shrink with threads,
// core checking dominating. Thread counts beyond the host's cores show no
// further speedup; the harness still runs every thread count, verifies
// result equality, and reports the task counts that demonstrate the
// scheduler's work division.
//
// --numa=auto shards the CSR across the detected nodes (first-touch /
// mbind placement), pins workers, and steals same-node first; the
// steal-locality columns and the per-node rows in the --metrics-json
// sidecar (schema v2) show how much work stayed on-node. On a single
// socket the numbers collapse to the uniform executor's (docs/numa.md).
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common.hpp"
#include "core/ppscan.hpp"
#include "graph/graph_placement.hpp"
#include "scan/scan_common.hpp"

int main(int argc, char** argv) {
  using namespace ppscan;
  const Flags flags(argc, argv);
  bench::print_banner(flags, "Figure 6: thread scalability");

  const auto mu = static_cast<std::uint32_t>(flags.get_int("mu", 5));
  const auto eps = flags.get_string("eps", "0.2");
  const NumaMode numa = bench::numa_flag(flags);
  std::vector<std::string> thread_list{"1", "2", "4", "8"};
  if (flags.has("threads")) {
    thread_list = bench::split_list(flags.get_string("threads", ""));
  }
  bench::MetricsSink sink(flags, "fig6");

  Table table({"dataset", "threads", "prune(s)", "check(s)", "core-clu(s)",
               "noncore-clu(s)", "total(s)", "self-speedup", "tasks", "steals",
               "steals-same", "steals-rem", "rmiss", "busy(s)", "idle(s)"});
  for (const auto& name : bench::dataset_flag(flags)) {
    auto graph = load_dataset(name);
    NumaTopology topology;
    std::string placement_label = "default";
    if (numa != NumaMode::Off) {
      topology = detect_topology();
      PlacementOptions popts;
      popts.topology = &topology;
      popts.placement = numa == NumaMode::Auto ? GraphPlacement::Sharded
                                               : GraphPlacement::Interleave;
      const PlacementReport placed = graph.apply_placement(popts);
      if (placed.applied) placement_label = to_string(popts.placement);
      std::cout << "# numa: mode=" << to_string(numa) << " nodes="
                << topology.num_nodes() << " placement=" << placement_label
                << (placed.fallback_reason.empty()
                        ? ""
                        : " (" + placed.fallback_reason + ")")
                << "\n";
    }
    const auto params = ScanParams::make(eps, mu);
    double base_seconds = 0;
    ScanResult reference;
    bool have_reference = false;
    for (const auto& t : thread_list) {
      PpScanOptions options;
      options.num_threads = std::max(1, std::atoi(t.c_str()));
      options.numa = numa;
      if (numa != NumaMode::Off) options.topology = &topology;
      const auto run = ppscan::ppscan(graph, params, options);
      if (!have_reference) {
        reference = run.result;
        have_reference = true;
        base_seconds = run.stats.total_seconds;
      } else if (!results_equivalent(reference, run.result)) {
        std::cerr << "ERROR: result changed at " << t << " threads on "
                  << name << "\n";
        return 1;
      }
      table.add_row({name, t, Table::fmt(run.stats.stage_prune_seconds),
                     Table::fmt(run.stats.stage_check_seconds),
                     Table::fmt(run.stats.stage_core_cluster_seconds),
                     Table::fmt(run.stats.stage_noncore_cluster_seconds),
                     Table::fmt(run.stats.total_seconds),
                     Table::fmt(base_seconds / run.stats.total_seconds, 2),
                     Table::fmt(run.stats.tasks_submitted),
                     Table::fmt(run.stats.steals),
                     Table::fmt(run.stats.steals_same_node),
                     Table::fmt(run.stats.steals_remote),
                     Table::fmt(run.stats.remote_misses),
                     Table::fmt(run.stats.busy_seconds),
                     Table::fmt(run.stats.idle_seconds)});
      for (const auto& node : run.stats.per_node) {
        if (run.stats.numa_nodes <= 1) break;
        std::cout << "# " << name << " threads=" << t << " node="
                  << node.node << " workers=" << node.workers
                  << " steals-same=" << node.steals_same_node
                  << " steals-rem=" << node.steals_remote
                  << " rmiss=" << node.remote_misses << "\n";
      }
      auto report = make_metrics_report(
          "bench_fig6_scalability", "ppSCAN", name, eps, mu,
          static_cast<std::uint64_t>(options.num_threads),
          to_string(resolve_kernel(options.kernel)), graph, run);
      report.placement = placement_label;
      sink.add(std::move(report));
    }
  }
  table.print(std::cout, "Figure 6: per-stage runtime vs threads, eps=" + eps +
                             ", mu=" + std::to_string(mu));
  if (!sink.flush()) return 1;
  return 0;
}
