// ppSCAN — the paper's contribution: multi-phase, lock-free parallel
// pruning-based structural graph clustering (Algorithms 3 and 4).
//
// Step 1, role computing (three phases, barrier between each):
//   1. PruneSim        — per-arc similarity-predicate pruning; caches the
//                        min_cn bound for undecided arcs and settles roles
//                        decidable from degrees alone.
//   2. CheckCore       — min-max pruning with *local* sd/ed (no shared
//                        bounds → no write-write races); computes only
//                        u < v arcs so each edge is intersected at most once
//                        and the result is mirrored to the reverse arc.
//   3. ConsolidateCore — same, without the u < v constraint, settling roles
//                        the order constraint left unknown (Theorem 4.2).
//
// Step 2, clustering (four phases):
//   4. ClusterCoreWithoutCompSim — unite cores over already-known similar
//                        edges (free union-find pruning for phase 5).
//   5. ClusterCoreWithCompSim    — intersect the remaining unknown
//                        core-core edges, skipping same-set pairs.
//   6. InitClusterId    — CAS-min core id per union-find set.
//   7. ClusterNonCore   — cores hand their cluster id to ε-similar non-core
//                        neighbors (worker-local buffers, merged once at the
//                        barrier with a prefix-sum copy — no lock).
//
// All vertex computations are bundled by the degree-based dynamic task
// scheduler (Algorithm 5). Per-arc state lives in one relaxed-atomic int32
// (see scan_common.hpp for the encoding), which makes the paper's benign
// read/write races defined behavior at zero cost on x86.
#pragma once

#include "concurrent/task_scheduler.hpp"
#include "concurrent/topology.hpp"
#include "scan/scan_common.hpp"
#include "setops/intersect.hpp"

namespace ppscan {

struct PpScanOptions {
  int num_threads = 1;
  /// Set-intersection kernel. Auto probes N(v) against a per-worker bitmap
  /// of N(u) (similar_marked, AVX-512 where supported; galloping on heavy
  /// degree skew); the explicit kinds run the paper's sorted-list kernels,
  /// and MergeEarlyStop reproduces its "ppSCAN-NO" configuration.
  IntersectKind kernel = IntersectKind::Auto;
  SchedulerOptions scheduler;

  // Ablation switches (all on = the paper's algorithm).
  bool predicate_pruning = true;  // phase 1 settles arcs from degrees
  bool minmax_pruning = true;     // early termination in phases 2-3
  bool unionfind_pruning = true;  // same-set skip in phases 4-5

  /// Precompute the reverse-arc index (O(|E|) pass, 8 B/arc) instead of
  /// binary-searching e(v,u) per decided edge — off reproduces the paper's
  /// lookup; bench_ablation_reverse_index measures the trade-off.
  bool use_reverse_index = false;

  /// Run governance: deadline / memory budget / watchdog / deterministic
  /// cancel-at-phase hook. Default-constructed limits govern nothing.
  RunLimits limits;
  /// Optional external cancel token (e.g. tripped from a signal handler).
  /// Not owned; may be null. A tripped token makes the run return a
  /// labeled partial result (see ScanRun).
  CancelToken* cancel = nullptr;

  /// Optional trace collector (obs/trace.hpp): phase spans land on its
  /// master slot, per-task/steal events on the worker slots. Not owned;
  /// must be sized for at least num_threads workers and outlive the run.
  obs::TraceCollector* trace = nullptr;

  /// NUMA execution policy (docs/numa.md):
  ///   Off        — uniform executor, the pre-NUMA behavior.
  ///   Auto       — detect the topology, pin workers round-robin across
  ///                nodes, steal same-node first, and shard every phase's
  ///                tasks along edge-balanced node boundaries.
  ///   Interleave — uniform executor (page interleaving is a graph
  ///                placement concern; apply CsrGraph::apply_placement
  ///                before the run).
  /// Detection degrades gracefully: a single-node box behaves exactly
  /// like Off (one trace Mark records the fallback reason).
  NumaMode numa = NumaMode::Off;
  /// Topology override for tests/benches (e.g. an emulated_topology()).
  /// Not owned; nullptr = detect_topology() when numa == Auto.
  const NumaTopology* topology = nullptr;
};

ScanRun ppscan(const CsrGraph& graph, const ScanParams& params,
               const PpScanOptions& options = {});

}  // namespace ppscan
