// NUMA placement policy for the CSR arrays (offsets + adjacency).
//
// The loader thread allocates the CSR wherever it happens to run, so on a
// multi-socket box every worker on the other socket pays remote-memory
// latency on the similarity hot path. apply_placement() fixes the pages
// up IN PLACE — the vectors, their addresses, and their contents are
// untouched (many tests compare `offsets()`/`dst()` by value, and spans
// into the arrays stay valid):
//
//   * Sharded    — vertex range split into one edge-balanced shard per
//                  topology node; each shard's offsets/adjacency pages are
//                  moved to its node with a raw mbind(MPOL_BIND,
//                  MPOL_MF_MOVE) syscall (libnuma-free). Workers pinned to
//                  node k then find shard k's data local.
//   * Interleave — pages round-robined across all nodes
//                  (mbind(MPOL_INTERLEAVE)): the bandwidth-over-locality
//                  baseline.
//   * Default    — leave the pages where first touch put them.
//
// Optionally the arrays are advised onto 2 MB transparent hugepages
// (madvise(MADV_HUGEPAGE)) first — fewer TLB entries for the multi-GB
// adjacency array, independent of the node policy.
//
// Everything here is best effort and degrades gracefully: a single-node
// topology, an emulated (PPSCAN_NUMA_NODES) topology, a kernel without
// the syscalls, or a denied mbind all leave the graph exactly as it was
// and record why in PlacementReport::fallback_reason — placement NEVER
// throws and never changes results, only page residency.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace ppscan {

struct NumaTopology;  // concurrent/topology.hpp; only a pointer is held

enum class GraphPlacement : std::uint8_t { Default, Sharded, Interleave };

std::string to_string(GraphPlacement placement);

struct PlacementOptions {
  GraphPlacement placement = GraphPlacement::Default;
  /// Advise the offsets/adjacency arrays onto transparent hugepages.
  bool hugepages = false;
  /// Topology for Sharded/Interleave; not owned. nullptr degrades to the
  /// single-node fallback (recorded, not an error).
  const NumaTopology* topology = nullptr;
};

struct PlacementReport {
  /// True when a node policy was actually applied (mbind succeeded, or the
  /// emulated topology recorded its shard split).
  bool applied = false;
  bool hugepages_advised = false;
  /// Non-empty when the request degraded (single node, emulated topology,
  /// unsupported platform, failed syscall): the one-line reason to surface.
  std::string fallback_reason;
  /// Sharded only: interior vertex boundaries of the per-node shards
  /// (num_nodes - 1 entries); shard k covers [bounds[k-1], bounds[k]).
  std::vector<VertexId> shard_bounds;
};

/// Splits [0, num_vertices) into `shards` contiguous vertex ranges with
/// near-equal *edge* counts (degree-weighted, one sweep over the offsets
/// array): returns the shards - 1 interior boundaries. Shards past the
/// edge supply (more shards than edges) collapse to empty ranges at the
/// tail. It serves the placement shards and ppSCAN's shard bounds; the
/// StaticRange scheduler policy has its own degree-prefix loop
/// (bundle_subrange in concurrent/task_scheduler.hpp).
std::vector<VertexId> edge_balanced_boundaries(
    const std::vector<EdgeId>& offsets, std::size_t shards);

}  // namespace ppscan
