// GS*-Index — a similarity index answering SCAN queries for arbitrary
// (ε, µ) without recomputing intersections (after Wen et al., "Efficient
// Structural Graph Clustering: An Index-Based Approach", VLDB 2017).
//
// The paper under reproduction cites this approach as the indexing
// alternative to ppSCAN and argues its construction cost — an exhaustive
// similarity computation over every edge — is prohibitive on massive
// graphs. This module implements the index so that trade-off can be
// measured rather than asserted (bench_index_vs_online, serve/):
//
//   * Construction intersects every edge once (parallel, SIMD exact count)
//     and sorts each vertex's neighbors by similarity descending
//     ("neighbor order"). A last pass builds one "core order" per µ: every
//     vertex of degree ≥ µ, sorted by the σ of its µ-th neighbor-order
//     entry descending, ties by id.
//   * A query's core test is one binary search over the µ core order: the
//     cores of (ε, µ) are exactly its ε-similar prefix (O(log |V|) exact
//     tests). Clustering walks only the ε-similar prefixes of the cores'
//     neighbor orders; because those are sorted by σ descending, each
//     prefix boundary is found by binary search (O(log d) exact tests).
//     The remaining per-query sweeps visit cores in vertex-id order, which
//     costs O(|V|) one-byte role reads on top of the answer-sized work:
//     walking the core prefix in σ order instead turns the offset and
//     union-find accesses random, which measured slower on low-ε queries.
//
// Similarities are kept exact: per neighbor-order slot we store the
// closed-neighborhood overlap cn = |Γ(u)∩Γ(v)| and the neighbor's degree,
// the product P = (d_u+1)(d_v+1) is formed on use, and σ(u,v) ≥ a/b is
// evaluated as cn²b² ≥ a²P in 128-bit arithmetic — identical decisions
// to every other algorithm in the library.
#pragma once

#include <cstdint>
#include <vector>

#include "concurrent/union_find.hpp"
#include "graph/csr_graph.hpp"
#include "scan/scan_common.hpp"
#include "setops/intersect.hpp"

namespace ppscan {

class GsIndex {
 public:
  struct BuildOptions {
    int num_threads = 1;
    /// Exact-count kernel used for the exhaustive construction pass. Auto
    /// probes each neighbor list against a per-worker bitmap of N(u)
    /// (count_marked); the explicit kinds run their sorted-list counts.
    IntersectKind count_kernel = IntersectKind::Auto;
    /// Run governance for the construction pass (the paper's argument
    /// against indexing is exactly that this pass is expensive — a deadline
    /// or budget makes it abortable). Default limits govern nothing.
    RunLimits limits;
    /// Optional external cancel token; not owned, may be null.
    CancelToken* cancel = nullptr;
    /// Optional trace collector (obs/trace.hpp): phase spans land on its
    /// master slot. Not owned; must be sized for at least num_threads
    /// workers and outlive the construction.
    obs::TraceCollector* trace = nullptr;
  };

  struct BuildStats {
    double construction_seconds = 0;
    std::uint64_t intersections = 0;
    /// Pruning-funnel counters for the construction pass (obs/counters.hpp).
    obs::AlgoCounters counters;
    /// Why an aborted construction stopped; reason None = built fully.
    RunAborted abort;
  };

  /// Reusable per-caller query state. A fresh query() call used to allocate
  /// a full-graph union-find plus label/boundary arrays every time; a
  /// long-lived caller (serve::QueryService keeps one per service worker)
  /// passes the same scratch to every query so the buffers are reset, not
  /// reallocated. A default-constructed scratch is valid for any graph —
  /// query() sizes it on entry.
  struct QueryScratch {
    UnionFind uf;
    /// Per-vertex one-past-the-end neighbor-order slot of the ε-similar
    /// prefix; written for cores during the clustering phase and reused by
    /// the membership phase. Meaningless for non-cores.
    std::vector<EdgeId> prefix_end;
    /// Per-root minimum core id, the cluster-id convention shared with the
    /// other algorithms. Reset for cores (the only roots) during the
    /// clustering phase; meaningless for non-cores.
    std::vector<VertexId> cluster_label;
  };

  /// Builds the index: one exact intersection per edge plus the per-vertex
  /// similarity sort. The referenced graph must outlive the index.
  GsIndex(const CsrGraph& graph, const BuildOptions& options);
  explicit GsIndex(const CsrGraph& graph) : GsIndex(graph, BuildOptions{}) {}

  /// Answers a SCAN query; the result is bit-identical to running any of
  /// the library's SCAN algorithms with the same parameters. Throws
  /// std::logic_error when the construction was aborted (an incomplete
  /// neighbor order would answer queries wrongly, not partially).
  [[nodiscard]] ScanRun query(const ScanParams& params) const;

  /// Governed query: same answers, but scratch buffers are caller-pooled
  /// and an optional per-query governor applies the library's partial-result
  /// semantics (scan_common.hpp) to the query itself — a deadline or
  /// cancel trip returns a labeled partial run whose decided portion is
  /// final. Phases, in cancel_at_phase ordinal order: QCoreTest,
  /// QCoreCluster, QLabelCores, QMembership. `governor` may be null.
  [[nodiscard]] ScanRun query(const ScanParams& params, QueryScratch& scratch,
                              RunGovernor* governor) const;

  /// False when a governed construction hit a limit; build_stats().abort
  /// says why. An incomplete index refuses queries.
  [[nodiscard]] bool complete() const { return complete_; }

  [[nodiscard]] const BuildStats& build_stats() const { return build_stats_; }

  /// The graph this index answers queries for.
  [[nodiscard]] const CsrGraph& graph() const { return graph_; }

  /// Index memory footprint (overlap, neighbor-order and core-order
  /// arrays), for the construction cost discussion.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Exact closed-neighborhood overlap |Γ(u)∩Γ(v)| of arc `e` (testing).
  [[nodiscard]] std::uint32_t arc_overlap(EdgeId e) const {
    return overlap_[e];
  }

 private:
  /// σ(neighbor-order entry `slot` of vertex `u`) ≥ ε via the stored cn
  /// and the degree product P = (d_u+1)(d_v+1).
  [[nodiscard]] bool entry_similar(const EpsRational& eps, VertexId u,
                                   EdgeId slot) const;

  /// One-past-the-end slot of core `u`'s ε-similar prefix, by binary search
  /// over the σ-descending neighbor order. Entries [begin, begin+µ) are
  /// known similar for a core, so the search covers [begin+µ, end). Every
  /// probe is an index-entry similarity decision and is counted as
  /// arcs_touched + sims_reused.
  [[nodiscard]] EdgeId prefix_boundary(const EpsRational& eps, VertexId u,
                                       std::uint32_t mu,
                                       obs::AlgoCounters& qc) const;

  const CsrGraph& graph_;
  /// cn per directed arc, aligned with the CSR dst array (arc_overlap()).
  std::vector<std::uint32_t> overlap_;
  /// Neighbor order, one entry per arc slot, each vertex's window re-ordered
  /// by σ descending. Three parallel arrays so a prefix walk is sequential
  /// loads with no indirection back through the CSR: the neighbor itself,
  /// its overlap cn, and its degree (entry_similar forms P from it).
  std::vector<VertexId> ordered_dst_;
  std::vector<std::uint32_t> ordered_cn_;
  std::vector<std::uint32_t> ordered_deg_;
  /// Core orders for µ = 1…max degree, concatenated: the order for µ is
  /// core_order_[core_order_begin_[µ-1], core_order_begin_[µ]) and lists
  /// every vertex of degree ≥ µ by the σ of its µ-th neighbor-order entry,
  /// descending, ties by id. Σ_µ |{u : d_u ≥ µ}| = Σ_u d_u = |arcs|.
  std::vector<VertexId> core_order_;
  std::vector<EdgeId> core_order_begin_;
  BuildStats build_stats_;
  bool complete_ = false;
};

}  // namespace ppscan
