#include "core/ppscan.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "concurrent/executor.hpp"
#include "concurrent/topology.hpp"
#include "concurrent/union_find.hpp"
#include "graph/graph_placement.hpp"
#include "graph/reverse_index.hpp"
#include "obs/trace.hpp"
#include "util/atomic_array.hpp"
#include "util/timer.hpp"

namespace ppscan {
namespace {

class PpScanRunner {
 public:
  PpScanRunner(const CsrGraph& graph, const ScanParams& params,
               const PpScanOptions& options)
      : graph_(graph),
        params_(params),
        options_(options),
        kernel_(similar_fn(options.kernel)),
        governor_(options.limits, options.cancel),
        counters_(static_cast<std::size_t>(options.num_threads) + 1) {
    if (options.numa == NumaMode::Auto) {
      // Topology-aware executor: round-robin node assignment, workers
      // pinned to their node's CPUs, same-node-first steal order. A
      // single-node detection result degrades to the uniform executor
      // (the fallback reason lands in the trace, see run()).
      topo_ = options.topology != nullptr ? *options.topology
                                          : detect_topology();
      exec_ = std::make_unique<Executor>(options.num_threads, topo_,
                                         /*pin_workers=*/true);
    } else {
      exec_ = std::make_unique<Executor>(options.num_threads);
    }
    exec_->install_governor(&governor_);
    if (options.trace != nullptr) exec_->install_trace(options.trace);
    sched_ = options.scheduler;
    sched_.governor = &governor_;
    // Static partitions follow the degree mass: every ppSCAN phase's cost
    // is degree-shaped, so the StaticRange ablation splits by edge count
    // rather than vertex count (no effect on the default DegreeSum policy).
    sched_.edge_balanced_static = true;
    if (exec_->num_nodes() > 1) {
      // One edge-balanced vertex shard per NUMA node; bundled tasks never
      // cross a shard boundary and node k's workers claim shard k first —
      // the same split apply_placement() used to place the CSR pages.
      shard_bounds_ = edge_balanced_boundaries(
          graph.offsets(), static_cast<std::size_t>(exec_->num_nodes()));
      sched_.shard_bounds = &shard_bounds_;
    }
    // Charge the state arrays against the memory budget before allocating;
    // on overshoot (or a real bad_alloc) the run aborts before any phase
    // and returns the all-Unknown partial result. The Auto kernel adds one
    // marked-neighborhood bitmap per worker slot.
    const VertexId n = graph.num_vertices();
    const std::size_t slots = static_cast<std::size_t>(options.num_threads) + 1;
    const bool marked = options.kernel == IntersectKind::Auto;
    const std::uint64_t state_bytes =
        static_cast<std::uint64_t>(graph.num_arcs()) * sizeof(std::int32_t) +
        static_cast<std::uint64_t>(n) *
            (2 * sizeof(std::uint8_t) + 2 * sizeof(VertexId)) +
        (marked ? slots * NeighborMarks::bytes_for(n) : 0);
    alloc_ok_ = governor_.try_charge(state_bytes, "ppscan state arrays");
    if (alloc_ok_) {
      try {
        // PruneSim stores every arc, so its parallel stores are the first
        // touch of sim_ (no phase reads sim_ after a cancelled PruneSim).
        sim_.assign_for_overwrite(graph.num_arcs());
        roles_.assign(n, static_cast<std::uint8_t>(Role::Unknown));
        cluster_id_.assign(n, kInvalidVertex);
        uf_.reset(n);
        if (marked) marks_.assign(slots, NeighborMarks(n));
      } catch (const std::bad_alloc&) {
        governor_.record_alloc_failure(state_bytes, "ppscan state arrays");
        alloc_ok_ = false;
      }
    }
    // One membership buffer per worker plus a trailing slot for the master
    // (serial fallbacks) — the OpenMP policy's thread ids also land in
    // [0, num_threads). Padded so concurrent appends never share a line.
    membership_slots_.resize(slots);
  }

  ScanRun run() {
    WallTimer total;
    // One KernelDispatch event per run: the kernels themselves are the
    // innermost loops and must stay trace-free (the trace-hotpath lint
    // rule), so the kind is recorded here, once: Auto for the marked
    // probe, else the resolved sorted-list kernel.
    PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::KernelDispatch,
                              "kernel-dispatch",
                              marks_.empty() ? resolve_kernel(options_.kernel)
                                             : IntersectKind::Auto);
    // NUMA detection degrades, never errors: when Auto fell back to the
    // uniform single-node shape, one Mark records that the run is
    // effectively numa=off (the reason string lives in NumaTopology).
    if (options_.numa == NumaMode::Auto && !topo_.fallback_reason.empty()) {
      PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::Mark,
                                "numa-fallback", 0);
    }
    if (alloc_ok_ && options_.use_reverse_index && !governor_.should_stop()) {
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(graph_.num_arcs()) * sizeof(EdgeId);
      if (governor_.try_charge(bytes, "reverse arc index")) {
        try {
          reverse_index_ = ReverseArcIndex(graph_);
        } catch (const std::bad_alloc&) {
          governor_.record_alloc_failure(bytes, "reverse arc index");
        }
      }
    }
    if (alloc_ok_) {
      {
        ScopedAccumTimer t(stats_.stage_prune_seconds);
        phase("PruneSim", [this] { phase_prune_sim(); });
      }
      {
        ScopedAccumTimer t(stats_.stage_check_seconds);
        phase("CheckCore", [this] { phase_check_core(); });
        phase("ConsolidateCore", [this] { phase_consolidate_core(); });
      }
      {
        ScopedAccumTimer t(stats_.stage_core_cluster_seconds);
        phase("ClusterCoreWithoutCompSim",
              [this] { phase_cluster_core_without_compsim(); });
        phase("ClusterCoreWithCompSim",
              [this] { phase_cluster_core_with_compsim(); });
        phase("InitClusterId", [this] { phase_init_cluster_id(); });
      }
      {
        ScopedAccumTimer t(stats_.stage_noncore_cluster_seconds);
        phase("ClusterNonCore", [this] { phase_cluster_noncore(); });
      }
    }
    ScanRun run = assemble_result();
    run.stats = stats_;
    // The slot merge happens after every phase barrier (and after the
    // serial fallbacks returned), which is the happens-before edge the
    // plain per-worker counters need.
    run.stats.counters = counters_.merged();
    run.stats.compsim_invocations = run.stats.counters.sims_computed;
    record_executor(*exec_, run.stats);
    if (options_.scheduler.kind == SchedulerKind::OmpDynamic) {
      run.stats.runtime_kind = "openmp";
    }
    run.stats.numa_mode = to_string(options_.numa);
    run.stats.total_seconds = total.elapsed_s();
    record_governance(governor_, run.stats);
    return run;
  }

 private:
  [[nodiscard]] Role role_of(VertexId u) const {
    return static_cast<Role>(roles_.load(u));
  }
  void set_role(VertexId u, Role r) {
    roles_.store(u, static_cast<std::uint8_t>(r));
  }

  /// Runs one named phase under the governor: skipped entirely once the
  /// token is tripped, counted as completed only when it reached its
  /// barrier uncancelled. With a trace collector, the phase body runs
  /// inside a Begin/End span on the master slot, and the phase label is
  /// published so workers can name their task events.
  template <typename Body>
  void phase(const char* name, Body&& body) {
    if (governor_.should_stop()) return;
    governor_.enter_phase(name);
    // Re-check: the cancel_at_phase test hook trips on phase entry.
    if (governor_.should_stop()) {
      PPSCAN_TRACE_MASTER_EVENT(options_.trace,
                                obs::TraceEventKind::GovernorTrip,
                                "phase-skipped", 0);
      return;
    }
    PPSCAN_TRACE_SET_PHASE(options_.trace, name);
    PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::PhaseBegin,
                              name, 0);
    body();
    PPSCAN_TRACE_MASTER_EVENT(options_.trace, obs::TraceEventKind::PhaseEnd,
                              name, 0);
    if (!governor_.should_stop()) governor_.finish_phase();
  }

  template <typename NeedsWork, typename Work>
  void run_phase(NeedsWork&& needs_work, Work&& work) {
    const auto degree = [this](VertexId u) { return graph_.degree(u); };
    const ScheduleStats st = schedule_vertex_tasks(
        *exec_, graph_.num_vertices(), degree,
        std::forward<NeedsWork>(needs_work), std::forward<Work>(work), sched_,
        &range_scratch_);
    stats_.tasks_submitted += st.tasks_submitted;
  }

  // Phase 1 — PruneSim(u): settle arcs decidable from degrees, cache min_cn
  // for the rest, and initialize roles from the settled flags. Each directed
  // arc is written exactly by its tail; the head computes the identical
  // value for the reverse arc, so no mirroring (and no race) is needed here.
  void phase_prune_sim() {
    run_phase(
        [](VertexId) { return true; },
        [this](VertexId u) {
          std::uint32_t sd = 0;
          std::uint32_t ed = graph_.degree(u);
          std::uint64_t pruned = 0;
          for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u);
               ++e) {
            const VertexId v = graph_.dst()[e];
            const VertexId du = graph_.degree(u);
            const VertexId dv = graph_.degree(v);
            const std::uint32_t need =
                min_common_neighbors(params_.eps, du, dv);
            std::int32_t value = static_cast<std::int32_t>(std::max(1u, need));
            if (options_.predicate_pruning) {
              if (need <= 2) {
                value = kSimFlag;
                ++sd;
                ++pruned;
              } else if (need > std::min(du, dv) + 1) {
                value = kNSimFlag;
                --ed;
                ++pruned;
              }
            }
            sim_.store(e, value);
          }
          if (pruned != 0) {
            // Each direction is decided by its own tail here (no mirror),
            // so a predicate-settled arc is touched + pruned, once per
            // direction.
            obs::AlgoCounters& c = counters_.slot(worker_slot());
            c.arcs_touched += pruned;
            c.arcs_predicate_pruned += pruned;
          }
          if (sd >= params_.mu) {
            set_role(u, Role::Core);
          } else if (ed < params_.mu) {
            set_role(u, Role::NonCore);
          }
        });
  }

  /// Computes one undecided arc with the configured kernel and mirrors the
  /// flag onto the reverse arc (similarity-value reuse). Returns Sim? The
  /// Auto kernel probes N(v) against the slot's marks of N(u): every caller
  /// runs a vertex task's pairs for one u on one slot.
  bool compute_arc(VertexId u, EdgeId e, std::uint32_t min_cn) {
    const VertexId v = graph_.dst()[e];
    const std::size_t slot = worker_slot();
    const bool sim =
        marks_.empty()
            ? kernel_(graph_.neighbors(u), graph_.neighbors(v), min_cn)
            : similar_marked(marks_[slot], u, graph_.neighbors(u),
                             graph_.neighbors(v), min_cn);
    const std::int32_t flag = sim ? kSimFlag : kNSimFlag;
    sim_.store(e, flag);
    sim_.store(reverse_index_.empty() ? graph_.reverse_arc(u, e)
                                      : reverse_index_.reverse(e),
               flag);
    // One intersection decided two directed arcs: the computed one and the
    // mirrored reverse (the u < v reuse the funnel singles out).
    obs::AlgoCounters& c = counters_.slot(slot);
    c.arcs_touched += 2;
    c.sims_computed += 1;
    c.sims_reused += 1;
    return sim;
  }

  // Shared body of CheckCore / ConsolidateCore (Algorithm 3 lines 21-35).
  // Local sd/ed are rebuilt from the flag array each call — the paper's
  // decoupling of the shared sd/ed arrays.
  void check_core_impl(VertexId u, bool ordered) {
    std::uint32_t sd = 0;
    std::uint32_t ed = graph_.degree(u);
    const bool early = options_.minmax_pruning;

    // Pass 1: tally already-decided arcs.
    for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u); ++e) {
      const std::int32_t value = sim_.load(e);
      if (value == kSimFlag) {
        if (++sd >= params_.mu && early) {
          set_role(u, Role::Core);
          counters_.slot(worker_slot()).core_early_exits += 1;
          return;
        }
      } else if (value == kNSimFlag) {
        if (--ed < params_.mu && early) {
          set_role(u, Role::NonCore);
          counters_.slot(worker_slot()).core_early_exits += 1;
          return;
        }
      }
    }

    // Pass 2: compute undecided arcs (only the u < v ones when ordered).
    for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u); ++e) {
      const VertexId v = graph_.dst()[e];
      if (ordered && u >= v) continue;
      // Algorithm 3 contract: in the ordered phase only the u < v endpoint
      // may compute and mirror a shared arc — this is the sole writer-
      // exclusion argument for the concurrent sim_ stores in compute_arc.
      assert(!ordered || u < v);
      const std::int32_t value = sim_.load(e);
      if (value <= 0) continue;  // settled since pass 1 or during it
      if (compute_arc(u, e, static_cast<std::uint32_t>(value))) {
        if (++sd >= params_.mu && early) {
          set_role(u, Role::Core);
          counters_.slot(worker_slot()).core_early_exits += 1;
          return;
        }
      } else {
        if (--ed < params_.mu && early) {
          set_role(u, Role::NonCore);
          counters_.slot(worker_slot()).core_early_exits += 1;
          return;
        }
      }
    }

    // No early exit fired. When every arc of u is decided, sd == ed and the
    // role is final; otherwise (order-skipped arcs remain) the bounds may
    // still be conclusive, else the consolidating phase finishes the job.
    if (sd >= params_.mu) {
      set_role(u, Role::Core);
    } else if (ed < params_.mu) {
      set_role(u, Role::NonCore);
    }
  }

  // Phase 2 — CheckCore over still-unknown roles with the u < v constraint.
  void phase_check_core() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Unknown; },
        [this](VertexId u) { check_core_impl(u, /*ordered=*/true); });
  }

  // Phase 3 — ConsolidateCore: constraint dropped; Theorem 4.1 guarantees
  // the remaining computations are conflict- and duplicate-free.
  void phase_consolidate_core() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Unknown; },
        [this](VertexId u) { check_core_impl(u, /*ordered=*/false); });
  }

  // Phase 4 — unite cores over edges already known similar; forms the small
  // early clusters that power the union-find pruning of phase 5.
  void phase_cluster_core_without_compsim() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Core; },
        [this](VertexId u) {
          for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u);
               ++e) {
            const VertexId v = graph_.dst()[e];
            if (u >= v || role_of(v) != Role::Core) continue;
            if (sim_.load(e) != kSimFlag) continue;
            if (options_.unionfind_pruning && uf_.same_set(u, v)) continue;
            counters_.slot(worker_slot()).uf_unions +=
                uf_.unite(u, v) ? 1 : 0;
          }
        });
  }

  // Phase 5 — intersect the remaining unknown core-core edges; same-set
  // pairs skip the computation entirely (union-find pruning).
  void phase_cluster_core_with_compsim() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Core; },
        [this](VertexId u) {
          for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u);
               ++e) {
            const VertexId v = graph_.dst()[e];
            if (u >= v || role_of(v) != Role::Core) continue;
            const std::int32_t value = sim_.load(e);
            if (value <= 0) {
              if (value == kSimFlag &&
                  !(options_.unionfind_pruning && uf_.same_set(u, v))) {
                // Possible only when phase 4 raced a later flag write —
                // cannot happen with barriers, but uniting is idempotent.
                counters_.slot(worker_slot()).uf_unions +=
                    uf_.unite(u, v) ? 1 : 0;
              }
              continue;
            }
            if (options_.unionfind_pruning && uf_.same_set(u, v)) continue;
            if (compute_arc(u, e, static_cast<std::uint32_t>(value))) {
              counters_.slot(worker_slot()).uf_unions +=
                  uf_.unite(u, v) ? 1 : 0;
            }
          }
        });
  }

  // Phase 6 — cluster id of each set = minimum member core id, via CAS-min
  // (Algorithm 4 lines 17-23).
  void phase_init_cluster_id() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Core; },
        [this](VertexId u) {
          obs::AlgoCounters& c = counters_.slot(worker_slot());
          c.uf_finds += 1;
          const VertexId root = uf_.find_counted(u, &c.uf_find_steps);
          VertexId current = cluster_id_.load(root);
          while (u < current &&
                 !cluster_id_.compare_exchange(root, current, u)) {
          }
        });
  }

  /// Slot the calling thread may write without synchronization (both the
  /// membership buffers and the per-worker counter slots share this
  /// layout): its executor worker slot, its OpenMP thread slot under the
  /// omp policy, or the trailing master slot.
  [[nodiscard]] std::size_t worker_slot() const {
    const int w = exec_->current_worker();
    if (w >= 0) return static_cast<std::size_t>(w);
    if (omp_in_parallel() != 0) {
      return static_cast<std::size_t>(omp_get_thread_num()) %
             membership_slots_.size();
    }
    return membership_slots_.size() - 1;
  }

  // Phase 7 — cores assign their cluster id to ε-similar non-core
  // neighbors. Each worker appends to its own padded buffer — no lock on
  // the clustering hot path — and the buffers are merged once at the
  // barrier with a prefix-sum copy.
  void phase_cluster_noncore() {
    run_phase(
        [this](VertexId u) { return role_of(u) == Role::Core; },
        [this](VertexId u) {
          const std::size_t slot = worker_slot();
          auto& local = membership_slots_[slot].pairs;
          obs::AlgoCounters& c = counters_.slot(slot);
          c.uf_finds += 1;
          const VertexId cid =
              cluster_id_.load(uf_.find_counted(u, &c.uf_find_steps));
          for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u);
               ++e) {
            const VertexId v = graph_.dst()[e];
            if (role_of(v) != Role::NonCore) continue;
            std::int32_t value = sim_.load(e);
            if (value > 0) {
              value = compute_arc(u, e, static_cast<std::uint32_t>(value))
                          ? kSimFlag
                          : kNSimFlag;
            }
            if (value == kSimFlag) local.emplace_back(v, cid);
          }
        });
    merge_memberships();
  }

  /// Prefix-sum copy of the per-worker buffers into the flat membership
  /// list; parallel on the executor (one copy task per buffer).
  void merge_memberships() {
    const std::size_t slots = membership_slots_.size();
    std::vector<std::size_t> offset(slots + 1, 0);
    for (std::size_t i = 0; i < slots; ++i) {
      offset[i + 1] = offset[i] + membership_slots_[i].pairs.size();
    }
    memberships_.resize(offset[slots]);
    const auto copy_slot = [&](std::size_t i) {
      const auto& pairs = membership_slots_[i].pairs;
      std::copy(pairs.begin(), pairs.end(),
                memberships_.begin() + static_cast<std::ptrdiff_t>(offset[i]));
    };
    // A cancelled executor skips task bodies at claim time, which would
    // leave value-initialized {0, 0} holes from the resize above — pairs
    // that reference cluster 0 the run never formed. And the trip can land
    // *mid-copy* (the deadline fires whenever it fires), so checking the
    // token up front is not enough: the governor is uninstalled for the
    // duration of the merge instead. The copy moves only already-collected
    // data — bounded, allocation-free memcpy work — so letting it finish
    // under cancellation keeps the drain latency bound intact.
    if (offset[slots] > 0) {
      exec_->install_governor(nullptr);
      std::vector<TaskRange> copies;
      for (std::size_t i = 0; i < slots; ++i) {
        if (!membership_slots_[i].pairs.empty()) {
          copies.push_back({static_cast<VertexId>(i),
                            static_cast<VertexId>(i + 1)});
        }
      }
      exec_->run(copies.data(), copies.size(),
                 [&](VertexId beg, VertexId end) {
                   for (VertexId i = beg; i < end; ++i) copy_slot(i);
                 });
      exec_->install_governor(&governor_);
    }
  }

  ScanRun assemble_result() {
    ScanRun run;
    const VertexId n = graph_.num_vertices();
    run.result.core_cluster_id.assign(n, kInvalidVertex);
    if (!alloc_ok_) {
      // The state arrays were never allocated: every vertex stays Unknown.
      run.result.roles.assign(n, Role::Unknown);
      return run;
    }
    run.result.roles.resize(n);
    for (VertexId u = 0; u < n; ++u) {
      run.result.roles[u] = role_of(u);
      if (run.result.roles[u] == Role::Core) {
        run.result.core_cluster_id[u] = cluster_id_.load(uf_.find(u));
      }
    }
    run.result.noncore_memberships = std::move(memberships_);
    run.result.normalize();
    return run;
  }

  struct alignas(64) MembershipSlot {
    std::vector<std::pair<VertexId, VertexId>> pairs;
  };

  const CsrGraph& graph_;
  const ScanParams& params_;
  const PpScanOptions& options_;
  SimilarFn kernel_;
  // Declared before the runtimes so workers (which poll it) are joined
  // before the governor is destroyed.
  RunGovernor governor_;
  SchedulerOptions sched_;
  bool alloc_ok_ = true;
  // NumaMode::Auto only: the topology the executor was built from and the
  // per-node vertex shard boundaries sched_.shard_bounds points into.
  NumaTopology topo_;
  std::vector<VertexId> shard_bounds_;
  std::unique_ptr<Executor> exec_;
  std::vector<TaskRange> range_scratch_;
  ReverseArcIndex reverse_index_;
  ParallelUnionFind uf_;
  // protocol: relaxed-guarded — per-arc similarity state: every write is
  // either owner-exclusive (PruneSim writes each arc from its tail) or a
  // benign same-value race (the mirrored flag is a pure function of the
  // graph, so concurrent writers agree); phase barriers order the phases.
  AtomicArray<std::int32_t> sim_;
  // protocol: relaxed-guarded — roles move monotonically Unknown->decided
  // and a vertex's role is a function of the graph, so late readers see
  // either Unknown (recheck) or the same final value.
  AtomicArray<std::uint8_t> roles_;
  // protocol: relaxed-guarded — cluster-id min-CAS: the CAS loop only ever
  // lowers the id, and the merge phase re-reads after the barrier.
  AtomicArray<VertexId> cluster_id_;
  std::vector<MembershipSlot> membership_slots_;
  std::vector<std::pair<VertexId, VertexId>> memberships_;
  // Per-worker pruning-funnel slots (same slot layout as
  // membership_slots_); merged into RunStats::counters at the end.
  obs::CounterSlots counters_;
  // Auto kernel only: one marked neighbor list per worker slot (same
  // layout), each written only by the thread that owns the slot.
  std::vector<NeighborMarks> marks_;
  RunStats stats_;
};

}  // namespace

ScanRun ppscan(const CsrGraph& graph, const ScanParams& params,
               const PpScanOptions& options) {
  return PpScanRunner(graph, params, options).run();
}

}  // namespace ppscan
