#include "scan/anyscan_lite.hpp"

#include <algorithm>

#include "concurrent/task_scheduler.hpp"
#include "concurrent/executor.hpp"
#include "concurrent/run_governor.hpp"
#include "concurrent/union_find.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "setops/intersect.hpp"
#include "util/thread_safety.hpp"
#include "util/timer.hpp"

namespace ppscan {
namespace {

/// Per-arc decision without any cross-vertex sharing: the owner of the
/// *directed* arc writes it, so both (u,v) and (v,u) may be computed — the
/// redundancy anySCAN accepts.
struct ArcEval {
  std::int32_t flag;  // kSimFlag / kNSimFlag
  bool computed;      // true when an actual intersection ran
};

ArcEval evaluate_arc(const CsrGraph& graph, const ScanParams& params,
                     VertexId u, VertexId v) {
  const VertexId du = graph.degree(u);
  const VertexId dv = graph.degree(v);
  const std::uint32_t need = min_common_neighbors(params.eps, du, dv);
  if (need <= 2) return {kSimFlag, false};
  if (need > std::min(du, dv) + 1) return {kNSimFlag, false};
  const bool sim =
      similar_merge_early_stop(graph.neighbors(u), graph.neighbors(v), need);
  return {sim ? kSimFlag : kNSimFlag, true};
}

}  // namespace

ScanRun anyscan_lite(const CsrGraph& graph, const ScanParams& params,
                     const AnyScanLiteOptions& options) {
  WallTimer total;
  const VertexId n = graph.num_vertices();
  ScanRun run;
  run.result.roles.assign(n, Role::Unknown);
  run.result.core_cluster_id.assign(n, kInvalidVertex);

  RunGovernor governor(options.limits, options.cancel);
  // Charge the big state arrays before allocating; overshoot (or bad_alloc)
  // aborts before any phase with the all-Unknown result.
  std::vector<std::int32_t> sim;  // per-arc cache owned by the arc's tail
  ParallelUnionFind uf;
  std::vector<VertexId> cluster_id;
  const std::uint64_t state_bytes =
      static_cast<std::uint64_t>(graph.num_arcs()) * sizeof(std::int32_t) +
      static_cast<std::uint64_t>(n) *
          (2 * sizeof(VertexId) + sizeof(std::uint8_t));
  bool alloc_ok = governor.try_charge(state_bytes, "anyscan state arrays");
  if (alloc_ok) {
    try {
      sim.assign(graph.num_arcs(), kSimUncached);
      uf.reset(n);
      cluster_id.assign(n, kInvalidVertex);
    } catch (const std::bad_alloc&) {
      governor.record_alloc_failure(state_bytes, "anyscan state arrays");
      alloc_ok = false;
    }
  }

  Executor pool(options.num_threads);
  pool.install_governor(&governor);
  if (options.trace != nullptr) pool.install_trace(options.trace);
  // Per-worker counter slots (workers 0..N-1, last = master fallback);
  // merged serially after the final phase barrier.
  obs::CounterSlots counters(static_cast<std::size_t>(options.num_threads) +
                             1);
  const auto counter_slot = [&]() -> obs::AlgoCounters& {
    const int w = pool.current_worker();
    return counters.slot(w >= 0 ? static_cast<std::size_t>(w)
                                : counters.size() - 1);
  };
  SchedulerOptions sched;
  sched.governor = &governor;
  const auto degree_of = [&](VertexId u) { return graph.degree(u); };

  const auto phase = [&](const char* name, auto&& body) {
    if (governor.should_stop()) return;
    governor.enter_phase(name);
    // Re-check: the cancel_at_phase test hook trips on phase entry.
    if (governor.should_stop()) return;
    PPSCAN_TRACE_SET_PHASE(options.trace, name);
    PPSCAN_TRACE_MASTER_EVENT(options.trace, obs::TraceEventKind::PhaseBegin,
                              name, 0);
    body();
    PPSCAN_TRACE_MASTER_EVENT(options.trace, obs::TraceEventKind::PhaseEnd,
                              name, 0);
    if (!governor.should_stop()) governor.finish_phase();
  };

  if (alloc_ok) {
    // Role computing, block by block (the anytime-style outer iteration).
    // Each role is decided from the vertex's own arcs alone, so every role
    // written before a trip is final.
    phase("Roles", [&] {
      for (VertexId block_begin = 0; block_begin < n;
           block_begin += options.block_size) {
        if (governor.checkpoint()) break;
        const VertexId block_end =
            std::min<VertexId>(block_begin + options.block_size, n);
        const VertexId width = block_end - block_begin;
        schedule_vertex_tasks(
            pool, width,
            [&](VertexId i) { return graph.degree(block_begin + i); },
            [](VertexId) { return true; },
            [&](VertexId i) {
              const VertexId u = block_begin + i;
              // Dynamic scratch per vertex — deliberately allocation-heavy.
              std::vector<std::int32_t> local_flags;
              local_flags.reserve(graph.degree(u));
              std::uint32_t sd = 0;
              std::uint32_t ed = graph.degree(u);
              obs::AlgoCounters& c = counter_slot();
              for (EdgeId e = graph.offset_begin(u); e < graph.offset_end(u);
                   ++e) {
                const ArcEval eval =
                    evaluate_arc(graph, params, u, graph.dst()[e]);
                // Each direction is evaluated by its own tail (anySCAN's
                // accepted redundancy): one touched arc, pruned or computed.
                c.arcs_touched += 1;
                if (eval.computed) {
                  c.sims_computed += 1;
                } else {
                  c.arcs_predicate_pruned += 1;
                }
                sim[e] = eval.flag;
                local_flags.push_back(eval.flag);
                if (eval.flag == kSimFlag) {
                  ++sd;
                } else {
                  --ed;
                }
                if (sd >= params.mu || ed < params.mu) {  // local min-max
                  c.core_early_exits += 1;
                  break;
                }
              }
              run.result.roles[u] =
                  sd >= params.mu ? Role::Core : Role::NonCore;
            },
            sched);
      }
    });

    // Clustering: cores complete their arc evaluations (a second source of
    // redundancy — edges cut short by the role phase are recomputed).
    // guards: core_noncore_sim_edges — workers merge their local batches.
    CheckedMutex merge_mutex;
    std::vector<std::pair<VertexId, VertexId>> core_noncore_sim_edges;
    phase("ClusterCore", [&] {
      schedule_vertex_tasks(
          pool, n, degree_of,
          [&](VertexId u) { return run.result.roles[u] == Role::Core; },
          [&](VertexId u) {
            std::vector<std::pair<VertexId, VertexId>> local;
            obs::AlgoCounters& c = counter_slot();
            for (EdgeId e = graph.offset_begin(u); e < graph.offset_end(u);
                 ++e) {
              const VertexId v = graph.dst()[e];
              std::int32_t flag = sim[e];
              if (flag == kSimUncached) {
                const ArcEval eval = evaluate_arc(graph, params, u, v);
                c.arcs_touched += 1;
                if (eval.computed) {
                  c.sims_computed += 1;
                } else {
                  c.arcs_predicate_pruned += 1;
                }
                flag = eval.flag;
                sim[e] = flag;
              }
              if (flag != kSimFlag) continue;
              if (run.result.roles[v] == Role::Core) {
                if (u < v) c.uf_unions += uf.unite(u, v) ? 1 : 0;
              } else {
                local.emplace_back(u, v);
              }
            }
            if (!local.empty()) {
              CheckedLock lock(merge_mutex);
              core_noncore_sim_edges.insert(core_noncore_sim_edges.end(),
                                            local.begin(), local.end());
            }
          },
          sched);
    });

    // Cluster ids (min core id per set), then non-core memberships. Skipped
    // when the run tripped earlier so an unclustered core keeps
    // kInvalidVertex instead of being fabricated into a singleton cluster.
    phase("AssignIds", [&] {
      // Serial phase body — the calling thread uses the master fallback slot.
      obs::AlgoCounters& c = counters.slot(counters.size() - 1);
      for (VertexId u = 0; u < n; ++u) {
        if (run.result.roles[u] != Role::Core) continue;
        c.uf_finds += 1;
        const VertexId root = uf.find_counted(u, &c.uf_find_steps);
        cluster_id[root] = std::min(cluster_id[root], u);
      }
      for (VertexId u = 0; u < n; ++u) {
        if (run.result.roles[u] != Role::Core) continue;
        c.uf_finds += 1;
        run.result.core_cluster_id[u] =
            cluster_id[uf.find_counted(u, &c.uf_find_steps)];
      }
      for (const auto& [core, noncore] : core_noncore_sim_edges) {
        c.uf_finds += 1;
        run.result.noncore_memberships.emplace_back(
            noncore, cluster_id[uf.find_counted(core, &c.uf_find_steps)]);
      }
    });
  }

  run.result.normalize();
  // Phase barriers ordered every worker's slot writes before this merge.
  run.stats.counters = counters.merged();
  record_executor(pool, run.stats);
  run.stats.compsim_invocations = run.stats.counters.sims_computed;
  run.stats.total_seconds = total.elapsed_s();
  record_governance(governor, run.stats);
  return run;
}

}  // namespace ppscan
