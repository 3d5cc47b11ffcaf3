#include "scan/scanxp.hpp"

#include "concurrent/executor.hpp"
#include "concurrent/run_governor.hpp"
#include "concurrent/task_scheduler.hpp"
#include "concurrent/union_find.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "setops/intersect.hpp"
#include "util/timer.hpp"

namespace ppscan {

ScanRun scanxp(const CsrGraph& graph, const ScanParams& params,
               const ScanXpOptions& options) {
  WallTimer total;
  const VertexId n = graph.num_vertices();
  ScanRun run;
  run.result.roles.assign(n, Role::Unknown);
  run.result.core_cluster_id.assign(n, kInvalidVertex);

  RunGovernor governor(options.limits, options.cancel);
  // Charge the big state arrays up front; a budget overshoot (or a real
  // bad_alloc) aborts before any phase and yields the all-Unknown result.
  std::vector<std::int32_t> sim;
  ParallelUnionFind uf;
  // protocol: relaxed-guarded — cluster-id min-CAS, same argument as
  // ppSCAN's cluster_id_ (monotone lowering + phase barrier re-read).
  AtomicArray<VertexId> cluster_id;
  const std::uint64_t state_bytes =
      static_cast<std::uint64_t>(graph.num_arcs()) * sizeof(std::int32_t) +
      static_cast<std::uint64_t>(n) *
          (2 * sizeof(VertexId) + sizeof(std::uint8_t));
  bool alloc_ok = governor.try_charge(state_bytes, "scanxp state arrays");
  if (alloc_ok) {
    try {
      sim.assign(graph.num_arcs(), kSimUncached);
      uf.reset(n);
      cluster_id.assign(n, kInvalidVertex);
    } catch (const std::bad_alloc&) {
      governor.record_alloc_failure(state_bytes, "scanxp state arrays");
      alloc_ok = false;
    }
  }

  Executor executor(options.num_threads);
  executor.install_governor(&governor);
  if (options.trace != nullptr) executor.install_trace(options.trace);
  // Per-worker counter slots (workers 0..N-1, last = master fallback);
  // merged serially after the final executor barrier.
  obs::CounterSlots counters(static_cast<std::size_t>(options.num_threads) +
                             1);
  const auto counter_slot = [&]() -> obs::AlgoCounters& {
    const int w = executor.current_worker();
    return counters.slot(w >= 0 ? static_cast<std::size_t>(w)
                                : counters.size() - 1);
  };
  SchedulerOptions sched;
  sched.governor = &governor;
  std::vector<TaskRange> scratch;  // flat boundary array, reused per phase
  const CountFn count = count_fn(options.count_kernel);
  const auto degree_of = [&](VertexId u) { return graph.degree(u); };
  const auto all = [](VertexId) { return true; };

  // Governed phase wrapper: skipped entirely once the token tripped,
  // counted as completed only when it reached its barrier uncancelled.
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
    // Phase 1: exhaustive similarity, one full intersection per edge. The
    // u < v owner writes both arc directions; phases are separated by the
    // executor barrier so there are no concurrent readers.
    phase("Similarity", [&] {
      const auto stats = schedule_vertex_tasks(
          executor, n, degree_of, all,
          [&](VertexId u) {
            obs::AlgoCounters& c = counter_slot();
            for (EdgeId e = graph.offset_begin(u); e < graph.offset_end(u);
                 ++e) {
              const VertexId v = graph.dst()[e];
              if (u >= v) continue;
              const std::uint64_t common =
                  count(graph.neighbors(u), graph.neighbors(v));
              const bool s =
                  similarity_holds(params.eps, common + 2, graph.degree(u),
                                   graph.degree(v));
              const std::int32_t flag = s ? kSimFlag : kNSimFlag;
              sim[e] = flag;
              sim[graph.reverse_arc(u, e)] = flag;
              // One intersection per u < v edge decides both directions:
              // computed arc + mirrored (reused) reverse arc, no pruning.
              c.arcs_touched += 2;
              c.sims_computed += 1;
              c.sims_reused += 1;
            }
          },
          sched, &scratch);
      run.stats.tasks_submitted += stats.tasks_submitted;
    });

    // Phase 2: roles from the similar-degree counts. Runs only after the
    // similarity phase completed (a cancelled run skips it), so every role
    // it writes is final.
    phase("Roles", [&] {
      const auto stats = schedule_vertex_tasks(
          executor, n, degree_of, all,
          [&](VertexId u) {
            std::uint32_t sd = 0;
            for (EdgeId e = graph.offset_begin(u); e < graph.offset_end(u);
                 ++e) {
              if (sim[e] == kSimFlag) ++sd;
            }
            run.result.roles[u] =
                sd >= params.mu ? Role::Core : Role::NonCore;
          },
          sched, &scratch);
      run.stats.tasks_submitted += stats.tasks_submitted;
    });

    // Phase 3: core clustering over similar core-core edges.
    phase("ClusterCore", [&] {
      const auto stats = schedule_vertex_tasks(
          executor, n, degree_of,
          [&](VertexId u) { return run.result.roles[u] == Role::Core; },
          [&](VertexId u) {
            for (EdgeId e = graph.offset_begin(u); e < graph.offset_end(u);
                 ++e) {
              const VertexId v = graph.dst()[e];
              if (u >= v || sim[e] != kSimFlag) continue;
              if (run.result.roles[v] == Role::Core) {
                counter_slot().uf_unions += uf.unite(u, v) ? 1 : 0;
              }
            }
          },
          sched, &scratch);
      run.stats.tasks_submitted += stats.tasks_submitted;
    });

    // Cluster ids: minimum core id per set (CAS-min).
    phase("InitClusterId", [&] {
      const auto stats = schedule_vertex_tasks(
          executor, n, degree_of,
          [&](VertexId u) { return run.result.roles[u] == Role::Core; },
          [&](VertexId u) {
            obs::AlgoCounters& c = counter_slot();
            c.uf_finds += 1;
            const VertexId root = uf.find_counted(u, &c.uf_find_steps);
            VertexId current = cluster_id.load(root);
            while (u < current &&
                   !cluster_id.compare_exchange(root, current, u)) {
            }
          },
          sched, &scratch);
      run.stats.tasks_submitted += stats.tasks_submitted;
    });

    // Phase 4: non-core memberships into per-worker buffers (no merge
    // lock), concatenated serially after the barrier.
    struct alignas(64) Slot {
      std::vector<std::pair<VertexId, VertexId>> pairs;
    };
    std::vector<Slot> slots(static_cast<std::size_t>(options.num_threads) +
                            1);
    phase("ClusterNonCore", [&] {
      const auto stats = schedule_vertex_tasks(
          executor, n, degree_of,
          [&](VertexId u) { return run.result.roles[u] == Role::Core; },
          [&](VertexId u) {
            const int w = executor.current_worker();
            auto& local =
                slots[w >= 0 ? static_cast<std::size_t>(w)
                             : slots.size() - 1]
                    .pairs;
            for (EdgeId e = graph.offset_begin(u); e < graph.offset_end(u);
                 ++e) {
              const VertexId v = graph.dst()[e];
              if (sim[e] != kSimFlag || run.result.roles[v] == Role::Core) {
                continue;
              }
              obs::AlgoCounters& c = counter_slot();
              c.uf_finds += 1;
              local.emplace_back(
                  v, cluster_id.load(uf.find_counted(u, &c.uf_find_steps)));
            }
          },
          sched, &scratch);
      run.stats.tasks_submitted += stats.tasks_submitted;
    });
    std::size_t member_count = 0;
    for (const auto& s : slots) member_count += s.pairs.size();
    run.result.noncore_memberships.reserve(member_count);
    for (const auto& s : slots) {
      run.result.noncore_memberships.insert(
          run.result.noncore_memberships.end(), s.pairs.begin(),
          s.pairs.end());
    }

    // Serial tail (after the last barrier): the master fallback slot.
    obs::AlgoCounters& mc = counters.slot(counters.size() - 1);
    for (VertexId u = 0; u < n; ++u) {
      if (run.result.roles[u] == Role::Core) {
        mc.uf_finds += 1;
        run.result.core_cluster_id[u] =
            cluster_id.load(uf.find_counted(u, &mc.uf_find_steps));
      }
    }
  }

  run.result.normalize();
  // The executor barrier above ordered every worker's slot writes before
  // this serial merge.
  run.stats.counters = counters.merged();
  run.stats.compsim_invocations = run.stats.counters.sims_computed;
  record_executor(executor, run.stats);
  run.stats.total_seconds = total.elapsed_s();
  record_governance(governor, run.stats);
  return run;
}

}  // namespace ppscan
