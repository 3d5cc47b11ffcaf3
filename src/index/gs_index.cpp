#include "index/gs_index.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <span>
#include <stdexcept>
#include <utility>

#include "concurrent/task_scheduler.hpp"
#include "concurrent/executor.hpp"
#include "concurrent/run_governor.hpp"
#include "obs/trace.hpp"
#include "setops/intersect.hpp"
#include "util/fault_point.hpp"
#include "util/timer.hpp"

namespace ppscan {
namespace {

using U128 = unsigned __int128;

/// One side of an exact σ comparison: the overlap cn of an arc, the degrees
/// of its endpoints, and the id that breaks ties.
struct SigmaEntry {
  std::uint32_t cn;
  VertexId d_src;
  VertexId d_dst;
  VertexId id;
};

/// σ(a) > σ(b) exactly: cn_a²·P_b > cn_b²·P_a with P = (d_src+1)(d_dst+1)
/// in 128-bit integers. Ties break by id so every order (and thus every
/// query) is deterministic.
inline bool sigma_greater(const SigmaEntry& a, const SigmaEntry& b) {
  const U128 pa = (U128(a.d_src) + 1) * (U128(a.d_dst) + 1);
  const U128 pb = (U128(b.d_src) + 1) * (U128(b.d_dst) + 1);
  const U128 lhs = U128(a.cn) * a.cn * pb;
  const U128 rhs = U128(b.cn) * b.cn * pa;
  if (lhs != rhs) return lhs > rhs;
  return a.id < b.id;
}

/// Neighbor order: two arcs of source vertex `u`, ties by neighbor id.
struct SigmaGreater {
  const CsrGraph& graph;
  const std::vector<std::uint32_t>& overlap;
  VertexId u;

  [[nodiscard]] SigmaEntry entry(EdgeId e) const {
    const VertexId v = graph.dst()[e];
    return {overlap[e], graph.degree(u), graph.degree(v), v};
  }
  bool operator()(EdgeId a, EdgeId b) const {
    return sigma_greater(entry(a), entry(b));
  }
};

/// Core order for µ: the µ-th neighbor-order entries of two vertices, ties
/// by vertex id.
struct CoreGreater {
  const CsrGraph& graph;
  const std::vector<std::uint32_t>& cn;
  const std::vector<std::uint32_t>& deg;
  std::uint32_t mu;

  [[nodiscard]] SigmaEntry entry(VertexId w) const {
    const EdgeId slot = graph.offset_begin(w) + mu - 1;
    return {cn[slot], graph.degree(w), deg[slot], w};
  }
  bool operator()(VertexId a, VertexId b) const {
    return sigma_greater(entry(a), entry(b));
  }
};

/// How core-order sort keys are built and how far they can be trusted.
/// A key word holds a vertex id in its low `id_bits` and, above it, the
/// bit-inverted double cn²/P with its mantissa truncated to fit, so that
/// ascending words mean descending σ with ties by id.
struct CoreKeys {
  int id_bits;
  /// cn² and P are exact doubles (below 2^53). Division and truncation
  /// are then monotone, so a strictly smaller key means a strictly larger
  /// σ; otherwise only the exact comparator orders correctly.
  bool monotone;
  /// Distinct σ values also get distinct keys: two distinct cn²/P differ
  /// by a relative 1/(cn²·P') ≥ (d+1)^-4 for maximum degree d, more than
  /// the 2^-(52 - id_bits) the truncated double can blur.
  bool injective;

  CoreKeys(VertexId num_vertices, VertexId max_degree)
      : id_bits(std::max(1, static_cast<int>(std::bit_width(
                                 num_vertices > 0 ? num_vertices - 1 : 0)))) {
    const U128 bound = U128(max_degree) + 1;
    monotone = bound * bound < (U128(1) << 53);
    const int mantissa_bits = 52 - id_bits;
    injective = monotone && bound <= (U128(1) << 16) &&
                bound * bound * bound * bound <=
                    (U128(1) << (mantissa_bits - 1));
  }

  [[nodiscard]] std::uint64_t key(std::uint32_t cn, std::uint64_t pk,
                                  VertexId w) const {
    const double c = cn;
    const double sigma2 = c * c / static_cast<double>(pk);
    return (~std::bit_cast<std::uint64_t>(sigma2) >> id_bits << id_bits) | w;
  }
};

/// Orders shorter than this are sorted by std::sort on the key words; the
/// radix sort's 2048-bucket histograms only pay off above it.
constexpr std::size_t kRadixMinLength = 1024;

/// Sorts one core order. `keys` holds CoreKeys::key() of the vertices of
/// degree ≥ µ in id order; the sorted ids land in `order`. Long orders
/// take a stable LSD radix sort over the key bits (11-bit digits, skipping
/// any digit every key shares), which keeps equal keys in id order; short
/// ones sort the words. Unless the keys are injective, a run of equal keys
/// may hide distinct σ values and is re-sorted with the exact comparator —
/// as is the whole order when the keys are not even monotone. `tmp` is the
/// caller's reusable scratch.
void sort_core_order(std::span<std::uint64_t> keys,
                     std::span<VertexId> order, const CoreGreater& greater,
                     const CoreKeys& scheme, std::vector<std::uint64_t>& tmp) {
  const std::size_t len = keys.size();
  if (scheme.monotone && len >= kRadixMinLength) {
    tmp.resize(len);
    std::span<std::uint64_t> from = keys;
    std::span<std::uint64_t> to(tmp.data(), len);
    constexpr int kDigitBits = 11;
    constexpr std::uint64_t kMask = (std::uint64_t{1} << kDigitBits) - 1;
    for (int shift = scheme.id_bits; shift < 64; shift += kDigitBits) {
      std::array<std::size_t, kMask + 1> count{};
      for (const std::uint64_t k : from) ++count[(k >> shift) & kMask];
      if (count[(from[0] >> shift) & kMask] == len) continue;
      std::size_t sum = 0;
      for (auto& c : count) sum += std::exchange(c, sum);
      for (const std::uint64_t k : from) to[count[(k >> shift) & kMask]++] = k;
      std::swap(from, to);
    }
    keys = from;
  } else if (scheme.monotone) {
    std::sort(keys.begin(), keys.end());
  }
  const std::uint64_t id_mask = (std::uint64_t{1} << scheme.id_bits) - 1;
  for (std::size_t i = 0; i < len; ++i) {
    order[i] = static_cast<VertexId>(keys[i] & id_mask);
  }
  if (!scheme.monotone) {
    std::sort(order.begin(), order.end(), greater);
    return;
  }
  if (scheme.injective) return;
  for (std::size_t i = 0; i < len;) {
    std::size_t j = i + 1;
    const std::uint64_t key = keys[i] >> scheme.id_bits;
    while (j < len && (keys[j] >> scheme.id_bits) == key) ++j;
    const auto run = order.subspan(i, j - i);
    if (!std::is_sorted(run.begin(), run.end(), greater)) {
      std::sort(run.begin(), run.end(), greater);
    }
    i = j;
  }
}

/// cn²·b² ≥ a²·P with the degree product — the same decision as
/// similarity_holds() (setops/similarity.cpp), byte for byte: P fits u64
/// because degrees are 32-bit, and the comparison is 128-bit either way.
inline bool sim_from_key(const EpsRational& eps, std::uint32_t cn,
                         std::uint64_t pk) {
  const U128 lhs = U128(cn) * cn * eps.den * eps.den;
  const U128 rhs = U128(eps.num) * eps.num * pk;
  return lhs >= rhs;
}

/// How often the sequential query loops read the governor's clock: every
/// vertex polls the token implicitly via the stride check, every 256th pays
/// the deadline's clock read.
constexpr VertexId kGovernPollStride = 256;

}  // namespace

GsIndex::GsIndex(const CsrGraph& graph, const BuildOptions& options)
    : graph_(graph) {
  WallTimer timer;
  RunGovernor governor(options.limits, options.cancel);
  // Charge the index arrays against the memory budget before allocating —
  // the construction footprint is the cost the paper argues makes indexing
  // prohibitive, so it is the natural thing to bound. The slot permutation
  // is transient (the neighbor-order sort's arc ids, then the core-order
  // sort keys) and is uncharged again at the end.
  const auto arcs = static_cast<std::uint64_t>(graph.num_arcs());
  VertexId max_degree = 0;
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    max_degree = std::max(max_degree, graph.degree(u));
  }
  const std::uint64_t index_bytes =
      arcs * (sizeof(std::uint32_t) + sizeof(VertexId) +
              sizeof(std::uint32_t) + sizeof(std::uint32_t) +
              sizeof(VertexId)) +
      (std::uint64_t{max_degree} + 1) * sizeof(EdgeId);
  // One u64 per arc: the neighbor-order sort's arc ids, then the core-order
  // sort keys.
  const std::uint64_t sort_bytes = arcs * sizeof(std::uint64_t);
  std::vector<std::uint64_t> sort_slots;
  bool alloc_ok = governor.try_charge(index_bytes + sort_bytes,
                                      "gs-index arrays");
  if (alloc_ok) {
    try {
      overlap_.assign(graph.num_arcs(), 0);
      ordered_dst_.assign(graph.num_arcs(), 0);
      ordered_cn_.assign(graph.num_arcs(), 0);
      ordered_deg_.assign(graph.num_arcs(), 0);
      core_order_.assign(graph.num_arcs(), 0);
      core_order_begin_.assign(std::size_t{max_degree} + 1, 0);
      sort_slots.assign(graph.num_arcs(), 0);
    } catch (const std::bad_alloc&) {
      governor.record_alloc_failure(index_bytes + sort_bytes,
                                    "gs-index arrays");
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
  SchedulerOptions sched;
  sched.governor = &governor;
  const CountFn count = count_fn(options.count_kernel);
  // protocol: relaxed-counter — intersection tally, read at the final
  // barrier after the executor drains.
  std::atomic<std::uint64_t> intersections{0};
  const auto degree_of = [&](VertexId u) { return graph_.degree(u); };
  const auto all = [](VertexId) { return true; };

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
    // Exhaustive similarity: the u < v owner computes each edge once and
    // mirrors the overlap to the reverse arc (no readers until the barrier).
    phase("Overlap", [&] {
      schedule_vertex_tasks(
          pool, graph_.num_vertices(), degree_of, all,
          [&](VertexId u) {
            std::uint64_t local = 0;
            const int w = pool.current_worker();
            obs::AlgoCounters& c = counters.slot(
                w >= 0 ? static_cast<std::size_t>(w) : counters.size() - 1);
            for (EdgeId e = graph_.offset_begin(u); e < graph_.offset_end(u);
                 ++e) {
              const VertexId v = graph_.dst()[e];
              if (u >= v) continue;
              const auto cn = static_cast<std::uint32_t>(
                  count(graph_.neighbors(u), graph_.neighbors(v)) + 2);
              ++local;
              overlap_[e] = cn;
              overlap_[graph_.reverse_arc(u, e)] = cn;
              // Exhaustive build: one intersection per u < v edge decides
              // both directions (computed arc + mirrored reused arc).
              c.arcs_touched += 2;
              c.sims_computed += 1;
              c.sims_reused += 1;
            }
            intersections.fetch_add(local, std::memory_order_relaxed);
          },
          sched);
    });

    // Neighbor order: per-vertex arc slots sorted by σ descending, then
    // flattened into the (dst, cn, degree) query arrays so prefix walks
    // never chase arc ids again. Each vertex owns its window — no races.
    phase("NeighborOrder", [&] {
      schedule_vertex_tasks(
          pool, graph_.num_vertices(), degree_of, all,
          [&](VertexId u) {
            const EdgeId begin = graph_.offset_begin(u);
            const EdgeId end = graph_.offset_end(u);
            for (EdgeId e = begin; e < end; ++e) sort_slots[e] = e;
            std::sort(
                sort_slots.begin() + static_cast<std::ptrdiff_t>(begin),
                sort_slots.begin() + static_cast<std::ptrdiff_t>(end),
                SigmaGreater{graph_, overlap_, u});
            for (EdgeId e = begin; e < end; ++e) {
              const EdgeId arc = sort_slots[e];
              const VertexId v = graph_.dst()[arc];
              ordered_dst_[e] = v;
              ordered_cn_[e] = overlap_[arc];
              ordered_deg_[e] = graph_.degree(v);
            }
          },
          sched);
    });
    // Core orders: one sequential pass over the neighbor orders gathers
    // each µ's vertices (degree ≥ µ) in id order together with their sort
    // keys, reusing the slot-permutation buffer; then the orders sort in
    // parallel over µ. Each worker slot reuses one radix buffer of at most
    // the longest order's length, charged for every slot up front.
    const std::size_t slots =
        static_cast<std::size_t>(options.num_threads) + 1;
    std::uint64_t scratch_bytes = 0;
    phase("CoreOrder", [&] {
      std::vector<EdgeId> cursor(max_degree, 0);
      for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
        if (graph_.degree(u) > 0) ++cursor[graph_.degree(u) - 1];
      }
      // cursor[µ-1] = |{u : d_u ≥ µ}| after the suffix sum.
      for (VertexId mu = max_degree; mu > 1; --mu) {
        cursor[mu - 2] += cursor[mu - 1];
      }
      for (VertexId mu = 1; mu <= max_degree; ++mu) {
        core_order_begin_[mu] = core_order_begin_[mu - 1] + cursor[mu - 1];
        cursor[mu - 1] = core_order_begin_[mu - 1];
      }
      const CoreKeys scheme(graph_.num_vertices(), max_degree);
      std::vector<std::uint64_t>& keys = sort_slots;
      for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
        const std::uint64_t du1 = std::uint64_t{graph_.degree(u)} + 1;
        const EdgeId begin = graph_.offset_begin(u);
        for (EdgeId e = begin; e < graph_.offset_end(u); ++e) {
          keys[cursor[e - begin]++] = scheme.key(
              ordered_cn_[e], du1 * (std::uint64_t{ordered_deg_[e]} + 1), u);
        }
      }

      const EdgeId longest =
          max_degree > 0 ? core_order_begin_[1] - core_order_begin_[0] : 0;
      scratch_bytes = slots * longest * sizeof(std::uint64_t);
      if (!governor.try_charge(scratch_bytes, "gs-index core-order scratch")) {
        scratch_bytes = 0;
        return;
      }
      std::vector<std::vector<std::uint64_t>> tmp(slots);
      schedule_vertex_tasks(
          pool, max_degree,
          [&](VertexId i) {
            return core_order_begin_[i + 1] - core_order_begin_[i];
          },
          all,
          [&](VertexId i) {
            const int w = pool.current_worker();
            const std::size_t slot =
                w >= 0 ? static_cast<std::size_t>(w) : slots - 1;
            const EdgeId begin = core_order_begin_[i];
            const std::size_t len = core_order_begin_[i + 1] - begin;
            sort_core_order(std::span(keys.data() + begin, len),
                            std::span(core_order_.data() + begin, len),
                            CoreGreater{graph_, ordered_cn_, ordered_deg_,
                                        static_cast<std::uint32_t>(i + 1)},
                            scheme, tmp[slot]);
          },
          sched);
    });
    governor.uncharge(scratch_bytes);
    sort_slots = std::vector<std::uint64_t>();
    governor.uncharge(sort_bytes);
  }

  complete_ = alloc_ok && !governor.should_stop();
  // Phase barriers ordered every worker's slot writes before this merge.
  build_stats_.counters = counters.merged();
  build_stats_.intersections = intersections.load(std::memory_order_relaxed);
  build_stats_.construction_seconds = timer.elapsed_s();
  build_stats_.abort = governor.abort_info();
}

bool GsIndex::entry_similar(const EpsRational& eps, VertexId u,
                            EdgeId slot) const {
  return sim_from_key(eps, ordered_cn_[slot],
                      (std::uint64_t{graph_.degree(u)} + 1) *
                          (std::uint64_t{ordered_deg_[slot]} + 1));
}

EdgeId GsIndex::prefix_boundary(const EpsRational& eps, VertexId u,
                                std::uint32_t mu,
                                obs::AlgoCounters& qc) const {
  EdgeId lo = graph_.offset_begin(u) + mu;
  EdgeId hi = graph_.offset_end(u);
  while (lo < hi) {
    const EdgeId mid = lo + (hi - lo) / 2;
    qc.arcs_touched += 1;
    qc.sims_reused += 1;
    if (entry_similar(eps, u, mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

ScanRun GsIndex::query(const ScanParams& params) const {
  QueryScratch scratch;
  return query(params, scratch, nullptr);
}

ScanRun GsIndex::query(const ScanParams& params, QueryScratch& scratch,
                       RunGovernor* governor) const {
  if (!complete_) {
    throw std::logic_error("GsIndex::query on aborted construction (" +
                           build_stats_.abort.describe() + ")");
  }
  WallTimer timer;
  const VertexId n = graph_.num_vertices();
  ScanRun run;
  obs::AlgoCounters& qc = run.stats.counters;
  // Partial-result semantics (scan_common.hpp): roles start Unknown and the
  // core-test phase finalizes each vertex, so a governed trip leaves the
  // undecided suffix classified as Unknown rather than silently NonCore.
  run.result.roles.assign(n, Role::Unknown);
  run.result.core_cluster_id.assign(n, kInvalidVertex);
  scratch.uf.reset(n);
  // Written for every core before it is read; nothing else reads them.
  scratch.prefix_end.resize(n);
  scratch.cluster_label.resize(n);

  // Sequential-phase plumbing mirroring the governed algorithms: enter,
  // re-check (cancel_at_phase trips on entry), run, count the barrier only
  // when the body was not tripped mid-loop.
  const auto phase = [&](const char* name, auto&& body) {
    if (governor == nullptr) {
      body();
      return;
    }
    if (governor->should_stop()) return;
    governor->enter_phase(name);
    if (governor->should_stop()) return;
    body();
    if (!governor->should_stop()) governor->finish_phase();
  };
  const auto tripped = [&](VertexId u) {
    return governor != nullptr && (u % kGovernPollStride) == 0 &&
           governor->poll_deadline();
  };

  // Core test: the cores are the ε-similar prefix of the µ core order, one
  // binary search whose probes each consult one stored similarity. µ = 0
  // makes every vertex a core; µ above the maximum degree has no order and
  // no core.
  phase("QCoreTest", [&] {
    PPSCAN_FAULT_POINT("index.qcoretest");
    auto& roles = run.result.roles;
    const std::uint32_t mu = params.mu;
    if (mu == 0) {
      std::fill(roles.begin(), roles.end(), Role::Core);
      return;
    }
    if (mu < core_order_begin_.size()) {
      const auto first = core_order_.begin() +
                         static_cast<std::ptrdiff_t>(core_order_begin_[mu - 1]);
      const auto last = core_order_.begin() +
                        static_cast<std::ptrdiff_t>(core_order_begin_[mu]);
      const auto end = std::partition_point(first, last, [&](VertexId w) {
        qc.arcs_touched += 1;
        qc.sims_reused += 1;
        return entry_similar(params.eps, w, graph_.offset_begin(w) + mu - 1);
      });
      for (auto it = first; it != end; ++it) roles[*it] = Role::Core;
    }
    std::replace(roles.begin(), roles.end(), Role::Unknown, Role::NonCore);
  });

  // Core clustering: binary-search each core's ε-prefix boundary (the order
  // is σ-descending, so the boundary is the partition point), then union
  // along core–core prefix entries. Each consumed prefix entry is a stored
  // similarity the query relies on — counted as touched+reused, which is
  // what makes the funnel invariant meaningful for index queries.
  phase("QCoreCluster", [&] {
    PPSCAN_FAULT_POINT("index.qcorecluster");
    for (VertexId u = 0; u < n; ++u) {
      if (tripped(u)) return;
      if (run.result.roles[u] != Role::Core) continue;
      const EdgeId begin = graph_.offset_begin(u);
      const EdgeId pe = prefix_boundary(params.eps, u, params.mu, qc);
      scratch.prefix_end[u] = pe;
      scratch.cluster_label[u] = kInvalidVertex;  // every root is a core
      qc.arcs_touched += pe - begin;
      qc.sims_reused += pe - begin;
      for (EdgeId slot = begin; slot < pe; ++slot) {
        const VertexId v = ordered_dst_[slot];
        if (u < v && run.result.roles[v] == Role::Core) {
          qc.uf_unions += scratch.uf.unite(u, v) ? 1 : 0;
        }
      }
    }
  });

  // Cluster ids: the smallest core id in each set, the convention every
  // algorithm in the library shares.
  phase("QLabelCores", [&] {
    PPSCAN_FAULT_POINT("index.qlabelcores");
    for (VertexId u = 0; u < n; ++u) {
      if (tripped(u)) return;
      if (run.result.roles[u] != Role::Core) continue;
      qc.uf_finds += 1;
      const VertexId root = scratch.uf.find_counted(u, &qc.uf_find_steps);
      scratch.cluster_label[root] =
          std::min(scratch.cluster_label[root], u);
    }
  });

  // Membership: label each core and attach its ε-similar non-core prefix
  // neighbors. The cluster id is resolved once per core — the per-neighbor
  // uf.find() this loop used to make was both redundant (same root as two
  // lines above) and invisible to the uf_finds/uf_find_steps funnel.
  phase("QMembership", [&] {
    PPSCAN_FAULT_POINT("index.qmembership");
    for (VertexId u = 0; u < n; ++u) {
      if (tripped(u)) return;
      if (run.result.roles[u] != Role::Core) continue;
      qc.uf_finds += 1;
      const VertexId cid =
          scratch
              .cluster_label[scratch.uf.find_counted(u, &qc.uf_find_steps)];
      run.result.core_cluster_id[u] = cid;
      for (EdgeId slot = graph_.offset_begin(u);
           slot < scratch.prefix_end[u]; ++slot) {
        const VertexId v = ordered_dst_[slot];
        if (run.result.roles[v] != Role::Core) {
          run.result.noncore_memberships.emplace_back(v, cid);
        }
      }
    }
  });

  run.result.normalize();
  run.stats.total_seconds = timer.elapsed_s();
  if (governor != nullptr) record_governance(*governor, run.stats);
  return run;
}

std::uint64_t GsIndex::memory_bytes() const {
  return overlap_.size() * sizeof(std::uint32_t) +
         ordered_dst_.size() * sizeof(VertexId) +
         ordered_cn_.size() * sizeof(std::uint32_t) +
         ordered_deg_.size() * sizeof(std::uint32_t) +
         core_order_.size() * sizeof(VertexId) +
         core_order_begin_.size() * sizeof(EdgeId);
}

}  // namespace ppscan
