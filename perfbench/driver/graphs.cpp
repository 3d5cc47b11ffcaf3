// The `graph` and `setops` layers as the benchmark drives them, plus the
// process-level measurement helpers.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "graph/edge_list_io.hpp"
#include "graph/generators.hpp"
#include "graph/graph_builder.hpp"
#include "setops/intersect.hpp"
#include "setops/similarity.hpp"

namespace perfbench {

using namespace ppscan;

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  N kB"
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak RSS to the current RSS
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS");
}

namespace {

/// Mixes `n` bytes into `h` a 64-bit word at a time (multiply-xorshift);
/// answers are hashed on the client threads, so this must be cheap.
void mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto step = [&h](std::uint64_t w) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    step(w);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, p + i, n - i);
  step(tail ^ (static_cast<std::uint64_t>(n) << 56));
}

}  // namespace

std::uint64_t result_digest(const ScanResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, result.roles.data(), result.roles.size() * sizeof(Role));
  mix(h, result.core_cluster_id.data(),
      result.core_cluster_id.size() * sizeof(VertexId));
  for (const auto& [v, c] : result.noncore_memberships) {
    const std::uint64_t pair = (static_cast<std::uint64_t>(v) << 32) | c;
    mix(h, &pair, sizeof pair);
  }
  return h;
}

GeneratedGraph generate_graph(GraphRecipe recipe, std::uint64_t seed,
                              const std::string& work_dir,
                              const std::string& tag) {
  // Parameters follow src/bench_support/datasets.cpp: friendster-sim at
  // scale 4 and 1, twitter-sim at scale 4. Only the seed differs.
  CsrGraph g;
  switch (recipe) {
    case GraphRecipe::FriendsterX4:
    case GraphRecipe::FriendsterX1: {
      LfrParams p;
      p.n = recipe == GraphRecipe::FriendsterX4 ? 440'000 : 110'000;
      p.avg_degree = 29;
      p.mixing = 0.3;
      p.min_community = 32;
      p.max_community = 1024;
      g = lfr_like(p, derive_seed(seed, 1));
      break;
    }
    case GraphRecipe::TwitterX4: {
      RmatParams p;
      p.scale = 17;  // 2^17 ≥ 4 × 32768
      p.edge_factor = 17.0;
      p.a = 0.57;
      p.b = 0.19;
      p.c = 0.19;
      g = rmat(p, derive_seed(seed, 2));
      break;
    }
  }
  GeneratedGraph out;
  out.num_vertices = g.num_vertices();
  out.edges = to_edge_list(g);
  // The builder sees edges in arbitrary order and orientation, as from a
  // file, not the sorted list to_edge_list returns.
  std::uint64_t state = derive_seed(seed, 3);
  for (std::size_t i = out.edges.size(); i > 1; --i) {
    std::swap(out.edges[i - 1], out.edges[splitmix64(state) % i]);
    if (splitmix64(state) & 1) {
      std::swap(out.edges[i - 1].first, out.edges[i - 1].second);
    }
  }
  std::filesystem::create_directories(work_dir);
  out.csr_path = (std::filesystem::path(work_dir) / (tag + ".csrbin")).string();
  write_csr_binary(g, out.csr_path);
  return out;
}

IngestedGraph ingest_graph(const GeneratedGraph& input, SpanRecorder& spans,
                           std::uint64_t parent, Results& results) {
  IngestedGraph out;
  const auto t0 = Clock::now();
  const CsrGraph built =
      GraphBuilder::from_edges(input.edges, input.num_vertices);
  out.graph = read_csr_binary(input.csr_path);
  const auto t1 = Clock::now();
  spans.add(0, "graph.ingest", t0, t1, parent);
  out.ingest_s = std::chrono::duration<double>(t1 - t0).count();
  if (built.offsets() != out.graph.offsets() ||
      built.dst() != out.graph.dst()) {
    results.fail("graph: CSR builder and read_csr_binary disagree");
  }
  const std::size_t bytes = out.graph.offsets().size() * sizeof(EdgeId) +
                            out.graph.dst().size() * sizeof(VertexId);
  out.csr_mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  return out;
}

namespace {

/// Keeps the replayed calls' results observable.
volatile std::uint64_t replay_sink = 0;

struct Pair {
  VertexId u, v;
  std::uint32_t min_cn;
};

/// ns per call of `body` over `pairs`, median of `passes` timed passes.
template <typename Body>
double time_replay(const std::vector<Pair>& pairs, int passes, Body body,
                   std::uint64_t& sink) {
  std::vector<double> ns;
  for (int pass = 0; pass < passes; ++pass) {
    const auto t0 = Clock::now();
    for (const Pair& p : pairs) sink += body(p);
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                     .count() /
                 static_cast<double>(pairs.size()));
  }
  return median(ns);
}

}  // namespace

void replay_setops(const CsrGraph& graph, std::uint64_t seed,
                   SpanRecorder& spans, std::uint64_t parent,
                   Results& results) {
  constexpr std::size_t kPerBucket = 20'000;
  constexpr std::size_t kSkewRatio = 64;  // the Auto dispatcher's default
  const EpsRational eps_sweep[] = {{1, 5}, {2, 5}, {3, 5}, {4, 5}};
  ScopedSpan span(spans, 0, "setops.replay", parent);

  // Arcs drawn uniformly; each replays the call ppSCAN would make for it at
  // one sweep ε (cycled), and arcs the degree predicate settles without an
  // intersection are skipped, as ppSCAN skips them. That predicate settles
  // every pair whose degree ratio exceeds 1/ε², so at the sweep's ε (≥ 0.2)
  // the skewed bucket stays empty and the draw limit ends the loop.
  std::vector<Pair> balanced, skewed, all;
  std::uint64_t state = derive_seed(seed, 4);
  const EdgeId arcs = graph.num_arcs();
  const auto& offsets = graph.offsets();
  for (std::size_t draw = 0;
       draw < 40 * kPerBucket &&
       (balanced.size() < kPerBucket || skewed.size() < kPerBucket);
       ++draw) {
    const EdgeId e = splitmix64(state) % arcs;
    const auto it = std::upper_bound(offsets.begin(), offsets.end(), e);
    const auto u = static_cast<VertexId>(it - offsets.begin() - 1);
    const VertexId v = graph.dst()[e];
    const EpsRational& eps = eps_sweep[draw % 4];
    const VertexId du = graph.degree(u), dv = graph.degree(v);
    if (predicate_prune(eps, du, dv) != PruneOutcome::Unknown) continue;
    const Pair p{u, v, min_common_neighbors(eps, du, dv)};
    const bool skew = std::max(du, dv) > kSkewRatio * std::max<VertexId>(
                                                          std::min(du, dv), 1);
    auto& bucket = skew ? skewed : balanced;
    if (bucket.size() < kPerBucket) {
      bucket.push_back(p);
      all.push_back(p);
    }
  }

  const SimilarFn similar = similar_fn(IntersectKind::Auto);
  const CountFn count = count_fn(IntersectKind::Auto);
  std::uint64_t sink = 0;
  const auto sim = [&](const Pair& p) {
    return similar(graph.neighbors(p.u), graph.neighbors(p.v), p.min_cn) ? 1u
                                                                         : 0u;
  };
  const auto cnt = [&](const Pair& p) {
    return count(graph.neighbors(p.u), graph.neighbors(p.v));
  };
  constexpr int kPasses = 5;
  const auto put = [&](const char* name, const std::vector<Pair>& pairs,
                       auto body) {
    if (pairs.empty()) {
      results.put(name, 0, "ns", 0, "idle");
      return;
    }
    results.put(name, time_replay(pairs, kPasses, body, sink), "ns",
                pairs.size(), "p50-of-5-passes");
  };
  put("setops.similar_ns.balanced", balanced, sim);
  put("setops.similar_ns.skewed", skewed, sim);
  put("setops.count_ns", all, cnt);
  replay_sink = sink;
}

}  // namespace perfbench
