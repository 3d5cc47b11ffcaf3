// Shared vocabulary of the benchmark driver: run options, the result
// record every workload fills, and the measurement helpers (process CPU,
// peak RSS, answer digests, seeded randomness) the workloads share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "scan/scan_common.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  /// Worker threads of the program under test: nproc (4 on the reference
  /// host). The load generator uses at most this many threads too.
  int threads = 4;
  /// Directory for the run's scratch files and its trace.
  std::string work_dir;
};

/// Everything one run produces. Metrics are keyed by name; run.py selects
/// the ones BENCHMARK.json names for the final result line.
struct Results {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void put(Metric m) { metrics[m.name] = std::move(m); }
  void put(std::string name, double value, std::string unit,
           std::uint64_t samples, std::string stat = "value") {
    put(Metric{std::move(name), value, std::move(unit), samples,
               std::move(stat)});
  }
  /// Records a wrong answer: counted in `failed`, message kept (first 20).
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Process CPU time (user + system) in seconds, all threads.
double process_cpu_seconds();

/// Peak resident set size of the process since the last reset_peak_rss()
/// (or since it started), in MiB: VmHWM of /proc/self/status.
double peak_rss_mib();

/// Returns freed memory to the kernel and restarts the peak-RSS mark at
/// the current RSS, so generated inputs do not count in peak_rss_mib.
void reset_peak_rss();

/// 64-bit digest of a normalized result (roles, core cluster ids, and
/// memberships): two answers agree bit-for-bit iff their digests match
/// (up to hash collisions).
std::uint64_t result_digest(const ppscan::ScanResult& result);

/// splitmix64: deterministic stream from one seed, for every input the
/// benchmark generates.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seed for one input of one workload, derived from the run's --seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed * 0x100000001b3ULL + stream;
  return splitmix64(s);
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- graph and setops layers (graphs.cpp) -----------------------------------

/// The graph recipes: the bench_support stand-ins (DESIGN.md §3) at a fixed
/// size, with the generator seed taken from the benchmark's seed.
enum class GraphRecipe {
  FriendsterX4,  ///< LFR communities, ~440k V / ~6.4M E
  TwitterX4,     ///< hub-heavy R-MAT, ~130k V / ~2M E
  FriendsterX1,  ///< LFR communities, ~110k V / ~1.6M E
};

/// The timed ingest path (the `graph` layer): the CSR builder over a
/// shuffled edge list, then read_csr_binary of the same graph.
struct IngestedGraph {
  ppscan::CsrGraph graph;
  double ingest_s = 0;  ///< builder + binary read, one repetition
  double csr_mib = 0;
};

/// Generated input (untimed): the shuffled edge list and the binary CSR
/// file written from it.
struct GeneratedGraph {
  std::vector<std::pair<ppscan::VertexId, ppscan::VertexId>> edges;
  ppscan::VertexId num_vertices = 0;
  std::string csr_path;
};

GeneratedGraph generate_graph(GraphRecipe recipe, std::uint64_t seed,
                              const std::string& work_dir,
                              const std::string& tag);

/// One timed ingest; fails `results` when the two paths disagree.
IngestedGraph ingest_graph(const GeneratedGraph& input, SpanRecorder& spans,
                           std::uint64_t parent, Results& results);

/// The `setops` layer, measured from outside: a fixed seeded sample of the
/// graph's arcs replayed through similar_fn(Auto) (split at degree ratio
/// 64) and through count_fn(Auto). Puts setops.* metrics.
void replay_setops(const ppscan::CsrGraph& graph, std::uint64_t seed,
                   SpanRecorder& spans, std::uint64_t parent,
                   Results& results);

// --- workloads (cluster.cpp, serve.cpp) -------------------------------------

void run_cluster(const Options& options, GraphRecipe recipe,
                 SpanRecorder& spans, Results& results);

void run_serve(const Options& options, SpanRecorder& spans, Results& results);

/// Number of setup repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

}  // namespace perfbench
