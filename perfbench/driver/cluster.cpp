// cluster-community and cluster-skewed: the ppSCAN ε-sweep, the paper's
// batch use. One unit of work is a sweep — ppscan() at every ε of the
// paper's figures — because a single call's cost depends on which ε it
// ran, and a run ending mid-sweep would change the mix.
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "core/ppscan.hpp"
#include "scan/validate_result.hpp"

namespace perfbench {

using namespace ppscan;

namespace {

const char* const kSweepEps[] = {"0.2", "0.4", "0.6", "0.8"};
constexpr std::uint32_t kMu = 5;

/// What one sweep cost, as timed around the calls and as the calls' own
/// RunStats report it (summed over the sweep's ε values).
struct SweepSample {
  double wall_s = 0;
  double cpu_s = 0;
  double prune_s = 0, check_s = 0, core_cluster_s = 0, noncore_cluster_s = 0;
  double idle_s = 0;
  std::uint64_t steals = 0, tasks = 0;
  obs::AlgoCounters counters;
};

class Sweeper {
 public:
  Sweeper(const CsrGraph& graph, int threads, Results& results)
      : graph_(graph), threads_(threads), results_(results) {}

  /// The untimed first sweep: its answers become the reference every later
  /// sweep must reproduce.
  void make_reference() {
    for (const char* eps : kSweepEps) {
      reference_.push_back(ppscan::ppscan(graph_, ScanParams::make(eps, kMu),
                                          run_options(threads_)));
    }
  }

  /// Certifies the reference with the independent validator (one thread
  /// per ε). Runs after the measured loop, so the validator's memory does
  /// not count in peak_rss_mib.
  void validate_reference() {
    std::vector<ValidationReport> reports(reference_.size());
    std::vector<std::thread> checkers;
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      checkers.emplace_back([&, i] {
        reports[i] = validate_scan_result(
            graph_, ScanParams::make(kSweepEps[i], kMu), reference_[i].result);
      });
    }
    for (auto& t : checkers) t.join();
    for (std::size_t i = 0; i < reports.size(); ++i) {
      results_.attempted += 1;
      if (reference_[i].partial() || !reports[i].ok) {
        results_.fail(std::string("ppscan eps=") + kSweepEps[i] +
                      " invalid: " + reports[i].first_error);
      }
    }
  }

  /// One timed sweep on `threads` workers; answers are compared against
  /// the reference after the clock stops.
  SweepSample sweep(SpanRecorder& spans, std::uint64_t parent,
                    std::uint64_t index, int threads) {
    const PpScanOptions options = run_options(threads);
    std::vector<ScanRun> runs;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    const std::uint64_t sweep_span = spans.open(0, "sweep", t0, parent);
    for (const char* eps : kSweepEps) {
      const auto c0 = Clock::now();
      runs.push_back(
          ppscan::ppscan(graph_, ScanParams::make(eps, kMu), options));
      spans.add(0, "core.ppscan", c0, Clock::now(), sweep_span, index);
    }
    const auto t1 = Clock::now();
    spans.finish(sweep_span, t1);
    SweepSample s;
    s.cpu_s = process_cpu_seconds() - cpu0;
    s.wall_s = std::chrono::duration<double>(t1 - t0).count();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunStats& st = runs[i].stats;
      s.prune_s += st.stage_prune_seconds;
      s.check_s += st.stage_check_seconds;
      s.core_cluster_s += st.stage_core_cluster_seconds;
      s.noncore_cluster_s += st.stage_noncore_cluster_seconds;
      s.idle_s += st.idle_seconds;
      s.steals += st.steals;
      s.tasks += st.tasks_executed;
      s.counters += st.counters;
      results_.attempted += 1;
      if (runs[i].partial() ||
          !results_equivalent(runs[i].result, reference_[i].result)) {
        results_.fail(std::string("ppscan eps=") + kSweepEps[i] +
                      " differs from the validated reference: " +
                      describe_result_difference(runs[i].result,
                                                 reference_[i].result));
      }
    }
    return s;
  }

  /// Sweeps on all threads until `seconds` have passed (at least two).
  std::vector<SweepSample> loop(SpanRecorder& spans, double seconds,
                                std::uint64_t parent) {
    std::vector<SweepSample> out;
    const auto t0 = Clock::now();
    while (out.size() < 2 || seconds_since(t0) < seconds) {
      out.push_back(sweep(spans, parent, out.size() + 1, threads_));
    }
    return out;
  }

 private:
  static PpScanOptions run_options(int threads) {
    PpScanOptions o;
    o.num_threads = threads;
    return o;
  }

  const CsrGraph& graph_;
  int threads_;
  Results& results_;
  std::vector<ScanRun> reference_;
};

template <typename F>
std::vector<double> column(const std::vector<SweepSample>& xs, F f) {
  std::vector<double> out;
  for (const auto& x : xs) out.push_back(static_cast<double>(f(x)));
  return out;
}

}  // namespace

void run_cluster(const Options& options, GraphRecipe recipe,
                 SpanRecorder& spans, Results& results) {
  const std::uint64_t root = spans.open(0, "workload", Clock::now());
  GeneratedGraph input =
      generate_graph(recipe, options.seed, options.work_dir, options.workload);

  reset_peak_rss();

  std::vector<double> ingest_s;
  IngestedGraph ingested;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ingested = {};  // release the previous repetition's graph first
    ingested = ingest_graph(input, spans, root, results);
    ingest_s.push_back(ingested.ingest_s);
  }
  std::filesystem::remove(input.csr_path);
  input = {};
  const CsrGraph& graph = ingested.graph;
  results.put(median_metric("setup_s", ingest_s, "s"));
  results.put(median_metric("graph.ingest_s", ingest_s, "s"));
  results.put("graph.csr_mib", ingested.csr_mib, "MiB", 1);

  Sweeper sweeper(graph, options.threads, results);
  sweeper.make_reference();

  // The untraced loop gives the end-to-end numbers and, in a traced run,
  // the baseline the tracing overhead is measured against.
  SpanRecorder untraced(false, 1);
  const auto plain = sweeper.loop(untraced, options.seconds, 0);
  results.put("peak_rss_mib", peak_rss_mib(), "MiB", 1, "max");
  sweeper.validate_reference();
  const auto wall =
      column(plain, [](const SweepSample& s) { return s.wall_s; });
  std::vector<double> wall_ms;
  for (double w : wall) wall_ms.push_back(w * 1e3);
  results.put(mean_metric("latency_ms.mean", wall_ms, "ms"));
  results.put(median_metric("latency_ms.p50", wall_ms, "ms"));
  results.put(tail_metric("latency_ms.tail", wall_ms, "ms"));
  results.put(median_metric("sweep_s.p50", wall, "s"));
  // Sweeps per second of sweeping: the answer checks between sweeps are
  // the benchmark's work, not the program's.
  double swept_s = 0;
  for (double w : wall) swept_s += w;
  results.put("throughput_per_s", static_cast<double>(plain.size()) / swept_s,
              "1/s", plain.size(), "count/sweep-time");
  if (!options.trace) return;

  const auto traced = sweeper.loop(spans, options.seconds, root);
  const auto per_sweep = [&](const char* name, const char* unit, auto f) {
    results.put(median_metric(name, column(traced, f), unit));
  };
  per_sweep("core.prune_s", "s",
            [](const SweepSample& s) { return s.prune_s; });
  per_sweep("core.check_s", "s",
            [](const SweepSample& s) { return s.check_s; });
  per_sweep("core.core_cluster_s", "s",
            [](const SweepSample& s) { return s.core_cluster_s; });
  per_sweep("core.noncore_cluster_s", "s",
            [](const SweepSample& s) { return s.noncore_cluster_s; });
  per_sweep("core.sims_computed", "count",
            [](const SweepSample& s) { return s.counters.sims_computed; });
  per_sweep("core.sims_reused", "count",
            [](const SweepSample& s) { return s.counters.sims_reused; });
  per_sweep("core.arcs_pruned", "count", [](const SweepSample& s) {
    return s.counters.arcs_predicate_pruned;
  });
  per_sweep("core.useful_ratio", "ratio", [](const SweepSample& s) {
    const auto& c = s.counters;
    return c.arcs_touched == 0
               ? 0.0
               : static_cast<double>(c.arcs_predicate_pruned + c.sims_reused) /
                     static_cast<double>(c.arcs_touched);
  });
  const int threads = options.threads;
  per_sweep("concurrent.cpu_s", "s",
            [](const SweepSample& s) { return s.cpu_s; });
  per_sweep("concurrent.utilization", "ratio", [threads](const SweepSample& s) {
    return s.cpu_s / (s.wall_s * threads);
  });
  per_sweep("concurrent.idle_s", "s",
            [](const SweepSample& s) { return s.idle_s; });
  per_sweep("concurrent.steals", "count",
            [](const SweepSample& s) { return s.steals; });
  per_sweep("concurrent.tasks_executed", "count",
            [](const SweepSample& s) { return s.tasks; });
  const auto traced_wall =
      column(traced, [](const SweepSample& s) { return s.wall_s; });
  results.put("trace.overhead_ratio", median(traced_wall) / median(wall),
              "ratio", traced.size(), "traced p50 / untraced p50");

  // One single-thread sweep: its funnel count repeats bit-for-bit.
  const SweepSample t1 = sweeper.sweep(spans, root, 0, 1);
  results.put("core.sims_computed.t1",
              static_cast<double>(t1.counters.sims_computed), "count", 1);

  replay_setops(graph, options.seed, spans, root, results);
  spans.finish(root, Clock::now());
}

}  // namespace perfbench
