// perfbench_driver — runs one benchmark workload in one process against
// the library's public API, checks every answer, and reports each metric
// with its unit and sample count. perfbench/run.py builds and invokes it;
// see perfbench/README.md for the workloads and the metric catalogue.
//
//   perfbench_driver --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--work-dir DIR] [--out FILE]
//                    [--commit REV] [--source-digest HEX]
//
// Exit status: 0 when every answer was correct, 1 when any was wrong
// (results are still written), 2 on bad usage or a build unfit to measure.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "fingerprint.hpp"
#include "obs/json.hpp"

namespace perfbench {
namespace {

using ppscan::obs::JsonValue;

/// Every per-layer metric with its unit. A layer a workload leaves idle
/// reports 0 with a sample count of 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"graph.ingest_s", "s"},
    {"graph.csr_mib", "MiB"},
    {"setops.similar_ns.balanced", "ns"},
    {"setops.similar_ns.skewed", "ns"},
    {"setops.count_ns", "ns"},
    {"core.prune_s", "s"},
    {"core.check_s", "s"},
    {"core.core_cluster_s", "s"},
    {"core.noncore_cluster_s", "s"},
    {"core.sims_computed", "count"},
    {"core.sims_reused", "count"},
    {"core.arcs_pruned", "count"},
    {"core.useful_ratio", "ratio"},
    {"core.sims_computed.t1", "count"},
    {"concurrent.cpu_s", "s"},
    {"concurrent.utilization", "ratio"},
    {"concurrent.idle_s", "s"},
    {"concurrent.steals", "count"},
    {"concurrent.tasks_executed", "count"},
    {"index.build_s", "s"},
    {"index.mib", "MiB"},
    {"index.query_ms.p50", "ms"},
    {"index.query_ms.p99", "ms"},
    {"index.query_ms.high_eps.p50", "ms"},
    {"index.arcs_per_query", "count"},
    {"index.bare_qps", "1/s"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.execute_ms.p50", "ms"},
    {"serve.execute_ms.p99", "ms"},
    {"serve.respond_ms.p99", "ms"},
    {"serve.ceiling_ratio", "ratio"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.refused", "count"},
    {"serve.partial", "count"},
    {"gen.lag_ms.p99", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

/// Spans whose summed self time is reported as self_s.<name>.
const char* const kSpanNames[] = {
    "workload",      "graph.ingest",  "index.build",   "sweep",
    "core.ppscan",   "setops.replay", "index.query",   "serve.request",
    "serve.queue",   "serve.execute",
};

struct Args {
  Options options;
  std::string out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.options.work_dir = ".bench_build/work";
  a.options.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.options.workload = value;
    } else if (flag == "--seed") {
      a.options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.options.seconds = std::stod(value);
      if (!(a.options.seconds > 0)) {
        throw std::invalid_argument("--seconds must be > 0");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.options.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.options.work_dir = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--source-digest") {
      a.source_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.options.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

/// self_s.<span> for every reported span name (0, n=0 when none ran).
void put_self_times(const std::vector<Span>& spans, Results& results) {
  const std::vector<double> self = self_seconds(spans);
  for (const char* name : kSpanNames) {
    double total = 0;
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name) {
        total += self[i];
        ++n;
      }
    }
    results.put(std::string("self_s.") + name, total, "s", n, "sum");
  }
}

/// Cumulative (steal, total) CPU ticks of the host from /proc/stat; (0, 0)
/// where unavailable. Steal is time the hypervisor gave this VM's vCPUs to
/// someone else: it lengthens every wall-clock number without showing in
/// the process's CPU time.
std::pair<double, double> host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0, total = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

JsonValue metrics_json(const Results& results) {
  JsonValue m = JsonValue::object();
  for (const auto& [name, metric] : results.metrics) {
    JsonValue v = JsonValue::object();
    v.set("value", JsonValue::number(metric.value));
    v.set("unit", JsonValue::string(metric.unit));
    v.set("samples", JsonValue::number_u64(metric.samples));
    v.set("stat", JsonValue::string(metric.stat));
    if (metric.stat == "p50") v.set("iqr", JsonValue::number(metric.iqr));
    m.set(name, std::move(v));
  }
  return m;
}

int run(const Args& args) {
  const Options& options = args.options;
  // Lane 0 is the main thread; each load-generator thread has its own.
  const auto lanes = static_cast<std::size_t>(std::max(options.threads, 2)) + 1;
  SpanRecorder spans(options.trace, lanes);
  const auto origin = Clock::now();
  const auto [steal0, total0] = host_steal_ticks();
  Results results;
  if (options.workload == "cluster-community") {
    run_cluster(options, GraphRecipe::FriendsterX4, spans, results);
  } else if (options.workload == "cluster-skewed") {
    run_cluster(options, GraphRecipe::TwitterX4, spans, results);
  } else if (options.workload == "serve-cold-closed") {
    run_serve(options, spans, results);
  } else {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }
  const auto [steal1, total1] = host_steal_ticks();
  results.put("host.steal_ratio",
              total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0,
              "ratio", 1, "over the run");
  results.put("failed_ratio",
              results.attempted == 0
                  ? 1.0
                  : static_cast<double>(results.failed) /
                        static_cast<double>(results.attempted),
              "ratio", results.attempted);

  std::string trace_path;
  if (options.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      if (!results.metrics.count(name)) results.put(name, 0, unit, 0, "idle");
    }
    const std::vector<Span> all = spans.merged();
    put_self_times(all, results);
    trace_path = (std::filesystem::path(options.work_dir) /
                  ("trace-" + options.workload + "-seed" +
                   std::to_string(options.seed) + ".json"))
                     .string();
    std::filesystem::create_directories(options.work_dir);
    std::ofstream(trace_path) << chrome_trace_json(all, origin) << "\n";
  }

  std::cout << "# workload " << options.workload << " seed " << options.seed
            << (options.trace ? " (traced)" : "") << "\n";
  for (const auto& [name, metric] : results.metrics) {
    std::cout << format_metric(metric) << "\n";
  }
  if (!trace_path.empty()) std::cout << "# trace -> " << trace_path << "\n";
  for (const auto& e : results.errors) std::cout << "# WRONG: " << e << "\n";

  JsonValue doc = JsonValue::object();
  doc.set("workload", JsonValue::string(options.workload));
  doc.set("trace", JsonValue::boolean(options.trace));
  doc.set("seconds", JsonValue::number(options.seconds));
  doc.set("fingerprint",
          fingerprint(options.seed, args.commit, args.source_digest));
  doc.set("correct", JsonValue::boolean(results.failed == 0));
  doc.set("attempted", JsonValue::number_u64(results.attempted));
  doc.set("failed", JsonValue::number_u64(results.failed));
  JsonValue errors = JsonValue::array();
  for (const auto& e : results.errors) errors.push(JsonValue::string(e));
  doc.set("errors", std::move(errors));
  doc.set("trace_file", JsonValue::string(trace_path));
  doc.set("metrics", metrics_json(results));
  if (!args.out.empty()) {
    std::filesystem::path out(args.out);
    if (out.has_parent_path()) {
      std::filesystem::create_directories(out.parent_path());
    }
    std::ofstream(out) << doc.dump(2) << "\n";
  }
  return results.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (const std::string why = perfbench::refusal_reason(); !why.empty()) {
    std::cerr << "perfbench: refusing to record numbers: " << why << "\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    return 1;
  }
}
