// Statistics the benchmark reports: exact quantiles over raw samples, the
// tail rule that picks which percentile a sample count can support, the
// open-loop due-time clock, and the metric record that carries its sample
// count to every place a number is printed.
//
// Header-only and free of library dependencies so tests/test_stats.cpp can
// check it in isolation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Exact q-quantile (0 ≤ q ≤ 1) of `sorted` (ascending), by linear
/// interpolation between the two closest order statistics: position
/// q·(n−1). Throws std::invalid_argument on an empty sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  if (q <= 0) return sorted.front();
  if (q >= 1) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Distance between the first and third quartile.
inline double iqr(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, 0.75) - quantile_sorted(samples, 0.25);
}

/// Percentile levels a tail may be reported at, highest first.
inline constexpr double kTailLevels[] = {99.9, 99.0, 90.0, 50.0};

/// The highest percentile level with at least ten samples beyond it, or
/// nullopt when even the median has fewer (n < 20).
inline std::optional<double> tail_level(std::size_t n) {
  for (const double level : kTailLevels) {
    const double beyond = static_cast<double>(n) * (1.0 - level / 100.0);
    if (beyond >= 10.0 - 1e-9) return level;
  }
  return std::nullopt;
}

/// Due times of a fixed-rate open loop: request i is due at
/// start + i / rate, however late the previous requests ran.
class OpenLoopSchedule {
 public:
  using Clock = std::chrono::steady_clock;

  OpenLoopSchedule(Clock::time_point start, double rate_per_s)
      : start_(start), period_s_(1.0 / rate_per_s) {
    if (!(rate_per_s > 0)) throw std::invalid_argument("rate must be > 0");
  }

  [[nodiscard]] Clock::time_point due(std::uint64_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) * period_s_));
  }

 private:
  Clock::time_point start_;
  double period_s_;
};

/// Open-loop latency of one request, in ms: from when it was *due*, not
/// from when it was sent, so a generator stall is charged to every request
/// it delayed.
inline double due_latency_ms(std::chrono::steady_clock::time_point due,
                             std::chrono::steady_clock::time_point done) {
  return std::chrono::duration<double, std::milli>(done - due).count();
}

/// One reported number: its name, value, unit and the count of samples it
/// summarizes (0 when the layer it measures did not run in this workload).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
  /// Which statistic `value` is, e.g. "p50", "p99", "max", "mean".
  std::string stat;
  /// Interquartile range of the samples behind a median (0 otherwise).
  double iqr = 0;
};

/// "name  value unit  [stat, n=samples]" — every printed metric shows how
/// many samples it rests on, and a median its IQR.
inline std::string format_metric(const Metric& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-34s %16.6f %-6s [%s, n=%llu",
                m.name.c_str(), m.value, m.unit.c_str(), m.stat.c_str(),
                static_cast<unsigned long long>(m.samples));
  std::string line = buf;
  if (m.stat == "p50" && m.samples > 1) {
    std::snprintf(buf, sizeof buf, ", iqr=%.6g", m.iqr);
    line += buf;
  }
  return line + "]";
}

/// Median (with its IQR) as a Metric; 0 with n=0 on an empty sample.
inline Metric median_metric(std::string name, const std::vector<double>& xs,
                            std::string unit) {
  Metric m{std::move(name), 0, std::move(unit), xs.size(), "p50"};
  if (!xs.empty()) {
    m.value = median(xs);
    m.iqr = iqr(xs);
  }
  return m;
}

/// Arithmetic mean as a Metric; 0 with n=0 on an empty sample.
inline Metric mean_metric(std::string name, const std::vector<double>& xs,
                          std::string unit) {
  Metric m{std::move(name), 0, std::move(unit), xs.size(), "mean"};
  for (const double x : xs) m.value += x;
  if (!xs.empty()) m.value /= static_cast<double>(xs.size());
  return m;
}

/// Percentile a tail falls back to when the rule supports none (n < 20).
/// Not the slowest sample: the maximum of a handful is set by a single
/// stall of a shared host, so it says more about the host than the program.
inline constexpr double kSmallSampleTailLevel = 75.0;

/// Tail of a sample by the tail rule: the highest level tail_level()
/// allows; with fewer than 20 samples, the upper quartile.
inline Metric tail_metric(std::string name, std::vector<double> xs,
                          std::string unit) {
  const double level = tail_level(xs.size()).value_or(kSmallSampleTailLevel);
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", level);
  Metric m{std::move(name), 0, std::move(unit), xs.size(), buf};
  if (!xs.empty()) m.value = quantile(std::move(xs), level / 100.0);
  return m;
}

/// Exact q-quantile as a Metric, whatever the sample count (the caller
/// sizes the sample so the level is supported; the count is printed).
inline Metric quantile_metric(std::string name, const std::vector<double>& xs,
                              double q, std::string unit) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", q * 100);
  Metric m{std::move(name), 0, std::move(unit), xs.size(), buf};
  if (!xs.empty()) m.value = quantile(xs, q);
  return m;
}

}  // namespace perfbench
