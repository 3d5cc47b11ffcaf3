// Spans recorded by the traced run around the benchmark's own calls into
// each layer: name, start, end, parent and request id. Each thread writes
// only its own lane, so recording takes no lock; the lanes are merged and
// written once, as Chrome-trace JSON, when the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  /// Global span id: (lane << 32) | index within the lane; 0 = none.
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  /// Request identifier shared by every span of one request (0 = none).
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
/// Returns seconds per span, index-aligned with `spans`.
inline std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans.size());
  for (const auto& s : spans) {
    const auto it = by_id.find(s.parent);
    if (s.parent != 0 && it != by_id.end()) {
      const Span& p = spans[it->second];
      const auto lo = std::max(s.start, p.start);
      const auto hi = std::min(s.end, p.end);
      if (lo < hi) children[it->second].emplace_back(lo, hi);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{0};
    Clock::time_point cur_lo{}, cur_hi{};
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = std::chrono::duration<double>(spans[i].end - spans[i].start -
                                           covered)
                 .count();
  }
  return out;
}

/// In-memory span store with one lane per recording thread. Disabled
/// recorders (the untraced run) record nothing and cost one branch.
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::size_t lanes)
      : enabled_(enabled), lanes_(lanes) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a finished span on `lane`; returns its id (0 when disabled).
  std::uint64_t add(std::size_t lane, std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t request = 0) {
    if (!enabled_) return 0;
    auto& l = lanes_.at(lane);
    const std::uint64_t id =
        (static_cast<std::uint64_t>(lane + 1) << 32) | (l.size() + 1);
    l.push_back(Span{std::move(name), start, end, id, parent, request});
    return id;
  }

  /// Reserves an id for a span whose end is not known yet (a parent that
  /// children must name while it is still open); finish() completes it.
  std::uint64_t open(std::size_t lane, std::string name,
                     Clock::time_point start, std::uint64_t parent = 0) {
    return add(lane, std::move(name), start, start, parent);
  }

  void finish(std::uint64_t id, Clock::time_point end) {
    if (id == 0) return;
    lanes_.at((id >> 32) - 1).at((id & 0xffffffffULL) - 1).end = end;
  }

  /// All spans, lane by lane. Call only after every recording thread has
  /// been joined.
  [[nodiscard]] std::vector<Span> merged() const {
    std::vector<Span> all;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      all.insert(all.end(), lanes_[lane].begin(), lanes_[lane].end());
    }
    return all;
  }

 private:
  bool enabled_;
  std::vector<std::vector<Span>> lanes_;
};

/// RAII span on one lane: opens at construction, closes at destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::size_t lane, std::string name,
             std::uint64_t parent = 0)
      : rec_(rec), id_(rec.open(lane, std::move(name), Clock::now(), parent)) {}
  ~ScopedSpan() { rec_.finish(id_, Clock::now()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

/// Chrome-trace JSON ("traceEvents" of complete "X" events, µs since
/// `origin`). Lane = tid; parent, request id and self time go in args.
std::string chrome_trace_json(const std::vector<Span>& spans,
                              Clock::time_point origin);

}  // namespace perfbench
