#include "obs/json.hpp"
#include "spans.hpp"

namespace perfbench {

std::string chrome_trace_json(const std::vector<Span>& spans,
                              Clock::time_point origin) {
  using ppscan::obs::JsonValue;
  const auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  const std::vector<double> self = self_seconds(spans);
  JsonValue events = JsonValue::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonValue e = JsonValue::object();
    e.set("name", JsonValue::string(s.name));
    e.set("cat", JsonValue::string(s.name.substr(0, s.name.find('.'))));
    e.set("ph", JsonValue::string("X"));
    e.set("ts", JsonValue::number(us(s.start)));
    e.set("dur", JsonValue::number(us(s.end) - us(s.start)));
    e.set("pid", JsonValue::number_u64(1));
    e.set("tid", JsonValue::number_u64(s.id >> 32));
    JsonValue args = JsonValue::object();
    args.set("id", JsonValue::number_u64(s.id));
    args.set("parent", JsonValue::number_u64(s.parent));
    if (s.request != 0) args.set("request", JsonValue::number_u64(s.request));
    args.set("self_us", JsonValue::number(self[i] * 1e6));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", JsonValue::string("ms"));
  return doc.dump();
}

}  // namespace perfbench
