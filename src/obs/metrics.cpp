#include "obs/metrics.hpp"

#include <sstream>

#include "obs/json.hpp"
#include "util/text_table.hpp"

namespace ccs {

void MetricsRegistry::add(std::string_view name, long long delta) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

void MetricsRegistry::set(std::string_view name, double value) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

long long MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

double MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : 0.0;
}

void MetricsRegistry::set_span(std::string_view name,
                               const SpanSummary& summary) {
  const auto it = spans_.find(name);
  if (it != spans_.end()) {
    it->second = summary;
  } else {
    spans_.emplace(std::string(name), summary);
  }
}

MetricsRegistry::SpanSummary MetricsRegistry::span(
    std::string_view name) const {
  const auto it = spans_.find(name);
  return it != spans_.end() ? it->second : SpanSummary{};
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) add(name, value);
  for (const auto& [name, value] : other.gauges_) set(name, value);
  for (const auto& [name, summary] : other.spans_) set_span(name, summary);
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  spans_.clear();
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream counters, gauges;
  counters << '{';
  bool first = true;
  for (const auto& [name, value] : counters_) {
    counters << (first ? "" : ",") << '"' << json_escape(name)
             << "\":" << value;
    first = false;
  }
  counters << '}';

  gauges << '{';
  first = true;
  for (const auto& [name, value] : gauges_) {
    gauges << (first ? "" : ",") << '"' << json_escape(name)
           << "\":" << json_number(value);
    first = false;
  }
  gauges << '}';

  JsonWriter w;
  w.raw_field("counters", counters.str()).raw_field("gauges", gauges.str());
  if (!spans_.empty()) {
    std::ostringstream spans;
    spans << '{';
    first = true;
    for (const auto& [name, s] : spans_) {
      spans << (first ? "" : ",") << '"' << json_escape(name)
            << "\":{\"count\":" << s.count
            << ",\"total_ms\":" << json_number(s.total_ms)
            << ",\"self_ms\":" << json_number(s.self_ms)
            << ",\"p50_ms\":" << json_number(s.p50_ms)
            << ",\"p95_ms\":" << json_number(s.p95_ms)
            << ",\"max_ms\":" << json_number(s.max_ms) << '}';
      first = false;
    }
    spans << '}';
    w.raw_field("spans", spans.str());
  }
  return w.close();
}

std::string MetricsRegistry::to_text() const {
  TextTable t;
  t.set_header({"metric", "type", "value"});
  for (const auto& [name, value] : counters_)
    t.add_row({name, "counter", std::to_string(value)});
  for (const auto& [name, value] : gauges_)
    t.add_row({name, "gauge", json_number(value)});
  for (const auto& [name, s] : spans_) {
    std::ostringstream cell;
    cell << "self " << json_number(s.self_ms) << " ms / total "
         << json_number(s.total_ms) << " ms / " << s.count << " spans (p50 "
         << json_number(s.p50_ms) << " ms, p95 " << json_number(s.p95_ms)
         << " ms)";
    t.add_row({name, "span", cell.str()});
  }
  return t.to_string();
}

}  // namespace ccs
