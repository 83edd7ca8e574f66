#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>

#include "obs/json.hpp"
#include "util/text_table.hpp"

namespace ccs {

namespace {

// --------------------------------------------------------------- flatten

void flatten(const JsonValue& v, const std::string& prefix,
             FlatMetrics& out) {
  switch (v.kind) {
    case JsonValue::Kind::kNumber:
      if (!prefix.empty()) out.values[prefix] = v.number();
      return;
    case JsonValue::Kind::kBool:
      if (!prefix.empty()) out.values[prefix] = v.boolean ? 1.0 : 0.0;
      return;
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : v.object)
        flatten(member, prefix.empty() ? key : prefix + "." + key, out);
      return;
    case JsonValue::Kind::kArray:
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        const JsonValue& element = v.array[i];
        std::string segment = std::to_string(i);
        // Arrays of named objects (google-benchmark "benchmarks") key by
        // name, so runs with reordered entries still line up in a diff.
        if (element.kind == JsonValue::Kind::kObject) {
          const JsonValue* name = element.find("name");
          if (name != nullptr && name->kind == JsonValue::Kind::kString &&
              !name->text.empty())
            segment = name->text;
        }
        flatten(element, prefix.empty() ? segment : prefix + "." + segment,
                out);
      }
      return;
    default:
      return;  // strings/null carry no numeric signal
  }
}

/// Chrome-trace profiles aggregate per span name instead of flattening
/// events positionally (a timeline diff per event index is meaningless).
void flatten_trace_events(const JsonValue& events, FlatMetrics& out) {
  struct Agg {
    double count = 0, total_us = 0, self_us = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const JsonValue& e : events.array) {
    if (e.kind != JsonValue::Kind::kObject) continue;
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->text != "X") continue;  // skip metadata rows
    const JsonValue* name = e.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) continue;
    Agg& agg = by_name[name->text];
    agg.count += 1;
    const JsonValue* dur = e.find("dur");
    if (dur != nullptr && dur->kind == JsonValue::Kind::kNumber)
      agg.total_us += dur->number();
    const JsonValue* args = e.find("args");
    if (args != nullptr && args->kind == JsonValue::Kind::kObject) {
      const JsonValue* self = args->find("self_us");
      if (self != nullptr && self->kind == JsonValue::Kind::kNumber)
        agg.self_us += self->number();
    }
  }
  for (const auto& [name, agg] : by_name) {
    out.values["profile." + name + ".count"] = agg.count;
    out.values["profile." + name + ".total_ms"] = agg.total_us / 1e3;
    out.values["profile." + name + ".self_ms"] = agg.self_us / 1e3;
  }
}

/// "spans.remap.self_ms" -> category "spans".
std::string_view category_of(std::string_view path) {
  const std::size_t dot = path.find('.');
  return dot == std::string_view::npos ? path : path.substr(0, dot);
}

std::string format_value(double v) {
  // Integers print bare; everything else like the JSON exporters.
  if (std::abs(v) < 1e15 && v == std::floor(v)) {
    std::ostringstream os;
    os << static_cast<long long>(v);
    return os.str();
  }
  return json_number(v);
}

std::string format_pct(double pct) {
  // Percentages are read by humans scanning a table: one decimal place.
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << pct;
  return os.str();
}

}  // namespace

bool flatten_metrics_json(const std::string& text, FlatMetrics& out,
                          std::string& error) {
  JsonValue root;
  if (!parse_json(text, root, error)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    error = "expected a top-level JSON object";
    return false;
  }
  const JsonValue* events = root.find("traceEvents");
  if (events != nullptr && events->kind == JsonValue::Kind::kArray) {
    flatten_trace_events(*events, out);
    return true;
  }
  flatten(root, "", out);
  return true;
}

std::string render_hot_path_report(const FlatMetrics& m) {
  struct Row {
    std::string name;
    double self_ms = 0, total_ms = 0, count = 0, p95_ms = -1;
  };
  std::vector<Row> rows;

  const auto lookup = [&m](const std::string& key, double fallback) {
    const auto it = m.values.find(key);
    return it != m.values.end() ? it->second : fallback;
  };

  for (const char* source : {"profile.", "spans."}) {
    if (!rows.empty()) break;
    const std::string prefix(source);
    const std::string suffix = ".self_ms";
    for (const auto& [key, value] : m.values) {
      if (key.rfind(prefix, 0) != 0 || key.size() <= suffix.size() ||
          key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0)
        continue;
      const std::string base =
          key.substr(0, key.size() - suffix.size());  // prefix + span name
      Row row;
      row.name = base.substr(prefix.size());
      row.self_ms = value;
      row.total_ms = lookup(base + ".total_ms", 0.0);
      row.count = lookup(base + ".count", 0.0);
      row.p95_ms = lookup(base + ".p95_ms", -1.0);
      rows.push_back(std::move(row));
    }
  }
  if (rows.empty())
    return "no span data in this document; record one with --profile or "
           "--stats\n";

  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.self_ms > b.self_ms;
  });

  double grand_self = 0;
  for (const Row& r : rows) grand_self += r.self_ms;

  TextTable t;
  t.set_header({"span", "self ms", "self %", "total ms", "count", "p95 ms"});
  for (const Row& r : rows) {
    const double share =
        grand_self > 0 ? 100.0 * r.self_ms / grand_self : 0.0;
    t.add_row({r.name, json_number(r.self_ms), format_pct(share),
               json_number(r.total_ms), format_value(r.count),
               r.p95_ms < 0 ? std::string("-") : json_number(r.p95_ms)});
  }
  std::ostringstream os;
  os << "hot path (by self time):\n" << t.to_string();
  return os.str();
}

DiffResult diff_metrics(const FlatMetrics& before, const FlatMetrics& after,
                        const DiffOptions& options) {
  std::vector<std::string> gated_categories;
  {
    std::istringstream ls(options.gate);
    std::string tok;
    while (std::getline(ls, tok, ','))
      if (!tok.empty()) gated_categories.push_back(tok);
  }
  const auto gated = [&](std::string_view path) {
    for (const std::string& cat : gated_categories) {
      if (cat == "all") return true;
      // A dotted token targets specific metrics wherever they sit in the
      // tree ("bound.gap" gates benchmarks.*.bound.gap.*); a plain token
      // stays a whole top-level category ("counters").
      const bool hit = cat.find('.') != std::string::npos
                           ? path.find(cat) != std::string_view::npos
                           : category_of(path) == cat;
      if (hit) return true;
    }
    return false;
  };

  DiffResult result;
  auto bi = before.values.begin();
  auto ai = after.values.begin();
  const auto push = [&](const std::string& name, double b, double a) {
    if (b == a) return;
    MetricDelta d;
    d.name = name;
    d.before = b;
    d.after = a;
    d.pct = b != 0.0 ? 100.0 * (a - b) / std::abs(b)
                     : (a > 0.0 ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity());
    d.gated = gated(name);
    d.regression = d.gated && a > b && d.pct >= options.threshold_pct;
    result.regressed |= d.regression;
    result.deltas.push_back(std::move(d));
  };
  while (bi != before.values.end() || ai != after.values.end()) {
    if (ai == after.values.end() ||
        (bi != before.values.end() && bi->first < ai->first)) {
      push(bi->first, bi->second, 0.0);  // removed
      ++bi;
    } else if (bi == before.values.end() || ai->first < bi->first) {
      push(ai->first, 0.0, ai->second);  // added
      ++ai;
    } else {
      push(bi->first, bi->second, ai->second);
      ++bi;
      ++ai;
    }
  }
  return result;
}

std::string render_diff(const DiffResult& diff, const DiffOptions& options) {
  std::ostringstream os;
  if (diff.deltas.empty()) {
    os << "no metric changes\n";
    return os.str();
  }
  TextTable t;
  t.set_header({"metric", "before", "after", "delta %", ""});
  for (const MetricDelta& d : diff.deltas) {
    std::string pct;
    if (std::isinf(d.pct)) {
      pct = d.pct > 0 ? "new" : "gone";
    } else {
      pct = format_pct(d.pct);
    }
    t.add_row({d.name, format_value(d.before), format_value(d.after), pct,
               d.regression ? "REGRESSION" : (d.gated ? "" : "ungated")});
  }
  os << t.to_string();
  std::size_t regressions = 0;
  for (const MetricDelta& d : diff.deltas)
    if (d.regression) ++regressions;
  if (regressions > 0) {
    os << "verdict: " << regressions << " regression(s) at threshold "
       << json_number(options.threshold_pct) << "%\n";
  } else {
    os << "verdict: no regressions at threshold "
       << json_number(options.threshold_pct) << "%\n";
  }
  return os.str();
}

}  // namespace ccs
