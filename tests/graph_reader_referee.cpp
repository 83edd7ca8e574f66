#include "graph_reader_referee.hpp"

#include <map>
#include <sstream>
#include <vector>

namespace ccs::referee {

namespace {

/// Normalizes one line in place: strips the UTF-8 BOM when `first_line`,
/// and a trailing '\r' always.
void normalize_parsed_line(std::string& line, bool first_line) {
  if (first_line && line.size() >= 3 && line[0] == '\xEF' &&
      line[1] == '\xBB' && line[2] == '\xBF')
    line.erase(0, 3);
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

/// Per-name declaration count: lenient edge resolution must distinguish
/// "never declared" from "declared more than once" (both CCS-P002).
struct NameTable {
  std::map<std::string, NodeId> first;
  std::map<std::string, std::size_t> count;

  void declare(const std::string& name, NodeId id) {
    first.emplace(name, id);
    ++count[name];
  }
};

ParsedCsdfg parse_stream(std::istream& in,
                         const std::string& filename,
                         DiagnosticBag& bag) {
  ParsedCsdfg out;
  out.spans.file = filename;
  NameTable names;
  bool named = false;
  std::string line;
  std::size_t lineno = 0;

  const auto diag = [&](std::string_view code, std::size_t at,
                        const std::string& message) {
    bag.add(code, SourceSpan{filename, at}, message);
  };

  while (std::getline(in, line)) {
    ++lineno;
    normalize_parsed_line(line, lineno == 1);
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;  // blank/comment line

    if (keyword == "graph") {
      std::string name;
      if (!(ls >> name)) {
        diag("CCS-P001", lineno, "graph: missing name");
        continue;
      }
      if (named) {
        diag("CCS-P003", lineno, "duplicate graph directive");
        continue;
      }
      if (out.graph.node_count() != 0) {
        diag("CCS-P003", lineno, "graph directive must precede nodes");
        continue;
      }
      out.graph = Csdfg(name);
      out.spans.graph_line = lineno;
      named = true;
    } else if (keyword == "node") {
      std::string name;
      int time = 0;
      if (!(ls >> name >> time)) {
        diag("CCS-P001", lineno, "node: expected <name> <time>");
        continue;
      }
      if (time < 1) {
        std::ostringstream os;
        os << "node '" << name << "': computation time must be >= 1, got "
           << time;
        diag("CCS-G003", lineno, os.str());
        time = 1;  // Clamp so later edges still resolve the name.
      }
      names.declare(name, out.graph.add_node(name, time));
      out.spans.node_lines.push_back(lineno);
    } else if (keyword == "edge") {
      std::string from, to;
      int delay = 0;
      std::size_t volume = 1;
      if (!(ls >> from >> to >> delay)) {
        diag("CCS-P001", lineno,
             "edge: expected <from> <to> <delay> [volume]");
        continue;
      }
      if (!(ls >> volume)) volume = 1;
      bool resolved = true;
      for (const std::string& name : {from, to}) {
        const auto it = names.count.find(name);
        if (it == names.count.end()) {
          diag("CCS-P002", lineno,
               "edge references unknown node '" + name + "'");
          resolved = false;
        } else if (it->second > 1) {
          diag("CCS-P002", lineno,
               "edge references ambiguous node '" + name +
                   "' (declared " + std::to_string(it->second) + " times)");
          resolved = false;
        }
      }
      if (!resolved) continue;
      bool skip = false;
      if (delay < 0) {
        std::ostringstream os;
        os << "edge " << from << "->" << to << ": delay must be >= 0, got "
           << delay;
        diag("CCS-G005", lineno, os.str());
        skip = true;  // A clamped delay would fabricate a dependence.
      }
      if (volume < 1) {
        std::ostringstream os;
        os << "edge " << from << "->" << to << ": data volume must be >= 1";
        diag("CCS-G004", lineno, os.str());
        volume = 1;
      }
      if (!skip && from == to && delay == 0) {
        diag("CCS-G002", lineno,
             "zero-delay self-loop on node '" + from + "' is unsatisfiable");
        skip = true;
      }
      if (skip) continue;
      out.graph.add_edge(names.first.at(from), names.first.at(to), delay,
                         volume);
      out.spans.edge_lines.push_back(lineno);
    } else {
      diag("CCS-P001", lineno, "unknown directive '" + keyword + "'");
    }
  }
  return out;
}

}  // namespace

ParsedCsdfg parse_csdfg_with_spans(const std::string& text,
                                   const std::string& filename,
                                   DiagnosticBag& bag) {
  std::istringstream in(text);
  return parse_stream(in, filename, bag);
}

}  // namespace ccs::referee
