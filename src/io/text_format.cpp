#include "io/text_format.hpp"

#include <map>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/lines.hpp"
#include "util/numbers.hpp"

namespace ccs {

namespace {

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

}  // namespace

ParsedCsdfg parse_csdfg_with_spans(std::istream& in,
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

ParsedCsdfg parse_csdfg_with_spans(const std::string& text,
                                   const std::string& filename,
                                   DiagnosticBag& bag) {
  std::istringstream in(text);
  return parse_csdfg_with_spans(in, filename, bag);
}

void require_strict_parse(const ParsedCsdfg& parsed, DiagnosticBag& bag) {
  bag.finalize();
  for (const Diagnostic& d : bag.diagnostics())
    if (d.severity == Severity::kError) throw ParseError(d.span.line, d.message);
  parsed.graph.require_legal();
}

Csdfg parse_csdfg(std::istream& in) {
  DiagnosticBag bag;
  ParsedCsdfg parsed = parse_csdfg_with_spans(in, "<input>", bag);
  require_strict_parse(parsed, bag);
  return std::move(parsed.graph);
}

Csdfg parse_csdfg(const std::string& text) {
  std::istringstream in(text);
  return parse_csdfg(in);
}

std::string serialize_csdfg(const Csdfg& g) {
  std::ostringstream os;
  os << "graph " << g.name() << '\n';
  for (NodeId v = 0; v < g.node_count(); ++v)
    os << "node " << g.node(v).name << ' ' << g.node(v).time << '\n';
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    os << "edge " << g.node(edge.from).name << ' ' << g.node(edge.to).name
       << ' ' << edge.delay << ' ' << edge.volume << '\n';
  }
  return os.str();
}

Topology parse_topology(const std::string& spec) {
  std::istringstream ls(spec);
  std::string kind;
  // Every branch echoes the full spec string so the message is actionable
  // no matter which layer (CLI flag, file, test) supplied it.
  const auto fail = [&](const std::string& what) -> ParseError {
    return ParseError("architecture spec '" + spec + "': " + what);
  };
  if (!(ls >> kind)) throw ParseError("architecture spec is empty");
  std::vector<std::string> args;
  std::string tok;
  while (ls >> tok) args.push_back(tok);

  auto num = [&](std::size_t i) -> std::size_t {
    if (i >= args.size())
      throw fail("missing parameter for '" + kind + "'");
    long long v = 0;
    if (!parse_whole(args[i], v)) throw fail("bad number '" + args[i] + "'");
    if (v < 0) throw fail("negative parameter '" + args[i] + "'");
    return static_cast<std::size_t>(v);
  };

  // Cap the machine size before any factory runs: the all-pairs distance
  // matrix is O(P^2), so a hostile "complete 1000000" would otherwise be
  // an allocation bomb, not a parse error.
  constexpr std::size_t kMaxPes = 1024;
  const auto capped = [&](std::size_t pes) -> std::size_t {
    if (pes > kMaxPes)
      throw fail("machine size " + std::to_string(pes) + " exceeds the " +
                 std::to_string(kMaxPes) + "-processor limit");
    return pes;
  };
  const auto capped_grid = [&](std::size_t rows,
                               std::size_t cols) -> std::pair<std::size_t,
                                                              std::size_t> {
    if (rows == 0 || cols == 0 || rows > kMaxPes || cols > kMaxPes)
      throw fail("grid dimensions must be in [1, " +
                 std::to_string(kMaxPes) + "]");
    (void)capped(rows * cols);
    return {rows, cols};
  };

  if (kind == "linear_array") return make_linear_array(capped(num(0)));
  if (kind == "ring") {
    const bool uni = args.size() > 1 && args[1] == "uni";
    return make_ring(capped(num(0)), /*bidirectional=*/!uni);
  }
  if (kind == "complete") return make_complete(capped(num(0)));
  if (kind == "mesh") {
    const auto [rows, cols] = capped_grid(num(0), num(1));
    return make_mesh(rows, cols);
  }
  if (kind == "torus") {
    const auto [rows, cols] = capped_grid(num(0), num(1));
    return make_torus(rows, cols);
  }
  if (kind == "hypercube") {
    const std::size_t dims = num(0);
    if (dims > 10) throw fail("hypercube dimension exceeds 10 (1024 PEs)");
    return make_hypercube(dims);
  }
  if (kind == "star") return make_star(capped(num(0)));
  if (kind == "binary_tree") return make_binary_tree(capped(num(0)));
  throw fail("unknown architecture '" + kind + "'");
}

}  // namespace ccs
