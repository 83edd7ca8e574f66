#include "io/text_format.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/lines.hpp"
#include "util/numbers.hpp"

namespace ccs {

ParsedCsdfg parse_csdfg_with_spans(std::string_view text,
                                   const std::string& filename,
                                   DiagnosticBag& bag) {
  ParsedCsdfg out;
  out.spans.file = filename;
  NameIndex names;
  bool named = false;

  const auto diag = [&](std::string_view code, std::size_t at,
                        const std::string& message) {
    bag.add(code, SourceSpan{filename, at}, message);
  };

  for_each_line(text, [&](std::size_t lineno, Tokens t) {
    const std::string_view keyword = t[0];
    if (keyword == "graph") {
      if (t.size() != 2) {
        diag("CCS-P001", lineno, "graph: expected <name>");
      } else if (named) {
        diag("CCS-P003", lineno, "duplicate graph directive");
      } else if (out.graph.node_count() != 0) {
        diag("CCS-P003", lineno, "graph directive must precede nodes");
      } else {
        out.graph = Csdfg(std::string(t[1]));
        out.spans.graph_line = lineno;
        named = true;
      }
    } else if (keyword == "node") {
      int time = 0;
      if (t.size() != 3 || !parse_whole(t[2], time)) {
        diag("CCS-P001", lineno, "node: expected <name> <time>");
        return;
      }
      if (time < 1) {
        std::ostringstream os;
        os << "node '" << t[1] << "': computation time must be >= 1, got "
           << time;
        diag("CCS-G003", lineno, os.str());
        time = 1;  // Clamp so later edges still resolve the name.
      }
      names.declare(t[1], out.graph.add_node(std::string(t[1]), time));
      out.spans.node_lines.push_back(lineno);
    } else if (keyword == "edge") {
      int delay = 0;
      long long volume = 1;
      if ((t.size() != 4 && t.size() != 5) || !parse_whole(t[3], delay) ||
          (t.size() == 5 && !parse_whole(t[4], volume))) {
        diag("CCS-P001", lineno,
             "edge: expected <from> <to> <delay> [volume]");
        return;
      }
      const std::string_view from = t[1], to = t[2];
      NodeId ends[2] = {0, 0};
      bool resolved = true;
      for (std::size_t i = 0; i < 2; ++i) {
        const std::string_view name = t[1 + i];
        const NameIndex::Entry* entry = names.find(name);
        if (entry == nullptr) {
          diag("CCS-P002", lineno,
               "edge references unknown node '" + std::string(name) + "'");
          resolved = false;
        } else if (entry->count > 1) {
          diag("CCS-P002", lineno,
               "edge references ambiguous node '" + std::string(name) +
                   "' (declared " + std::to_string(entry->count) + " times)");
          resolved = false;
        } else {
          ends[i] = entry->id;
        }
      }
      if (!resolved) return;
      bool skip = false;
      if (delay < 0) {
        std::ostringstream os;
        os << "edge " << from << "->" << to << ": delay must be >= 0, got "
           << delay;
        diag("CCS-G005", lineno, os.str());
        skip = true;  // A clamped delay would fabricate a dependence.
      }
      const auto cap = static_cast<long long>(kMaxEdgeVolume);
      if (volume < 1 || volume > cap) {
        std::ostringstream os;
        os << "edge " << from << "->" << to << ": data volume ";
        if (volume < 1)
          os << "must be >= 1";
        else
          os << volume << " exceeds the " << cap << " cap";
        diag("CCS-G004", lineno, os.str());
        volume = std::clamp(volume, 1LL, cap);
      }
      if (!skip && from == to && delay == 0) {
        diag("CCS-G002", lineno,
             "zero-delay self-loop on node '" + std::string(from) +
                 "' is unsatisfiable");
        skip = true;
      }
      if (skip) return;
      out.graph.add_edge(ends[0], ends[1], delay,
                         static_cast<std::size_t>(volume));
      out.spans.edge_lines.push_back(lineno);
    } else {
      diag("CCS-P001", lineno,
           "unknown directive '" + std::string(keyword) + "'");
    }
  });
  return out;
}

void require_strict_parse(const ParsedCsdfg& parsed, DiagnosticBag& bag) {
  throw_first_error(bag);
  parsed.graph.require_legal();
}

Csdfg parse_csdfg(std::string_view text) {
  DiagnosticBag bag;
  ParsedCsdfg parsed = parse_csdfg_with_spans(text, "<input>", bag);
  require_strict_parse(parsed, bag);
  return std::move(parsed.graph);
}

Csdfg parse_csdfg(std::istream& in) {
  return parse_csdfg(std::string(std::istreambuf_iterator<char>(in), {}));
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
  // Every branch echoes the full spec string so the message is actionable
  // no matter which layer (CLI flag, file, test) supplied it.
  const auto fail = [&](const std::string& what) -> ParseError {
    return ParseError("architecture spec '" + spec + "': " + what);
  };
  std::vector<std::string_view> tokens;
  split_tokens(spec, tokens);
  if (tokens.empty()) throw ParseError("architecture spec is empty");
  const std::string kind(tokens.front());
  const Tokens args = Tokens(tokens).subspan(1);

  const bool uni = kind == "ring" && args.size() == 2 && args[1] == "uni";
  // Reads the first `count` (at most 2) parameters as numbers; a token
  // after them other than ring's "uni" is refused.
  const auto params = [&](std::size_t count) {
    std::array<std::size_t, 2> values{};
    for (std::size_t i = 0; i < count; ++i) {
      if (i >= args.size())
        throw fail("missing parameter for '" + kind + "'");
      long long v = 0;
      if (!parse_whole(args[i], v))
        throw fail("bad number '" + std::string(args[i]) + "'");
      if (v < 0)
        throw fail("negative parameter '" + std::string(args[i]) + "'");
      values[i] = static_cast<std::size_t>(v);
    }
    if (args.size() > count + (uni ? 1 : 0))
      throw fail("unexpected parameter '" + std::string(args[count]) + "'");
    return values;
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

  if (kind == "linear_array") return make_linear_array(capped(params(1)[0]));
  if (kind == "ring")
    return make_ring(capped(params(1)[0]), /*bidirectional=*/!uni);
  if (kind == "complete") return make_complete(capped(params(1)[0]));
  if (kind == "mesh" || kind == "torus") {
    const auto [r, c] = params(2);
    const auto [rows, cols] = capped_grid(r, c);
    return kind == "mesh" ? make_mesh(rows, cols) : make_torus(rows, cols);
  }
  if (kind == "hypercube") {
    const std::size_t dims = params(1)[0];
    if (dims > 10) throw fail("hypercube dimension exceeds 10 (1024 PEs)");
    return make_hypercube(dims);
  }
  if (kind == "star") return make_star(capped(params(1)[0]));
  if (kind == "binary_tree") return make_binary_tree(capped(params(1)[0]));
  throw fail("unknown architecture '" + kind + "'");
}

}  // namespace ccs
