#include "sdf/sdf.hpp"

#include <map>
#include <numeric>
#include <queue>
#include <sstream>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ccs {

ActorId SdfGraph::add_actor(std::string name, int time) {
  if (time < 1)
    throw GraphError("SDF actor '" + name + "': time must be >= 1");
  if (name.empty()) name = "actor" + std::to_string(actors_.size());
  actors_.push_back(SdfActor{std::move(name), time});
  return actors_.size() - 1;
}

std::size_t SdfGraph::add_channel(ActorId from, ActorId to, int produce,
                                  int consume, int initial_tokens,
                                  std::size_t token_volume) {
  if (from >= actors_.size() || to >= actors_.size())
    throw GraphError("SDF channel endpoint out of range");
  if (produce < 1 || consume < 1)
    throw GraphError("SDF rates must be >= 1");
  if (initial_tokens < 0)
    throw GraphError("SDF initial tokens must be >= 0");
  if (token_volume < 1)
    throw GraphError("SDF token volume must be >= 1");
  if (token_volume > kMaxEdgeVolume)
    throw GraphError("SDF token volume " + std::to_string(token_volume) +
                     " exceeds the " + std::to_string(kMaxEdgeVolume) +
                     " cap");
  channels_.push_back(
      SdfChannel{from, to, produce, consume, initial_tokens, token_volume});
  return channels_.size() - 1;
}

const SdfActor& SdfGraph::actor(ActorId a) const {
  CCS_EXPECTS(a < actors_.size());
  return actors_[a];
}

const SdfChannel& SdfGraph::channel(std::size_t c) const {
  CCS_EXPECTS(c < channels_.size());
  return channels_[c];
}

namespace {

struct Frac {
  long long num = 0, den = 1;  // den > 0, reduced

  static Frac make(long long n, long long d) {
    CCS_ASSERT(d > 0 && n > 0);
    const long long g = std::gcd(n, d);
    return Frac{n / g, d / g};
  }
};

}  // namespace

std::vector<long long> repetition_vector(const SdfGraph& sdf) {
  const std::size_t n = sdf.actor_count();
  if (n == 0) return {};

  // Undirected adjacency over channels for the rate propagation.
  std::vector<std::vector<std::size_t>> touching(n);
  for (std::size_t c = 0; c < sdf.channel_count(); ++c) {
    touching[sdf.channel(c).from].push_back(c);
    touching[sdf.channel(c).to].push_back(c);
  }

  std::vector<Frac> q(n);
  std::vector<bool> known(n, false);
  q[0] = Frac{1, 1};
  known[0] = true;
  std::queue<ActorId> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    const ActorId a = frontier.front();
    frontier.pop();
    for (const std::size_t cid : touching[a]) {
      const SdfChannel& ch = sdf.channel(cid);
      // Balance: q[from]*produce == q[to]*consume.
      const ActorId other = ch.from == a ? ch.to : ch.from;
      Frac expect;
      if (ch.from == a) {
        expect = Frac::make(q[a].num * ch.produce, q[a].den * ch.consume);
      } else {
        expect = Frac::make(q[a].num * ch.consume, q[a].den * ch.produce);
      }
      if (!known[other]) {
        q[other] = expect;
        known[other] = true;
        frontier.push(other);
      } else if (q[other].num != expect.num || q[other].den != expect.den) {
        std::ostringstream os;
        os << "SDF '" << sdf.name() << "' is inconsistent at channel "
           << sdf.actor(ch.from).name << "->" << sdf.actor(ch.to).name
           << " (balance equations have no solution)";
        throw GraphError(os.str());
      }
    }
  }
  for (ActorId a = 0; a < n; ++a)
    if (!known[a])
      throw GraphError("SDF '" + sdf.name() +
                       "' is not connected; split it into components");

  long long scale = 1;
  for (const Frac& f : q) scale = std::lcm(scale, f.den);
  std::vector<long long> reps(n);
  long long common = 0;
  for (ActorId a = 0; a < n; ++a) {
    reps[a] = q[a].num * (scale / q[a].den);
    common = std::gcd(common, reps[a]);
  }
  for (auto& r : reps) r /= common;
  return reps;
}

SdfExpansion expand_sdf(const SdfGraph& sdf) {
  SdfExpansion out{Csdfg(sdf.name() + "_hsdf"), {}, repetition_vector(sdf)};
  const std::size_t n = sdf.actor_count();

  out.copy_of.assign(n, {});
  for (ActorId a = 0; a < n; ++a) {
    for (long long k = 0; k < out.repetitions[a]; ++k)
      out.copy_of[a].push_back(out.graph.add_node(
          sdf.actor(a).name + "." + std::to_string(k), sdf.actor(a).time));
  }

  auto floor_div = [](long long x, long long y) {
    CCS_ASSERT(y > 0);
    return x >= 0 ? x / y : -((-x + y - 1) / y);
  };

  // A zero-delay self-loop or cycle in the expansion means some channel
  // holds too few initial tokens.
  const auto deadlock = [&](const GraphError& e) {
    return GraphError("SDF '" + sdf.name() +
                      "' deadlocks (insufficient initial tokens): " +
                      e.what());
  };
  for (std::size_t cid = 0; cid < sdf.channel_count(); ++cid) {
    const SdfChannel& ch = sdf.channel(cid);
    const long long qa = out.repetitions[ch.from];
    const long long qb = out.repetitions[ch.to];
    // Merge token dependences by (producer copy, consumer copy, delay).
    std::map<std::tuple<NodeId, NodeId, long long>, long long> bundle;
    for (long long j = 0; j < qb; ++j) {
      for (long long slot = 0; slot < ch.consume; ++slot) {
        const long long token = j * ch.consume + slot;
        const long long firing = floor_div(token - ch.initial_tokens,
                                           ch.produce);
        const long long iter = floor_div(firing, qa);
        const long long copy = firing - iter * qa;  // firing mod qa, >= 0
        const NodeId src = out.copy_of[ch.from][static_cast<std::size_t>(copy)];
        const NodeId dst = out.copy_of[ch.to][static_cast<std::size_t>(j)];
        bundle[{src, dst, -iter}] += 1;
      }
    }
    for (const auto& [key, count] : bundle) {
      const auto& [src, dst, delay] = key;
      // A capped token volume times at most `consume` tokens cannot wrap.
      const std::size_t volume =
          ch.token_volume * static_cast<std::size_t>(count);
      if (volume > kMaxEdgeVolume)
        throw GraphError("SDF channel " + sdf.actor(ch.from).name + "->" +
                         sdf.actor(ch.to).name + ": merged volume " +
                         std::to_string(volume) + " exceeds the " +
                         std::to_string(kMaxEdgeVolume) + " cap");
      try {
        out.graph.add_edge(src, dst, static_cast<int>(delay), volume);
      } catch (const GraphError& e) {
        throw deadlock(e);
      }
    }
  }
  try {
    out.graph.require_legal();
  } catch (const GraphError& e) {
    throw deadlock(e);
  }
  return out;
}

}  // namespace ccs
