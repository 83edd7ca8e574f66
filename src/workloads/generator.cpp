#include "workloads/generator.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ccs {

Csdfg random_csdfg(const RandomDfgConfig& config, std::uint64_t seed) {
  if (config.num_nodes < 2) throw GraphError("random_csdfg: num_nodes < 2");
  if (config.num_layers < 1) throw GraphError("random_csdfg: num_layers < 1");
  if (config.num_nodes < config.num_layers)
    throw GraphError("random_csdfg: fewer nodes than layers");
  if (config.max_time < 1 || config.max_volume < 1 || config.max_delay < 1)
    throw GraphError("random_csdfg: max_time/max_volume/max_delay must be >= 1");
  if (config.extra_edge_prob < 0.0 || config.extra_edge_prob > 1.0)
    throw GraphError("random_csdfg: extra_edge_prob outside [0,1]");

  Rng rng(seed);
  Csdfg g("random_s" + std::to_string(seed));

  // Assign nodes to layers: one guaranteed per layer, the rest uniform.
  std::vector<std::size_t> layer_of(config.num_nodes);
  for (std::size_t i = 0; i < config.num_layers; ++i) layer_of[i] = i;
  for (std::size_t i = config.num_layers; i < config.num_nodes; ++i)
    layer_of[i] = rng.uniform_size(0, config.num_layers - 1);
  std::sort(layer_of.begin(), layer_of.end());

  std::vector<std::vector<NodeId>> layers(config.num_layers);
  for (std::size_t i = 0; i < config.num_nodes; ++i) {
    const NodeId v = g.add_node(std::string("n").append(std::to_string(i)),
                                rng.uniform_int(1, config.max_time));
    layers[layer_of[i]].push_back(v);
  }

  auto volume = [&] { return rng.uniform_size(1, config.max_volume); };

  // Connectivity spine + extra forward edges, all zero-delay.
  for (std::size_t l = 1; l < config.num_layers; ++l) {
    for (NodeId v : layers[l]) {
      const auto& prev = layers[l - 1];
      const NodeId parent = prev[rng.uniform_size(0, prev.size() - 1)];
      g.add_edge(parent, v, 0, volume());
      for (NodeId u : prev) {
        if (u != parent && rng.bernoulli(config.extra_edge_prob))
          g.add_edge(u, v, 0, volume());
      }
    }
  }

  // Loop-carried back edges: from any node to a node in the same or an
  // earlier layer (self-loops allowed); positive delay keeps them legal.
  for (std::size_t k = 0; k < config.num_back_edges; ++k) {
    NodeId from = rng.uniform_size(0, config.num_nodes - 1);
    NodeId to = rng.uniform_size(0, config.num_nodes - 1);
    // Bias toward genuinely backward edges for interesting recurrences.
    if (layer_of[to] > layer_of[from]) std::swap(to, from);
    g.add_edge(from, to, rng.uniform_int(1, config.max_delay), volume());
  }

  g.require_legal();
  CCS_ENSURES(g.node_count() == config.num_nodes);
  return g;
}

}  // namespace ccs
