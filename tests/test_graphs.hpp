// Graph sets shared by the differential and scale tests: the library loop
// bodies, the paper's five 8-PE machines, and bench_scaling's generated
// graphs.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "workloads/generator.hpp"
#include "workloads/library.hpp"

namespace ccs::test_graphs {

/// The 8 library loop bodies, by name.
inline std::vector<std::pair<std::string, Csdfg>> library_workloads() {
  std::vector<std::pair<std::string, Csdfg>> w;
  w.emplace_back("paper6", paper_example6());
  w.emplace_back("paper19", paper_example19());
  w.emplace_back("elliptic", elliptic_filter());
  w.emplace_back("lattice", lattice_filter());
  w.emplace_back("biquad3", iir_biquad_cascade(3));
  w.emplace_back("fir8", fir_filter(8));
  w.emplace_back("diffeq", diffeq_solver());
  w.emplace_back("correlator5", correlator(5));
  return w;
}

/// The paper's five 8-PE machines.
inline std::vector<Topology> paper_machines() {
  std::vector<Topology> machines;
  machines.push_back(make_complete(8));
  machines.push_back(make_linear_array(8));
  machines.push_back(make_ring(8));
  machines.push_back(make_mesh(4, 2));
  machines.push_back(make_hypercube(3));
  return machines;
}

/// The generated graph bench_scaling's rows run on (seed 4242): n/6
/// layers, n/8 back edges, times and volumes at most 3.
inline Csdfg graph_of_size(std::size_t nodes) {
  RandomDfgConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_layers = std::max<std::size_t>(3, nodes / 6);
  cfg.num_back_edges = std::max<std::size_t>(2, nodes / 8);
  cfg.max_time = 3;
  cfg.max_volume = 3;
  return random_csdfg(cfg, /*seed=*/4242);
}

}  // namespace ccs::test_graphs
