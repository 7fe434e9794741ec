#pragma once
// Graph coloring. Parallel MeTiS (paper §4.2) parallelizes coarsening and
// uncoarsening with a vertex coloring: vertices of one color can be matched
// or moved simultaneously without conflicts. This is that primitive. No
// caller uses it yet: the multilevel partitioner matches and refines
// serially, and the SP2 machine model (src/sim) prices partitioning rounds
// without colour-class counts. It is kept for colour-class heavy-edge
// matching.

#include <vector>

#include "graph/csr.hpp"

namespace plum::graph {

/// Greedy first-fit coloring in the given vertex order (identity order if
/// `order` is empty). Returns per-vertex colors in [0, num_colors).
struct Coloring {
  std::vector<int> color;
  int num_colors = 0;
};

Coloring greedy_coloring(const Csr& g, const std::vector<Index>& order = {});

/// Luby-style randomized maximal-independent-set coloring: repeatedly peel a
/// MIS, giving all its vertices the next color. Produces the color classes a
/// synchronous parallel machine would actually process one round at a time.
Coloring luby_coloring(const Csr& g, std::uint64_t seed);

/// Checks that no edge joins two equal colors.
bool is_valid_coloring(const Csr& g, const std::vector<int>& color);

}  // namespace plum::graph
