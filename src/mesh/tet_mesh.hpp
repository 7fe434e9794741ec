#pragma once
// Edge-based tetrahedral mesh with retained refinement forest (3D_TAG-style,
// paper §3).
//
// The mesh keeps every entity ever created (vertices, edges, elements,
// boundary faces); refinement links parents to children and the *current
// computational mesh* is the set of leaf elements plus the edges/faces they
// reference. Coarsening removes subtrees and then compacts the arrays —
// "objects are renumbered due to compaction" — preserving the relative
// order, so initial-mesh entities (which can never be coarsened away) keep
// their ids forever. That stability is what lets the dual graph of the
// initial mesh (src/graph/dual.hpp) survive any number of adaptions.
//
// The edge->element lists of §3 are one flat CSR table over the leaf
// elements (offsets per edge + one element array, like graph::Csr), rebuilt
// once at the end of each mutation batch — from_cells, assemble,
// purge_and_compact and adapt::refine_mesh — rather than patched one
// element at a time. Mutators mark it stale; reading it stale aborts.
//
// TetMesh owns topology bookkeeping only; the adaption *algorithms*
// (marking, pattern upgrade, subdivision, coarsening) live in src/adapt.

#include <functional>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "mesh/entities.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace plum::mesh {

/// Per-initial-element weights for the dual graph (paper §4.1).
struct RootWeights {
  std::vector<Weight> wcomp;   ///< #leaf elements in each refinement tree
  std::vector<Weight> wremap;  ///< #total elements in each refinement tree
};

class TetMesh {
 public:
  TetMesh() = default;

  /// Builds the initial mesh from vertex coordinates and tet connectivity.
  /// Edges and boundary faces are derived; a face is boundary iff exactly
  /// one tet touches it. Elements must be positively oriented.
  static TetMesh from_cells(std::vector<Vec3> vertices,
                            std::span<const std::array<Index, 4>> tets);

  // --- sizes ---------------------------------------------------------------
  [[nodiscard]] Index num_vertices() const {
    return static_cast<Index>(vertices_.size());
  }
  [[nodiscard]] Index num_edges() const {
    return static_cast<Index>(edges_.size());
  }
  [[nodiscard]] Index num_elements() const {
    return static_cast<Index>(elements_.size());
  }
  [[nodiscard]] Index num_bfaces() const {
    return static_cast<Index>(bfaces_.size());
  }
  [[nodiscard]] Index num_initial_elements() const { return n_init_elems_; }
  [[nodiscard]] Index num_initial_edges() const { return n_init_edges_; }

  /// Counts over the *current computational mesh* (leaves only). These are
  /// the quantities Table 1 reports.
  [[nodiscard]] Index num_active_elements() const;
  [[nodiscard]] Index num_active_edges() const;
  [[nodiscard]] Index num_active_bfaces() const;

  // --- entity access -------------------------------------------------------
  [[nodiscard]] const Vertex& vertex(Index v) const { return vertices_[v]; }
  [[nodiscard]] Vertex& vertex(Index v) { return vertices_[v]; }
  [[nodiscard]] const Edge& edge(Index e) const { return edges_[e]; }
  [[nodiscard]] Edge& edge(Index e) { return edges_[e]; }
  [[nodiscard]] const Element& element(Index t) const { return elements_[t]; }
  [[nodiscard]] Element& element(Index t) { return elements_[t]; }
  [[nodiscard]] const BFace& bface(Index f) const { return bfaces_[f]; }
  [[nodiscard]] BFace& bface(Index f) { return bfaces_[f]; }

  /// Alive leaf elements sharing edge `e`, in increasing id order ("each
  /// edge has a list of all the elements that share it" — the
  /// search-eliminating lists of §3). The table must be current.
  [[nodiscard]] std::span<const Index> edge_elements(Index e) const {
    PLUM_ASSERT_MSG(!leaf_table_stale_, "edge->element table is stale");
    const auto b = static_cast<std::size_t>(leaf_offsets_[e]);
    const auto n = static_cast<std::size_t>(leaf_offsets_[e + 1]) - b;
    return {leaf_elems_.data() + b, n};
  }

  /// Edge id joining v0,v1 or kInvalidIndex.
  [[nodiscard]] Index find_edge(Index v0, Index v1) const;

  /// Ids of all leaf elements (the computational mesh).
  [[nodiscard]] std::vector<Index> active_elements() const;

  // --- mutation API used by the adaptor ------------------------------------

  /// Adds a vertex; returns its id.
  Index add_vertex(const Vec3& pos, bool boundary);

  /// Makes room for `n_vertices` vertices and `n_elements` elements in
  /// total, so a batch whose growth is known up front never reallocates.
  void reserve(Index n_vertices, Index n_elements);

  /// Finds the edge (v0,v1), creating it (with the given level/boundary
  /// flags) if absent. Creating an edge marks the edge->element table
  /// stale.
  Index find_or_add_edge(Index v0, Index v1, int level, bool boundary);

  /// Bisects edge `e`: creates the midpoint vertex and the two child edges
  /// (idempotent — returns existing midpoint if already bisected). Fires the
  /// on_bisect hook for solution interpolation. Marks the edge->element
  /// table stale.
  Index bisect_edge(Index e);

  /// Creates a child element of `parent` with the given vertices. Edges are
  /// found-or-created at level parent.level+1. Children of one parent must
  /// be created consecutively. Marks the edge->element table stale until
  /// the batch ends with rebuild_leaf_table().
  Index add_child_element(Index parent, const std::array<Index, 4>& verts);

  /// Rebuilds the edge->element table from the alive leaf elements (one
  /// counting pass, lists in increasing element id). O(#elements).
  void rebuild_leaf_table();

  /// Boundary-face management mirrors element refinement.
  Index add_child_bface(Index parent, const std::array<Index, 3>& verts);

  /// Deletes everything flagged dead (alive == false), compacts all arrays
  /// preserving order, rewrites all cross-references and rebuilds the edge
  /// map and the edge->element table. Initial-mesh entities keep their ids
  /// (they are never dead). Returns the vertex renumbering as new-id ->
  /// old-id (what a per-vertex solution array needs to follow the
  /// compaction).
  std::vector<Index> purge_and_compact();

  /// Assembles a mesh from fully-specified, locally-indexed entity records
  /// (the distributed-mesh constructor carves per-rank local meshes this
  /// way). Rebuilds the edge map and the edge->leaf-element lists. Initial
  /// entities must occupy the array prefixes [0, n_init_*).
  static TetMesh assemble(std::vector<Vertex> vertices,
                          std::vector<Edge> edges,
                          std::vector<Element> elements,
                          std::vector<BFace> bfaces, Index n_init_elems,
                          Index n_init_edges);

  /// Hook invoked as (parent_edge, mid_vertex) when an edge is bisected;
  /// the solver interpolates its solution vector here (paper §3: "linearly
  /// interpolated at the mid-point").
  std::function<void(Index, Index)> on_bisect;

  // --- dual-graph support ---------------------------------------------------

  /// Walks every refinement tree once; O(#elements).
  [[nodiscard]] RootWeights root_weights() const;

  /// Dual graph of the initial mesh (unit weights; refresh via
  /// root_weights + Csr::set_weights).
  [[nodiscard]] graph::Csr build_initial_dual() const;

  /// Checks structural invariants; aborts on violation. O(mesh size).
  void validate() const;

  /// Sum of leaf-element volumes (conservation check for adaption).
  [[nodiscard]] double total_volume() const;

  /// Geometry helpers.
  [[nodiscard]] Vec3 element_centroid(Index t) const;
  [[nodiscard]] double element_volume(Index t) const;
  [[nodiscard]] double edge_length(Index e) const;

 private:
  /// Edge lookup by endpoints: an open-addressing hash table (linear
  /// probing, power-of-two capacity, at most 3/4 full) from the canonical
  /// pair (v0 < v1) to the edge id. Lookup-only — never iterated, so its
  /// layout cannot reach messages or sums — and one flat allocation, so a
  /// mesh builds and frees it in O(1) allocator calls.
  class EdgeMap {
   public:
    /// Makes room for `n` entries without rehashing.
    void reserve(std::size_t n);
    void clear();
    /// Id stored for (v0, v1), or kInvalidIndex.
    [[nodiscard]] Index find(Index v0, Index v1) const;
    /// Stores (v0, v1) -> id unless the pair is present; returns the stored
    /// id either way.
    Index insert(Index v0, Index v1, Index id);

   private:
    struct Slot {
      Index v0 = kInvalidIndex;
      Index v1 = kInvalidIndex;
      Index id = kInvalidIndex;  ///< kInvalidIndex marks an empty slot
    };
    [[nodiscard]] std::size_t home(Index v0, Index v1) const;
    void rehash(std::size_t capacity);

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int shift_ = 64;
  };

  std::vector<Vertex> vertices_;
  std::vector<Edge> edges_;
  std::vector<Element> elements_;
  std::vector<BFace> bfaces_;
  // Edge->leaf-element table (CSR): the elements of edge e are
  // leaf_elems_[leaf_offsets_[e] .. leaf_offsets_[e + 1]).
  std::vector<Index> leaf_offsets_{0};
  std::vector<Index> leaf_elems_;
  bool leaf_table_stale_ = false;
  EdgeMap edge_map_;
  Index n_init_elems_ = 0;
  Index n_init_edges_ = 0;
};

}  // namespace plum::mesh
