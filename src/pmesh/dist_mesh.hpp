#pragma once
// Distributed tetrahedral mesh (paper §3, distributed-memory 3D_TAG).
//
// Each logical rank owns the initial-mesh elements its partition assigns to
// it, plus their whole refinement subtrees (descendants follow their root —
// that is also why Wremap counts the full tree). Vertices and edges on
// partition boundaries are replicated on every sharing rank; each shared
// object carries a shared-processor list (SPL) with the *remote local ids*
// of its copies, which is what messages address ("a list of shared
// processors is also generated for each shared object").
//
// Construction distributes a (possibly already adapted) global mesh in
// O(N + P); it serves the initial distribution and the gather-based
// distributed coarsening. After that, the parallel marking / refinement
// algorithms (parallel_adapt.hpp) mutate only the per-rank local meshes and
// keep the SPL maps consistent through explicit messages, and data
// migration (migrate.hpp) moves refinement subtrees between the local
// meshes in place, through the engine, without a global mirror.

#include <map>
#include <vector>

#include "mesh/tet_mesh.hpp"
#include "partition/quality.hpp"
#include "runtime/engine.hpp"

namespace plum::pmesh {

/// One (rank, remote local id) entry of a shared object's SPL.
struct SharedCopy {
  Rank rank = kNoRank;
  Index remote_id = kInvalidIndex;
};

/// SPL map: local id -> copies on other ranks. Deliberately an *ordered*
/// map: the parallel adaption and solver range-for these maps to build
/// Outbox::send batches, so the iteration order is part of the engine
/// determinism contract (runtime/engine.hpp) — an unordered_map here made
/// message payload order depend on the standard library's hashing.
/// plum-lint's `unordered-iteration` check enforces this.
using SplMap = std::map<Index, std::vector<SharedCopy>>;

/// Per-rank piece of the distributed mesh.
struct LocalMesh {
  mesh::TetMesh mesh;

  /// Local root element -> global initial-element id (dual graph vertex).
  std::vector<Index> root_global;

  /// Construction-time global ids (local id -> id in the source global
  /// mesh). Entities created by later parallel adaption have no entry, and
  /// migration clears both tables; cross-rank identity lives purely in the
  /// SPL maps.
  std::vector<Index> vert_global;
  std::vector<Index> edge_global;

  /// SPLs; only boundary objects appear. Keys iterate in ascending local
  /// id so every traversal (message building, validation) is deterministic.
  // plum-scale: dist(P) -- keyed by global id but holds only this rank's shared-boundary entries, O(cut) not O(N)
  SplMap shared_verts;
  // plum-scale: dist(P) -- keyed by global id but holds only this rank's shared-boundary entries, O(cut) not O(N)
  SplMap shared_edges;

  [[nodiscard]] bool vert_is_shared(Index v) const {
    return shared_verts.count(v) > 0;
  }
  [[nodiscard]] bool edge_is_shared(Index e) const {
    return shared_edges.count(e) > 0;
  }
};

class DistMesh {
 public:
  /// Distributes `global` over `nranks` ranks: initial element t goes to
  /// root_part[t]; descendants follow. `global` may be pre-adapted.
  /// O(N + P): elements are bucketed by rank in one pass, each rank's id
  /// maps reuse one shared scratch, and SPLs are inverted from per-object
  /// holder lists.
  DistMesh(const mesh::TetMesh& global, const partition::PartVec& root_part,
           Rank nranks);

  [[nodiscard]] Rank nranks() const {
    return static_cast<Rank>(locals_.size());
  }
  [[nodiscard]] LocalMesh& local(Rank r) {
    return locals_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] const LocalMesh& local(Rank r) const {
    return locals_[static_cast<std::size_t>(r)];
  }

  /// Sum over ranks of active local elements (shared objects make vertex /
  /// edge sums exceed the global counts; elements are never replicated).
  [[nodiscard]] Index total_active_elements() const;

  /// Per-rank active leaf element counts — the solver load vector.
  [[nodiscard]] std::vector<Index> active_elements_per_rank() const;

  /// Extra storage fraction of the parallel version: replicated shared
  /// objects / total local objects (paper: "less than 10%").
  [[nodiscard]] double shared_object_fraction() const;

  /// Checks SPL symmetry (i's entry for j mirrors j's entry for i) and that
  /// shared edges/vertices have identical geometry on every copy.
  void validate() const;

 private:
  std::vector<LocalMesh> locals_;
};

}  // namespace plum::pmesh
