#pragma once
// Test oracle for pmesh::migrate: the gather-and-rebuild remap. The whole
// distributed mesh is gathered on the host (finalize_gather), redistributed
// under the new assignment by the DistMesh constructor, and the solution
// follows through the gathered vertex numbering, "last writer wins" (the
// highest rank holding a vertex). The in-place migration must reproduce
// this result bit for bit; test_migrate.cpp checks that it does.

#include <vector>

#include "pmesh/finalize.hpp"
#include "pmesh/migrate.hpp"
#include "util/assert.hpp"

namespace plum::pmesh::testing {

/// Same contract as pmesh::migrate (traffic aside: only roots_moved and
/// elements_moved are filled in).
inline MigrateStats migrate_by_rebuild(
    DistMesh& dm, rt::Engine& eng, const partition::PartVec& new_root_part,
    std::vector<std::vector<solver::State>>* states = nullptr) {
  const Rank P = dm.nranks();
  MigrateStats stats;
  for (Rank r = 0; r < P; ++r) {
    const LocalMesh& lm = dm.local(r);
    const auto weights = lm.mesh.root_weights();
    for (Index lr = 0; lr < static_cast<Index>(lm.root_global.size()); ++lr) {
      const Index groot = lm.root_global[static_cast<std::size_t>(lr)];
      if (new_root_part[static_cast<std::size_t>(groot)] == r) continue;
      ++stats.roots_moved;
      stats.elements_moved += weights.wremap[static_cast<std::size_t>(lr)];
    }
  }

  const auto fin = finalize_gather(dm, eng);

  std::vector<solver::State> global_state;
  if (states) {
    global_state.resize(static_cast<std::size_t>(fin.global.num_vertices()));
    for (Rank r = 0; r < P; ++r) {
      const auto& vg = fin.vert_global[static_cast<std::size_t>(r)];
      const auto& su = (*states)[static_cast<std::size_t>(r)];
      PLUM_ASSERT(su.size() == vg.size());
      for (std::size_t v = 0; v < vg.size(); ++v) {
        global_state[static_cast<std::size_t>(vg[v])] = su[v];
      }
    }
  }
  // finalize_gather renumbered initial elements; recover the new-partition
  // entry of each gathered root through the old global ids.
  partition::PartVec gathered_part(
      static_cast<std::size_t>(fin.global.num_initial_elements()), kNoRank);
  std::vector<Index> new_to_orig(gathered_part.size(), kInvalidIndex);
  for (Rank r = 0; r < P; ++r) {
    const LocalMesh& lm = dm.local(r);
    for (Index lr = 0; lr < static_cast<Index>(lm.root_global.size()); ++lr) {
      const Index old_gid = lm.root_global[static_cast<std::size_t>(lr)];
      const auto new_gid = static_cast<std::size_t>(
          fin.elem_global[static_cast<std::size_t>(r)]
                         [static_cast<std::size_t>(lr)]);
      gathered_part[new_gid] =
          new_root_part[static_cast<std::size_t>(old_gid)];
      new_to_orig[new_gid] = old_gid;
    }
  }
  DistMesh rebuilt(fin.global, gathered_part, P);
  // Translate root_global back to the caller's original numbering.
  for (Rank r = 0; r < P; ++r) {
    for (auto& g : rebuilt.local(r).root_global) {
      g = new_to_orig[static_cast<std::size_t>(g)];
      PLUM_ASSERT(g != kInvalidIndex);
    }
  }
  if (states) {
    states->assign(static_cast<std::size_t>(P), {});
    for (Rank r = 0; r < P; ++r) {
      const auto& vg = rebuilt.local(r).vert_global;  // gathered-space ids
      auto& su = (*states)[static_cast<std::size_t>(r)];
      su.resize(vg.size());
      for (std::size_t v = 0; v < vg.size(); ++v) {
        su[v] = global_state[static_cast<std::size_t>(vg[v])];
      }
    }
  }
  dm = std::move(rebuilt);
  return stats;
}

}  // namespace plum::pmesh::testing
