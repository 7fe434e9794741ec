#pragma once
// Data remapping / element migration (paper §4.6): physically move every
// initial-mesh element whose processor assignment changed — together with
// its whole refinement subtree ("all descendants of the root element must
// move with it") — and repair the per-rank local meshes and SPLs.
//
// Migration runs in place, as BSP supersteps on the engine; no rank ever
// sees the global mesh:
//
//   (states)  the highest-rank holder of every shared vertex sends its
//             solution state to the other holders, so all copies agree;
//   pack      each rank sends one message per destination holding the
//             leaving subtrees' elements, their edges and vertices (once
//             per message, tagged with their identity key), boundary-face
//             trees, root ids and per-vertex states;
//   unpack    each rank rebuilds its local mesh from the kept and received
//             records, de-duplicating vertices and edges by key, and
//             reports every possibly-shared object to the key's owner;
//   SPL repair  owners answer with holder lists, which become the SPLs.
//
// The identity key of a vertex or edge is (owner, owner's local id), with
// the owner the lowest rank holding a copy. Unpacking orders entities by
// that key exactly as finalize_gather's global numbering would, so the
// result is bit-identical to gathering the mesh and redistributing it with
// the DistMesh constructor — without either step.

#include "obs/memory.hpp"
#include "pmesh/dist_mesh.hpp"
#include "solver/euler.hpp"

namespace plum::pmesh {

/// Bytes of the fixed header every pack message starts with (per-table
/// record counts and byte offsets). Keep sim::MachineParams::bytes_per_set
/// equal to this so the cost model's per-set term prices the real framing
/// (pinned by test_calibration).
inline constexpr std::int64_t kSetFramingBytes = 96;

struct MigrateStats {
  /// Initial-mesh elements (roots) that changed processor.
  Index roots_moved = 0;
  /// Adapted-mesh elements moved (sum of moved subtree sizes) — the
  /// quantity Wremap predicts.
  std::int64_t elements_moved = 0;
  /// Pack messages, one per nonzero (sender, receiver) set — the N the
  /// cost model's per-set terms price.
  int sets_moved = 0;
  /// Bytes each rank sent / received during the migration: the pack
  /// messages plus the state and SPL-repair traffic. Together they are
  /// exactly what the migration adds to the engine ledger.
  std::vector<std::int64_t> bytes_sent;
  std::vector<std::int64_t> bytes_received;
};

/// Moves ownership per `new_root_part` (indexed by *global* initial-element
/// id) and rewrites `dm` in place. Traffic goes through `eng`. If `states`
/// is non-null it holds one per-vertex solution vector per rank (aligned
/// with the old local meshes) and is rewritten to follow the new
/// distribution — the "all necessary data is appropriately redistributed"
/// of the paper's Fig. 1. A non-null `mem` arena-backs each rank's pack and
/// unpack staging on that rank's row and attributes it to the open phase.
///
/// Every rank renumbers its entities, including ranks that neither send
/// nor receive. The construction-time id tables (vert_global/edge_global)
/// come out empty: no global source mesh exists for them to index.
MigrateStats migrate(DistMesh& dm, rt::Engine& eng,
                     const partition::PartVec& new_root_part,
                     std::vector<std::vector<solver::State>>* states =
                         nullptr,
                     obs::MemoryTracker* mem = nullptr);

}  // namespace plum::pmesh
