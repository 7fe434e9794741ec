// In-place migration vs the gather-and-rebuild oracle (migrate_oracle.hpp):
// every rank's local mesh, root ids, SPL maps and solution states must come
// out bit-identical, on both engines, for meshes straight from the DistMesh
// constructor and for meshes grown by parallel refinement (whose SPLs hold
// objects created by adaption), under assorted new assignments. The ledger
// must carry exactly the traffic MigrateStats reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <string>
#include <tuple>

#include "mesh/box_mesh.hpp"
#include "migrate_oracle.hpp"
#include "partition/multilevel.hpp"
#include "pmesh/migrate.hpp"
#include "pmesh/parallel_adapt.hpp"
#include "util/rng.hpp"

namespace plum::pmesh {
namespace {

using States = std::vector<std::vector<solver::State>>;

enum class Assign {
  kNoop,
  kRotate,
  kRandom,
  kAllToOne,
  kSingleRoot,
  kSendOnly,
  kReceiveOnly
};

const char* assign_name(Assign a) {
  switch (a) {
    case Assign::kNoop: return "Noop";
    case Assign::kRotate: return "Rotate";
    case Assign::kRandom: return "Random";
    case Assign::kAllToOne: return "AllToOne";
    case Assign::kSingleRoot: return "SingleRoot";
    case Assign::kSendOnly: return "SendOnly";
    case Assign::kReceiveOnly: return "ReceiveOnly";
  }
  return "?";
}

/// Current rank of every global root.
partition::PartVec current_part(const DistMesh& dm) {
  Index n = 0;
  for (Rank r = 0; r < dm.nranks(); ++r) {
    n += static_cast<Index>(dm.local(r).root_global.size());
  }
  partition::PartVec part(static_cast<std::size_t>(n), kNoRank);
  for (Rank r = 0; r < dm.nranks(); ++r) {
    for (Index g : dm.local(r).root_global) part[static_cast<std::size_t>(g)] = r;
  }
  return part;
}

partition::PartVec make_assignment(const DistMesh& dm, Assign a,
                                   std::uint64_t seed) {
  const Rank P = dm.nranks();
  const auto cur = current_part(dm);
  auto next = cur;
  Rng rng(seed);
  for (std::size_t g = 0; g < cur.size(); ++g) {
    const Rank c = cur[g];
    const auto gi = static_cast<Rank>(g);
    switch (a) {
      case Assign::kNoop: break;
      case Assign::kRotate: next[g] = (c + 1) % P; break;
      case Assign::kRandom:
        next[g] = static_cast<Rank>(rng.below(static_cast<std::uint64_t>(P)));
        break;
      case Assign::kAllToOne: next[g] = P - 1; break;
      case Assign::kSingleRoot: break;
      case Assign::kSendOnly:  // rank 0 gives everything away, gets nothing
        if (c == 0 && P > 1) next[g] = 1 + gi % (P - 1);
        break;
      case Assign::kReceiveOnly:  // rank 0 only receives
        if (c != 0 && gi % 3 == 0) next[g] = 0;
        break;
    }
  }
  if (a == Assign::kSingleRoot) next[cur.size() / 2] = (cur[cur.size() / 2] + 1) % P;
  return next;
}

/// Per-rank states with rank-dependent last bits, so shared copies differ
/// the way the solver's do.
States make_states(const DistMesh& dm) {
  States s(static_cast<std::size_t>(dm.nranks()));
  for (Rank r = 0; r < dm.nranks(); ++r) {
    const auto& m = dm.local(r).mesh;
    for (Index v = 0; v < m.num_vertices(); ++v) {
      const auto& p = m.vertex(v).pos;
      s[static_cast<std::size_t>(r)].push_back(
          {1.0 + p.x, p.y, p.z, p.x * p.y,
           2.5 + p.z * (1.0 + 1e-15 * static_cast<double>(r + 1))});
    }
  }
  return s;
}

/// One round of parallel marking (edges near a point) + refinement, with
/// the solution interpolated onto new midpoints.
void refine_round(DistMesh& dm, rt::Engine& eng, States& states, int round) {
  const mesh::Vec3 c{0.3 + 0.1 * round, 0.4, 0.55};
  const double radius = 0.45 - 0.1 * round;
  std::vector<std::vector<char>> seeds(static_cast<std::size_t>(dm.nranks()));
  for (Rank r = 0; r < dm.nranks(); ++r) {
    const auto& m = dm.local(r).mesh;
    auto& sd = seeds[static_cast<std::size_t>(r)];
    sd.assign(static_cast<std::size_t>(m.num_edges()), 0);
    for (Index e = 0; e < m.num_edges(); ++e) {
      const auto& ed = m.edge(e);
      if (!ed.is_leaf() || m.edge_elements(e).empty()) continue;
      const auto mid = (m.vertex(ed.v0).pos + m.vertex(ed.v1).pos) * 0.5;
      if (norm(mid - c) < radius) sd[static_cast<std::size_t>(e)] = 1;
    }
  }
  const auto marks = parallel_mark(dm, eng, seeds);
  for (Rank r = 0; r < dm.nranks(); ++r) {
    auto& lm = dm.local(r);
    auto* u = &states[static_cast<std::size_t>(r)];
    lm.mesh.on_bisect = [u, &lm](Index e, Index mid) {
      const auto& ed = lm.mesh.edge(e);
      u->resize(static_cast<std::size_t>(mid) + 1);
      for (int k = 0; k < solver::kNumVars; ++k) {
        (*u)[static_cast<std::size_t>(mid)][k] =
            0.5 * ((*u)[static_cast<std::size_t>(ed.v0)][k] +
                   (*u)[static_cast<std::size_t>(ed.v1)][k]);
      }
    };
  }
  parallel_refine(dm, eng, marks);
  for (Rank r = 0; r < dm.nranks(); ++r) dm.local(r).mesh.on_bisect = nullptr;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string diff_spl(const SplMap& a, const SplMap& b) {
  if (a.size() != b.size()) return "SPL sizes differ";
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first) return "SPL keys differ at " + std::to_string(ia->first);
    if (ia->second.size() != ib->second.size()) return "SPL lengths differ";
    for (std::size_t k = 0; k < ia->second.size(); ++k) {
      if (ia->second[k].rank != ib->second[k].rank ||
          ia->second[k].remote_id != ib->second[k].remote_id) {
        return "SPL entries differ at " + std::to_string(ia->first);
      }
    }
  }
  return "";
}

/// Field-by-field, bit-for-bit comparison; "" when identical.
std::string diff_local(const LocalMesh& a, const LocalMesh& b) {
  const auto& ma = a.mesh;
  const auto& mb = b.mesh;
  std::ostringstream os;
  if (ma.num_vertices() != mb.num_vertices() ||
      ma.num_edges() != mb.num_edges() ||
      ma.num_elements() != mb.num_elements() ||
      ma.num_bfaces() != mb.num_bfaces() ||
      ma.num_initial_elements() != mb.num_initial_elements() ||
      ma.num_initial_edges() != mb.num_initial_edges()) {
    os << "sizes differ: v " << ma.num_vertices() << "/" << mb.num_vertices()
       << " e " << ma.num_edges() << "/" << mb.num_edges() << " t "
       << ma.num_elements() << "/" << mb.num_elements() << " f "
       << ma.num_bfaces() << "/" << mb.num_bfaces();
    return os.str();
  }
  for (Index v = 0; v < ma.num_vertices(); ++v) {
    const auto& x = ma.vertex(v);
    const auto& y = mb.vertex(v);
    if (!same_bits(x.pos.x, y.pos.x) || !same_bits(x.pos.y, y.pos.y) ||
        !same_bits(x.pos.z, y.pos.z) || x.boundary != y.boundary ||
        x.alive != y.alive) {
      return "vertex " + std::to_string(v);
    }
  }
  for (Index e = 0; e < ma.num_edges(); ++e) {
    const auto& x = ma.edge(e);
    const auto& y = mb.edge(e);
    if (x.v0 != y.v0 || x.v1 != y.v1 || x.parent != y.parent ||
        x.child != y.child || x.mid != y.mid || x.level != y.level ||
        x.boundary != y.boundary || x.alive != y.alive) {
      return "edge " + std::to_string(e);
    }
    if (!std::ranges::equal(ma.edge_elements(e), mb.edge_elements(e))) {
      return "edge_elements " + std::to_string(e);
    }
  }
  for (Index t = 0; t < ma.num_elements(); ++t) {
    const auto& x = ma.element(t);
    const auto& y = mb.element(t);
    if (x.verts != y.verts || x.edges != y.edges || x.parent != y.parent ||
        x.first_child != y.first_child || x.num_children != y.num_children ||
        x.level != y.level || x.subdiv_type != y.subdiv_type ||
        x.alive != y.alive || x.root != y.root) {
      return "element " + std::to_string(t);
    }
  }
  for (Index f = 0; f < ma.num_bfaces(); ++f) {
    const auto& x = ma.bface(f);
    const auto& y = mb.bface(f);
    if (x.verts != y.verts || x.edges != y.edges || x.parent != y.parent ||
        x.child != y.child || x.num_children != y.num_children ||
        x.alive != y.alive) {
      return "bface " + std::to_string(f);
    }
  }
  if (a.root_global != b.root_global) return "root_global";
  if (auto d = diff_spl(a.shared_verts, b.shared_verts); !d.empty()) {
    return "shared_verts: " + d;
  }
  if (auto d = diff_spl(a.shared_edges, b.shared_edges); !d.empty()) {
    return "shared_edges: " + d;
  }
  return "";
}

std::string diff_states(const std::vector<solver::State>& a,
                        const std::vector<solver::State>& b) {
  if (a.size() != b.size()) return "state sizes differ";
  for (std::size_t v = 0; v < a.size(); ++v) {
    for (int k = 0; k < solver::kNumVars; ++k) {
      if (!same_bits(a[v][k], b[v][k])) return "state " + std::to_string(v);
    }
  }
  return "";
}

struct Prepared {
  DistMesh dm;
  States states;
};

/// A P-rank distribution after `rounds` parallel refinements; between
/// rounds the mesh is migrated in place, so later inputs are themselves
/// migration outputs.
Prepared prepare(Rank P, int rounds) {
  const auto global = mesh::make_box_mesh(mesh::small_box(3));
  partition::MultilevelOptions opt;
  opt.nparts = P;
  const auto part =
      P == 1 ? partition::PartVec(static_cast<std::size_t>(
                                      global.num_initial_elements()),
                                  0)
             : partition::partition(global.build_initial_dual(), opt).part;
  Prepared p{DistMesh(global, part, P), {}};
  p.states = make_states(p.dm);
  rt::Engine eng(P);
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      migrate(p.dm, eng, make_assignment(p.dm, Assign::kRandom, 99 + round),
              &p.states);
    }
    refine_round(p.dm, eng, p.states, round);
  }
  return p;
}

using Param = std::tuple<Rank, int, Assign, bool>;

class MigrateOracle : public ::testing::TestWithParam<Param> {};

TEST_P(MigrateOracle, InPlaceMatchesGatherAndRebuild) {
  const auto [P, rounds, assign, parallel] = GetParam();
  Prepared base = prepare(P, rounds);
  const auto new_part = make_assignment(base.dm, assign, 7);

  DistMesh want = base.dm;
  States want_states = base.states;
  rt::Engine oracle_eng(P);
  const auto want_stats =
      testing::migrate_by_rebuild(want, oracle_eng, new_part, &want_states);

  DistMesh got = base.dm;
  States got_states = base.states;
  std::unique_ptr<rt::Engine> eng =
      parallel ? std::make_unique<rt::ParallelEngine>(P, 4)
               : std::make_unique<rt::Engine>(P);
  const auto got_stats = migrate(got, *eng, new_part, &got_states);
  got.validate();

  EXPECT_EQ(got_stats.roots_moved, want_stats.roots_moved);
  EXPECT_EQ(got_stats.elements_moved, want_stats.elements_moved);
  for (Rank r = 0; r < P; ++r) {
    EXPECT_EQ(diff_local(got.local(r), want.local(r)), "") << "rank " << r;
    EXPECT_EQ(diff_states(got_states[static_cast<std::size_t>(r)],
                          want_states[static_cast<std::size_t>(r)]),
              "")
        << "rank " << r;
  }

  // The ledger carries exactly the reported traffic; pack messages (the
  // bulk tag) are the message sets.
  std::int64_t ledger_bytes = 0, pack_msgs = 0;
  for (const auto& step : eng->ledger().steps) {
    for (const auto& c : step) {
      ledger_bytes += c.bytes_sent;
      for (const auto& cell : c.sends) pack_msgs += cell.tag == 0 ? cell.msgs : 0;
    }
  }
  std::int64_t sent = 0, received = 0;
  for (Rank r = 0; r < P; ++r) {
    sent += got_stats.bytes_sent[static_cast<std::size_t>(r)];
    received += got_stats.bytes_received[static_cast<std::size_t>(r)];
  }
  EXPECT_EQ(ledger_bytes, sent);
  EXPECT_EQ(ledger_bytes, received);
  EXPECT_EQ(pack_msgs, got_stats.sets_moved);
  if (got_stats.roots_moved == 0) {
    EXPECT_EQ(got_stats.sets_moved, 0);
  }
}

std::string case_name(const ::testing::TestParamInfo<Param>& info) {
  const Rank P = std::get<0>(info.param);
  const int rounds = std::get<1>(info.param);
  return "P" + std::to_string(P) + "_refined" + std::to_string(rounds) + "_" +
         assign_name(std::get<2>(info.param)) +
         (std::get<3>(info.param) ? "_Parallel4" : "_Seq");
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, MigrateOracle,
    ::testing::Combine(::testing::Values(1, 3, 7, 16), ::testing::Values(0, 1, 2),
                       ::testing::Values(Assign::kNoop, Assign::kRotate,
                                         Assign::kRandom, Assign::kAllToOne,
                                         Assign::kSingleRoot, Assign::kSendOnly,
                                         Assign::kReceiveOnly),
                       ::testing::Bool()),
    case_name);

}  // namespace
}  // namespace plum::pmesh
