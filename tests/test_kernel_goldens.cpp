// Golden fixture for the per-rank compute kernels of the distributed cycle:
// the parallel Euler solver (residual fluxes, boundary closure, RK2 update,
// CFL reduction, dual-metric setup) and parallel marking + subdivision.
//
// CrossEngine.* only proves that the two engines agree with each other; the
// constants below pin what both must produce, so moving a kernel between
// host code and engine supersteps cannot silently change a bit. Every value
// is an FNV-1a hash over explicit fields (never raw struct bytes, so padding
// never leaks in). A kernel change that is meant to alter results must
// re-derive these constants and say why.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "mesh/box_mesh.hpp"
#include "partition/multilevel.hpp"
#include "pmesh/dist_mesh.hpp"
#include "pmesh/parallel_adapt.hpp"
#include "pmesh/parallel_solver.hpp"
#include "runtime/engine.hpp"
#include "solver/init_conditions.hpp"
#include "util/rng.hpp"

namespace plum {
namespace {

constexpr Rank kRanks = 6;

/// FNV-1a over explicitly fed fields.
class Fnv {
 public:
  template <typename T>
  Fnv& add(T v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    const auto u = static_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h_ ^= (u >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  Fnv& dbl(double d) { return add(std::bit_cast<std::uint64_t>(d)); }
  template <typename C>
  Fnv& ints(const C& c) {
    add(c.size());
    for (const auto& x : c) add(x);
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t hash_states(const std::vector<solver::State>& u) {
  Fnv f;
  f.add(u.size());
  for (const auto& s : u) {
    for (double x : s) f.dbl(x);
  }
  return f.value();
}

std::uint64_t hash_ledger(const rt::Ledger& led) {
  Fnv f;
  f.add(led.steps.size());
  for (const auto& step : led.steps) {
    f.add(step.size());
    for (const auto& c : step) {
      f.add(c.compute_units).add(c.msgs_sent).add(c.bytes_sent);
      f.add(c.sends.size());
      for (const auto& cell : c.sends) {
        f.add(cell.to).add(cell.tag).add(cell.msgs).add(cell.bytes);
      }
    }
  }
  return f.value();
}

void hash_spl(Fnv& f, const pmesh::SplMap& spl) {
  f.add(spl.size());
  for (const auto& [id, copies] : spl) {
    f.add(id).add(copies.size());
    for (const auto& c : copies) f.add(c.rank).add(c.remote_id);
  }
}

/// Bitwise hash of the whole distributed mesh: every rank's entities,
/// refinement links, root ids and SPL maps.
std::uint64_t hash_dist_mesh(const pmesh::DistMesh& dm) {
  Fnv f;
  f.add(dm.nranks());
  for (Rank r = 0; r < dm.nranks(); ++r) {
    const auto& lm = dm.local(r);
    const auto& m = lm.mesh;
    f.add(m.num_vertices()).add(m.num_edges()).add(m.num_elements());
    f.add(m.num_bfaces()).add(m.num_initial_elements()).add(m.num_initial_edges());
    for (Index v = 0; v < m.num_vertices(); ++v) {
      const auto& x = m.vertex(v);
      f.dbl(x.pos.x).dbl(x.pos.y).dbl(x.pos.z).add(x.boundary).add(x.alive);
    }
    for (Index e = 0; e < m.num_edges(); ++e) {
      const auto& x = m.edge(e);
      f.add(x.v0).add(x.v1).add(x.parent).add(x.child[0]).add(x.child[1]);
      f.add(x.mid).add(x.level).add(x.boundary).add(x.alive);
      f.ints(m.edge_elements(e));
    }
    for (Index t = 0; t < m.num_elements(); ++t) {
      const auto& x = m.element(t);
      f.ints(x.verts).ints(x.edges).add(x.parent).add(x.first_child);
      f.add(x.num_children).add(x.level).add(x.subdiv_type).add(x.alive);
      f.add(x.root);
    }
    for (Index b = 0; b < m.num_bfaces(); ++b) {
      const auto& x = m.bface(b);
      f.ints(x.verts).ints(x.edges).add(x.parent).ints(x.child);
      f.add(x.num_children).add(x.alive);
    }
    f.ints(lm.root_global);
    hash_spl(f, lm.shared_verts);
    hash_spl(f, lm.shared_edges);
  }
  return f.value();
}

pmesh::DistMesh make_dist_mesh() {
  auto global = mesh::make_box_mesh(mesh::small_box(6));
  const auto dual = global.build_initial_dual();
  partition::MultilevelOptions popt;
  popt.nparts = kRanks;
  const auto part = partition::partition(dual, popt).part;
  return pmesh::DistMesh(global, part, kRanks);
}

std::unique_ptr<rt::Engine> make_engine(int threads) {
  if (threads == 1) return std::make_unique<rt::Engine>(kRanks);
  return std::make_unique<rt::ParallelEngine>(kRanks, threads);
}

class KernelGoldens : public ::testing::TestWithParam<int> {};

TEST_P(KernelGoldens, SolverFiveSteps) {
  auto eng = make_engine(GetParam());
  auto dm = make_dist_mesh();
  pmesh::ParallelEulerSolver solver(&dm, eng.get());
  solver::BlastSpec blast;
  blast.radius = 0.25;
  for (Rank r = 0; r < kRanks; ++r) {
    solver::init_blast(dm.local(r).mesh, solver.solution(r), blast);
  }
  solver.run(4);
  const auto info = solver.step();

  constexpr std::array<std::uint64_t, kRanks> kSolution = {
      4839924080037976727ull, 8369879935219164690ull, 7754838035155596545ull,
      17871392152725106063ull, 561997154531157751ull, 15968404129084421478ull};
  for (Rank r = 0; r < kRanks; ++r) {
    EXPECT_EQ(hash_states(solver.solution(r)),
              kSolution[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
  Fnv totals;
  for (double x : solver.totals()) totals.dbl(x);
  EXPECT_EQ(totals.value(), 8656706469931236902ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(info.dt), 4582532934246076269ull);
  EXPECT_EQ(info.edge_flux_evals,
            (std::vector<std::int64_t>{724, 634, 638, 606, 566, 540}));
  EXPECT_EQ(eng->ledger().num_supersteps(), 32);
  EXPECT_EQ(hash_ledger(eng->ledger()), 8941065999380484368ull);
}

TEST_P(KernelGoldens, MarkAndRefine) {
  auto eng = make_engine(GetParam());
  auto dm = make_dist_mesh();
  // Per-rank solution-like states interpolated onto new midpoints, so the
  // on_bisect path is pinned too.
  std::vector<std::vector<solver::State>> states(kRanks);
  std::vector<std::vector<char>> seeds(kRanks);
  for (Rank r = 0; r < kRanks; ++r) {
    auto& lm = dm.local(r);
    auto& u = states[static_cast<std::size_t>(r)];
    for (Index v = 0; v < lm.mesh.num_vertices(); ++v) {
      const auto& p = lm.mesh.vertex(v).pos;
      u.push_back({1.0 + p.x, p.y, p.z, p.x * p.y, 2.5 + p.z});
    }
    auto& s = seeds[static_cast<std::size_t>(r)];
    s.assign(static_cast<std::size_t>(lm.mesh.num_edges()), 0);
    Rng rng(static_cast<std::uint64_t>(r) + 17);
    for (auto& v : s) v = rng.uniform() < 0.04;
    lm.mesh.on_bisect = [&u, &lm](Index e, Index mid) {
      const auto& ed = lm.mesh.edge(e);
      u.resize(static_cast<std::size_t>(mid) + 1);
      for (int k = 0; k < solver::kNumVars; ++k) {
        u[static_cast<std::size_t>(mid)][k] =
            0.5 * (u[static_cast<std::size_t>(ed.v0)][k] +
                   u[static_cast<std::size_t>(ed.v1)][k]);
      }
    };
  }
  const auto pm = pmesh::parallel_mark(dm, *eng, seeds);
  const auto pf = pmesh::parallel_refine(dm, *eng, pm);
  for (Rank r = 0; r < kRanks; ++r) dm.local(r).mesh.on_bisect = nullptr;
  dm.validate();

  EXPECT_EQ(pm.comm_rounds, 5);
  EXPECT_EQ(pm.marks_exchanged, 202);
  EXPECT_EQ(pf.work_per_rank,
            (std::vector<Index>{334, 218, 296, 162, 322, 344}));
  EXPECT_EQ(pf.new_shared_edges, 744);
  EXPECT_EQ(pf.new_shared_verts, 202);
  EXPECT_EQ(hash_dist_mesh(dm), 13267308163084840519ull);
  Fnv st;
  for (const auto& u : states) st.add(hash_states(u));
  EXPECT_EQ(st.value(), 7401500191234169139ull);
  EXPECT_EQ(eng->ledger().num_supersteps(), 9);
  EXPECT_EQ(hash_ledger(eng->ledger()), 15546637513825921150ull);
}

INSTANTIATE_TEST_SUITE_P(Engines, KernelGoldens, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return info.param == 1
                                      ? std::string("Sequential")
                                      : std::string("Parallel4");
                         });

}  // namespace
}  // namespace plum
