// Property-based tests for mesh adaption: randomized marking / coarsening
// sweeps must preserve global invariants (validity, conservation of volume,
// conforming patterns, weight prediction exactness).

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "adapt/adaptor.hpp"
#include "mesh/box_mesh.hpp"
#include "util/rng.hpp"

namespace plum::adapt {
namespace {

struct SweepParams {
  std::uint64_t seed;
  double mark_fraction;
  int rounds;
};

// Printed and named from the fields, never from the object's bytes: the
// struct has padding, and gtest's byte dump of it would put indeterminate
// bytes into the registered test names.
void PrintTo(const SweepParams& p, std::ostream* os) {
  *os << "{seed " << p.seed << ", mark_fraction " << p.mark_fraction
      << ", rounds " << p.rounds << "}";
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParams>& info) {
  const SweepParams& p = info.param;
  return "seed" + std::to_string(p.seed) + "_permille" +
         std::to_string(std::lround(p.mark_fraction * 1000)) + "_rounds" +
         std::to_string(p.rounds);
}

class RandomAdaptionSweep : public ::testing::TestWithParam<SweepParams> {};

std::vector<char> random_leaf_marks(const mesh::TetMesh& m, Rng& rng,
                                    double fraction) {
  std::vector<char> marks(static_cast<std::size_t>(m.num_edges()), 0);
  for (Index e = 0; e < m.num_edges(); ++e) {
    if (!m.edge_elements(e).empty() && rng.uniform() < fraction) {
      marks[static_cast<std::size_t>(e)] = 1;
    }
  }
  return marks;
}

TEST_P(RandomAdaptionSweep, RefinePreservesInvariants) {
  const auto p = GetParam();
  auto m = mesh::make_box_mesh(mesh::small_box(2));
  const double vol0 = m.total_volume();
  Rng rng(p.seed);
  MeshAdaptor ad(&m);

  for (int round = 0; round < p.rounds; ++round) {
    const auto marks = random_leaf_marks(m, rng, p.mark_fraction);
    const auto& res = ad.mark(marks);

    // Every active element's final pattern is one of the three valid types.
    for (Index t = 0; t < m.num_elements(); ++t) {
      const auto& el = m.element(t);
      if (el.alive && el.is_leaf()) {
        ASSERT_TRUE(classify_pattern(res.pattern[t]).valid);
      }
    }

    // Predicted weights are exact.
    const auto predicted = ad.predicted_weights();
    const Index predicted_elems = res.predicted_new_elements(m);
    ad.refine();
    const auto actual = m.root_weights();
    ASSERT_EQ(predicted.wcomp, actual.wcomp);
    ASSERT_EQ(predicted.wremap, actual.wremap);
    ASSERT_EQ(m.num_active_elements(), predicted_elems);

    m.validate();
    ASSERT_NEAR(m.total_volume(), vol0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomAdaptionSweep,
    ::testing::Values(SweepParams{1, 0.02, 3}, SweepParams{2, 0.10, 3},
                      SweepParams{3, 0.30, 2}, SweepParams{4, 0.60, 2},
                      SweepParams{5, 1.00, 2}, SweepParams{6, 0.005, 4}),
    sweep_name);

class RandomCoarsenSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCoarsenSweep, RefineThenRandomCoarsenStaysValid) {
  auto m = mesh::make_box_mesh(mesh::small_box(2));
  const double vol0 = m.total_volume();
  Rng rng(GetParam());
  MeshAdaptor ad(&m);

  // Two refinement rounds with random marks.
  for (int round = 0; round < 2; ++round) {
    ad.mark(random_leaf_marks(m, rng, 0.3));
    ad.refine();
  }

  // Three rounds of random coarsening.
  for (int round = 0; round < 3; ++round) {
    std::vector<char> cm(static_cast<std::size_t>(m.num_edges()), 0);
    for (Index e = 0; e < m.num_edges(); ++e) {
      if (!m.edge_elements(e).empty() && rng.uniform() < 0.5) {
        cm[static_cast<std::size_t>(e)] = 1;
      }
    }
    ad.coarsen(cm);
    m.validate();
    ASSERT_NEAR(m.total_volume(), vol0, 1e-9);
    // Can never coarsen past the initial mesh.
    ASSERT_GE(m.num_active_elements(), m.num_initial_elements());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCoarsenSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(AdaptionProperty, FullCoarsenAfterAnyRefinementRestoresInitial) {
  for (std::uint64_t seed : {100u, 200u, 300u}) {
    auto m = mesh::make_box_mesh(mesh::small_box(1));
    Rng rng(seed);
    MeshAdaptor ad(&m);
    ad.mark(random_leaf_marks(m, rng, 0.5));
    ad.refine();

    // Coarsen everything repeatedly until the mesh stops shrinking.
    for (int i = 0; i < 8; ++i) {
      std::vector<char> cm(static_cast<std::size_t>(m.num_edges()), 1);
      ad.coarsen(cm);
    }
    m.validate();
    EXPECT_EQ(m.num_active_elements(), m.num_initial_elements());
    EXPECT_EQ(m.num_vertices(), 8);
  }
}

TEST(AdaptionProperty, GrowthFactorBounded) {
  // A single refinement step grows the mesh by at most 8x (paper §5:
  // 1 < G < 8 for this refinement procedure).
  auto m = mesh::make_box_mesh(mesh::small_box(2));
  Rng rng(7);
  MeshAdaptor ad(&m);
  const Index before = m.num_active_elements();
  ad.mark(random_leaf_marks(m, rng, 0.4));
  ad.refine();
  const Index after = m.num_active_elements();
  EXPECT_GE(after, before);
  EXPECT_LE(after, 8 * before);
}

TEST(AdaptionProperty, RefinementIsDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    auto m = mesh::make_box_mesh(mesh::small_box(2));
    Rng rng(seed);
    MeshAdaptor ad(&m);
    for (int round = 0; round < 2; ++round) {
      ad.mark(random_leaf_marks(m, rng, 0.2));
      ad.refine();
    }
    // Fingerprint: counts plus a vertex-position checksum.
    double checksum = 0;
    for (Index v = 0; v < m.num_vertices(); ++v) {
      const auto& p = m.vertex(v).pos;
      checksum += p.x * 3.0 + p.y * 7.0 + p.z * 13.0;
    }
    return std::make_tuple(m.num_vertices(), m.num_edges(),
                           m.num_active_elements(), checksum);
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(std::get<2>(run_once(42)), std::get<2>(run_once(43)));
}

TEST(AdaptionProperty, ActiveEdgeCountMatchesLeafTopology) {
  // Euler-type invariant: every leaf references exactly 6 active edges and
  // every active edge is referenced by >= 1 leaf.
  auto m = mesh::make_box_mesh(mesh::small_box(2));
  Rng rng(77);
  MeshAdaptor ad(&m);
  ad.mark(random_leaf_marks(m, rng, 0.25));
  ad.refine();
  std::vector<char> used(static_cast<std::size_t>(m.num_edges()), 0);
  for (Index t : m.active_elements()) {
    for (Index e : m.element(t).edges) used[static_cast<std::size_t>(e)] = 1;
  }
  Index active = 0;
  for (Index e = 0; e < m.num_edges(); ++e) {
    EXPECT_EQ(static_cast<bool>(used[static_cast<std::size_t>(e)]),
              !m.edge_elements(e).empty());
    active += used[static_cast<std::size_t>(e)];
  }
  EXPECT_EQ(active, m.num_active_edges());
}

TEST(AdaptionProperty, LevelsAreParentPlusOne) {
  auto m = mesh::make_box_mesh(mesh::small_box(2));
  Rng rng(5);
  MeshAdaptor ad(&m);
  for (int round = 0; round < 2; ++round) {
    ad.mark(random_leaf_marks(m, rng, 0.3));
    ad.refine();
  }
  for (Index t = 0; t < m.num_elements(); ++t) {
    const auto& el = m.element(t);
    if (el.parent == kInvalidIndex) {
      EXPECT_EQ(el.level, 0);
    } else {
      EXPECT_EQ(el.level, m.element(el.parent).level + 1);
      EXPECT_EQ(el.root, m.element(el.parent).root);
    }
  }
}

}  // namespace
}  // namespace plum::adapt
