// Unit tests for src/mesh: construction, topology counts, box generator,
// dual graph hookup, quality metrics, geometry.

#include <gtest/gtest.h>

#include <cmath>

#include "mesh/box_mesh.hpp"
#include "mesh/quality.hpp"
#include "mesh/tet_mesh.hpp"

namespace plum::mesh {
namespace {

TetMesh single_tet() {
  std::vector<Vec3> v = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::array<Index, 4>> t = {{0, 1, 2, 3}};
  return TetMesh::from_cells(v, t);
}

TEST(TetMesh, SingleTetCounts) {
  const auto m = single_tet();
  m.validate();
  EXPECT_EQ(m.num_vertices(), 4);
  EXPECT_EQ(m.num_edges(), 6);
  EXPECT_EQ(m.num_active_elements(), 1);
  EXPECT_EQ(m.num_active_bfaces(), 4);
  EXPECT_NEAR(m.total_volume(), 1.0 / 6.0, 1e-12);
}

TEST(TetMesh, SingleTetAllBoundary) {
  const auto m = single_tet();
  for (Index v = 0; v < m.num_vertices(); ++v) {
    EXPECT_TRUE(m.vertex(v).boundary);
  }
  for (Index e = 0; e < m.num_edges(); ++e) {
    EXPECT_TRUE(m.edge(e).boundary);
  }
}

TEST(TetMesh, NegativeOrientationFixed) {
  std::vector<Vec3> v = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  // Swapped order gives negative volume; from_cells must fix it.
  std::vector<std::array<Index, 4>> t = {{0, 1, 3, 2}};
  const auto m = TetMesh::from_cells(v, t);
  EXPECT_GT(m.element_volume(0), 0.0);
}

TEST(TetMesh, TwoTetsShareInteriorFace) {
  std::vector<Vec3> v = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}};
  std::vector<std::array<Index, 4>> t = {{0, 1, 2, 3}, {1, 2, 3, 4}};
  const auto m = TetMesh::from_cells(v, t);
  m.validate();
  EXPECT_EQ(m.num_active_elements(), 2);
  // 8 boundary faces (4+4 minus the 2 copies of the shared face).
  EXPECT_EQ(m.num_active_bfaces(), 6);
  EXPECT_EQ(m.num_edges(), 9);
}

TEST(TetMesh, EdgeLookup) {
  const auto m = single_tet();
  EXPECT_NE(m.find_edge(0, 1), kInvalidIndex);
  EXPECT_EQ(m.find_edge(0, 1), m.find_edge(1, 0));
}

TEST(TetMesh, EdgeElementListsMatchTopology) {
  const auto m = single_tet();
  for (Index e = 0; e < m.num_edges(); ++e) {
    EXPECT_EQ(m.edge_elements(e).size(), 1u);
  }
}

TEST(TetMesh, BisectEdgeCreatesMidpointAndChildren) {
  auto m = single_tet();
  const Index e = m.find_edge(0, 1);
  Index hook_parent = kInvalidIndex, hook_mid = kInvalidIndex;
  m.on_bisect = [&](Index pe, Index mid) {
    hook_parent = pe;
    hook_mid = mid;
  };
  const Index mid = m.bisect_edge(e);
  EXPECT_EQ(m.num_vertices(), 5);
  EXPECT_EQ(m.edge(e).mid, mid);
  EXPECT_FALSE(m.edge(e).is_leaf());
  EXPECT_EQ(hook_parent, e);
  EXPECT_EQ(hook_mid, mid);
  // Midpoint geometry.
  const Vec3 p = m.vertex(mid).pos;
  EXPECT_DOUBLE_EQ(p.x, 0.5);
  EXPECT_DOUBLE_EQ(p.y, 0.0);
  // Idempotent.
  EXPECT_EQ(m.bisect_edge(e), mid);
  EXPECT_EQ(m.num_vertices(), 5);
}

TEST(TetMeshDeathTest, EdgeElementsAbortWhileTableIsStale) {
  auto m = single_tet();
  const Index mid = m.bisect_edge(m.find_edge(0, 1));
  m.add_child_element(0, {mid, 2, 3, 0});
  m.rebuild_leaf_table();
  // The sibling reuses only existing edges, so add_child_element alone is
  // what makes the table stale.
  const Index edges_before = m.num_edges();
  m.add_child_element(0, {mid, 2, 3, 1});
  ASSERT_EQ(m.num_edges(), edges_before);
  EXPECT_DEATH((void)m.edge_elements(0), "stale");
  EXPECT_DEATH((void)m.num_active_edges(), "stale");
  m.rebuild_leaf_table();
  m.validate();
  EXPECT_EQ(m.num_active_elements(), 2);
  EXPECT_EQ(m.edge_elements(m.find_edge(2, 3)).size(), 2u);
}

TEST(TetMesh, BisectBoundaryEdgePropagatesFlag) {
  auto m = single_tet();
  const Index e = m.find_edge(0, 1);
  const Index mid = m.bisect_edge(e);
  EXPECT_TRUE(m.vertex(mid).boundary);
  EXPECT_TRUE(m.edge(m.edge(e).child[0]).boundary);
}

TEST(BoxMesh, CellAndVertexCounts) {
  const auto m = make_box_mesh(small_box(2));
  m.validate();
  EXPECT_EQ(m.num_active_elements(), 6 * 8);
  EXPECT_EQ(m.num_vertices(), 27);
  EXPECT_NEAR(m.total_volume(), 1.0, 1e-12);
}

TEST(BoxMesh, BoundaryFaceCount) {
  // Each boundary cell face contributes 2 triangles: 6 sides * n^2 * 2.
  const auto m = make_box_mesh(small_box(3));
  EXPECT_EQ(m.num_active_bfaces(), 6 * 9 * 2);
}

TEST(BoxMesh, PaperScaleElementCount) {
  const auto spec = paper_scale_box();
  // 22*22*21*6 = 60984 — the scale of the paper's 60,968-element mesh.
  EXPECT_EQ(spec.nx * spec.ny * spec.nz * 6, 60984);
}

TEST(BoxMesh, DualGraphIsConnectedAndBounded) {
  const auto m = make_box_mesh(small_box(2));
  const auto d = m.build_initial_dual();
  d.validate();
  EXPECT_EQ(d.num_vertices(), m.num_initial_elements());
  for (Index v = 0; v < d.num_vertices(); ++v) EXPECT_LE(d.degree(v), 4);
}

TEST(BoxMesh, RootWeightsInitiallyUnit) {
  const auto m = make_box_mesh(small_box(2));
  const auto w = m.root_weights();
  for (Index t = 0; t < m.num_initial_elements(); ++t) {
    EXPECT_EQ(w.wcomp[t], 1);
    EXPECT_EQ(w.wremap[t], 1);
  }
}

TEST(Quality, RegularTetHasQualityOne) {
  // Regular tetrahedron inscribed in a cube.
  std::vector<Vec3> v = {{0, 0, 0}, {1, 1, 0}, {1, 0, 1}, {0, 1, 1}};
  std::vector<std::array<Index, 4>> t = {{0, 1, 2, 3}};
  const auto m = TetMesh::from_cells(v, t);
  EXPECT_NEAR(radius_ratio(m, 0), 1.0, 1e-9);
}

TEST(Quality, KuhnTetIsReasonable) {
  const auto m = make_box_mesh(small_box(1));
  const auto q = mesh_quality(m);
  EXPECT_GT(q.min, 0.2);
  EXPECT_LE(q.max, 1.0);
}

TEST(Geometry, CentroidOfUnitTet) {
  const auto m = single_tet();
  const Vec3 c = m.element_centroid(0);
  EXPECT_NEAR(c.x, 0.25, 1e-12);
  EXPECT_NEAR(c.y, 0.25, 1e-12);
  EXPECT_NEAR(c.z, 0.25, 1e-12);
}

TEST(Geometry, EdgeLength) {
  const auto m = single_tet();
  EXPECT_NEAR(m.edge_length(m.find_edge(1, 2)), std::sqrt(2.0), 1e-12);
}

TEST(BoxMesh, AnisotropicDomainVolume) {
  BoxSpec spec;
  spec.nx = 4;
  spec.ny = 2;
  spec.nz = 3;
  spec.lo = {-1, 0, 2};
  spec.hi = {3, 1, 5};
  const auto m = make_box_mesh(spec);
  m.validate();
  EXPECT_NEAR(m.total_volume(), 4.0 * 1.0 * 3.0, 1e-12);
  EXPECT_EQ(m.num_active_elements(), 6 * 4 * 2 * 3);
}

TEST(BoxMesh, BoundaryFlagsExactlyOnHull) {
  const auto m = make_box_mesh(small_box(3));
  for (Index v = 0; v < m.num_vertices(); ++v) {
    const auto& p = m.vertex(v).pos;
    const bool on_hull = p.x == 0 || p.x == 1 || p.y == 0 || p.y == 1 ||
                         p.z == 0 || p.z == 1;
    EXPECT_EQ(m.vertex(v).boundary, on_hull) << "vertex " << v;
  }
}

TEST(TetMesh, PurgeCompactKeepsInitialPrefix) {
  auto m = make_box_mesh(small_box(1));
  // Nothing dead: compaction is the identity.
  const auto map = m.purge_and_compact();
  ASSERT_EQ(static_cast<Index>(map.size()), m.num_vertices());
  for (Index v = 0; v < m.num_vertices(); ++v) EXPECT_EQ(map[v], v);
  m.validate();
}

}  // namespace
}  // namespace plum::mesh
