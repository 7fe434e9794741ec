#include "pmesh/dist_mesh.hpp"

#include <algorithm>
#include <span>

#include "util/assert.hpp"

namespace plum::pmesh {

using mesh::TetMesh;

namespace {

/// Ids grouped by rank: items[start[q], start[q + 1]) belong to rank q.
struct RankBuckets {
  std::vector<std::size_t> start;
  std::vector<Index> items;

  [[nodiscard]] std::span<const Index> of(Rank q) const {
    const auto b = start[static_cast<std::size_t>(q)];
    return {items.data() + b, start[static_cast<std::size_t>(q) + 1] - b};
  }
};

/// One copy of a global vertex or edge: its local id on `rank`.
struct Copy {
  Index global;
  Rank rank;
  Index local;
};

/// Turns the copies (listed in rank order) into SPL entries: every object
/// with two or more copies gets, on each holder, the other holders in rank
/// order. `spl_of(q)` is rank q's SPL map.
template <typename SplOf>
void invert_copies(const std::vector<Copy>& copies, Index n, SplOf spl_of) {
  // Counting sort by global id; stable, so each object's copies stay in
  // rank order.
  std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1, 0);
  for (const Copy& c : copies) ++start[static_cast<std::size_t>(c.global) + 1];
  for (std::size_t i = 0; i + 1 < start.size(); ++i) start[i + 1] += start[i];
  std::vector<Copy> sorted(copies.size());
  {
    std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
    for (const Copy& c : copies) {
      sorted[cursor[static_cast<std::size_t>(c.global)]++] = c;
    }
  }
  for (std::size_t g = 0; g + 1 < start.size(); ++g) {
    const std::size_t b = start[g];
    const std::size_t e = start[g + 1];
    if (e - b < 2) continue;
    for (std::size_t i = b; i < e; ++i) {
      auto& spl = spl_of(sorted[i].rank)[sorted[i].local];
      for (std::size_t j = b; j < e; ++j) {
        if (j != i) spl.push_back({sorted[j].rank, sorted[j].local});
      }
    }
  }
}

}  // namespace

DistMesh::DistMesh(const TetMesh& global, const partition::PartVec& root_part,
                   Rank nranks) {
  PLUM_ASSERT(static_cast<Index>(root_part.size()) ==
              global.num_initial_elements());
  // plum-scale: dist(P) -- the in-process harness hosts one LocalMesh per simulated rank
  locals_.resize(static_cast<std::size_t>(nranks));

  // Rank of every element = rank of its root; of every boundary face = rank
  // of its adjacent element tree.
  const Index nt = global.num_elements();
  std::vector<Rank> elem_rank(static_cast<std::size_t>(nt), kNoRank);
  for (Index t = 0; t < nt; ++t) {
    const auto& el = global.element(t);
    if (el.alive) elem_rank[static_cast<std::size_t>(t)] = root_part[el.root];
  }
  std::vector<Rank> bface_rank(static_cast<std::size_t>(global.num_bfaces()),
                               kNoRank);
  for (Index f = 0; f < global.num_bfaces(); ++f) {
    const auto& bf = global.bface(f);
    if (!bf.alive || !bf.is_leaf()) continue;
    // Owner: the leaf element containing all three face vertices.
    Index owner = kInvalidIndex;
    for (Index t : global.edge_elements(bf.edges[0])) {
      const auto& vs = global.element(t).verts;
      int hits = 0;
      for (Index fv : bf.verts) {
        for (Index tv : vs) hits += (tv == fv);
      }
      if (hits == 3) {
        owner = t;
        break;
      }
    }
    PLUM_ASSERT(owner != kInvalidIndex);
    bface_rank[static_cast<std::size_t>(f)] =
        elem_rank[static_cast<std::size_t>(owner)];
  }
  // Interior bface-tree nodes inherit from any child (children are deeper
  // ids, so a reverse sweep sees children first).
  for (Index f = global.num_bfaces() - 1; f >= 0; --f) {
    const auto& bf = global.bface(f);
    if (!bf.alive || bf.is_leaf()) continue;
    PLUM_ASSERT(bf.child[0] != kInvalidIndex);
    bface_rank[static_cast<std::size_t>(f)] =
        bface_rank[static_cast<std::size_t>(bf.child[0])];
  }

  // Elements and boundary faces bucketed by rank in one counting pass;
  // each bucket keeps ascending global order.
  const auto by_rank = [nranks](const std::vector<Rank>& rank_of) {
    RankBuckets b;
    // plum-scale: host-only -- construction-time bucket offsets, built once on the host
    b.start.assign(static_cast<std::size_t>(nranks) + 1, 0);
    for (const Rank q : rank_of) {
      if (q != kNoRank) ++b.start[static_cast<std::size_t>(q) + 1];
    }
    for (Rank q = 0; q < nranks; ++q) {
      b.start[static_cast<std::size_t>(q) + 1] +=
          b.start[static_cast<std::size_t>(q)];
    }
    b.items.resize(b.start.back());
    std::vector<std::size_t> cursor(b.start.begin(), b.start.end() - 1);
    for (std::size_t i = 0; i < rank_of.size(); ++i) {
      if (rank_of[i] == kNoRank) continue;
      b.items[cursor[static_cast<std::size_t>(rank_of[i])]++] =
          static_cast<Index>(i);
    }
    return b;
  };
  const RankBuckets elems_of = by_rank(elem_rank);
  const RankBuckets bfaces_of = by_rank(bface_rank);

  // One global-id -> local-id scratch per entity kind, shared by all ranks:
  // a rank's entries are reset through its own selection lists before the
  // next rank starts (kInvalidIndex = not selected).
  const Index nv = global.num_vertices();
  const Index ne = global.num_edges();
  std::vector<Index> vm(static_cast<std::size_t>(nv), kInvalidIndex);
  std::vector<Index> em(static_cast<std::size_t>(ne), kInvalidIndex);
  std::vector<Index> tmap(static_cast<std::size_t>(nt), kInvalidIndex);
  std::vector<Index> fmap(static_cast<std::size_t>(global.num_bfaces()),
                          kInvalidIndex);
  // Every (global id, rank, local id) copy, in rank order: the holder
  // lists the SPLs are inverted from.
  std::vector<Copy> vcopies, ecopies;

  for (Rank r = 0; r < nranks; ++r) {
    LocalMesh& lm = locals_[static_cast<std::size_t>(r)];
    const std::span<const Index> sel_elems = elems_of.of(r);
    const std::span<const Index> sel_bfaces = bfaces_of.of(r);
    for (std::size_t i = 0; i < sel_elems.size(); ++i) {
      tmap[static_cast<std::size_t>(sel_elems[i])] = static_cast<Index>(i);
    }
    for (std::size_t i = 0; i < sel_bfaces.size(); ++i) {
      fmap[static_cast<std::size_t>(sel_bfaces[i])] = static_cast<Index>(i);
    }

    // --- vertices & edges referenced by those elements, in global order ----
    std::vector<Index> sel_verts, sel_edges;
    auto touch = [](std::vector<Index>& map, std::vector<Index>& sel, Index id) {
      if (map[static_cast<std::size_t>(id)] == kInvalidIndex) {
        map[static_cast<std::size_t>(id)] = -2;  // mark; number below
        sel.push_back(id);
      }
    };
    for (Index t : sel_elems) {
      for (Index v : global.element(t).verts) touch(vm, sel_verts, v);
      for (Index e : global.element(t).edges) touch(em, sel_edges, e);
    }
    // Endpoints of included edges (already element vertices; kept so the
    // selection rule reads the same as for any edge set).
    for (Index e : sel_edges) {
      touch(vm, sel_verts, global.edge(e).v0);
      touch(vm, sel_verts, global.edge(e).v1);
    }
    std::sort(sel_verts.begin(), sel_verts.end());
    std::sort(sel_edges.begin(), sel_edges.end());
    for (std::size_t i = 0; i < sel_verts.size(); ++i) {
      vm[static_cast<std::size_t>(sel_verts[i])] = static_cast<Index>(i);
      vcopies.push_back({sel_verts[i], r, static_cast<Index>(i)});
    }
    for (std::size_t i = 0; i < sel_edges.size(); ++i) {
      em[static_cast<std::size_t>(sel_edges[i])] = static_cast<Index>(i);
      ecopies.push_back({sel_edges[i], r, static_cast<Index>(i)});
    }

    // --- build localized records -------------------------------------------
    auto loc = [](const std::vector<Index>& map, Index id) {
      return id == kInvalidIndex ? kInvalidIndex : map[static_cast<std::size_t>(id)];
    };

    std::vector<mesh::Vertex> lverts;
    lverts.reserve(sel_verts.size());
    for (Index v : sel_verts) lverts.push_back(global.vertex(v));

    std::vector<mesh::Edge> ledges;
    ledges.reserve(sel_edges.size());
    Index n_init_edges = 0;
    for (Index e : sel_edges) {
      mesh::Edge ed = global.edge(e);
      ed.v0 = vm[static_cast<std::size_t>(ed.v0)];
      ed.v1 = vm[static_cast<std::size_t>(ed.v1)];
      if (ed.v0 > ed.v1) std::swap(ed.v0, ed.v1);
      ed.parent = loc(em, ed.parent);
      // Children present only if the bisection's elements live here.
      const Index c0 = loc(em, ed.child[0]);
      const Index c1 = loc(em, ed.child[1]);
      if (c0 != kInvalidIndex && c1 != kInvalidIndex) {
        ed.child = {c0, c1};
        ed.mid = vm[static_cast<std::size_t>(ed.mid)];
        PLUM_ASSERT(ed.mid != kInvalidIndex);
      } else {
        ed.child = {kInvalidIndex, kInvalidIndex};
        ed.mid = kInvalidIndex;
      }
      if (ed.level == 0) ++n_init_edges;
      ledges.push_back(ed);
    }

    std::vector<mesh::Element> lelems;
    lelems.reserve(sel_elems.size());
    Index n_init_elems = 0;
    for (Index t : sel_elems) {
      mesh::Element el = global.element(t);
      for (auto& v : el.verts) v = vm[static_cast<std::size_t>(v)];
      for (auto& e : el.edges) e = em[static_cast<std::size_t>(e)];
      el.parent = loc(tmap, el.parent);
      el.first_child = loc(tmap, el.first_child);
      el.root = tmap[static_cast<std::size_t>(el.root)];
      PLUM_ASSERT(el.root != kInvalidIndex);
      if (el.level == 0) {
        ++n_init_elems;
        lm.root_global.push_back(t);
      }
      lelems.push_back(el);
    }

    std::vector<mesh::BFace> lbfaces;
    lbfaces.reserve(sel_bfaces.size());
    for (Index f : sel_bfaces) {
      mesh::BFace bf = global.bface(f);
      for (auto& v : bf.verts) v = vm[static_cast<std::size_t>(v)];
      for (auto& e : bf.edges) e = em[static_cast<std::size_t>(e)];
      bf.parent = loc(fmap, bf.parent);
      for (auto& c : bf.child) c = loc(fmap, c);
      lbfaces.push_back(bf);
    }

    lm.mesh = TetMesh::assemble(std::move(lverts), std::move(ledges),
                                std::move(lelems), std::move(lbfaces),
                                n_init_elems, n_init_edges);

    for (Index v : sel_verts) vm[static_cast<std::size_t>(v)] = kInvalidIndex;
    for (Index e : sel_edges) em[static_cast<std::size_t>(e)] = kInvalidIndex;
    for (Index t : sel_elems) tmap[static_cast<std::size_t>(t)] = kInvalidIndex;
    for (Index f : sel_bfaces) fmap[static_cast<std::size_t>(f)] = kInvalidIndex;
    lm.vert_global = std::move(sel_verts);
    lm.edge_global = std::move(sel_edges);
  }

  // --- SPLs: invert the per-object holder lists ------------------------------
  invert_copies(vcopies, nv, [&](Rank q) -> SplMap& {
    return locals_[static_cast<std::size_t>(q)].shared_verts;
  });
  invert_copies(ecopies, ne, [&](Rank q) -> SplMap& {
    return locals_[static_cast<std::size_t>(q)].shared_edges;
  });
}

Index DistMesh::total_active_elements() const {
  Index sum = 0;
  for (const auto& lm : locals_) sum += lm.mesh.num_active_elements();
  return sum;
}

std::vector<Index> DistMesh::active_elements_per_rank() const {
  std::vector<Index> out;
  out.reserve(locals_.size());
  for (const auto& lm : locals_) out.push_back(lm.mesh.num_active_elements());
  return out;
}

double DistMesh::shared_object_fraction() const {
  std::int64_t shared = 0, total = 0;
  for (const auto& lm : locals_) {
    shared += static_cast<std::int64_t>(lm.shared_verts.size()) +
              static_cast<std::int64_t>(lm.shared_edges.size());
    total += lm.mesh.num_vertices() + lm.mesh.num_edges();
  }
  return total == 0 ? 0.0 : static_cast<double>(shared) /
                                static_cast<double>(total);
}

void DistMesh::validate() const {
  for (Rank r = 0; r < nranks(); ++r) {
    const LocalMesh& lm = local(r);
    lm.mesh.validate();
    for (const auto& [lid, spl] : lm.shared_edges) {
      for (const auto& copy : spl) {
        const LocalMesh& other = local(copy.rank);
        // Symmetry: the copy's SPL must point back at us.
        auto it = other.shared_edges.find(copy.remote_id);
        PLUM_ASSERT_MSG(it != other.shared_edges.end(), "asymmetric edge SPL");
        const bool back = std::any_of(
            it->second.begin(), it->second.end(), [&](const SharedCopy& c) {
              return c.rank == r && c.remote_id == lid;
            });
        PLUM_ASSERT_MSG(back, "edge SPL does not mirror");
        // Geometry agreement.
        const auto& ea = lm.mesh.edge(lid);
        const auto& eb = other.mesh.edge(copy.remote_id);
        const auto pa0 = lm.mesh.vertex(ea.v0).pos;
        const auto pb0 = other.mesh.vertex(eb.v0).pos;
        const auto pa1 = lm.mesh.vertex(ea.v1).pos;
        const auto pb1 = other.mesh.vertex(eb.v1).pos;
        const bool same = (norm(pa0 - pb0) + norm(pa1 - pb1) < 1e-12) ||
                          (norm(pa0 - pb1) + norm(pa1 - pb0) < 1e-12);
        PLUM_ASSERT_MSG(same, "shared edge geometry mismatch");
      }
    }
    for (const auto& [lid, spl] : lm.shared_verts) {
      for (const auto& copy : spl) {
        const LocalMesh& other = local(copy.rank);
        auto it = other.shared_verts.find(copy.remote_id);
        PLUM_ASSERT_MSG(it != other.shared_verts.end(),
                        "asymmetric vertex SPL");
        const auto pa = lm.mesh.vertex(lid).pos;
        const auto pb = other.mesh.vertex(copy.remote_id).pos;
        PLUM_ASSERT_MSG(norm(pa - pb) < 1e-12,
                        "shared vertex geometry mismatch");
      }
    }
  }
}

}  // namespace plum::pmesh
