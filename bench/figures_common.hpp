#pragma once
// Shared sweep machinery for Figs. 4, 5, 6 and 8: for every case and
// processor count, evaluate both remapping policies (after vs before
// subdivision) on real marking/partitioning data and convert the per-rank
// counters into SP2-model times.

#include <vector>

#include "common.hpp"
#include "core/balance.hpp"
#include "partition/multilevel.hpp"
#include "remap/mapping.hpp"
#include "remap/volume.hpp"
#include "sim/machine.hpp"
#include "util/stats.hpp"

namespace plum::bench {

/// One (case, P) evaluation of both policies.
struct SweepPoint {
  Rank nprocs = 0;
  int mark_rounds = 0;
  Index dual_vertices = 0;
  int partition_levels = 1;

  // Subdivision work (children created) per rank under the old (remap
  // after) and the new (remap before) distribution.
  std::vector<Index> work_after;
  std::vector<Index> work_before;
  std::vector<Index> elems_after;   ///< local element counts (marking cost)
  std::vector<Index> elems_before;

  remap::RemapVolume vol_after;   ///< moving post-subdivision trees
  remap::RemapVolume vol_before;  ///< moving pre-subdivision trees

  // Solver-load extremes for Fig. 8.
  Weight wmax_unbalanced = 0;  ///< predicted wcomp max on old partition
  Weight wmax_balanced = 0;    ///< ... on the remapped new partition
  Weight wtotal = 0;
};

/// Case-level data computed once (marking is P-independent).
struct CaseData {
  const char* name;
  double growth = 0;  ///< the case's G
  adapt::PredictedWeights predicted;
  mesh::RootWeights current;
  std::vector<SweepPoint> points;  ///< one per kProcCounts entry
};

inline std::vector<Index> to_index(const std::vector<Weight>& w) {
  std::vector<Index> out(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    out[i] = static_cast<Index>(w[i]);
  }
  return out;
}

/// Runs the full sweep for one marking fraction.
inline CaseData evaluate_case(const Workload& base, const PaperCase& c) {
  CaseData out;
  out.name = c.name;

  mesh::TetMesh mesh = base.mesh;  // marking is non-destructive, but keep
                                   // per-case state isolated anyway
  adapt::MeshAdaptor adaptor(&mesh);
  const auto& marks =
      adaptor.mark(adapt::mark_top_fraction(mesh, base.err, c.fraction));
  out.predicted = adaptor.predicted_weights();
  out.current = mesh.root_weights();
  out.growth = static_cast<double>(vec_sum(out.predicted.wcomp)) /
               static_cast<double>(vec_sum(out.current.wcomp));

  // Per-root subdivision work = tree growth.
  std::vector<Weight> growth_w(out.current.wremap.size());
  for (std::size_t v = 0; v < growth_w.size(); ++v) {
    growth_w[v] = out.predicted.wremap[v] - out.current.wremap[v];
  }

  auto dual = mesh.build_initial_dual();

  for (Rank P : kProcCounts) {
    SweepPoint pt;
    pt.nprocs = P;
    pt.mark_rounds = marks.propagation_rounds;
    pt.dual_vertices = dual.num_vertices();

    // Old partitioning: balanced for the pre-adaption mesh.
    partition::MultilevelOptions popt;
    popt.nparts = P;
    dual.set_weights(out.current.wcomp, out.current.wremap);
    const auto old_res = partition::partition(dual, popt);
    pt.partition_levels = static_cast<int>(old_res.levels.size());

    // New partitioning on predicted weights (warm start) + greedy mapper.
    dual.set_weights(out.predicted.wcomp, out.predicted.wremap);
    const auto new_res = partition::repartition(dual, old_res.part, popt);
    const auto S_before = remap::SimilarityMatrix::build(
        old_res.part, new_res.part, out.current.wremap, P, P);
    const auto S_after = remap::SimilarityMatrix::build(
        old_res.part, new_res.part, out.predicted.wremap, P, P);
    const auto assign = remap::map_heuristic_greedy(S_before);
    pt.vol_before = remap::evaluate_assignment(S_before, assign);
    pt.vol_after = remap::evaluate_assignment(S_after, assign);

    // Compose partition -> processor.
    partition::PartVec new_proc(new_res.part.size());
    for (std::size_t v = 0; v < new_proc.size(); ++v) {
      new_proc[v] = assign.part_to_proc[static_cast<std::size_t>(
          new_res.part[v])];
    }

    using core::proc_loads;
    pt.work_after = to_index(proc_loads(old_res.part, growth_w, P));
    pt.work_before = to_index(proc_loads(new_proc, growth_w, P));
    pt.elems_after = to_index(proc_loads(old_res.part, out.current.wcomp, P));
    pt.elems_before = to_index(proc_loads(new_proc, out.current.wcomp, P));

    pt.wmax_unbalanced =
        vec_max(proc_loads(old_res.part, out.predicted.wcomp, P));
    pt.wmax_balanced = vec_max(proc_loads(new_proc, out.predicted.wcomp, P));
    pt.wtotal = vec_sum(out.predicted.wcomp);

    out.points.push_back(std::move(pt));
  }
  return out;
}

/// Serial (P = 1) adaption time baseline for speedups.
inline double serial_adaption_seconds(const sim::CostModel& cm,
                                      const CaseData& cd) {
  const Weight total_work =
      vec_sum(cd.predicted.wremap) - vec_sum(cd.current.wremap);
  const Weight total_elems = vec_sum(cd.current.wcomp);
  return cm.adaption_seconds({static_cast<Index>(total_work)},
                             {static_cast<Index>(total_elems)},
                             /*mark_rounds=*/1);
}

}  // namespace plum::bench
