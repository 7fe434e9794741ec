#include "core/framework.hpp"

#include <cmath>
#include <set>
#include <utility>

#include "obs/critical_path.hpp"
#include "util/stats.hpp"

namespace plum::core {

namespace {

/// The initial mesh's dual graph, weighted with its refinement trees.
graph::Csr weighted_dual(const mesh::TetMesh& mesh) {
  graph::Csr dual = mesh.build_initial_dual();
  const auto w = mesh.root_weights();
  dual.set_weights(w.wcomp, w.wremap);
  return dual;
}

}  // namespace

Framework::Framework(mesh::TetMesh mesh, FrameworkOptions opt)
    : opt_(opt),
      mesh_(std::make_unique<mesh::TetMesh>(std::move(mesh))),
      mem_(opt.nranks, opt.arena_chunk_bytes),
      balancer_(weighted_dual(*mesh_), opt_, mem_) {
  mem_.reset_arenas();  // constructor scratch dies here
  // Phase stamps follow the trace scopes; the heap section joins
  // trace().to_json().
  trace_.set_memory_tracker(&mem_);

  solver_ = std::make_unique<solver::EulerSolver>(mesh_.get());
  adaptor_ = std::make_unique<adapt::MeshAdaptor>(mesh_.get());
  mesh_->on_bisect = [this](Index e, Index mid) {
    solver_->interpolate_midpoint(e, mid);
  };
}

std::vector<Weight> Framework::processor_loads() const {
  const auto w = mesh_->root_weights();
  return proc_loads(balancer_.root_part(), w.wcomp, opt_.nranks);
}

CycleReport Framework::cycle() {
  CycleReport rep;
  // Scratch-memory contract: phase scratch never outlives the cycle, so
  // rewinding here makes steady-state cycles reuse-only (zero chunk traffic).
  mem_.reset_arenas();
  rep.elements_before = mesh_->num_active_elements();
  // Price this cycle with the calibrated constants (they move only when the
  // cycle closes); while calibration is disabled they equal the static
  // opt_.machine.
  const sim::MachineParams& mp = balancer_.calibration().params();
  CycleTelemetry tel;

  // --- 1. flow solver -------------------------------------------------------
  tel.solve_phase = trace_.phases().size();
  {
    obs::PhaseScope ph(trace_, "solve");
    rep.solver_work = solver_->run(opt_.solver_steps_per_cycle);
    // Modeled SP2 time: iterations on the bottleneck processor.
    const Weight solve_wmax = vec_max(processor_loads());
    tel.solve_work =
        static_cast<std::int64_t>(opt_.solver_steps_per_cycle) * solve_wmax;
    ph.set_modeled_seconds(mp.t_iter *
                           static_cast<double>(opt_.solver_steps_per_cycle) *
                           static_cast<double>(solve_wmax));
  }

  // --- 1b. coarsening phase (Fig. 1: the old mesh shrinks before the
  //         refinement bookkeeping; compaction renumbers everything, so the
  //         solver state follows the vertex map) -----------------------------
  if (opt_.coarsen_fraction > 0) {
    obs::PhaseScope ph(trace_, "coarsen");
    const auto cerr_field =
        adapt::edge_error(*mesh_, solver_->density_field(), 1.0);
    // Lowest-error fraction: invert the ranking used for refinement.
    std::vector<double> neg(cerr_field.size());
    for (std::size_t e = 0; e < neg.size(); ++e) neg[e] = -cerr_field[e];
    const auto cmarks =
        adapt::mark_top_fraction(*mesh_, neg, opt_.coarsen_fraction);
    const Index before = mesh_->num_active_elements();
    adaptor_->coarsen(cmarks, [this](const std::vector<Index>& map) {
      solver_->remap_solution(map);
    });
    solver_->rebuild();
    rep.elements_coarsened = before - mesh_->num_active_elements();
  }

  // --- 2. edge marking from the flow solution -------------------------------
  {
    obs::PhaseScope ph(trace_, "mark");
    const auto err = adapt::edge_error(*mesh_, solver_->density_field(), 1.0);
    const auto& marks = adaptor_->mark_fraction(err, opt_.refine_fraction);
    rep.mark_propagation_rounds = marks.propagation_rounds;
    // One marking sweep plus one per propagation round.
    ph.set_modeled_seconds(
        mp.t_mark * static_cast<double>(mesh_->num_active_elements()) *
        static_cast<double>(1 + marks.propagation_rounds));
  }

  // --- 3-7. balance gate on the *predicted* weights (core/balance) ---------
  const auto current = mesh_->root_weights();
  const auto predicted = adaptor_->predicted_weights();
  // Subdivision work per root = predicted growth of its tree.
  std::vector<Weight> growth(current.wremap.size());
  for (std::size_t v = 0; v < growth.size(); ++v) {
    growth[v] = predicted.wremap[v] - current.wremap[v];
  }
  // The remap: this framework keeps everything in one address space, so
  // installing the new owners (the balancer does) is the whole move. The
  // measured bytes are the remap weight of every root whose owner changed
  // plus one framing header per (old, new) owner pair, in the bytes the
  // *static* machine constants price — the ground truth a calibrated
  // prediction is judged against (matches the prediction exactly under
  // TotalV while uncalibrated; diverges under MaxV, which prices only the
  // bottleneck processor).
  const auto& move_w =
      opt_.remap_before_subdivision ? current.wremap : predicted.wremap;
  const auto moved_bytes =
      [&](const partition::PartVec& owner) -> std::int64_t {
    const partition::PartVec& old = balancer_.root_part();
    Weight moved_w = 0;
    std::set<std::pair<Rank, Rank>> moved_pairs;
    for (std::size_t v = 0; v < owner.size(); ++v) {
      if (owner[v] == old[v]) continue;
      moved_w += move_w[v];
      moved_pairs.insert({old[v], owner[v]});
    }
    return static_cast<std::int64_t>(opt_.machine.words_per_element) *
               moved_w * 8 +
           std::llround(opt_.machine.bytes_per_set *
                        static_cast<double>(moved_pairs.size()));
  };
  balancer_.gate({predicted.wcomp, predicted.wremap, current.wremap},
                 moved_bytes, rep, trace_, metrics_, mem_);

  // --- 8. subdivision ---------------------------------------------------------
  tel.subdivide_phase = trace_.phases().size();
  {
    obs::PhaseScope ph(trace_, "subdivide");
    adaptor_->refine(mem_.host_scratch());
    solver_->rebuild();
    // Modeled SP2 time: bottleneck processor's tree growth under the final
    // ownership (the gate's gain arithmetic).
    tel.refine_children =
        vec_max(proc_loads(balancer_.root_part(), growth, opt_.nranks));
    ph.set_modeled_seconds(mp.t_refine *
                           static_cast<double>(tel.refine_children));
  }
  rep.elements_after = mesh_->num_active_elements();

  // --- close the loop: feed this cycle's telemetry to the calibrator --------
  balancer_.close_cycle(tel, trace_, metrics_);

  // Per-cycle fixed-bound histogram: wall seconds of every phase closed
  // this cycle (this framework runs in one address space, so there are no
  // per-rank superstep records to decompose — DistFramework adds those).
  obs::record_phase_histograms(metrics_, trace_, &hist_phase_cursor_);
  return rep;
}

std::vector<CycleReport> Framework::run(int cycles) {
  std::vector<CycleReport> out;
  out.reserve(static_cast<std::size_t>(cycles));
  for (int i = 0; i < cycles; ++i) out.push_back(cycle());
  return out;
}

}  // namespace plum::core
