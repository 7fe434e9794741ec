#include "core/dist_framework.hpp"

#include <algorithm>

#include "adapt/error_indicator.hpp"
#include "obs/critical_path.hpp"
#include "partition/quality.hpp"
#include "pmesh/migrate.hpp"
#include "pmesh/parallel_adapt.hpp"
#include "pmesh/parallel_coarsen.hpp"
#include "runtime/collectives.hpp"
#include "util/assert.hpp"
#include "util/rss.hpp"
#include "util/stats.hpp"

namespace plum::core {

namespace {

/// Per-rank refinement seeds: active local edges with error > threshold.
/// Shared copies mark consistently because the error field is replicated.
std::vector<std::vector<char>> threshold_marks(
    const pmesh::DistMesh& dm,
    const std::vector<std::vector<double>>& err_per_rank, double threshold) {
  // plum-scale: host-only -- host driver staging for the initial scatter, never rank-resident
  std::vector<std::vector<char>> seeds(
      static_cast<std::size_t>(dm.nranks()));
  for (Rank r = 0; r < dm.nranks(); ++r) {
    const auto& lm = dm.local(r);
    auto& s = seeds[static_cast<std::size_t>(r)];
    s.assign(static_cast<std::size_t>(lm.mesh.num_edges()), 0);
    const auto& err = err_per_rank[static_cast<std::size_t>(r)];
    for (Index e = 0; e < lm.mesh.num_edges(); ++e) {
      if (!lm.mesh.edge_elements(e).empty() &&
          err[static_cast<std::size_t>(e)] > threshold) {
        s[static_cast<std::size_t>(e)] = 1;
      }
    }
  }
  return seeds;
}

/// Per-rank error fields from the parallel solution.
std::vector<std::vector<double>> rank_errors(
    const pmesh::DistMesh& dm, const pmesh::ParallelEulerSolver& solver) {
  // plum-scale: host-only -- host driver gather of per-rank error lists
  std::vector<std::vector<double>> err(static_cast<std::size_t>(dm.nranks()));
  for (Rank r = 0; r < dm.nranks(); ++r) {
    err[static_cast<std::size_t>(r)] = adapt::edge_error(
        dm.local(r).mesh, solver.density_field(r), 1.0);
  }
  return err;
}

}  // namespace

DistFramework::DistFramework(mesh::TetMesh initial_global,
                             FrameworkOptions opt)
    : opt_(opt),
      scope_(opt_.nranks, opt_.scope_ring_capacity),
      mem_(opt_.nranks, opt_.arena_chunk_bytes) {
  PLUM_ASSERT(opt_.nranks >= 1);
  if (!opt_.replay_path.empty()) {
    std::string err;
    const bool loaded =
        sim::ReplayBook::load(opt_.replay_path, &replay_book_, &err);
    PLUM_ASSERT_MSG(loaded, "replay book failed to load");
    replay_ = true;
    opt_.calibration.enabled = true;
  }
  calib_ = sim::Calibration(opt_.machine, opt_.calibration);
  eng_ = rt::make_engine(opt_.nranks, opt_.threads);
  eng_->set_observer(&trace_);
  // plum-scope: the engine feeds the flight recorder one event per rank per
  // superstep; the trace keeps its phase stamp in sync; a failed assert
  // dumps the ring.
  eng_->set_scope_sink(&scope_);
  trace_.set_flight_recorder(&scope_);
  // plum-mem: the trace's phase scopes stamp the tracker; the heap section
  // joins trace().to_json().
  trace_.set_memory_tracker(&mem_);
  obs::install_postmortem({opt_.scope_name, &scope_});
  if (!opt_.scope_stream.empty()) {
    stream_ = std::make_unique<obs::ScopeStreamWriter>(opt_.scope_stream);
  }

  dual_ = initial_global.build_initial_dual();
  partition::MultilevelOptions popt;
  popt.nparts = opt_.nranks;
  popt.seed = opt_.seed;
  popt.scratch = mem_.host_scratch();  // serial phase: host row
  root_part_ = partition::partition(dual_, popt).part;
  mem_.reset_arenas();  // constructor scratch dies here

  dm_ = std::make_unique<pmesh::DistMesh>(initial_global, root_part_,
                                          opt_.nranks);
  rebind_solver();
}

DistFramework::~DistFramework() { obs::uninstall_postmortem(); }

void DistFramework::rebind_solver() {
  solver_ = std::make_unique<pmesh::ParallelEulerSolver>(dm_.get(), eng_.get());
  if (!states_.empty()) {
    for (Rank r = 0; r < opt_.nranks; ++r) {
      auto& dst = solver_->solution(r);
      const auto& src = states_[static_cast<std::size_t>(r)];
      PLUM_ASSERT(dst.size() == src.size());
      dst = src;
    }
  }
}

DistCycleReport DistFramework::cycle() {
  const Rank P = opt_.nranks;
  const Timer cycle_timer;  // wall_s of the plum-scope stream record
  DistCycleReport rep;
  // Scratch-memory contract: phase scratch never outlives the cycle, so
  // rewinding here makes steady-state cycles reuse-only (zero chunk traffic).
  mem_.reset_arenas();
  rep.elements_before = dm_->total_active_elements();
  const int this_cycle = cycle_index_;
  // Price this cycle with the calibrated constants; while calibration is
  // disabled the model equals the static opt_.machine, so nothing changes.
  const sim::CostModel cost_model = calib_.model();
  const sim::MachineParams& mp = cost_model.params();

  // --- 1. parallel flow solver ------------------------------------------------
  std::vector<Index> solve_epr;
  const std::size_t solve_phase = trace_.phases().size();
  const std::size_t solve_step_lo = trace_.supersteps().size();
  {
    obs::PhaseScope ph(trace_, "solve");
    solver_->run(opt_.solver_steps_per_cycle);
    solve_epr = dm_->active_elements_per_rank();
    ph.set_modeled_seconds(mp.t_iter *
                           static_cast<double>(opt_.solver_steps_per_cycle) *
                           static_cast<double>(vec_max(solve_epr)));
  }
  const std::size_t solve_step_hi = trace_.supersteps().size();

  // --- 1b. distributed coarsening phase (Fig. 1) -------------------------------
  if (opt_.coarsen_fraction > 0) {
    obs::PhaseScope ph(trace_, "coarsen");
    const auto cerr = rank_errors(*dm_, *solver_);
    // Bottom-fraction threshold over owned active edges (host quantile).
    // plum-scale: host-only -- host driver gather of owned error values
    std::vector<std::vector<double>> owned(static_cast<std::size_t>(P));
    for (Rank r = 0; r < P; ++r) {
      const auto& lm = dm_->local(r);
      for (Index e = 0; e < lm.mesh.num_edges(); ++e) {
        if (lm.mesh.edge_elements(e).empty()) continue;
        owned[static_cast<std::size_t>(r)].push_back(
            cerr[static_cast<std::size_t>(r)][static_cast<std::size_t>(e)]);
      }
    }
    const auto g = rt::gather(*eng_, owned, 0);
    std::vector<double> all;
    for (const auto& v : g) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    const auto k = static_cast<std::size_t>(
        opt_.coarsen_fraction * static_cast<double>(all.size()));
    if (k > 0 && !all.empty()) {
      const double low = all[std::min(k, all.size() - 1)];
      // plum-scale: host-only -- host driver gather of coarsen marks
      std::vector<std::vector<char>> cmarks(static_cast<std::size_t>(P));
      for (Rank r = 0; r < P; ++r) {
        const auto& lm = dm_->local(r);
        auto& cm = cmarks[static_cast<std::size_t>(r)];
        cm.assign(static_cast<std::size_t>(lm.mesh.num_edges()), 0);
        for (Index e = 0; e < lm.mesh.num_edges(); ++e) {
          if (!lm.mesh.edge_elements(e).empty() &&
              cerr[static_cast<std::size_t>(r)][static_cast<std::size_t>(e)] <
                  low) {
            cm[static_cast<std::size_t>(e)] = 1;
          }
        }
      }
      states_.clear();
      for (Rank r = 0; r < P; ++r) states_.push_back(solver_->solution(r));
      pmesh::parallel_coarsen(*dm_, *eng_, cmarks, &states_);
      rebind_solver();
    }
  }

  // --- 2. error indicator + global marking threshold --------------------------
  // Each rank contributes the error values of the edges it owns (lowest SPL
  // rank) so the host's quantile sees every edge exactly once — the same
  // gather pattern as the similarity matrix (§4.3).
  // (err/seeds/pm outlive the phase — the remap path re-derives them — so
  // this phase uses the explicit begin/end API rather than a scope.)
  const std::size_t mark_phase = trace_.begin_phase("mark");
  auto err = rank_errors(*dm_, *solver_);
  // plum-scale: host-only -- host driver gather of owned errors
  std::vector<std::vector<double>> owned_errs(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm_->local(r);
    for (Index e = 0; e < lm.mesh.num_edges(); ++e) {
      if (lm.mesh.edge_elements(e).empty()) continue;
      auto it = lm.shared_edges.find(e);
      if (it != lm.shared_edges.end()) {
        Rank owner = r;
        for (const auto& c : it->second) owner = std::min(owner, c.rank);
        if (owner != r) continue;
      }
      owned_errs[static_cast<std::size_t>(r)].push_back(
          err[static_cast<std::size_t>(r)][static_cast<std::size_t>(e)]);
    }
  }
  const auto gathered = rt::gather(*eng_, owned_errs, 0);
  std::vector<double> all_err;
  for (const auto& v : gathered) all_err.insert(all_err.end(), v.begin(), v.end());
  std::sort(all_err.begin(), all_err.end(), std::greater<>());
  const auto want = static_cast<std::size_t>(
      opt_.refine_fraction * static_cast<double>(all_err.size()));
  const double threshold =
      (want == 0 || all_err.empty())
          ? std::numeric_limits<double>::max()
          : all_err[std::min(want, all_err.size() - 1)];

  // --- 3. parallel marking -----------------------------------------------------
  auto seeds = threshold_marks(*dm_, err, threshold);
  auto pm = pmesh::parallel_mark(*dm_, *eng_, seeds, &mem_);
  rep.mark_comm_rounds = pm.comm_rounds;
  trace_.set_modeled_seconds(
      mark_phase, mp.t_mark * static_cast<double>(rep.elements_before) *
                      static_cast<double>(1 + pm.comm_rounds));
  trace_.end_phase(mark_phase);

  // --- 4. predicted weights gathered per global root ---------------------------
  struct RootW {
    Index groot;
    Weight wcomp_pred;
    Weight wremap_pred;
    Weight wremap_cur;
  };
  // plum-scale: host-only -- host-side gather of per-rank predicted root weights
  std::vector<std::vector<RootW>> rows(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    const auto& lm = dm_->local(r);
    const auto cur = lm.mesh.root_weights();
    std::vector<RootW> mine(lm.root_global.size());
    for (std::size_t lr = 0; lr < lm.root_global.size(); ++lr) {
      mine[lr] = {lm.root_global[lr], cur.wcomp[lr], cur.wremap[lr],
                  cur.wremap[lr]};
    }
    // Growth from the pending marks.
    const auto& res = pm.per_rank[static_cast<std::size_t>(r)];
    for (Index t = 0; t < lm.mesh.num_elements(); ++t) {
      const auto& el = lm.mesh.element(t);
      if (!el.alive || !el.is_leaf()) continue;
      const int kids = res.children_of(t);
      if (kids <= 1) continue;
      mine[static_cast<std::size_t>(el.root)].wcomp_pred += kids - 1;
      mine[static_cast<std::size_t>(el.root)].wremap_pred += kids;
    }
    rows[static_cast<std::size_t>(r)] = std::move(mine);
  }
  const auto hosted = rt::gather(*eng_, rows, 0);

  const Index nroots = dual_.num_vertices();
  std::vector<Weight> wcomp_pred(static_cast<std::size_t>(nroots), 0);
  std::vector<Weight> wremap_pred(static_cast<std::size_t>(nroots), 0);
  std::vector<Weight> wremap_cur(static_cast<std::size_t>(nroots), 0);
  for (const auto& row : hosted) {
    for (const auto& rw : row) {
      wcomp_pred[static_cast<std::size_t>(rw.groot)] = rw.wcomp_pred;
      wremap_pred[static_cast<std::size_t>(rw.groot)] = rw.wremap_pred;
      wremap_cur[static_cast<std::size_t>(rw.groot)] = rw.wremap_cur;
    }
  }

  // --- 5. host-side balance gate + repartition + reassignment ------------------
  // Optional calibration feedback: scale each owner's predicted Wcomp by
  // its measured per-element solve seconds (no-op unless
  // calibration.blend_measured_weights has observed per-rank data).
  sim::blend_weights(wcomp_pred, root_part_, calib_.rank_weight_scale());
  // plum-scale: host-only -- host-side load table for the rebalance decision
  std::vector<Weight> loads_old(static_cast<std::size_t>(P), 0);
  for (Index v = 0; v < nroots; ++v) {
    loads_old[static_cast<std::size_t>(root_part_[v])] +=
        wcomp_pred[static_cast<std::size_t>(v)];
  }
  rep.imbalance_old = imbalance(loads_old);
  // Predicted weights drive both the repartitioner and the end-of-cycle
  // quality gauges, so install them unconditionally.
  dual_.set_weights(wcomp_pred, wremap_pred);

  obs::GateRecord gate_rec;
  gate_rec.cycle = this_cycle;
  gate_rec.metric = sim::cost_metric_name(opt_.metric);
  gate_rec.imbalance_old = rep.imbalance_old;

  std::size_t remap_phase = 0;
  bool have_remap_phase = false;
  if (rep.imbalance_old > opt_.imbalance_trigger) {
    rep.evaluated_repartition = true;
    obs::PhaseScope gate(trace_, "gate");
    partition::MultilevelOptions popt;
    popt.nparts = P;
    popt.seed = opt_.seed;
    popt.scratch = mem_.host_scratch();  // serial phase: host row
    partition::MultilevelResult repart;
    {
      obs::PhaseScope ph(trace_, "repartition");
      repart = partition::repartition(dual_, root_part_, popt);
      ph.set_modeled_seconds(cost_model.partition_seconds(
          nroots, static_cast<int>(repart.levels.size()), P));
    }

    const auto& move_w =
        opt_.remap_before_subdivision ? wremap_cur : wremap_pred;
    // Row-wise sparse construction, as each processor would compute and ship
    // its own similarity row (paper §4.3): the gather moves O(nonzeros)
    // cells instead of a dense P x (P*F) block, and the dense fold happens
    // here on the host.
    // plum-scale: host-only -- host-side gather of sparse similarity rows (one per rank)
    std::vector<std::vector<remap::SimilarityCell>> srows(
        static_cast<std::size_t>(P));
    for (Rank r = 0; r < P; ++r) {
      srows[static_cast<std::size_t>(r)] = remap::SimilarityMatrix::
          build_row_sparse(r, root_part_, repart.part, move_w);
    }
    const auto S = remap::SimilarityMatrix::from_sparse_rows(srows, P);
    remap::Assignment assign;
    {
      obs::PhaseScope ph(trace_, "reassign");
      assign = opt_.mapper == MapperKind::kOptimalMwbg
                   ? remap::map_optimal_mwbg(S)
               : opt_.mapper == MapperKind::kOptimalBmcm
                   ? remap::map_optimal_bmcm(S)
                   : remap::map_heuristic_greedy(S);
    }
    rep.volume = remap::evaluate_assignment(S, assign);

    // plum-scale: host-only -- host-side load table for the rebalance decision
    std::vector<Weight> loads_new(static_cast<std::size_t>(P), 0);
    partition::PartVec new_part(root_part_.size());
    for (std::size_t v = 0; v < new_part.size(); ++v) {
      new_part[v] =
          assign.part_to_proc[static_cast<std::size_t>(repart.part[v])];
      loads_new[static_cast<std::size_t>(new_part[v])] += wcomp_pred[v];
    }
    rep.imbalance_new = imbalance(loads_new);

    std::vector<Weight> growth(static_cast<std::size_t>(nroots));
    for (Index v = 0; v < nroots; ++v) {
      growth[static_cast<std::size_t>(v)] =
          wremap_pred[static_cast<std::size_t>(v)] -
          wremap_cur[static_cast<std::size_t>(v)];
    }
    // plum-scale: host-only -- host-side load tables for gain accounting
    std::vector<Weight> ref_old(static_cast<std::size_t>(P), 0),
        ref_new(static_cast<std::size_t>(P), 0);
    for (Index v = 0; v < nroots; ++v) {
      ref_old[static_cast<std::size_t>(root_part_[v])] +=
          growth[static_cast<std::size_t>(v)];
      ref_new[static_cast<std::size_t>(new_part[v])] +=
          growth[static_cast<std::size_t>(v)];
    }
    rep.gain_seconds = cost_model.computational_gain(
        vec_max(loads_old), vec_max(loads_new), vec_max(ref_old),
        vec_max(ref_new));
    rep.cost_seconds = cost_model.redistribution_cost(rep.volume, opt_.metric);

    gate_rec.evaluated = true;
    gate_rec.imbalance_new = rep.imbalance_new;
    gate_rec.gain_s = rep.gain_seconds;
    gate_rec.cost_s = rep.cost_seconds;
    gate_rec.moved_elems = opt_.metric == sim::CostMetric::kTotalV
                               ? rep.volume.total_elems
                               : rep.volume.bottleneck_elems;
    gate_rec.moved_sets = opt_.metric == sim::CostMetric::kTotalV
                              ? rep.volume.total_sets
                              : rep.volume.bottleneck_sets;
    gate_rec.predicted_move_bytes =
        cost_model.predicted_move_bytes(rep.volume, opt_.metric);

    if (cost_model.accept_remap(rep.gain_seconds, rep.cost_seconds)) {
      rep.accepted = true;
      remap_phase = trace_.phases().size();
      have_remap_phase = true;
      obs::PhaseScope ph(trace_, "remap");
      ph.set_modeled_seconds(rep.cost_seconds);
      // --- 6. migrate subtrees + solution (remap before subdivision) -------
      states_.clear();
      for (Rank r = 0; r < P; ++r) states_.push_back(solver_->solution(r));
      const auto ms = pmesh::migrate(*dm_, *eng_, new_part, &states_, &mem_);
      rep.elements_migrated = ms.elements_moved;
      root_part_ = new_part;
      rebind_solver();

      // Measured data movement: the bytes the migration really packed and
      // sent through the engine, vs the cost model's prediction.
      gate_rec.accepted = true;
      gate_rec.measured_move_bytes = vec_sum(ms.bytes_sent);
      gate_rec.drift = obs::gate_drift(gate_rec.predicted_move_bytes,
                                       gate_rec.measured_move_bytes);

      // Re-derive the marks on the new distribution (deterministic: same
      // states, same threshold => the same global mark set).
      err = rank_errors(*dm_, *solver_);
      seeds = threshold_marks(*dm_, err, threshold);
      pm = pmesh::parallel_mark(*dm_, *eng_, seeds, &mem_);
    }
  }
  trace_.add_gate_record(gate_rec);

  // --- live paper-metric gauges (one sample per series per cycle) -----------
  double cycle_imbalance = 0;  // also stamped on the plum-scope record
  {
    const auto q = partition::evaluate_quality(dual_, root_part_, P);
    cycle_imbalance = q.imbalance;
    metrics_.add_sample("imbalance", q.imbalance);
    metrics_.add_sample_int("edge_cut", q.edge_cut);
    for (const auto& [name, value] : remap::volume_fields(rep.volume)) {
      metrics_.add_sample_int(name, value);
    }
  }
  ++cycle_index_;

  // --- 7. parallel subdivision ---------------------------------------------------
  // Braced so the phase closes before the end-of-cycle histogram sampling.
  const std::size_t subdivide_phase = trace_.phases().size();
  {
    obs::PhaseScope subdivide(trace_, "subdivide");
    for (Rank r = 0; r < P; ++r) {
      auto& lm = dm_->local(r);
      lm.mesh.on_bisect = [this, r](Index e, Index mid) {
        auto& u = solver_->solution(r);
        const auto& ed = dm_->local(r).mesh.edge(e);
        if (static_cast<std::size_t>(mid) >= u.size()) {
          u.resize(static_cast<std::size_t>(mid) + 1);
        }
        for (int c = 0; c < solver::kNumVars; ++c) {
          u[static_cast<std::size_t>(mid)][c] =
              0.5 * (u[static_cast<std::size_t>(ed.v0)][c] +
                     u[static_cast<std::size_t>(ed.v1)][c]);
        }
      };
    }
    const auto pf = pmesh::parallel_refine(*dm_, *eng_, pm, &mem_);
    rep.refine_work_per_rank = pf.work_per_rank;
    subdivide.set_modeled_seconds(
        mp.t_refine * static_cast<double>(vec_max(pf.work_per_rank)));
    for (Rank r = 0; r < P; ++r) dm_->local(r).mesh.on_bisect = nullptr;
  }

  // Rebind with the grown solution arrays.
  states_.clear();
  for (Rank r = 0; r < P; ++r) states_.push_back(solver_->solution(r));
  rebind_solver();

  rep.elements_after = dm_->total_active_elements();

  // --- close the loop: feed this cycle's telemetry to the calibrator --------
  // Measured wall seconds (always recorded into the replay log): the phase
  // walls plus the per-rank solve decomposition summed from the solve
  // phase's superstep records.
  const double solve_wall_s = trace_.phases()[solve_phase].wall_s;
  const double remap_wall_s =
      have_remap_phase ? trace_.phases()[remap_phase].wall_s : 0.0;
  const double subdivide_wall_s = trace_.phases()[subdivide_phase].wall_s;
  // plum-scale: host-only -- per-rank solve seconds for the calibration log
  std::vector<double> rank_solve_wall(static_cast<std::size_t>(P), 0.0);
  for (std::size_t s = solve_step_lo; s < solve_step_hi; ++s) {
    const auto& secs = trace_.supersteps()[s].rank_seconds;
    for (std::size_t r = 0; r < secs.size() && r < rank_solve_wall.size();
         ++r) {
      rank_solve_wall[r] += secs[r];
    }
  }
  if (opt_.calibration.enabled) {
    sim::CalibrationSample cs;
    cs.cycle = this_cycle;
    cs.solve_work = static_cast<std::int64_t>(opt_.solver_steps_per_cycle) *
                    vec_max(solve_epr);
    cs.refine_children = vec_max(rep.refine_work_per_rank);
    cs.rank_elements = solve_epr;
    if (replay_) {
      if (static_cast<std::size_t>(this_cycle) < replay_book_.cycles.size()) {
        const sim::ReplayCycle& bc =
            replay_book_.cycles[static_cast<std::size_t>(this_cycle)];
        cs.solve_seconds = bc.solve_seconds;
        cs.remap_seconds = bc.remap_seconds;
        cs.subdivide_seconds = bc.subdivide_seconds;
        cs.rank_solve_seconds = bc.rank_solve_seconds;
      }
      // Past the end of the book: no timing evidence this cycle; the byte
      // fit below still runs (it is counter-sourced).
    } else {
      cs.solve_seconds = solve_wall_s;
      cs.remap_seconds = remap_wall_s;
      cs.subdivide_seconds = subdivide_wall_s;
      cs.rank_solve_seconds = rank_solve_wall;
    }
    if (rep.accepted) {
      cs.remap_executed = true;
      cs.moved_elems = gate_rec.moved_elems;
      cs.moved_sets = gate_rec.moved_sets;
      cs.predicted_move_bytes = gate_rec.predicted_move_bytes;
      cs.measured_move_bytes = gate_rec.measured_move_bytes;
    }
    calib_.observe(cs);
    // Under replay the calibration document is a pure function of
    // deterministic inputs, so it joins the deterministic trace view and
    // the per-constant gauges; live calibration stays wall-only.
    trace_.set_calibration(calib_.to_json(), /*deterministic=*/replay_);
    if (replay_) {
      const sim::MachineParams& cp = calib_.params();
      metrics_.add_sample("calib_t_iter", cp.t_iter);
      metrics_.add_sample("calib_t_refine", cp.t_refine);
      metrics_.add_sample("calib_t_lat", cp.t_lat);
      metrics_.add_sample("calib_t_setup", cp.t_setup);
      metrics_.add_sample("calib_bytes_per_element",
                          calib_.model().move_bytes_per_element());
      metrics_.add_sample("calib_bytes_per_set", cp.bytes_per_set);
      metrics_.add_sample("calib_gate_margin", cp.gate_margin);
      metrics_.add_sample("calib_mean_abs_drift", calib_.mean_abs_drift());
    }
  }
  {
    sim::ReplayCycle rc;
    rc.solve_seconds = solve_wall_s;
    rc.remap_seconds = remap_wall_s;
    rc.subdivide_seconds = subdivide_wall_s;
    rc.rank_solve_seconds = std::move(rank_solve_wall);
    replay_log_.cycles.push_back(std::move(rc));
  }

  // Per-cycle fixed-bound histograms (obs/critical_path.hpp): per-rank
  // step wall seconds + counter-sourced wait fractions for every superstep
  // this cycle ran, plus the wall seconds of every phase that closed.
  obs::record_step_histograms(metrics_, trace_, &hist_step_cursor_);
  obs::record_phase_histograms(metrics_, trace_, &hist_phase_cursor_);

  // --- plum-scope: coordinator RSS gauges + one live stream record ---------
  // Coordinator resident set (plum-mem wall gauges; the deterministic heap
  // counters live in the trace's plum-heap/1 section instead).
  {
    const util::RssSample rss = util::read_rss();
    metrics_.add_wall_sample_int("vm_rss_bytes", rss.vm_rss_bytes);
    metrics_.add_wall_sample_int("vm_hwm_bytes", rss.vm_hwm_bytes);
  }
  if (stream_ != nullptr) {
    // Per-rank busy/wait over this cycle's supersteps, counter-sourced:
    // busy is the rank's compute units, wait is its distance from the
    // step's critical rank (the same decomposition as plum-path).
    const auto& steps = trace_.supersteps();
    // plum-scale: host-only -- per-rank busy fold for one stream record
    std::vector<std::int64_t> busy(static_cast<std::size_t>(P), 0);
    // plum-scale: host-only -- per-rank wait fold for one stream record
    std::vector<std::int64_t> wait(static_cast<std::size_t>(P), 0);
    for (std::size_t s = scope_step_cursor_; s < steps.size(); ++s) {
      const auto& cs = steps[s].counters;
      std::int64_t step_max = 0;
      for (const auto& c : cs) step_max = std::max(step_max, c.compute_units);
      for (std::size_t r = 0; r < cs.size() && r < busy.size(); ++r) {
        busy[r] += cs[r].compute_units;
        wait[r] += step_max - cs[r].compute_units;
      }
    }
    obs::Json rec_json = obs::Json::object();
    rec_json.set("schema", obs::Json::str("plum-scope/1"))
        .set("name", obs::Json::str(opt_.scope_name))
        .set("cycle", obs::Json::integer(this_cycle))
        .set("supersteps", obs::Json::integer(static_cast<std::int64_t>(
                               steps.size() - scope_step_cursor_)))
        .set("elements", obs::Json::integer(rep.elements_after))
        .set("imbalance", obs::Json::number(cycle_imbalance))
        .set("wall_s", obs::Json::number(cycle_timer.seconds()));
    obs::Json gate_json = obs::Json::object();
    gate_json.set("evaluated", obs::Json::boolean(rep.evaluated_repartition))
        .set("accepted", obs::Json::boolean(rep.accepted));
    rec_json.set("gate", std::move(gate_json));
    obs::Json ranks_json = obs::Json::array();
    for (Rank r = 0; r < P; ++r) {
      obs::Json rj = obs::Json::object();
      rj.set("rank", obs::Json::integer(r))
          .set("busy", obs::Json::integer(busy[static_cast<std::size_t>(r)]))
          .set("wait", obs::Json::integer(wait[static_cast<std::size_t>(r)]))
          .set("live_bytes",
               obs::Json::integer(mem_.live_bytes(static_cast<int>(r))));
      ranks_json.push(std::move(rj));
    }
    rec_json.set("ranks", std::move(ranks_json));
    // Coordinator RSS for plum-top's live memory column (wall-class).
    rec_json.set("rss", obs::rss_json());
    stream_->append(rec_json);
  }
  scope_step_cursor_ = trace_.supersteps().size();
  return rep;
}

}  // namespace plum::core
