#include "core/dist_framework.hpp"

#include <algorithm>

#include "adapt/error_indicator.hpp"
#include "obs/critical_path.hpp"
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
      mem_(opt_.nranks, opt_.arena_chunk_bytes),
      balancer_(initial_global.build_initial_dual(), opt_, mem_) {
  mem_.reset_arenas();  // constructor scratch dies here
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

  dm_ = std::make_unique<pmesh::DistMesh>(initial_global,
                                          balancer_.root_part(), opt_.nranks);
  rebind_solver();
}

DistFramework::~DistFramework() { obs::uninstall_postmortem(); }

void DistFramework::rebind_solver() {
  solver_ = std::make_unique<pmesh::ParallelEulerSolver>(dm_.get(), eng_.get());
  if (!states_.empty()) {
    for (Rank r = 0; r < opt_.nranks; ++r) {
      auto& dst = solver_->solution(r);
      auto& src = states_[static_cast<std::size_t>(r)];
      PLUM_ASSERT(dst.size() == src.size());
      dst = std::move(src);
    }
    states_.clear();
  }
}

void DistFramework::save_states() {
  states_.clear();
  for (Rank r = 0; r < opt_.nranks; ++r) {
    states_.push_back(std::move(solver_->solution(r)));
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
  const int this_cycle = balancer_.cycle_index();
  // Price this cycle with the calibrated constants (they move only when the
  // cycle closes); while calibration is disabled they equal the static
  // opt_.machine.
  const sim::MachineParams& mp = balancer_.calibration().params();
  CycleTelemetry tel;

  // --- 1. parallel flow solver ------------------------------------------------
  tel.solve_phase = trace_.phases().size();
  const std::size_t solve_step_lo = trace_.supersteps().size();
  {
    obs::PhaseScope ph(trace_, "solve");
    solver_->run(opt_.solver_steps_per_cycle);
    tel.rank_elements = dm_->active_elements_per_rank();
    const Index solve_max = vec_max(tel.rank_elements);
    tel.solve_work =
        static_cast<std::int64_t>(opt_.solver_steps_per_cycle) * solve_max;
    ph.set_modeled_seconds(mp.t_iter *
                           static_cast<double>(opt_.solver_steps_per_cycle) *
                           static_cast<double>(solve_max));
  }
  // Per-rank solve seconds, summed from the solve phase's superstep records.
  auto& rank_solve = tel.rank_solve_seconds;
  // plum-scale: host-only -- per-rank solve seconds for the calibration log
  rank_solve.assign(static_cast<std::size_t>(P), 0.0);
  for (std::size_t s = solve_step_lo; s < trace_.supersteps().size(); ++s) {
    const auto& secs = trace_.supersteps()[s].rank_seconds;
    for (std::size_t r = 0; r < secs.size() && r < rank_solve.size(); ++r) {
      rank_solve[r] += secs[r];
    }
  }

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
      save_states();
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

  RootLoads w;
  const auto nroots =
      static_cast<std::size_t>(balancer_.dual().num_vertices());
  w.wcomp.assign(nroots, 0);
  w.wremap.assign(nroots, 0);
  w.wremap_cur.assign(nroots, 0);
  for (const auto& row : hosted) {
    for (const auto& rw : row) {
      const auto g = static_cast<std::size_t>(rw.groot);
      w.wcomp[g] = rw.wcomp_pred;
      w.wremap[g] = rw.wremap_pred;
      w.wremap_cur[g] = rw.wremap_cur;
    }
  }

  // --- 5-6. host-side balance gate (core/balance); the remap migrates
  //          subtrees + solution (remap before subdivision) ------------------
  const auto migrate = [&](const partition::PartVec& owner) -> std::int64_t {
    save_states();
    const auto ms = pmesh::migrate(*dm_, *eng_, owner, &states_, &mem_);
    rep.elements_migrated = ms.elements_moved;
    rebind_solver();
    // Re-derive the marks on the new distribution (deterministic: same
    // states, same threshold => the same global mark set).
    err = rank_errors(*dm_, *solver_);
    seeds = threshold_marks(*dm_, err, threshold);
    pm = pmesh::parallel_mark(*dm_, *eng_, seeds, &mem_);
    // Measured data movement: the bytes the migration really packed and
    // sent through the engine.
    return vec_sum(ms.bytes_sent);
  };
  // Also stamped on the plum-scope record.
  const double cycle_imbalance =
      balancer_.gate(std::move(w), migrate, rep, trace_, metrics_, mem_);

  // --- 7. parallel subdivision ---------------------------------------------------
  // Braced so the phase closes before the end-of-cycle histogram sampling.
  tel.subdivide_phase = trace_.phases().size();
  {
    obs::PhaseScope subdivide(trace_, "subdivide");
    // The hooks fire on the worker that subdivides rank r, so each touches
    // only rank r's solution and mesh.
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
  save_states();
  rebind_solver();

  rep.elements_after = dm_->total_active_elements();

  // --- close the loop: feed this cycle's telemetry to the calibrator --------
  tel.refine_children = vec_max(rep.refine_work_per_rank);
  balancer_.close_cycle(tel, trace_, metrics_);

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
