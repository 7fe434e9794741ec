#include "core/balance.hpp"

#include <string>
#include <utility>

#include "partition/quality.hpp"
#include "remap/mapping.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace plum::core {

namespace {

remap::Assignment run_mapper(MapperKind kind,
                             const remap::SimilarityMatrix& S, double alpha,
                             double beta) {
  switch (kind) {
    case MapperKind::kHeuristicGreedy: return remap::map_heuristic_greedy(S);
    case MapperKind::kOptimalMwbg: return remap::map_optimal_mwbg(S);
    case MapperKind::kOptimalBmcm:
      return remap::map_optimal_bmcm(S, alpha, beta);
  }
  PLUM_ASSERT(false);
  return {};
}

}  // namespace

std::vector<Weight> proc_loads(const partition::PartVec& owner,
                               const std::vector<Weight>& weights,
                               Rank nprocs) {
  // plum-scale: host-only -- host-side load table for the balance gate
  std::vector<Weight> loads(static_cast<std::size_t>(nprocs), 0);
  for (std::size_t v = 0; v < owner.size(); ++v) {
    loads[static_cast<std::size_t>(owner[v])] += weights[v];
  }
  return loads;
}

Balancer::Balancer(graph::Csr dual, const FrameworkOptions& opt,
                   obs::MemoryTracker& mem)
    : opt_(opt), dual_(std::move(dual)) {
  PLUM_ASSERT(opt_.nranks >= 1);
  PLUM_ASSERT(opt_.partitions_per_proc >= 1);
  if (!opt_.replay_path.empty()) {
    std::string err;
    const bool loaded =
        sim::ReplayBook::load(opt_.replay_path, &replay_book_, &err);
    PLUM_ASSERT_MSG(loaded, "replay book failed to load");
    replay_ = true;
    opt_.calibration.enabled = true;
  }
  calib_ = sim::Calibration(opt_.machine, opt_.calibration);

  partition::MultilevelOptions popt;
  popt.nparts = opt_.nranks;  // initial mapping: one partition per processor
  popt.seed = opt_.seed;
  popt.scratch = mem.host_scratch();  // serial phase: host row
  root_part_ = partition::partition(dual_, popt).part;
}

double Balancer::gate(RootLoads w, const RemapFn& remap, GateReport& rep,
                      obs::TraceRecorder& trace, obs::MetricsRegistry& metrics,
                      obs::MemoryTracker& mem) {
  const Rank P = opt_.nranks;
  // Price with the calibrated constants; while calibration is disabled the
  // model equals the static opt_.machine.
  const sim::CostModel cm = calib_.model();
  // Optional calibration feedback: scale each owner's predicted Wcomp by
  // its measured per-element solve seconds (no-op unless
  // calibration.blend_measured_weights has observed per-rank data).
  sim::blend_weights(w.wcomp, root_part_, calib_.rank_weight_scale());
  // Predicted weights drive both the repartitioner and the end-of-cycle
  // quality gauges, so install them unconditionally.
  dual_.set_weights(w.wcomp, w.wremap);
  const auto loads_old = proc_loads(root_part_, w.wcomp, P);
  rep.imbalance_old = imbalance(loads_old);
  rep.wmax_old = vec_max(loads_old);

  gate_ = obs::GateRecord{};
  gate_.cycle = cycle_;
  gate_.metric = sim::cost_metric_name(opt_.metric);
  gate_.imbalance_old = rep.imbalance_old;
  remap_phase_.reset();

  if (rep.imbalance_old > opt_.imbalance_trigger) {
    rep.evaluated_repartition = true;
    obs::PhaseScope gate_scope(trace, "gate");

    // --- repartition the dual graph (paper §4.2) ----------------------------
    partition::MultilevelOptions popt;
    popt.nparts = P * opt_.partitions_per_proc;
    popt.seed = opt_.seed;
    popt.scratch = mem.host_scratch();  // serial phase: host row
    partition::MultilevelResult repart;
    {
      obs::PhaseScope ph(trace, "repartition");
      // Warm start only applies when partition count matches the current
      // mapping's granularity (F = 1); otherwise partition from scratch.
      repart = opt_.partitions_per_proc == 1
                   ? partition::repartition(dual_, root_part_, popt)
                   : partition::partition(dual_, popt);
      ph.set_modeled_seconds(cm.partition_seconds(
          dual_.num_vertices(), static_cast<int>(repart.levels.size()), P));
    }
    rep.used_previous_partition = repart.used_previous;

    // --- processor reassignment (similarity matrix + mapper, §4.3-4.4) -----
    // Remap-before moves the current (small) trees; remap-after would move
    // the post-subdivision trees.
    const auto& move_w =
        opt_.remap_before_subdivision ? w.wremap_cur : w.wremap;
    const auto S = remap::SimilarityMatrix::build(root_part_, repart.part,
                                                  move_w, P, popt.nparts);
    remap::Assignment assign;
    {
      obs::PhaseScope ph(trace, "reassign");
      assign = run_mapper(opt_.mapper, S, opt_.machine.alpha,
                          opt_.machine.beta);
    }
    rep.mapper_seconds = assign.solve_seconds;
    rep.volume = remap::evaluate_assignment(S, assign, opt_.machine.alpha,
                                            opt_.machine.beta);

    // --- gain vs cost (paper §4.5) ------------------------------------------
    partition::PartVec owner(root_part_.size());
    for (std::size_t v = 0; v < owner.size(); ++v) {
      owner[v] = assign.part_to_proc[static_cast<std::size_t>(repart.part[v])];
    }
    const auto loads_new = proc_loads(owner, w.wcomp, P);
    rep.imbalance_new = imbalance(loads_new);
    rep.wmax_new = vec_max(loads_new);
    // Subdivision work per processor = predicted growth of the trees.
    std::vector<Weight> growth(w.wremap.size());
    for (std::size_t v = 0; v < growth.size(); ++v) {
      growth[v] = w.wremap[v] - w.wremap_cur[v];
    }
    rep.gain_seconds = cm.computational_gain(
        rep.wmax_old, rep.wmax_new, vec_max(proc_loads(root_part_, growth, P)),
        vec_max(proc_loads(owner, growth, P)));
    rep.cost_seconds = cm.redistribution_cost(rep.volume, opt_.metric);

    const bool total = opt_.metric == sim::CostMetric::kTotalV;
    gate_.evaluated = true;
    gate_.imbalance_new = rep.imbalance_new;
    gate_.gain_s = rep.gain_seconds;
    gate_.cost_s = rep.cost_seconds;
    gate_.moved_elems =
        total ? rep.volume.total_elems : rep.volume.bottleneck_elems;
    gate_.moved_sets =
        total ? rep.volume.total_sets : rep.volume.bottleneck_sets;
    gate_.predicted_move_bytes =
        cm.predicted_move_bytes(rep.volume, opt_.metric);

    // --- remap (paper §4.6) -------------------------------------------------
    if (cm.accept_remap(rep.gain_seconds, rep.cost_seconds)) {
      rep.accepted = true;
      remap_phase_ = trace.phases().size();
      obs::PhaseScope ph(trace, "remap");
      ph.set_modeled_seconds(rep.cost_seconds);
      gate_.accepted = true;
      gate_.measured_move_bytes = remap(owner);
      gate_.drift = obs::gate_drift(gate_.predicted_move_bytes,
                                    gate_.measured_move_bytes);
      root_part_ = std::move(owner);
    }
  }
  trace.add_gate_record(gate_);

  // --- live paper-metric gauges (one sample per series per cycle) ----------
  const auto q = partition::evaluate_quality(dual_, root_part_, P);
  metrics.add_sample("imbalance", q.imbalance);
  metrics.add_sample_int("edge_cut", q.edge_cut);
  for (const auto& [name, value] : remap::volume_fields(rep.volume)) {
    metrics.add_sample_int(name, value);
  }
  return q.imbalance;
}

void Balancer::close_cycle(const CycleTelemetry& t, obs::TraceRecorder& trace,
                           obs::MetricsRegistry& metrics) {
  // Measured wall seconds, recorded into the replay log regardless: any
  // instrumented run can hand its book to a later deterministic replay.
  const auto& phases = trace.phases();
  sim::ReplayCycle measured;
  measured.solve_seconds = phases[t.solve_phase].wall_s;
  measured.remap_seconds = remap_phase_ ? phases[*remap_phase_].wall_s : 0.0;
  measured.subdivide_seconds = phases[t.subdivide_phase].wall_s;
  measured.rank_solve_seconds = t.rank_solve_seconds;

  if (calib_.options().enabled) {
    sim::CalibrationSample cs;
    cs.cycle = cycle_;
    cs.solve_work = t.solve_work;
    cs.refine_children = t.refine_children;
    cs.rank_elements = t.rank_elements;
    // Seconds come from the replay book (deterministic) or the wall clock
    // (live); the work and byte terms are deterministic counters either
    // way. Past the end of the book there is no timing evidence this
    // cycle; the byte fit still runs (it is counter-sourced).
    const sim::ReplayCycle* secs = &measured;
    if (replay_) {
      const auto c = static_cast<std::size_t>(cycle_);
      secs = c < replay_book_.cycles.size() ? &replay_book_.cycles[c] : nullptr;
    }
    if (secs != nullptr) {
      cs.solve_seconds = secs->solve_seconds;
      cs.remap_seconds = secs->remap_seconds;
      cs.subdivide_seconds = secs->subdivide_seconds;
      cs.rank_solve_seconds = secs->rank_solve_seconds;
    }
    if (gate_.accepted) {
      cs.remap_executed = true;
      cs.moved_elems = gate_.moved_elems;
      cs.moved_sets = gate_.moved_sets;
      cs.predicted_move_bytes = gate_.predicted_move_bytes;
      cs.measured_move_bytes = gate_.measured_move_bytes;
    }
    calib_.observe(cs);
    // Under replay the calibration document is a pure function of
    // deterministic inputs, so it joins the deterministic trace view and
    // the per-constant gauges; live calibration stays wall-only.
    trace.set_calibration(calib_.to_json(), /*deterministic=*/replay_);
    if (replay_) {
      const sim::MachineParams& cp = calib_.params();
      metrics.add_sample("calib_t_iter", cp.t_iter);
      metrics.add_sample("calib_t_refine", cp.t_refine);
      metrics.add_sample("calib_t_lat", cp.t_lat);
      metrics.add_sample("calib_t_setup", cp.t_setup);
      metrics.add_sample("calib_bytes_per_element",
                         calib_.model().move_bytes_per_element());
      metrics.add_sample("calib_bytes_per_set", cp.bytes_per_set);
      metrics.add_sample("calib_gate_margin", cp.gate_margin);
      metrics.add_sample("calib_mean_abs_drift", calib_.mean_abs_drift());
    }
  }
  replay_log_.cycles.push_back(std::move(measured));
  ++cycle_;
}

}  // namespace plum::core
