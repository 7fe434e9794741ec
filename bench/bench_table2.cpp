// Reproduces Table 2: the three processor-reassignment algorithms compared
// on the Real_2 strategy — elements moved (total and bottleneck max of
// sent/received) and *measured* reassignment wall-clock — for P = 2..64.
//
// Paper reference (Real_2, SP2):
//    P  Max(Sent,Recd)  OptMWBG: total/time   HeuMWBG: total/time   OptBMCM: total/time
//    2      11295          22522 / 0.0002        22522 / 0.0000        22522 / 0.0003
//    4       6827          16813 / 0.0004        16813 / 0.0001        16813 / 0.0006
//    8       8169          30071 / 0.0013        30071 / 0.0002        35506 / 0.0019
//   16       7131          35096 / 0.0045        36520 / 0.0005        50488 / 0.0070
//   32       4410          34738 / 0.0177        35032 / 0.0017        49641 / 0.0323
//   64       2264          38059 / 0.0650        38283 / 0.0088        52837 / 0.1327
//
// Shape targets: heuristic ~10x faster than optimal MWBG with nearly equal
// total movement; optimal BMCM slowest with larger total volume but the
// smallest per-processor bottleneck.

#include <cmath>
#include <iostream>

#include "common.hpp"
#include "io/table.hpp"
#include "json_report.hpp"
#include "obs/gate_audit.hpp"
#include "partition/multilevel.hpp"
#include "partition/quality.hpp"
#include "remap/mapping.hpp"
#include "remap/volume.hpp"
#include "sim/calibration.hpp"

int main() {
  using namespace plum;

  auto w = bench::make_workload();
  adapt::MeshAdaptor adaptor(&w.mesh);
  adaptor.mark(adapt::mark_top_fraction(w.mesh, w.err, 0.33));  // Real_2
  const auto predicted = adaptor.predicted_weights();
  const auto current = w.mesh.root_weights();

  auto dual = w.mesh.build_initial_dual();

  io::Table table({"P", "Max(Sent,Recd)", "OptMWBG elems", "OptMWBG s",
                   "HeuMWBG elems", "HeuMWBG s", "OptBMCM elems",
                   "OptBMCM s"});
  bench::JsonReport report("bench_table2");

  // Synthetic calibration demo: each P's heuristic remap is priced with the
  // stock SP2 byte constants, then "measured" on a machine whose element
  // payload is 25% heavier and whose per-set framing is double. Everything
  // is a counter, so the calibrated drift column is deterministic and the
  // baseline gates that the fit actually converges.
  sim::MachineParams truth;
  truth.bytes_per_element =
      static_cast<double>(truth.words_per_element) * 8.0 * 1.25;
  truth.bytes_per_set *= 2.0;
  const sim::CostModel truth_model(truth);
  sim::CalibrationOptions copt;
  copt.enabled = true;
  copt.fit_timings = false;
  sim::Calibration calib(sim::MachineParams{}, copt);

  for (Rank P : bench::kProcCounts) {
    // Old partitioning: balanced on the pre-adaption mesh.
    partition::MultilevelOptions popt;
    popt.nparts = P;
    dual.set_weights(current.wcomp, current.wremap);
    const auto old_part = partition::partition(dual, popt).part;

    // Repartition with the predicted weights (warm start, as parallel MeTiS
    // does); remap-before-subdivision volume = current tree sizes.
    dual.set_weights(predicted.wcomp, predicted.wremap);
    const auto new_part = partition::repartition(dual, old_part, popt).part;
    const auto S = remap::SimilarityMatrix::build(old_part, new_part,
                                                  current.wremap, P, P);

    const auto opt = remap::map_optimal_mwbg(S);
    const auto heu = remap::map_heuristic_greedy(S);
    const auto bm = remap::map_optimal_bmcm(S);
    const auto v_opt = remap::evaluate_assignment(S, opt);
    const auto v_heu = remap::evaluate_assignment(S, heu);
    const auto v_bm = remap::evaluate_assignment(S, bm);

    // Quality of the repartitioning under the predicted weights — the same
    // "imbalance" / "edge_cut" fields the Framework's live gauges record.
    const auto quality = partition::evaluate_quality(dual, new_part, P);

    table.add_row({io::Table::fmt(std::int64_t{P}),
                   io::Table::fmt(std::int64_t{v_bm.max_sent_or_recv}),
                   io::Table::fmt(std::int64_t{v_opt.total_elems}),
                   io::Table::fmt(opt.solve_seconds, 6),
                   io::Table::fmt(std::int64_t{v_heu.total_elems}),
                   io::Table::fmt(heu.solve_seconds, 6),
                   io::Table::fmt(std::int64_t{v_bm.total_elems}),
                   io::Table::fmt(bm.solve_seconds, 6)});

    auto& run =
        report.add_run("Real_2", P)
            .metric_int("bmcm_max_sent_or_recv", v_bm.max_sent_or_recv)
            .metric_int("opt_mwbg_total_elems", v_opt.total_elems)
            // Measured timer reads, so spelled *_seconds: `plum diff`'s
            // regression gate treats that suffix as wall clock (report-only).
            .metric("opt_mwbg_solve_seconds", opt.solve_seconds)
            .metric_int("heu_mwbg_total_elems", v_heu.total_elems)
            .metric("heu_mwbg_solve_seconds", heu.solve_seconds)
            .metric_int("opt_bmcm_total_elems", v_bm.total_elems)
            .metric("opt_bmcm_solve_seconds", bm.solve_seconds)
            .metric("imbalance", quality.imbalance)
            .metric_int("edge_cut", quality.edge_cut);
    // Full RemapVolume breakdown for the heuristic mapper (the framework's
    // default), under the canonical gauge names.
    for (const auto& [name, value] : remap::volume_fields(v_heu)) {
      run.metric_int(name, value);
    }

    // Calibration demo on the heuristic remap's TotalV regressors.
    const auto elems = static_cast<std::int64_t>(v_heu.total_elems);
    const auto sets = static_cast<std::int64_t>(v_heu.total_sets);
    sim::CalibrationSample cs;
    cs.remap_executed = true;
    cs.moved_elems = elems;
    cs.moved_sets = sets;
    cs.predicted_move_bytes = calib.predicted_bytes(elems, sets);
    cs.measured_move_bytes = std::llround(
        truth_model.move_bytes_per_element() * static_cast<double>(elems) +
        truth.bytes_per_set * static_cast<double>(sets));
    const double drift_static = std::abs(obs::gate_drift(
        sim::CostModel(sim::MachineParams{})
            .predicted_move_bytes(v_heu, sim::CostMetric::kTotalV),
        cs.measured_move_bytes));
    calib.observe(cs);
    run.metric("calib_drift_abs_static", drift_static)
        .metric("calib_drift_abs_calibrated",
                calib.recalibrated_abs_drift(cs))
        .calibration(calib.to_json());
  }

  std::cout << "Table 2: mapper comparison on Real_2 (remap before "
               "subdivision; volumes in initial-mesh elements)\n";
  table.print(std::cout);
  std::cout << "\nShape checks vs paper: HeuMWBG total ~= OptMWBG total; "
               "OptBMCM total larger;\nHeuMWBG time ~10x under OptMWBG; "
               "OptBMCM time largest and growing fastest in P.\n";
  return report.write().empty() ? 1 : 0;
}
