#pragma once
// Fully distributed framework driver — the paper's Fig. 1 loop with every
// phase running on the distributed substrate:
//
//   parallel flow solver (owner-computes fluxes, SPL residual exchange)
//   -> local error indicator + global threshold (quantile agreed via the
//      host, the only serial step, as in the paper's similarity gather)
//   -> parallel edge marking with cross-partition propagation
//   -> per-rank predicted weights gathered to the host
//   -> host: repartition the initial-mesh dual + processor reassignment
//      + gain/cost gate (§4.2-4.6) — core/balance, the same policy and
//      calibration loop core::Framework runs
//   -> accepted: migrate subtrees + solution (remap before subdivision),
//      the gate's remap callback
//   -> parallel refinement with SPL repair
//
// Complements core::Framework (the single-address-space driver used by the
// figure benches): everything here moves through the BSP engine, so the
// ledger records the true communication pattern of one adaption cycle.

#include <memory>
#include <optional>

#include "core/framework.hpp"
#include "obs/scope.hpp"
#include "pmesh/dist_mesh.hpp"
#include "pmesh/parallel_solver.hpp"

namespace plum::core {

struct DistCycleReport : GateReport {
  Index elements_before = 0;
  Index elements_after = 0;
  int mark_comm_rounds = 0;
  std::int64_t elements_migrated = 0;
  /// Subdivision work per rank (children created) — balanced when the
  /// remap-before-subdivision path accepted.
  std::vector<Index> refine_work_per_rank;
};

// --- error thresholds of the coarsen and mark phases -------------------------
// Both phases agree on their threshold through one host quantile over the
// error of every global active edge, counted once, then mark the local
// copies against it.

/// The error values of all active edges, each once: rank r contributes the
/// active local edges it owns (lowest SPL rank) in local edge order, and
/// the host (rank 0) receives them through rt::gather, concatenated in rank
/// order.
std::vector<double> gather_owned_edge_errors(
    const pmesh::DistMesh& dm, rt::Engine& eng,
    const std::vector<std::vector<double>>& err_per_rank);

enum class MarkSide { kAbove, kBelow };

/// The threshold that puts the top (kAbove: refinement) or bottom (kBelow:
/// coarsening) `fraction` of the sample past it: element floor(fraction *
/// n) of the sample sorted high to low, or low to high. None (nothing is
/// marked) when that index is 0.
std::optional<double> edge_threshold(std::vector<double> sample,
                                     double fraction, MarkSide side);

/// Per-rank marks on the active local edges whose error is strictly above
/// (refinement) or below (coarsening) `threshold`. Shared copies mark
/// consistently because the error field is replicated.
std::vector<std::vector<char>> threshold_marks(
    const pmesh::DistMesh& dm,
    const std::vector<std::vector<double>>& err_per_rank, double threshold,
    MarkSide side);

class DistFramework {
 public:
  DistFramework(mesh::TetMesh initial_global, FrameworkOptions opt);
  ~DistFramework();
  // Move-only, like the engine it owns. NB the engine's observer/sink and
  // the postmortem hook hold addresses into this object, so a framework
  // may only be moved before use (the factory-return pattern; in practice
  // NRVO elides even that).
  DistFramework(DistFramework&&) = default;
  DistFramework& operator=(DistFramework&&) = delete;

  DistCycleReport cycle();

  [[nodiscard]] pmesh::DistMesh& dist_mesh() { return *dm_; }
  [[nodiscard]] rt::Engine& engine() { return *eng_; }
  [[nodiscard]] pmesh::ParallelEulerSolver& solver() { return *solver_; }
  [[nodiscard]] const partition::PartVec& root_partition() const {
    return balancer_.root_part();
  }
  /// Per-rank active element counts (the solver load balance achieved).
  [[nodiscard]] std::vector<Index> elements_per_rank() const {
    return dm_->active_elements_per_rank();
  }

  /// plum-trace recorder. Attached to the engine as a SuperstepObserver at
  /// construction, so it holds one SuperstepRecord per engine superstep
  /// (one RankStep per rank) in addition to the Fig. 1 phase
  /// scopes opened by cycle().
  [[nodiscard]] obs::TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const obs::TraceRecorder& trace() const { return trace_; }

  /// Live paper-metric gauges, one sample per cycle per series ("imbalance",
  /// "edge_cut", remap_* volume breakdown) — same names as core::Framework
  /// and the bench reports — plus the per-cycle fixed-bound histograms
  /// "rank_step_seconds" (wall-clock; omitted from the registry's
  /// deterministic view), "rank_wait_fraction" (counter-sourced,
  /// deterministic), and "phase_wall_seconds" (see obs/critical_path.hpp).
  /// Host-side only; see obs/metrics.hpp.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// plum-scope flight recorder: a fixed-capacity per-rank event ring the
  /// engine feeds as a rt::RankScopeSink (one event per rank per
  /// superstep, overwrite-oldest). Always on; a failed PLUM_ASSERT flushes
  /// its last-N events per rank to POSTMORTEM_<scope_name>.json before
  /// aborting.
  [[nodiscard]] obs::FlightRecorder& scope() { return scope_; }
  [[nodiscard]] const obs::FlightRecorder& scope() const { return scope_; }

  /// plum-mem tracker: per-rank/per-phase allocation counters and the
  /// per-row scratch arenas the hot phases allocate through (HEM match and
  /// KL-FM refine on the host row; mark/migrate/refine staging on the rank
  /// rows, written by the claiming worker). The plum-heap/1 section of
  /// trace().to_json() is byte-identical across engines and thread counts.
  [[nodiscard]] obs::MemoryTracker& memory() { return mem_; }
  [[nodiscard]] const obs::MemoryTracker& memory() const { return mem_; }

  /// The online calibrator (sim/calibration.hpp); see core::Framework.
  [[nodiscard]] const sim::Calibration& calibration() const {
    return balancer_.calibration();
  }

  /// Timing book recorded by this run (one entry per cycle, with the
  /// per-rank solve decomposition); feed it back through
  /// FrameworkOptions::replay_path for deterministic replay.
  [[nodiscard]] const sim::ReplayBook& replay_log() const {
    return balancer_.replay_log();
  }

 private:
  /// Moves the solver's per-rank states into `states_` (the solver is
  /// stale until the next rebind_solver()).
  void save_states();
  /// Rebinds the parallel solver to the current distribution, moving the
  /// per-rank states saved in `states_` (if any) into it.
  void rebind_solver();

  FrameworkOptions opt_;
  // Declared before eng_: the engine holds raw observer/sink pointers to
  // the recorders, so both must be destroyed after the engine.
  obs::TraceRecorder trace_;
  obs::FlightRecorder scope_;
  obs::MemoryTracker mem_;  ///< rank rows written inside supersteps
  /// Host side: dual of the initial global mesh, global initial element ->
  /// rank, calibration.
  Balancer balancer_;
  std::unique_ptr<rt::Engine> eng_;
  std::unique_ptr<obs::ScopeStreamWriter> stream_;  ///< opt_.scope_stream
  std::unique_ptr<pmesh::DistMesh> dm_;
  std::unique_ptr<pmesh::ParallelEulerSolver> solver_;
  std::vector<std::vector<solver::State>> states_;
  obs::MetricsRegistry metrics_;
  /// First trace_ superstep of the running cycle: where its histograms
  /// and stream record start (the first cycle's window also holds the
  /// constructor's supersteps).
  std::size_t cycle_first_step_ = 0;
};

}  // namespace plum::core
