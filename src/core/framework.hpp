#pragma once
// The PLUM framework driver — the paper's Fig. 1 loop.
//
//   flow solver -> edge marking (error indicator) -> balance evaluation ->
//   [repartition -> processor reassignment -> gain/cost gate -> remap] ->
//   subdivision -> resume solver.
//
// The bracketed balance policy and the calibration loop live in
// core/balance (shared with core::DistFramework); this driver keeps the
// serial solve, mark and subdivision, and remaps by swapping ownership in
// its single address space.
//
// The two-phase refinement split is what makes the "remap before
// subdivision" optimization possible: after mark(), the post-refinement
// dual-graph weights are exactly known, so the repartitioner balances the
// *future* mesh while the remapper moves only the *current* (smaller) one.

#include <cstdint>
#include <memory>

#include "adapt/adaptor.hpp"
#include "core/balance.hpp"
#include "core/options.hpp"
#include "mesh/tet_mesh.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/euler.hpp"

namespace plum::core {

/// Everything one solve->adapt->balance cycle measured or decided.
struct CycleReport : GateReport {
  Index elements_before = 0;
  Index elements_after = 0;
  Index elements_coarsened = 0;  ///< removed by the coarsening phase
  int mark_propagation_rounds = 0;
  std::int64_t solver_work = 0;  ///< edge flux evaluations this cycle
};

class Framework {
 public:
  Framework(mesh::TetMesh mesh, FrameworkOptions opt);

  /// One full Fig. 1 cycle.
  CycleReport cycle();

  /// Runs n cycles; returns the reports.
  std::vector<CycleReport> run(int cycles);

  [[nodiscard]] const mesh::TetMesh& mesh() const { return *mesh_; }
  [[nodiscard]] mesh::TetMesh& mesh() { return *mesh_; }
  [[nodiscard]] solver::EulerSolver& solver() { return *solver_; }
  /// Current processor of each initial-mesh element (dual-graph vertex).
  [[nodiscard]] const partition::PartVec& root_partition() const {
    return balancer_.root_part();
  }
  [[nodiscard]] const graph::Csr& dual() const { return balancer_.dual(); }
  [[nodiscard]] const FrameworkOptions& options() const { return opt_; }

  /// Per-processor solver load (current wcomp) under the current partition.
  [[nodiscard]] std::vector<Weight> processor_loads() const;

  /// plum-trace recorder: every cycle() wraps the Fig. 1 phases in named
  /// scopes (solve, coarsen, mark, gate/repartition/reassign/remap,
  /// subdivide) with wall seconds and sim::CostModel modeled seconds.
  [[nodiscard]] obs::TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const obs::TraceRecorder& trace() const { return trace_; }

  /// Live paper-metric gauges: every cycle() appends one sample per series
  /// — "imbalance" (load-imbalance factor under the predicted weights),
  /// "edge_cut", and the remap::volume_fields() breakdown
  /// (remap_total_elems ... remap_max_sent_or_recv, zero on cycles whose
  /// gate never fired) — plus one fixed-bound histogram sample per closed
  /// phase ("phase_wall_seconds", see obs/critical_path.hpp). Recorded
  /// host-side between supersteps; never write to this from inside a
  /// superstep lambda (see obs/metrics.hpp).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// plum-mem tracker: per-phase allocation counters plus the per-row
  /// scratch arenas the hot phases (HEM match, KL-FM refine, remap staging,
  /// subdivision snapshots) allocate from. Its plum-heap/1 profile joins
  /// trace().to_json(); the deterministic view is byte-identical across
  /// engines and thread counts.
  [[nodiscard]] obs::MemoryTracker& memory() { return mem_; }
  [[nodiscard]] const obs::MemoryTracker& memory() const { return mem_; }

  /// The online calibrator (sim/calibration.hpp). Holds the static machine
  /// constants while calibration is disabled; under replay it is the
  /// deterministic control loop the gate prices with.
  [[nodiscard]] const sim::Calibration& calibration() const {
    return balancer_.calibration();
  }

  /// Timing book recorded by this run, one entry per completed cycle. Save
  /// it (sim::ReplayBook::save) and feed it back through
  /// FrameworkOptions::replay_path to replay this run's calibration
  /// deterministically.
  [[nodiscard]] const sim::ReplayBook& replay_log() const {
    return balancer_.replay_log();
  }

 private:
  FrameworkOptions opt_;
  // unique_ptr: the solver and adaptor hold stable pointers to the mesh.
  std::unique_ptr<mesh::TetMesh> mesh_;
  std::unique_ptr<solver::EulerSolver> solver_;
  std::unique_ptr<adapt::MeshAdaptor> adaptor_;
  obs::TraceRecorder trace_;
  obs::MetricsRegistry metrics_;
  obs::MemoryTracker mem_;
  Balancer balancer_;  ///< dual, initial element -> processor, calibration
  /// First trace_ phase not yet sampled into the phase-seconds histogram.
  std::size_t hist_phase_cursor_ = 0;
};

}  // namespace plum::core
