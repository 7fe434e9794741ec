#pragma once
// The PLUM framework driver — the paper's Fig. 1 loop.
//
//   flow solver -> edge marking (error indicator) -> balance evaluation ->
//   [repartition -> processor reassignment -> gain/cost gate -> remap] ->
//   subdivision -> resume solver.
//
// The two-phase refinement split is what makes the "remap before
// subdivision" optimization possible: after mark(), the post-refinement
// dual-graph weights are exactly known, so the repartitioner balances the
// *future* mesh while the remapper moves only the *current* (smaller) one.

#include <cstdint>
#include <memory>
#include <string>

#include "adapt/adaptor.hpp"
#include "mesh/tet_mesh.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/multilevel.hpp"
#include "remap/mapping.hpp"
#include "remap/volume.hpp"
#include "runtime/engine.hpp"
#include "sim/calibration.hpp"
#include "sim/machine.hpp"
#include "solver/euler.hpp"

namespace plum::core {

enum class MapperKind { kHeuristicGreedy, kOptimalMwbg, kOptimalBmcm };

struct FrameworkOptions {
  Rank nranks = 8;
  Rank partitions_per_proc = 1;  ///< the paper's F
  /// Repartition when predicted post-refinement imbalance exceeds this.
  double imbalance_trigger = 1.15;
  MapperKind mapper = MapperKind::kHeuristicGreedy;
  sim::CostMetric metric = sim::CostMetric::kTotalV;
  /// Remap on the pre-subdivision mesh (paper §4.6) vs after refinement.
  bool remap_before_subdivision = true;
  /// Fraction of active edges marked for refinement per adaption.
  double refine_fraction = 0.05;
  /// Fraction of active edges (lowest error) targeted for coarsening before
  /// each refinement (0 disables the coarsening phase of Fig. 1).
  double coarsen_fraction = 0.0;
  int solver_steps_per_cycle = 20;
  sim::MachineParams machine;
  std::uint64_t seed = 12345;
  /// Worker threads for the BSP engine (DistFramework only): 1 = the
  /// sequential reference engine, 0 = one worker per hardware core, N > 1 =
  /// a ParallelEngine with N workers. Results are bit-identical across all
  /// settings (see runtime/engine.hpp's determinism contract).
  int threads = 1;
  /// Compatibility shim read only by perfbench/plum_bench.cpp (see
  /// rt::make_engine's 4-argument overload); nothing else reads these, and
  /// they go with the next change to the benchmark.
  rt::TransportKind transport = rt::TransportKind::kInProc;
  int transport_procs = 0;
  /// Online cost-model calibration (sim/calibration.hpp). Disabled by
  /// default: a live calibration consumes wall-clock phase timings, which
  /// are real but nondeterministic; deterministic runs use replay_path.
  sim::CalibrationOptions calibration;
  /// Path to a plum-replay/1 timing book. Non-empty switches the cycle
  /// loop to deterministic replay: calibration reads the book's seconds
  /// instead of the wall clock (and implies calibration.enabled), so every
  /// calibrated constant — and everything it prices — is byte-identical
  /// across engines and thread counts.
  std::string replay_path;
  /// Run name stamped on plum-scope/1 stream records and used for the
  /// crash postmortem file (POSTMORTEM_<scope_name>.json).
  std::string scope_name = "plum";
  /// Per-rank capacity of the always-on flight-recorder ring
  /// (obs::FlightRecorder; DistFramework only). Oldest events are
  /// overwritten, so this bounds both memory and postmortem size.
  int scope_ring_capacity = 256;
  /// Non-empty: append one plum-scope/1 NDJSON record per cycle to this
  /// file (per-rank busy/wait, gate verdict, imbalance, coordinator RSS).
  /// tools/plum-top tails it for a live view. DistFramework only.
  std::string scope_stream;
  /// Chunk size of the per-row plum-mem scratch arenas (obs::MemoryTracker).
  /// Phase scratch buffers (HEM matching, KL-FM refine, remap staging,
  /// subdivision snapshots) bump-allocate from these; smaller chunks stress
  /// the overflow path, larger ones amortize chunk requests.
  std::size_t arena_chunk_bytes = obs::Arena::kDefaultChunkBytes;
};

/// Everything one solve->adapt->balance cycle measured or decided.
struct CycleReport {
  Index elements_before = 0;
  Index elements_after = 0;
  Index elements_coarsened = 0;  ///< removed by the coarsening phase
  int mark_propagation_rounds = 0;

  bool evaluated_repartition = false;  ///< trigger fired
  bool accepted = false;               ///< remap executed
  bool used_previous_partition = false;

  double imbalance_old = 0;  ///< predicted wcomp imbalance, old partitions
  double imbalance_new = 0;  ///< after repartitioning + reassignment
  Weight wmax_old = 0;
  Weight wmax_new = 0;

  double gain_seconds = 0;
  double cost_seconds = 0;
  double mapper_seconds = 0;
  remap::RemapVolume volume;

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
    return root_part_;
  }
  [[nodiscard]] const graph::Csr& dual() const { return dual_; }
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
  [[nodiscard]] const sim::Calibration& calibration() const { return calib_; }

  /// Timing book recorded by this run, one entry per completed cycle. Save
  /// it (sim::ReplayBook::save) and feed it back through
  /// FrameworkOptions::replay_path to replay this run's calibration
  /// deterministically.
  [[nodiscard]] const sim::ReplayBook& replay_log() const {
    return replay_log_;
  }

 private:
  FrameworkOptions opt_;
  // unique_ptr: the solver and adaptor hold stable pointers to the mesh.
  std::unique_ptr<mesh::TetMesh> mesh_;
  std::unique_ptr<solver::EulerSolver> solver_;
  std::unique_ptr<adapt::MeshAdaptor> adaptor_;
  graph::Csr dual_;
  partition::PartVec root_part_;  ///< initial element -> processor
  obs::TraceRecorder trace_;
  obs::MetricsRegistry metrics_;
  obs::MemoryTracker mem_;
  sim::Calibration calib_;
  sim::ReplayBook replay_book_;  ///< loaded from opt_.replay_path
  bool replay_ = false;
  sim::ReplayBook replay_log_;   ///< measured book recorded this run
  int cycle_index_ = 0;  ///< cycles completed; keys the gate-audit records
  /// First trace_ phase not yet sampled into the phase-seconds histogram.
  std::size_t hist_phase_cursor_ = 0;
};

}  // namespace plum::core
