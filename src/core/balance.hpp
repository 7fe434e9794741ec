#pragma once
// The Fig. 1 balance policy, shared by core::Framework and
// core::DistFramework. After marking, the post-refinement weights are
// known; the gate then decides (paper §4.2-4.6):
//
//   imbalance of the predicted weights > trigger?
//     -> repartition the initial-mesh dual (warm start when F = 1)
//     -> similarity matrix S -> processor reassignment (the mapper)
//     -> computational gain vs redistribution cost
//     -> accepted: remap (the driver's callback) and install the new owners
//
// and the calibration loop closes each cycle: the CalibrationSample (wall
// clock or replay book), the calib_* gauges and the replay-log entry
// (sim/calibration.hpp). Everything here runs host-side between
// supersteps; the drivers keep only the solve, mark, subdivision and the
// data movement of the remap itself.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/options.hpp"
#include "graph/csr.hpp"
#include "obs/gate_audit.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/multilevel.hpp"
#include "remap/volume.hpp"
#include "sim/calibration.hpp"

namespace plum::core {

/// What the balance gate measured and decided in one cycle; the shared
/// head of CycleReport and DistCycleReport.
struct GateReport {
  bool evaluated_repartition = false;  ///< trigger fired
  bool accepted = false;               ///< remap executed
  bool used_previous_partition = false;  ///< repartition kept the warm start

  double imbalance_old = 0;  ///< predicted wcomp imbalance, old partitions
  double imbalance_new = 0;  ///< after repartitioning + reassignment
  Weight wmax_old = 0;
  Weight wmax_new = 0;

  double gain_seconds = 0;
  double cost_seconds = 0;
  double mapper_seconds = 0;  ///< wall seconds of the reassignment solve
  remap::RemapVolume volume;
};

/// Per-root weights of one cycle, indexed by initial element (dual vertex).
struct RootLoads {
  std::vector<Weight> wcomp;       ///< predicted Wcomp (leaves after refine)
  std::vector<Weight> wremap;      ///< predicted Wremap (tree after refine)
  std::vector<Weight> wremap_cur;  ///< current Wremap (tree before refine)
};

/// Moves the data to the new root -> processor map; runs inside the
/// "remap" phase, before the balancer installs the map. Returns the bytes
/// the move really sent (the gate audit's measured_move_bytes).
using RemapFn = std::function<std::int64_t(const partition::PartVec& owner)>;

/// What a driver measured in one cycle, for the calibration loop.
struct CycleTelemetry {
  std::size_t solve_phase = 0;      ///< trace phase index of the solve
  std::size_t subdivide_phase = 0;  ///< trace phase index of subdivision
  std::int64_t solve_work = 0;       ///< solver steps x bottleneck elements
  std::int64_t refine_children = 0;  ///< bottleneck children created
  /// Per-rank solve elements and measured solve seconds (DistFramework;
  /// empty for the single-address-space driver).
  std::vector<Index> rank_elements;
  std::vector<double> rank_solve_seconds;
};

/// Per-processor sums of `weights` under the root -> processor map `owner`.
[[nodiscard]] std::vector<Weight> proc_loads(const partition::PartVec& owner,
                                             const std::vector<Weight>& weights,
                                             Rank nprocs);

class Balancer {
 public:
  /// Loads opt.replay_path (replay implies calibration) and maps the
  /// weighted initial dual onto opt.nranks processors, one partition each.
  /// Partitioner scratch comes from mem's host row.
  Balancer(graph::Csr dual, const FrameworkOptions& opt,
           obs::MemoryTracker& mem);

  /// Dual of the initial mesh, weighted with the last gate's prediction.
  [[nodiscard]] const graph::Csr& dual() const { return dual_; }
  /// Current processor of each initial element.
  [[nodiscard]] const partition::PartVec& root_part() const {
    return root_part_;
  }
  /// The online calibrator; holds the static machine constants while
  /// calibration is disabled.
  [[nodiscard]] const sim::Calibration& calibration() const { return calib_; }
  /// Timing book recorded so far, one entry per closed cycle.
  [[nodiscard]] const sim::ReplayBook& replay_log() const {
    return replay_log_;
  }
  /// Index of the cycle in progress (cycles closed so far).
  [[nodiscard]] int cycle_index() const { return cycle_; }

  /// The gate: blends and installs `w` on the dual, checks the trigger and,
  /// inside "gate" -> "repartition" / "reassign" / "remap" phase scopes,
  /// repartitions, reassigns, prices and accepts or rejects the remap.
  /// Fills `rep`, appends the obs::GateRecord to `trace`, and samples the
  /// per-cycle gauges ("imbalance", "edge_cut", remap_*) into `metrics`.
  /// Returns the final ownership's imbalance (the "imbalance" sample).
  double gate(RootLoads w, const RemapFn& remap, GateReport& rep,
              obs::TraceRecorder& trace, obs::MetricsRegistry& metrics,
              obs::MemoryTracker& mem);

  /// Closes the cycle: feeds the calibrator (seconds from the replay book
  /// under replay, else from the trace's phase walls), publishes its
  /// document and, under replay, the calib_* gauges, and appends the
  /// measured seconds to the replay log.
  void close_cycle(const CycleTelemetry& t, obs::TraceRecorder& trace,
                   obs::MetricsRegistry& metrics);

 private:
  FrameworkOptions opt_;
  graph::Csr dual_;
  partition::PartVec root_part_;
  sim::Calibration calib_;
  sim::ReplayBook replay_book_;  ///< loaded from opt_.replay_path
  bool replay_ = false;
  sim::ReplayBook replay_log_;   ///< measured book recorded this run
  int cycle_ = 0;                ///< keys the gate-audit records
  obs::GateRecord gate_;         ///< this cycle's gate record
  std::optional<std::size_t> remap_phase_;  ///< this cycle's remap scope
};

}  // namespace plum::core
