#pragma once
// plum-path: critical-path and straggler attribution over a recorded trace.
//
// The engine's barrier is where load imbalance turns into lost time: every
// superstep finishes when its slowest ("critical") rank finishes, and every
// other rank idles for the difference. analyze_critical_path() folds a
// window of a TraceRecorder's per-superstep records into that
// decomposition:
//
//   per superstep : critical rank, per-rank busy vs. wait
//                   (wait = critical rank's value minus own),
//                   imbalance factor (critical / mean)
//   per rank      : total busy, total wait, #steps it was critical
//   per phase     : straggler attribution — which Fig. 1 phase accumulated
//                   the wait, and which rank was most often its straggler
//
// It is the one place that picks a superstep's critical rank: the trace's
// "critical_path" sections, the per-cycle histograms below, the Chrome
// trace's wait slices, the plum-scope/1 stream record's busy/wait and the
// per-rank solve seconds fed to the calibrator all read its output.
//
// Two sources feed the same decomposition:
//   PathSource::kWallClock — RankStep::seconds, the measured per-rank
//     step-function wall time. Honest but machine- and
//     scheduling-dependent; serialized only by TraceRecorder::to_json().
//   PathSource::kCounters  — RankStep::compute_units, the deterministic
//     work proxy every rank charges via Outbox::charge(). Byte-identical
//     across Engine/ParallelEngine and thread counts, so it is folded into
//     TraceRecorder::deterministic_json() and sits inside the cross-engine
//     byte-identity contract (asserted in test_parallel_engine.cpp).
//
// record_step_histograms()/record_phase_histograms() sample the same
// decomposition into MetricsRegistry fixed-bound histograms once per
// DistFramework cycle (per-rank step seconds are wall-clock and stay out
// of the registry's deterministic view; wait fractions come from the
// counter source and stay inside it).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace plum::obs {

/// Which per-rank quantity drives the decomposition. Values are wall
/// seconds under kWallClock and compute units under kCounters.
enum class PathSource { kCounters, kWallClock };

[[nodiscard]] const char* path_source_name(PathSource s);

/// One superstep's slice of the critical path.
struct StepPath {
  int step = 0;
  std::string phase;       ///< innermost open phase ("" outside any phase)
  Rank critical_rank = 0;  ///< argmax of the per-rank value; ties -> lowest
  double critical = 0;     ///< the critical rank's value
  double busy = 0;         ///< sum of per-rank values
  double wait = 0;         ///< sum over ranks of (critical - own)
  double imbalance = 0;    ///< critical / mean (1.0 when busy == 0)
};

/// One rank's totals across every superstep.
struct RankPath {
  double busy = 0;
  double wait = 0;
  int steps_critical = 0;  ///< supersteps where this rank was critical

  /// wait / (busy + wait); 0 when the rank never ran.
  [[nodiscard]] double wait_fraction() const;
};

/// Straggler attribution for one phase name (supersteps grouped by the
/// innermost phase that was open when they ran).
struct PhasePath {
  std::string name;
  int supersteps = 0;
  double critical = 0;  ///< sum of per-step critical values (the path length)
  double busy = 0;
  double wait = 0;
  Rank worst_rank = kNoRank;  ///< most often critical; ties -> lowest rank
  int worst_rank_steps = 0;   ///< supersteps worst_rank was critical in

  [[nodiscard]] double wait_fraction() const;
};

struct CriticalPathAnalysis {
  PathSource source = PathSource::kCounters;
  std::vector<StepPath> steps;    ///< one per superstep, step order
  std::vector<RankPath> ranks;    ///< rank order
  std::vector<PhasePath> phases;  ///< sorted by phase name
  double critical_total = 0;  ///< sum of per-step critical values
  double busy_total = 0;
  double wait_total = 0;

  [[nodiscard]] double wait_fraction() const;

  /// {"source":..., totals, "ranks":[...], "phases":[...], "steps":[...]}.
  /// Under kCounters the field names carry no wall-clock vocabulary, so the
  /// document can be embedded in deterministic serializations.
  [[nodiscard]] Json to_json() const;
};

/// Folds the supersteps [first, last) of `rec`, clamped to the recorded
/// ones; the defaults fold the whole trace. The result equals the analysis
/// of a recorder that holds only those supersteps.
[[nodiscard]] CriticalPathAnalysis analyze_critical_path(
    const TraceRecorder& rec, PathSource source, std::size_t first = 0,
    std::size_t last = SIZE_MAX);

// --- per-cycle histogram recording -----------------------------------------

/// Histogram names recorded by the frameworks (see obs/metrics.hpp for the
/// fixed-bound histogram semantics).
inline constexpr const char* kRankStepSecondsHist = "rank_step_seconds";
inline constexpr const char* kRankWaitFractionHist = "rank_wait_fraction";
inline constexpr const char* kPhaseSecondsHist = "phase_wall_seconds";

/// Samples every superstep at index >= `first` into two histograms:
/// per-rank step wall seconds (kRankStepSecondsHist, wall-clock — excluded
/// from MetricsRegistry::deterministic_json()) and per-rank wait fractions
/// (critical - own) / critical from the counter decomposition
/// (kRankWaitFractionHist, deterministic). Call once per cycle from the
/// coordinating thread, never from inside a superstep lambda.
void record_step_histograms(MetricsRegistry& m, const TraceRecorder& rec,
                            std::size_t first);

/// Samples the wall seconds of every *closed* phase at index >= *cursor
/// into kPhaseSecondsHist (wall-clock) and advances *cursor past the
/// leading run of closed phases. A still-open phase stops the scan; it is
/// picked up on the next call, after it closes.
void record_phase_histograms(MetricsRegistry& m, const TraceRecorder& rec,
                             std::size_t* cursor);

}  // namespace plum::obs
