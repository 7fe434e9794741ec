#pragma once
// Options shared by core::Framework, core::DistFramework and the balance
// policy they both run (core/balance.hpp).

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/memory.hpp"
#include "runtime/engine.hpp"
#include "sim/calibration.hpp"
#include "sim/machine.hpp"
#include "util/types.hpp"

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
  static constexpr int scope_ring_capacity = 256;
  /// Non-empty: append one plum-scope/1 NDJSON record per cycle to this
  /// file (per-rank busy/wait, gate verdict, imbalance, coordinator RSS).
  /// `plum top` (tools/plum) tails it for a live view. DistFramework only.
  std::string scope_stream;
  /// Chunk size of the per-row plum-mem scratch arenas (obs::MemoryTracker).
  /// Phase scratch buffers (HEM matching, KL-FM refine, remap staging,
  /// subdivision snapshots) bump-allocate from these.
  static constexpr std::size_t arena_chunk_bytes =
      obs::Arena::kDefaultChunkBytes;
};

}  // namespace plum::core
