#pragma once
// Distributed-memory Euler solver over a DistMesh — the parallel flow
// solver of the framework (paper §2 runs it on the same partitions the
// load balancer maintains; its per-processor cost is what Wcomp models).
//
// Scheme identical to solver::EulerSolver, parallelized the standard way
// for vertex-centered edge-based codes:
//   setup:  every copy of a shared edge/vertex assembles the *global*
//           metric quantities (dual-face areas, cell volumes, boundary
//           closure, CFL lengths) by exchanging partial sums over the SPLs;
//   step:   each edge's flux is computed by its owner rank only; partial
//           residuals of shared vertices are summed across copies (one
//           exchange per residual evaluation, two per RK2 step); the time
//           update then runs redundantly on every copy, which keeps shared
//           vertex states bit-replicated without a broadcast.
//
// Every per-rank kernel runs inside an engine superstep on the worker that
// owns the rank: metric build, state init and ownership flags in step 0 of
// the setup exchange; the CFL scan in step 0 of the dt allreduce; the
// owned-edge fluxes in step 0 and the accumulate + boundary closure + RK
// stage update in step 1 of each residual exchange. Host code only
// sequences the programs, so a ParallelEngine shares the whole step.
//
// The result matches the serial solver on the gathered mesh up to
// floating-point summation order.

#include "pmesh/dist_mesh.hpp"
#include "solver/dual_metrics.hpp"
#include "solver/euler.hpp"

namespace plum::pmesh {

class ParallelEulerSolver {
 public:
  ParallelEulerSolver(DistMesh* dm, rt::Engine* eng,
                      solver::EulerOptions opt = {});

  /// One RK2 step at the global CFL dt; returns dt and per-rank flux work.
  struct StepInfo {
    double dt = 0;
    std::vector<std::int64_t> edge_flux_evals;  ///< per rank
  };
  StepInfo step();

  void run(int nsteps);

  /// Per-rank conserved states (indexed by local vertex id).
  [[nodiscard]] const std::vector<solver::State>& solution(Rank r) const {
    return u_[static_cast<std::size_t>(r)];
  }
  std::vector<solver::State>& solution(Rank r) {
    return u_[static_cast<std::size_t>(r)];
  }

  /// Global totals (mass/momentum/energy), each dual cell counted once.
  [[nodiscard]] solver::State totals() const;

  /// Per-rank density field (for the local error indicator).
  [[nodiscard]] std::vector<double> density_field(Rank r) const;

  /// Checks that every shared vertex holds identical states on all copies.
  void validate_replication() const;

 private:
  /// Builds every rank's local metrics, initial state and ownership flags,
  /// then globalizes the shared metric quantities across copies.
  void exchange_setup();
  /// One residual evaluation plus its RK2 stage update, as one two-superstep
  /// program: the first stage sets u1 = u + dt/2 R(u), the second
  /// u += dt R(u1). Adds each rank's owned-edge flux count to `flux_evals`.
  void rk_stage(bool first, double dt, std::vector<std::int64_t>& flux_evals);

  /// Rank r's owned-edge fluxes of state `u` into `res` (zeroed first);
  /// returns the number of fluxes evaluated.
  std::int64_t edge_fluxes(Rank r, const std::vector<solver::State>& u,
                           std::vector<solver::State>& res) const;
  /// Rank r's largest stable time step for its active vertices.
  [[nodiscard]] double local_dt(Rank r) const;

  DistMesh* dm_;
  rt::Engine* eng_;
  solver::EulerOptions opt_;

  // Per-rank solver state.
  std::vector<solver::DualMetrics> metrics_;   ///< globalized quantities
  std::vector<std::vector<Index>> active_;     ///< nonzero-volume vertices
  std::vector<std::vector<char>> edge_owned_;  ///< flux responsibility
  std::vector<std::vector<char>> vert_owned_;  ///< for global reductions
  std::vector<std::vector<solver::State>> u_;
  // RK2 work buffers, reused across steps.
  std::vector<std::vector<solver::State>> u1_;   ///< first-stage state
  std::vector<std::vector<solver::State>> res_;  ///< residual

  [[nodiscard]] double pressure(const solver::State& s) const;
  [[nodiscard]] double max_wave_speed(const solver::State& s) const;
};

}  // namespace plum::pmesh
