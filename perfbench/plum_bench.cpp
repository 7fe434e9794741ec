// plum_bench: one repetition of one benchmark workload per process.
//
//   plum_bench list                     name, cycles and reason per workload
//   plum_bench host                     host fingerprint (JSON)
//   plum_bench run   <workload> <seed>  untraced product run
//   plum_bench trace <workload> <seed>  traced replica of
//                                       DistFramework::cycle(), checked cycle
//                                       by cycle against the "run" output of
//                                       the same seed, read from stdin
//
// "run" times the product's own core::DistFramework and is the source of
// every end-to-end metric. "trace" drives the same Fig. 1 cycle through the
// layers' public functions, one span per call, and is the source of the
// per-layer metrics. Both print progress lines ("cycle_ok <k>") and then one
// JSON object on stdout; perfbench/run.py spawns one process per repetition
// so a failed PLUM_ASSERT costs that repetition's cycles, not the run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/error_indicator.hpp"
#include "core/dist_framework.hpp"
#include "mesh/box_mesh.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "partition/multilevel.hpp"
#include "partition/quality.hpp"
#include "pmesh/migrate.hpp"
#include "pmesh/parallel_adapt.hpp"
#include "pmesh/parallel_solver.hpp"
#include "remap/mapping.hpp"
#include "remap/similarity.hpp"
#include "remap/volume.hpp"
#include "runtime/collectives.hpp"
#include "runtime/engine.hpp"
#include "sim/machine.hpp"
#include "solver/init_conditions.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace plum;
using obs::Json;

// ---------------------------------------------------------------------------
// Workloads. All start from the paper-scale 60,984-tet box with a blast whose
// centre the seed places; all gate with imbalance_trigger = 1.05. The `why`
// strings are the reason each workload exists (also in BENCHMARK.json).
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  Rank nranks;
  int threads;  ///< 0 = min(nproc, 4)
  double refine_fraction;
  int solver_steps;
  int cycles;
  const char* why;
};

constexpr double kImbalanceTrigger = 1.05;

constexpr Workload kWorkloads[] = {
    {"uniform_p16", 16, 1, 1.0, 6, 1,
     "uniform 1:8 refinement never trips the balancer, so partition, remap "
     "and migrate do no work (the bypass side); subdivision and solver "
     "rebinding dominate"},
    {"shock_p64", 64, 1, 0.05, 6, 2,
     "localized (Real_1) marking accepts a remap every cycle at P=64: the "
     "most supersteps and messages and the largest mapper problem (the "
     "exercise side for migrate, partition, remap, runtime)"},
    {"solve_p16_t4", 16, 0, 0.05, 40, 2,
     "40 solver steps make the solve the largest phase, on the only "
     "workload with a ParallelEngine, so barrier wait, pool overhead and "
     "the balance achieved show up as solve time"},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int resolved_threads(const Workload& w) {
  if (w.threads > 0) return w.threads;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

core::FrameworkOptions options_for(const Workload& w, std::uint64_t seed) {
  core::FrameworkOptions opt;
  opt.nranks = w.nranks;
  opt.threads = resolved_threads(w);
  opt.refine_fraction = w.refine_fraction;
  opt.solver_steps_per_cycle = w.solver_steps;
  opt.imbalance_trigger = kImbalanceTrigger;
  opt.seed = seed;
  opt.scope_name = "perfbench";
  return opt;
}

/// The seed moves the blast centre by up to 0.02 (under half a cell) per
/// axis around the box centre. Wider placement changes the refined volume by
/// up to a third and lets uniform_p16 trip the gate, so runs with different
/// seeds would no longer measure the same workload. The 0.3 radius makes the
/// disturbed region cover the box, so refine_fraction = 1.0 is uniform.
solver::BlastSpec blast_for(std::uint64_t seed) {
  Rng rng(seed);
  solver::BlastSpec b;
  const double x = 0.5 + 0.02 * (2 * rng.uniform() - 1);
  const double y = 0.5 + 0.02 * (2 * rng.uniform() - 1);
  const double z = 0.5 + 0.02 * (2 * rng.uniform() - 1);
  b.center = {x, y, z};
  b.radius = 0.3;
  return b;
}

Json host_json() {
  Json h = Json::object();
  h.set("nproc", Json::integer(static_cast<std::int64_t>(
                     std::thread::hardware_concurrency())))
      .set("compiler", Json::str(PLUM_BENCH_COMPILER))
      .set("build_type", Json::str(PLUM_BENCH_BUILD_TYPE));
  return h;
}

// ---------------------------------------------------------------------------
// Checks shared by both modes.
// ---------------------------------------------------------------------------

struct Traffic {
  int supersteps = 0;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
};

Traffic ledger_since(const rt::Ledger& ledger, int from_step) {
  Traffic t;
  for (int s = from_step; s < ledger.num_supersteps(); ++s) {
    ++t.supersteps;
    for (const auto& c : ledger.steps[static_cast<std::size_t>(s)]) {
      t.msgs += c.msgs_sent;
      t.bytes += c.bytes_sent;
    }
  }
  return t;
}

/// "" when every live vertex of every rank has finite positive density and
/// pressure, else the first offending vertex.
std::string check_solution(const pmesh::DistMesh& dm,
                           const pmesh::ParallelEulerSolver& euler) {
  const double gm1 = solver::EulerOptions{}.gamma - 1.0;
  for (Rank r = 0; r < dm.nranks(); ++r) {
    const auto& m = dm.local(r).mesh;
    const auto& u = euler.solution(r);
    if (u.size() < static_cast<std::size_t>(m.num_vertices())) {
      return "rank " + std::to_string(r) + ": solution shorter than mesh";
    }
    for (Index v = 0; v < m.num_vertices(); ++v) {
      if (!m.vertex(v).alive) continue;
      const auto& s = u[static_cast<std::size_t>(v)];
      const double rho = s[0];
      const double p =
          gm1 * (s[4] - 0.5 * (s[1] * s[1] + s[2] * s[2] + s[3] * s[3]) / rho);
      if (!(std::isfinite(rho) && std::isfinite(p) && rho > 0 && p > 0)) {
        return "rank " + std::to_string(r) + " vertex " + std::to_string(v) +
               ": rho=" + std::to_string(rho) + " p=" + std::to_string(p);
      }
    }
  }
  return "";
}

/// Validates the distributed mesh (aborts on a broken invariant, which the
/// parent counts as failed cycles) and the solution; exits on a bad state.
void check_cycle(int cycle, const pmesh::DistMesh& dm,
                 const pmesh::ParallelEulerSolver& euler) {
  dm.validate();
  const std::string err = check_solution(dm, euler);
  if (!err.empty()) {
    std::fprintf(stderr, "cycle %d: bad solution: %s\n", cycle, err.c_str());
    std::exit(3);
  }
}

void report_cycle_ok(int cycle) {
  std::printf("cycle_ok %d\n", cycle);
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Untraced product run.
// ---------------------------------------------------------------------------

/// The deterministic outcome of one cycle plus its wall time.
struct CycleRecord {
  Index elements_before = 0;
  Index elements_after = 0;
  bool evaluated = false;
  bool accepted = false;
  Weight totalv = 0;
  Weight maxv = 0;
  Traffic traffic;
  double wall_s = 0;
};

Json cycle_json(const CycleRecord& c) {
  Json j = Json::object();
  j.set("elements_before", Json::integer(c.elements_before))
      .set("elements_after", Json::integer(c.elements_after))
      .set("evaluated", Json::boolean(c.evaluated))
      .set("accepted", Json::boolean(c.accepted))
      .set("totalv", Json::integer(c.totalv))
      .set("maxv", Json::integer(c.maxv))
      .set("supersteps", Json::integer(c.traffic.supersteps))
      .set("msgs", Json::integer(c.traffic.msgs))
      .set("bytes", Json::integer(c.traffic.bytes))
      .set("wall_s", Json::number(c.wall_s));
  return j;
}

/// Times set-up and each DistFramework::cycle() call; checks every cycle.
Json run_mode(const Workload& w, std::uint64_t seed) {
  const core::FrameworkOptions opt = options_for(w, seed);
  const Timer setup_timer;
  core::DistFramework fw(mesh::make_box_mesh(mesh::paper_scale_box()), opt);
  const solver::BlastSpec blast = blast_for(seed);
  for (Rank r = 0; r < opt.nranks; ++r) {
    solver::init_blast(fw.dist_mesh().local(r).mesh, fw.solver().solution(r),
                       blast);
  }
  const double setup_s = setup_timer.seconds();

  double cycle_s = 0;
  std::int64_t bytes = 0;
  Weight totalv = 0, maxv = 0;
  Json cycles = Json::array();
  for (int c = 0; c < w.cycles; ++c) {
    const int step0 = fw.engine().ledger().num_supersteps();
    const Timer t;
    const core::DistCycleReport rep = fw.cycle();
    CycleRecord rec;
    rec.wall_s = t.seconds();
    rec.elements_before = rep.elements_before;
    rec.elements_after = rep.elements_after;
    rec.evaluated = rep.evaluated_repartition;
    rec.accepted = rep.accepted;
    rec.totalv = rep.volume.total_elems;
    rec.maxv = rep.volume.max_sent_or_recv;
    rec.traffic = ledger_since(fw.engine().ledger(), step0);
    check_cycle(c, fw.dist_mesh(), fw.solver());
    report_cycle_ok(c);
    cycle_s += rec.wall_s;
    bytes += rec.traffic.bytes;
    totalv += rec.totalv;
    maxv += rec.maxv;
    cycles.push(cycle_json(rec));
  }

  Json j = Json::object();
  j.set("mode", Json::str("run"))
      .set("threads", Json::integer(opt.threads))
      .set("setup_s", Json::number(setup_s))
      .set("cycle_s", Json::number(cycle_s))
      .set("peak_rss_mb",
           Json::number(static_cast<double>(util::read_rss().vm_hwm_bytes) /
                        1e6))
      .set("imbalance_final", Json::number(imbalance(fw.elements_per_rank())))
      .set("comm_mb", Json::number(static_cast<double>(bytes) / 1e6))
      .set("remap_totalv_elems", Json::integer(totalv))
      .set("remap_maxv_elems", Json::integer(maxv))
      .set("cycles", std::move(cycles));
  return j;
}

// ---------------------------------------------------------------------------
// Traced run: spans around every layer call, kept in memory.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    std::string name;
    int cycle = -1;  ///< parent cycle; -1 = set-up
    double t0 = 0;   ///< seconds since the log's epoch
    double t1 = 0;
  };

  void set_cycle(int cycle) { cycle_ = cycle; }
  [[nodiscard]] double now() const { return epoch_.seconds(); }
  /// Index of the span open right now, or -1.
  [[nodiscard]] int open_span() const { return open_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Runs f() inside a span named `name` and returns its result.
  template <typename F>
  auto time(const char* name, F&& f) {
    PLUM_ASSERT_MSG(open_ < 0, "spans do not nest");
    spans_.push_back(Span{name, cycle_, now(), 0});
    open_ = static_cast<int>(spans_.size() - 1);
    struct Close {
      SpanLog* log;
      ~Close() {
        log->spans_[static_cast<std::size_t>(log->open_)].t1 = log->now();
        log->open_ = -1;
      }
    } close{this};
    return f();
  }

 private:
  Timer epoch_;
  std::vector<Span> spans_;
  int cycle_ = -1;
  int open_ = -1;
};

/// One superstep as the benchmark's observer saw it, tagged with the span
/// that was open when the engine reached the barrier.
struct StepSample {
  int span = -1;
  double wall_s = 0;      ///< barrier-to-barrier
  double compute_s = 0;   ///< sum of the ranks' step-function seconds
  double critical_s = 0;  ///< slowest rank's step-function seconds
  double mean_s = 0;      ///< mean rank step-function seconds
  double observer_s = 0;  ///< time inside the forwarded TraceRecorder call
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
};

/// Forwards every superstep to the obs::TraceRecorder (as DistFramework
/// attaches one) and times that call.
class TimedObserver final : public rt::SuperstepObserver {
 public:
  TimedObserver(obs::TraceRecorder* inner, const SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  void on_superstep(int step, const std::vector<rt::StepCounters>& counters,
                    const std::vector<double>& rank_seconds,
                    double wall_seconds) override {
    StepSample s;
    s.span = spans_->open_span();
    s.wall_s = wall_seconds;
    for (double x : rank_seconds) {
      s.compute_s += x;
      s.critical_s = std::max(s.critical_s, x);
    }
    if (!rank_seconds.empty()) {
      s.mean_s = s.compute_s / static_cast<double>(rank_seconds.size());
    }
    for (const auto& c : counters) {
      s.msgs += c.msgs_sent;
      s.bytes += c.bytes_sent;
    }
    const Timer t;
    inner_->on_superstep(step, counters, rank_seconds, wall_seconds);
    s.observer_s = t.seconds();
    samples_.push_back(s);
  }

  [[nodiscard]] const std::vector<StepSample>& samples() const {
    return samples_;
  }

 private:
  obs::TraceRecorder* inner_;
  const SpanLog* spans_;
  std::vector<StepSample> samples_;
};

/// Per-rank error fields from the parallel solution (DistFramework's
/// rank_errors).
std::vector<std::vector<double>> rank_errors(
    const pmesh::DistMesh& dm, const pmesh::ParallelEulerSolver& euler) {
  std::vector<std::vector<double>> err(static_cast<std::size_t>(dm.nranks()));
  for (Rank r = 0; r < dm.nranks(); ++r) {
    err[static_cast<std::size_t>(r)] = adapt::edge_error(
        dm.local(r).mesh, euler.density_field(r), 1.0);
  }
  return err;
}

/// Active local edges with error above `threshold` (DistFramework's
/// threshold_marks).
std::vector<std::vector<char>> threshold_marks(
    const pmesh::DistMesh& dm,
    const std::vector<std::vector<double>>& err_per_rank, double threshold) {
  std::vector<std::vector<char>> seeds(static_cast<std::size_t>(dm.nranks()));
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

/// Per-root weights each rank ships to the host (same layout as
/// DistFramework's, so the gather moves the same bytes).
struct RootW {
  Index groot;
  Weight wcomp_pred;
  Weight wremap_pred;
  Weight wremap_cur;
};

/// Counters the traced cycle collects beyond its spans.
struct TracedCounts {
  std::int64_t mark_calls = 0;
  std::int64_t mark_comm_rounds = 0;
  std::int64_t repartition_levels = 0;
  std::int64_t edge_cut = 0;
  std::int64_t gate_evaluated = 0;
  std::int64_t gate_accepted = 0;
  std::int64_t migrate_bytes = 0;
  std::int64_t migrate_elements = 0;
  std::int64_t refine_children = 0;
  Weight totalv = 0;
  Weight maxv = 0;
  double model_solve_s = 0;
  double model_repartition_s = 0;
  double model_migrate_s = 0;
  double model_subdivide_s = 0;
};

struct SpanAgg {
  double busy_s = 0;
  std::int64_t calls = 0;
  std::int64_t supersteps = 0;
  double step_wall_s = 0;
  double compute_s = 0;
  double critical_s = 0;
  double wait_s = 0;
  double overhead_s = 0;
  double observer_s = 0;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
};

/// Fails the repetition when the traced cycle does not reproduce the
/// product's cycle of the same seed.
void expect_same(int cycle, const CycleRecord& want, const CycleRecord& got) {
  const bool same = want.elements_before == got.elements_before &&
                    want.elements_after == got.elements_after &&
                    want.evaluated == got.evaluated &&
                    want.accepted == got.accepted &&
                    want.totalv == got.totalv && want.maxv == got.maxv &&
                    want.traffic.supersteps == got.traffic.supersteps &&
                    want.traffic.msgs == got.traffic.msgs &&
                    want.traffic.bytes == got.traffic.bytes;
  if (!same) {
    std::fprintf(stderr,
                 "cycle %d: traced run diverged from the product run\n"
                 "  product: %s\n  traced:  %s\n",
                 cycle, cycle_json(want).dump().c_str(),
                 cycle_json(got).dump().c_str());
    std::exit(4);
  }
}

/// The per-cycle records of a "run" document; false when it is malformed
/// or does not hold `cycles` cycles.
bool parse_product_cycles(const Json& doc, int cycles,
                          std::vector<CycleRecord>* out) {
  const Json* list = doc.find("cycles");
  if (list == nullptr || !list->is_array() ||
      list->size() != static_cast<std::size_t>(cycles)) {
    return false;
  }
  for (std::size_t i = 0; i < list->size(); ++i) {
    const Json& c = list->at(i);
    const auto field = [&](const char* key) -> const Json* {
      const Json* f = c.find(key);
      return f != nullptr && (f->is_number() || f->kind() == Json::Kind::kBool)
                 ? f
                 : nullptr;
    };
    for (const char* key : {"elements_before", "elements_after", "evaluated",
                            "accepted", "totalv", "maxv", "supersteps", "msgs",
                            "bytes", "wall_s"}) {
      if (field(key) == nullptr) return false;
    }
    CycleRecord r;
    r.elements_before = static_cast<Index>(field("elements_before")->as_int());
    r.elements_after = static_cast<Index>(field("elements_after")->as_int());
    r.evaluated = field("evaluated")->as_bool();
    r.accepted = field("accepted")->as_bool();
    r.totalv = field("totalv")->as_int();
    r.maxv = field("maxv")->as_int();
    r.traffic.supersteps = static_cast<int>(field("supersteps")->as_int());
    r.traffic.msgs = field("msgs")->as_int();
    r.traffic.bytes = field("bytes")->as_int();
    r.wall_s = field("wall_s")->as_double();
    out->push_back(r);
  }
  return true;
}

Json trace_mode(const Workload& w, std::uint64_t seed,
                const std::vector<CycleRecord>& ref) {
  const core::FrameworkOptions opt = options_for(w, seed);
  const Rank P = opt.nranks;
  const sim::CostModel cost_model(opt.machine);
  const sim::MachineParams& mp = cost_model.params();
  SpanLog spans;
  // The recorders outlive the engine, which holds pointers to them.
  obs::TraceRecorder trace;
  obs::FlightRecorder scope(P, opt.scope_ring_capacity);
  obs::MemoryTracker mem(P, opt.arena_chunk_bytes);
  TimedObserver observer(&trace, &spans);
  trace.set_flight_recorder(&scope);
  trace.set_memory_tracker(&mem);

  // --- set-up, in DistFramework's constructor order -------------------------
  mesh::TetMesh global = spans.time("mesh.make_box_mesh", [] {
    return mesh::make_box_mesh(mesh::paper_scale_box());
  });
  std::unique_ptr<rt::Engine> eng = spans.time("runtime.make_engine", [&] {
    return rt::make_engine(P, opt.threads, opt.transport, opt.transport_procs);
  });
  eng->set_observer(&observer);
  eng->set_scope_sink(&scope);
  const auto* peng = dynamic_cast<const rt::ParallelEngine*>(eng.get());
  const double workers = peng ? peng->num_threads() : 1;
  graph::Csr dual = spans.time("graph.build_initial_dual",
                               [&] { return global.build_initial_dual(); });
  partition::MultilevelOptions popt;
  popt.nparts = P;
  popt.seed = opt.seed;
  popt.scratch = mem.host_scratch();
  partition::PartVec root_part = spans.time("partition.partition", [&] {
    return partition::partition(dual, popt).part;
  });
  mem.reset_arenas();
  auto dm = spans.time("pmesh.distmesh_build", [&] {
    return std::make_unique<pmesh::DistMesh>(global, root_part, P);
  });
  global = mesh::TetMesh{};
  std::unique_ptr<pmesh::ParallelEulerSolver> euler;
  std::vector<std::vector<solver::State>> states;
  TracedCounts n;
  const auto bind_solver = [&] {
    spans.time("pmesh.solver_bind", [&] {
      euler = std::make_unique<pmesh::ParallelEulerSolver>(dm.get(), eng.get());
      for (std::size_t r = 0; r < states.size(); ++r) {
        auto& dst = euler->solution(static_cast<Rank>(r));
        PLUM_ASSERT(dst.size() == states[r].size());
        dst = states[r];
      }
    });
  };
  const auto save_states = [&] {
    states.clear();
    for (Rank r = 0; r < P; ++r) states.push_back(euler->solution(r));
  };
  bind_solver();
  spans.time("solver.init_blast", [&] {
    const solver::BlastSpec blast = blast_for(seed);
    for (Rank r = 0; r < P; ++r) {
      solver::init_blast(dm->local(r).mesh, euler->solution(r), blast);
    }
  });

  // --- cycles, in DistFramework::cycle()'s order ----------------------------
  std::vector<double> cycle_t0, cycle_t1;
  for (int c = 0; c < w.cycles; ++c) {
    spans.set_cycle(c);
    const int step0 = eng->ledger().num_supersteps();
    cycle_t0.push_back(spans.now());
    mem.reset_arenas();
    CycleRecord rec;
    rec.elements_before = dm->total_active_elements();

    // 1. flow solver
    spans.time("pmesh.solve", [&] { euler->run(opt.solver_steps_per_cycle); });
    n.model_solve_s +=
        mp.t_iter * static_cast<double>(opt.solver_steps_per_cycle) *
        static_cast<double>(vec_max(dm->active_elements_per_rank()));

    // 2. error indicator + global marking threshold over owned edges
    auto err = spans.time("adapt.edge_error",
                          [&] { return rank_errors(*dm, *euler); });
    std::vector<std::vector<double>> owned_errs(static_cast<std::size_t>(P));
    for (Rank r = 0; r < P; ++r) {
      const auto& lm = dm->local(r);
      for (Index e = 0; e < lm.mesh.num_edges(); ++e) {
        if (lm.mesh.edge_elements(e).empty()) continue;
        auto it = lm.shared_edges.find(e);
        if (it != lm.shared_edges.end()) {
          Rank owner = r;
          for (const auto& cp : it->second) owner = std::min(owner, cp.rank);
          if (owner != r) continue;
        }
        owned_errs[static_cast<std::size_t>(r)].push_back(
            err[static_cast<std::size_t>(r)][static_cast<std::size_t>(e)]);
      }
    }
    const auto gathered = spans.time(
        "runtime.gather", [&] { return rt::gather(*eng, owned_errs, 0); });
    std::vector<double> all_err;
    for (const auto& v : gathered) {
      all_err.insert(all_err.end(), v.begin(), v.end());
    }
    std::sort(all_err.begin(), all_err.end(), std::greater<>());
    const auto want = static_cast<std::size_t>(
        opt.refine_fraction * static_cast<double>(all_err.size()));
    const double threshold =
        (want == 0 || all_err.empty())
            ? std::numeric_limits<double>::max()
            : all_err[std::min(want, all_err.size() - 1)];

    // 3. parallel marking
    auto seeds = threshold_marks(*dm, err, threshold);
    const auto mark = [&] {
      auto pm = spans.time("pmesh.parallel_mark", [&] {
        return pmesh::parallel_mark(*dm, *eng, seeds, &mem);
      });
      ++n.mark_calls;
      n.mark_comm_rounds += pm.comm_rounds;
      return pm;
    };
    auto pm = mark();

    // 4. predicted weights per global root, gathered to the host
    std::vector<std::vector<RootW>> rows(static_cast<std::size_t>(P));
    for (Rank r = 0; r < P; ++r) {
      const auto& lm = dm->local(r);
      const auto cur = lm.mesh.root_weights();
      std::vector<RootW> mine(lm.root_global.size());
      for (std::size_t lr = 0; lr < lm.root_global.size(); ++lr) {
        mine[lr] = {lm.root_global[lr], cur.wcomp[lr], cur.wremap[lr],
                    cur.wremap[lr]};
      }
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
    const auto hosted =
        spans.time("runtime.gather", [&] { return rt::gather(*eng, rows, 0); });
    const Index nroots = dual.num_vertices();
    std::vector<Weight> wcomp_pred(static_cast<std::size_t>(nroots), 0);
    std::vector<Weight> wremap_pred(static_cast<std::size_t>(nroots), 0);
    std::vector<Weight> wremap_cur(static_cast<std::size_t>(nroots), 0);
    for (const auto& row : hosted) {
      for (const auto& rw : row) {
        wcomp_pred[static_cast<std::size_t>(rw.groot)] = rw.wcomp_pred;
        wremap_pred[static_cast<std::size_t>(rw.groot)] = rw.wremap_pred;
        wremap_cur[static_cast<std::size_t>(rw.groot)] = rw.wremap_cur;
      }
    }

    // 5. balance gate: repartition, similarity, mapper, gain vs cost
    std::vector<Weight> loads_old(static_cast<std::size_t>(P), 0);
    for (Index v = 0; v < nroots; ++v) {
      loads_old[static_cast<std::size_t>(root_part[v])] +=
          wcomp_pred[static_cast<std::size_t>(v)];
    }
    dual.set_weights(wcomp_pred, wremap_pred);
    if (imbalance(loads_old) > opt.imbalance_trigger) {
      rec.evaluated = true;
      ++n.gate_evaluated;
      partition::MultilevelOptions ropt;
      ropt.nparts = P;
      ropt.seed = opt.seed;
      ropt.scratch = mem.host_scratch();
      const auto repart = spans.time("partition.repartition", [&] {
        return partition::repartition(dual, root_part, ropt);
      });
      n.repartition_levels += static_cast<std::int64_t>(repart.levels.size());
      n.model_repartition_s += cost_model.partition_seconds(
          nroots, static_cast<int>(repart.levels.size()), P);

      const auto& move_w =
          opt.remap_before_subdivision ? wremap_cur : wremap_pred;
      const auto S = spans.time("remap.similarity", [&] {
        std::vector<std::vector<remap::SimilarityCell>> srows(
            static_cast<std::size_t>(P));
        for (Rank r = 0; r < P; ++r) {
          srows[static_cast<std::size_t>(r)] =
              remap::SimilarityMatrix::build_row_sparse(r, root_part,
                                                        repart.part, move_w);
        }
        return remap::SimilarityMatrix::from_sparse_rows(srows, P);
      });
      const auto [assign, volume] = spans.time("remap.mapper", [&] {
        auto a = remap::map_heuristic_greedy(S);
        auto vol = remap::evaluate_assignment(S, a);
        return std::pair{std::move(a), vol};
      });
      rec.totalv = volume.total_elems;
      rec.maxv = volume.max_sent_or_recv;

      std::vector<Weight> loads_new(static_cast<std::size_t>(P), 0);
      partition::PartVec new_part(root_part.size());
      for (std::size_t v = 0; v < new_part.size(); ++v) {
        new_part[v] =
            assign.part_to_proc[static_cast<std::size_t>(repart.part[v])];
        loads_new[static_cast<std::size_t>(new_part[v])] += wcomp_pred[v];
      }
      std::vector<Weight> ref_old(static_cast<std::size_t>(P), 0);
      std::vector<Weight> ref_new(static_cast<std::size_t>(P), 0);
      for (Index v = 0; v < nroots; ++v) {
        const Weight growth = wremap_pred[static_cast<std::size_t>(v)] -
                              wremap_cur[static_cast<std::size_t>(v)];
        ref_old[static_cast<std::size_t>(root_part[v])] += growth;
        ref_new[static_cast<std::size_t>(new_part[v])] += growth;
      }
      const auto [accept, cost_s] = spans.time("sim.gate", [&] {
        const double gain = cost_model.computational_gain(
            vec_max(loads_old), vec_max(loads_new), vec_max(ref_old),
            vec_max(ref_new));
        const double cost = cost_model.redistribution_cost(volume, opt.metric);
        return std::pair{cost_model.accept_remap(gain, cost), cost};
      });

      if (accept) {
        rec.accepted = true;
        ++n.gate_accepted;
        n.model_migrate_s += cost_s;
        // 6. migrate subtrees + solution, rebind, re-mark
        save_states();
        mem.set_phase("migrate");
        const auto ms = spans.time("pmesh.migrate", [&] {
          return pmesh::migrate(*dm, *eng, new_part, &states, &mem);
        });
        mem.clear_phase();
        n.migrate_elements += ms.elements_moved;
        n.migrate_bytes += vec_sum(ms.bytes_sent);
        root_part = new_part;
        bind_solver();
        err = spans.time("adapt.edge_error",
                         [&] { return rank_errors(*dm, *euler); });
        seeds = threshold_marks(*dm, err, threshold);
        pm = mark();
      }
    }
    n.totalv += rec.totalv;
    n.maxv += rec.maxv;
    n.edge_cut = spans.time("partition.evaluate_quality", [&] {
      return partition::evaluate_quality(dual, root_part, P).edge_cut;
    });

    // 7. parallel subdivision, interpolating the solution at new midpoints
    for (Rank r = 0; r < P; ++r) {
      dm->local(r).mesh.on_bisect = [&, r](Index e, Index mid) {
        auto& u = euler->solution(r);
        const auto& ed = dm->local(r).mesh.edge(e);
        if (static_cast<std::size_t>(mid) >= u.size()) {
          u.resize(static_cast<std::size_t>(mid) + 1);
        }
        for (int k = 0; k < solver::kNumVars; ++k) {
          u[static_cast<std::size_t>(mid)][k] =
              0.5 * (u[static_cast<std::size_t>(ed.v0)][k] +
                     u[static_cast<std::size_t>(ed.v1)][k]);
        }
      };
    }
    const auto pf = spans.time("pmesh.parallel_refine", [&] {
      return pmesh::parallel_refine(*dm, *eng, pm, &mem);
    });
    for (Rank r = 0; r < P; ++r) dm->local(r).mesh.on_bisect = nullptr;
    n.refine_children += vec_sum(pf.work_per_rank);
    n.model_subdivide_s +=
        mp.t_refine * static_cast<double>(vec_max(pf.work_per_rank));

    save_states();
    bind_solver();
    rec.elements_after = dm->total_active_elements();
    cycle_t1.push_back(spans.now());
    rec.wall_s = cycle_t1.back() - cycle_t0.back();
    rec.traffic = ledger_since(eng->ledger(), step0);

    expect_same(c, ref[static_cast<std::size_t>(c)], rec);
    check_cycle(c, *dm, *euler);
    report_cycle_ok(c);
  }

  // --- fold spans and supersteps into per-layer numbers ---------------------
  const auto& all = spans.spans();
  std::map<std::string, SpanAgg> agg;
  double cycle_wall = 0, cycle_spans = 0;
  bool spans_ok = true;
  for (int c = 0; c < w.cycles; ++c) {
    cycle_wall += cycle_t1[static_cast<std::size_t>(c)] -
                  cycle_t0[static_cast<std::size_t>(c)];
  }
  double prev_end = 0;
  for (const auto& s : all) {
    // Spans never nest or overlap, and cycle spans lie inside their cycle.
    spans_ok = spans_ok && s.t0 >= prev_end && s.t1 >= s.t0;
    prev_end = s.t1;
    if (s.cycle < 0) continue;
    const auto uc = static_cast<std::size_t>(s.cycle);
    spans_ok = spans_ok && s.t0 >= cycle_t0[uc] && s.t1 <= cycle_t1[uc];
    SpanAgg& a = agg[s.name];
    a.busy_s += s.t1 - s.t0;
    ++a.calls;
    cycle_spans += s.t1 - s.t0;
  }
  SpanAgg rt_total;
  std::int64_t unattributed = 0;
  for (const StepSample& st : observer.samples()) {
    if (st.span < 0) {
      ++unattributed;
      continue;
    }
    const auto& s = all[static_cast<std::size_t>(st.span)];
    if (s.cycle < 0) continue;
    for (SpanAgg* a : {&agg[s.name], &rt_total}) {
      ++a->supersteps;
      a->step_wall_s += st.wall_s;
      a->compute_s += st.compute_s;
      a->critical_s += st.critical_s;
      a->wait_s += st.critical_s - st.mean_s;
      a->overhead_s +=
          st.wall_s - std::max(st.critical_s, st.compute_s / workers);
      a->observer_s += st.observer_s;
      a->msgs += st.msgs;
      a->bytes += st.bytes;
    }
  }
  spans_ok = spans_ok && unattributed == 0;
  const auto setup_busy = [&](const char* name) {
    double s = 0;
    for (const auto& sp : all) {
      if (sp.cycle < 0 && sp.name == name) s += sp.t1 - sp.t0;
    }
    return s;
  };
  double product_cycle_s = 0;
  for (const CycleRecord& c : ref) product_cycle_s += c.wall_s;
  const auto host_s = [](const SpanAgg& a) {
    return a.busy_s - a.step_wall_s - a.observer_s;
  };
  std::int64_t migrate_peak = 0;
  const auto& phases = mem.phase_names();
  for (std::size_t p = 0; p < phases.size(); ++p) {
    if (phases[p] != "migrate") continue;
    for (int row = 0; row <= P; ++row) {
      migrate_peak = std::max(
          migrate_peak,
          mem.stats(row, static_cast<std::int32_t>(p)).peak_live_bytes);
    }
  }

  Json layers = Json::object();
  const auto num = [&](const std::string& k, double v) {
    layers.set(k, Json::number(v));
  };
  const auto cnt = [&](const std::string& k, std::int64_t v) {
    layers.set(k, Json::integer(v));
  };
  num("mesh.make_box_mesh.busy_s", setup_busy("mesh.make_box_mesh"));
  num("graph.build_initial_dual.busy_s",
      setup_busy("graph.build_initial_dual"));
  num("partition.partition.busy_s", setup_busy("partition.partition"));
  num("pmesh.distmesh_build.busy_s", setup_busy("pmesh.distmesh_build"));
  const SpanAgg& solve = agg["pmesh.solve"];
  num("pmesh.solve.busy_s", solve.busy_s);
  num("pmesh.solve.compute_s", solve.compute_s);
  num("pmesh.solve.wait_s", solve.wait_s);
  cnt("pmesh.solve.supersteps", solve.supersteps);
  num("pmesh.solver_bind.busy_s", agg["pmesh.solver_bind"].busy_s);
  cnt("pmesh.solver_bind.calls", agg["pmesh.solver_bind"].calls);
  num("adapt.edge_error.busy_s", agg["adapt.edge_error"].busy_s);
  num("runtime.gather.busy_s", agg["runtime.gather"].busy_s);
  cnt("runtime.gather.bytes", agg["runtime.gather"].bytes);
  const SpanAgg& mark = agg["pmesh.parallel_mark"];
  num("pmesh.parallel_mark.busy_s", mark.busy_s);
  cnt("pmesh.parallel_mark.calls", n.mark_calls);
  cnt("pmesh.parallel_mark.comm_rounds", n.mark_comm_rounds);
  cnt("pmesh.parallel_mark.bytes", mark.bytes);
  num("partition.repartition.busy_s", agg["partition.repartition"].busy_s);
  cnt("partition.repartition.levels", n.repartition_levels);
  cnt("partition.edge_cut", n.edge_cut);
  num("remap.similarity.busy_s", agg["remap.similarity"].busy_s);
  num("remap.mapper.busy_s", agg["remap.mapper"].busy_s);
  cnt("remap.totalv_elems", n.totalv);
  cnt("remap.maxv_elems", n.maxv);
  cnt("sim.gate.evaluated", n.gate_evaluated);
  cnt("sim.gate.accepted", n.gate_accepted);
  const SpanAgg& mig = agg["pmesh.migrate"];
  num("pmesh.migrate.busy_s", mig.busy_s);
  num("pmesh.migrate.compute_s", mig.compute_s);
  num("pmesh.migrate.host_s", host_s(mig));
  cnt("pmesh.migrate.bytes", n.migrate_bytes);
  cnt("pmesh.migrate.elements_moved", n.migrate_elements);
  cnt("pmesh.migrate.supersteps", mig.supersteps);
  cnt("pmesh.migrate.peak_live_bytes", migrate_peak);
  const SpanAgg& ref_agg = agg["pmesh.parallel_refine"];
  num("pmesh.parallel_refine.busy_s", ref_agg.busy_s);
  num("pmesh.parallel_refine.compute_s", ref_agg.compute_s);
  num("pmesh.parallel_refine.wait_s", ref_agg.wait_s);
  cnt("pmesh.parallel_refine.children", n.refine_children);
  cnt("pmesh.parallel_refine.supersteps", ref_agg.supersteps);
  cnt("runtime.supersteps", rt_total.supersteps);
  cnt("runtime.msgs", rt_total.msgs);
  cnt("runtime.bytes", rt_total.bytes);
  num("runtime.compute_s", rt_total.compute_s);
  num("runtime.critical_s", rt_total.critical_s);
  num("runtime.wait_s", rt_total.wait_s);
  num("runtime.overhead_s", rt_total.overhead_s);
  num("obs.observer.busy_s", rt_total.observer_s);
  cnt("obs.observer.calls", rt_total.supersteps);
  num("core.host_s", cycle_wall - cycle_spans);
  num("sim.model.solve_s", n.model_solve_s);
  num("sim.model.repartition_s", n.model_repartition_s);
  num("sim.model.migrate_s", n.model_migrate_s);
  num("sim.model.subdivide_s", n.model_subdivide_s);
  num("bench.traced_cycle_s", cycle_wall);
  num("bench.tracing_overhead_s", cycle_wall - product_cycle_s);

  Json span_list = Json::array();
  for (const auto& s : all) {
    Json j = Json::object();
    j.set("name", Json::str(s.name))
        .set("cycle", Json::integer(s.cycle))
        .set("t0", Json::number(s.t0))
        .set("t1", Json::number(s.t1));
    span_list.push(std::move(j));
  }
  Json j = Json::object();
  j.set("mode", Json::str("trace"))
      .set("threads", Json::integer(opt.threads))
      .set("spans_ok", Json::boolean(spans_ok))
      .set("layers", std::move(layers))
      .set("spans", std::move(span_list));
  return j;
}

int usage() {
  std::fputs("usage: plum_bench list | host | {run|trace} <workload> <seed>\n",
             stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "list") {
    for (const Workload& w : kWorkloads) {
      std::printf("%s\t%d\t%s\n", w.name, w.cycles, w.why);
    }
    return 0;
  }
  if (mode == "host") {
    std::printf("%s\n", host_json().dump().c_str());
    return 0;
  }
  if (argc != 4 || (mode != "run" && mode != "trace")) return usage();
  const Workload* w = find_workload(argv[2]);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", argv[2]);
    return 2;
  }
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(argv[3], &end, 10);
  if (end == argv[3] || *end != '\0') {
    std::fprintf(stderr, "bad seed %s\n", argv[3]);
    return 2;
  }
  Json out;
  if (mode == "run") {
    out = run_mode(*w, seed);
  } else {
    const std::string text((std::istreambuf_iterator<char>(std::cin)),
                           std::istreambuf_iterator<char>());
    Json doc;
    std::string err;
    std::vector<CycleRecord> ref;
    if (!Json::parse(text, &doc, &err) ||
        !parse_product_cycles(doc, w->cycles, &ref)) {
      std::fprintf(stderr, "trace: stdin is not a \"run\" result for %s%s%s\n",
                   w->name, err.empty() ? "" : ": ", err.c_str());
      return 2;
    }
    out = trace_mode(*w, seed, ref);
  }
  out.set("workload", Json::str(w->name))
      .set("seed", Json::integer(static_cast<std::int64_t>(seed)))
      .set("cycles_planned", Json::integer(w->cycles))
      .set("host", host_json());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
