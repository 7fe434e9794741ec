// Golden gate trajectories for the Fig. 1 balance policy (core/balance).
//
// Each case runs three cycles of Framework or DistFramework and compares
// everything the balance gate and the calibration loop decide against a
// JSON fixture in tests/gate_fixtures/: every CycleReport/DistCycleReport
// field, the gate-audit records, the trace's phase sequence with modeled
// seconds, and the per-cycle gauges (imbalance, edge_cut, remap_*,
// calib_*). Integers and booleans compare exactly, doubles to 1e-12
// relative. CycleReport::mapper_seconds is wall-clock and is not recorded.
//
// The fixtures pin the gate's behavior on F = 1 / alpha = beta = 1 runs
// and the serial driver's F = 2, MWBG, BMCM/MaxV and replay paths. To
// regenerate them after an intended change of the gate's decisions, run
//   PLUM_RECORD_GATE_FIXTURES=1 ./test_balance
// which rewrites every fixture instead of comparing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/dist_framework.hpp"
#include "core/framework.hpp"
#include "mesh/box_mesh.hpp"
#include "obs/gate_audit.hpp"
#include "obs/json.hpp"
#include "solver/init_conditions.hpp"

namespace plum::core {
namespace {

constexpr int kCycles = 3;
constexpr double kRelTol = 1e-12;

obs::Json volume_json(const remap::RemapVolume& v) {
  obs::Json j = obs::Json::object();
  j.set("total_elems", obs::Json::integer(v.total_elems))
      .set("total_sets", obs::Json::integer(v.total_sets))
      .set("max_sent", obs::Json::integer(v.max_sent))
      .set("max_recv", obs::Json::integer(v.max_recv))
      .set("max_sent_or_recv", obs::Json::integer(v.max_sent_or_recv))
      .set("bottleneck_elems", obs::Json::integer(v.bottleneck_elems))
      .set("bottleneck_sets", obs::Json::integer(v.bottleneck_sets))
      .set("maxv_cost", obs::Json::number(v.maxv_cost));
  return j;
}

obs::Json report_json(const CycleReport& r) {
  obs::Json j = obs::Json::object();
  j.set("elements_before", obs::Json::integer(r.elements_before))
      .set("elements_after", obs::Json::integer(r.elements_after))
      .set("elements_coarsened", obs::Json::integer(r.elements_coarsened))
      .set("mark_propagation_rounds",
           obs::Json::integer(r.mark_propagation_rounds))
      .set("evaluated_repartition", obs::Json::boolean(r.evaluated_repartition))
      .set("accepted", obs::Json::boolean(r.accepted))
      .set("used_previous_partition",
           obs::Json::boolean(r.used_previous_partition))
      .set("imbalance_old", obs::Json::number(r.imbalance_old))
      .set("imbalance_new", obs::Json::number(r.imbalance_new))
      .set("wmax_old", obs::Json::integer(r.wmax_old))
      .set("wmax_new", obs::Json::integer(r.wmax_new))
      .set("gain_seconds", obs::Json::number(r.gain_seconds))
      .set("cost_seconds", obs::Json::number(r.cost_seconds))
      .set("volume", volume_json(r.volume))
      .set("solver_work", obs::Json::integer(r.solver_work));
  return j;
}

obs::Json report_json(const DistCycleReport& r) {
  obs::Json work = obs::Json::array();
  for (const Index w : r.refine_work_per_rank) work.push(obs::Json::integer(w));
  obs::Json j = obs::Json::object();
  j.set("elements_before", obs::Json::integer(r.elements_before))
      .set("elements_after", obs::Json::integer(r.elements_after))
      .set("mark_comm_rounds", obs::Json::integer(r.mark_comm_rounds))
      .set("evaluated_repartition", obs::Json::boolean(r.evaluated_repartition))
      .set("accepted", obs::Json::boolean(r.accepted))
      .set("imbalance_old", obs::Json::number(r.imbalance_old))
      .set("imbalance_new", obs::Json::number(r.imbalance_new))
      .set("gain_seconds", obs::Json::number(r.gain_seconds))
      .set("cost_seconds", obs::Json::number(r.cost_seconds))
      .set("volume", volume_json(r.volume))
      .set("elements_migrated", obs::Json::integer(r.elements_migrated))
      .set("refine_work_per_rank", std::move(work));
  return j;
}

bool is_gate_gauge(const std::string& name) {
  return name == "imbalance" || name == "edge_cut" ||
         name.rfind("remap_", 0) == 0 || name.rfind("calib_", 0) == 0;
}

/// The whole trajectory of one run: reports, gate audit, phases, gauges.
template <typename Fw, typename Report>
obs::Json trajectory(Fw& fw, const std::vector<Report>& reports) {
  obs::Json cycles = obs::Json::array();
  for (const Report& r : reports) cycles.push(report_json(r));
  obs::Json phases = obs::Json::array();
  for (const obs::PhaseRecord& p : fw.trace().phases()) {
    obs::Json pj = obs::Json::object();
    pj.set("name", obs::Json::str(p.name))
        .set("depth", obs::Json::integer(p.depth))
        .set("modeled_s", obs::Json::number(p.modeled_s));
    phases.push(std::move(pj));
  }
  obs::Json gauges = obs::Json::object();
  const obs::Json metrics = fw.metrics().deterministic_json();
  for (const auto& [name, value] : metrics.items()) {
    if (is_gate_gauge(name)) gauges.set(name, value);
  }
  obs::Json doc = obs::Json::object();
  doc.set("cycles", std::move(cycles))
      .set("gate_audit", obs::gate_audit_json(fw.trace().gate_records()))
      .set("phases", std::move(phases))
      .set("gauges", std::move(gauges));
  return doc;
}

/// Recursive comparison: same shape and keys, exact integers/bools/strings,
/// doubles within kRelTol relative.
void expect_same(const obs::Json& want, const obs::Json& got,
                 const std::string& path) {
  if (want.is_number() && got.is_number()) {
    if (want.kind() == obs::Json::Kind::kInt &&
        got.kind() == obs::Json::Kind::kInt) {
      EXPECT_EQ(want.as_int(), got.as_int()) << path;
      return;
    }
    const double a = want.as_double();
    const double b = got.as_double();
    EXPECT_LE(std::fabs(a - b), kRelTol * std::max(std::fabs(a), std::fabs(b)))
        << path << ": want " << a << ", got " << b;
    return;
  }
  ASSERT_EQ(want.kind(), got.kind()) << path;
  switch (want.kind()) {
    case obs::Json::Kind::kBool:
      EXPECT_EQ(want.as_bool(), got.as_bool()) << path;
      break;
    case obs::Json::Kind::kString:
      EXPECT_EQ(want.as_string(), got.as_string()) << path;
      break;
    case obs::Json::Kind::kArray:
      ASSERT_EQ(want.size(), got.size()) << path;
      for (std::size_t i = 0; i < want.size(); ++i) {
        expect_same(want.at(i), got.at(i),
                    path + "[" + std::to_string(i) + "]");
      }
      break;
    case obs::Json::Kind::kObject: {
      ASSERT_EQ(want.size(), got.size()) << path;
      for (std::size_t i = 0; i < want.items().size(); ++i) {
        const auto& [wk, wv] = want.items()[i];
        const auto& [gk, gv] = got.items()[i];
        ASSERT_EQ(wk, gk) << path;
        expect_same(wv, gv, path + "." + wk);
      }
      break;
    }
    default:
      break;
  }
}

std::string fixture_path(const std::string& name) {
  return std::string(PLUM_GATE_FIXTURE_DIR) + "/" + name + ".json";
}

/// Compares `doc` against fixture `name`, or rewrites the fixture when
/// PLUM_RECORD_GATE_FIXTURES is set.
void check_golden(const std::string& name, const obs::Json& doc) {
  const std::string path = fixture_path(name);
  if (std::getenv("PLUM_RECORD_GATE_FIXTURES") != nullptr) {
    std::ofstream out(path);
    out << doc.dump(2) << "\n";
    ASSERT_TRUE(out.good()) << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  obs::Json want;
  std::string err;
  ASSERT_TRUE(obs::Json::parse(ss.str(), &want, &err)) << path << ": " << err;
  expect_same(want, doc, name);
}

solver::BlastSpec blast() {
  solver::BlastSpec b;
  b.radius = 0.2;
  return b;
}

/// Options that trip the gate and accept remaps within three cycles.
FrameworkOptions gate_heavy_options(Rank nranks) {
  FrameworkOptions opt;
  opt.nranks = nranks;
  opt.refine_fraction = 0.08;
  opt.imbalance_trigger = 1.02;
  opt.solver_steps_per_cycle = 3;
  return opt;
}

obs::Json run_serial(const FrameworkOptions& opt) {
  Framework fw(mesh::make_box_mesh(mesh::small_box(5)), opt);
  solver::init_blast(fw.mesh(), fw.solver().solution(), blast());
  const auto reports = fw.run(kCycles);
  return trajectory(fw, reports);
}

obs::Json run_dist(const FrameworkOptions& opt) {
  DistFramework fw(mesh::make_box_mesh(mesh::small_box(5)), opt);
  for (Rank r = 0; r < opt.nranks; ++r) {
    solver::init_blast(fw.dist_mesh().local(r).mesh, fw.solver().solution(r),
                       blast());
  }
  std::vector<DistCycleReport> reports;
  for (int i = 0; i < kCycles; ++i) reports.push_back(fw.cycle());
  return trajectory(fw, reports);
}

std::string replay_book() {
  return std::string(PLUM_REPLAY_FIXTURE_DIR) + "/book_small.json";
}

TEST(BalanceGolden, FrameworkGreedyTotalV) {
  check_golden("framework_greedy_totalv", run_serial(gate_heavy_options(8)));
}

TEST(BalanceGolden, FrameworkGreedyTotalVF2) {
  FrameworkOptions opt = gate_heavy_options(8);
  opt.partitions_per_proc = 2;
  check_golden("framework_greedy_totalv_f2", run_serial(opt));
}

TEST(BalanceGolden, FrameworkMwbgTotalV) {
  FrameworkOptions opt = gate_heavy_options(16);
  opt.mapper = MapperKind::kOptimalMwbg;
  // A shorter solve horizon shrinks the gain: the gate rejects remaps.
  opt.machine.solver_iters_per_adaption = 10;
  check_golden("framework_mwbg_totalv", run_serial(opt));
}

TEST(BalanceGolden, FrameworkBmcmMaxV) {
  FrameworkOptions opt = gate_heavy_options(8);
  opt.mapper = MapperKind::kOptimalBmcm;
  opt.metric = sim::CostMetric::kMaxV;
  check_golden("framework_bmcm_maxv", run_serial(opt));
}

TEST(BalanceGolden, FrameworkReplay) {
  FrameworkOptions opt = gate_heavy_options(8);
  opt.replay_path = replay_book();
  check_golden("framework_replay", run_serial(opt));
}

/// The default trigger: once balanced, later cycles skip the gate.
FrameworkOptions dist_p4_options(int threads) {
  FrameworkOptions opt = gate_heavy_options(4);
  opt.imbalance_trigger = FrameworkOptions{}.imbalance_trigger;
  opt.threads = threads;
  return opt;
}

TEST(BalanceGolden, DistFrameworkGreedyTotalVSequentialEngine) {
  const FrameworkOptions opt = dist_p4_options(1);
  check_golden("dist_greedy_totalv_p4", run_dist(opt));
}

TEST(BalanceGolden, DistFrameworkGreedyTotalVParallelEngine) {
  const FrameworkOptions opt = dist_p4_options(4);
  // Same fixture as the sequential engine: the gate sees only
  // deterministic counters.
  if (std::getenv("PLUM_RECORD_GATE_FIXTURES") != nullptr) return;
  check_golden("dist_greedy_totalv_p4", run_dist(opt));
}

TEST(BalanceGolden, DistFrameworkReplayBlendedWeights) {
  FrameworkOptions opt = gate_heavy_options(8);
  opt.replay_path = replay_book();
  opt.calibration.blend_measured_weights = true;
  check_golden("dist_replay_blend_p8", run_dist(opt));
}

}  // namespace
}  // namespace plum::core
