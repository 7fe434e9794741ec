// End-to-end tests for the fully distributed framework: the complete Fig. 1
// loop over the BSP substrate, including migration with solution transfer
// and balanced parallel subdivision.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "adapt/adaptor.hpp"
#include "core/dist_framework.hpp"
#include "mesh/box_mesh.hpp"
#include "obs/gate_audit.hpp"
#include "obs/scope.hpp"
#include "pmesh/finalize.hpp"
#include "runtime/engine.hpp"
#include "solver/init_conditions.hpp"
#include "util/stats.hpp"

namespace plum::core {
namespace {

DistFramework make_dist(FrameworkOptions opt, int boxn) {
  auto mesh = mesh::make_box_mesh(mesh::small_box(boxn));
  DistFramework fw(std::move(mesh), opt);
  solver::BlastSpec blast;
  blast.radius = 0.2;
  for (Rank r = 0; r < opt.nranks; ++r) {
    solver::init_blast(fw.dist_mesh().local(r).mesh, fw.solver().solution(r),
                       blast);
  }
  return fw;
}

TEST(DistFramework, CycleRefinesAndStaysConsistent) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.06;
  opt.solver_steps_per_cycle = 5;
  auto fw = make_dist(opt, 4);
  const auto rep = fw.cycle();
  EXPECT_GT(rep.elements_after, rep.elements_before);
  fw.dist_mesh().validate();
  fw.solver().validate_replication();
}

TEST(DistFramework, AcceptedRemapBalancesSubdivisionWork) {
  FrameworkOptions opt;
  opt.nranks = 8;
  opt.refine_fraction = 0.05;
  opt.imbalance_trigger = 1.10;
  opt.solver_steps_per_cycle = 10;
  auto fw = make_dist(opt, 5);
  const auto rep = fw.cycle();
  if (rep.accepted) {
    EXPECT_GT(rep.elements_migrated, 0);
    EXPECT_LT(rep.imbalance_new, rep.imbalance_old);
    // Achieved element balance after the balanced refinement.
    const auto loads = fw.elements_per_rank();
    EXPECT_LT(imbalance(loads), rep.imbalance_old);
  }
  fw.dist_mesh().validate();
}

TEST(DistFramework, TwoCyclesWithMigrationKeepSolutionPhysical) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.05;
  opt.imbalance_trigger = 1.05;
  opt.solver_steps_per_cycle = 5;
  auto fw = make_dist(opt, 4);
  int accepted = 0;
  for (int i = 0; i < 2; ++i) {
    const auto rep = fw.cycle();
    accepted += rep.accepted;
    fw.dist_mesh().validate();
    fw.solver().validate_replication();
    for (Rank r = 0; r < opt.nranks; ++r) {
      for (const auto& s : fw.solver().solution(r)) {
        ASSERT_GT(s[0], 0.0) << "density lost through cycle " << i;
      }
    }
  }
  // With the aggressive trigger the blast case must remap at least once.
  EXPECT_GE(accepted, 1);
}

// plum-meter acceptance: a >= 4-rank run produces a P x P comm matrix that
// reconciles with the ledger, per-cycle paper-metric gauges, and a gate
// audit whose accepted records carry modeled cost and measured bytes.
TEST(DistFramework, ObservabilityCommMatrixGaugesAndGateAudit) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.05;
  opt.imbalance_trigger = 1.05;
  opt.solver_steps_per_cycle = 5;
  auto fw = make_dist(opt, 4);
  const int cycles = 2;
  int accepted = 0;
  for (int i = 0; i < cycles; ++i) accepted += fw.cycle().accepted;
  ASSERT_GE(accepted, 1);  // same workload as TwoCyclesWithMigration...

  // --- comm matrix reconciles with the ledger ------------------------------
  const rt::Ledger& ledger = fw.engine().ledger();
  const rt::CommMatrix cm = ledger.comm_matrix();
  ASSERT_EQ(cm.nranks, opt.nranks);
  std::vector<std::int64_t> sent(static_cast<std::size_t>(opt.nranks), 0);
  for (const auto& step : ledger.steps) {
    for (Rank r = 0; r < opt.nranks; ++r) {
      sent[static_cast<std::size_t>(r)] +=
          step[static_cast<std::size_t>(r)].bytes_sent;
    }
  }
  std::int64_t row_total = 0;
  std::int64_t col_total = 0;
  for (Rank r = 0; r < opt.nranks; ++r) {
    EXPECT_EQ(cm.row_bytes(r), sent[static_cast<std::size_t>(r)]);
    row_total += cm.row_bytes(r);
    col_total += cm.col_bytes(r);
  }
  EXPECT_EQ(row_total, ledger.total_bytes());
  EXPECT_EQ(col_total, ledger.total_bytes());
  EXPECT_GT(ledger.total_bytes(), 0);
  // The trace-side matrix is the same accumulation.
  EXPECT_EQ(fw.trace().comm_matrix(), cm);
  EXPECT_FALSE(fw.trace().comm_by_class().empty());

  // --- per-cycle gauges ----------------------------------------------------
  const obs::MetricsRegistry& m = fw.metrics();
  for (const char* gauge : {"imbalance", "edge_cut", "remap_total_elems",
                            "remap_max_sent_or_recv"}) {
    ASSERT_TRUE(m.contains(gauge)) << gauge;
    ASSERT_TRUE(m.is_series(gauge)) << gauge;
    EXPECT_EQ(m.series(gauge).size(), static_cast<std::size_t>(cycles))
        << gauge;
  }
  for (const double v : m.series("imbalance")) EXPECT_GE(v, 1.0);

  // --- gate audit ----------------------------------------------------------
  const auto& gates = fw.trace().gate_records();
  ASSERT_EQ(gates.size(), static_cast<std::size_t>(cycles));
  int audited_accepts = 0;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const obs::GateRecord& g = gates[i];
    EXPECT_EQ(g.cycle, static_cast<int>(i));
    if (!g.accepted) continue;
    ++audited_accepts;
    EXPECT_TRUE(g.evaluated);
    EXPECT_TRUE(g.metric == "TotalV" || g.metric == "MaxV") << g.metric;
    EXPECT_GT(g.gain_s, g.cost_s);  // the gate's own acceptance condition
    EXPECT_GT(g.predicted_move_bytes, 0);
    EXPECT_GT(g.measured_move_bytes, 0);
    EXPECT_EQ(g.drift,
              obs::gate_drift(g.predicted_move_bytes, g.measured_move_bytes));
  }
  EXPECT_EQ(audited_accepts, accepted);
}

// plum-scope: the always-on flight recorder fills one ring per rank, the
// scope stream appends exactly one validating plum-scope/1 NDJSON record
// per cycle.
TEST(DistFramework, ScopeStreamWritesOneValidatedRecordPerCycle) {
  const std::string stream =
      ::testing::TempDir() + "dist_scope_stream.ndjson";
  std::remove(stream.c_str());

  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.05;
  opt.imbalance_trigger = 1.05;
  opt.solver_steps_per_cycle = 5;
  opt.scope_name = "stream_unit";
  opt.scope_stream = stream;
  const int cycles = 3;
  {
    auto fw = make_dist(opt, 4);
    for (int i = 0; i < cycles; ++i) fw.cycle();
    // The engine fed the ring: every rank recorded every superstep.
    const auto steps =
        static_cast<std::uint64_t>(fw.trace().supersteps().size());
    ASSERT_GT(steps, 0u);
    for (Rank r = 0; r < opt.nranks; ++r) {
      EXPECT_EQ(fw.scope().events_recorded(r), steps) << "rank " << r;
    }
    EXPECT_FALSE(fw.scope().phase_names().empty());
  }

  std::ifstream in(stream);
  ASSERT_TRUE(in.good());
  std::string line;
  int n = 0;
  std::int64_t busy_total = 0;
  while (std::getline(in, line)) {
    obs::Json rec;
    std::string err;
    ASSERT_TRUE(obs::Json::parse(line, &rec, &err)) << err;
    ASSERT_EQ(obs::validate_scope_record(rec), "") << line;
    EXPECT_EQ(rec.find("name")->as_string(), "stream_unit");
    EXPECT_EQ(rec.find("cycle")->as_int(), n);
    const obs::Json* ranks = rec.find("ranks");
    ASSERT_EQ(ranks->size(), static_cast<std::size_t>(opt.nranks));
    for (std::size_t r = 0; r < ranks->size(); ++r) {
      busy_total += ranks->at(r).find("busy")->as_int();
    }
    ++n;
  }
  EXPECT_EQ(n, cycles);
  EXPECT_GT(busy_total, 0);
  std::remove(stream.c_str());
}

// A rank program that fails an assertion mid-superstep must leave a
// validating plum-postmortem/1 document behind: the assert's reason and
// message, and >= 1 flight-recorder event for every rank.
TEST(DistFrameworkDeathTest, RankDeathWritesValidatingPostmortem) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = ::testing::TempDir();
  const std::string pm_path = dir + "POSTMORTEM_death_unit.json";
  std::remove(pm_path.c_str());
  ASSERT_EQ(setenv("PLUM_BENCH_JSON_DIR", dir.c_str(), 1), 0);

  EXPECT_DEATH(
      {
        FrameworkOptions opt;
        opt.nranks = 4;
        opt.refine_fraction = 0.05;
        opt.imbalance_trigger = 1.05;
        opt.solver_steps_per_cycle = 3;
        opt.scope_name = "death_unit";
        auto fw = make_dist(opt, 4);
        fw.cycle();  // populate the rings before the crash
        fw.engine().superstep([](Rank r, const rt::Inbox&, rt::Outbox&) {
          PLUM_ASSERT_MSG(r != 2, "rank 2 hit a corrupt mesh invariant");
          return false;
        });
      },
      "rank 2 hit a corrupt mesh invariant");
  ASSERT_EQ(unsetenv("PLUM_BENCH_JSON_DIR"), 0);

  std::ifstream in(pm_path);
  ASSERT_TRUE(in.good()) << "death run left no " << pm_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::Json doc;
  std::string err;
  ASSERT_TRUE(obs::Json::parse(buf.str(), &doc, &err)) << err;
  ASSERT_EQ(obs::validate_postmortem(doc), "");
  EXPECT_EQ(doc.find("name")->as_string(), "death_unit");
  EXPECT_EQ(doc.find("reason")->find("msg")->as_string(),
            "rank 2 hit a corrupt mesh invariant");
  EXPECT_EQ(doc.find("reason")->find("expr")->as_string(), "r != 2");
  // Every rank kept flight-recorder evidence of the run that crashed.
  const obs::Json* scope = doc.find("scope");
  ASSERT_NE(scope, nullptr);
  const obs::Json* ranks = scope->find("ranks");
  ASSERT_EQ(ranks->size(), 4u);
  for (std::size_t r = 0; r < ranks->size(); ++r) {
    EXPECT_GE(ranks->at(r).find("events")->size(), 1u) << "rank " << r;
  }
  std::remove(pm_path.c_str());
}

TEST(DistFramework, MatchesSerialFrameworkElementCounts) {
  // The distributed and single-address-space drivers implement the same
  // marking policy; with the same threshold semantics the global mesh
  // growth is close (not identical: Framework uses an exact top-fraction
  // count, DistFramework a threshold quantile).
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.06;
  opt.imbalance_trigger = 1e9;  // disable remap in both
  opt.solver_steps_per_cycle = 5;

  auto dist = make_dist(opt, 4);
  const auto rd = dist.cycle();

  auto mesh = mesh::make_box_mesh(mesh::small_box(4));
  Framework serial(std::move(mesh), opt);
  solver::BlastSpec blast;
  blast.radius = 0.2;
  solver::init_blast(serial.mesh(), serial.solver().solution(), blast);
  const auto rs = serial.cycle();

  EXPECT_NEAR(static_cast<double>(rd.elements_after),
              static_cast<double>(rs.elements_after),
              0.15 * static_cast<double>(rs.elements_after));
}

TEST(DistFramework, CoarseningPhaseRuns) {
  FrameworkOptions opt;
  opt.nranks = 3;
  opt.refine_fraction = 0.06;
  opt.coarsen_fraction = 0.4;
  opt.solver_steps_per_cycle = 4;
  auto fw = make_dist(opt, 3);
  fw.cycle();  // grow
  const auto rep = fw.cycle();  // coarsen quiet regions + refine front
  fw.dist_mesh().validate();
  fw.solver().validate_replication();
  EXPECT_GT(rep.elements_after, 0);
  for (Rank r = 0; r < opt.nranks; ++r) {
    for (const auto& s : fw.solver().solution(r)) EXPECT_GT(s[0], 0.0);
  }
}

// The coarsen and mark thresholds sample every global active edge once, at
// its owner, so with an error field that depends only on edge geometry both
// thresholds are independent of P.
TEST(DistFramework, ThresholdSampleHoldsEachActiveEdgeOnce) {
  auto global = mesh::make_box_mesh(mesh::small_box(3));
  adapt::MeshAdaptor ad(&global);
  std::vector<char> gmarks(static_cast<std::size_t>(global.num_edges()), 0);
  for (Index e = 0; e < global.num_edges(); e += 5) {
    gmarks[static_cast<std::size_t>(e)] = 1;
  }
  ad.mark(gmarks);
  ad.refine();  // inactive parent edges must stay out of the sample

  std::vector<double> ref_sorted;
  double ref_refine = 0;
  double ref_coarsen = 0;
  for (const Rank P : {1, 3, 7}) {
    partition::PartVec part(
        static_cast<std::size_t>(global.num_initial_elements()));
    for (std::size_t t = 0; t < part.size(); ++t) {
      part[t] = static_cast<Rank>(t % static_cast<std::size_t>(P));
    }
    pmesh::DistMesh dm(global, part, P);
    rt::Engine eng(P);
    std::vector<std::vector<double>> err(static_cast<std::size_t>(P));
    for (Rank r = 0; r < P; ++r) {
      const auto& m = dm.local(r).mesh;
      for (Index e = 0; e < m.num_edges(); ++e) {
        const auto& ed = m.edge(e);
        // Twice the midpoint: exact, and the same on every copy.
        const auto c = m.vertex(ed.v0).pos + m.vertex(ed.v1).pos;
        err[static_cast<std::size_t>(r)].push_back(
            std::sin(3.0 * c.x) + c.y * c.y - 0.5 * c.z);
      }
    }

    auto sample = gather_owned_edge_errors(dm, eng, err);
    EXPECT_EQ(static_cast<Index>(sample.size()),
              pmesh::finalize_gather(dm, eng).global.num_active_edges())
        << "P = " << P;
    const auto refine = edge_threshold(sample, 0.1, MarkSide::kAbove);
    const auto coarsen = edge_threshold(sample, 0.3, MarkSide::kBelow);
    ASSERT_TRUE(refine.has_value());
    ASSERT_TRUE(coarsen.has_value());
    std::sort(sample.begin(), sample.end());
    if (P == 1) {
      ref_sorted = sample;
      ref_refine = *refine;
      ref_coarsen = *coarsen;
      continue;
    }
    EXPECT_EQ(sample, ref_sorted) << "P = " << P;
    EXPECT_EQ(*refine, ref_refine) << "P = " << P;
    EXPECT_EQ(*coarsen, ref_coarsen) << "P = " << P;
  }
  EXPECT_LT(ref_coarsen, ref_refine);
}

// The shared balance gate prices MaxV with the machine's alpha/beta, in the
// mapper and in the reported volume alike.
TEST(DistFramework, MaxVVolumeIsWeightedByMachineAlpha) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.08;
  opt.imbalance_trigger = 0.0;  // force the evaluation
  opt.solver_steps_per_cycle = 3;
  opt.mapper = MapperKind::kOptimalBmcm;
  opt.metric = sim::CostMetric::kMaxV;
  opt.machine.alpha = 2.0;
  auto fw = make_dist(opt, 5);
  const auto rep = fw.cycle();
  ASSERT_TRUE(rep.evaluated_repartition);
  ASSERT_GT(rep.volume.max_sent, 0);
  // maxv_cost = max_i max(alpha * sent_i, beta * recv_i).
  EXPECT_DOUBLE_EQ(
      rep.volume.maxv_cost,
      std::max(2.0 * static_cast<double>(rep.volume.max_sent),
               static_cast<double>(rep.volume.max_recv)));
  fw.dist_mesh().validate();
}

// F = 2: the gate repartitions into 2P parts from scratch (the warm start
// needs one part per processor), reassigns them, and the migration lands
// on a consistent distribution.
TEST(DistFramework, PartitionsPerProcRepartitionsFromScratch) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.08;
  opt.imbalance_trigger = 0.0;  // force the evaluation
  opt.solver_steps_per_cycle = 3;
  {
    // Precondition: with F = 1 this workload keeps the warm start.
    auto fw = make_dist(opt, 5);
    ASSERT_TRUE(fw.cycle().used_previous_partition);
  }
  opt.partitions_per_proc = 2;
  auto fw = make_dist(opt, 5);
  const auto rep = fw.cycle();
  ASSERT_TRUE(rep.evaluated_repartition);
  EXPECT_FALSE(rep.used_previous_partition);
  ASSERT_TRUE(rep.accepted);
  EXPECT_GT(rep.elements_migrated, 0);
  for (const Rank owner : fw.root_partition()) {
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, opt.nranks);
  }
  fw.dist_mesh().validate();
  fw.solver().validate_replication();
}

}  // namespace
}  // namespace plum::core
