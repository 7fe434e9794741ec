// plum-trace observability layer: JSON model round-trips, metric ordering
// stability, TraceRecorder phase/superstep accounting, cross-engine
// byte-identical deterministic traces, the plum-bench/2 schema validator,
// and the Chrome trace exporter.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json_report.hpp"
#include "obs/bench_schema.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "runtime/collectives.hpp"
#include "runtime/engine.hpp"
#include "util/assert.hpp"
#include "util/rss.hpp"

namespace plum {
namespace {

using obs::Json;

TEST(Json, ScalarsAndRoundTrip) {
  Json doc = Json::object();
  doc.set("int", Json::integer(-42))
      .set("big", Json::integer(std::int64_t{1} << 60))
      .set("pi", Json::number(3.25))
      .set("flag", Json::boolean(true))
      .set("none", Json::null())
      .set("text", Json::str("hi"));

  const std::string s = doc.dump();
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(s, &back, &err)) << err;
  EXPECT_EQ(back.find("int")->as_int(), -42);
  EXPECT_EQ(back.find("big")->as_int(), std::int64_t{1} << 60);
  EXPECT_EQ(back.find("pi")->as_double(), 3.25);
  EXPECT_TRUE(back.find("flag")->as_bool());
  EXPECT_EQ(back.find("none")->kind(), Json::Kind::kNull);
  EXPECT_EQ(back.find("text")->as_string(), "hi");
  // Serialization is deterministic: re-dumping the parse is byte-identical.
  EXPECT_EQ(back.dump(), s);
}

TEST(Json, StringEscapes) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  Json doc = Json::array();
  doc.push(Json::str(nasty));
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(doc.dump(), &back, &err)) << err;
  EXPECT_EQ(back.at(0).as_string(), nasty);
  // \uXXXX decoding.
  ASSERT_TRUE(Json::parse("\"\\u0041\\u00e9\"", &back, &err)) << err;
  EXPECT_EQ(back.as_string(), "A\xc3\xa9");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json doc = Json::object();
  doc.set("zebra", Json::integer(1))
      .set("apple", Json::integer(2))
      .set("mid", Json::integer(3));
  EXPECT_EQ(doc.dump(), R"({"zebra":1,"apple":2,"mid":3})");
  // Overwrite keeps the original slot.
  doc.set("apple", Json::integer(9));
  EXPECT_EQ(doc.dump(), R"({"zebra":1,"apple":9,"mid":3})");
}

TEST(Json, ParserRejectsMalformedInput) {
  Json v;
  std::string err;
  EXPECT_FALSE(Json::parse("", &v, &err));
  EXPECT_FALSE(Json::parse("{", &v, &err));
  EXPECT_FALSE(Json::parse("[1,]", &v, &err));
  EXPECT_FALSE(Json::parse("{\"a\":1,}", &v, &err));
  EXPECT_FALSE(Json::parse("tru", &v, &err));
  EXPECT_FALSE(Json::parse("\"unterminated", &v, &err));
  EXPECT_FALSE(Json::parse("1 2", &v, &err));  // trailing garbage
  EXPECT_FALSE(err.empty());
}

TEST(Metrics, SortedAndInsertionOrderIndependent) {
  obs::MetricsRegistry a;
  a.set("speedup", 12.5);
  a.set_int("elements", 61000);
  a.set("imbalance", 1.02);

  obs::MetricsRegistry b;  // same values, different insertion order
  b.set("imbalance", 1.02);
  b.set("speedup", 12.5);
  b.set_int("elements", 61000);

  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.to_json().dump(),
            R"({"elements":61000,"imbalance":1.02,"speedup":12.5})");
  EXPECT_TRUE(a.contains("speedup"));
  EXPECT_EQ(a.get("elements"), 61000.0);
}

/// Deterministic two-superstep workload: each rank sends its id to rank 0
/// and charges r+1 units per step.
bool tick(Rank r, const rt::Inbox& in, rt::Outbox& out) {
  (void)in;
  out.charge(r + 1);
  out.send_vec<std::int32_t>(0, 7, {r});
  return out.step() < 1;
}

TEST(TraceRecorder, PhaseAndSuperstepAccounting) {
  rt::Engine eng(3);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);

  {
    obs::PhaseScope outer(rec, "cycle");
    {
      obs::PhaseScope ph(rec, "solve");
      ph.set_modeled_seconds(1.5);
      eng.run(tick);
    }
    obs::PhaseScope idle(rec, "idle");  // no supersteps inside
  }

  ASSERT_EQ(rec.phases().size(), 3u);
  const auto& cycle = rec.phases()[0];
  const auto& solve = rec.phases()[1];
  const auto& idle = rec.phases()[2];
  EXPECT_EQ(cycle.name, "cycle");
  EXPECT_EQ(cycle.depth, 0);
  EXPECT_EQ(solve.depth, 1);
  EXPECT_TRUE(solve.closed);

  // Two supersteps, each charging 1+2+3 = 6 units and sending 3 msgs.
  ASSERT_EQ(rec.supersteps().size(), 2u);
  EXPECT_EQ(solve.supersteps, 2);
  EXPECT_EQ(solve.compute_units, 12);
  EXPECT_EQ(solve.msgs_sent, 6);
  EXPECT_EQ(solve.modeled_s, 1.5);
  // The outer phase saw the same steps; the empty phase saw none.
  EXPECT_EQ(cycle.supersteps, 2);
  EXPECT_EQ(cycle.compute_units, 12);
  EXPECT_EQ(idle.supersteps, 0);

  const auto& st = rec.supersteps()[0];
  EXPECT_EQ(st.step, 0);
  EXPECT_EQ(st.phase, "solve");  // innermost open phase
  ASSERT_EQ(st.ranks.size(), 3u);
  EXPECT_EQ(st.ranks[2].compute_units, 3);
  EXPECT_EQ(st.ranks[2].msgs_sent, 1);
  EXPECT_TRUE(st.has_seconds);

  rec.clear();
  EXPECT_TRUE(rec.phases().empty());
  EXPECT_TRUE(rec.supersteps().empty());
}

TEST(TraceRecorder, DeterministicJsonIdenticalAcrossEngines) {
  auto run = [](rt::Engine& eng) {
    obs::TraceRecorder rec;
    eng.set_observer(&rec);
    obs::PhaseScope ph(rec, "storm");
    eng.run(tick);
    return rec;
  };

  rt::Engine seq(5);
  const std::string want = run(seq).deterministic_json();
  EXPECT_FALSE(want.empty());
  // Wall-clock fields must not leak into the deterministic view.
  EXPECT_EQ(want.find("wall_s"), std::string::npos);
  EXPECT_EQ(want.find("seconds"), std::string::npos);

  for (int threads : {1, 2, 4}) {
    rt::ParallelEngine par(5, threads);
    EXPECT_EQ(run(par).deterministic_json(), want) << "threads=" << threads;
  }
}

TEST(CriticalPath, CounterDecompositionOfTickWorkload) {
  rt::Engine eng(3);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  {
    obs::PhaseScope ph(rec, "solve");
    eng.run(tick);  // 2 supersteps; rank r charges r+1 units each step
  }

  const auto cp =
      obs::analyze_critical_path(rec, obs::PathSource::kCounters);
  EXPECT_EQ(cp.source, obs::PathSource::kCounters);
  ASSERT_EQ(cp.steps.size(), 2u);
  for (const auto& sp : cp.steps) {
    EXPECT_EQ(sp.phase, "solve");
    EXPECT_EQ(sp.critical_rank, 2);  // charges 3 units, the most
    EXPECT_EQ(sp.critical, 3.0);
    EXPECT_EQ(sp.busy, 6.0);            // 1 + 2 + 3
    EXPECT_EQ(sp.wait, 3.0);            // (3-1) + (3-2) + (3-3)
    EXPECT_DOUBLE_EQ(sp.imbalance, 1.5);  // 3 / mean(2)
  }
  EXPECT_EQ(cp.critical_total, 6.0);
  EXPECT_EQ(cp.busy_total, 12.0);
  EXPECT_EQ(cp.wait_total, 6.0);
  EXPECT_DOUBLE_EQ(cp.wait_fraction(), 6.0 / 18.0);

  ASSERT_EQ(cp.ranks.size(), 3u);
  EXPECT_EQ(cp.ranks[0].busy, 2.0);
  EXPECT_EQ(cp.ranks[0].wait, 4.0);
  EXPECT_EQ(cp.ranks[0].steps_critical, 0);
  EXPECT_DOUBLE_EQ(cp.ranks[0].wait_fraction(), 4.0 / 6.0);
  EXPECT_EQ(cp.ranks[2].busy, 6.0);
  EXPECT_EQ(cp.ranks[2].wait, 0.0);
  EXPECT_EQ(cp.ranks[2].steps_critical, 2);
  EXPECT_EQ(cp.ranks[2].wait_fraction(), 0.0);

  ASSERT_EQ(cp.phases.size(), 1u);
  EXPECT_EQ(cp.phases[0].name, "solve");
  EXPECT_EQ(cp.phases[0].supersteps, 2);
  EXPECT_EQ(cp.phases[0].worst_rank, 2);
  EXPECT_EQ(cp.phases[0].worst_rank_steps, 2);

  // The JSON mirror carries the same numbers and no wall-clock vocabulary.
  const std::string json = cp.to_json().dump();
  EXPECT_NE(json.find("\"source\":\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_total\":6"), std::string::npos);
  EXPECT_EQ(json.find("seconds"), std::string::npos);
  EXPECT_EQ(json.find("wall"), std::string::npos);
}

TEST(CriticalPath, TieOnWorkGoesToLowestRankAndEmptyTraceIsZero) {
  // Equal charges: the critical rank must be the lowest (deterministic
  // tie-break), and wait is zero everywhere.
  rt::Engine eng(4);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  eng.run([](Rank, const rt::Inbox&, rt::Outbox& out) {
    out.charge(5);
    return false;
  });
  const auto cp =
      obs::analyze_critical_path(rec, obs::PathSource::kCounters);
  ASSERT_EQ(cp.steps.size(), 1u);
  EXPECT_EQ(cp.steps[0].critical_rank, 0);
  EXPECT_EQ(cp.steps[0].wait, 0.0);
  EXPECT_DOUBLE_EQ(cp.steps[0].imbalance, 1.0);
  EXPECT_EQ(cp.wait_fraction(), 0.0);

  const obs::TraceRecorder empty;
  const auto none =
      obs::analyze_critical_path(empty, obs::PathSource::kCounters);
  EXPECT_TRUE(none.steps.empty());
  EXPECT_TRUE(none.ranks.empty());
  EXPECT_EQ(none.wait_fraction(), 0.0);
}

TEST(CriticalPath, WallSourceUsesMeasuredRankSeconds) {
  rt::Engine eng(3);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  eng.run(tick);

  const auto cp =
      obs::analyze_critical_path(rec, obs::PathSource::kWallClock);
  ASSERT_EQ(cp.steps.size(), 2u);
  // Whatever the scheduler did, the invariants hold: the critical value is
  // the max, busy sums the rank values, and wait is their difference.
  for (const auto& sp : cp.steps) {
    EXPECT_GE(sp.critical, 0.0);
    EXPECT_GE(sp.busy, 0.0);
    EXPECT_NEAR(sp.wait, 3.0 * sp.critical - sp.busy, 1e-12);
  }
  const std::string json = cp.to_json().dump();
  EXPECT_NE(json.find("\"source\":\"wall\""), std::string::npos);
}

TEST(CriticalPath, WindowEqualsRecorderHoldingOnlyThoseSupersteps) {
  // Eight synthetic supersteps over three phases with shifting stragglers;
  // `part` sees only supersteps [2, 6), under the same phases.
  obs::TraceRecorder whole;
  obs::TraceRecorder part;
  constexpr std::size_t kFirst = 2, kLast = 6;
  const char* phase_of[] = {"solve", "solve", "solve", "mark",
                            "mark",  "remap", "remap", "remap"};
  for (std::size_t s = 0; s < 8; ++s) {
    std::vector<rt::StepCounters> counters(4);
    std::vector<double> seconds(4);
    for (std::size_t r = 0; r < 4; ++r) {
      counters[r].compute_units =
          static_cast<std::int64_t>((3 * r + 5 * s) % 7);
      counters[r].msgs_sent = static_cast<std::int64_t>(r);
      seconds[r] = 1e-3 * static_cast<double>((r + s) % 4);
    }
    const int step = static_cast<int>(s);
    const std::size_t a = whole.begin_phase(phase_of[s]);
    whole.on_superstep(step, counters, seconds, 0.01);
    whole.end_phase(a);
    if (s >= kFirst && s < kLast) {
      const std::size_t b = part.begin_phase(phase_of[s]);
      part.on_superstep(step, counters, seconds, 0.01);
      part.end_phase(b);
    }
  }
  for (const auto source :
       {obs::PathSource::kCounters, obs::PathSource::kWallClock}) {
    const auto window =
        obs::analyze_critical_path(whole, source, kFirst, kLast);
    EXPECT_EQ(window.steps.size(), kLast - kFirst);
    EXPECT_EQ(window.to_json().dump(),
              obs::analyze_critical_path(part, source).to_json().dump())
        << obs::path_source_name(source);
  }
  // The default window is the whole trace; an out-of-range one is empty.
  EXPECT_EQ(obs::analyze_critical_path(whole, obs::PathSource::kCounters)
                .to_json()
                .dump(),
            obs::analyze_critical_path(whole, obs::PathSource::kCounters, 0, 8)
                .to_json()
                .dump());
  EXPECT_TRUE(
      obs::analyze_critical_path(whole, obs::PathSource::kCounters, 9, 12)
          .steps.empty());
}

TEST(CriticalPath, EmbeddedInBothTraceSerializations) {
  rt::Engine eng(2);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  eng.run(tick);

  const std::string det = rec.deterministic_json();
  EXPECT_NE(det.find("\"critical_path\""), std::string::npos);
  EXPECT_EQ(det.find("\"critical_path_wall\""), std::string::npos);

  const std::string full = rec.to_json().dump();
  EXPECT_NE(full.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(full.find("\"critical_path_wall\""), std::string::npos);
}

TEST(TraceRecorder, NullRecorderScopesAreNoOps) {
  obs::PhaseScope ph(nullptr, "nothing");
  ph.set_modeled_seconds(3.0);  // must not crash
}

TEST(TraceRecorder, CommMatrixAndTagClassesFromWorkload) {
  rt::Engine eng(3);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  eng.run(tick);  // 2 steps, every rank sends one int32 to rank 0, tag 7

  const rt::CommMatrix& cm = rec.comm_matrix();
  ASSERT_EQ(cm.nranks, 3);
  for (Rank from = 0; from < 3; ++from) {
    EXPECT_EQ(cm.bytes_at(from, 0), 8);  // 4 bytes x 2 supersteps
    EXPECT_EQ(cm.msgs_at(from, 0), 2);
    EXPECT_EQ(cm.bytes_at(from, 1), 0);
    EXPECT_EQ(cm.bytes_at(from, 2), 0);
  }
  EXPECT_EQ(cm.total_bytes(), 24);
  EXPECT_EQ(cm.total_bytes(), eng.ledger().total_bytes());
  EXPECT_EQ(cm, eng.ledger().comm_matrix());

  const auto& by_class = rec.comm_by_class();
  ASSERT_EQ(by_class.size(), 1u);
  ASSERT_TRUE(by_class.count("tag7"));
  EXPECT_EQ(by_class.at("tag7").msgs, 6);
  EXPECT_EQ(by_class.at("tag7").bytes, 24);

  // Both serializations carry the matrix; clear() resets it.
  for (const std::string& json :
       {rec.deterministic_json(), rec.to_json().dump()}) {
    EXPECT_NE(json.find("\"comm_matrix\""), std::string::npos);
    EXPECT_NE(json.find("\"comm_by_class\""), std::string::npos);
    EXPECT_NE(json.find("\"gate_audit\""), std::string::npos);
  }
  rec.clear();
  EXPECT_EQ(rec.comm_matrix().total_bytes(), 0);
  EXPECT_TRUE(rec.comm_by_class().empty());
}

TEST(TraceRecorder, TagClassNames) {
  EXPECT_EQ(obs::tag_class_name(rt::detail::kCollectiveTag), "collective");
  EXPECT_EQ(obs::tag_class_name(0), "bulk");
  EXPECT_EQ(obs::tag_class_name(2), "adapt");
  EXPECT_EQ(obs::tag_class_name(11), "solver");
  EXPECT_EQ(obs::tag_class_name(111), "solver");
  EXPECT_EQ(obs::tag_class_name(21), "migrate");
  EXPECT_EQ(obs::tag_class_name(23), "migrate");
  // Unknown tags fall back to a "tag<N>" bucket instead of aborting, so a
  // new subsystem's traffic still shows up in the per-class split.
  EXPECT_EQ(obs::tag_class_name(42), "tag42");
  EXPECT_EQ(obs::tag_class_name(4), "tag4");     // just past the adapt range
  EXPECT_EQ(obs::tag_class_name(13), "tag13");   // just past the solver tags
  EXPECT_EQ(obs::tag_class_name(24), "tag24");   // just past the migrate tags
  EXPECT_EQ(obs::tag_class_name(-7), "tag-7");   // negative tags too
}

TEST(GateAudit, DriftAndRecordSerialization) {
  // Zero-predicted drift is a deliberate policy, not an accident: a remap
  // the model priced at zero bytes reports drift 0 whether or not anything
  // actually moved, because a non-finite ratio would poison JSON dumps and
  // every mean-drift aggregate downstream (sim::Calibration included).
  EXPECT_EQ(obs::gate_drift(0, 100), 0.0);  // predicted 0, measured > 0
  EXPECT_EQ(obs::gate_drift(0, 0), 0.0);    // predicted 0, measured 0
  EXPECT_DOUBLE_EQ(obs::gate_drift(100, 125), 0.25);
  EXPECT_DOUBLE_EQ(obs::gate_drift(200, 100), -0.5);

  obs::GateRecord rec;
  rec.cycle = 3;
  rec.evaluated = true;
  rec.accepted = true;
  rec.metric = "TotalV";
  rec.imbalance_old = 1.5;
  rec.imbalance_new = 1.0625;
  rec.gain_s = 0.75;
  rec.cost_s = 0.25;
  rec.moved_elems = 40;
  rec.moved_sets = 6;
  rec.predicted_move_bytes = 4096;
  rec.measured_move_bytes = 5120;
  rec.drift = obs::gate_drift(4096, 5120);

  const Json j = obs::gate_record_json(rec);
  // Field order is part of the deterministic byte contract.
  EXPECT_EQ(j.dump(),
            "{\"cycle\":3,\"evaluated\":true,\"accepted\":true,"
            "\"metric\":\"TotalV\",\"imbalance_old\":1.5,"
            "\"imbalance_new\":1.0625,\"gain_s\":0.75,\"cost_s\":0.25,"
            "\"moved_elems\":40,\"moved_sets\":6,"
            "\"predicted_move_bytes\":4096,\"measured_move_bytes\":5120,"
            "\"drift\":0.25}");

  const Json audit = obs::gate_audit_json({rec, obs::GateRecord{}});
  ASSERT_TRUE(audit.is_array());
  ASSERT_EQ(audit.size(), 2u);
  EXPECT_EQ(audit.at(1).find("evaluated")->as_bool(), false);

  // Recorder round-trip: records land in both JSON views.
  obs::TraceRecorder tr;
  tr.add_gate_record(rec);
  ASSERT_EQ(tr.gate_records().size(), 1u);
  EXPECT_EQ(tr.gate_records()[0], rec);
  EXPECT_NE(tr.deterministic_json().find("\"predicted_move_bytes\":4096"),
            std::string::npos);
  tr.clear();
  EXPECT_TRUE(tr.gate_records().empty());
}

TEST(Metrics, GaugeSeriesAppendAndMerge) {
  obs::MetricsRegistry m;
  m.add_sample("imbalance", 1.5);
  m.add_sample("imbalance", 1.25);
  m.add_sample_int("edge_cut", 40);
  m.add_sample_int("edge_cut", 36);
  m.set("speedup", 2.0);

  EXPECT_TRUE(m.is_series("imbalance"));
  EXPECT_FALSE(m.is_series("speedup"));
  EXPECT_EQ(m.series("imbalance"), (std::vector<double>{1.5, 1.25}));
  EXPECT_EQ(m.series("edge_cut"), (std::vector<double>{40.0, 36.0}));
  // Series render as arrays (ints stay integers), scalars as before.
  EXPECT_EQ(m.to_json().dump(),
            R"({"edge_cut":[40,36],"imbalance":[1.5,1.25],"speedup":2})");

  obs::MetricsRegistry dst;
  dst.set_int("elements", 100);
  dst.merge_from(m);
  EXPECT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst.series("imbalance"), m.series("imbalance"));
  EXPECT_EQ(dst.get("elements"), 100.0);
  // merge_from replaces series wholesale (no concatenation).
  dst.merge_from(m);
  EXPECT_EQ(dst.series("edge_cut"), (std::vector<double>{40.0, 36.0}));
}

TEST(Metrics, MergeFromReplacesSeriesAndOverwritesScalars) {
  obs::MetricsRegistry src;
  src.add_sample("imbalance", 1.4);
  src.set("speedup", 3.0);

  obs::MetricsRegistry dst;
  dst.add_sample("imbalance", 9.0);  // longer, stale series
  dst.add_sample("imbalance", 8.0);
  dst.add_sample("imbalance", 7.0);
  dst.set("speedup", 1.0);
  dst.merge_from(src);
  // Replacement semantics: the destination's series is discarded, not
  // appended to — the merged registry reads exactly like the source.
  EXPECT_EQ(dst.series("imbalance"), (std::vector<double>{1.4}));
  EXPECT_EQ(dst.get("speedup"), 3.0);
  // Names only the destination had survive untouched.
  dst.set_int("only_here", 5);
  dst.merge_from(src);
  EXPECT_EQ(dst.get("only_here"), 5.0);
}

TEST(Metrics, HistogramCountsQuantilesAndOverflow) {
  obs::MetricsRegistry m;
  m.define_histogram("lat", {0.1, 1.0, 10.0});
  EXPECT_TRUE(m.is_histogram("lat"));
  EXPECT_FALSE(m.is_series("lat"));
  EXPECT_EQ(m.hist_count("lat"), 0);
  EXPECT_EQ(m.hist_quantile("lat", 0.5), 0.0);  // empty -> 0

  for (const double v : {0.05, 0.07, 0.5, 2.0, 3.0, 4.0}) {
    m.add_hist_sample("lat", v);
  }
  EXPECT_EQ(m.hist_count("lat"), 6);
  EXPECT_EQ(m.hist_max("lat"), 4.0);
  // Buckets: (<=0.1)=2, (<=1)=1, (<=10)=3, overflow=0. Quantiles render as
  // bucket upper bounds: the 3rd of 6 samples sits in the <=1.0 bucket.
  EXPECT_EQ(m.hist_quantile("lat", 0.5), 1.0);
  EXPECT_EQ(m.hist_quantile("lat", 0.95), 10.0);
  EXPECT_EQ(m.hist_quantile("lat", 0.01), 0.1);

  // Overflow samples report the tracked max, not a bound.
  m.add_hist_sample("lat", 1000.0);
  EXPECT_EQ(m.hist_quantile("lat", 1.0), 1000.0);
  EXPECT_EQ(m.hist_max("lat"), 1000.0);

  // Redefinition is a no-op: bounds and samples survive. With 7 samples
  // the 4th now sits in the <=10.0 bucket.
  m.define_histogram("lat", {99.0});
  EXPECT_EQ(m.hist_count("lat"), 7);
  EXPECT_EQ(m.hist_quantile("lat", 0.5), 10.0);
}

TEST(Metrics, HistogramJsonAndDeterministicView) {
  obs::MetricsRegistry m;
  m.set("speedup", 2.0);
  m.define_histogram("work", {1.0, 2.0});
  m.add_hist_sample("work", 1.5);
  m.define_histogram("step_s", {0.5}, /*wall_clock=*/true);
  m.add_hist_sample("step_s", 0.25);

  const std::string full = m.to_json().dump();
  EXPECT_NE(full.find("\"work\":{\"histogram\":true,\"wall\":false"),
            std::string::npos)
      << full;
  EXPECT_NE(full.find("\"step_s\":{\"histogram\":true,\"wall\":true"),
            std::string::npos)
      << full;
  EXPECT_NE(full.find("\"counts\":[0,1,0]"), std::string::npos) << full;

  // The deterministic view drops wall-clock histograms and nothing else.
  const std::string det = m.deterministic_json().dump();
  EXPECT_EQ(det.find("step_s"), std::string::npos) << det;
  EXPECT_NE(det.find("\"work\""), std::string::npos);
  EXPECT_NE(det.find("\"speedup\""), std::string::npos);

  // Histograms merge by replacement, like series.
  obs::MetricsRegistry dst;
  dst.define_histogram("work", {1.0, 2.0});
  dst.add_hist_sample("work", 0.5);
  dst.merge_from(m);
  EXPECT_EQ(dst.hist_count("work"), 1);
  EXPECT_EQ(dst.hist_max("work"), 1.5);
}

Json valid_report() {
  Json phase = Json::object();
  phase.set("name", Json::str("solve"))
      .set("wall_s", Json::number(0.25))
      .set("modeled_s", Json::number(0.5))
      .set("supersteps", Json::integer(7));
  Json run = Json::object();
  run.set("case", Json::str("Real_1"))
      .set("P", Json::integer(8))
      .set("metrics",
           Json::object().set("speedup", Json::number(9.3)))
      .set("phases", Json::array().push(std::move(phase)));
  Json doc = Json::object();
  doc.set("schema", Json::str("plum-bench/2"))
      .set("bench", Json::str("bench_fig4"))
      .set("runs", Json::array().push(std::move(run)));
  return doc;
}

TEST(BenchSchema, AcceptsValidReport) {
  EXPECT_EQ(obs::validate_bench_report(valid_report()), "");
}

TEST(BenchSchema, RejectsViolations) {
  EXPECT_NE(obs::validate_bench_report(Json::integer(3)), "");
  EXPECT_NE(obs::validate_bench_report(Json::object()), "");

  {
    Json doc = valid_report();
    doc.set("schema", Json::str("plum-bench/99"));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_report();
    doc.set("runs", Json::array());  // empty runs
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_report();
    Json run = doc.find("runs")->at(0);
    run.set("P", Json::integer(0));  // P < 1
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_report();
    Json run = doc.find("runs")->at(0);
    run.set("metrics",
            Json::object().set("oops", Json::str("not a number")));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_report();
    Json run = doc.find("runs")->at(0);
    Json phase = Json::object();
    phase.set("name", Json::str("solve"));  // missing wall_s etc.
    run.set("phases", Json::array().push(std::move(phase)));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
}

Json valid_v2_report() {
  Json doc = valid_report();
  Json run = doc.find("runs")->at(0);
  // Gauge series: arrays of numbers.
  Json metrics = *run.find("metrics");
  metrics.set("imbalance",
              Json::array().push(Json::number(1.5)).push(Json::number(1.1)));
  metrics.set("edge_cut",
              Json::array().push(Json::integer(40)).push(Json::integer(36)));
  run.set("metrics", std::move(metrics));
  // 2x2 comm matrix with matching msgs/bytes shapes.
  auto row = [](std::int64_t a, std::int64_t b) {
    return Json::array().push(Json::integer(a)).push(Json::integer(b));
  };
  Json cm = Json::object();
  cm.set("nranks", Json::integer(2))
      .set("msgs", Json::array().push(row(0, 1)).push(row(1, 0)))
      .set("bytes", Json::array().push(row(0, 8)).push(row(16, 0)));
  run.set("comm_matrix", std::move(cm));
  obs::GateRecord g;
  g.cycle = 0;
  g.evaluated = true;
  g.accepted = true;
  g.metric = "MaxV";
  g.predicted_move_bytes = 10;
  g.measured_move_bytes = 12;
  g.drift = obs::gate_drift(10, 12);
  run.set("gate_audit", obs::gate_audit_json({g}));
  doc.set("runs", Json::array().push(std::move(run)));
  return doc;
}

TEST(BenchSchema, V2AcceptsGaugesCommMatrixAndGateAudit) {
  EXPECT_EQ(obs::validate_bench_report(valid_v2_report()), "");
}

TEST(BenchSchema, V2OnlyFieldsRejectedUnderV1) {
  // No writer emits schema v1 any more: a v1 document is rejected whole,
  // with a message naming the one accepted version.
  Json doc = valid_v2_report();
  doc.set("schema", Json::str("plum-bench/1"));
  const std::string err = obs::validate_bench_report(doc);
  EXPECT_NE(err, "");
  EXPECT_NE(err.find("plum-bench/2"), std::string::npos) << err;
}

TEST(BenchSchema, V2RejectsMalformedCommMatrixAndGateAudit) {
  {
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json cm = *run.find("comm_matrix");
    cm.set("nranks", Json::integer(3));  // rows no longer match nranks
    run.set("comm_matrix", std::move(cm));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json cm = *run.find("comm_matrix");
    // Rebuild the byte rows with a negative count in (0,1).
    Json bad_row = Json::array().push(Json::integer(0)).push(Json::integer(-5));
    Json rebuilt =
        Json::array().push(std::move(bad_row)).push(cm.find("bytes")->at(1));
    cm.set("bytes", std::move(rebuilt));
    run.set("comm_matrix", std::move(cm));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json bad = Json::object();
    bad.set("cycle", Json::integer(0));  // missing decision/cost fields
    run.set("gate_audit", Json::array().push(std::move(bad)));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
}

TEST(BenchSchema, V2AcceptsHistogramsAndCriticalPath) {
  // Build the document the real producers build: a registry histogram and
  // a recorder's counter-sourced critical path, both through JsonReport.
  rt::Engine eng(2);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  eng.run(tick);

  obs::MetricsRegistry m;
  m.define_histogram("rank_wait_fraction", {0.1, 0.5, 1.0});
  m.add_hist_sample("rank_wait_fraction", 0.25);

  Json doc = valid_v2_report();
  Json run = doc.find("runs")->at(0);
  Json metrics = *run.find("metrics");
  metrics.set("rank_wait_fraction",
              *m.to_json().find("rank_wait_fraction"));
  run.set("metrics", std::move(metrics));
  run.set("critical_path",
          obs::analyze_critical_path(rec, obs::PathSource::kCounters)
              .to_json());
  doc.set("runs", Json::array().push(std::move(run)));
  EXPECT_EQ(obs::validate_bench_report(doc), "") << doc.dump(2);
}

TEST(BenchSchema, V2RejectsMalformedHistogramAndCriticalPath) {
  {
    // counts must have bounds+1 buckets.
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json h = Json::object();
    h.set("histogram", Json::boolean(true))
        .set("wall", Json::boolean(false))
        .set("count", Json::integer(1))
        .set("max", Json::number(1.0))
        .set("p50", Json::number(1.0))
        .set("p95", Json::number(1.0))
        .set("bounds", Json::array().push(Json::number(1.0)))
        .set("counts", Json::array().push(Json::integer(1)));  // needs 2
    Json metrics = *run.find("metrics");
    metrics.set("bad_hist", std::move(h));
    run.set("metrics", std::move(metrics));
    doc.set("runs", Json::array().push(std::move(run)));
    const std::string err = obs::validate_bench_report(doc);
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("bad_hist"), std::string::npos) << err;
  }
  {
    // critical_path must carry its totals and section arrays.
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json cp = Json::object();
    cp.set("source", Json::str("counters"));  // missing everything else
    run.set("critical_path", std::move(cp));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
}

/// The shape sim::Calibration::to_json() emits (plum-calibration/1); built
/// by hand here because obs must not depend on sim.
Json valid_calibration_section() {
  Json params = Json::object();
  params.set("t_iter", Json::number(65e-6))
      .set("t_refine", Json::number(190e-6))
      .set("t_lat", Json::number(2.4e-6))
      .set("t_setup", Json::number(80e-6))
      .set("bytes_per_element", Json::number(720.0))
      .set("bytes_per_set", Json::number(96.0))
      .set("gate_margin", Json::number(1.0));
  Json cal = Json::object();
  cal.set("schema", Json::str("plum-calibration/1"))
      .set("enabled", Json::boolean(true))
      .set("cycles_observed", Json::integer(3))
      .set("remap_samples", Json::integer(2))
      .set("mean_abs_drift", Json::number(0.12))
      .set("params", std::move(params))
      .set("rank_weight_scale",
           Json::array().push(Json::number(1.0)).push(Json::number(1.25)));
  return cal;
}

TEST(BenchSchema, V2AcceptsCalibrationSectionAndGateRegressors) {
  Json doc = valid_v2_report();
  Json run = doc.find("runs")->at(0);
  run.set("calibration", valid_calibration_section());
  // Gate records may carry the calibration regressors.
  obs::GateRecord g;
  g.cycle = 1;
  g.evaluated = true;
  g.accepted = true;
  g.metric = "TotalV";
  g.moved_elems = 500;
  g.moved_sets = 12;
  g.predicted_move_bytes = 360960;
  g.measured_move_bytes = 401000;
  g.drift = obs::gate_drift(g.predicted_move_bytes, g.measured_move_bytes);
  run.set("gate_audit", obs::gate_audit_json({g}));
  doc.set("runs", Json::array().push(std::move(run)));
  EXPECT_EQ(obs::validate_bench_report(doc), "") << doc.dump(2);
}

TEST(BenchSchema, V2RejectsMalformedCalibration) {
  {
    // Wrong embedded schema tag.
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json cal = valid_calibration_section();
    cal.set("schema", Json::str("plum-calibration/2"));
    run.set("calibration", std::move(cal));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    // Params must carry every calibrated constant.
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json cal = valid_calibration_section();
    Json params = *cal.find("params");
    params.set("gate_margin", Json::str("wide"));
    cal.set("params", std::move(params));
    run.set("calibration", std::move(cal));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
  {
    // Negative regressors in the gate audit are invalid.
    Json doc = valid_v2_report();
    Json run = doc.find("runs")->at(0);
    Json rec = run.find("gate_audit")->at(0);
    rec.set("moved_sets", Json::integer(-3));
    run.set("gate_audit", Json::array().push(std::move(rec)));
    doc.set("runs", Json::array().push(std::move(run)));
    EXPECT_NE(obs::validate_bench_report(doc), "");
  }
}

TEST(ChromeTrace, ParsesAndCoversPhasesAndRanks) {
  rt::Engine eng(2);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  {
    obs::PhaseScope ph(rec, "solve");
    eng.run(tick);
  }

  const Json doc = obs::chrome_trace_json(rec, "unit test");
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int phase_spans = 0, rank_spans = 0, wait_spans = 0, meta = 0,
      counters = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& ev = events->at(i);
    const std::string ph = ev.find("ph")->as_string();
    if (ph == "M") {
      ++meta;
      continue;
    }
    if (ph == "C") {
      // Per-superstep traffic counter track.
      ++counters;
      ASSERT_NE(ev.find("ts"), nullptr);
      const Json* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("msgs"), nullptr);
      ASSERT_NE(args->find("bytes"), nullptr);
      continue;
    }
    ASSERT_EQ(ph, "X");
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("dur"), nullptr);
    if (ev.find("tid")->as_int() == 0) {
      ++phase_spans;
    } else if (ev.find("name")->as_string() == "wait") {
      ++wait_spans;
      const Json* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("critical_rank"), nullptr);
      ASSERT_NE(args->find("wait_s"), nullptr);
    } else {
      ++rank_spans;
    }
  }
  EXPECT_EQ(phase_spans, 1);
  EXPECT_EQ(rank_spans, 2 * 2);  // 2 supersteps x 2 ranks
  EXPECT_EQ(wait_spans, 2 * 1);  // per superstep, every non-critical rank
  EXPECT_EQ(counters, 2);        // one traffic counter event per superstep
  EXPECT_GE(meta, 3);            // process_name + >= 2 thread_names

  // Round-trips through the strict parser.
  Json back;
  std::string err;
  EXPECT_TRUE(Json::parse(doc.dump(2), &back, &err)) << err;
}

TEST(JsonReport, WritesValidatedFileHonoringDirOverride) {
  const std::string dir = testing::TempDir();
  ASSERT_EQ(setenv("PLUM_BENCH_JSON_DIR", dir.c_str(), 1), 0);

  bench::JsonReport report("unit");
  report.add_run("caseA", 4)
      .metric("speedup", 2.5)
      .metric_int("elements", 123)
      .phase("solve", 0.1, 0.2, 3);

  const std::string path = report.write();
  ASSERT_NE(unsetenv("PLUM_BENCH_JSON_DIR"), -1);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path, dir + "/BENCH_unit.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  Json doc;
  std::string err;
  ASSERT_TRUE(Json::parse(buf.str(), &doc, &err)) << err;
  EXPECT_EQ(obs::validate_bench_report(doc), "");
  EXPECT_EQ(doc.find("bench")->as_string(), "unit");
  const Json& run = doc.find("runs")->at(0);
  EXPECT_EQ(run.find("case")->as_string(), "caseA");
  EXPECT_EQ(run.find("P")->as_int(), 4);
  EXPECT_EQ(run.find("metrics")->find("elements")->as_int(), 123);
  EXPECT_EQ(run.find("phases")->at(0).find("supersteps")->as_int(), 3);
}

TEST(JsonReport, RefusesToWriteInvalidReport) {
  bench::JsonReport report("empty");  // no runs -> schema violation
  EXPECT_EQ(report.write(), "");
}

// --- plum-scope: flight recorder, live stream records, postmortems ----------

TEST(FlightRecorder, RingOverwritesOldestKeepingNewestEvents) {
  obs::FlightRecorder rec(2, /*capacity=*/4);
  auto handles = rec.handles();
  ASSERT_EQ(handles.size(), 2u);
  for (int i = 0; i < 10; ++i) handles[0].record_event(i, i * 100);
  handles[1].record_event(7, 42);

  EXPECT_EQ(rec.events_recorded(0), 10u);
  EXPECT_EQ(rec.events_recorded(1), 1u);
  const auto ev0 = rec.last_events(0);
  ASSERT_EQ(ev0.size(), 4u);  // capacity events survive, oldest first
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ev0[static_cast<std::size_t>(i)].step, 6 + i);
    EXPECT_EQ(ev0[static_cast<std::size_t>(i)].ticks, (6 + i) * 100);
    EXPECT_EQ(ev0[static_cast<std::size_t>(i)].rank, 0);
  }
  ASSERT_EQ(rec.last_events(1).size(), 1u);
  EXPECT_EQ(rec.last_events(1)[0].ticks, 42);

  rec.clear();
  EXPECT_EQ(rec.events_recorded(0), 0u);
  EXPECT_TRUE(rec.last_events(0).empty());
  EXPECT_EQ(rec.capacity(), 4);  // capacity survives a clear
}

TEST(FlightRecorder, PhaseStampingInternsNamesOnce) {
  obs::FlightRecorder rec(1, 8);
  auto h = rec.handles();
  h[0].record_event(0, 1);  // outside any phase
  rec.set_phase("solve");
  h[0].record_event(1, 1);
  rec.set_phase("mark");
  h[0].record_event(2, 1);
  rec.set_phase("solve");  // re-entering reuses the interned id
  h[0].record_event(3, 1);
  rec.clear_phase();
  h[0].record_event(4, 1);

  const auto ev = rec.last_events(0);
  ASSERT_EQ(ev.size(), 5u);
  EXPECT_EQ(ev[0].phase, -1);
  EXPECT_EQ(ev[1].phase, 0);
  EXPECT_EQ(ev[2].phase, 1);
  EXPECT_EQ(ev[3].phase, 0);
  EXPECT_EQ(ev[4].phase, -1);
  ASSERT_EQ(rec.phase_names().size(), 2u);
  EXPECT_EQ(rec.phase_names()[0], "solve");
  EXPECT_EQ(rec.phase_names()[1], "mark");
}

TEST(FlightRecorder, DeterministicJsonExcludesWallClock) {
  auto fill = [](std::int64_t wall) {
    obs::FlightRecorder rec(2, 4);
    auto h = rec.handles();
    rec.set_phase("solve");
    h[0].record_event(0, 10, wall);
    h[1].record_event(0, 20, wall * 3);
    return rec;
  };
  const obs::FlightRecorder fast = fill(1);
  const obs::FlightRecorder slow = fill(999999);
  // The full forensic view carries the differing wall clocks...
  EXPECT_NE(fast.to_json().dump(), slow.to_json().dump());
  EXPECT_NE(fast.to_json().dump().find("wall_ns"), std::string::npos);
  // ...but the deterministic view is byte-identical and wall-free.
  EXPECT_EQ(fast.deterministic_json().dump(), slow.deterministic_json().dump());
  EXPECT_EQ(fast.deterministic_json().dump().find("wall_ns"),
            std::string::npos);
}

Json valid_scope_record() {
  Json gate = Json::object();
  gate.set("evaluated", Json::boolean(true))
      .set("accepted", Json::boolean(false));
  Json ranks = Json::array();
  for (int r = 0; r < 2; ++r) {
    Json rk = Json::object();
    rk.set("rank", Json::integer(r))
        .set("busy", Json::integer(10 + r))
        .set("wait", Json::integer(2 - r));
    ranks.push(std::move(rk));
  }
  Json rec = Json::object();
  rec.set("schema", Json::str("plum-scope/1"))
      .set("name", Json::str("unit"))
      .set("cycle", Json::integer(0))
      .set("supersteps", Json::integer(12))
      .set("elements", Json::integer(500))
      .set("imbalance", Json::number(1.25))
      .set("wall_s", Json::number(0.25))
      .set("gate", std::move(gate))
      .set("ranks", std::move(ranks));
  return rec;
}

TEST(ScopeSchema, AcceptsRecordAndRejectsViolations) {
  EXPECT_EQ(obs::validate_scope_record(valid_scope_record()), "");

  {
    Json bad = valid_scope_record();
    bad.set("schema", Json::str("plum-scope/2"));
    EXPECT_NE(obs::validate_scope_record(bad), "");
  }
  {
    Json bad = valid_scope_record();
    bad.set("name", Json::str(""));
    EXPECT_NE(obs::validate_scope_record(bad), "");
  }
  {
    Json bad = valid_scope_record();
    bad.set("cycle", Json::integer(-1));
    EXPECT_NE(obs::validate_scope_record(bad), "");
  }
  {
    Json bad = valid_scope_record();
    bad.set("gate", Json::object().set("evaluated", Json::boolean(true)));
    EXPECT_NE(obs::validate_scope_record(bad), "");  // accepted missing
  }
  {
    Json bad = valid_scope_record();
    Json rk = bad.find("ranks")->at(0);
    rk.set("busy", Json::integer(-3));
    bad.set("ranks", Json::array().push(std::move(rk)));
    EXPECT_NE(obs::validate_scope_record(bad), "");
  }
}

TEST(ScopeStreamWriter, AppendsOneValidatedLinePerRecord) {
  const std::string path = testing::TempDir() + "scope_stream_unit.ndjson";
  std::remove(path.c_str());
  {
    obs::ScopeStreamWriter w(path);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE(w.append(valid_scope_record()));
    Json second = valid_scope_record();
    second.set("cycle", Json::integer(1));
    EXPECT_TRUE(w.append(second));
  }
  // A second writer appends rather than truncates — exactly what a
  // multi-sweep bench run relies on.
  {
    obs::ScopeStreamWriter w(path);
    ASSERT_TRUE(w.ok());
    Json third = valid_scope_record();
    third.set("cycle", Json::integer(2));
    EXPECT_TRUE(w.append(third));
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    Json rec;
    std::string err;
    ASSERT_TRUE(Json::parse(line, &rec, &err)) << err;
    EXPECT_EQ(obs::validate_scope_record(rec), "");
    EXPECT_EQ(rec.find("cycle")->as_int(), n);
    ++n;
  }
  EXPECT_EQ(n, 3);
  std::remove(path.c_str());
}

TEST(Postmortem, BuilderEmitsValidatedDocument) {
  obs::FlightRecorder rec(2, 4);
  auto h = rec.handles();
  h[0].record_event(0, 5, 123);
  h[1].record_event(0, 7, 456);

  obs::PostmortemConfig cfg;
  cfg.name = "unit";
  cfg.recorder = &rec;
  const Json doc = obs::postmortem_json(cfg, "x == y", "file.cpp", 42, "boom");

  EXPECT_EQ(obs::validate_postmortem(doc), "");
  EXPECT_EQ(doc.find("name")->as_string(), "unit");
  EXPECT_EQ(doc.find("reason")->find("expr")->as_string(), "x == y");
  EXPECT_EQ(doc.find("reason")->find("line")->as_int(), 42);
  EXPECT_EQ(doc.find("reason")->find("msg")->as_string(), "boom");
  const Json* scope = doc.find("scope");
  ASSERT_NE(scope, nullptr);
  EXPECT_EQ(scope->find("ranks")->size(), 2u);
  // Postmortems keep wall clocks: forensic output, never diffed.
  EXPECT_NE(doc.dump().find("wall_ns"), std::string::npos);

  {
    Json bad = doc;
    bad.set("schema", Json::str("plum-bench/2"));
    EXPECT_NE(obs::validate_postmortem(bad), "");
  }
  {
    Json bad = doc;
    bad.set("reason", Json::object());  // expr/file/line/msg all missing
    EXPECT_NE(obs::validate_postmortem(bad), "");
  }
  {
    Json bad = doc;
    bad.set("reason", Json::object()
                          .set("expr", Json::str("x == y"))
                          .set("file", Json::str("file.cpp"))
                          .set("line", Json::integer(-1))
                          .set("msg", Json::str("boom")));
    EXPECT_NE(obs::validate_postmortem(bad), "");  // negative line
  }
  {
    Json bad = doc;
    bad.set("name", Json::str(""));
    EXPECT_NE(obs::validate_postmortem(bad), "");
  }
  {
    Json bad = doc;
    bad.set("scope", Json::object());  // capacity/nranks/ranks missing
    EXPECT_NE(obs::validate_postmortem(bad), "");
  }
}

TEST(Metrics, WallSeriesMarkedAndExcludedFromDeterministicView) {
  obs::MetricsRegistry m;
  m.add_sample("imbalance", 1.5);
  m.add_wall_sample_int("vm_rss_bytes", 100);
  m.add_wall_sample_int("vm_rss_bytes", 250);
  m.add_wall_sample("rss_growth", 0.5);

  const Json full = m.to_json();
  const Json* wall = full.find("vm_rss_bytes");
  ASSERT_NE(wall, nullptr);
  ASSERT_TRUE(wall->is_object());
  EXPECT_TRUE(wall->find("series")->as_bool());
  EXPECT_TRUE(wall->find("wall")->as_bool());
  ASSERT_EQ(wall->find("samples")->size(), 2u);
  EXPECT_EQ(wall->find("samples")->at(1).as_int(), 250);

  // Deterministic view drops every wall-marked series, nothing else.
  const Json det = m.deterministic_json();
  EXPECT_EQ(det.find("vm_rss_bytes"), nullptr);
  EXPECT_EQ(det.find("rss_growth"), nullptr);
  ASSERT_NE(det.find("imbalance"), nullptr);
}

TEST(BenchSchema, V2AcceptsWallSeriesObjects) {
  Json doc = valid_v2_report();
  Json run = doc.find("runs")->at(0);
  Json metrics = *run.find("metrics");
  metrics.set("vm_rss_bytes",
              Json::object()
                  .set("series", Json::boolean(true))
                  .set("wall", Json::boolean(true))
                  .set("samples", Json::array()
                                      .push(Json::integer(100))
                                      .push(Json::integer(250))));
  run.set("metrics", std::move(metrics));
  doc.set("runs", Json::array().push(std::move(run)));
  EXPECT_EQ(obs::validate_bench_report(doc), "");
}

TEST(RunSchema, AcceptsRunDocAndRejectsViolations) {
  rt::Engine eng(2);
  obs::TraceRecorder rec;
  eng.set_observer(&rec);
  eng.run(tick);
  Json doc = Json::object();
  doc.set("schema", Json::str("plum-run/1"))
      .set("name", Json::str("tick P=2"))
      .set("trace", rec.to_json())
      .set("metrics", obs::MetricsRegistry().to_json());
  EXPECT_EQ(obs::validate_run_doc(doc), "") << doc.dump(2);

  {
    Json bad = doc;
    bad.set("schema", Json::str("plum-run/2"));
    EXPECT_NE(obs::validate_run_doc(bad), "");
  }
  {
    Json bad = doc;
    bad.set("trace", Json::object());  // no phases / supersteps
    EXPECT_NE(obs::validate_run_doc(bad), "");
  }
  {
    Json bad = doc;
    Json trace = *doc.find("trace");
    trace.set("heap", Json::object().set("schema", Json::str("plum-heap/1")));
    bad.set("trace", std::move(trace));
    const std::string err = obs::validate_run_doc(bad);
    EXPECT_NE(err.find("heap section"), std::string::npos) << err;
  }
}

// --------------------------------------------------------------- plum-mem

TEST(Arena, AlignmentAndBumpReuseAfterReset) {
  obs::Arena arena(1024);
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  void* c = arena.allocate(16, 16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 16, 0u);
  EXPECT_EQ(arena.live_bytes(), 3 + 8 + 16);
  EXPECT_EQ(arena.chunk_count(), 1u);

  // reset() rewinds: the same chunk is handed out again, no new chunk.
  arena.reset();
  EXPECT_EQ(arena.live_bytes(), 0);
  EXPECT_EQ(arena.allocate(3, 1), a);
  EXPECT_EQ(arena.chunk_count(), 1u);
}

TEST(Arena, PeakSurvivesReset) {
  obs::Arena arena(256);
  arena.allocate(100, 8);
  arena.allocate(100, 8);
  EXPECT_EQ(arena.peak_live_bytes(), 200);
  arena.reset();
  EXPECT_EQ(arena.live_bytes(), 0);
  EXPECT_EQ(arena.peak_live_bytes(), 200);
  arena.allocate(50, 8);
  EXPECT_EQ(arena.peak_live_bytes(), 200);  // below the old high water
}

TEST(Arena, OversizedAndOveralignedGetDedicatedBlocksFreedOnReset) {
  obs::Arena arena(128);
  EXPECT_NE(arena.allocate(4096, 8), nullptr);  // > chunk size
  EXPECT_EQ(arena.oversized_count(), 1u);
  void* aligned = arena.allocate(64, 128);  // beyond max_align_t
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(aligned) % 128, 0u);
  EXPECT_EQ(arena.oversized_count(), 2u);
  arena.reset();
  EXPECT_EQ(arena.oversized_count(), 0u);
}

TEST(TrackingAllocator, CountsThroughTapOnArenaAndHeapPaths) {
  obs::MemoryTracker mem(2);
  {
    obs::TrackedVec<std::int64_t> v{
        obs::TrackingAllocator<std::int64_t>{mem.scratch(0)}};
    v.reserve(8);
    EXPECT_EQ(mem.stats(0, -1).allocs, 1);
    EXPECT_EQ(mem.stats(0, -1).bytes_requested, 64);
    EXPECT_EQ(mem.live_bytes(0), 64);
  }
  EXPECT_EQ(mem.stats(0, -1).frees, 1);
  EXPECT_EQ(mem.live_bytes(0), 0);
  EXPECT_EQ(mem.arena(0).peak_live_bytes(), 64);

  // Heap path (no arena bound): identical counting on rank 1's row.
  obs::MemScratch heap_scratch = mem.scratch(1);
  heap_scratch.arena = nullptr;
  {
    obs::TrackedVec<std::int64_t> v{
        obs::TrackingAllocator<std::int64_t>{heap_scratch}};
    v.reserve(8);
    EXPECT_EQ(mem.stats(1, -1).allocs, 1);
    EXPECT_EQ(mem.stats(1, -1).bytes_requested, 64);
  }
  EXPECT_EQ(mem.stats(1, -1).frees, 1);
  EXPECT_EQ(mem.live_bytes(1), 0);
  EXPECT_EQ(mem.arena(1).peak_live_bytes(), 0);  // never touched
}

TEST(TrackingAllocator, RebindSharesSourceAndPropagatesOnMove) {
  obs::MemoryTracker mem(1);
  const obs::TrackingAllocator<std::int64_t> a{mem.scratch(0)};
  const obs::TrackingAllocator<char> rebound(a);  // converting ctor
  EXPECT_TRUE(a == rebound);  // same arena => interchangeable
  const obs::TrackingAllocator<std::int64_t> plain;
  EXPECT_TRUE(a != plain);

  // propagate_on_container_move_assignment: the allocator travels with the
  // storage, so arena-backed contents land intact in a default-allocated
  // destination.
  obs::TrackedVec<std::int64_t> src{
      obs::TrackingAllocator<std::int64_t>{mem.scratch(0)}};
  src.assign(16, 7);
  obs::TrackedVec<std::int64_t> dst;
  dst = std::move(src);
  EXPECT_TRUE(dst.get_allocator() == a);
  ASSERT_EQ(dst.size(), 16u);
  EXPECT_EQ(dst.back(), 7);
}

TEST(MemoryTracker, PhaseAttributionHostRowAndClear) {
  obs::MemoryTracker mem(2);
  mem.set_phase("alpha");
  {
    obs::TrackedVec<char> v(100, 'x',
                            obs::TrackingAllocator<char>{mem.scratch(0)});
  }
  mem.set_phase("beta");
  {
    obs::TrackedVec<char> v(40, 'y',
                            obs::TrackingAllocator<char>{mem.host_scratch()});
  }
  mem.clear_phase();
  {
    obs::TrackedVec<char> v(8, 'z',
                            obs::TrackingAllocator<char>{mem.scratch(1)});
  }

  ASSERT_EQ(mem.phase_names().size(), 2u);
  EXPECT_EQ(mem.phase_names()[0], "alpha");
  EXPECT_EQ(mem.stats(0, 0).allocs, 1);
  EXPECT_EQ(mem.stats(0, 0).bytes_requested, 100);
  EXPECT_EQ(mem.stats(0, 0).frees, 1);  // freed while alpha was open
  EXPECT_EQ(mem.stats(0, 0).peak_live_bytes, 100);
  EXPECT_EQ(mem.stats(2, 1).allocs, 1);  // host row, phase beta
  EXPECT_EQ(mem.stats(2, 1).bytes_requested, 40);
  EXPECT_EQ(mem.stats(1, -1).allocs, 1);  // unphased bucket
  EXPECT_EQ(mem.total_live_bytes(), 0);

  // Re-opening a phase reuses the interned id instead of minting a new one.
  mem.set_phase("alpha");
  EXPECT_EQ(mem.phase_names().size(), 2u);

  mem.clear();
  EXPECT_TRUE(mem.phase_names().empty());
  EXPECT_EQ(mem.stats(0, 0).allocs, 0);
}

TEST(MemoryTracker, HeapJsonValidatesAndOnlyWallViewCarriesRss) {
  obs::MemoryTracker mem(2);
  mem.set_phase("alpha");
  {
    obs::TrackedVec<char> v(64, 'x',
                            obs::TrackingAllocator<char>{mem.scratch(0)});
  }
  mem.clear_phase();

  const Json det = mem.deterministic_json();
  EXPECT_EQ(obs::validate_heap_section(det), "");
  EXPECT_EQ(det.find("rss"), nullptr);
  ASSERT_EQ(det.find("rows")->size(), 3u);  // 2 ranks + host
  EXPECT_EQ(det.find("rows")->at(2).find("rank")->as_int(), -1);

  const Json full = mem.to_json();
  EXPECT_EQ(obs::validate_heap_section(full), "");
  ASSERT_NE(full.find("rss"), nullptr);
  EXPECT_GT(full.find("rss")->find("vm_rss_bytes")->as_int(), 0);
}

TEST(MemoryTracker, ValidateHeapSectionRejectsViolations) {
  obs::MemoryTracker mem(1);
  const Json good = mem.deterministic_json();
  ASSERT_EQ(obs::validate_heap_section(good), "");
  {
    Json bad = good;
    bad.set("schema", Json::str("plum-heap/2"));
    EXPECT_NE(obs::validate_heap_section(bad), "");
  }
  {
    Json bad = good;
    bad.set("rows", Json::array());  // row count must be nranks + 1
    EXPECT_NE(obs::validate_heap_section(bad), "");
  }
  {
    Json bad = good;
    Json row = bad.find("rows")->at(0);
    row.set("rank", Json::integer(5));  // out of order / out of range
    Json rows = Json::array();
    rows.push(std::move(row));
    rows.push(bad.find("rows")->at(1));
    bad.set("rows", std::move(rows));
    EXPECT_NE(obs::validate_heap_section(bad), "");
  }
}

TEST(ScopeTail, LatestStreamRecordTriState) {
  const std::string rec = valid_scope_record().dump();
  Json out;

  // No bytes at all.
  EXPECT_EQ(obs::latest_stream_record("", &out), obs::TailStatus::kNone);
  EXPECT_EQ(obs::latest_stream_record("\n", &out), obs::TailStatus::kNone);

  // A complete record, with and without newer torn tails.
  EXPECT_EQ(obs::latest_stream_record(rec + "\n", &out),
            obs::TailStatus::kRecord);
  EXPECT_EQ(out.find("cycle")->as_int(), 0);

  Json newer = valid_scope_record();
  newer.set("cycle", Json::integer(3));
  const std::string two = rec + "\n" + newer.dump() + "\n";
  EXPECT_EQ(obs::latest_stream_record(two, &out), obs::TailStatus::kRecord);
  EXPECT_EQ(out.find("cycle")->as_int(), 3);  // newest wins

  // Mid-append tail (no trailing newline): the older complete record is
  // served; the torn bytes are ignored.
  const std::string torn = two + rec.substr(0, rec.size() / 2);
  EXPECT_EQ(obs::latest_stream_record(torn, &out), obs::TailStatus::kRecord);
  EXPECT_EQ(out.find("cycle")->as_int(), 3);

  // Only torn bytes: kPartial (retryable), never kNone and never a parse
  // error escaping.
  EXPECT_EQ(obs::latest_stream_record(rec.substr(0, 20), &out),
            obs::TailStatus::kPartial);
  // A truncated line that happened to end on '\n' (crash mid-write).
  EXPECT_EQ(obs::latest_stream_record(rec.substr(0, 20) + "\n", &out),
            obs::TailStatus::kPartial);
  // Garbage that parses as JSON but is not a scope record.
  EXPECT_EQ(obs::latest_stream_record("{\"schema\":\"nope\"}\n", &out),
            obs::TailStatus::kPartial);
  // Older complete record survives a truncated newline-terminated tail.
  EXPECT_EQ(
      obs::latest_stream_record(two + rec.substr(0, rec.size() / 2) + "\n",
                                &out),
      obs::TailStatus::kRecord);
  EXPECT_EQ(out.find("cycle")->as_int(), 3);
}

TEST(Rss, ParseProcStatusAndReadSelf) {
  const std::string text =
      "Name:\tunit\nVmPeak:\t  999 kB\nVmRSS:\t    1234 kB\nVmHWM:\t2048 "
      "kB\nThreads:\t1\n";
  const auto s = util::parse_proc_status(text);
  EXPECT_EQ(s.vm_rss_bytes, 1234 * 1024);
  EXPECT_EQ(s.vm_hwm_bytes, 2048 * 1024);

  // Missing fields stay zero instead of inventing values.
  EXPECT_EQ(util::parse_proc_status("Name:\tx\n").vm_rss_bytes, 0);

  const auto self = util::read_rss();
  EXPECT_GT(self.vm_rss_bytes, 0);
  EXPECT_GE(self.vm_hwm_bytes, self.vm_rss_bytes);
}

}  // namespace
}  // namespace plum
