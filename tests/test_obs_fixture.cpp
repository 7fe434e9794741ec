// Pinned deterministic observability output of one DistFramework run.
//
// A P = 4, three-cycle DistFramework run on small_box(5) with a blast
// initial condition (the gate accepts a remap in cycle 0) produces three
// deterministic documents: trace().deterministic_json(),
// metrics().deterministic_json(), and the plum-scope/1 stream with the
// wall-clock fields ("wall_s", "rss") removed from every record. This
// test compares all three byte for byte against the files in
// tests/obs_fixtures/, on the sequential Engine and on ParallelEngine(4):
// a refactor of the trace, the critical-path fold or the stream builder
// must leave every serialization unchanged.
//
// To regenerate the fixtures after an intended change of a serialization,
// run
//   PLUM_RECORD_OBS_FIXTURES=1 ./test_obs_fixture
// which rewrites every fixture instead of comparing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/dist_framework.hpp"
#include "mesh/box_mesh.hpp"
#include "obs/json.hpp"
#include "solver/init_conditions.hpp"

namespace plum::core {
namespace {

constexpr int kCycles = 3;

struct ObsOutputs {
  std::string trace;
  std::string metrics;
  std::string scope;  ///< one compact record per line
};

/// Options that trip the gate and accept a remap in the first cycle.
FrameworkOptions fixture_options(int threads, const std::string& stream) {
  FrameworkOptions opt;
  opt.nranks = 4;
  opt.refine_fraction = 0.08;
  opt.solver_steps_per_cycle = 3;
  opt.threads = threads;
  opt.scope_name = "obs_fixture";
  opt.scope_stream = stream;
  return opt;
}

/// `rec` without its wall-clock members.
obs::Json without_wall(const obs::Json& rec) {
  obs::Json out = obs::Json::object();
  for (const auto& [key, value] : rec.items()) {
    if (key != "wall_s" && key != "rss") out.set(key, value);
  }
  return out;
}

ObsOutputs run_fixture(int threads) {
  const std::string stream = ::testing::TempDir() + "obs_fixture_t" +
                             std::to_string(threads) + ".ndjson";
  std::remove(stream.c_str());
  ObsOutputs out;
  {
    solver::BlastSpec blast;
    blast.radius = 0.2;
    DistFramework fw(mesh::make_box_mesh(mesh::small_box(5)),
                     fixture_options(threads, stream));
    for (Rank r = 0; r < 4; ++r) {
      solver::init_blast(fw.dist_mesh().local(r).mesh,
                         fw.solver().solution(r), blast);
    }
    for (int i = 0; i < kCycles; ++i) fw.cycle();
    out.trace = fw.trace().deterministic_json();
    out.metrics = fw.metrics().deterministic_json().dump();
  }
  std::ifstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    obs::Json rec;
    std::string err;
    EXPECT_TRUE(obs::Json::parse(line, &rec, &err)) << err;
    out.scope += without_wall(rec).dump() + "\n";
  }
  in.close();
  std::remove(stream.c_str());
  return out;
}

std::string fixture_path(const std::string& name) {
  return std::string(PLUM_OBS_FIXTURE_DIR) + "/" + name;
}

/// The first byte where `got` departs from `want`, with some context.
std::string first_difference(const std::string& want, const std::string& got) {
  const auto mm = std::mismatch(want.begin(), want.end(), got.begin(),
                                got.end());
  const auto at = static_cast<std::size_t>(mm.first - want.begin());
  const std::size_t from = at < 80 ? 0 : at - 80;
  return "first difference at byte " + std::to_string(at) + "\n  want: ..." +
         want.substr(from, 160) + "\n  got:  ..." + got.substr(from, 160);
}

/// Compares `got` against fixture `name`, or rewrites the fixture when
/// PLUM_RECORD_OBS_FIXTURES is set. JSON documents are stored
/// pretty-printed and compared after re-serializing them compactly, which
/// reproduces the original bytes (shortest round-trip number formatting).
void check_json_fixture(const std::string& name, const std::string& got) {
  const std::string path = fixture_path(name);
  if (std::getenv("PLUM_RECORD_OBS_FIXTURES") != nullptr) {
    obs::Json doc;
    std::string err;
    ASSERT_TRUE(obs::Json::parse(got, &doc, &err)) << err;
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
  const std::string want_text = want.dump();
  EXPECT_TRUE(want_text == got) << name << ": "
                                << first_difference(want_text, got);
}

/// Line-oriented variant for the NDJSON stream, stored as written.
void check_text_fixture(const std::string& name, const std::string& got) {
  const std::string path = fixture_path(name);
  if (std::getenv("PLUM_RECORD_OBS_FIXTURES") != nullptr) {
    std::ofstream out(path);
    out << got;
    ASSERT_TRUE(out.good()) << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(ss.str() == got) << name << ": "
                               << first_difference(ss.str(), got);
}

void check_outputs(const ObsOutputs& out) {
  check_json_fixture("dist_p4_trace.json", out.trace);
  check_json_fixture("dist_p4_metrics.json", out.metrics);
  check_text_fixture("dist_p4_scope.ndjson", out.scope);
}

TEST(ObsFixture, DistFrameworkSequentialEngine) {
  const ObsOutputs out = run_fixture(1);
  // The run must exercise the remap path the fixture is meant to pin.
  EXPECT_NE(out.trace.find("\"accepted\":true"), std::string::npos);
  EXPECT_EQ(std::count(out.scope.begin(), out.scope.end(), '\n'), kCycles);
  check_outputs(out);
}

TEST(ObsFixture, DistFrameworkParallelEngine) {
  // Same fixture as the sequential engine: every view compared here is
  // deterministic across engines and thread counts.
  if (std::getenv("PLUM_RECORD_OBS_FIXTURES") != nullptr) return;
  check_outputs(run_fixture(4));
}

}  // namespace
}  // namespace plum::core
