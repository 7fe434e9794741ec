#include "obs/critical_path.hpp"

#include <algorithm>
#include <map>
#include <span>

namespace plum::obs {

namespace {

constexpr double kSecondsBounds[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                     1e-2, 0.1,  1.0,  10.0};
constexpr double kFractionBounds[] = {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};

std::vector<double> bounds_vec(const double* first, std::size_t n) {
  return std::vector<double>(first, first + n);
}

/// One rank's value in a superstep under the chosen source (unmeasured
/// seconds read as 0, so the decomposition stays total).
double step_value(const RankStep& rs, PathSource source) {
  return source == PathSource::kCounters
             ? static_cast<double>(rs.compute_units)
             : rs.seconds;
}

}  // namespace

const char* path_source_name(PathSource s) {
  return s == PathSource::kCounters ? "counters" : "wall";
}

double RankPath::wait_fraction() const {
  const double total = busy + wait;
  return total > 0 ? wait / total : 0.0;
}

double PhasePath::wait_fraction() const {
  const double total = busy + wait;
  return total > 0 ? wait / total : 0.0;
}

double CriticalPathAnalysis::wait_fraction() const {
  const double total = busy_total + wait_total;
  return total > 0 ? wait_total / total : 0.0;
}

CriticalPathAnalysis analyze_critical_path(const TraceRecorder& rec,
                                           PathSource source,
                                           std::size_t first,
                                           std::size_t last) {
  CriticalPathAnalysis out;
  out.source = source;

  const std::vector<SuperstepRecord>& all = rec.supersteps();
  last = std::min(last, all.size());
  first = std::min(first, last);
  const auto window = std::span(all).subspan(first, last - first);

  std::size_t nranks = 0;
  for (const auto& st : window) nranks = std::max(nranks, st.ranks.size());
  out.ranks.resize(nranks);

  // Phase accumulators keyed by name (sorted), with a per-rank tally of
  // critical steps to pick each phase's worst straggler.
  struct PhaseAcc {
    PhasePath path;
    std::vector<int> critical_by_rank;
  };
  std::map<std::string, PhaseAcc> phases;

  for (const auto& st : window) {
    StepPath sp;
    sp.step = st.step;
    sp.phase = st.phase;
    const std::size_t p = st.ranks.size();
    for (std::size_t r = 0; r < p; ++r) {
      const double own = step_value(st.ranks[r], source);
      sp.busy += own;
      if (own > sp.critical) {
        sp.critical = own;
        sp.critical_rank = static_cast<Rank>(r);
      }
    }
    for (std::size_t r = 0; r < p; ++r) {
      const double own = step_value(st.ranks[r], source);
      const double wait = sp.critical - own;
      sp.wait += wait;
      out.ranks[r].busy += own;
      out.ranks[r].wait += wait;
    }
    if (p > 0) {
      out.ranks[static_cast<std::size_t>(sp.critical_rank)].steps_critical++;
      const double mean = sp.busy / static_cast<double>(p);
      sp.imbalance = mean > 0 ? sp.critical / mean : 1.0;
    } else {
      sp.imbalance = 1.0;
    }

    PhaseAcc& acc = phases[st.phase];
    acc.path.name = st.phase;
    acc.path.supersteps += 1;
    acc.path.critical += sp.critical;
    acc.path.busy += sp.busy;
    acc.path.wait += sp.wait;
    if (p > 0) {
      if (acc.critical_by_rank.size() < p) acc.critical_by_rank.resize(p, 0);
      acc.critical_by_rank[static_cast<std::size_t>(sp.critical_rank)]++;
    }

    out.critical_total += sp.critical;
    out.busy_total += sp.busy;
    out.wait_total += sp.wait;
    out.steps.push_back(std::move(sp));
  }

  for (auto& [name, acc] : phases) {
    for (std::size_t r = 0; r < acc.critical_by_rank.size(); ++r) {
      if (acc.critical_by_rank[r] > acc.path.worst_rank_steps) {
        acc.path.worst_rank_steps = acc.critical_by_rank[r];
        acc.path.worst_rank = static_cast<Rank>(r);
      }
    }
    out.phases.push_back(std::move(acc.path));
  }
  return out;
}

Json CriticalPathAnalysis::to_json() const {
  Json doc = Json::object();
  doc.set("source", Json::str(path_source_name(source)))
      .set("critical_total", Json::number(critical_total))
      .set("busy_total", Json::number(busy_total))
      .set("wait_total", Json::number(wait_total))
      .set("wait_fraction", Json::number(wait_fraction()));

  Json rank_arr = Json::array();
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const RankPath& rp = ranks[r];
    Json j = Json::object();
    j.set("rank", Json::integer(static_cast<std::int64_t>(r)))
        .set("busy", Json::number(rp.busy))
        .set("wait", Json::number(rp.wait))
        .set("wait_fraction", Json::number(rp.wait_fraction()))
        .set("steps_critical", Json::integer(rp.steps_critical));
    rank_arr.push(std::move(j));
  }
  doc.set("ranks", std::move(rank_arr));

  Json phase_arr = Json::array();
  for (const PhasePath& ph : phases) {
    Json j = Json::object();
    j.set("name", Json::str(ph.name))
        .set("supersteps", Json::integer(ph.supersteps))
        .set("critical", Json::number(ph.critical))
        .set("busy", Json::number(ph.busy))
        .set("wait", Json::number(ph.wait))
        .set("wait_fraction", Json::number(ph.wait_fraction()))
        .set("worst_rank", Json::integer(ph.worst_rank))
        .set("worst_rank_steps", Json::integer(ph.worst_rank_steps));
    phase_arr.push(std::move(j));
  }
  doc.set("phases", std::move(phase_arr));

  Json step_arr = Json::array();
  for (const StepPath& sp : steps) {
    Json j = Json::object();
    j.set("step", Json::integer(sp.step))
        .set("phase", Json::str(sp.phase))
        .set("rank", Json::integer(sp.critical_rank))
        .set("critical", Json::number(sp.critical))
        .set("wait", Json::number(sp.wait))
        .set("imbalance", Json::number(sp.imbalance));
    step_arr.push(std::move(j));
  }
  doc.set("steps", std::move(step_arr));
  return doc;
}

void record_step_histograms(MetricsRegistry& m, const TraceRecorder& rec,
                            std::size_t first) {
  m.define_histogram(kRankStepSecondsHist,
                     bounds_vec(kSecondsBounds, std::size(kSecondsBounds)),
                     /*wall_clock=*/true);
  m.define_histogram(kRankWaitFractionHist,
                     bounds_vec(kFractionBounds, std::size(kFractionBounds)),
                     /*wall_clock=*/false);
  const auto& steps = rec.supersteps();
  const CriticalPathAnalysis cp =
      analyze_critical_path(rec, PathSource::kCounters, first);
  for (std::size_t i = 0; i < cp.steps.size(); ++i) {
    const SuperstepRecord& st = steps[first + i];
    const double crit_units = cp.steps[i].critical;
    for (const RankStep& rs : st.ranks) {
      if (st.has_seconds) m.add_hist_sample(kRankStepSecondsHist, rs.seconds);
      const double own = static_cast<double>(rs.compute_units);
      m.add_hist_sample(kRankWaitFractionHist,
                        crit_units > 0 ? (crit_units - own) / crit_units : 0.0);
    }
  }
}

void record_phase_histograms(MetricsRegistry& m, const TraceRecorder& rec,
                             std::size_t* cursor) {
  m.define_histogram(kPhaseSecondsHist,
                     bounds_vec(kSecondsBounds, std::size(kSecondsBounds)),
                     /*wall_clock=*/true);
  const auto& phases = rec.phases();
  while (*cursor < phases.size() && phases[*cursor].closed) {
    m.add_hist_sample(kPhaseSecondsHist, phases[*cursor].wall_s);
    ++(*cursor);
  }
}

}  // namespace plum::obs
