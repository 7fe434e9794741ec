#include "obs/chrome_trace.hpp"

#include <cstdint>
#include <fstream>

#include "obs/critical_path.hpp"

namespace plum::obs {

namespace {

constexpr double kMicros = 1e6;

Json complete_event(const std::string& name, int tid, double t_start_s,
                    double dur_s) {
  Json ev = Json::object();
  ev.set("name", Json::str(name))
      .set("ph", Json::str("X"))
      .set("pid", Json::integer(1))
      .set("tid", Json::integer(tid))
      .set("ts", Json::number(t_start_s * kMicros))
      .set("dur", Json::number(dur_s * kMicros));
  return ev;
}

Json thread_name_event(int tid, const std::string& name) {
  Json args = Json::object();
  args.set("name", Json::str(name));
  Json ev = Json::object();
  ev.set("name", Json::str("thread_name"))
      .set("ph", Json::str("M"))
      .set("pid", Json::integer(1))
      .set("tid", Json::integer(tid))
      .set("args", std::move(args));
  return ev;
}

}  // namespace

Json chrome_trace_json(const TraceRecorder& rec,
                       const std::string& process_name) {
  Json events = Json::array();

  {
    Json args = Json::object();
    args.set("name", Json::str(process_name));
    Json ev = Json::object();
    ev.set("name", Json::str("process_name"))
        .set("ph", Json::str("M"))
        .set("pid", Json::integer(1))
        .set("args", std::move(args));
    events.push(std::move(ev));
  }
  events.push(thread_name_event(0, "phases"));

  // The wall-sourced critical path names each superstep's critical rank
  // and length; its rank count is the widest superstep's.
  const auto& steps = rec.supersteps();
  const CriticalPathAnalysis wall =
      analyze_critical_path(rec, PathSource::kWallClock);
  for (std::size_t r = 0; r < wall.ranks.size(); ++r) {
    events.push(thread_name_event(static_cast<int>(r) + 1,
                                  "rank " + std::to_string(r)));
  }

  for (const auto& ph : rec.phases()) {
    Json ev = complete_event(ph.name, 0, ph.t_start_s, ph.wall_s);
    Json args = Json::object();
    args.set("depth", Json::integer(ph.depth))
        .set("supersteps", Json::integer(ph.supersteps))
        .set("compute_units", Json::integer(ph.compute_units))
        .set("msgs_sent", Json::integer(ph.msgs_sent))
        .set("bytes_sent", Json::integer(ph.bytes_sent))
        .set("modeled_s", Json::number(ph.modeled_s));
    ev.set("args", std::move(args));
    events.push(std::move(ev));
  }

  for (std::size_t i = 0; i < steps.size(); ++i) {
    const SuperstepRecord& st = steps[i];
    const StepPath& path = wall.steps[i];
    const std::string base =
        st.phase.empty() ? "step" : st.phase + " step";
    const std::string name = base + " " + std::to_string(st.step);
    // The superstep ends when its slowest (critical) rank ends; every
    // other rank gets an explicit "wait" slice from its own finish to the
    // critical rank's, so stragglers are visible as the only lanes without
    // idle gaps.
    for (std::size_t r = 0; r < st.ranks.size(); ++r) {
      const RankStep& rs = st.ranks[r];
      Json ev = complete_event(name, static_cast<int>(r) + 1, st.t_start_s,
                               rs.seconds);
      Json args = Json::object();
      args.set("compute_units", Json::integer(rs.compute_units))
          .set("msgs_sent", Json::integer(rs.msgs_sent))
          .set("bytes_sent", Json::integer(rs.bytes_sent));
      ev.set("args", std::move(args));
      events.push(std::move(ev));

      if (static_cast<Rank>(r) == path.critical_rank) continue;
      Json wait = complete_event("wait", static_cast<int>(r) + 1,
                                 st.t_start_s + rs.seconds,
                                 path.critical - rs.seconds);
      Json wargs = Json::object();
      wargs.set("step", Json::integer(st.step))
          .set("critical_rank", Json::integer(path.critical_rank))
          .set("wait_s", Json::number(path.critical - rs.seconds));
      wait.set("args", std::move(wargs));
      events.push(std::move(wait));
    }
  }

  // Counter track: per-superstep traffic (messages / bytes posted across
  // all ranks), rendered by the trace viewer as a stacked timeline.
  for (const auto& st : steps) {
    std::int64_t msgs = 0, bytes = 0;
    for (const RankStep& rs : st.ranks) {
      msgs += rs.msgs_sent;
      bytes += rs.bytes_sent;
    }
    Json args = Json::object();
    args.set("msgs", Json::integer(msgs)).set("bytes", Json::integer(bytes));
    Json ev = Json::object();
    ev.set("name", Json::str("traffic"))
        .set("ph", Json::str("C"))
        .set("pid", Json::integer(1))
        .set("ts", Json::number(st.t_start_s * kMicros))
        .set("args", std::move(args));
    events.push(std::move(ev));
  }

  Json doc = Json::object();
  doc.set("traceEvents", std::move(events))
      .set("displayTimeUnit", Json::str("ms"));
  return doc;
}

bool write_chrome_trace(const TraceRecorder& rec,
                        const std::string& process_name,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << chrome_trace_json(rec, process_name).dump(2) << '\n';
  return static_cast<bool>(out);
}

}  // namespace plum::obs
