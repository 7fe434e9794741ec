// The schema table behind `plum check` and `plum report`: one entry per
// schema id, holding the validator (shared with the writers' tests in
// src/obs and src/sim) and the renderer. `plum report` renders a document
// only after it passed the same validation `plum check` applies.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/bench_schema.hpp"
#include "obs/memory.hpp"
#include "obs/scope.hpp"
#include "plum.hpp"
#include "sim/calibration.hpp"

namespace plum::tool {

namespace {

using obs::Json;

// --- phases ----------------------------------------------------------------

void print_phases(const Json& phases) {
  if (!phases.is_array() || phases.size() == 0) return;
  std::printf("\nPhases:\n");
  std::printf("  %-22s %10s %14s %10s %12s %12s\n", "phase", "steps",
              "compute", "msgs", "bytes", "modeled_s");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Json& ph = phases.at(i);
    if (!ph.is_object()) continue;
    const int depth = static_cast<int>(int_or(ph.find("depth"), 0));
    std::string name(static_cast<std::size_t>(2 * depth), ' ');
    name += str_or(ph.find("name"), "?");
    std::printf("  %-22s %10lld %14lld %10lld %12lld %12.6f",
                name.c_str(),
                static_cast<long long>(int_or(ph.find("supersteps"), 0)),
                static_cast<long long>(int_or(ph.find("compute_units"), 0)),
                static_cast<long long>(int_or(ph.find("msgs_sent"), 0)),
                static_cast<long long>(int_or(ph.find("bytes_sent"), 0)),
                num_or(ph.find("modeled_s"), 0));
    if (const Json* wall = ph.find("wall_s")) {
      std::printf("  wall %.6fs", num_or(wall, 0));
    }
    std::printf("\n");
  }
}

// --- comm matrix -----------------------------------------------------------

void print_comm_matrix(const Json& cm) {
  const std::int64_t nranks = int_or(cm.find("nranks"), 0);
  const Json* bytes = cm.find("bytes");
  if (nranks <= 0 || !bytes || !bytes->is_array()) return;
  std::printf("\nComm matrix (bytes, row = sender, col = receiver), P = %lld:\n",
              static_cast<long long>(nranks));
  std::printf("  %6s", "");
  for (std::int64_t to = 0; to < nranks; ++to) {
    std::printf(" %10lld", static_cast<long long>(to));
  }
  std::printf(" %12s\n", "row_sum");
  // plum-scale: host-only -- column totals of a report table printed by the host tool
  std::vector<std::int64_t> col_sums(static_cast<std::size_t>(nranks), 0);
  std::int64_t total = 0;
  for (std::size_t from = 0; from < bytes->size(); ++from) {
    const Json& row = bytes->at(from);
    std::printf("  %6zu", from);
    std::int64_t row_sum = 0;
    for (std::size_t to = 0; to < row.size(); ++to) {
      const std::int64_t v = int_or(&row.at(to), 0);
      row_sum += v;
      col_sums[to] += v;
      std::printf(" %10lld", static_cast<long long>(v));
    }
    total += row_sum;
    std::printf(" %12lld\n", static_cast<long long>(row_sum));
  }
  std::printf("  %6s", "col");
  for (const std::int64_t c : col_sums) {
    std::printf(" %10lld", static_cast<long long>(c));
  }
  std::printf(" %12lld\n", static_cast<long long>(total));
}

void print_comm_by_class(const Json& by_class) {
  if (!by_class.is_object() || by_class.size() == 0) return;
  std::printf("\nTraffic by tag class:\n");
  for (const auto& [cls, t] : by_class.items()) {
    std::printf("  %-12s %10lld msgs %14lld bytes\n", cls.c_str(),
                static_cast<long long>(int_or(t.find("msgs"), 0)),
                static_cast<long long>(int_or(t.find("bytes"), 0)));
  }
}

// --- metrics / gauges ------------------------------------------------------

void print_metrics(const Json& metrics) {
  if (!metrics.is_object() || metrics.size() == 0) return;
  std::printf("\nMetrics:\n");
  for (const auto& [name, v] : metrics.items()) {
    if (v.is_object()) {
      // Fixed-bound histogram (MetricsRegistry::to_json() rendering).
      const bool is_wall = flag(v.find("wall"));
      std::printf("  %-26s hist n=%-6lld p50=%-10.6g p95=%-10.6g max=%-10.6g%s\n",
                  name.c_str(),
                  static_cast<long long>(int_or(v.find("count"), 0)),
                  num_or(v.find("p50"), 0), num_or(v.find("p95"), 0),
                  num_or(v.find("max"), 0), is_wall ? "  (wall)" : "");
      continue;
    }
    if (v.is_array()) {
      std::printf("  %-26s [", name.c_str());
      for (std::size_t i = 0; i < v.size(); ++i) {
        const Json& s = v.at(i);
        if (s.kind() == Json::Kind::kInt) {
          std::printf("%s%lld", i ? ", " : "",
                      static_cast<long long>(s.as_int()));
        } else {
          std::printf("%s%.4f", i ? ", " : "", num_or(&s, 0));
        }
      }
      std::printf("]  (%zu cycles)\n", v.size());
    } else if (v.kind() == Json::Kind::kInt) {
      std::printf("  %-26s %lld\n", name.c_str(),
                  static_cast<long long>(v.as_int()));
    } else if (v.is_number()) {
      std::printf("  %-26s %.6f\n", name.c_str(), v.as_double());
    }
  }
}

// --- critical path (plum-path) ---------------------------------------------

void print_critical_path(const Json& cp) {
  if (!cp.is_object()) return;
  std::printf("\nCritical path (%s):\n",
              str_or(cp.find("source"), "?").c_str());
  std::printf("  critical %.6g  busy %.6g  wait %.6g  (wait fraction %.1f%%)\n",
              num_or(cp.find("critical_total"), 0),
              num_or(cp.find("busy_total"), 0),
              num_or(cp.find("wait_total"), 0),
              100.0 * num_or(cp.find("wait_fraction"), 0));

  const Json* ranks = cp.find("ranks");
  if (ranks && ranks->is_array() && ranks->size() > 0) {
    std::printf("  %6s %14s %14s %8s %10s\n", "rank", "busy", "wait",
                "wait%", "crit_steps");
    for (std::size_t r = 0; r < ranks->size(); ++r) {
      const Json& rk = ranks->at(r);
      if (!rk.is_object()) continue;
      std::printf("  %6lld %14.6g %14.6g %7.1f%% %10lld\n",
                  static_cast<long long>(int_or(rk.find("rank"), 0)),
                  num_or(rk.find("busy"), 0), num_or(rk.find("wait"), 0),
                  100.0 * num_or(rk.find("wait_fraction"), 0),
                  static_cast<long long>(int_or(rk.find("steps_critical"), 0)));
    }
  }

  // Top straggler phases: the phases whose critical rank left the most
  // aggregate wait behind (the paper's per-phase bottleneck view).
  const Json* phases = cp.find("phases");
  if (phases && phases->is_array() && phases->size() > 0) {
    std::vector<std::size_t> order(phases->size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double wa = num_or(phases->at(a).find("wait"), 0);
      const double wb = num_or(phases->at(b).find("wait"), 0);
      if (wa != wb) return wa > wb;
      return a < b;
    });
    const std::size_t topk = std::min<std::size_t>(5, order.size());
    std::printf("  top %zu straggler phases (by aggregate wait):\n", topk);
    for (std::size_t i = 0; i < topk; ++i) {
      const Json& ph = phases->at(order[i]);
      if (!ph.is_object()) continue;
      // Supersteps recorded outside any PhaseScope group under "".
      std::string name = str_or(ph.find("name"), "?");
      if (name.empty()) name = "(unphased)";
      std::printf("    %-22s wait %-12.6g (%5.1f%%)  worst rank %lld "
                  "(critical in %lld/%lld steps)\n", name.c_str(),
                  num_or(ph.find("wait"), 0),
                  100.0 * num_or(ph.find("wait_fraction"), 0),
                  static_cast<long long>(int_or(ph.find("worst_rank"), -1)),
                  static_cast<long long>(int_or(ph.find("worst_rank_steps"), 0)),
                  static_cast<long long>(int_or(ph.find("supersteps"), 0)));
    }
  }
}

// Per-rank skew summary over the measured per-superstep rank_seconds: total
// step seconds per rank, reported as min/median/max plus the worst rank.
// Only full trace documents carry "seconds"; deterministic views skip this.
void print_rank_skew(const Json& supersteps) {
  if (!supersteps.is_array() || supersteps.size() == 0) return;
  std::vector<double> totals;
  for (std::size_t i = 0; i < supersteps.size(); ++i) {
    const Json* ranks = supersteps.at(i).find("ranks");
    if (!ranks || !ranks->is_array()) continue;
    if (ranks->size() > totals.size()) totals.resize(ranks->size(), 0.0);
    for (std::size_t r = 0; r < ranks->size(); ++r) {
      const Json* s = ranks->at(r).find("seconds");
      if (s && s->is_number()) totals[r] += s->as_double();
    }
  }
  if (totals.empty()) return;
  bool any = false;
  for (const double t : totals) any = any || t > 0;
  if (!any) return;

  std::size_t worst = 0;
  for (std::size_t r = 1; r < totals.size(); ++r) {
    if (totals[r] > totals[worst]) worst = r;
  }
  std::vector<double> sorted = totals;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::printf("\nPer-rank step seconds (measured): min %.6f  median %.6f  "
              "max %.6f  worst rank %zu\n",
              sorted.front(), median, sorted.back(), worst);
}

// --- gate audit ------------------------------------------------------------

void print_gate_audit(const Json& audit) {
  if (!audit.is_array() || audit.size() == 0) return;
  std::printf("\nGate history:\n");
  std::printf("  %5s %-9s %-7s %8s %8s %12s %12s %12s %8s\n", "cycle",
              "decision", "metric", "imb_old", "imb_new", "gain_s", "cost_s",
              "moved_B", "drift");
  for (std::size_t i = 0; i < audit.size(); ++i) {
    const Json& rec = audit.at(i);
    if (!rec.is_object()) continue;
    const char* decision = gate_decision(rec);
    std::printf("  %5lld %-9s %-7s %8.4f %8.4f %12.6f %12.6f %12lld %7.1f%%\n",
                static_cast<long long>(int_or(rec.find("cycle"), 0)), decision,
                str_or(rec.find("metric"), "?").c_str(),
                num_or(rec.find("imbalance_old"), 0),
                num_or(rec.find("imbalance_new"), 0),
                num_or(rec.find("gain_s"), 0), num_or(rec.find("cost_s"), 0),
                static_cast<long long>(
                    int_or(rec.find("measured_move_bytes"), 0)),
                100.0 * num_or(rec.find("drift"), 0));
  }
}

// --- calibration -----------------------------------------------------------

void print_calibration(const Json& cal) {
  if (!cal.is_object()) return;
  const bool enabled = flag(cal.find("enabled"));
  std::printf("\nCalibration (%s): %lld cycles, %lld remap samples, "
              "mean |drift| %.1f%%\n",
              enabled ? "enabled" : "disabled",
              static_cast<long long>(int_or(cal.find("cycles_observed"), 0)),
              static_cast<long long>(int_or(cal.find("remap_samples"), 0)),
              100.0 * num_or(cal.find("mean_abs_drift"), 0));
  const Json* p = cal.find("params");
  if (p && p->is_object()) {
    std::printf("  t_iter %.3g  t_refine %.3g  t_lat %.3g  t_setup %.3g\n",
                num_or(p->find("t_iter"), 0), num_or(p->find("t_refine"), 0),
                num_or(p->find("t_lat"), 0), num_or(p->find("t_setup"), 0));
    std::printf("  bytes/element %.1f  bytes/set %.1f  gate margin %.2f\n",
                num_or(p->find("bytes_per_element"), 0),
                num_or(p->find("bytes_per_set"), 0),
                num_or(p->find("gate_margin"), 0));
  }
  const Json* ws = cal.find("rank_weight_scale");
  if (ws && ws->is_array() && ws->size() > 0) {
    double lo = num_or(&ws->at(0), 1), hi = lo;
    for (std::size_t r = 1; r < ws->size(); ++r) {
      const double s = num_or(&ws->at(r), 1);
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    std::printf("  Wcomp blend factors: %zu ranks in [%.3f, %.3f]\n",
                ws->size(), lo, hi);
  }
}


// --- plum-replay -----------------------------------------------------------

void render_replay(const Document& d) {
  const Json& cycles = *d.values.front().find("cycles");
  std::printf("Replay book: %zu cycles\n", cycles.size());
  if (cycles.size() == 0) return;
  std::printf("  %5s %12s %12s %12s %6s\n", "cycle", "solve_s", "remap_s",
              "subdiv_s", "ranks");
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const Json& c = cycles.at(i);
    const Json* rs = c.find("rank_solve_seconds");
    std::printf("  %5lld %12.6f %12.6f %12.6f %6zu\n",
                static_cast<long long>(int_or(c.find("cycle"),
                                              static_cast<std::int64_t>(i))),
                num_or(c.find("solve_seconds"), 0),
                num_or(c.find("remap_seconds"), 0),
                num_or(c.find("subdivide_seconds"), 0),
                rs && rs->is_array() ? rs->size() : std::size_t{0});
  }
}

// --- plum-heap -------------------------------------------------------------

/// The plum-heap/1 section: per-phase allocation table (rank rows summed),
/// top-churn ranking, and per-row live/RSS gauges when present.
void print_heap(const Json& heap) {
  const Json* phases = heap.find("phases");
  const Json* rows = heap.find("rows");
  if (!phases || !phases->is_array() || !rows || !rows->is_array()) return;

  struct PhaseSum {
    std::string name;
    std::int64_t allocs = 0;
    std::int64_t frees = 0;
    std::int64_t bytes = 0;
    std::int64_t peak = 0;  ///< max over rows — rows peak independently
  };
  std::vector<PhaseSum> sums(phases->size() + 1);
  for (std::size_t p = 0; p < phases->size(); ++p) {
    sums[p].name = str_or(&phases->at(p), "?");
  }
  sums.back().name = "(unphased)";

  auto fold = [](PhaseSum& dst, const Json& cell) {
    dst.allocs += int_or(cell.find("allocs"), 0);
    dst.frees += int_or(cell.find("frees"), 0);
    dst.bytes += int_or(cell.find("bytes"), 0);
    dst.peak = std::max(dst.peak, int_or(cell.find("peak_live"), 0));
  };
  for (std::size_t r = 0; r < rows->size(); ++r) {
    const Json& row = rows->at(r);
    const Json* by_phase = row.find("phases");
    for (std::size_t p = 0; by_phase && by_phase->is_array() &&
                            p < by_phase->size() && p < phases->size();
         ++p) {
      fold(sums[p], by_phase->at(p));
    }
    if (const Json* up = row.find("unphased")) fold(sums.back(), *up);
  }

  std::printf("\nHeap profile (plum-heap/1, %lld ranks + host):\n",
              static_cast<long long>(int_or(heap.find("nranks"), 0)));
  std::printf("  %-14s %10s %10s %14s %14s\n", "phase", "allocs", "frees",
              "bytes_req", "peak_live_B");
  for (const PhaseSum& s : sums) {
    if (s.allocs == 0 && s.frees == 0 && s.bytes == 0) continue;
    std::printf("  %-14s %10lld %10lld %14lld %14lld\n", s.name.c_str(),
                static_cast<long long>(s.allocs),
                static_cast<long long>(s.frees),
                static_cast<long long>(s.bytes),
                static_cast<long long>(s.peak));
  }

  // Top churn: the phases paying the most allocation traffic (by bytes,
  // allocs as tiebreak) — the first places to point an arena at.
  std::vector<const PhaseSum*> rank;
  for (const PhaseSum& s : sums) {
    if (s.allocs > 0) rank.push_back(&s);
  }
  std::sort(rank.begin(), rank.end(),
            [](const PhaseSum* a, const PhaseSum* b) {
              if (a->bytes != b->bytes) return a->bytes > b->bytes;
              if (a->allocs != b->allocs) return a->allocs > b->allocs;
              return a->name < b->name;
            });
  if (!rank.empty()) {
    std::printf("  top churn:");
    for (std::size_t i = 0; i < rank.size() && i < 3; ++i) {
      std::printf("%s %zu. %s (%lld B / %lld allocs)", i ? " " : "", i + 1,
                  rank[i]->name.c_str(),
                  static_cast<long long>(rank[i]->bytes),
                  static_cast<long long>(rank[i]->allocs));
    }
    std::printf("\n");
  }

  std::int64_t live_total = 0;
  for (std::size_t r = 0; r < rows->size(); ++r) {
    live_total += int_or(rows->at(r).find("live_bytes"), 0);
  }
  if (live_total != 0) {
    std::printf("  live tracked bytes: %lld\n",
                static_cast<long long>(live_total));
  }
  if (const Json* rss = heap.find("rss")) {
    std::printf("  rss %.1f MB  hwm %.1f MB  (wall)\n",
                static_cast<double>(int_or(rss->find("vm_rss_bytes"), 0)) /
                    1e6,
                static_cast<double>(int_or(rss->find("vm_hwm_bytes"), 0)) /
                    1e6);
  }
}

// --- plum-scope (stream) ---------------------------------------------------

/// One plum-scope/1 record as one timeline row.
void print_scope_record(const Json& rec) {
  const Json* gate = rec.find("gate");
  const char* decision = gate ? gate_decision(*gate) : "skipped";

  // Straggler summary from the per-rank busy/wait pairs.
  std::int64_t busy_total = 0, wait_total = 0, worst_wait = -1;
  std::int64_t worst_rank = -1;
  const Json* ranks = rec.find("ranks");
  const std::size_t nranks = ranks && ranks->is_array() ? ranks->size() : 0;
  for (std::size_t r = 0; r < nranks; ++r) {
    const Json& rk = ranks->at(r);
    const std::int64_t busy = int_or(rk.find("busy"), 0);
    const std::int64_t wait = int_or(rk.find("wait"), 0);
    busy_total += busy;
    wait_total += wait;
    if (wait > worst_wait) {
      worst_wait = wait;
      worst_rank = int_or(rk.find("rank"), static_cast<std::int64_t>(r));
    }
  }
  const double denom = static_cast<double>(busy_total + wait_total);
  std::printf("  %5lld %6lld %9lld %9.4f %-8s %10.6f %6.1f%% %10lld\n",
              static_cast<long long>(int_or(rec.find("cycle"), 0)),
              static_cast<long long>(int_or(rec.find("supersteps"), 0)),
              static_cast<long long>(int_or(rec.find("elements"), 0)),
              num_or(rec.find("imbalance"), 0), decision,
              num_or(rec.find("wall_s"), 0),
              denom > 0 ? 100.0 * static_cast<double>(wait_total) / denom : 0.0,
              static_cast<long long>(worst_rank));
}

void print_scope_header() {
  std::printf("  %5s %6s %9s %9s %-8s %10s %6s %10s\n", "cycle", "steps",
              "elems", "imb", "gate", "wall_s", "wait%", "worst_rank");
}


void render_scope(const Document& d) {
  std::printf("Scope stream (plum-scope/1 cycle timeline):\n");
  print_scope_header();
  for (const Json& rec : d.values) print_scope_record(rec);
  std::printf("\nRun: %s\n",
              str_or(d.values.back().find("name"), "(unnamed)").c_str());
}

// --- plum-postmortem -------------------------------------------------------

void render_postmortem(const Document& d) {
  const Json& doc = d.values.front();
  std::printf("Postmortem: %s\n", str_or(doc.find("name"), "?").c_str());
  const Json* reason = doc.find("reason");
  std::printf("  assertion: %s\n", str_or(reason->find("expr"), "?").c_str());
  std::printf("  at:        %s:%lld\n", str_or(reason->find("file"), "?").c_str(),
              static_cast<long long>(int_or(reason->find("line"), 0)));
  const std::string msg = str_or(reason->find("msg"), "");
  if (!msg.empty()) std::printf("  message:   %s\n", msg.c_str());

  if (const Json* scope = doc.find("scope")) {
    const Json* phases = scope->find("phases");
    const Json* ranks = scope->find("ranks");
    std::printf("\nFlight recorder (last events per rank, oldest first; "
                "ring capacity %lld):\n",
                static_cast<long long>(int_or(scope->find("capacity"), 0)));
    for (std::size_t r = 0; ranks && r < ranks->size(); ++r) {
      const Json& rk = ranks->at(r);
      const Json* events = rk.find("events");
      std::printf("  rank %lld: %lld events recorded, %zu surviving\n",
                  static_cast<long long>(int_or(rk.find("rank"), 0)),
                  static_cast<long long>(int_or(rk.find("written"), 0)),
                  events && events->is_array() ? events->size() : 0);
      if (!events || !events->is_array()) continue;
      // Last 8 events per rank keep the dump readable; the JSON has all.
      const std::size_t n = events->size();
      const std::size_t first = n > 8 ? n - 8 : 0;
      for (std::size_t k = first; k < n; ++k) {
        const Json& e = events->at(k);
        const std::int64_t phase_id = int_or(e.find("phase"), -1);
        std::string phase = "(none)";
        if (phases && phases->is_array() && phase_id >= 0 &&
            static_cast<std::size_t>(phase_id) < phases->size()) {
          phase = str_or(&phases->at(static_cast<std::size_t>(phase_id)),
                         "(none)");
        }
        std::printf("    step %-6lld %-12s ticks %-10lld",
                    static_cast<long long>(int_or(e.find("step"), 0)),
                    phase.c_str(),
                    static_cast<long long>(int_or(e.find("ticks"), 0)));
        if (const Json* wall_ns = e.find("wall_ns")) {
          std::printf(" wall %.3fms",
                      static_cast<double>(int_or(wall_ns, 0)) / 1e6);
        }
        std::printf("\n");
      }
    }
  }
}

// --- plum-run --------------------------------------------------------------

void print_trace_doc(const Json& trace) {
  if (const Json* phases = trace.find("phases")) print_phases(*phases);
  if (const Json* ss = trace.find("supersteps")) {
    if (ss->is_array()) {
      std::printf("\nSupersteps: %zu\n", ss->size());
      print_rank_skew(*ss);
    }
  }
  if (const Json* cp = trace.find("critical_path")) print_critical_path(*cp);
  if (const Json* cpw = trace.find("critical_path_wall")) {
    print_critical_path(*cpw);
  }
  if (const Json* cm = trace.find("comm_matrix")) print_comm_matrix(*cm);
  if (const Json* heap = trace.find("heap")) print_heap(*heap);
  if (const Json* bc = trace.find("comm_by_class")) print_comm_by_class(*bc);
  if (const Json* ga = trace.find("gate_audit")) print_gate_audit(*ga);
  if (const Json* cal = trace.find("calibration")) print_calibration(*cal);
}

void render_run(const Document& d) {
  const Json& doc = d.values.front();
  std::printf("Run: %s\n", str_or(doc.find("name"), "(unnamed)").c_str());
  if (const Json* trace = doc.find("trace")) print_trace_doc(*trace);
  if (const Json* metrics = doc.find("metrics")) print_metrics(*metrics);
}


// --- plum-bench ------------------------------------------------------------

void render_bench(const Document& d) {
  const Json& doc = d.values.front();
  std::printf("Bench: %s\n", str_or(doc.find("bench"), "?").c_str());
  const Json* runs = doc.find("runs");
  for (std::size_t i = 0; i < runs->size(); ++i) {
    const Json& run = runs->at(i);
    std::printf("\nRun %zu: case %s, P = %lld\n", i,
                str_or(run.find("case"), "?").c_str(),
                static_cast<long long>(int_or(run.find("P"), 0)));
    if (const Json* metrics = run.find("metrics")) print_metrics(*metrics);
    if (const Json* phases = run.find("phases")) print_phases(*phases);
    if (const Json* cp = run.find("critical_path")) print_critical_path(*cp);
    if (const Json* cm = run.find("comm_matrix")) print_comm_matrix(*cm);
    if (const Json* ga = run.find("gate_audit")) print_gate_audit(*ga);
    if (const Json* cal = run.find("calibration")) print_calibration(*cal);
  }
}

// --- the table -------------------------------------------------------------

std::string validate_replay(const Json& value) {
  sim::ReplayBook book;
  std::string err;
  return sim::ReplayBook::parse(value, &book, &err) ? "" : err;
}

/// `"run \"<name>\""` for the documents that carry a run name.
std::string run_name(const Document& d) {
  return "run \"" + str_or(d.values.front().find("name"), "") + "\"";
}

std::string count(std::size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

const Schema kSchemas[] = {
    {"plum-bench/2", false, obs::validate_bench_report,
     [](const Document& d) {
       const Json& doc = d.values.front();
       return count(doc.find("runs")->size(), "runs") + ", bench \"" +
              doc.find("bench")->as_string() + "\"";
     },
     render_bench},
    {"plum-run/1", false, obs::validate_run_doc, run_name, render_run},
    {"plum-replay/1", false, validate_replay,
     [](const Document& d) {
       return count(d.values.front().find("cycles")->size(), "cycles");
     },
     render_replay},
    {"plum-scope/1", true, obs::validate_scope_record,
     [](const Document& d) { return count(d.values.size(), "records"); },
     render_scope},
    {"plum-postmortem/1", false, obs::validate_postmortem, run_name,
     render_postmortem},
    {"plum-heap/1", false, obs::validate_heap_section,
     [](const Document& d) {
       return count(static_cast<std::size_t>(
                        int_or(d.values.front().find("nranks"), 0)),
                    "ranks");
     },
     [](const Document& d) { print_heap(d.values.front()); }},
};

}  // namespace

std::string validate_document(const Document& doc, const Schema** schema) {
  const Json& first = doc.values.front();
  if (!first.is_object()) return "top-level value is not an object";
  const std::string id = str_or(first.find("schema"), "");
  if (id.empty()) return "missing string field \"schema\"";
  for (const Schema& s : kSchemas) {
    if (id != s.id) continue;
    if (doc.stream && !s.stream) {
      return "an NDJSON stream, but " + id + " is one document";
    }
    for (std::size_t i = 0; i < doc.values.size(); ++i) {
      const std::string err = s.validate(doc.values[i]);
      if (err.empty()) continue;
      return doc.stream ? "record " + std::to_string(i + 1) + ": " + err : err;
    }
    *schema = &s;
    return "";
  }
  return "unknown schema \"" + id + "\"";
}

}  // namespace plum::tool
