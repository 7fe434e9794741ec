#pragma once
// Machine-readable bench output (schema "plum-bench/2").
//
// Every figure/table bench builds a JsonReport alongside its io::Table and
// writes BENCH_<name>.json so CI (and downstream plotting) can consume the
// numbers without scraping stdout:
//
//   {
//     "schema": "plum-bench/2",
//     "bench":  "bench_fig4",
//     "runs": [
//       { "case": "Real_1", "P": 8,
//         "metrics": { "speedup_before": 12.4,
//                      "imbalance": [1.3, 1.05, ...], ... },
//         "phases":  [ { "name": "solve", "wall_s": ..., "modeled_s": ...,
//                        "supersteps": ..., ... }, ... ],
//         "comm_matrix": { "nranks": 8, "msgs": [[...]], "bytes": [[...]] },
//         "gate_audit":  [ { "cycle": 0, "accepted": true, ... }, ... ] },
//       ...
//     ]
//   }
//
// Besides scalar metrics, a run may carry gauge series and fixed-bound
// histogram objects under "metrics", the per-run "comm_matrix",
// "gate_audit", "critical_path" (the counter-sourced plum-path
// decomposition), and "calibration" (a plum-calibration/1 document,
// sim/calibration.hpp); all are optional per run.
//
// The output directory defaults to the working directory and is overridden
// by PLUM_BENCH_JSON_DIR. `plum check` validates the files in CI with the
// same obs::validate_bench_report the unit tests use.

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <string>
#include <utility>

#include "obs/bench_schema.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace plum::bench {

class JsonReport {
 public:
  /// One (case, P) record under "runs".
  class Run {
   public:
    Run(std::string case_name, Rank nprocs)
        : case_(std::move(case_name)), nprocs_(nprocs) {}

    Run& metric(const std::string& name, double value) {
      metrics_.set(name, value);
      return *this;
    }
    Run& metric_int(const std::string& name, std::int64_t value) {
      metrics_.set_int(name, value);
      return *this;
    }

    /// Appends one phase record by hand (benches that model phases without
    /// running the BSP loop).
    Run& phase(const std::string& name, double wall_s, double modeled_s,
               int supersteps = 0) {
      obs::Json p = obs::Json::object();
      p.set("name", obs::Json::str(name))
          .set("wall_s", obs::Json::number(wall_s))
          .set("modeled_s", obs::Json::number(modeled_s))
          .set("supersteps", obs::Json::integer(supersteps));
      phases_.push(std::move(p));
      return *this;
    }

    /// Appends one sample to a gauge series under "metrics".
    Run& gauge(const std::string& name, double value) {
      metrics_.add_sample(name, value);
      return *this;
    }
    Run& gauge_int(const std::string& name, std::int64_t value) {
      metrics_.add_sample_int(name, value);
      return *this;
    }

    /// Copies every scalar and series out of a live registry (e.g. a
    /// Framework's per-cycle gauges) into this run's "metrics".
    Run& metrics_from(const obs::MetricsRegistry& reg) {
      metrics_.merge_from(reg);
      return *this;
    }

    /// Attaches the run's P-by-P comm matrix (from an engine ledger or a
    /// TraceRecorder) as the "comm_matrix" section.
    Run& comm_matrix_from(const rt::CommMatrix& m) {
      comm_matrix_ = obs::comm_matrix_json(m);
      has_comm_matrix_ = true;
      return *this;
    }

    /// Attaches the recorder's gate-audit records as "gate_audit".
    Run& gate_audit_from(const obs::TraceRecorder& rec) {
      gate_audit_ = obs::gate_audit_json(rec.gate_records());
      has_gate_audit_ = true;
      return *this;
    }

    /// Attaches the counter-sourced critical-path decomposition (per-rank
    /// busy/wait, per-phase straggler attribution — deterministic, so it
    /// diffs cleanly across commits) as "critical_path".
    Run& critical_path_from(const obs::TraceRecorder& rec) {
      critical_path_ =
          obs::analyze_critical_path(rec, obs::PathSource::kCounters)
              .to_json();
      has_critical_path_ = true;
      return *this;
    }

    /// Attaches a plum-calibration/1 document (sim::Calibration::to_json())
    /// as the run's "calibration" section.
    Run& calibration(obs::Json doc) {
      calibration_ = std::move(doc);
      has_calibration_ = true;
      return *this;
    }

    /// Copies every closed phase out of a plum-trace recorder.
    Run& phases_from(const obs::TraceRecorder& rec) {
      for (const auto& ph : rec.phases()) {
        obs::Json p = obs::Json::object();
        p.set("name", obs::Json::str(ph.name))
            .set("wall_s", obs::Json::number(ph.wall_s))
            .set("modeled_s", obs::Json::number(ph.modeled_s))
            .set("supersteps", obs::Json::integer(ph.supersteps))
            .set("depth", obs::Json::integer(ph.depth))
            .set("compute_units", obs::Json::integer(ph.compute_units))
            .set("msgs_sent", obs::Json::integer(ph.msgs_sent))
            .set("bytes_sent", obs::Json::integer(ph.bytes_sent));
        phases_.push(std::move(p));
      }
      return *this;
    }

    [[nodiscard]] obs::Json to_json() const {
      obs::Json r = obs::Json::object();
      r.set("case", obs::Json::str(case_))
          .set("P", obs::Json::integer(nprocs_))
          .set("metrics", metrics_.to_json())
          .set("phases", phases_);
      if (has_comm_matrix_) r.set("comm_matrix", comm_matrix_);
      if (has_gate_audit_) r.set("gate_audit", gate_audit_);
      if (has_critical_path_) r.set("critical_path", critical_path_);
      if (has_calibration_) r.set("calibration", calibration_);
      return r;
    }

   private:
    std::string case_;
    Rank nprocs_;
    obs::MetricsRegistry metrics_;
    obs::Json phases_ = obs::Json::array();
    obs::Json comm_matrix_;
    obs::Json gate_audit_;
    obs::Json critical_path_;
    obs::Json calibration_;
    bool has_comm_matrix_ = false;
    bool has_gate_audit_ = false;
    bool has_critical_path_ = false;
    bool has_calibration_ = false;
  };

  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  Run& add_run(const std::string& case_name, Rank nprocs) {
    runs_.emplace_back(case_name, nprocs);
    return runs_.back();
  }

  [[nodiscard]] obs::Json to_json() const {
    obs::Json doc = obs::Json::object();
    doc.set("schema", obs::Json::str("plum-bench/2"))
        .set("bench", obs::Json::str(bench_));
    obs::Json runs = obs::Json::array();
    for (const auto& r : runs_) runs.push(r.to_json());
    doc.set("runs", std::move(runs));
    return doc;
  }

  /// Writes BENCH_<name>.json into $PLUM_BENCH_JSON_DIR (default: cwd).
  /// Self-validates against the schema first; returns the path written, or
  /// "" on validation/IO failure (and says why on stderr).
  std::string write() const {
    const obs::Json doc = to_json();
    const std::string err = obs::validate_bench_report(doc);
    if (!err.empty()) {
      std::fprintf(stderr, "BENCH_%s.json failed self-validation: %s\n",
                   bench_.c_str(), err.c_str());
      return "";
    }
    const char* dir = std::getenv("PLUM_BENCH_JSON_DIR");
    std::string path = (dir && dir[0]) ? std::string(dir) : std::string(".");
    path += "/BENCH_" + bench_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return "";
    }
    out << doc.dump(2) << '\n';
    if (!out) {
      std::fprintf(stderr, "short write to %s\n", path.c_str());
      return "";
    }
    return path;
  }

 private:
  std::string bench_;
  std::deque<Run> runs_;  // stable references across add_run calls
};

}  // namespace plum::bench
