#pragma once
// Schema validators for the machine-readable bench reports
// (BENCH_<name>.json, schema id "plum-bench/2") and the run documents
// (RUN_<name>.json, "plum-run/1"). Shared by `plum check` / `plum report`
// (tools/plum) and tests/test_obs.cpp so the tool and the tests can never
// drift apart.
//
// Expected bench report shape:
//   {
//     "schema": "plum-bench/2",
//     "bench":  "<bench name>",
//     "runs": [
//       {
//         "case": "<mesh/workload id>",
//         "P": <int >= 1>,
//         "metrics": { "<name>": <number> | [<number>, ...], ... },
//         "phases": [
//           { "name": "<phase>", "wall_s": <number>,
//             "modeled_s": <number>, "supersteps": <int>, ... }
//         ],
//         "comm_matrix": { "nranks": <int >= 1>,
//                          "msgs":  [[<int>, ...], ...],   // nranks rows
//                          "bytes": [[<int>, ...], ...] },
//         "gate_audit": [
//           { "cycle": <int >= 0>, "evaluated": <bool>, "accepted": <bool>,
//             "metric": "<CostMetric>", "imbalance_old": <number>,
//             "imbalance_new": <number>, "gain_s": <number>,
//             "cost_s": <number>, "predicted_move_bytes": <int >= 0>,
//             "measured_move_bytes": <int >= 0>, "drift": <number> }, ...
//         ]
//       }, ...
//     ]
//   }
// Metrics may also be histogram or wall-series objects
// (MetricsRegistry::to_json()). The "comm_matrix", "gate_audit",
// "critical_path" and "calibration" run sections are optional; every other
// field above is required. "phases" may be an empty array (benches that
// don't run the BSP loop).
//
// A run document is {"schema": "plum-run/1", "name": "<run>",
// "trace": TraceRecorder::to_json(), "metrics": MetricsRegistry::to_json()};
// its trace must hold "phases" and "supersteps" arrays, and a "heap"
// section, when present, must pass validate_heap_section.

#include <string>

#include "obs/json.hpp"

namespace plum::obs {

/// Returns "" when `doc` is a valid plum-bench/2 report; otherwise a
/// human-readable description of the first violation found.
[[nodiscard]] std::string validate_bench_report(const Json& doc);

/// Returns "" when `doc` is a valid plum-run/1 document, else the first
/// violation.
[[nodiscard]] std::string validate_run_doc(const Json& doc);

}  // namespace plum::obs
