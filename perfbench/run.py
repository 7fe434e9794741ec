#!/usr/bin/env python3
"""Wall-time benchmark of the distributed Fig. 1 adaption cycle.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload shock_p64 --seed 7 --seconds 30 \
        --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, then
repeats the workload for --seconds, one child process per repetition, all
with the same seed. --trace 0 times the product's core::DistFramework and
prints the end-to-end metrics; --trace 1 also runs the traced replica of the
cycle, checks it against the product run cycle by cycle, and prints the
per-layer metrics. Metric names and units come from BENCHMARK.json. The last
line of stdout is the result object; a detailed report (host fingerprint,
every repetition, every span) goes to .bench_build/perfbench/results/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 150
# Keys of a "run" result that must not change between repetitions of a seed.
DETERMINISTIC_RUN_KEYS = ("imbalance_final", "comm_mb", "remap_totalv_elems",
                          "remap_maxv_elems")
DETERMINISTIC_CYCLE_KEYS = ("elements_before", "elements_after", "evaluated",
                            "accepted", "totalv", "maxv", "supersteps", "msgs",
                            "bytes")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds plum_bench; returns (build dir, binary)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no plum sources at {os.path.join(ROOT, 'src')}")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "plum_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out, os.path.join(out, "plum_bench")


def run_child(args, stdin_text=None):
    """Runs one child; returns (json result or None, cycles ok, stderr)."""
    try:
        p = subprocess.run(args, input=stdin_text, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
        out, err, code = p.stdout, p.stderr, p.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        err = (e.stderr or "") + f"\ntimed out after {CHILD_TIMEOUT_S} s"
        out = out.decode() if isinstance(out, bytes) else out
        err = err.decode() if isinstance(err, bytes) else err
        code = -1
    lines = out.splitlines()
    ok = sum(1 for line in lines if line.startswith("cycle_ok "))
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            err += "\nlast stdout line is not JSON"
    elif code != 0:
        err += f"\nexit code {code}"
    return result, ok, err


def percentile_summary(values):
    """Median and the highest percentile with at least ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    if n >= 11:
        k = n - 11  # index of the highest sample with ten samples beyond it
        out["pct"] = math.floor(100 * (k + 1) / n)
        out["pct_value"] = xs[k]
    return out


def fmt_timing(name, values, unit):
    s = percentile_summary(values)
    tail = (f"p{s['pct']} {s['pct_value']:.4f}" if "pct" in s
            else "no percentile (fewer than 11 samples)")
    return f"  {name:36s} median {s['median']:.4f} {unit}  {tail}  n={s['n']}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    metrics_spec = spec["per_layer" if a.trace else "end_to_end"]

    out_dir, binary = build()
    listing = subprocess.run([binary, "list"], capture_output=True, text=True,
                             check=True).stdout.splitlines()
    workloads = {name: (int(cycles), why) for name, cycles, why in
                 (line.split("\t", 2) for line in listing)}
    if a.workload not in workloads:
        fail(f"unknown workload {a.workload}; have {', '.join(workloads)}")
    host = json.loads(subprocess.run([binary, "host"], capture_output=True,
                                     text=True, check=True).stdout)

    cycles, why = workloads[a.workload]
    seed = str(a.seed)
    runs, traces, errors = [], [], []
    attempted = failed = 0
    durations = []
    t_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_start
        if runs or errors:
            guess = statistics.median(durations)
            if elapsed + guess > a.seconds:
                break
        t_rep = time.monotonic()
        run, ok, err = run_child([binary, "run", a.workload, seed])
        attempted += cycles
        if run is None:
            failed += cycles - ok
            errors.append(err.strip())
        else:
            runs.append(run)
        if a.trace:
            attempted += cycles
            if run is None:
                failed += cycles
            else:
                tr, tok, terr = run_child([binary, "trace", a.workload, seed],
                                          stdin_text=json.dumps(run))
                if tr is None:
                    failed += cycles - tok
                    errors.append(terr.strip())
                else:
                    traces.append(tr)
        durations.append(time.monotonic() - t_rep)

    correct = failed == 0 and bool(runs) and (not a.trace or bool(traces))
    for e in errors:
        print(f"child failure: {e.splitlines()[-1] if e else '?'}")
    # Repetitions of one seed must reproduce every deterministic output.
    for r in runs[1:]:
        same = all(r[k] == runs[0][k] for k in DETERMINISTIC_RUN_KEYS) and all(
            c[k] == c0[k] for c, c0 in zip(r["cycles"], runs[0]["cycles"])
            for k in DETERMINISTIC_CYCLE_KEYS)
        if not same:
            print("repetitions of one seed disagree on deterministic outputs")
            correct = False
            break
    if a.trace and not all(t["spans_ok"] for t in traces):
        print("traced spans overlap, leave their cycle, or miss a superstep")
        correct = False

    print(f"workload {a.workload} seed {a.seed}: {why}")
    threads = runs[0]["threads"] if runs else "?"
    print(f"host {json.dumps(host)} threads {threads}")
    print(f"repetitions {len(runs)} run, {len(traces)} traced; "
          f"cycles attempted {attempted}, failed {failed}")

    metrics = {}
    if a.trace and traces:
        layers = [t["layers"] for t in traces]
        for m in metrics_spec:
            if m["name"] not in layers[0]:
                fail(f"traced run does not produce {m['name']}")
            metrics[m["name"]] = {
                "value": statistics.median(x[m["name"]] for x in layers),
                "unit": m["unit"]}
        print("per-layer (median over traced repetitions):")
        for name, v in metrics.items():
            print(f"  {name:36s} {v['value']:.6g} {v['unit']}")
        print("measured vs modeled seconds (report-only):")
        for layer, model in (("pmesh.solve", "solve_s"),
                             ("partition.repartition", "repartition_s"),
                             ("pmesh.migrate", "migrate_s"),
                             ("pmesh.parallel_refine", "subdivide_s")):
            meas = metrics[f"{layer}.busy_s"]["value"]
            mod = metrics[f"sim.model.{model}"]["value"]
            print(f"  {layer:24s} measured {meas:.4f} s  modeled {mod:.4f} s")
        # Each workload's reason to exist, as the traced counts show it.
        accepted = metrics["sim.gate.accepted"]["value"]
        moved = metrics["pmesh.migrate.elements_moved"]["value"]
        if a.workload == "uniform_p16" and (accepted or moved):
            print("note: uniform_p16 remapped, so it no longer bypasses the "
                  "balancer")
        if a.workload == "shock_p64" and not (accepted and moved):
            print("note: shock_p64 accepted no remap, so it no longer "
                  "exercises migrate")
        print(fmt_timing("bench.traced_cycle_s",
                         [x["bench.traced_cycle_s"] for x in layers], "s"))
        print(fmt_timing("cycle_s (paired product runs)",
                         [r["cycle_s"] for r in runs], "s"))
    elif runs:
        for m in metrics_spec:
            if m["name"] not in runs[0]:
                fail(f"product run does not produce {m['name']}")
            values = [r[m["name"]] for r in runs]
            metrics[m["name"]] = {"value": statistics.median(values),
                                  "unit": m["unit"]}
            print(fmt_timing(m["name"], values, m["unit"]))
        print(f"  remap TotalV {runs[0]['remap_totalv_elems']} elems, "
              f"MaxV {runs[0]['remap_maxv_elems']} elems (summed over cycles)")

    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results,
                        f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(path, "w") as f:
        json.dump({"workload": a.workload, "seed": a.seed, "host": host,
                   "seconds": a.seconds, "attempted": attempted,
                   "failed": failed, "correct": correct, "metrics": metrics,
                   "runs": runs, "traces": traces, "errors": errors}, f)
    print(f"report: {os.path.relpath(path, ROOT)}")

    if not metrics:
        print("no repetition completed; no metrics to report")
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
