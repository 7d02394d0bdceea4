"""qflow benchmark: four workloads, end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of disk-run, heat-ladder, vector-flow, verify-battery, or
``all`` for the four in turn.  Run it from the root of a qflow checkout; it
drives the package in ``src/`` from outside, through ``qflow.cli.main`` and
the public library API.

For each workload it runs executions back to back, each in its own fresh
child process, while the next one is expected (from the mean so far) to end
inside the S-second window; there is always at least one.  Every execution
is gated for correctness and its time kept, pass or fail.  Its wall time is
scaled to the reference host speed (wall_norm_s): wall_s * CAL_REF_S /
calibration_s, where calibration_s is the median time of the fixed kernel
in calibrate.py, which the child runs at intervals during the execution;
wall_s excludes the kernel's time.  Before each execution, and at least
SETUP_SAMPLES times in all, it times one fresh-interpreter import of
``qflow.cli``, which then runs a few kernel rounds; setup_s is that time
scaled to the reference host speed in the same way.  With ``--trace 1``
one further execution runs under the tracer and gives the per-layer
metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json (end_to_end untraced, per_layer traced).  The lines before it
give every metric by name with its unit.  Exits 2 without a result when the
checkout holds no qflow source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracer import span_table

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("disk-run", "heat-ladder", "vector-flow", "verify-battery")
SETUP_SAMPLES = 3
# Seconds of one calibration round, about what the kernel takes during an
# execution on a 2-core Xeon VM; wall_norm_s reads as wall seconds on a host
# whose round takes this long.
CAL_REF_S = 0.011
SETUP_PROBE = f"""\
import time, qflow.cli
t = time.perf_counter()
import sys
sys.path.insert(0, {str(BENCH_DIR)!r})
from calibrate import Calibrator
with Calibrator(interleave=False) as cal:
    pass
print(repr(t), repr(cal.calibration_s))
"""
# Every run must end within 180 s; a child still running this long after
# the run started is stopped and counted as failed.
RUN_DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env) -> tuple:
    """Seconds from starting a fresh interpreter until ``import qflow.cli``
    returns, and the calibration round time taken right after.
    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                         cwd=ROOT, check=True, capture_output=True, text=True,
                         timeout=60).stdout
    imported, cal = map(float, out.split())
    return imported - t0, cal


def run_child(name, seed, trace, work: Path, env, deadline) -> dict:
    """One execution in a fresh child process; returns its result.json, or
    a failed result when the child died or overran the run deadline."""
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), name, str(seed),
           "1" if trace else "0"]
    with open(work / "stdout.log", "w") as out, \
            open(work / "stderr.log", "w") as err:
        try:
            code = subprocess.run(cmd, env=env, cwd=work, stdout=out,
                                  stderr=err,
                                  timeout=max(1.0, deadline - t0)).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    result_path = work / "result.json"
    if code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    else:
        tail = (work / "stderr.log").read_text()[-2000:]
        result = {"wall_s": time.perf_counter() - t0,
                  "calibration_s": None, "peak_rss_mb": None,
                  "items": [["child process completed", False,
                             f"exit {code}: {tail}"]],
                  "fingerprint": {}}
    result["dir"] = work
    return result


def run_workload(name, seed, seconds, trace, tmp: Path, env, deadline) -> dict:
    setup, runs = [], []
    start = time.perf_counter()
    while True:
        setup.append(measure_setup(env))
        res = run_child(name, seed, False, tmp / f"{name}-{len(runs)}", env,
                        deadline)
        shutil.rmtree(res.pop("dir"))
        runs.append(res)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(env))

    items = [tuple(i) for r in runs for i in r["items"]]
    first = runs[0]["fingerprint"]
    for k, r in enumerate(runs[1:], start=1):
        items.append((f"execution {k} repeats execution 0 exactly",
                      r["fingerprint"] == first, ""))
    cals = [r["calibration_s"] for r in runs if r["calibration_s"]]
    # A child that died timed no calibration; its time still counts, scaled
    # by the run's median calibration.
    fallback = statistics.median(cals) if cals else CAL_REF_S
    out = {
        "wall_s": [r["wall_s"] for r in runs],
        "calibration_s": [r["calibration_s"] or fallback for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs
                        if r["peak_rss_mb"] is not None],
        "setup_raw_s": [raw for raw, _ in setup],
        "setup_s": [raw * CAL_REF_S / cal for raw, cal in setup],
    }
    if trace:
        traced = run_child(name, seed, True, tmp / f"{name}-traced", env,
                           deadline)
        items += [tuple(i) for i in traced["items"]]
        items.append(("traced execution repeats untraced exactly",
                      traced["fingerprint"] == first, ""))
        out["traced"] = traced
    out["wall_norm_s"] = [w * CAL_REF_S / c for w, c in
                          zip(out["wall_s"], out["calibration_s"])]
    out["items"] = items
    out["attempted"] = len(items)
    out["failed"] = sum(not ok for _, ok, _ in items)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(name: str, m: dict) -> float:
    if name == "pass_ratio":
        return (m["attempted"] - m["failed"]) / m["attempted"]
    values = m[name]
    return statistics.median(values) if values else float("nan")


def per_layer(name: str, m: dict) -> float:
    """A per-layer metric of the traced execution, by its name."""
    traced = m["traced"]
    if "table" not in traced:
        spans = traced["dir"] / "spans.npz"
        traced["table"] = span_table(np.load(spans)) if spans.is_file() else {}
    table, counts = traced["table"], traced.get("counts", {})
    fp = traced["fingerprint"]
    if name == "trace.overhead_ratio":
        traced_norm = traced["wall_s"] * CAL_REF_S / (
            traced["calibration_s"] or statistics.median(m["calibration_s"]))
        return traced_norm / statistics.median(m["wall_norm_s"])
    if name == "morseflow.outer_iterations":
        return counts.get("outer_iterations", 0)
    if name == "morseflow.accepted_outer_ratio":
        outer = counts.get("outer_iterations", 0)
        return counts["accepted_outer"] / outer if outer else 0.0
    if name == "morseflow.nonconverged_steps":
        return counts.get("nonconverged_steps", 0)
    if name == "checks.failed":
        return counts.get("checks_failed", 0)
    if name == "grid.write_snapshot_csv.bytes":
        return counts.get("snapshot_bytes", 0)
    if name in ("cli.bytes_written", "cli.files_written"):
        return fp.get(name[4:], 0)
    span, field = name.rsplit(".", 1)
    row = table.get(span)
    if row is None:
        return 0 if field == "calls" else 0.0
    if field in ("calls", "self_s"):
        return row[field]
    if field in ("p50_us", "p99_us"):
        return float(np.percentile(row["durations"], int(field[1:3]))) * 1e6
    raise ValueError(f"no rule for per-layer metric {name!r}")


def report(workload: str, m: dict, spec: dict, trace: bool) -> dict:
    """Print every metric of one workload; return the JSON metrics."""
    attempted, failed = m["attempted"], m["failed"]
    for key in ("wall_s", "wall_norm_s", "calibration_s", "setup_raw_s"):
        values = m[key]
        p25, p75 = _quartiles(values)
        print(f"[{workload}] {key}: median {statistics.median(values)!r} s, "
              f"p25 {p25!r} s, p75 {p75!r} s, samples {len(values)}")
    print(f"[{workload}] fail_ratio: {failed / attempted!r} "
          f"({failed} of {attempted} operations)")
    for name, ok, detail in m["items"]:
        if not ok:
            print(f"[{workload}] FAILED {name}: {detail}", file=sys.stderr)
    metrics = {}
    kind, resolve = ("per_layer", per_layer) if trace else \
        ("end_to_end", end_to_end)
    for entry in spec[kind]:
        value = resolve(entry["name"], m)
        print(f"[{workload}] {entry['name']}: {value!r} {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring window (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (qflow's seed key is)")

    if not (SRC / "qflow" / "cli.py").is_file():
        print(f"perfbench: no qflow source tree at {SRC / 'qflow'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + RUN_DEADLINE_S * len(names)

    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the finally clause removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    metrics, attempted, failed = {}, 0, 0
    try:
        env = child_env()
        for name in names:
            m = run_workload(name, args.seed, seconds, args.trace, tmp,
                             env, deadline)
            attempted += m["attempted"]
            failed += m["failed"]
            for key, val in report(name, m, spec, args.trace).items():
                metrics[key if len(names) == 1 else f"{name}.{key}"] = val
    finally:
        shutil.rmtree(tmp)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
