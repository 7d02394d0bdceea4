"""Self-test of the benchmark's trace.

    python3 perfbench/selftest.py [--seed N]

Runs every workload's traced execution twice, each in a fresh child, and
checks three things:

* every wrapped function is counted on each workload predicted to call it
  and reads exactly zero on every other workload (PREDICTED_CALLS);
* the other predicted values hold (PREDICTED_VALUES);
* every exact count, and the output fingerprint, repeats exactly between
  the two executions.

The calls that reach ``qspace.optimal_matching`` on vector-flow come only
through the bindings in ``grid`` and ``morseflow``, so a nonzero count there
shows that the tracer rebinds consumer modules and not only the definer.
Prints one line per violation and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run

ALL = frozenset(run.WORKLOADS)
CLI = frozenset({"disk-run", "heat-ladder", "verify-battery"})
INTERPOLATING = frozenset({"disk-run", "verify-battery"})
VERIFY = frozenset({"verify-battery"})
# Checks the vector-flow workload runs too; the other run checks need n = 1.
VECTOR_CHECKS = frozenset({"disk-run", "vector-flow", "verify-battery"})

# Span name -> the workloads predicted to call it; zero calls elsewhere.
PREDICTED_CALLS = {
    "qspace.optimal_matching": frozenset({"vector-flow", "verify-battery"}),
    "qspace.ascending_projection": INTERPOLATING,
    "grid.dirichlet_energy": ALL,
    "grid.l2_distance_sq": ALL,
    "grid.QGridFunction": ALL,
    "grid.write_snapshot_csv": frozenset({"disk-run"}),
    "grid.build_domain": ALL,
    "morseflow.run_flow": ALL,
    "morseflow.minimize_step": ALL,
    "morseflow.evaluate_at_time": INTERPOLATING,
    "oracle.brute_force_step": VERIFY,
    "oracle.implicit_euler_chain": VERIFY,
    "cli.main": CLI,
    "checks.metric_axioms": VERIFY,
    "checks.sorted_matching": VERIFY,
    "checks.embedding_isometry": VERIFY,
    "checks.ascending_projection": VERIFY,
    "checks.translation_identity": VERIFY,
    "checks.energy_monotonicity": VECTOR_CHECKS,
    "checks.step_estimate": VECTOR_CHECKS,
    "checks.eta_residual": INTERPOLATING,
    "checks.symmetry": INTERPOLATING,
    "checks.positivity": INTERPOLATING,
    "checks.max_principle": VECTOR_CHECKS,
    "checks.boundary_trace": VECTOR_CHECKS,
    "checks.holder": INTERPOLATING,
    "checks.brute_force": VERIFY,
    "checks.oracle_equivalence": VERIFY,
}

# (metric, workloads, expected value) on the unmodified program.
PREDICTED_VALUES = [
    ("morseflow.accepted_outer_ratio", {"heat-ladder"}, 0.5),
    ("morseflow.nonconverged_steps", ALL, 0),
    ("checks.failed", ALL, 0),
    ("cli.bytes_written", {"vector-flow"}, 0),
    ("cli.files_written", {"vector-flow"}, 0),
]

# Per-layer metrics that are timings rather than exact counts.
TIMED_UNITS = ("s", "us")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    exact = [e["name"] for e in spec["per_layer"]
             if e["unit"] not in TIMED_UNITS
             and e["name"] != "trace.overhead_ratio"]
    env = run.child_env()
    problems = []
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        for name in run.WORKLOADS:
            values = []
            for rep in range(2):
                traced = run.run_child(name, args.seed, True,
                                       Path(tmp) / f"{name}-{rep}", env,
                                       time.perf_counter() + run.RUN_DEADLINE_S)
                m = {"traced": traced, "wall_s": [traced["wall_s"]],
                     "calibration_s": [traced["calibration_s"]],
                     "wall_norm_s": [traced["wall_s"] * run.CAL_REF_S
                                     / traced["calibration_s"]]}
                for item, ok, detail in traced["items"]:
                    if not ok:
                        problems.append(f"{name}: gate {item} failed: {detail}")
                metrics = {e["name"]: run.per_layer(e["name"], m)
                           for e in spec["per_layer"]}
                values.append((traced, metrics))
                shutil.rmtree(traced["dir"])

            (first, m0), (second, m1) = values
            if name == run.WORKLOADS[0]:
                for span, holders in first.get("rebound", {}).items():
                    print(f"{span} rebound in {', '.join(holders)}")
            for span, callers in PREDICTED_CALLS.items():
                calls = first["table"].get(span, {}).get("calls", 0)
                if (calls > 0) != (name in callers):
                    want = "nonzero" if name in callers else "zero"
                    problems.append(f"{name}: {span} called {calls} times, "
                                    f"predicted {want}")
            for metric, names, want in PREDICTED_VALUES:
                if name in names and m0[metric] != want:
                    problems.append(f"{name}: {metric} = {m0[metric]!r}, "
                                    f"predicted {want!r}")
            for metric in exact:
                if m0[metric] != m1[metric]:
                    problems.append(f"{name}: {metric} did not repeat: "
                                    f"{m0[metric]!r} then {m1[metric]!r}")
            if first["fingerprint"] != second["fingerprint"]:
                problems.append(f"{name}: output fingerprint did not repeat")
            print(f"{name}: " + ", ".join(f"{k}={m0[k]!r}" for k in exact))
    finally:
        shutil.rmtree(tmp)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest: " + (f"{len(problems)} problems" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
