"""The four benchmark workloads and their correctness gates.

Each workload has a `prepare(seed)` step, untimed, that writes its inputs
and returns the zero-argument callable the child process times, and a
`gate(seed, result)` step, run after timing, that returns the gate items
and the workload's fingerprint.  Both run in the execution's own working
directory and use relative paths, so the outputs, which record their own
paths, do not depend on where that directory is.

A gate item is (name, ok, detail).  Every item is one operation of the
benchmark's `attempted` count; an item that is not ok is a failure.  The
fingerprint holds what must repeat exactly across executions with the same
seed: step counts, files written and a digest of the byte-reproducible
outputs.

Workloads call qflow only through module attributes (``qflow.cli.main``,
``qflow.run_flow``), looked up at call time, so the tracer's wrappers see
the benchmark's own calls too.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

import qflow
import qflow.cli

# The acceptance configuration, on the disk or the interval.
DISK_RUN_CONFIG = """\
mode = uniform
m = 2
resolution = 61
q = 2
preset = symmetric-cos
total_time = 0.25
steps = 64
checks = all
jobs = 1
"""

VERIFY_CONFIG = """\
mode = uniform
m = 1
resolution = 201
q = 2
preset = symmetric-cos
total_time = 0.25
steps = 64
jobs = 1
"""

DISK_RUN_STEPS = 64
DISK_RUN_CHECKS = ("energy_monotonicity", "step_estimate", "eta_residual",
                   "symmetry", "positivity", "max_principle",
                   "boundary_trace", "holder")
VERIFY_SEEDS = 5

# The default sweep: temporal 16/32/64 steps at resolution 51, then spatial
# 11/21/41 at 12800 steps.  Backward Euler is first order in tau and the
# five-point Laplacian second order in delta; the tolerances are acceptance
# criterion 06's lower limits, mirrored above the theoretical order.
SWEEP_ROWS = 6
SWEEP_TEMPORAL_ORDER = (0.9, 1.1)
SWEEP_SPATIAL_ORDER = (1.9, 2.1)
SWEEP_MAX_REL_ERROR = 5e-2

# The branched two-valued datum {+sqrt(z), -sqrt(z)} on the unit disk.
VECTOR_RESOLUTION = 21
VECTOR_STEPS = 16
VECTOR_TOTAL_TIME = 0.05
VECTOR_PERTURBATION = 1e-2


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _files(root: Path):
    return sorted(p for p in root.rglob("*") if p.is_file())


def _check_items(checks, expected) -> list:
    """One item per expected check: present, passed, margin >= 0."""
    by_name = {c["name"]: c for c in checks}
    items = []
    for name in expected:
        c = by_name.get(name)
        ok = c is not None and c["passed"] and c["margin"] >= 0.0
        detail = "missing" if c is None else f"margin {c['margin']:.3e}"
        items.append((f"check {name}", ok, detail))
    return items


def _cli_fingerprint(artifacts: Path, reproducible) -> dict:
    """Files written by the CLI, and digest and bytes of those whose
    content is byte-reproducible for a config and seed."""
    files = _files(artifacts)
    stable = [p for p in files if reproducible(p)]
    return {
        "files_written": len(files),
        "bytes_written": sum(p.stat().st_size for p in stable),
        "digest": _digest(stable),
    }


# --- disk-run: qflow run on the disk ---------------------------------------

def _prepare_disk_run(seed: int):
    Path("disk-run.cfg").write_text(DISK_RUN_CONFIG)
    argv = ["run", "--config", "disk-run.cfg", "--out", "artifacts",
            "--seed", str(seed)]
    return lambda: qflow.cli.main(argv)


def _gate_disk_run(seed: int, code) -> tuple:
    artifacts = Path("artifacts")
    items = [("exit code 0", code == 0, f"exit code {code}")]
    try:
        report = json.loads((artifacts / "run.json").read_text())
    except (OSError, ValueError) as err:
        return items + [("run.json readable", False, str(err))], {}
    steps = report["completed_steps"]
    items += [
        ("run.json passed", report["passed"] is True, ""),
        ("all steps completed", steps == DISK_RUN_STEPS, f"{steps} steps"),
        ("all steps converged", report["converged"] is True, ""),
    ]
    items += _check_items(report["checks"], DISK_RUN_CHECKS)
    with open(artifacts / "energy.csv") as fh:
        rows = len(fh.readlines()) - 1
    snaps = len(list((artifacts / "snapshots").glob("*.csv")))
    items += [
        ("energy.csv rows", rows == DISK_RUN_STEPS, f"{rows} rows"),
        ("snapshot files", snaps == DISK_RUN_STEPS + 1, f"{snaps} files"),
    ]
    fp = _cli_fingerprint(artifacts, lambda p: p.suffix == ".csv")
    fp["steps"] = steps
    fp["checks"] = [[c["name"], c["margin"]] for c in report["checks"]]
    return items, fp


# --- heat-ladder: qflow sweep with the default config ------------------------

def _prepare_heat_ladder(seed: int):
    argv = ["sweep", "--out", "artifacts", "--seed", str(seed),
            "--jobs", "1"]
    return lambda: qflow.cli.main(argv)


def _gate_heat_ladder(seed: int, code) -> tuple:
    artifacts = Path("artifacts")
    items = [("exit code 0", code == 0, f"exit code {code}")]
    try:
        with open(artifacts / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        return items + [("sweep.csv readable", False, str(err))], {}
    items.append(("sweep.csv rows", len(rows) == SWEEP_ROWS, f"{len(rows)} rows"))
    half = SWEEP_ROWS // 2
    for i, row in enumerate(rows):
        label = f"row {i} (resolution {row['resolution']}, N {row['N']})"
        l2 = float(row["l2_error_vs_exact"])
        items.append((f"{label} l2 error", 0.0 < l2 <= SWEEP_MAX_REL_ERROR,
                      f"{l2:.3e}"))
        if i % half == 0:
            continue
        lo, hi = SWEEP_TEMPORAL_ORDER if i < half else SWEEP_SPATIAL_ORDER
        order = float(row["observed_order"]) if row["observed_order"] else math.nan
        items.append((f"{label} order", lo <= order <= hi, f"{order:.4f}"))
    fp = _cli_fingerprint(artifacts, lambda p: p.suffix == ".csv")
    fp["steps"] = sum(int(r["N"]) for r in rows)
    return items, fp


# --- vector-flow: library run_flow on the branched datum ---------------------

def _sqrt_datum(domain, rng):
    """{+sqrt(z), -sqrt(z)} as two points of R^2 per node, with a small
    seeded perturbation of the interior branch values."""
    z = domain.coords[:, 0] + 1j * domain.coords[:, 1]
    root = np.sqrt(z)
    vals = np.empty((domain.num_nodes, 2, 2))
    vals[:, 0, 0], vals[:, 0, 1] = root.real, root.imag
    vals[:, 1] = -vals[:, 0]
    vals[domain.interior] += VECTOR_PERTURBATION * rng.normal(
        size=(len(domain.interior), 2, 2))
    return vals


def _prepare_vector_flow(seed: int):
    def execute():
        rng = np.random.default_rng(seed)
        domain = qflow.build_domain(2, VECTOR_RESOLUTION)
        f0 = qflow.QGridFunction(domain, _sqrt_datum(domain, rng))
        traj = qflow.run_flow(
            f0, qflow.uniform_schedule(VECTOR_TOTAL_TIME, VECTOR_STEPS))
        results = [
            qflow.checks.check_energy_monotonicity(traj),
            qflow.checks.check_step_estimate(traj),
            qflow.checks.check_boundary_trace(traj, rng),
            qflow.checks.check_max_principle([traj]),
        ]
        return traj, results

    return execute


def _gate_vector_flow(seed: int, result) -> tuple:
    traj, results = result
    steps = traj.completed_steps
    items = [
        ("all steps completed", steps == VECTOR_STEPS, f"{steps} steps"),
        ("all steps converged", traj.converged, ""),
    ]
    items += _check_items(
        [{"name": r.name, "passed": r.passed, "margin": r.margin}
         for r in results],
        ("energy_monotonicity", "step_estimate", "boundary_trace",
         "max_principle"))
    for r in traj.reports:
        items.append((f"step {r.k} energy does not increase",
                      r.energy_after <= r.energy_before,
                      f"{r.energy_before:.6e} -> {r.energy_after:.6e}"))
    bnd = traj.snapshots[0].domain.is_boundary
    ref = traj.snapshots[0].values[bnd]
    same = all(np.array_equal(f.values[bnd], ref) for f in traj.snapshots)
    items.append(("boundary rows identical", same, ""))
    h = hashlib.sha256()
    for f in traj.snapshots:
        h.update(f.values.tobytes())
    fp = {
        "steps": steps,
        "outer_iterations": [r.outer_iterations for r in traj.reports],
        "digest": h.hexdigest(),
    }
    return items, fp


# --- verify-battery: qflow verify over a fixed list of seeds -----------------

def _verify_seeds(seed: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(VERIFY_SEEDS)]


def _prepare_verify_battery(seed: int):
    Path("verify.cfg").write_text(VERIFY_CONFIG)
    argvs = [["verify", "--config", "verify.cfg",
              "--out", f"artifacts/{s}", "--seed", str(s)]
             for s in _verify_seeds(seed)]
    return lambda: [qflow.cli.main(argv) for argv in argvs]


def _gate_verify_battery(seed: int, codes) -> tuple:
    items = []
    for s, code in zip(_verify_seeds(seed), codes):
        items.append((f"seed {s} exit code 0", code == 0, f"exit code {code}"))
        try:
            report = json.loads(Path(f"artifacts/{s}/verify.json").read_text())
        except (OSError, ValueError) as err:
            items.append((f"seed {s} verify.json readable", False, str(err)))
            continue
        items.append((f"seed {s} verify.json passed", report["passed"] is True, ""))
        items += [(f"seed {s} {name}", ok, detail) for name, ok, detail
                  in _check_items(report["checks"], qflow.checks.CHECK_NAMES)]
    fp = _cli_fingerprint(Path("artifacts"), lambda p: True)
    return items, fp


WORKLOADS = {
    "disk-run": (_prepare_disk_run, _gate_disk_run),
    "heat-ladder": (_prepare_heat_ladder, _gate_heat_ladder),
    "vector-flow": (_prepare_vector_flow, _gate_vector_flow),
    "verify-battery": (_prepare_verify_battery, _gate_verify_battery),
}
