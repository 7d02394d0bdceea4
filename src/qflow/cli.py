"""Command line surface: run, verify, sweep, oracle.

Configuration is a flat key=value file (one pair per line, # comments).
Every command takes --config, --out, --seed, --jobs and --check; flags
override the corresponding config keys.  Numeric CSV output uses full
precision scientific notation so downstream tolerance checks are never
formatting-limited, and identical config plus seed reproduces CSV files
byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, checks
from .grid import (
    InitialSpec,
    QGridFunction,
    build_domain,
    domain_manifest,
    sample_initial,
    write_snapshot_csv,
)
from .morseflow import (
    FlowTrajectory,
    geometric_schedule,
    run_flow,
    uniform_schedule,
)
from .oracle import EigenMode, exact_eigen_solution, implicit_euler_chain

_PRESETS = ("symmetric-cos", "symmetric-poly", "branches")
_MODES = ("geometric", "uniform")
_FMT = "{:.17e}".format


class ConfigError(Exception):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass(frozen=True)
class RunConfig:
    mode: str = "uniform"
    m: int = 1
    resolution: int = 51
    q: int = 2
    preset: str = "symmetric-cos"
    coeffs: tuple = ()
    branch_coeffs: tuple = ()
    h: float = 0.25              # geometric base step
    total_time: float = 0.25     # uniform horizon T
    steps: int = 16
    out: str = "out"
    seed: int = 0
    checks: tuple = ("all",)
    inject: str = ""
    sweep_resolutions: tuple = (11, 21, 41)
    sweep_steps: tuple = (16, 32, 64)
    spatial_steps: int = 12800
    eigen_index: int = 1
    jobs: int = 1


def _parse_value(key: str, raw: str):
    """Tuple keys have their own syntax; a scalar key takes the type of
    its RunConfig default."""
    raw = raw.strip()
    try:
        if key == "coeffs":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        if key == "branch_coeffs":
            groups = [g for g in raw.split(";") if g.strip()]
            return tuple(
                tuple(float(p) for p in g.split(",") if p.strip())
                for g in groups
            )
        if key == "checks":
            return tuple(p.strip() for p in raw.split(",") if p.strip())
        if key in ("sweep_resolutions", "sweep_steps"):
            return tuple(int(p) for p in raw.split(",") if p.strip())
        default = getattr(RunConfig, key, None)
        if isinstance(default, (int, float, str)):
            return type(default)(raw)
    except ValueError:
        raise ConfigError(key, f"cannot parse value {raw!r}") from None
    raise ConfigError(key, "unknown configuration key")


def parse_config(text: str) -> RunConfig:
    """key=value lines to a validated RunConfig."""
    known = {f.name for f in fields(RunConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(key, "unknown configuration key")
        values[key] = _parse_value(key, raw)
    config = replace(RunConfig(), **values)
    validate(config)
    return config


def _check_step_count(key: str, steps: int):
    """A step size total / steps must be formable: steps is at least 1
    and small enough to convert to a float."""
    if steps < 1:
        raise ConfigError(key, "must be at least 1")
    try:
        float(steps)
    except OverflowError:
        raise ConfigError(key, "too large to form a step size") from None


def validate(config: RunConfig):
    if config.mode not in _MODES:
        raise ConfigError("mode", f"must be one of {_MODES}")
    if config.m not in (1, 2):
        raise ConfigError("m", "must be 1 or 2")
    if config.resolution < 3 or config.resolution % 2 == 0:
        raise ConfigError("resolution", "must be odd and at least 3")
    if config.q < 1:
        raise ConfigError("q", "must be at least 1")
    if config.preset not in _PRESETS:
        raise ConfigError("preset", f"must be one of {_PRESETS}")
    if config.preset.startswith("symmetric") and config.q % 2 != 0:
        raise ConfigError("q", f"preset {config.preset} requires even q")
    if config.preset == "symmetric-poly" and not config.coeffs:
        raise ConfigError("coeffs", "symmetric-poly requires coefficients")
    if config.preset == "branches":
        if len(config.branch_coeffs) != config.q:
            raise ConfigError(
                "branch_coeffs",
                f"need {config.q} coefficient groups, got {len(config.branch_coeffs)}",
            )
        if any(not g for g in config.branch_coeffs):
            raise ConfigError("branch_coeffs", "empty coefficient group")
    if not 0 < config.h < math.inf:
        raise ConfigError("h", "must be positive and finite")
    if not 0 < config.total_time < math.inf:
        raise ConfigError("total_time", "must be positive and finite")
    _check_step_count("steps", config.steps)
    # the node weight delta^m / tau must stay finite for run's smallest step
    # and for verify's uniform one-branch run (delta as in build_domain)
    delta = 2.0 / (config.resolution - 1)
    taus = {"total_time": config.total_time / config.steps}
    if config.mode == "geometric":
        taus["steps"] = config.h * 0.5**config.steps
    for key, tau in taus.items():
        if not (tau > 0 and math.isfinite(delta**config.m / tau)):
            raise ConfigError(key, f"step size {tau:.3g} too small for the lattice")
    if config.seed < 0:
        raise ConfigError("seed", "must be nonnegative")
    if not config.checks:
        raise ConfigError("checks", "must name at least one check, all or none")
    if config.checks not in (("all",), ("none",)):
        for name in config.checks:
            if name not in checks.CHECK_NAMES:
                raise ConfigError("checks", f"unknown check {name!r}")
    if config.inject not in ("", "energy_monotonicity"):
        raise ConfigError("inject", "supported injection: energy_monotonicity")
    for key in ("sweep_resolutions", "sweep_steps"):
        seq = getattr(config, key)
        if not seq:
            raise ConfigError(key, "must be nonempty")
        if list(seq) != sorted(set(seq)):
            raise ConfigError(key, "must be strictly increasing")
    for res in config.sweep_resolutions:
        if res < 3 or res % 2 == 0:
            raise ConfigError("sweep_resolutions", "entries must be odd and >= 3")
    for n in config.sweep_steps:
        _check_step_count("sweep_steps", n)
    _check_step_count("spatial_steps", config.spatial_steps)
    if config.eigen_index < 1:
        raise ConfigError("eigen_index", "must be at least 1")
    if config.jobs < 1:
        raise ConfigError("jobs", "must be at least 1")


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def make_schedule(config: RunConfig):
    if config.mode == "geometric":
        return geometric_schedule(config.h, config.steps)
    return uniform_schedule(config.total_time, config.steps)


def make_initial(config: RunConfig, domain) -> QGridFunction:
    spec = InitialSpec(config.preset, config.coeffs, config.branch_coeffs)
    return sample_initial(spec, domain, config.q)


def _apply_injection(traj: FlowTrajectory, config: RunConfig) -> FlowTrajectory:
    """Negative control: corrupt one interior snapshot so the named check
    must fail.  Boundary rows stay intact to keep the failure isolated."""
    if config.inject != "energy_monotonicity":
        return traj
    k = max(1, traj.completed_steps // 2)
    states = traj.states.copy()
    # doubling keeps every row in canonical order
    states[k, traj.domain.interior] *= 2.0
    return FlowTrajectory(traj.schedule, traj.domain, states, traj.reports)


def _run_check_names(config: RunConfig) -> tuple:
    """Checks applicable to a single run of this config."""
    names = ["energy_monotonicity", "step_estimate", "eta_residual",
             "boundary_trace", "holder"]
    if config.preset.startswith("symmetric"):
        names += ["symmetry", "positivity"]
    if config.mode == "uniform":
        names.append("max_principle")
        if config.q == 1 and config.m == 1:
            names.append("oracle_equivalence")
    return tuple(n for n in checks.CHECK_NAMES if n in names)


def _selected(config: RunConfig, applicable: tuple) -> tuple:
    """The applicable checks for all, else the named ones: none names none."""
    if config.checks == ("all",):
        return applicable
    return tuple(n for n in checks.CHECK_NAMES if n in config.checks)


def _write_report(path: Path, payload: dict, results):
    """Write the JSON report of a run or verify command with its check
    results, print one line per check and name the failing checks on
    stderr.  A check that cannot apply has a non-finite margin, which the
    report writes as null so that the file stays strict JSON."""
    payload = {**payload, "checks": [
        {**asdict(r), "margin": r.margin if math.isfinite(r.margin) else None}
        for r in results]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"check {res.name}: {status} margin={res.margin:.3e} ({res.detail})")
    failing = [r.name for r in results if not r.passed]
    if failing:
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)


def _write_energy_csv(path, traj: FlowTrajectory):
    """Per-step table of the trajectory's quantities, which it computes
    from the snapshots themselves, so the file reflects what is on disk
    rather than the solver's internal log."""
    e = traj.energies
    with open(path, "w") as fh:
        fh.write("k,tau,energy_before,energy_after,penalty,estimate_margin,"
                 "eta_residual,max_norm,outer_iterations\n")
        for k, report in enumerate(traj.reports, start=1):
            row = [str(k), _FMT(report.tau), _FMT(e[k - 1]), _FMT(e[k]),
                   _FMT(traj.penalties[k - 1]),
                   _FMT(traj.estimate_margins[k - 1]),
                   _FMT(traj.eta_residuals[k - 1]), _FMT(traj.max_norms[k]),
                   str(report.outer_iterations)]
            fh.write(",".join(row) + "\n")


def _write_snapshots(out_dir: Path, traj: FlowTrajectory):
    snap_dir = out_dir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    for k, f in enumerate(traj.snapshots):
        write_snapshot_csv(f, snap_dir / f"{k}.csv")


def cmd_run(config: RunConfig) -> int:
    t0 = time.perf_counter()
    domain = build_domain(config.m, config.resolution)
    f0 = make_initial(config, domain)
    traj = run_flow(f0, make_schedule(config))
    traj = _apply_injection(traj, config)
    wall = time.perf_counter() - t0

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_energy_csv(out_dir / "energy.csv", traj)
    _write_snapshots(out_dir, traj)

    results = checks.evaluate(_selected(config, _run_check_names(config)),
                              np.random.default_rng(config.seed), traj)
    complete = traj.converged
    passed = all(r.passed for r in results) and complete

    # ahead of the report's FAILED line on stderr
    if not complete:
        print("run: trajectory truncated by a non-converged step", file=sys.stderr)
    _write_report(out_dir / "run.json", {
        "version": __version__,
        "command": "run",
        "config": asdict(config),
        "domain": domain_manifest(domain),
        "schedule": asdict(traj.schedule),
        "completed_steps": traj.completed_steps,
        "converged": complete,
        "effective_time": traj.effective_time,
        "energies": traj.energies,
        "injected": config.inject or None,
        "wall_time_seconds": wall,
        "passed": passed,
    }, results)
    print(f"run: {traj.completed_steps}/{traj.schedule.steps} steps, "
          f"converged={complete}, artifacts in {out_dir}")
    return 0 if passed else 1


def cmd_verify(config: RunConfig) -> int:
    domain = build_domain(config.m, config.resolution)
    schedule = make_schedule(config)

    traj = _apply_injection(run_flow(make_initial(config, domain), schedule),
                            config)
    # a symmetric preset is its own symmetric run: the checks fall back to
    # traj, and max_principle counts it once
    sym = None
    if not config.preset.startswith("symmetric"):
        sym_cfg = replace(config, preset="symmetric-cos", coeffs=(),
                          branch_coeffs=(), q=2)
        sym = run_flow(make_initial(sym_cfg, domain), schedule)
    q1_cfg = replace(config, q=1, preset="branches", coeffs=(),
                     branch_coeffs=((1.0, 0.0, -1.0),))
    q1 = run_flow(make_initial(q1_cfg, domain),
                  uniform_schedule(config.total_time, config.steps))
    results = checks.evaluate(_selected(config, checks.CHECK_NAMES),
                              np.random.default_rng(config.seed), traj, sym, q1)
    passed = all(r.passed for r in results)

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "verify.json", {
        "version": __version__,
        "command": "verify",
        "config": asdict(config),
        "injected": config.inject or None,
        "passed": passed,
    }, results)
    if not passed:
        return 1
    print(f"verify: {len(results)} checks passed, report in {out_dir}")
    return 0


def _rel_errors(u, exact):
    """Relative l2 and max errors of u against exact."""
    diff = u - exact
    return (float(np.linalg.norm(diff) / np.linalg.norm(exact)),
            float(np.max(np.abs(diff)) / np.max(np.abs(exact))))


def _heat_errors(config: RunConfig, resolution: int, steps: int):
    """Relative errors of the uniform flow's top branch at T against the
    separated exact solution."""
    domain = build_domain(1, resolution)
    cfg = replace(config, m=1, resolution=resolution, steps=steps,
                  mode="uniform", preset="symmetric-cos", q=2,
                  coeffs=(), branch_coeffs=())
    traj = run_flow(make_initial(cfg, domain),
                    uniform_schedule(config.total_time, steps))
    exact = exact_eigen_solution(EigenMode(config.eigen_index),
                                 config.total_time, domain)
    return _rel_errors(traj.states[-1, :, -1, 0], exact)


def _flow_errors(config: RunConfig, cell):
    """Sweep cell worker; a failed cell is marked NaN and the table kept."""
    resolution, steps = cell
    try:
        return _heat_errors(config, resolution, steps)
    except Exception as err:
        print(f"sweep cell resolution={resolution} N={steps} failed: {err}",
              file=sys.stderr)
        return float("nan"), float("nan")


def _chain_errors(config: RunConfig, cell):
    """Oracle cell worker: the reference chain against the exact mode."""
    resolution, steps = cell
    domain = build_domain(1, resolution)
    mode = EigenMode(config.eigen_index)
    u0 = exact_eigen_solution(mode, 0.0, domain)
    u = implicit_euler_chain(domain, u0, [config.total_time / steps] * steps)[-1]
    return _rel_errors(u, exact_eigen_solution(mode, config.total_time, domain))


def _ladder(config: RunConfig, name: str, label: str, errors_fn) -> list:
    """Error ladder of one cell worker: temporal rows (fixed grid, steps
    from sweep_steps) then spatial rows (fixed steps, resolutions from
    sweep_resolutions), with observed orders between consecutive rows of
    each group.  Writes <name>.csv, prints the table and returns the rows
    (resolution, tau, steps, l2, linf, order)."""
    cells = [(config.resolution, n) for n in config.sweep_steps]
    cells += [(r, config.spatial_steps) for r in config.sweep_resolutions]

    workers = min(config.jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(errors_fn, cells))
    else:
        outcomes = [errors_fn(cell) for cell in cells]

    rows = []
    n_t = len(config.sweep_steps)
    for i, ((resolution, steps), (l2, linf)) in enumerate(zip(cells, outcomes)):
        order = None
        if i not in (0, n_t) and math.isfinite(l2):
            prev_res, prev_steps = cells[i - 1]
            prev_l2 = rows[-1][3]
            if i > n_t:
                ratio = (resolution - 1) / (prev_res - 1)
            else:
                ratio = steps / prev_steps
            if prev_l2 > 0 and l2 > 0:
                order = math.log(prev_l2 / l2) / math.log(ratio)
        rows.append((resolution, config.total_time / steps, steps, l2, linf,
                     order))

    path = Path(config.out) / f"{name}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("resolution,tau,N,l2_error_vs_exact,linf_error_vs_exact,"
                 "observed_order\n")
        for resolution, tau, steps, l2, linf, order in rows:
            order = "" if order is None else _FMT(order)
            fh.write(f"{resolution},{_FMT(tau)},{steps},{_FMT(l2)},"
                     f"{_FMT(linf)},{order}\n")
    print(f"{name} ({label}): resolution  N       l2_rel      linf_rel    order")
    for resolution, _, steps, l2, linf, order in rows:
        order = "      -" if order is None else f"{order:7.3f}"
        print(f"  {resolution:10d}  {steps:6d}  {l2:.4e}  {linf:.4e}  {order}")
    print(f"{name}: table in {path}")
    return rows


def cmd_sweep(config: RunConfig) -> int:
    if config.m != 1:
        raise ConfigError("m", "sweep compares against the interval exact "
                                "solution and requires m=1")
    if config.eigen_index != 1:
        raise ConfigError("eigen_index", "the flow sweep tracks the ground "
                                         "mode; use the oracle command for "
                                         "higher modes")
    rows = _ladder(config, "sweep", "flow vs exact",
                   functools.partial(_flow_errors, config))
    # a failed cell has a NaN l2 error
    return 0 if all(math.isfinite(row[3]) for row in rows) else 1


def cmd_oracle(config: RunConfig) -> int:
    if config.m != 1:
        raise ConfigError("m", "the reference chain is built for m=1")
    _ladder(config, "oracle", "reference chain vs exact",
            functools.partial(_chain_errors, config))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qflow",
        description="Energy-reducing implicit flow for multiset-valued "
                    "grid functions: run, verify, sweep, oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "run the flow and write energy.csv, snapshots/, run.json"),
        ("verify", "run the full check battery and write verify.json"),
        ("sweep", "error ladder of the flow against the exact solution"),
        ("oracle", "error ladder of the reference chain against the exact "
                   "solution"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="sampling seed (overrides config)")
        p.add_argument("--jobs", type=int, help="sweep worker count")
        p.add_argument("--check", action="append", default=None,
                       help="restrict to the named check (repeatable)")
    args = parser.parse_args(argv)

    try:
        try:
            config = load_config(args.config) if args.config else RunConfig()
        except OSError as err:
            raise ConfigError("config", f"cannot read {args.config!r}: {err}") \
                from None
        overrides = {}
        if args.out is not None:
            overrides["out"] = args.out
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        if args.check:
            names = []
            for entry in args.check:
                names += [p.strip() for p in entry.split(",") if p.strip()]
            overrides["checks"] = tuple(names)
        if overrides:
            config = replace(config, **overrides)
            validate(config)
        command = {"run": cmd_run, "verify": cmd_verify,
                   "sweep": cmd_sweep, "oracle": cmd_oracle}[args.command]
        return command(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
