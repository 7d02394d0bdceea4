"""Command line surface: config handling, artifacts, exit codes."""

import concurrent.futures
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from qflow import checks, cli, grid, morseflow
from qflow.checks import CHECK_NAMES
from qflow.cli import (
    ConfigError,
    RunConfig,
    _write_energy_csv,
    load_config,
    main,
    make_initial,
    make_schedule,
    parse_config,
    validate,
)
from qflow.grid import (
    QGridFunction,
    build_domain,
    dirichlet_energy,
)
from qflow.morseflow import FlowTrajectory, geometric_schedule, run_flow
from test_grid import write_snapshot_by_rows

SMALL = """
# smoke configuration
mode = uniform
resolution = 21
q = 2
preset = symmetric-cos
total_time = 0.25
steps = 6
seed = 7
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def trajectory_of(schedule, snapshots, reports):
    """A trajectory whose state array stacks the given snapshots."""
    return FlowTrajectory(schedule, snapshots[0].domain,
                          np.stack([f.values for f in snapshots]), reports)


# --- configuration ---------------------------------------------------------

def test_config_error_carries_the_key():
    err = ConfigError("q", "must be at least 1")
    assert str(err) == "q: must be at least 1"
    assert err.key == "q"


def test_parse_small_config():
    cfg = parse_config(SMALL)
    assert cfg.mode == "uniform"
    assert cfg.resolution == 21
    assert cfg.steps == 6
    assert cfg.seed == 7
    # untouched keys keep their defaults
    assert cfg.spatial_steps == RunConfig().spatial_steps


FULL_DEFAULT = """
mode=uniform
m=1
resolution=51
q=2
preset=symmetric-cos
coeffs=
branch_coeffs=
h=0.25
total_time=0.25
steps=16
out=out
seed=0
checks=all
inject=
sweep_resolutions=11,21,41
sweep_steps=16,32,64
spatial_steps=12800
eigen_index=1
jobs=1
"""

POLY = """
mode=geometric
m=1
resolution=51
q=2
preset=symmetric-poly
coeffs=0.5,0.0,-0.25
branch_coeffs=
h=0.125
total_time=0.25
steps=24
out=out
seed=0
checks=holder,symmetry
inject=
sweep_resolutions=11,21,41
sweep_steps=4,8,16
spatial_steps=640
eigen_index=1
jobs=1
"""

BRANCHES = """
mode=uniform
m=1
resolution=51
q=3
preset=branches
coeffs=
branch_coeffs=1.0,0.0,-1.0;0.25;0.5,0.1
h=0.25
total_time=0.25
steps=16
out=out
seed=0
checks=all
inject=energy_monotonicity
sweep_resolutions=11,21,41
sweep_steps=16,32,64
spatial_steps=12800
eigen_index=1
jobs=3
"""


@pytest.mark.parametrize("text, expected", [
    (FULL_DEFAULT, RunConfig()),
    (POLY, dataclasses.replace(
        RunConfig(),
        mode="geometric",
        h=0.125,
        steps=24,
        preset="symmetric-poly",
        coeffs=(0.5, 0.0, -0.25),
        checks=("holder", "symmetry"),
        sweep_steps=(4, 8, 16),
        spatial_steps=640,
    )),
    (BRANCHES, dataclasses.replace(
        RunConfig(),
        q=3,
        preset="branches",
        branch_coeffs=((1.0, 0.0, -1.0), (0.25,), (0.5, 0.1)),
        inject="energy_monotonicity",
        jobs=3,
    )),
], ids=["default", "poly", "branches"])
def test_parse_every_key_and_value_syntax(text, expected):
    """Every key written out: floats, comma tuples, `;` coefficient
    groups, check names, int tuples, strings, ints and empty values."""
    assert {line.partition("=")[0] for line in text.split()} == {
        f.name for f in dataclasses.fields(RunConfig)}
    assert parse_config(text) == expected


def test_parse_rejects_malformed_input():
    with pytest.raises(ConfigError):
        parse_config("resolution 21\n")
    with pytest.raises(ConfigError):
        parse_config("no_such_key = 3\n")
    with pytest.raises(ConfigError):
        parse_config("steps = many\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("h = 0.5.1\n")
    # the pairing sweep cap is no longer configurable
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config("max_outer = 5\n")


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"mode": "adaptive"}, "mode"),
        ({"m": 3}, "m"),
        ({"resolution": 20}, "resolution"),
        ({"q": 0}, "q"),
        ({"preset": "plateau"}, "preset"),
        ({"q": 3}, "q"),  # symmetric preset needs even q
        ({"preset": "symmetric-poly"}, "coeffs"),
        ({"preset": "branches"}, "branch_coeffs"),
        ({"h": 0.0}, "h"),
        ({"total_time": -1.0}, "total_time"),
        ({"steps": 0}, "steps"),
        ({"preset": "branches", "q": 1, "branch_coeffs": ((),)},
         "branch_coeffs"),
        ({"sweep_steps": (0, 4)}, "sweep_steps"),
        ({"seed": -1}, "seed"),
        ({"checks": ("bogus",)}, "checks"),
        ({"inject": "holder"}, "inject"),
        ({"sweep_resolutions": (21, 11)}, "sweep_resolutions"),
        ({"sweep_resolutions": (10, 20)}, "sweep_resolutions"),
        ({"sweep_steps": ()}, "sweep_steps"),
        ({"spatial_steps": 0}, "spatial_steps"),
        ({"eigen_index": 0}, "eigen_index"),
        ({"jobs": 0}, "jobs"),
        ({"h": float("nan")}, "h"),
        ({"h": float("inf")}, "h"),
        ({"total_time": float("nan")}, "total_time"),
        ({"total_time": float("inf")}, "total_time"),
        # delta^m / tau overflows: run's last geometric step, tau = 0.0, and
        # the uniform step verify's one-branch run takes
        ({"mode": "geometric", "resolution": 11, "steps": 1025}, "steps"),
        ({"mode": "geometric", "steps": 1100}, "steps"),
        ({"mode": "geometric", "total_time": 1e-310, "steps": 4}, "total_time"),
        ({"total_time": 1e-310, "steps": 4}, "total_time"),
        # step counts too large for a float: no step size can be formed
        ({"steps": 10**400}, "steps"),
        ({"mode": "geometric", "steps": 10**400}, "steps"),
        ({"sweep_steps": (16, 10**400)}, "sweep_steps"),
        ({"spatial_steps": 10**400}, "spatial_steps"),
    ],
)
def test_validate_names_the_offending_key(changes, key):
    cfg = dataclasses.replace(RunConfig(), **changes)
    with pytest.raises(ConfigError) as exc:
        validate(cfg)
    assert exc.value.key == key


def test_load_config_reads_files(tmp_path):
    path = write_config(tmp_path, SMALL)
    assert load_config(path) == parse_config(SMALL)


# --- run -------------------------------------------------------------------

def test_run_writes_artifacts_and_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0

    energy_lines = (out / "energy.csv").read_text().splitlines()
    assert energy_lines[0] == (
        "k,tau,energy_before,energy_after,penalty,estimate_margin,"
        "eta_residual,max_norm,outer_iterations"
    )
    assert len(energy_lines) == 1 + 6
    snaps = sorted((out / "snapshots").glob("*.csv"))
    assert [p.name for p in snaps] == [f"{k}.csv" for k in range(7)]

    payload = json.loads((out / "run.json").read_text())
    assert payload["command"] == "run"
    assert payload["passed"] is True
    assert payload["converged"] is True
    assert payload["completed_steps"] == 6
    assert payload["domain"]["resolution"] == 21
    assert len(payload["energies"]) == 7
    assert all(c["passed"] for c in payload["checks"])
    # energies must not increase
    e = payload["energies"]
    assert all(b <= a + 1e-10 * max(1.0, a) for a, b in zip(e, e[1:]))
    assert "PASS" in capsys.readouterr().out


def test_run_with_constant_data_reports_zero_energy(tmp_path):
    text = (
        "mode = uniform\nresolution = 11\nq = 1\npreset = branches\n"
        "branch_coeffs = 0.0\ntotal_time = 0.1\nsteps = 4\n"
    )
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["energies"] == [0.0] * 5


def test_run_check_selection_override(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(cfg), "--out", str(out),
        "--check", "energy_monotonicity", "--check", "holder,boundary_trace",
    ])
    assert code == 0
    payload = json.loads((out / "run.json").read_text())
    names = [c["name"] for c in payload["checks"]]
    assert names == ["energy_monotonicity", "boundary_trace", "holder"]


def test_run_with_checks_disabled(tmp_path):
    cfg = write_config(tmp_path, SMALL + "checks = none\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["checks"] == []


def test_injection_trips_the_monotonicity_check(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL + "inject = energy_monotonicity\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "energy_monotonicity" in captured.err
    payload = json.loads((out / "run.json").read_text())
    assert payload["passed"] is False
    assert payload["injected"] == "energy_monotonicity"
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert "energy_monotonicity" in failed


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "resolution = 20\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "resolution" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("run", "mode = geometric\nresolution = 11\nsteps = 1025\n"),
    ("verify", "mode = geometric\nresolution = 11\nsteps = 1025\n"),
    ("run", "mode = uniform\nresolution = 11\ntotal_time = 1e-310\nsteps = 4\n"),
])
def test_a_step_too_small_for_the_lattice_is_a_config_error(tmp_path, command,
                                                            text):
    cfg = write_config(tmp_path, text)
    proc = subprocess.run(
        [sys.executable, "-m", "qflow", command, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert "too small for the lattice" in proc.stderr
    assert "Traceback" not in proc.stderr


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("command, key, text", [
    ("run", "steps", f"mode = uniform\nsteps = {HUGE}\n"),
    ("run", "steps", f"mode = geometric\nsteps = {HUGE}\n"),
    ("sweep", "spatial_steps", f"spatial_steps = {HUGE}\n"),
    ("sweep", "sweep_steps", f"sweep_steps = 16,{HUGE}\n"),
])
def test_a_step_count_too_large_for_a_float_is_a_config_error(
        tmp_path, command, key, text):
    cfg = write_config(tmp_path, text)
    proc = subprocess.run(
        [sys.executable, "-m", "qflow", command, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"config error: {key}: too large to form a step size\n"


def test_the_smallest_representable_geometric_step_still_runs(tmp_path):
    """At resolution 11, tau = h / 2^1024 keeps delta / tau finite."""
    cfg = write_config(tmp_path, "mode = geometric\nresolution = 11\nsteps = 1024\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_check_name_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    code = main(["run", "--config", str(cfg), "--check", "bogus"])
    assert code == 2
    assert "checks" in capsys.readouterr().err


@pytest.mark.parametrize("config_line, flags", [
    ("checks =\n", []),
    ("", ["--check", ""]),
    ("", ["--check", ","]),
], ids=["config-key", "empty-flag", "comma-flag"])
def test_an_empty_check_list_exits_2_naming_checks(tmp_path, capsys,
                                                   config_line, flags):
    """An empty list would run no check and pass vacuously."""
    cfg = write_config(tmp_path, SMALL + config_line)
    for command in ("run", "verify"):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out"), *flags]) == 2
        assert capsys.readouterr().err.startswith("config error: checks: ")
    assert not (tmp_path / "out").exists()


def test_runs_are_reproducible_byte_for_byte(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "energy.csv").read_bytes() == (out_b / "energy.csv").read_bytes()
    for snap in sorted((out_a / "snapshots").glob("*.csv")):
        twin = out_b / "snapshots" / snap.name
        assert snap.read_bytes() == twin.read_bytes()


@pytest.mark.parametrize("inject", [False, True])
def test_run_snapshots_match_a_per_row_writer(tmp_path, monkeypatch, inject):
    """Every snapshots/<k>.csv of a small disk run (m = 2, q = 2, n = 1) is
    the per-row reference file of state k of the trajectory that `run`
    writes; with the energy_monotonicity negative control that trajectory
    carries the corrupted state."""
    written = []
    apply_injection = cli._apply_injection

    def recording(traj, config):
        written.append(apply_injection(traj, config))
        return written[-1]

    monkeypatch.setattr(cli, "_apply_injection", recording)
    text = SMALL + "m = 2\nresolution = 11\n"
    if inject:
        text += "inject = energy_monotonicity\n"
    cfg = write_config(tmp_path, text)
    config = load_config(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == (1 if inject else 0)
    traj, = written
    clean = run_flow(make_initial(config, traj.domain), make_schedule(config))
    moved = [k for k, (a, b) in enumerate(zip(traj.states, clean.states))
             if not np.array_equal(a, b)]
    assert moved == ([config.steps // 2] if inject else [])
    assert len(list((out / "snapshots").glob("*.csv"))) == config.steps + 1
    for k, state in enumerate(traj.states):
        write_snapshot_by_rows(QGridFunction(traj.domain, state), tmp_path / "ref.csv")
        snap = out / "snapshots" / f"{k}.csv"
        assert snap.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def small_trajectory(tmp_path):
    """The trajectory of the SMALL config, built through the library."""
    config = load_config(write_config(tmp_path, SMALL))
    domain = build_domain(config.m, config.resolution)
    return run_flow(make_initial(config, domain), make_schedule(config))


def test_energy_csv_columns_are_the_trajectory_quantities(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    traj = small_trajectory(tmp_path)
    lines = (out / "energy.csv").read_text().splitlines()
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    floats = [tuple(float(v) for v in col) for col in cols[1:8]]
    tau, before, after, penalty, margin, eta, max_norm = floats
    assert cols[0] == tuple(str(k) for k in range(1, 7))
    assert tau == tuple(r.tau for r in traj.reports)
    assert before == traj.energies[:-1]
    assert after == traj.energies[1:]
    assert penalty == traj.penalties
    assert margin == traj.estimate_margins
    assert eta == traj.eta_residuals
    assert max_norm == traj.max_norms[1:]
    assert cols[8] == tuple(str(r.outer_iterations) for r in traj.reports)
    payload = json.loads((out / "run.json").read_text())
    assert tuple(payload["energies"]) == traj.energies


def test_artifacts_and_checks_share_one_energy_per_snapshot(tmp_path,
                                                            monkeypatch):
    """energy.csv and the checks that read energies together score the
    Dirichlet energy of each snapshot exactly once, in one pass over
    blocks of states (two states a block here): the edge operands of the
    pass's energy sums are the states, each once and in order, and no
    per-state `dirichlet_energy` call is made."""
    traj = small_trajectory(tmp_path)
    d = traj.domain
    scored, paired_sums = [], grid._paired_sums

    def recording(a, b):
        if a.shape[1] == d.num_edges:  # the edge ends of energies
            scored.append(a)
        return paired_sums(a, b)

    def per_state(f):
        raise AssertionError("per-state dirichlet_energy call")

    monkeypatch.setattr(morseflow, "_BLOCK_VALUES", 2 * d.num_nodes * 2)
    monkeypatch.setattr(grid, "_paired_sums", recording)
    for module in (grid, morseflow, checks, cli):
        if hasattr(module, "dirichlet_energy"):
            monkeypatch.setattr(module, "dirichlet_energy", per_state)
    rng = np.random.default_rng(3)
    _write_energy_csv(tmp_path / "energy.csv", traj)
    for res in (checks.check_energy_monotonicity(traj),
                checks.check_step_estimate(traj),
                checks.check_holder(traj, rng)):
        assert res.passed, res.detail
    assert [len(a) for a in scored] == [2, 2, 2, 1]
    assert np.array_equal(np.concatenate(scored),
                          traj.states.take(d.edges[:, 0], axis=1))


class _MeanRecorder(np.ndarray):
    """States that record every block of them whose branch mean is
    taken."""

    taken = []

    def mean(self, *args, **kwargs):
        _MeanRecorder.taken.append(np.asarray(self))
        return np.asarray(self).mean(*args, **kwargs)


def test_artifacts_and_checks_share_one_branch_mean_per_snapshot(tmp_path,
                                                                 monkeypatch):
    """energy.csv and the trajectory checks together take the branch mean
    of each snapshot exactly once, over blocks of states (two states a
    block here): the blocks whose means are taken are the states, each
    once and in order."""
    run = small_trajectory(tmp_path)
    traj = FlowTrajectory(run.schedule, run.domain,
                          run.states.view(_MeanRecorder), run.reports)

    monkeypatch.setattr(morseflow, "_BLOCK_VALUES", 2 * run.domain.num_nodes * 2)
    monkeypatch.setattr(_MeanRecorder, "taken", [])
    _write_energy_csv(tmp_path / "energy.csv", traj)
    names = cli._run_check_names(load_config(write_config(tmp_path, SMALL)))
    assert {"eta_residual", "symmetry", "positivity"} <= set(names)
    for res in checks.evaluate(names, np.random.default_rng(3), traj):
        assert res.passed, res.detail
    taken = _MeanRecorder.taken
    assert [len(block) for block in taken] == [2, 2, 2, 1]
    assert np.array_equal(np.concatenate(taken), run.states)


def test_truncation_is_reported_before_the_failed_checks(tmp_path,
                                                          monkeypatch, capsys):
    def truncated(f0, schedule):
        traj = run_flow(f0, schedule)
        first = dataclasses.replace(traj.reports[0], converged=False)
        return trajectory_of(schedule, traj.snapshots[:2], (first,))

    monkeypatch.setattr(cli, "run_flow", truncated)
    cfg = write_config(tmp_path, SMALL + "inject = energy_monotonicity\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err[0] == "run: trajectory truncated by a non-converged step"
    assert err[1].startswith("FAILED checks: energy_monotonicity")
    assert len(err) == 2
    stdout = captured.out.splitlines()
    assert stdout[-1].startswith("run: 1/6 steps, converged=False")
    assert all(line.startswith("check ") for line in stdout[:-1])
    payload = json.loads((out / "run.json").read_text())
    assert payload["passed"] is False and payload["completed_steps"] == 1


RUN_KEYS = {"checks", "command", "completed_steps", "config", "converged",
            "domain", "effective_time", "energies", "injected", "passed",
            "schedule", "version", "wall_time_seconds"}
VERIFY_KEYS = {"checks", "command", "config", "injected", "passed", "version"}


def test_report_keys_are_the_dataclass_fields(tmp_path):
    """run.json and verify.json write RunConfig, StepSchedule and
    CheckResult as their fields, so a field added to one of them changes
    the report schema and must show up here."""
    cfg = write_config(tmp_path, SMALL)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v"),
                 "--check", "metric_axioms,energy_monotonicity"]) == 0
    run = json.loads((tmp_path / "r" / "run.json").read_text())
    verify = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert set(run) == RUN_KEYS
    assert set(verify) == VERIFY_KEYS
    assert set(run["schedule"]) == {"h", "mode", "steps", "total"}
    for payload in (run, verify):
        assert set(payload["config"]) == {
            f.name for f in dataclasses.fields(RunConfig)}
        assert payload["config"]["branch_coeffs"] == []
        assert payload["config"]["sweep_steps"] == [16, 32, 64]
        assert payload["checks"]
        for check in payload["checks"]:
            assert set(check) == {"detail", "margin", "name", "passed"}


# --- verify ----------------------------------------------------------------

def test_verify_runs_the_full_battery(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    names = [c["name"] for c in payload["checks"]]
    assert names == list(CHECK_NAMES)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    # the symmetric preset is its own symmetric run, counted once
    detail = payload["checks"][names.index("max_principle")]["detail"]
    assert detail.startswith("2 run(s)")


def test_verify_passes_on_a_deep_geometric_config(tmp_path, monkeypatch):
    """Every run of verify, the one-branch run included, steps the config's
    geometric schedule, down to tau = 0.25 / 2^64: eta_residual reads the
    one-branch run's tail, whose residual is rounding divided by tau, and
    passes there by its threshold's rounding term."""
    schedules = []

    def recording(f0, schedule):
        schedules.append(schedule)
        return run_flow(f0, schedule)

    monkeypatch.setattr(cli, "run_flow", recording)
    cfg = write_config(tmp_path, "mode = geometric\nm = 1\nresolution = 51\n"
                                 "q = 2\npreset = symmetric-cos\nh = 0.25\n"
                                 "steps = 64\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert schedules == [geometric_schedule(0.25, 64)] * 2
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert [c["name"] for c in checks] == list(CHECK_NAMES)
    assert all(c["passed"] for c in checks)


ONE_BRANCH_TAIL = """
mode = geometric
m = 1
resolution = 51
q = 1
preset = branches
branch_coeffs = 1, 0, -1
h = 0.25
steps = 64
"""


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_one_branch_geometric_tail_passes(tmp_path, command):
    """The non-symmetric one-branch datum 1 - x^2 down to tau = 0.25 / 2^64:
    eta_residual failed its tail by rounding alone (margin -1.42 at step
    52) before its threshold gained the rounding term."""
    cfg = write_config(tmp_path, ONE_BRANCH_TAIL)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / f"{command}.json").read_text())
    eta = [c for c in report["checks"] if c["name"] == "eta_residual"]
    assert len(eta) == 1 and eta[0]["passed"]


def test_verify_reports_injected_failures(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL + "inject = energy_monotonicity\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    assert "energy_monotonicity" in capsys.readouterr().err
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is False


VERIFY = """
mode = uniform
m = 1
resolution = 201
q = 2
preset = symmetric-cos
total_time = 0.25
steps = 64
"""


def test_verify_eta_residual_reads_the_one_branch_run(tmp_path):
    """The symmetric datum's branch mean is zero, so its step equation
    residual is zero at every step; verify reads the one-branch run."""
    cfg = write_config(tmp_path, VERIFY)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--seed", "11", "--check", "eta_residual"]) == 0
    (check,) = json.loads((out / "verify.json").read_text())["checks"]
    assert check["name"] == "eta_residual" and check["passed"]
    assert check["detail"].startswith("residual ")
    assert float(check["detail"].split()[1]) > 0.0


def test_verify_eta_residual_fails_on_a_moved_one_branch_value(
        tmp_path, monkeypatch, capsys):
    def moved_run_flow(f0, schedule):
        traj = run_flow(f0, schedule)
        if f0.q != 1:
            return traj
        snaps = list(traj.snapshots)
        vals = snaps[2].values.copy()
        vals[f0.domain.interior[0], 0, 0] += 1e-6
        snaps[2] = QGridFunction(f0.domain, vals)
        return trajectory_of(traj.schedule, snaps, traj.reports)

    monkeypatch.setattr(cli, "run_flow", moved_run_flow)
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--check", "eta_residual"]) == 1
    assert "FAILED checks: eta_residual" in capsys.readouterr().err


def test_reports_stay_strict_json_when_a_check_cannot_apply(tmp_path, capsys):
    """The interval oracle cannot apply to a disk run: its -inf margin is
    written as null, beside the finite margin of a passing check."""
    cfg = write_config(tmp_path, "mode = geometric\nm = 2\nresolution = 9\n"
                                 "h = 0.3\nsteps = 12\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--check", "oracle_equivalence,max_principle"]) == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads((out / "run.json").read_text(), parse_constant=reject)
    (peak, oracle) = payload["checks"]
    assert (peak["name"], peak["passed"]) == ("max_principle", True)
    assert peak["margin"] >= 0.0
    assert (oracle["name"], oracle["passed"], oracle["margin"]) \
        == ("oracle_equivalence", False, None)
    captured = capsys.readouterr()
    assert "check oracle_equivalence: FAIL margin=-inf" in captured.out
    assert "FAILED checks: oracle_equivalence\n" in captured.err


# --- the disk --------------------------------------------------------------

DISK = """
mode = uniform
m = 2
resolution = 11
total_time = 0.25
steps = 8
seed = 3
"""


def test_single_branch_run_on_the_disk_ends_by_its_checks(tmp_path):
    """The interval oracle is not among a disk run's checks."""
    cfg = write_config(tmp_path, DISK + "q = 1\npreset = branches\n"
                                        "branch_coeffs = 1.0,0.0,-1.0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "run.json").read_text())
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == [
        (name, True) for name in ("energy_monotonicity", "step_estimate",
                                  "eta_residual", "max_principle",
                                  "boundary_trace", "holder")]


def test_verify_on_the_disk_fails_only_the_interval_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, DISK + "q = 2\npreset = symmetric-cos\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    payload = json.loads((out / "verify.json").read_text())
    assert len(payload["checks"]) == len(CHECK_NAMES)
    assert [(c["name"], c["margin"]) for c in payload["checks"]
            if not c["passed"]] == [("oracle_equivalence", None)]
    assert "FAILED checks: oracle_equivalence\n" in capsys.readouterr().err


# --- sweep and oracle ------------------------------------------------------

SWEEP = """
mode = uniform
resolution = 31
q = 2
preset = symmetric-cos
total_time = 0.25
steps = 8
sweep_resolutions = 11,21
sweep_steps = 4,8
spatial_steps = 200
"""


def read_ladder(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ("resolution,tau,N,l2_error_vs_exact,"
                        "linf_error_vs_exact,observed_order")
    return [line.split(",") for line in lines[1:]]


def test_sweep_writes_the_error_ladder(tmp_path):
    cfg = write_config(tmp_path, SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_ladder(out / "sweep.csv")
    assert len(rows) == 4
    # temporal rows first (fixed grid), then spatial rows (fixed steps)
    assert [r[0] for r in rows] == ["31", "31", "11", "21"]
    assert [r[2] for r in rows] == ["4", "8", "200", "200"]
    # group heads have no observed order
    assert rows[0][5] == "" and rows[2][5] == ""
    assert rows[1][5] != "" and rows[3][5] != ""
    for r in rows:
        assert np.isfinite(float(r[3])) and np.isfinite(float(r[4]))
    # halving tau must shrink the error
    assert float(rows[1][3]) < float(rows[0][3])
    assert float(rows[3][3]) < float(rows[2][3])


@pytest.mark.parametrize("command", ["sweep", "oracle"])
def test_sweep_with_worker_pool_matches_serial(tmp_path, command):
    cfg = write_config(tmp_path, SWEEP)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main([command, "--config", str(cfg), "--out", str(serial)]) == 0
    assert main([command, "--config", str(cfg), "--out", str(pooled),
                 "--jobs", "2"]) == 0
    table = f"{command}.csv"
    assert (serial / table).read_bytes() == (pooled / table).read_bytes()


def test_worker_pool_is_capped_at_the_ladder_cells(tmp_path, monkeypatch):
    pools = []

    class RecordingPool:
        """Serial stand-in for ProcessPoolExecutor that starts no process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = write_config(tmp_path, SWEEP)
    for command in ("sweep", "oracle"):
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / command), "--jobs", "500"]) == 0
    # SWEEP holds two temporal and two spatial cells
    assert pools == [4, 4]


@pytest.mark.parametrize("command, cell", [("sweep", "_flow_last"),
                                           ("oracle", "_chain_last")],
                         ids=["sweep", "oracle"])
def test_sweep_names_a_failed_cell_and_exits_1(tmp_path, monkeypatch, capsys,
                                               command, cell):
    last = getattr(cli, cell)

    def failing(config, domain, steps):
        if domain.resolution == 11:
            raise RuntimeError("solver blew up")
        return last(config, domain, steps)

    monkeypatch.setattr(cli, cell, failing)
    cfg = write_config(tmp_path, SWEEP)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{command} cell resolution=11 N=200 failed: solver blew up" in err
    rows = read_ladder(out / f"{command}.csv")
    # the failed row is kept as NaN, and no order is taken across it
    assert rows[2][3] == rows[2][4] == "nan"
    assert rows[3][5] == ""
    assert np.isfinite(float(rows[3][3]))


def test_sweep_requires_the_interval(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP + "m = 2\nresolution = 11\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "m:" in capsys.readouterr().err


def test_sweep_only_tracks_the_ground_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP + "eigen_index = 2\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "eigen_index" in capsys.readouterr().err


def test_oracle_ladder_matches_the_sweep_schema(tmp_path):
    cfg = write_config(tmp_path, SWEEP)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_ladder(out / "oracle.csv")
    assert len(rows) == 4
    assert float(rows[1][3]) < float(rows[0][3])


def test_oracle_supports_higher_modes(tmp_path):
    cfg = write_config(tmp_path, SWEEP + "eigen_index = 2\n")
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_ladder(out / "oracle.csv")
    assert all(np.isfinite(float(r[3])) for r in rows)


# --- process level ---------------------------------------------------------

def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "qflow", "run",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "run.json").exists()
    assert "converged=True" in proc.stdout


def test_no_qflow_command_loads_scipy(tmp_path):
    """`run` on a small disk config, `sweep`, `verify` and `oracle`, in one
    fresh interpreter, never import any scipy module."""
    disk = write_config(tmp_path, SMALL + "m = 2\nresolution = 11\nchecks = all\n",
                        "disk.cfg")
    sweep = write_config(tmp_path, SWEEP, "sweep.cfg")
    small = write_config(tmp_path, SMALL)
    argvs = [["run", "--config", str(disk)], ["sweep", "--config", str(sweep)],
             ["verify", "--config", str(small)],
             ["oracle", "--config", str(sweep)]]
    script = (
        "import sys\n"
        "from qflow.cli import main\n"
        f"codes = [main(argv + ['--out', {str(tmp_path)!r} + f'/out{{i}}'])\n"
        f"         for i, argv in enumerate({argvs!r})]\n"
        "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


def test_importing_the_cli_loads_no_process_pool():
    """`import qflow.cli`, in a fresh interpreter, loads no
    concurrent.futures or multiprocessing module: only a worker pool of
    `--jobs` > 1 needs them."""
    script = (
        "import sys\n"
        "import qflow.cli\n"
        "print([m for m in sys.modules\n"
        "       if m.split('.')[0] in ('concurrent', 'multiprocessing')])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_importing_the_cli_loads_no_numpy_polynomial():
    """`import qflow.cli`, in a fresh interpreter, loads no
    numpy.polynomial module: the polynomial presets use np.polyval."""
    script = (
        "import sys\n"
        "import qflow.cli\n"
        "print([m for m in sys.modules if m.startswith('numpy.polynomial')])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_qflow_path_loads_scipy_optimize(tmp_path):
    """Vector matching for q = 5..8 and a whole `verify` run, in a fresh
    interpreter, never import scipy.optimize nor any other scipy module."""
    cfg = write_config(tmp_path, SMALL)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from qflow.cli import main\n"
        "from qflow.qspace import _canonical, match_rows\n"
        "rng = np.random.default_rng(5)\n"
        "for q in range(5, 9):\n"
        "    match_rows(*_canonical(rng.normal(size=(2, 4, q, 2))))\n"
        f"code = main(['verify', '--config', {str(cfg)!r},"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'scipy.optimize' in sys.modules,\n"
        "      [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False []"
