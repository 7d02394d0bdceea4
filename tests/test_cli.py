"""Command line surface: config handling, artifacts, exit codes."""

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
    serialize_config,
    validate,
)
from qflow.grid import build_domain, dirichlet_energy
from qflow.morseflow import run_flow

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


def test_serialize_parse_round_trip():
    configs = [
        RunConfig(),
        dataclasses.replace(
            RunConfig(),
            mode="geometric",
            h=0.125,
            steps=24,
            preset="symmetric-poly",
            coeffs=(0.5, 0.0, -0.25),
            checks=("holder", "symmetry"),
            sweep_steps=(4, 8, 16),
            spatial_steps=640,
        ),
        dataclasses.replace(
            RunConfig(),
            q=3,
            preset="branches",
            branch_coeffs=((1.0, 0.0, -1.0), (0.25,), (0.5, 0.1)),
            inject="energy_monotonicity",
            jobs=3,
        ),
    ]
    for cfg in configs:
        assert parse_config(serialize_config(cfg)) == cfg


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


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_check_name_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    code = main(["run", "--config", str(cfg), "--check", "bogus"])
    assert code == 2
    assert "checks" in capsys.readouterr().err


def test_runs_are_reproducible_byte_for_byte(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "energy.csv").read_bytes() == (out_b / "energy.csv").read_bytes()
    for snap in sorted((out_a / "snapshots").glob("*.csv")):
        twin = out_b / "snapshots" / snap.name
        assert snap.read_bytes() == twin.read_bytes()


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
    """energy.csv and the checks that read energies together evaluate the
    Dirichlet energy of each snapshot exactly once."""
    traj = small_trajectory(tmp_path)
    seen = []

    def counted(f):
        seen.append(id(f))
        return dirichlet_energy(f)

    for module in (grid, morseflow, checks, cli):
        if hasattr(module, "dirichlet_energy"):
            monkeypatch.setattr(module, "dirichlet_energy", counted)
    rng = np.random.default_rng(3)
    _write_energy_csv(tmp_path / "energy.csv", traj)
    for res in (checks.check_energy_monotonicity(traj),
                checks.check_step_estimate(traj),
                checks.check_holder(traj, rng)):
        assert res.passed, res.detail
    assert sorted(seen) == sorted(id(f) for f in traj.snapshots)


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


def test_verify_reports_injected_failures(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL + "inject = energy_monotonicity\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    assert "energy_monotonicity" in capsys.readouterr().err
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is False


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


def test_sweep_with_worker_pool_matches_serial(tmp_path):
    cfg = write_config(tmp_path, SWEEP)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(pooled),
                 "--jobs", "2"]) == 0
    assert (serial / "sweep.csv").read_bytes() == (pooled / "sweep.csv").read_bytes()


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    cfg = write_config(tmp_path, SWEEP)
    for command in ("sweep", "oracle"):
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / command), "--jobs", "500"]) == 0
    # SWEEP holds two temporal and two spatial cells
    assert pools == [4, 4]


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
