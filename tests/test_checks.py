"""Check battery: positive runs and deliberate negative controls."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from qflow import checks
from qflow.checks import (
    CHECK_NAMES,
    check_ascending_projection,
    check_boundary_trace,
    check_brute_force,
    check_energy_monotonicity,
    check_eta_residual,
    check_holder,
    check_max_principle,
    check_metric_axioms,
    check_oracle_equivalence,
    check_positivity,
    check_sorted_matching,
    check_step_estimate,
    check_symmetry,
    check_translation_identity,
    check_embedding_isometry,
)
from qflow.grid import InitialSpec, QGridFunction, build_domain, sample_initial
from qflow.morseflow import (
    FlowTrajectory,
    geometric_schedule,
    run_flow,
    uniform_schedule,
)
from qflow.qspace import make_qpoint, optimal_matching


@pytest.fixture(scope="module")
def healthy():
    d = build_domain(1, 31)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    return run_flow(f0, uniform_schedule(0.25, 8))


def corrupt_middle(traj):
    """Double the interior values of one snapshot, boundary intact."""
    k = traj.completed_steps // 2
    f = traj.snapshots[k]
    vals = f.values.copy()
    vals[f.domain.interior] *= 2.0
    snaps = list(traj.snapshots)
    snaps[k] = QGridFunction(f.domain, vals)
    return FlowTrajectory(traj.schedule, tuple(snaps), traj.reports)


def test_check_names_are_unique_and_ordered():
    assert len(CHECK_NAMES) == 15
    assert len(set(CHECK_NAMES)) == 15


def test_value_space_checks_pass():
    rng = np.random.default_rng(71)
    for fn in (check_metric_axioms, check_sorted_matching,
               check_embedding_isometry, check_ascending_projection):
        res = fn(rng, 50)
        assert res.passed, res.detail
        assert res.margin >= 0.0 or fn is check_sorted_matching


def sorted_matching_by_loop(rng, samples=200):
    """Per-permutation loop reference for `check_sorted_matching`."""
    worst = 0.0
    identity_ok = True
    for _ in range(samples):
        q = int(rng.integers(2, 7))
        a = np.sort(rng.normal(size=q))
        b = np.sort(rng.normal(size=q))
        match = optimal_matching(make_qpoint(a), make_qpoint(b))
        identity_ok &= match.sigma == tuple(range(q))
        best = min(
            float(((a - b[list(p)]) ** 2).sum())
            for p in itertools.permutations(range(q))
        )
        worst = max(worst, abs(match.cost - best))
    detail = f"{samples} samples, largest identity-vs-exhaustive gap {worst:.3e}"
    if not identity_ok:
        detail = "non-identity pairing returned for canonical operands"
    return identity_ok and worst == 0.0, -worst, detail


@pytest.mark.parametrize("seed", range(10))
def test_sorted_matching_agrees_with_a_permutation_loop(seed):
    res = check_sorted_matching(np.random.default_rng(seed), 60)
    ref = sorted_matching_by_loop(np.random.default_rng(seed), 60)
    assert (res.passed, res.margin, res.detail) == ref


def test_sorted_matching_rejects_a_cost_one_ulp_high(monkeypatch):
    def one_ulp_high(a, b):
        match = optimal_matching(a, b)
        return replace(match, cost=float(np.nextafter(match.cost, np.inf)))

    monkeypatch.setattr(checks, "optimal_matching", one_ulp_high)
    res = check_sorted_matching(np.random.default_rng(3), 20)
    assert not res.passed
    assert res.margin < 0.0


def test_translation_identity_check_passes():
    rng = np.random.default_rng(73)
    res = check_translation_identity(rng, build_domain(1, 21), 2, pairs=10)
    assert res.passed
    assert res.margin >= 0.0


def test_trajectory_checks_pass_on_a_healthy_run(healthy):
    rng = np.random.default_rng(79)
    for res in (
        check_energy_monotonicity(healthy),
        check_step_estimate(healthy),
        check_eta_residual(healthy),
        check_symmetry(healthy),
        check_positivity(healthy),
        check_max_principle([healthy]),
        check_boundary_trace(healthy, rng),
        check_holder(healthy, rng, pairs=20),
        check_brute_force(rng, instances=5),
    ):
        assert res.passed, f"{res.name}: {res.detail}"


def test_corrupted_run_fails_the_energy_checks(healthy):
    bad = corrupt_middle(healthy)
    mono = check_energy_monotonicity(bad)
    assert not mono.passed and mono.margin < 0.0
    est = check_step_estimate(bad)
    assert not est.passed and est.margin < 0.0


def test_symmetry_check_rejects_one_sided_data():
    d = build_domain(1, 21)
    f0 = sample_initial(
        InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0),)), d, 1
    )
    traj = run_flow(f0, uniform_schedule(0.1, 4))
    res = check_symmetry(traj)
    assert not res.passed
    assert res.margin < 0.0


def test_positivity_check_rejects_negative_branches():
    d = build_domain(1, 11)
    spec = InitialSpec("branches", branch_coeffs=((-1.0,), (-0.5,)))
    traj = run_flow(sample_initial(spec, d, 2), uniform_schedule(0.1, 2))
    res = check_positivity(traj)
    assert not res.passed

    lone = FlowTrajectory(uniform_schedule(0.1, 2), (traj.snapshots[0],), ())
    assert not check_positivity(lone).passed


def test_eta_residual_skips_unconverged_steps():
    d = build_domain(1, 21)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    run = run_flow(f0, uniform_schedule(0.25, 4))
    reports = run.reports[:-1] + (replace(run.reports[-1], converged=False),)
    traj = FlowTrajectory(run.schedule, run.snapshots, reports)
    assert not traj.converged
    res = check_eta_residual(traj)
    assert "skipped" in res.detail


def test_eta_residual_holds_for_vector_values():
    """The branch-mean step equation holds coordinatewise for any frozen
    pairing, so converged n = 2 steps pass; moving one interior mean in
    its second coordinate must fail."""
    rng = np.random.default_rng(67)
    d = build_domain(1, 15)
    f0 = QGridFunction(d, rng.normal(0.0, 1.0, size=(15, 2, 2)))
    traj = run_flow(f0, uniform_schedule(0.25, 6))
    assert traj.converged
    res = check_eta_residual(traj)
    assert res.passed and res.margin >= 0.0, res.detail

    f = traj.snapshots[3]
    vals = f.values.copy()
    vals[d.interior[4], :, 1] += 1e-3
    snaps = list(traj.snapshots)
    snaps[3] = QGridFunction(d, vals)
    bad = FlowTrajectory(traj.schedule, tuple(snaps), traj.reports)
    assert not check_eta_residual(bad).passed


def test_max_principle_check_needs_a_uniform_run(healthy):
    d = build_domain(1, 11)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    geo = run_flow(f0, geometric_schedule(0.25, 4))
    res = check_max_principle([geo])
    assert not res.passed
    assert "no uniform" in res.detail
    # geometric runs are ignored, not counted
    both = check_max_principle([geo, healthy])
    assert both.passed
    assert "1 uniform run(s)" in both.detail


def test_boundary_trace_detects_a_moved_boundary(healthy):
    f = healthy.snapshots[2]
    vals = f.values.copy()
    vals[0] += 0.5  # first node is boundary on the interval
    snaps = list(healthy.snapshots)
    snaps[2] = QGridFunction(f.domain, vals)
    bad = FlowTrajectory(healthy.schedule, tuple(snaps), healthy.reports)
    rng = np.random.default_rng(83)
    res = check_boundary_trace(bad, rng)
    assert not res.passed
    assert res.margin < 0.0


def test_oracle_equivalence_requires_single_branch_uniform(healthy):
    res = check_oracle_equivalence(healthy)  # q = 2
    assert not res.passed
    d = build_domain(1, 21)
    f0 = sample_initial(
        InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0),)), d, 1
    )
    good = run_flow(f0, uniform_schedule(0.1, 4))
    assert check_oracle_equivalence(good).passed


def test_oracle_equivalence_detects_a_moved_value():
    d = build_domain(1, 21)
    f0 = sample_initial(
        InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0),)), d, 1
    )
    good = run_flow(f0, uniform_schedule(0.1, 4))
    vals = good.snapshots[2].values.copy()
    vals[d.interior[5], 0, 0] += 1e-6
    snaps = list(good.snapshots)
    snaps[2] = QGridFunction(d, vals)
    bad = FlowTrajectory(good.schedule, tuple(snaps), good.reports)
    res = check_oracle_equivalence(bad)
    assert not res.passed
    assert res.margin < 0.0
