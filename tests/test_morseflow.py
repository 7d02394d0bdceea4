"""Implicit stepping, trajectories, interpolation, a priori bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import splu

from qflow.grid import (
    InitialSpec,
    QGridFunction,
    build_domain,
    branch_mean_field,
    branch_mean_residual,
    l2_distance_sq,
    sample_initial,
)
from qflow import grid, morseflow, qspace
from qflow.checks import check_boundary_trace, check_holder
from qflow.morseflow import (
    FlowTrajectory,
    StepReport,
    evaluate_at_time,
    geometric_schedule,
    holder_margin,
    minimize_step,
    run_flow,
    uniform_schedule,
)
from qflow.oracle import implicit_euler_chain


# --- schedules -------------------------------------------------------------

def test_geometric_schedule_halves_exactly():
    sched = geometric_schedule(0.25, 5)
    assert sched.mode == "geometric"
    assert sched.total == 1.25
    for k in range(1, 6):
        assert sched.tau(k) == 0.25 * 0.5**k
    with pytest.raises(ValueError):
        sched.tau(0)
    with pytest.raises(ValueError):
        sched.tau(6)


def test_uniform_schedule_is_constant():
    sched = uniform_schedule(0.25, 16)
    assert sched.mode == "uniform"
    assert sched.total == 0.25
    assert all(sched.tau(k) == 0.25 / 16 for k in range(1, 17))


def test_schedule_validation():
    with pytest.raises(ValueError):
        geometric_schedule(0.0, 4)
    with pytest.raises(ValueError):
        uniform_schedule(-1.0, 4)
    with pytest.raises(ValueError, match="steps"):
        uniform_schedule(0.25, 0)
    with pytest.raises(ValueError, match="steps"):
        geometric_schedule(0.25, 0)
    with pytest.raises(ValueError, match="steps"):
        uniform_schedule(0.25, -2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            geometric_schedule(bad, 4)
        with pytest.raises(ValueError, match="finite"):
            uniform_schedule(bad, 4)


# --- single step -----------------------------------------------------------

def test_single_hat_step_reference_values():
    """Unit hat on three nodes, tau = 1/2: the closed form minimizer sits at
    half height with objective 1."""
    d = build_domain(1, 3)
    f = QGridFunction(d, np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
    g, report = minimize_step(f, 0.5)
    assert g.values[1, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert report.energy_before == 2.0
    assert report.energy_after == pytest.approx(0.5, abs=1e-12)
    assert report.penalty == pytest.approx(0.25, abs=1e-12)
    assert report.objective_trace[0] == 2.0
    assert report.objective_trace[-1] == pytest.approx(1.0, abs=1e-12)
    assert report.converged
    slack = report.tau * (report.energy_before - report.energy_after) - report.penalty
    assert slack == pytest.approx(0.5, abs=1e-12)


def test_step_rejects_bad_tau():
    d = build_domain(1, 3)
    f = QGridFunction(d, np.zeros((3, 1, 1)))
    with pytest.raises(ValueError):
        minimize_step(f, 0.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_step_rejects_non_finite_tau(tau):
    d = build_domain(1, 5)
    f = QGridFunction(d, np.random.default_rng(5).normal(size=(5, 2, 1)))
    with pytest.raises(ValueError, match="finite"):
        minimize_step(f, tau)


def test_constant_data_short_circuits():
    d = build_domain(1, 9)
    f = QGridFunction(d, np.full((9, 2, 1), 1.5))
    g, report = minimize_step(f, 0.1)
    assert g is f
    assert report.converged
    assert report.outer_iterations == 0
    assert report.energy_before == 0.0 and report.energy_after == 0.0


def test_tiny_step_barely_moves():
    d = build_domain(1, 21)
    f = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    g, report = minimize_step(f, 1e-8)
    assert report.converged
    assert np.max(np.abs(g.values - f.values)) <= 1e-6


def test_objective_trace_is_strictly_decreasing():
    rng = np.random.default_rng(37)
    d = build_domain(1, 31)
    f = QGridFunction(d, rng.normal(0.0, 1.0, size=(31, 3, 1)))
    g, report = minimize_step(f, 0.05)
    trace = report.objective_trace
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert report.converged
    assert report.energy_after <= report.energy_before
    slack = report.tau * (report.energy_before - report.energy_after) - report.penalty
    assert slack >= -1e-10


def test_symmetric_step_keeps_the_mean_at_zero():
    """A datum with branches in +/- pairs keeps its nodewise mean at exactly
    zero across a step: the solver treats the two halves identically."""
    d = build_domain(1, 41)
    f = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    g, report = minimize_step(f, 0.01)
    assert report.converged
    assert np.max(np.abs(branch_mean_field(g))) == 0.0
    # and exactly zero along a long chain on the disk, with a shared factor
    disk = build_domain(2, 21)
    f0 = sample_initial(InitialSpec("symmetric-cos"), disk, 2)
    traj = run_flow(f0, uniform_schedule(0.5, 200))
    assert traj.converged
    assert max(np.max(np.abs(branch_mean_field(f))) for f in traj.snapshots) == 0.0


def count_matchings(monkeypatch):
    """Every `match_rows` call, through each module binding of it."""
    calls = []
    match_rows = qspace.match_rows

    def counted(a, b):
        calls.append(a.shape)
        return match_rows(a, b)

    for module in (qspace, grid, morseflow):
        monkeypatch.setattr(module, "match_rows", counted)
    return calls


@pytest.mark.parametrize("q, n", [(3, 1), (1, 2)])
def test_identity_valued_step_matches_nothing_and_takes_one_sweep(
        monkeypatch, q, n):
    """For n = 1 (sorted storage) or q = 1 every pairing is the identity,
    so the first frozen-pairing solve is already the pairing fixed point
    and no matching is computed, to score it or to confirm it."""
    calls = count_matchings(monkeypatch)
    rng = np.random.default_rng(39)
    d = build_domain(1, 31)
    f = QGridFunction(d, rng.normal(0.0, 1.0, size=(31, q, n)))
    _, report = minimize_step(f, 0.05)
    assert report.converged
    assert report.outer_iterations == 1
    assert len(report.objective_trace) == 2
    assert calls == []


def test_vector_chain_matches_twice_per_sweep(monkeypatch):
    """The two matchings that score a sweep, across the edges and against
    f_prev at the nodes, are also the next sweep's pairings, and the chain
    hands each step its start's edge pairing: one matching of the initial
    edges, then two per sweep, discarded sweeps included."""
    calls = count_matchings(monkeypatch)
    rng = np.random.default_rng(6)
    d = build_domain(2, 9)
    f0 = QGridFunction(d, rng.normal(0.0, 1.0, size=(d.num_nodes, 2, 2)))
    traj = run_flow(f0, uniform_schedule(0.25, 6))
    assert traj.converged
    sweeps = sum(r.outer_iterations for r in traj.reports)
    assert sweeps > traj.completed_steps
    assert len(calls) == 1 + 2 * sweeps
    assert calls.count((d.num_edges, 2, 2)) == 1 + sweeps


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_none_pairings_solve_as_the_identity_bit_for_bit(m, q, n):
    """None is the one form of the identity pairing: `grid._paired` gives
    it for n = 1 or q = 1 and for a state matched with itself, which is
    why a step's first sweep takes None at the nodes, and as a node
    pairing it solves with the same bits as an explicit identity."""
    rng = np.random.default_rng(100 * m + 10 * q + n)
    d = build_domain(m, 9 if m == 2 else 15)
    f = QGridFunction(d, rng.normal(0.0, 1.0, size=(d.num_nodes, q, n)))
    edge_sigma = grid._paired(f.values[d.edges[:, 0]], f.values[d.edges[:, 1]])[0]
    if n == 1 or q == 1:
        assert edge_sigma is None
    assert grid._paired(f.values, f.values)[0] is None
    ident = np.tile(np.arange(q), (len(d.interior), 1))
    got = morseflow._solve_frozen(f.values, d, 0.05, edge_sigma, None,
                                  morseflow._ChainState())
    want = morseflow._solve_frozen(f.values, d, 0.05, edge_sigma, ident,
                                   morseflow._ChainState())
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]


def frozen_system_by_csr(domain, tau, sigma):
    """csr-pipeline reference for `_frozen_system`: a lane adjacency
    matrix, symmetrized, sliced to the interior rows, with `diags`."""
    width = sigma.shape[1]
    lanes = np.arange(width)
    size = domain.num_nodes * width
    ua = (domain.edges[:, :1] * width + lanes).ravel()
    ub = (domain.edges[:, 1:] * width + sigma).ravel()
    adj = csr_matrix((np.ones(ua.size), (ua, ub)), shape=(size, size))
    inner = (domain.interior[:, None] * width + lanes).ravel()
    rows = (adj + adj.T)[inner]
    w_e = domain.delta ** (domain.m - 2)
    w_p = domain.delta**domain.m / tau
    degree = np.asarray(rows.sum(axis=1)).ravel()
    matrix = diags(w_e * degree + w_p) - w_e * rows[:, inner]
    fixed = diags(np.repeat(domain.is_boundary, width).astype(float))
    return matrix.tocsc(), (w_e * rows @ fixed).tocsr()


@pytest.mark.parametrize("m, res", [(1, 3), (1, 15), (2, 5), (2, 21)])
@pytest.mark.parametrize("q", [2, 3])
def test_frozen_system_matches_the_csr_pipeline(m, res, q):
    """The COO-assembled system has the reference's CSC arrays, and its
    coupling the same rows in the same column order, so `couple @ x`
    carries the same bits, for identity and non-identity pairings."""
    rng = np.random.default_rng(10 * res + q)
    d = build_domain(m, res)
    sigmas = {
        "scalar block": np.zeros((d.num_edges, 1), dtype=np.int64),
        "identity lanes": np.tile(np.arange(q), (d.num_edges, 1)),
        "permuted lanes": rng.permuted(
            np.tile(np.arange(q), (d.num_edges, 1)), axis=1),
    }
    assert (sigmas["permuted lanes"] != np.arange(q)).any()
    for sigma in sigmas.values():
        matrix, couple = morseflow._frozen_system(d, 0.05, sigma)
        want, want_couple = frozen_system_by_csr(d, 0.05, sigma)
        assert matrix.format == "csc" and couple.format == "csr"
        for got, ref in ((matrix, want), (couple, want_couple)):
            assert got.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
        x = rng.normal(size=(couple.shape[1], 3))
        assert np.array_equal(couple @ x, want_couple @ x)


def test_chain_boundary_term_matches_a_fresh_factor_per_step():
    """A chain computes the boundary term of its right-hand side once per
    factorization; stepping each state with a fresh factor gives the same
    bits."""
    rng = np.random.default_rng(13)
    d = build_domain(2, 9)
    vals = rng.normal(size=(d.num_nodes, 2, 2))
    traj = run_flow(QGridFunction(d, vals), uniform_schedule(0.05, 4))
    for k, (prev, nxt) in enumerate(zip(traj.snapshots, traj.snapshots[1:]),
                                    start=1):
        fresh, _ = minimize_step(prev, traj.schedule.tau(k))
        assert np.array_equal(fresh.values, nxt.values)


def _solve_by_column(prev_vals, domain, tau, edge_sigma, node_nu):
    """Reference for the block solve: one LU solve per (branch, coordinate)
    column for the identity edge pairing (None), one per coordinate of the
    lane-coupled system otherwise.  Returns the interior values."""
    qq, nn = prev_vals.shape[1:]
    if edge_sigma is None:
        sigma = np.zeros((domain.num_edges, 1), dtype=np.int64)
        columns = [np.s_[:, i, c] for i in range(qq) for c in range(nn)]
    else:
        sigma = edge_sigma
        columns = [np.s_[:, :, c] for c in range(nn)]
    matrix, couple = morseflow._frozen_system(domain, tau, sigma)
    lu = splu(matrix)
    w_p = domain.delta**domain.m / tau
    matched = prev_vals[domain.interior[:, None], node_nu]
    x = np.empty_like(matched)
    for col in columns:
        b = w_p * matched[col].ravel() + couple @ prev_vals[col].ravel()
        x[col] = lu.solve(b).reshape(x[col].shape)
    return x


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q, n", [(1, 1), (2, 1), (3, 1), (6, 1),
                                  (2, 2), (3, 2), (2, 3)])
def test_block_solve_matches_per_column_solves(m, q, n):
    """The one block solve of a sweep agrees with solving each column on
    its own.  Multi-column LU solves may round differently from single
    ones, so the bound is a few ulps, not bit equality."""
    rng = np.random.default_rng(100 * m + 10 * q + n)
    d = build_domain(m, 9 if m == 2 else 15)
    f = QGridFunction(d, rng.normal(0.0, 1.0, size=(d.num_nodes, q, n)))

    def perms(rows):
        return rng.permuted(np.tile(np.arange(q), (rows, 1)), axis=1)

    node_nu = perms(len(d.interior))
    paths = [None, np.tile(np.arange(q), (d.num_edges, 1))]
    if q > 1:
        paths.append(perms(d.num_edges))
        assert (paths[-1] != np.arange(q)).any()
    for edge_sigma in paths:
        vals, residual = morseflow._solve_frozen(
            f.values, d, 0.05, edge_sigma, node_nu, morseflow._ChainState())
        want = _solve_by_column(f.values, d, 0.05, edge_sigma, node_nu)
        tol = 8 * np.spacing(np.max(np.abs(want)))
        assert np.max(np.abs(vals[d.interior] - want)) <= tol
        assert np.array_equal(vals[d.is_boundary], f.values[d.is_boundary])
        assert residual <= 1e-10


def test_separated_vector_branches_follow_the_heat_chain():
    """The paper's second construction for vector values: branches of R^2
    that stay apart flow as independent heat equations, one per (branch,
    coordinate) column, each step one sweep."""
    d = build_domain(1, 41)
    x = d.coords[:, 0]
    vals = np.empty((d.num_nodes, 2, 2))
    vals[:, 0] = np.column_stack([2 + 0.3 * np.cos(np.pi * x / 2),
                                  0.5 * np.sin(np.pi * x)])
    vals[:, 1] = np.column_stack([-2 - 0.2 * x**2, 0.1 * x])
    sched = uniform_schedule(0.25, 64)
    traj = run_flow(QGridFunction(d, vals), sched)
    assert traj.converged and traj.completed_steps == 64
    assert all(r.outer_iterations == 1 for r in traj.reports)
    gap = 0.0
    for b in range(2):
        for c in range(2):
            # the oracle steps each column from its own previous state
            u = traj.snapshots[0].values[:, b, c]
            for k in range(1, 65):
                u = implicit_euler_chain(d, u, [sched.tau(k)])
                gap = max(gap, np.max(np.abs(traj.snapshots[k].values[:, b, c] - u)))
    assert gap <= 1e-12


def test_single_valued_step_matches_direct_chain():
    rng = np.random.default_rng(41)
    d = build_domain(1, 51)
    u0 = rng.normal(0.0, 1.0, size=d.num_nodes)
    f0 = QGridFunction(d, u0[:, None, None])
    tau = 0.02
    g, report = minimize_step(f0, tau)
    chain = implicit_euler_chain(d, u0, [tau])
    assert report.converged
    assert np.max(np.abs(g.values[:, 0, 0] - chain)) <= 1e-8
    assert branch_mean_residual(f0, g, tau) <= 1e-8


def test_planar_values_converge_too():
    rng = np.random.default_rng(43)
    d = build_domain(1, 11)
    f = QGridFunction(d, rng.normal(0.0, 1.0, size=(11, 2, 2)))
    g, report = minimize_step(f, 0.1)
    assert report.converged
    assert report.energy_after <= report.energy_before
    trace = report.objective_trace
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_planar_step_reduces_to_scalar_when_flat():
    """Planar values with vanishing second coordinate must move exactly like
    the scalar solver; this pits the pairing-update path against the sorted
    identity path."""
    rng = np.random.default_rng(47)
    d = build_domain(1, 15)
    u = rng.normal(0.0, 1.0, size=(15, 2, 1))
    flat = np.concatenate([u, np.zeros_like(u)], axis=2)
    g_scalar, _ = minimize_step(QGridFunction(d, u), 0.08)
    g_flat, _ = minimize_step(QGridFunction(d, flat), 0.08)
    assert np.max(np.abs(g_flat.values[:, :, 1])) <= 1e-12
    assert np.max(np.abs(g_flat.values[:, :, 0] - g_scalar.values[:, :, 0])) <= 1e-9


def test_boundary_rows_never_move():
    rng = np.random.default_rng(53)
    d = build_domain(1, 25)
    f = QGridFunction(d, rng.normal(0.0, 1.0, size=(25, 2, 1)))
    g, _ = minimize_step(f, 0.3)
    bnd = d.is_boundary
    assert np.array_equal(g.values[bnd], f.values[bnd])


# --- full flow -------------------------------------------------------------

def test_flow_energies_are_monotone_and_consistent():
    d = build_domain(1, 51)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    traj = run_flow(f0, uniform_schedule(0.25, 16))
    assert traj.converged
    assert traj.completed_steps == 16
    energies = traj.energies
    for prev, curr in zip(energies, energies[1:]):
        assert curr <= prev + 1e-10 * max(1.0, prev)
    for k, report in enumerate(traj.reports, start=1):
        assert report.k == k
        assert report.energy_before == pytest.approx(energies[k - 1], rel=1e-12)
        assert report.energy_after == pytest.approx(energies[k], rel=1e-12)
        assert report.penalty == pytest.approx(
            l2_distance_sq(traj.snapshots[k], traj.snapshots[k - 1]), rel=1e-12
        )


def test_trajectories_compare_by_identity():
    d = build_domain(1, 11)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    a, b = (run_flow(f0, uniform_schedule(0.25, 2)) for _ in range(2))
    assert a != b and a == a
    assert a in [b, a] and a not in [b]
    assert len({a, b, a}) == 2


def test_flow_truncates_when_a_step_cannot_confirm(monkeypatch):
    # planar data whose first sweep changes the pairings: one outer pass can
    # be taken, but not confirmed as the pairing fixed point
    rng = np.random.default_rng(6)
    d = build_domain(1, 11)
    f0 = QGridFunction(d, rng.normal(0.0, 1.0, size=(11, 2, 2)))
    assert run_flow(f0, uniform_schedule(0.25, 4)).reports[0].outer_iterations > 1
    monkeypatch.setattr(morseflow, "_MAX_OUTER", 1)
    traj = run_flow(f0, uniform_schedule(0.25, 4))
    assert not traj.converged
    assert traj.completed_steps == 1
    assert not traj.reports[0].converged


def test_vector_flow_builds_no_qpoints(monkeypatch):
    """Pairings and energies of an n = 2 run are matched as whole arrays,
    never through one QPoint per edge or node."""
    built = []
    post_init = qspace.QPoint.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(qspace.QPoint, "__post_init__", counted)
    rng = np.random.default_rng(6)
    d = build_domain(1, 11)
    f0 = QGridFunction(d, rng.normal(0.0, 1.0, size=(11, 2, 2)))
    traj = run_flow(f0, uniform_schedule(0.25, 4))
    assert traj.converged
    assert traj.reports[0].outer_iterations > 1
    assert len(traj.energies) == 5
    assert built == []


def test_flow_computes_each_start_energy_once(monkeypatch):
    """Each step starts from the edge pairing and energy its predecessor
    accepted, so a one-sweep (n = 1) chain pairs the edges of each state
    once."""
    calls = []
    paired = morseflow._paired

    def counted(a, b):
        calls.append(a.shape[0])
        return paired(a, b)

    monkeypatch.setattr(morseflow, "_paired", counted)
    d = build_domain(1, 21)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    traj = run_flow(f0, uniform_schedule(0.25, 8))
    assert traj.converged
    assert calls.count(d.num_edges) == 8 + 1
    assert [r.energy_before for r in traj.reports[1:]] == \
        [r.energy_after for r in traj.reports[:-1]]


@pytest.mark.parametrize("n", [1, 2])
def test_flow_matches_stepping_by_hand(n):
    """run_flow shares one factorization across steps; the chain must be
    bit-identical to independent minimize_step calls."""
    rng = np.random.default_rng(67)
    d = build_domain(1, 15)
    f0 = QGridFunction(d, rng.normal(0.0, 1.0, size=(15, 2, n)))
    sched = uniform_schedule(0.25, 6)
    traj = run_flow(f0, sched)
    assert traj.converged
    current = f0
    for k in range(1, sched.steps + 1):
        current, report = minimize_step(current, sched.tau(k), step_index=k)
        assert np.array_equal(current.values, traj.snapshots[k].values)
        assert report == traj.reports[k - 1]


def test_geometric_effective_time_is_the_exact_partial_sum():
    d = build_domain(1, 11)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    traj = run_flow(f0, geometric_schedule(0.25, 10))
    assert traj.converged
    assert traj.effective_time == 0.25 * (1.0 - 0.5**10)
    long = run_flow(f0, geometric_schedule(0.25, 64))
    assert long.converged
    assert math.isclose(
        long.effective_time, 0.25 * (1.0 - 0.5**64), rel_tol=1e-15
    )


# --- interpolation ---------------------------------------------------------

def boundary_pinned_pair(values_a, values_b):
    """Two snapshots on the three node interval sharing boundary rows."""
    d = build_domain(1, 3)
    va = np.zeros((3, 2, 1))
    vb = np.zeros((3, 2, 1))
    va[1, :, 0] = values_a
    vb[1, :, 0] = values_b
    return QGridFunction(d, va), QGridFunction(d, vb)


def fake_report(k, tau):
    return StepReport(k, tau, 1.0, 0.5, 0.1, 1, True, (1.0, 0.5), 0.0)


def test_uniform_interpolation_blends_sorted_values():
    fa, fb = boundary_pinned_pair([0.0, 2.0], [2.0, 4.0])
    sched = uniform_schedule(1.0, 1)
    traj = FlowTrajectory(sched, (fa, fb), (fake_report(1, 1.0),))
    assert evaluate_at_time(traj, 0.0) is fa
    assert evaluate_at_time(traj, 1.0) is fb
    mid = evaluate_at_time(traj, 0.5)
    assert np.array_equal(mid.values[1, :, 0], [1.0, 3.0])
    # boundary rows are pinned bitwise, not blended
    assert np.array_equal(mid.values[0], fa.values[0])
    with pytest.raises(ValueError):
        evaluate_at_time(traj, 1.5)
    with pytest.raises(ValueError):
        evaluate_at_time(traj, -0.5)


def test_geometric_interpolation_has_plateaus_and_ramps():
    fa, fb = boundary_pinned_pair([0.0, 2.0], [2.0, 4.0])
    _, fc = boundary_pinned_pair([0.0, 0.0], [4.0, 6.0])
    sched = geometric_schedule(1.0, 2)  # tau_1 = 1/2, tau_2 = 1/4
    traj = FlowTrajectory(
        sched, (fa, fb, fc), (fake_report(1, 0.5), fake_report(2, 0.25))
    )
    assert [sched.window(k) for k in (1, 2)] == [(0.5, 1.0), (1.75, 2.0)]
    # plateau of step 1, then its terminal ramp
    assert evaluate_at_time(traj, 0.25) is fa
    assert evaluate_at_time(traj, 0.5) is fa
    ramp_mid = evaluate_at_time(traj, 0.75)
    assert np.array_equal(ramp_mid.values[1, :, 0], [1.0, 3.0])
    assert evaluate_at_time(traj, 1.0) is fb
    # plateau of step 2 extends to 1.75, ramp covers the last tau_2
    assert evaluate_at_time(traj, 1.5) is fb
    late = evaluate_at_time(traj, 1.875)
    assert np.allclose(late.values[1, :, 0], [3.0, 5.0], atol=1e-12)
    assert evaluate_at_time(traj, 2.0) is fc


def test_interpolated_states_keep_sorted_rows_and_boundary():
    d = build_domain(1, 31)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    traj = run_flow(f0, uniform_schedule(0.25, 8))
    rng = np.random.default_rng(59)
    for t in rng.uniform(0.0, 0.25, size=12):
        g = evaluate_at_time(traj, float(t))
        assert np.all(np.diff(g.values[:, :, 0], axis=1) >= 0.0)
        assert np.array_equal(g.values[d.is_boundary], f0.values[d.is_boundary])


def test_interpolation_covers_only_the_completed_horizon():
    d = build_domain(1, 21)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    sched = uniform_schedule(0.25, 8)
    f1, _ = minimize_step(f0, sched.tau(1))
    unconverged = replace(fake_report(1, sched.tau(1)), converged=False)
    traj = FlowTrajectory(sched, (f0, f1), (unconverged,))
    assert traj.completed_steps == 1
    evaluate_at_time(traj, 0.25 / 8)  # end of the completed step is fine
    with pytest.raises(ValueError):
        evaluate_at_time(traj, 0.25)


def sorted_blend_reference(traj, t):
    """Interpolation of scalar branches through the sorted embedding, one
    branch per schedule, kept as an independent reference."""
    sched, snaps = traj.schedule, traj.snapshots
    t = min(max(t, 0.0), traj.horizon)

    def blend(prev, nxt, a):
        emb = (1.0 - a) * prev.values[:, :, 0] + a * nxt.values[:, :, 0]
        bnd = prev.domain.is_boundary
        emb[bnd] = prev.values[bnd, :, 0]
        return emb[:, :, None]

    if sched.mode == "uniform":
        i = min(int(t / sched.h), traj.completed_steps - 1)
        a = min(max((t - i * sched.h) / sched.h, 0.0), 1.0)
        if a in (0.0, 1.0):
            return snaps[i + int(a)].values
        return blend(snaps[i], snaps[i + 1], a)
    k = min(int(t / sched.h) + 1, traj.completed_steps)
    ramp_start = k * sched.h - sched.tau(k)
    if t <= ramp_start:
        return snaps[k - 1].values
    if t >= k * sched.h:
        return snaps[k].values
    return blend(snaps[k - 1], snaps[k], (t - ramp_start) / sched.tau(k))


@pytest.mark.parametrize("sched", [
    uniform_schedule(0.1, 7),
    uniform_schedule(0.3, 11),
    geometric_schedule(0.3, 6),
], ids=["uniform-0.1/7", "uniform-0.3/11", "geometric-0.3"])
def test_scalar_interpolation_matches_the_sorted_blend_bitwise(sched):
    d = build_domain(1, 21)
    spec = InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0),
                                                  (0.0, 0.5), (-0.5, 2.0)))
    traj = run_flow(sample_initial(spec, d, 3), sched)
    rng = np.random.default_rng(67)
    times = list(rng.uniform(0.0, traj.horizon, size=200))
    for k in range(1, sched.steps + 1):
        start, end = sched.window(k)
        times += [np.nextafter(start, end), np.nextafter(end, start)]
        # a window's ends are the states themselves; at a uniform window
        # end the reference can stop an ulp short of state k, where
        # (k h - (k-1) h) / h rounds below 1
        assert evaluate_at_time(traj, start) is traj.snapshots[k - 1]
        assert evaluate_at_time(traj, end) is traj.snapshots[k]
    for t in times:
        got = evaluate_at_time(traj, float(t)).values
        assert got.tobytes() == sorted_blend_reference(traj, float(t)).tobytes()


def sqrt_branched(domain, rng, perturbation=1e-2):
    """{+sqrt(z), -sqrt(z)} as two points of R^2 per node (z = x0 + i x1),
    with a small seeded perturbation of the interior branch values."""
    root = np.sqrt(domain.coords[:, 0] + 1j * domain.coords[:, 1])
    vals = np.empty((domain.num_nodes, 2, 2))
    vals[:, 0, 0], vals[:, 0, 1] = root.real, root.imag
    vals[:, 1] = -vals[:, 0]
    vals[domain.interior] += perturbation * rng.normal(
        size=(len(domain.interior), 2, 2))
    return QGridFunction(domain, vals)


@pytest.mark.parametrize("sched", [uniform_schedule(0.05, 16),
                                   geometric_schedule(0.01, 6)],
                         ids=["uniform", "geometric"])
def test_vector_interpolation_is_a_matched_geodesic(sched):
    d = build_domain(2, 21)
    rng = np.random.default_rng(5)
    traj = run_flow(sqrt_branched(d, rng), sched)
    assert traj.converged
    for k in range(1, sched.steps + 1):
        start, end = sched.window(k)
        mid = evaluate_at_time(traj, 0.5 * (start + end))
        quarter = 0.25 * traj.penalties[k - 1]
        assert quarter > 0.0
        for endpoint in traj.snapshots[k - 1:k + 1]:
            assert l2_distance_sq(mid, endpoint) == pytest.approx(
                quarter, rel=1e-12)
    bnd = d.is_boundary
    for t in rng.uniform(0.0, traj.horizon, size=20):
        g = evaluate_at_time(traj, float(t))
        assert np.array_equal(g.values[bnd], traj.snapshots[0].values[bnd])


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_vector_flow_passes_the_time_regularity_checks(seed):
    d = build_domain(2, 21)
    rng = np.random.default_rng(seed)
    traj = run_flow(sqrt_branched(d, rng), uniform_schedule(0.05, 16))
    holder = check_holder(traj, rng)
    assert holder.passed and holder.margin >= 0.0
    assert check_boundary_trace(traj, rng).passed


# --- a priori bounds -------------------------------------------------------

def test_holder_bound_holds_on_random_pairs():
    d = build_domain(1, 51)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    rng = np.random.default_rng(61)
    for sched in (uniform_schedule(0.25, 16), geometric_schedule(0.25, 16)):
        traj = run_flow(f0, sched)
        horizon = traj.schedule.total
        for _ in range(25):
            t, s = np.sort(rng.uniform(0.0, horizon, size=2))
            if t == s:
                continue
            assert holder_margin(traj, float(t), float(s)) >= -1e-8
    with pytest.raises(ValueError):
        holder_margin(traj, 0.2, 0.1)


def test_flow_on_the_disk_behaves():
    d = build_domain(2, 9)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    traj = run_flow(f0, uniform_schedule(0.1, 8))
    assert traj.converged
    energies = traj.energies
    for prev, curr in zip(energies, energies[1:]):
        assert curr <= prev + 1e-10 * max(1.0, prev)
    assert min(traj.estimate_margins) >= -1e-10
    assert np.max(np.abs(branch_mean_field(traj.snapshots[-1]))) <= 1e-10
