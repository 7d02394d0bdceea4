"""Implicit stepping, trajectories, interpolation, a priori bounds."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import bmat, csr_matrix, diags
from scipy.sparse.linalg import spsolve

from qflow.grid import (
    InitialSpec,
    QGridFunction,
    build_domain,
    dirichlet_energy,
    l2_distance_sq,
    sample_initial,
)
from qflow import cli, grid, morseflow, qspace
from qflow.checks import (
    check_boundary_trace,
    check_energy_monotonicity,
    check_holder,
)
from qflow.morseflow import (
    FlowTrajectory,
    StepReport,
    evaluate_at_time,
    final_state,
    geometric_schedule,
    holder_margin,
    minimize_step,
    run_flow,
    uniform_schedule,
)
from qflow.oracle import implicit_euler_chain
from reference import branch_mean_residual


# --- schedules -------------------------------------------------------------

def test_geometric_schedule_halves_exactly():
    sched = geometric_schedule(0.25, 5)
    assert sched.mode == "geometric"
    assert sched.total == 1.25
    for k in range(1, 6):
        assert sched.tau(k) == 0.25 * 0.5**k
    assert sched.taus() == [sched.tau(k) for k in range(1, 6)]
    with pytest.raises(ValueError):
        sched.tau(0)
    with pytest.raises(ValueError):
        sched.tau(6)


def test_uniform_schedule_is_constant():
    sched = uniform_schedule(0.25, 16)
    assert sched.mode == "uniform"
    assert sched.total == 0.25
    assert all(sched.tau(k) == 0.25 / 16 for k in range(1, 17))
    assert sched.taus() == [sched.tau(k) for k in range(1, 17)]


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


@pytest.mark.parametrize("n", [1, 2])
def test_a_step_whose_solve_overflows_raises(n):
    """A finite tau so small that delta^m / tau overflows makes a
    non-finite candidate: the step raises, for every value shape, instead
    of keeping it or matching it, and so does a chain of such steps or one
    that reaches them after steps it keeps, without a warning (tier 1 turns
    warnings into errors), although an n = 1 block solves every row of
    the block before it scores the first."""
    d = build_domain(1, 7)
    f = QGridFunction(d, np.random.default_rng(1).normal(size=(7, 2, n)))
    with pytest.raises(ValueError, match="values must be finite"):
        minimize_step(f, 1e-320)
    with pytest.raises(ValueError, match="values must be finite"):
        run_flow(f, uniform_schedule(6e-320, 6))
    chain = morseflow._ChainState(f, [0.01] * 3 + [1e-320] * 6)
    with pytest.raises(ValueError, match="values must be finite"):
        chain.run(9)
    assert chain.log.outer[:3].all()


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
    assert np.max(np.abs(g.values.mean(axis=1))) == 0.0
    # and exactly zero along a long chain on the disk, with a shared factor
    disk = build_domain(2, 21)
    f0 = sample_initial(InitialSpec("symmetric-cos"), disk, 2)
    traj = run_flow(f0, uniform_schedule(0.5, 200))
    assert traj.converged
    assert max(np.max(np.abs(f.values.mean(axis=1)))
               for f in traj.snapshots) == 0.0


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


def frozen_solve(f, tau, edge_sigma, node_nu):
    """One frozen-pairing solve of the chain loop from f: the interior
    values, and the largest `|matrix @ sol - rhs|` over the node weight
    delta^m, with the system and right-hand side built here by the
    csr-pipeline reference."""
    d, (q, n) = f.domain, f.values.shape[1:]
    chain = morseflow._ChainState(f, [tau])
    chain._solve_rows(chain.states, tau, edge_sigma, node_nu)
    vals = chain.states[1, d.interior]
    if edge_sigma is None:
        sigma, shape = np.zeros((d.num_edges, 1), dtype=np.int64), (-1, q * n)
    else:
        sigma, shape = edge_sigma, (-1, n)
    matrix, couple = frozen_system_by_csr(d, tau, sigma)
    matched = f.values[d.interior]
    if node_nu is not None:
        matched = np.take_along_axis(matched, node_nu[:, :, None], axis=1)
    w_n = d.delta**d.m
    rhs = w_n / tau * matched.reshape(shape) + couple @ f.values.reshape(shape)
    return vals, np.abs(matrix @ vals.reshape(shape) - rhs).max() / w_n


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
    got, want = (frozen_solve(f, 0.05, edge_sigma, nu) for nu in (None, ident))
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


@pytest.mark.parametrize("m, res", [(1, 3), (1, 15), (1, 41), (2, 5), (2, 21)])
@pytest.mark.parametrize("q", [2, 3])
def test_frozen_system_matches_the_csr_pipeline(m, res, q):
    """The COO-assembled blocks are the reference matrix: consecutive whole
    rows of nodes (lattice rows on the disk, nodes on the interval) packed
    up to _BLOCK_LANES lanes, diagonal and upper blocks equal entry for
    entry and nothing outside the block tridiagonal band; and the boundary
    term carries the bits of the reference coupling's `couple @ x`, for
    identity and non-identity pairings."""
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
        blocks, diag, upper, _ = morseflow._frozen_system(d, 0.05, sigma)
        want, want_couple = frozen_system_by_csr(d, 0.05, sigma)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == want.shape[0]
        row = np.repeat(d.coords[d.interior, -1], sigma.shape[1])
        assert all(row[b.stop - 1] != row[b.stop] for b in blocks[:-1])
        for b, nxt in zip(blocks, blocks[1:] + [None]):
            fits = b.stop - b.start <= morseflow._BLOCK_LANES
            assert fits or np.unique(row[b]).size == 1
            # the next block's first row would not have fit
            if nxt is not None:
                first = (row[nxt] == row[nxt.start]).sum()
                assert b.stop - b.start + first > morseflow._BLOCK_LANES
        nb = len(blocks)
        assembled = bmat([[csr_matrix(diag[i]) if j == i
                           else csr_matrix(upper[i]) if j == i + 1
                           else csr_matrix(upper[j].T) if j == i - 1 else None
                           for j in range(nb)] for i in range(nb)])
        assert np.array_equal(assembled.toarray(), want.toarray())
        x = rng.normal(size=(want_couple.shape[1], 3))
        factor = morseflow._BlockFactor(d, 0.05, sigma)
        assert np.array_equal(factor.boundary(x), want_couple @ x)


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
    """Reference for the block solve: one solve per (branch, coordinate)
    column for the identity edge pairing (None), one per coordinate of the
    lane-coupled system otherwise, each with its own boundary term.
    Returns the interior values."""
    qq, nn = prev_vals.shape[1:]
    if edge_sigma is None:
        sigma = np.zeros((domain.num_edges, 1), dtype=np.int64)
        columns = [np.s_[:, i, c] for i in range(qq) for c in range(nn)]
    else:
        sigma = edge_sigma
        columns = [np.s_[:, :, c] for c in range(nn)]
    factor = morseflow._BlockFactor(domain, tau, sigma)
    w_p = domain.delta**domain.m / tau
    matched = prev_vals[domain.interior[:, None], node_nu]
    x = np.empty_like(matched)
    for col in columns:
        b = (w_p * matched[col].reshape(-1, 1)
             + factor.boundary(prev_vals[col].reshape(-1, 1)))
        x[col] = factor.solve(b).reshape(x[col].shape)
    return x


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q, n", [(1, 1), (2, 1), (3, 1), (6, 1),
                                  (2, 2), (3, 2), (2, 3)])
def test_block_solve_matches_per_column_solves(m, q, n):
    """The one block solve of a sweep agrees with solving each column on
    its own.  Multi-column matrix products may round differently from
    single-column ones, so the bound is a few ulps, not bit equality."""
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
        vals, residual = frozen_solve(f, 0.05, edge_sigma, node_nu)
        want = _solve_by_column(f.values, d, 0.05, edge_sigma, node_nu)
        tol = 8 * np.spacing(np.max(np.abs(want)))
        assert vals.shape == want.shape
        assert np.max(np.abs(vals - want)) <= tol
        assert residual <= 1e-10


def lane_pairing(d, width, rng):
    """A random edge pairing of `width` lanes, not the identity for
    width > 1."""
    sigma = rng.permuted(np.tile(np.arange(width), (d.num_edges, 1)), axis=1)
    assert width == 1 or (sigma != np.arange(width)).any()
    return sigma


@pytest.mark.parametrize("m, res", [(1, 21), (1, 201), (2, 21)])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_block_solve_matches_spsolve(m, res, width):
    """The block factor solves the frozen system to a relative 1e-13 of
    scipy's sparse direct solve of the csr-pipeline reference, with a
    small true residual, on the interval (one block at resolution 21,
    several at 201) and the disk at resolution 21, for the scalar block
    and for non-identity lane pairings."""
    rng = np.random.default_rng(10 * m + width)
    d = build_domain(m, res)
    sigma = lane_pairing(d, width, rng)
    for tau in (1e-4, 0.05, 10.0):
        matrix, _ = frozen_system_by_csr(d, tau, sigma)
        rhs = rng.normal(size=(matrix.shape[0], 3))
        x = morseflow._BlockFactor(d, tau, sigma).solve(rhs)
        want = spsolve(matrix, rhs)
        assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()
        scale = abs(matrix).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(matrix @ x - rhs).max() <= 1e-14 * scale


@pytest.mark.parametrize("m, res", [(1, 11), (1, 51), (1, 201), (2, 21),
                                    (2, 61)])
@pytest.mark.parametrize("width", [1, 2])
def test_block_solve_keeps_negated_columns_antisymmetric(m, res, width):
    """Every column goes through the same arithmetic, so right-hand side
    columns [b, c, -b, -c] solve to exactly [x, y, -x, -y]."""
    rng = np.random.default_rng(res + width)
    d = build_domain(m, res)
    sigma = lane_pairing(d, width, rng)
    factor = morseflow._BlockFactor(d, 0.01, sigma)
    half = rng.normal(size=(factor.blocks[-1].stop, 2))
    x = factor.solve(np.concatenate([half, -half], axis=1))
    assert np.array_equal(x[:, 2:], -x[:, :2])


def solve_by_products(factor, rhs):
    """The block solve as it was before it wrote into a given array, kept
    as a bit-for-bit reference: a new array for every product and
    difference of the forward and the back sweep."""
    x, z = np.empty_like(rhs), None
    for i, blk in enumerate(factor.blocks):
        y = rhs[blk] - factor.lower[i - 1] @ z if i else rhs[blk]
        x[blk] = z = factor.inv[i] @ y
    for i in range(len(factor.g) - 1, -1, -1):
        x[factor.blocks[i]] -= factor.g[i] @ x[factor.blocks[i + 1]]
    return x


@pytest.mark.parametrize("m, res, blocks", [(1, 11, 1), (1, 41, 1), (1, 201, 4),
                                            (2, 21, 5), (2, 61, 51)])
@pytest.mark.parametrize("columns", [1, 2, 6])
def test_buffered_solve_has_the_bits_of_the_product_solve(m, res, blocks,
                                                         columns):
    """`_BlockFactor.solve` into a row view of a larger array, and into a
    new array, gives the bits of the solve that allocates every product,
    for factors of one block (the interval up to resolution 65) and of
    many, at the step sizes of a coarse and a fine chain."""
    rng = np.random.default_rng(res + columns)
    d = build_domain(m, res)
    sigma = np.zeros((d.num_edges, 1), dtype=np.int64)
    for tau in (0.25 / 12800, 0.05):
        factor = morseflow._BlockFactor(d, tau, sigma)
        assert len(factor.blocks) == blocks
        rhs = rng.normal(size=(len(d.interior), columns))
        want = solve_by_products(factor, rhs)
        work = np.full((3,) + rhs.shape, np.nan)
        got = factor.solve(rhs, out=work[1])
        assert got.base is work
        assert work[1].tobytes() == want.tobytes()
        assert np.isnan(work[[0, 2]]).all()
        assert factor.solve(rhs).tobytes() == want.tobytes()


@pytest.mark.parametrize("m, res, width", [(1, 11, 1), (1, 201, 1),
                                           (2, 21, 2), (2, 61, 1)])
def test_block_factor_stores_every_block_c_contiguous(m, res, width):
    """Every block `solve` reads, the inverses, the G blocks and the lower
    blocks, is C-contiguous, so no product copies its block first; the
    lower blocks, transposes of the upper ones, share one buffer."""
    d = build_domain(m, res)
    sigma = lane_pairing(d, width, np.random.default_rng(res))
    factor = morseflow._BlockFactor(d, 0.05, sigma)
    assert len(factor.lower) == len(factor.g) == len(factor.blocks) - 1
    for block in factor.inv + factor.g + factor.lower:
        assert block.flags.c_contiguous
    if factor.lower:
        buffer = factor.lower[0].base
        assert buffer is not None
        assert all(low.base is buffer for low in factor.lower)


def test_a_one_block_solve_into_out_allocates_no_array():
    """A factor of one block (the interval up to resolution 65) solves
    into `out` by its bound product `one`, the call of a chain's step, and
    `solve`, with no new array; the same probe sees the array a solve
    without `out` makes."""
    d = build_domain(1, 41)
    factor = morseflow._BlockFactor(
        d, 0.01, np.zeros((d.num_edges, 1), dtype=np.int64))
    rhs = np.ones((len(d.interior), 6))
    out = np.empty_like(rhs)

    def grown(solve):
        solve()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(10):
                solve()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    assert grown(lambda: factor.one(rhs, out)) < rhs.nbytes
    assert grown(lambda: factor.solve(rhs, out=out)) < rhs.nbytes
    assert grown(lambda: factor.solve(rhs)) >= rhs.nbytes


@pytest.mark.parametrize("m, res", [(1, 11), (1, 51), (1, 201), (2, 21)])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_scalar_solve_keeps_sorted_branches_sorted(m, res, q):
    """For n = 1 the frozen matrix is an M-matrix: every S_i^-1 of its
    factor is entrywise nonnegative and every G_i nonpositive, so a frozen
    solve from sorted branches, random, exactly tied or tied to within
    1e-9, leaves every node's branches in order.  At tau = 0.01 / 2^40 (a
    geometric tail) the factor's subnormal entries are flushed to zero,
    which keeps those signs and that order."""
    rng = np.random.default_rng(100 * m + res + q)
    d = build_domain(m, res)
    base = rng.normal(size=(d.num_nodes, q, 1))
    data = {
        "random": base,
        "tied": base[:, [i // 2 for i in range(q)]],
        "near-tied": base[:, :1] + 1e-9 * rng.normal(size=base.shape),
    }
    for vals in data.values():
        vals = np.sort(vals, axis=1)
        for tau in (0.01 / 2**40, 1e-4, 0.05, 10.0):
            chain = morseflow._ChainState(QGridFunction(d, vals), [tau])
            chain._solve_rows(chain.states, tau)
            sol = chain.states[1, d.interior]
            assert (np.diff(sol, axis=1) >= 0.0).all()
            assert all((s >= 0.0).all() for s in chain.factor.inv)
            assert all((g <= 0.0).all() for g in chain.factor.g)
            for b in chain.factor.inv + chain.factor.g:
                assert not (np.abs(b[b != 0.0]) < np.finfo(float).tiny).any()


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
            u = implicit_euler_chain(d, traj.states[0, :, b, c],
                                     [sched.tau(k) for k in range(1, 65)])
            gap = max(gap, np.max(np.abs(traj.states[:, :, b, c] - u)))
    assert gap <= 1e-12


def test_single_valued_step_matches_direct_chain():
    rng = np.random.default_rng(41)
    d = build_domain(1, 51)
    u0 = rng.normal(0.0, 1.0, size=d.num_nodes)
    f0 = QGridFunction(d, u0[:, None, None])
    tau = 0.02
    g, report = minimize_step(f0, tau)
    chain = implicit_euler_chain(d, u0, [tau])[-1]
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


def test_flow_computes_each_start_energy_once(monkeypatch):
    """Each step starts from the energy its predecessor kept: a one-sweep
    (n = 1) chain scores the edges of each of its states once, each as a
    slice of the paired-sum kernel, its start through `_paired` and every
    later state as a row of a block's reduction, and each step's
    energy_before is the energy_after of the step before and the energy of
    its start."""
    scored = []
    paired_sums = grid._paired_sums

    def counted(a, b):
        scored.extend([a.shape[1]] * len(a))
        return paired_sums(a, b)

    for module in (grid, morseflow):
        monkeypatch.setattr(module, "_paired_sums", counted)
    d = build_domain(1, 21)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    traj = run_flow(f0, uniform_schedule(0.25, 8))
    assert traj.converged
    assert scored.count(d.num_edges) == 8 + 1
    assert [r.energy_before for r in traj.reports[1:]] == \
        [r.energy_after for r in traj.reports[:-1]]
    assert [r.energy_before for r in traj.reports] == list(traj.energies[:-1])


STEPPING_CASES = [(1, 15, 2, 1, "uniform"), (1, 15, 2, 2, "uniform")] + [
    (m, 11, q, 2, mode) for mode in ("geometric", "floor")
    for m in (1, 2) for q in (2, 3)]


@pytest.mark.parametrize(
    "m, res, q, n, mode", STEPPING_CASES,
    ids=["1", "2"] + [f"{c[4]}-{c[0]}-{c[2]}" for c in STEPPING_CASES[2:]])
def test_flow_matches_stepping_by_hand(m, res, q, n, mode, monkeypatch):
    """run_flow shares one factorization across steps, and a step that
    keeps no sweep repeats its start for the rest of its run of equal tau;
    the chain must be bit-identical to independent minimize_step calls:
    six uniform steps with no rejection, and for n = 2 a geometric tail
    and a uniform run that reaches the floor, both rejecting steps.  A
    step solves the sweeps it reports, so the geometric run, whose taus
    all differ, solves every step's, and the floor run only those of the
    steps up to its first rejection."""
    rng = np.random.default_rng(67)
    d = build_domain(m, res)
    f0 = QGridFunction(d, rng.normal(0.0, 1.0, size=(d.num_nodes, q, n)))
    sched = {"uniform": uniform_schedule(0.25, 6),
             "geometric": geometric_schedule(0.25, 64),
             "floor": uniform_schedule(50.0, 300)}[mode]
    solves = count_solves(monkeypatch)
    traj = run_flow(f0, sched)
    assert traj.converged
    sweeps = [r.outer_iterations for r in traj.reports]
    rejected = [len(r.objective_trace) == 1 for r in traj.reports]
    assert any(rejected) == (mode != "uniform")
    if mode == "floor":
        first = rejected.index(True)
        assert all(rejected[first:])
        assert len(solves) == sum(sweeps[:first + 1])
    else:
        assert len(solves) == sum(sweeps)
    current = f0
    for k in range(1, sched.steps + 1):
        current, report = minimize_step(current, sched.tau(k), step_index=k)
        assert np.array_equal(current.values, traj.snapshots[k].values)
        assert report == traj.reports[k - 1]


def block_rows(monkeypatch, d, q, rows):
    """Set _BLOCK_VALUES so that an n = 1 block, and the window of
    `final_state`, holds `rows` rows of q branches on d."""
    monkeypatch.setattr(morseflow, "_BLOCK_VALUES",
                        rows * max(d.num_nodes, d.num_edges) * q)


def scalar_schedule(mode, d, q, monkeypatch):
    """The schedule of an n = 1 chain case at resolution 11: ten uniform
    steps; a geometric tail, where the floor guard rejects steps; a
    uniform run that reaches the floor and is rejected on every step after
    it ("floor"); and that run in blocks of three rows ("blocks")."""
    if mode == "blocks":
        block_rows(monkeypatch, d, q, 3)
    if mode == "uniform":
        return uniform_schedule(0.25, 10)
    if mode == "geometric":
        return geometric_schedule(0.25, 64)
    return uniform_schedule(50.0, 300)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("mode", ["uniform", "geometric", "floor", "blocks"])
def test_scalar_flow_matches_stepping_by_hand(m, q, mode, monkeypatch):
    """From step 2 on, an n = 1 chain is stepped by run_flow's loop in
    blocks of equal tau, which share one factor and one floor guard;
    independent minimize_step calls take one step each with a factor of
    their own.  Snapshots and reports must be bit-identical, through the
    steps that the floor guard rejects, and across many blocks."""
    d = build_domain(m, 11)
    rng = np.random.default_rng(10 * m + q)
    f0 = QGridFunction(d, rng.normal(0.0, 1.0, size=(d.num_nodes, q, 1)))
    sched = scalar_schedule(mode, d, q, monkeypatch)
    traj = run_flow(f0, sched)
    assert traj.converged
    if mode != "uniform":
        assert any(len(r.objective_trace) == 1 for r in traj.reports)
    current = f0
    for k in range(1, sched.steps + 1):
        current, report = minimize_step(current, sched.tau(k), step_index=k)
        assert np.array_equal(current.values, traj.snapshots[k].values)
        assert report == traj.reports[k - 1]


def scalar_chain_by_loop(f0, taus):
    """The loop that stepped n = 1 chains on their own before every value
    shape shared one loop, kept as a bit-for-bit reference.  Each step
    builds its right-hand side, makes one frozen-pairing solve (every
    pairing is the identity), writes the row and sorts it; the floor guard
    keeps the row only if E_k + P_k / tau < E_{k-1} and otherwise repeats
    the start, and a start of zero energy is a fixed point.  Returns the
    states and the StepReports."""
    d = f0.domain
    ea, eb, inner = d.edges[:, 0], d.edges[:, 1], d.interior
    w_e, w_n = d.delta ** (d.m - 2), d.delta**d.m
    states = np.empty((len(taus) + 1,) + f0.values.shape)
    states[0] = f0.values
    energy = np.empty(len(taus) + 1)
    penalty = np.zeros(len(taus))
    e = energy[0] = w_e * grid._paired(f0.values[ea], f0.values[eb])[1]
    factor_tau = None
    for k, tau in enumerate(taus, start=1):
        prev, row = states[k - 1], states[k]
        row[...] = prev
        if e != 0.0:
            if tau != factor_tau:
                factor = morseflow._BlockFactor(
                    d, tau, np.zeros((d.num_edges, 1), dtype=np.int64))
                boundary = factor.boundary(prev.reshape(-1, f0.q))
                factor_tau = tau
            matched = prev[inner]
            rhs = w_n / tau * matched.reshape(-1, f0.q) + boundary
            row[inner] = factor.solve(rhs).reshape(matched.shape)
            row.sort(axis=1)
            e_k = w_e * grid._paired(row[ea], row[eb])[1]
            p_k = w_n * grid._paired(row, prev)[1]
            if e_k + p_k / tau >= e and np.isfinite(row).all():
                row[...] = prev
            else:
                e, penalty[k - 1] = e_k, p_k
        energy[k] = e
    energy, penalty = energy.tolist(), penalty.tolist()
    reports = []
    for k, tau in enumerate(taus, start=1):
        before, after = energy[k - 1], energy[k]
        if before == 0.0:
            reports.append(StepReport(k, tau, 0.0, 0.0, 0.0, 0, True, (0.0,)))
            continue
        trace = (before,) if after == before else (
            before, after + penalty[k - 1] / tau)
        reports.append(StepReport(k, tau, before, after, penalty[k - 1], 1,
                                  True, trace))
    return states, reports


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [1, 3, 5])
@pytest.mark.parametrize("mode", ["uniform", "geometric", "floor", "blocks"])
def test_scalar_chain_matches_the_sorting_loop_bit_for_bit(m, q, mode,
                                                            monkeypatch):
    """An n = 1 chain steps in blocks of equal tau; its states and the
    repr of every report are those of the loop that solved, sorted and
    guarded one step at a time, through a geometric tail and a uniform run
    whose floor guard rejects steps, and across many blocks.  The chain
    itself does not sort: on random branches, on exactly tied ones (pairs
    of equal columns) and on ones tied to within 1e-9, the solve leaves
    every node's branches in order."""
    d = build_domain(m, 11)
    rng = np.random.default_rng(10 * m + q)
    base = rng.normal(0.0, 1.0, size=(d.num_nodes, q, 1))
    data = {
        "random": base,
        "tied": base[:, [i // 2 for i in range(q)]],
        "near-tied": base[:, :1] + 1e-9 * rng.normal(size=base.shape),
    }
    sched = scalar_schedule(mode, d, q, monkeypatch)
    taus = [sched.tau(k) for k in range(1, sched.steps + 1)]
    for label, values in data.items():
        f0 = QGridFunction(d, values)
        traj = run_flow(f0, sched)
        states, reports = scalar_chain_by_loop(f0, taus)
        assert np.array_equal(traj.states, states), label
        assert repr(list(traj.reports)) == repr(reports), label
        if mode != "uniform":
            assert any(len(r.objective_trace) == 1 for r in reports), label


def test_scalar_chain_at_the_ladder_block_size_matches_the_loop(monkeypatch):
    """The heat ladder's resolution-41 cell (q = 2, symmetric-cos, its step
    size) over 600 steps at the default _BLOCK_VALUES cap: blocks grow to
    the cap of 199 rows, and the window of `final_state` rolls, which the
    resolution-11 cases never reach.  run_flow's states and the repr of
    every report are those of the loop that steps one at a time, and
    `final_state` ends on its last state, bit for bit."""
    d = build_domain(1, 41)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    sched = uniform_schedule(600 / 51200, 600)
    sizes, solve_rows = [], morseflow._ChainState._solve_rows

    def recorded(self, rows, tau):
        sizes.append(len(rows) - 1)
        return solve_rows(self, rows, tau)

    monkeypatch.setattr(morseflow._ChainState, "_solve_rows", recorded)
    traj = run_flow(f0, sched)
    assert max(sizes) == morseflow._BLOCK_VALUES // (d.num_nodes * 2) == 199
    assert sum(sizes) == sched.steps
    states, reports = scalar_chain_by_loop(f0, sched.taus())
    assert np.array_equal(traj.states, states)
    assert repr(list(traj.reports)) == repr(reports)
    assert final_state(f0, sched).values.tobytes() == states[-1].tobytes()


def test_a_kept_state_of_zero_energy_ends_its_block():
    """A step that reaches zero energy inside a block (one interior node
    between equal boundary values, a step so long that it lands exactly on
    them) is kept; the later steps of the block are fixed points, with no
    sweep, as in the loop that steps one at a time."""
    d = build_domain(1, 3)
    f0 = QGridFunction(d, np.array([[[1.0], [1.0]], [[0.0], [2.0]],
                                    [[1.0], [1.0]]]))
    taus = [1e300] * 4
    chain = morseflow._ChainState(f0, taus)
    chain.run(4)
    assert [r.outer_iterations for r in chain.log] == [1, 0, 0, 0]
    states, reports = scalar_chain_by_loop(f0, taus)
    assert np.array_equal(chain.states, states)
    assert repr(list(chain.log)) == repr(reports)


def hook_products(monkeypatch, wrap):
    """Replace the product a chain's steps solve with, on every new
    `_BlockFactor`, by wrap(product): the bound product `one` of a
    one-block factor, which the chain calls with no Python frame, and
    `solve` of any other."""
    init = morseflow._BlockFactor.__init__

    def hooked(self, *args):
        init(self, *args)
        if self.one:
            self.one = wrap(self.one)
        else:
            self.solve = wrap(self.solve)

    monkeypatch.setattr(morseflow._BlockFactor, "__init__", hooked)


def count_solves(monkeypatch):
    """The right-hand side shape of every step product a chain calls,
    `hook_products`."""
    solves = []

    def wrap(product):
        def counted(rhs, out=None):
            solves.append(rhs.shape)
            return product(rhs, out)
        return counted

    hook_products(monkeypatch, wrap)
    return solves


def test_a_one_block_chain_steps_by_the_bound_product(monkeypatch):
    """A one-block n = 1 chain calls the bound product `one` once per
    solved step and never `_BlockFactor.solve`, and its scale operand is
    one 0-d float64 per factorization, w_n / tau, not one per block: 20
    uniform steps at resolution 41, minimize_step's one and then blocks of
    1, 2, 4, 8 and 4 rows."""
    def never(self, rhs, out=None):
        raise AssertionError("_BlockFactor.solve called")

    monkeypatch.setattr(morseflow._BlockFactor, "solve", never)
    solves = count_solves(monkeypatch)
    blocks, scales, multiply = [], [], np.multiply
    solve_rows = morseflow._ChainState._solve_rows

    def counted_rows(self, rows, *args):
        blocks.append(len(rows) - 1)
        return solve_rows(self, rows, *args)

    def recorded(scale, a, out):
        scales.append(scale)
        return multiply(scale, a, out)

    monkeypatch.setattr(morseflow._ChainState, "_solve_rows", counted_rows)
    monkeypatch.setattr(np, "multiply", recorded)
    d = build_domain(1, 41)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    chain = morseflow._run_chain(f0, uniform_schedule(0.25, 20))
    assert all(len(r.objective_trace) == 2 for r in chain.log)
    assert chain.factor.one is not None
    assert blocks == [1, 1, 2, 4, 8, 4]
    assert len(solves) == len(scales) == 20
    assert all(s is scales[0] for s in scales)
    assert type(scales[0]) is np.ndarray and scales[0].shape == ()
    assert scales[0].dtype == np.float64
    assert scales[0].tobytes() == np.float64(chain.w_n / 0.0125).tobytes()


def test_steps_after_a_rejection_of_equal_tau_are_not_solved(monkeypatch):
    """A rejected step leaves the state, tau and floor unchanged, so the
    chain repeats its state for the later steps of the same tau without
    solving them: in blocks of three rows, the floor run solves no block
    after the one that holds its first rejection."""
    solves = count_solves(monkeypatch)
    d = build_domain(1, 11)
    monkeypatch.setattr(morseflow, "_BLOCK_VALUES", 3 * d.num_nodes * 2)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    traj = run_flow(f0, uniform_schedule(50.0, 300))
    kept = [len(r.objective_trace) == 2 for r in traj.reports]
    first = kept.index(False)
    assert 0 < first and not any(kept[first:])
    assert first + 1 <= len(solves) < first + 1 + 3


@pytest.mark.parametrize("steps", [300, 1200])
def test_solves_after_a_rejection_are_no_more_than_the_kept_steps(
        steps, monkeypatch):
    """A run of equal tau starts with a one-row block and doubles it up to
    the cap, so at the default cap the rows a block solves after a
    rejection are no more than the steps kept before it: the floor run of
    the resolution-11 symmetric-cos datum at tau = 1/6 makes at most
    2 r + 1 solves, r its first rejected step, however long it runs.  Its
    states and reports are those of the loop that steps one at a time."""
    solves = count_solves(monkeypatch)
    d = build_domain(1, 11)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    sched = uniform_schedule(50.0 * steps / 300, steps)
    assert sched.h == 50.0 / 300
    traj = run_flow(f0, sched)
    kept = [len(r.objective_trace) == 2 for r in traj.reports]
    first = kept.index(False) + 1
    assert 1 < first < 300 and not any(kept[first - 1:])
    assert len(solves) <= 2 * first + 1
    states, reports = scalar_chain_by_loop(f0, sched.taus())
    assert np.array_equal(traj.states, states)
    assert repr(list(traj.reports)) == repr(reports)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q, n", [(1, 1), (3, 1), (1, 2), (3, 2)])
@pytest.mark.parametrize("mode", ["uniform", "geometric"])
@pytest.mark.parametrize("rows", [None, 1, 3])
def test_final_state_is_the_last_state_of_the_flow(m, q, n, mode, rows,
                                                   monkeypatch):
    """`final_state` keeps one block of rows and returns the bits of
    run_flow's last state, for every value shape and both schedules (the
    geometric tail rejects steps), with a window of the whole schedule
    (the default cap) and one that rolls on every step or every third."""
    d = build_domain(m, 11 if m == 1 else 7)
    rng = np.random.default_rng(100 * m + 10 * q + n)
    f0 = QGridFunction(d, rng.normal(size=(d.num_nodes, q, n)))
    if rows:
        block_rows(monkeypatch, d, q, rows)
    sched = (uniform_schedule(0.25, 24) if mode == "uniform"
             else geometric_schedule(0.25, 64))
    traj = run_flow(f0, sched)
    assert traj.converged
    if mode == "geometric":
        assert any(len(r.objective_trace) == 1 for r in traj.reports)
    got = final_state(f0, sched)
    assert got.values.tobytes() == traj.states[-1].tobytes()


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_final_state_keeps_the_bits_through_repeated_steps(rows,
                                                           monkeypatch):
    """Steps that repeat their start are relabelled, not copied, when the
    window rolls: the floor run, rejected on every step after its first
    rejection, and a kept state of zero energy, a fixed point of every
    later step, end on run_flow's last state."""
    d = build_domain(1, 11)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    zero = QGridFunction(build_domain(1, 3), np.array(
        [[[1.0], [1.0]], [[0.0], [2.0]], [[1.0], [1.0]]]))
    for f, sched in ((f0, uniform_schedule(50.0, 300)),
                     (zero, uniform_schedule(4e300, 4))):
        if rows:
            block_rows(monkeypatch, f.domain, 2, rows)
        traj = run_flow(f, sched)
        assert any(len(r.objective_trace) == 1 for r in traj.reports)
        got = final_state(f, sched)
        assert got.values.tobytes() == traj.states[-1].tobytes()


def test_final_state_memory_does_not_grow_with_its_states():
    """At resolution 41 over 20 000 steps, run_flow keeps every state,
    more than steps * row bytes, while `final_state` keeps one block of
    rows: its peak stays under a bound set by the block, not the steps
    (the per-step log it still keeps is 40-odd bytes a step)."""
    d = build_domain(1, 41)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    sched = uniform_schedule(0.25, 20000)

    def peak(fn):
        tracemalloc.start()
        try:
            fn(f0, sched)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(final_state) < 2 * 2**20
    assert peak(run_flow) > sched.steps * f0.values.nbytes


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_final_state_checks_every_state_it_steps_through(rows, monkeypatch):
    """A solve that swaps one node's branches makes a state out of
    canonical order, which the floor guard keeps (the branches are 1e-6
    apart): `final_state` raises the ValueError that run_flow's
    trajectory raises, whether the window rolls or not."""
    def wrap(product):
        def swapped(rhs, out=None):
            x = product(rhs, out)
            x[0, [0, 1]] = x[0, [1, 0]]
            return x
        return swapped

    hook_products(monkeypatch, wrap)
    d = build_domain(1, 11)
    if rows:
        block_rows(monkeypatch, d, 2, rows)
    u = np.random.default_rng(3).normal(size=d.num_nodes)
    f0 = QGridFunction(d, np.stack([u, u + 1e-6], axis=1)[:, :, None])
    for fn in (run_flow, final_state):
        with pytest.raises(ValueError, match="canonical order"):
            fn(f0, uniform_schedule(0.25, 8))


def test_final_state_raises_when_the_chain_ends_early(monkeypatch):
    """A step that does not converge ends the chain: run_flow truncates
    its trajectory, and `final_state`, which has no last state to give,
    raises."""
    monkeypatch.setattr(morseflow, "_MAX_OUTER", 1)
    d = build_domain(1, 11)
    f0 = QGridFunction(d, np.random.default_rng(6).normal(size=(11, 2, 2)))
    sched = uniform_schedule(0.25, 4)
    assert not run_flow(f0, sched).converged
    with pytest.raises(ValueError, match="stopped after"):
        final_state(f0, sched)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_block_reduction_has_the_bits_of_one_sum_per_row(q):
    """`grid._paired_sums` scores stacked slices in one call, as an n = 1
    block scores its rows for E_k and P_k; every slice's pairing and sum
    must be those of `grid._paired` on that slice alone, for n = 1 and 2,
    for the edges of the resolution-61 disk gathered as the chain does
    (`take`) and by a fancy index, whose gathered rows numpy lays out
    strided.  The stacked pairing is None exactly when every slice's is."""
    d = build_domain(2, 61)
    ea, eb = d.edges[:, 0], d.edges[:, 1]

    def explicit(sigma, count):
        return np.broadcast_to(np.arange(q), (count, q)) if sigma is None else sigma

    for n in (1, 2):
        rows = qspace._canonical(np.random.default_rng(10 * q + n).normal(
            size=(6, d.num_nodes, q, n)))
        edge_pairs = [(r[ea], r[eb]) for r in rows[1:]]
        for stacked, pairs in (
                (grid._paired_sums(rows[1:].take(ea, axis=1),
                                   rows[1:].take(eb, axis=1)), edge_pairs),
                (grid._paired_sums(rows[1:, ea], rows[1:, eb]), edge_pairs),
                (grid._paired_sums(rows[1:], rows[:-1]),
                 list(zip(rows[1:], rows[:-1])))):
            sigma, sums = stacked
            want = [grid._paired(a, b) for a, b in pairs]
            assert sums.tolist() == [total for _, total in want]
            assert (sigma is None) == all(s is None for s, _ in want)
            for i, ((a, _), (s, _)) in enumerate(zip(pairs, want)):
                got = None if sigma is None else sigma[i]
                assert np.array_equal(explicit(got, len(a)), explicit(s, len(a)))
            # random vector values pair nontrivially on some row
            assert (sigma is None) == (n == 1 or q == 1)


def count_grid_functions(monkeypatch):
    """Every QGridFunction built from here on."""
    built = []
    post_init = QGridFunction.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(QGridFunction, "__post_init__", counted)
    return built


def test_vector_flow_builds_no_grid_function_per_sweep(monkeypatch):
    """An n = 2 chain solves every sweep into its step's row of the state
    array: the QGridFunctions a run builds do not grow with its steps or
    sweeps."""
    rng = np.random.default_rng(6)
    d = build_domain(1, 11)
    f0 = QGridFunction(d, rng.normal(0.0, 1.0, size=(11, 2, 2)))
    built = count_grid_functions(monkeypatch)
    counts, sweeps = [], []
    for steps in (2, 8):
        built.clear()
        traj = run_flow(f0, uniform_schedule(0.25, steps))
        assert traj.converged
        counts.append(len(built))
        sweeps.append(sum(r.outer_iterations for r in traj.reports))
    assert sweeps[1] > sweeps[0] > 2
    assert counts[0] == counts[1] <= 1


def test_scalar_flow_builds_no_grid_function_per_step(monkeypatch):
    """An n = 1 chain writes its states into one array and its snapshots
    are views of its rows: the QGridFunctions it builds, snapshots and
    quantities included, do not grow with the number of steps."""
    d = build_domain(1, 21)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    built = count_grid_functions(monkeypatch)
    counts = []
    for steps in (4, 64):
        built.clear()
        traj = run_flow(f0, uniform_schedule(0.25, steps))
        assert len(traj.snapshots) == len(traj.energies) == steps + 1
        assert len(traj.reports) == len(traj.penalties) == steps
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("m, res, q, n, schedule, max_outer", [
    (1, 15, 2, 1, uniform_schedule(0.25, 6), None),
    (1, 15, 2, 2, uniform_schedule(0.25, 6), None),
    (2, 9, 2, 1, uniform_schedule(0.25, 6), None),
    (1, 15, 3, 2, uniform_schedule(0.25, 6), None),
    (1, 201, 2, 1, uniform_schedule(0.25, 64), None),
    (2, 21, 2, 1, uniform_schedule(0.25, 40), None),
    (1, 51, 1, 1, geometric_schedule(0.25, 64), None),
    (1, 15, 3, 2, uniform_schedule(0.25, 12), 2),
], ids=["1", "2", "disk", "q3", "blocks", "disk-blocks", "geometric",
        "truncated"])
def test_trajectory_quantities_are_those_of_the_states(m, res, q, n, schedule,
                                                       max_outer, monkeypatch):
    """Energies, penalties, branch-mean residuals and the per-state norms
    come from the stored states, not from the solver's guard, bit for bit
    those of the per-state references, also over several blocks of states
    (the interval and disk runs of 41 and more states), on a geometric
    tail and on a run that a non-converged n = 2 step truncates; doubling
    one state's interior still fails the energy check."""
    if max_outer is not None:
        monkeypatch.setattr(morseflow, "_MAX_OUTER", max_outer)
    rng = np.random.default_rng(71)
    d = build_domain(m, res)
    f0 = QGridFunction(d, rng.normal(0.0, 1.0, size=(d.num_nodes, q, n)))
    traj = run_flow(f0, schedule)
    assert traj.converged == (max_outer is None)
    assert (traj.completed_steps < schedule.steps) == (max_outer is not None)
    fresh = [QGridFunction(d, state) for state in traj.states]
    assert traj.energies == tuple(dirichlet_energy(f) for f in fresh)
    assert traj.penalties == tuple(
        l2_distance_sq(a, b) for a, b in zip(fresh, fresh[1:]))
    assert traj.eta_residuals == tuple(
        branch_mean_residual(a, b, tau)
        for a, b, tau in zip(fresh, fresh[1:], traj.schedule.taus()))
    assert traj.max_norms == tuple(
        float(np.sqrt((f.values**2).sum(axis=(1, 2)).max())) for f in fresh)
    assert traj.mean_norms == tuple(
        float(np.max(np.abs(f.values.mean(axis=1)))) for f in fresh)
    assert not traj.states.flags.writeable
    assert check_energy_monotonicity(traj).passed
    injected = cli._apply_injection(
        traj, cli.RunConfig(inject="energy_monotonicity"))
    assert not check_energy_monotonicity(injected).passed


def test_trajectory_rejects_non_finite_states():
    d = build_domain(1, 5)
    states = np.zeros((2, 5, 1, 1))
    states[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        FlowTrajectory(uniform_schedule(0.1, 1), d, states, ())


@pytest.mark.parametrize("n", [1, 2])
def test_trajectory_rejects_states_out_of_canonical_order(n):
    d = build_domain(1, 5)
    states = np.zeros((2, 5, 2, n))
    states[1, 2, 0, 0] = 1.0  # branch 0 above branch 1
    with pytest.raises(ValueError, match="canonical"):
        FlowTrajectory(uniform_schedule(0.1, 1), d, states, ())


@pytest.mark.parametrize("q", [1, 3])
def test_scalar_flow_of_constant_data_takes_the_short_cut(q):
    """Constant data has zero energy, so every step of an n = 1 chain is
    the short cut, as in independent minimize_step calls."""
    d = build_domain(1, 11)
    f0 = QGridFunction(d, np.full((11, q, 1), 0.5))
    sched = uniform_schedule(0.25, 5)
    traj = run_flow(f0, sched)
    current = f0
    for k in range(1, sched.steps + 1):
        current, report = minimize_step(current, sched.tau(k), step_index=k)
        assert np.array_equal(current.values, traj.snapshots[k].values)
        assert report == traj.reports[k - 1]
        assert report.objective_trace == (0.0,)
        assert report.outer_iterations == 0


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
    return StepReport(k, tau, 1.0, 0.5, 0.1, 1, True, (1.0, 0.5))


def trajectory_of(schedule, snapshots, reports):
    """A trajectory whose state array stacks the given snapshots; returns
    it with its own snapshots, the views of its rows."""
    traj = FlowTrajectory(schedule, snapshots[0].domain,
                          np.stack([f.values for f in snapshots]), reports)
    return traj, traj.snapshots


def test_uniform_interpolation_blends_sorted_values():
    fa, fb = boundary_pinned_pair([0.0, 2.0], [2.0, 4.0])
    sched = uniform_schedule(1.0, 1)
    traj, (fa, fb) = trajectory_of(sched, (fa, fb), (fake_report(1, 1.0),))
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
    traj, (fa, fb, fc) = trajectory_of(
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
    traj, _ = trajectory_of(sched, (f0, f1), (unconverged,))
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


@pytest.mark.parametrize("m, res", [(2, 61), (1, 201)],
                         ids=["disk", "interval"])
def test_scalar_interpolation_needs_no_re_sort(m, res, monkeypatch):
    """For n = 1 an interpolated state is a read-only view of the blend,
    built without a QGridFunction, whose values are those QGridFunction
    makes of them, byte for byte."""
    d = build_domain(m, res)
    traj = run_flow(sample_initial(InitialSpec("symmetric-cos"), d, 2),
                    uniform_schedule(0.25, 64))
    built = count_grid_functions(monkeypatch)
    times = np.random.default_rng(res).uniform(0.0, traj.horizon, size=50)
    states = [evaluate_at_time(traj, float(t)) for t in times]
    assert not built
    for g in states:
        assert not g.values.flags.writeable
        assert g.values.tobytes() == QGridFunction(d, g.values).values.tobytes()


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


def interpolation_run(mode, n):
    """A short run of either schedule: three scalar branches on the
    interval for n = 1, the perturbed {+-sqrt(z)} disk datum for n = 2."""
    sched = (uniform_schedule(0.05, 6) if mode == "uniform"
             else geometric_schedule(0.01, 5))
    if n == 1:
        spec = InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0),
                                                      (0.0, 0.5), (-0.5, 2.0)))
        return run_flow(sample_initial(spec, build_domain(1, 21), 3), sched)
    return run_flow(sqrt_branched(build_domain(2, 11),
                                  np.random.default_rng(5)), sched)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mode", ["uniform", "geometric"])
def test_interpolation_at_an_array_of_times_stacks_the_one_time_calls(mode, n):
    """`evaluate_at_time` on a 1-D array of times is the read-only stack of
    its one-time calls, bit for bit: at 0 and the horizon, at every
    window's ends, just inside them and at its middle, on every geometric
    plateau, at times clamped within the slack at both ends, and at
    random times."""
    traj = interpolation_run(mode, n)
    sched, horizon = traj.schedule, traj.horizon
    slack = 0.5e-12 * max(1.0, horizon)
    times = [0.0, -slack, horizon, horizon + slack]
    for k in range(1, sched.steps + 1):
        start, end = sched.window(k)
        times += [start, end, 0.5 * (start + end),
                  np.nextafter(start, end), np.nextafter(end, start),
                  0.5 * ((k - 1) * sched.h + start)]  # a plateau if geometric
    times += list(np.random.default_rng(71).uniform(0.0, horizon, size=30))
    times = np.array(times)
    stack = evaluate_at_time(traj, times)
    assert stack.shape == (len(times),) + traj.states.shape[1:]
    assert not stack.flags.writeable
    calls = [evaluate_at_time(traj, float(t)).values for t in times]
    assert stack.tobytes() == np.stack(calls).tobytes()
    # every piece of the one-time logic is reached
    assert any(evaluate_at_time(traj, float(t)) in traj.snapshots
               for t in times)
    assert not all(evaluate_at_time(traj, float(t)) in traj.snapshots
                   for t in times)
    for idx in ([0], [5, 6, 7, 8], list(range(len(times)))[::-1], []):
        assert evaluate_at_time(traj, times[idx]).tobytes() == \
            stack[idx].tobytes()
    for bad in ([0.0, horizon + 4 * slack], [-4 * slack], [np.nan]):
        with pytest.raises(ValueError, match="outside"):
            evaluate_at_time(traj, np.array(bad))
    with pytest.raises(ValueError):
        evaluate_at_time(traj, times[None])


def test_interpolation_of_a_zero_step_run_is_its_start():
    d = build_domain(1, 11)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    traj, (start,) = trajectory_of(uniform_schedule(0.1, 2), (f0,), ())
    assert traj.horizon == 0.0
    assert evaluate_at_time(traj, 0.0) is start
    stack = evaluate_at_time(traj, np.array([0.0, 1e-13, -1e-13]))
    assert stack.tobytes() == np.stack([start.values] * 3).tobytes()
    with pytest.raises(ValueError, match="outside"):
        evaluate_at_time(traj, np.array([0.0, 0.1]))


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
    assert np.max(np.abs(traj.snapshots[-1].values.mean(axis=1))) <= 1e-10
