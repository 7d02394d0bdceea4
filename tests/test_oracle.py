"""Reference solvers: closed-form modes, direct chain, enumerated step."""

import math
from itertools import permutations, product

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from qflow import checks, oracle
from qflow.grid import QGridFunction, build_domain, dirichlet_energy, l2_distance_sq
from qflow.morseflow import geometric_schedule, minimize_step
from qflow.oracle import (
    EigenMode,
    brute_force_step,
    exact_eigen_solution,
    implicit_euler_chain,
)
from reference import max_principle_check


def test_eigen_mode_basics():
    mode = EigenMode(1)
    assert mode.rate == pytest.approx((np.pi / 2.0) ** 2, rel=1e-15)
    # the discrete rate is a second order perturbation from below
    for res in (11, 21, 41):
        delta = 2.0 / (res - 1)
        lam = mode.discrete_rate(delta)
        assert lam < mode.rate
        assert mode.rate - lam == pytest.approx(
            mode.rate**2 * delta**2 / 12.0, rel=1e-2
        )
    with pytest.raises(ValueError):
        EigenMode(0)


def test_exact_solution_at_time_zero_is_the_profile():
    d = build_domain(1, 41)
    mode = EigenMode(1, amplitude=0.7)
    u = exact_eigen_solution(mode, 0.0, d)
    assert np.allclose(u, 0.7 * np.cos(np.pi * d.coords[:, 0] / 2.0), atol=1e-14)
    with pytest.raises(ValueError):
        exact_eigen_solution(mode, -1.0, d)
    with pytest.raises(ValueError):
        exact_eigen_solution(mode, 0.1, build_domain(2, 11))


def test_chain_with_no_steps_returns_the_input():
    d = build_domain(1, 11)
    u0 = np.linspace(0.0, 1.0, d.num_nodes)
    out = implicit_euler_chain(d, u0, [])
    assert out.shape == (1, d.num_nodes)
    assert np.array_equal(out[0], u0)
    assert not np.shares_memory(out, u0)


def test_chain_validates_arguments():
    d = build_domain(1, 11)
    u0 = np.zeros(d.num_nodes)
    with pytest.raises(ValueError):
        implicit_euler_chain(d, u0, [0.1, 0.0])
    with pytest.raises(ValueError):
        implicit_euler_chain(d, np.zeros(3), [0.1])
    with pytest.raises(ValueError):
        implicit_euler_chain(build_domain(2, 11), np.zeros(49), [0.1])


@pytest.mark.parametrize("index", [1, 2])
def test_chain_decays_discrete_modes_geometrically(index):
    """Sampled sine modes are exact eigenvectors of the second difference
    operator, so k implicit steps divide them by (1 + tau lambda)^k."""
    d = build_domain(1, 81)
    mode = EigenMode(index)
    u0 = mode.profile(d.coords[:, 0])
    tau, nsteps = 0.01, 20
    out = implicit_euler_chain(d, u0, [tau] * nsteps)
    lam = mode.discrete_rate(d.delta)
    k = np.arange(nsteps + 1)[:, None]
    expected = u0 / (1.0 + tau * lam) ** k
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_chain_steps_one_at_a_time_bit_for_bit():
    """Row k of one call over every tau is, bit for bit, the state reached
    by k single-step calls, each from the previous call's result, for
    uniform and geometric taus: the pivots built once per run of equal
    taus are those each step builds for itself."""
    rng = np.random.default_rng(29)
    d = build_domain(1, 201)
    u0 = rng.normal(0.0, 1.0, size=d.num_nodes)
    geometric = geometric_schedule(0.25, 19)
    for taus in ([0.25 / 64] * 64,
                 [geometric.tau(k) for k in range(1, 20)]):
        states = implicit_euler_chain(d, u0, taus)
        assert states.shape == (len(taus) + 1, d.num_nodes)
        assert np.array_equal(states[0], u0)
        u = u0
        for k, tau in enumerate(taus, start=1):
            u = implicit_euler_chain(d, u, [tau])[-1]
            assert np.array_equal(states[k], u), k


def chain_by_banded_solve(d, u0, taus):
    """The heat chain with every step solved by LAPACK's banded Cholesky
    solver, as a reference for the scalar recursion."""
    u = np.array(u0, dtype=float)
    for tau in taus:
        r = tau / d.delta**2
        ab = np.zeros((2, d.num_nodes - 2))
        ab[0, 1:] = -r
        ab[1, :] = 1.0 + 2.0 * r
        rhs = u[1:-1].copy()
        rhs[0] += r * u[0]
        rhs[-1] += r * u[-1]
        u[1:-1] = solveh_banded(ab, rhs)
    return u


@pytest.mark.parametrize("res", [5, 41, 201])
def test_chain_matches_a_banded_solve(res):
    """Over random data and step sizes from 1e-6 to 10, the Thomas
    recursion agrees with the banded reference to 1e-14, step by step."""
    rng = np.random.default_rng(res)
    d = build_domain(1, res)
    for _ in range(10):
        u = rng.normal(0.0, 1.0, size=d.num_nodes)
        for tau in 10.0 ** rng.uniform(-6.0, 1.0, size=4):
            got = implicit_euler_chain(d, u, [tau])[-1]
            want = chain_by_banded_solve(d, u, [tau])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            u = got


def test_chain_and_brute_force_solve_the_same_single_step():
    rng = np.random.default_rng(31)
    d = build_domain(1, 5)
    for _ in range(5):
        u0 = rng.normal(0.0, 1.0, size=d.num_nodes)
        tau = float(10.0 ** rng.uniform(-2.0, 0.0))
        f0 = QGridFunction(d, u0[:, None, None])
        mini, _ = brute_force_step(f0, tau)
        chain = implicit_euler_chain(d, u0, [tau])[-1]
        assert np.max(np.abs(mini.values[:, 0, 0] - chain)) <= 1e-12


def test_constant_data_is_a_fixed_point():
    d = build_domain(1, 7)
    f = QGridFunction(d, np.full((7, 2, 1), 0.3))
    mini, objective = brute_force_step(f, 0.5)
    assert np.max(np.abs(mini.values - f.values)) <= 1e-12
    assert abs(objective) <= 1e-12


def test_symmetric_two_branch_step_splits_the_hat():
    """One interior node holding {-1, 1} between zero boundary values: each
    branch solves its own scalar quadratic, landing at half height."""
    d = build_domain(1, 3)
    vals = np.zeros((3, 2, 1))
    vals[1, 0, 0], vals[1, 1, 0] = -1.0, 1.0
    f = QGridFunction(d, vals)
    mini, objective = brute_force_step(f, 0.5)
    assert mini.values[1, 0, 0] == pytest.approx(-0.5, abs=1e-12)
    assert mini.values[1, 1, 0] == pytest.approx(0.5, abs=1e-12)
    assert objective == pytest.approx(2.0, abs=1e-12)
    # the reported objective is recomputed from the minimizer
    assert objective == pytest.approx(
        dirichlet_energy(mini) + l2_distance_sq(mini, f) / 0.5, abs=1e-12
    )


def test_brute_force_rejects_large_instances_and_zero_tau():
    # 8 live edges and 7 interior nodes: 2**15 pairing configurations
    big = build_domain(1, 9)
    f_big = QGridFunction(big, np.zeros((big.num_nodes, 2, 1)))
    with pytest.raises(ValueError, match="32768 pairing configurations"):
        brute_force_step(f_big, 0.1)
    d = build_domain(1, 3)
    f = QGridFunction(d, np.zeros((3, 1, 1)))
    with pytest.raises(ValueError):
        brute_force_step(f, 0.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_brute_force_rejects_non_finite_tau(tau):
    d = build_domain(1, 3)
    f = QGridFunction(d, np.random.default_rng(7).normal(size=(3, 2, 1)))
    with pytest.raises(ValueError, match="finite"):
        brute_force_step(f, tau)


def frozen_quadratic_min_by_terms(f_prev, tau, edge_cfg, node_cfg, int_of):
    """Per-configuration reference for `brute_force_step`: the frozen
    quadratic assembled term by term, solved densely."""
    d = f_prev.domain
    qq = f_prev.q
    w_e = d.delta ** (d.m - 2)
    w_p = d.delta**d.m / tau
    nu = len(d.interior) * qq
    mat = np.zeros((nu, nu))
    lin = np.zeros(nu)
    const = 0.0
    vals = f_prev.values[:, :, 0]

    def unknown(node, branch):
        return int_of[node] * qq + branch

    def add_pair(w, ia, ib):
        mat[ia, ia] += w
        mat[ib, ib] += w
        mat[ia, ib] -= w
        mat[ib, ia] -= w

    def add_fixed(w, ia, c):
        nonlocal const
        mat[ia, ia] += w
        lin[ia] += w * c
        const += w * c * c

    for (a, b), sigma in edge_cfg:
        for i in range(qq):
            j = sigma[i]
            a_in = int_of[a] >= 0
            b_in = int_of[b] >= 0
            if a_in and b_in:
                add_pair(w_e, unknown(a, i), unknown(b, j))
            elif a_in:
                add_fixed(w_e, unknown(a, i), vals[b, j])
            elif b_in:
                add_fixed(w_e, unknown(b, j), vals[a, i])
            else:
                const += w_e * (vals[a, i] - vals[b, j]) ** 2
    for x, nu_x in node_cfg:
        for i in range(qq):
            add_fixed(w_p, unknown(x, i), vals[x, nu_x[i]])
    z = np.linalg.solve(mat, lin)
    return z, const - float(lin @ z)


def brute_force_by_loop(f_prev, tau):
    """One frozen quadratic per configuration, in `itertools.product`
    order; the first configuration wins ties."""
    d = f_prev.domain
    qq = f_prev.q
    interior = d.interior
    int_of = -np.ones(d.num_nodes, dtype=int)
    int_of[interior] = np.arange(len(interior))
    perms = list(permutations(range(qq)))
    live = [tuple(e) for e in d.edges if int_of[e[0]] >= 0 or int_of[e[1]] >= 0]
    fixed = [tuple(e) for e in d.edges if int_of[e[0]] < 0 and int_of[e[1]] < 0]
    best = None
    for config in product(*[perms] * (len(live) + len(interior))):
        edge_cfg = list(zip(live, config[:len(live)]))
        edge_cfg += [(e, perms[0]) for e in fixed]
        node_cfg = list(zip(interior, config[len(live):]))
        z, value = frozen_quadratic_min_by_terms(f_prev, tau, edge_cfg,
                                                 node_cfg, int_of)
        if best is None or value < best[0]:
            best = (value, z)
    vals = f_prev.values.copy()
    vals[interior, :, 0] = best[1].reshape(len(interior), qq)
    minimizer = QGridFunction(d, vals)
    return minimizer, (dirichlet_energy(minimizer)
                       + l2_distance_sq(minimizer, f_prev) / tau)


def assert_same_minimum(f_prev, tau, got=None):
    got = got or brute_force_step(f_prev, tau)
    want = brute_force_by_loop(f_prev, tau)
    assert np.array_equal(got[0].values, want[0].values)
    assert got[1] == want[1]


@pytest.mark.parametrize("seed", [5, 11])
def test_batched_step_matches_the_loop_on_check_instances(seed, monkeypatch):
    """`check_brute_force` solves its instances by one stacked call per
    domain; every instance it draws gets the minimizer and objective of a
    one-instance `brute_force_step` and of the loop, bit for bit."""
    calls, seen = [], []

    def recording(f_prevs, taus):
        results = brute_force_step(f_prevs, taus)
        calls.append(len(results))
        seen.extend(zip(f_prevs, taus, results))
        return results

    monkeypatch.setattr(checks, "brute_force_step", recording)
    assert checks.check_brute_force(np.random.default_rng(seed)).passed
    assert calls == [5, 15]
    for f_prev, tau, result in seen:
        alone = brute_force_step(f_prev, tau)
        assert alone[0].values.tobytes() == result[0].values.tobytes()
        assert alone[1] == result[1]
        assert_same_minimum(f_prev, tau, result)


@pytest.mark.parametrize("res, n, count", [(3, 1, 6), (5, 1, 6), (5, 2, 1)])
def test_stacked_step_has_the_bits_of_single_steps(res, n, count):
    """q = 2 instances stacked on one domain: each gets the bits of its
    one-instance call (six at resolution 5 split its 128 configurations
    into two blocks of solves)."""
    d = build_domain(1, res)
    rng = np.random.default_rng(10 * res + n)
    f_prevs = [QGridFunction(d, rng.normal(size=(d.num_nodes, 2, n)))
               for _ in range(count)]
    taus = [float(10.0 ** rng.uniform(-1.0, 0.0)) for _ in range(count)]
    stacked = brute_force_step(f_prevs, taus)
    assert len(stacked) == count
    for f_prev, tau, (got, got_obj) in zip(f_prevs, taus, stacked):
        want, want_obj = brute_force_step(f_prev, tau)
        assert got.values.tobytes() == want.values.tobytes()
        assert got_obj == want_obj


def test_stacked_step_rejects_mismatched_instances():
    d3, d5 = build_domain(1, 3), build_domain(1, 5)
    f3 = QGridFunction(d3, np.zeros((3, 2, 1)))
    f5 = QGridFunction(d5, np.zeros((5, 2, 1)))
    for f_prevs, taus in [([f3, f5], [0.1, 0.1]), ([f3, f3], [0.1]),
                          ([], []), ([f3, f3], [0.1, 0.0])]:
        with pytest.raises(ValueError):
            brute_force_step(f_prevs, taus)


def test_too_large_stacked_instance_raises_before_assembly(monkeypatch):
    def assembling(*args):
        raise AssertionError("assembled before the size check")

    monkeypatch.setattr(oracle, "permutations", assembling)
    d = build_domain(1, 9)
    f = QGridFunction(d, np.zeros((d.num_nodes, 3, 1)))
    with pytest.raises(ValueError, match="too large"):
        brute_force_step([f, f], [0.1, 0.2])


@pytest.mark.parametrize("res, q", [(7, 2), (3, 4)])
def test_batched_step_matches_the_loop_across_blocks(res, q):
    """q = 2 at resolution 7 (2048 configurations) and q = 4 at resolution
    3 (13 824) span several blocks; ties across blocks still go to the
    first configuration."""
    d = build_domain(1, res)
    assert math.factorial(q) ** (d.num_edges + len(d.interior)) \
        > 2 * oracle._CONFIG_BLOCK
    rng = np.random.default_rng(res + q)
    f_prev = QGridFunction(d, rng.normal(size=(d.num_nodes, q, 1)))
    assert_same_minimum(f_prev, 0.3)


def test_batched_step_matches_the_loop_with_ties_and_fixed_edges():
    """Symmetric data (many exactly tied configurations), a disk whose
    boundary-to-boundary edges add only constants, and a q = 2 disk whose
    one interior node sums four fixed ends into its right-hand side."""
    d = build_domain(1, 5)
    vals = np.zeros((5, 2, 1))
    vals[1:4, 0, 0], vals[1:4, 1, 0] = -1.0, 1.0
    assert_same_minimum(QGridFunction(d, vals), 0.5)
    disk = build_domain(2, 5)
    rng = np.random.default_rng(3)
    assert_same_minimum(
        QGridFunction(disk, rng.normal(size=(disk.num_nodes, 1, 1))), 0.2)
    # one interior node with four fixed neighbours, lanes crossing: 2**5
    small = build_domain(2, 3)
    assert_same_minimum(
        QGridFunction(small, rng.normal(size=(small.num_nodes, 2, 1))), 0.2)


@pytest.mark.parametrize("res, q", [(3, 3), (5, 2), (7, 2)])
def test_vector_step_with_a_zero_coordinate_is_the_scalar_step(res, q):
    """n = 2 data whose second coordinate is 0 decouple into the n = 1
    step and a zero column: the same minimizer and objective up to the
    rounding of a second right-hand side."""
    d = build_domain(1, res)
    rng = np.random.default_rng(res * q)
    for _ in range(4):
        scalar = rng.normal(size=(d.num_nodes, q, 1))
        tau = float(10.0 ** rng.uniform(-1.0, 0.0))
        want, want_obj = brute_force_step(QGridFunction(d, scalar), tau)
        got, got_obj = brute_force_step(
            QGridFunction(d, np.concatenate([scalar, 0.0 * scalar], axis=2)),
            tau)
        assert np.max(np.abs(got.values[:, :, 0] - want.values[:, :, 0])) \
            <= 1e-12
        assert np.all(got.values[:, :, 1] == 0.0)
        assert abs(got_obj - want_obj) <= 1e-12 * abs(want_obj)


def test_vector_step_is_a_global_minimum_below_the_solver():
    """On q = 2, n = 2 instances at resolution 5 the alternating solver
    reaches a local minimum only; the enumerated step is never above it."""
    d = build_domain(1, 5)
    rng = np.random.default_rng(17)
    for _ in range(10):
        f_prev = QGridFunction(d, rng.normal(size=(d.num_nodes, 2, 2)))
        tau = float(10.0 ** rng.uniform(-1.0, 0.0))
        f_loc, _ = minimize_step(f_prev, tau)
        local = dirichlet_energy(f_loc) + l2_distance_sq(f_loc, f_prev) / tau
        _, glob = brute_force_step(f_prev, tau)
        assert glob <= local + 1e-10


def test_max_principle_check_controls():
    d = build_domain(1, 5)

    def const(c):
        return QGridFunction(d, np.full((5, 1, 1), c))

    assert max_principle_check([const(1.0), const(0.5), const(0.5)])
    assert not max_principle_check([const(0.5), const(1.0)])
    with pytest.raises(ValueError):
        max_principle_check([])


def test_chain_converges_first_order_in_time():
    d = build_domain(1, 201)
    mode = EigenMode(1)
    u0 = mode.profile(d.coords[:, 0])
    exact = exact_eigen_solution(mode, 0.25, d)
    scale = np.linalg.norm(exact)
    errors = []
    for nsteps in (8, 16, 32):
        out = implicit_euler_chain(d, u0, [0.25 / nsteps] * nsteps)[-1]
        errors.append(np.linalg.norm(out - exact) / scale)
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 0.9
    assert errors[-1] < 1e-2


def test_chain_converges_second_order_in_space():
    mode = EigenMode(1)
    nsteps = 6400  # fine enough that the time error does not pollute the rung
    errors = []
    for res in (11, 21):
        d = build_domain(1, res)
        u0 = mode.profile(d.coords[:, 0])
        out = implicit_euler_chain(d, u0, [0.25 / nsteps] * nsteps)[-1]
        exact = exact_eigen_solution(mode, 0.25, d)
        errors.append(np.linalg.norm(out - exact) / np.linalg.norm(exact))
    assert np.log2(errors[0] / errors[1]) >= 1.9


def test_brute_force_bounds_configurations_not_unknowns():
    """q = 3 at resolution 5 has only 9 unknowns but 6**7 configurations.
    The largest admitted instances, q = 4 at resolution 3 (24**3) and q = 2
    at resolution 7 (2**11), are stepped by
    test_batched_step_matches_the_loop_across_blocks."""
    d = build_domain(1, 5)
    f = QGridFunction(d, np.zeros((d.num_nodes, 3, 1)))
    with pytest.raises(ValueError, match="279936 pairing configurations"):
        brute_force_step(f, 0.1)
