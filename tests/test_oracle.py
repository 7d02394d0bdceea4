"""Reference solvers: closed-form modes, direct chain, enumerated step."""

import numpy as np
import pytest

from qflow.grid import build_domain, dirichlet_energy, l2_distance_sq, make_grid_function
from qflow.oracle import (
    EigenMode,
    brute_force_step,
    exact_eigen_solution,
    implicit_euler_chain,
    max_principle_check,
)


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
    assert np.array_equal(out, u0)
    assert out is not u0


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
    operator, so N implicit steps divide them by (1 + tau lambda)^N."""
    d = build_domain(1, 81)
    mode = EigenMode(index)
    u0 = mode.profile(d.coords[:, 0])
    tau, nsteps = 0.01, 20
    out = implicit_euler_chain(d, u0, [tau] * nsteps)
    lam = mode.discrete_rate(d.delta)
    expected = u0 / (1.0 + tau * lam) ** nsteps
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_chain_steps_one_at_a_time_bit_for_bit():
    """Each step reads only the previous state, so chaining single steps
    reproduces one call over all of them exactly."""
    rng = np.random.default_rng(29)
    d = build_domain(1, 41)
    u0 = rng.normal(0.0, 1.0, size=d.num_nodes)
    u = u0
    for k in range(1, 9):
        u = implicit_euler_chain(d, u, [0.03])
        assert np.array_equal(u, implicit_euler_chain(d, u0, [0.03] * k))


def test_chain_and_brute_force_solve_the_same_single_step():
    rng = np.random.default_rng(31)
    d = build_domain(1, 5)
    for _ in range(5):
        u0 = rng.normal(0.0, 1.0, size=d.num_nodes)
        tau = float(10.0 ** rng.uniform(-2.0, 0.0))
        f0 = make_grid_function(d, u0[:, None, None])
        mini, _ = brute_force_step(f0, tau)
        chain = implicit_euler_chain(d, u0, [tau])
        assert np.max(np.abs(mini.values[:, 0, 0] - chain)) <= 1e-12


def test_constant_data_is_a_fixed_point():
    d = build_domain(1, 7)
    f = make_grid_function(d, np.full((7, 2, 1), 0.3))
    mini, objective = brute_force_step(f, 0.5)
    assert np.max(np.abs(mini.values - f.values)) <= 1e-12
    assert abs(objective) <= 1e-12


def test_symmetric_two_branch_step_splits_the_hat():
    """One interior node holding {-1, 1} between zero boundary values: each
    branch solves its own scalar quadratic, landing at half height."""
    d = build_domain(1, 3)
    vals = np.zeros((3, 2, 1))
    vals[1, 0, 0], vals[1, 1, 0] = -1.0, 1.0
    f = make_grid_function(d, vals)
    mini, objective = brute_force_step(f, 0.5)
    assert mini.values[1, 0, 0] == pytest.approx(-0.5, abs=1e-12)
    assert mini.values[1, 1, 0] == pytest.approx(0.5, abs=1e-12)
    assert objective == pytest.approx(2.0, abs=1e-12)
    # the reported objective is recomputed from the minimizer
    assert objective == pytest.approx(
        dirichlet_energy(mini) + l2_distance_sq(mini, f) / 0.5, abs=1e-12
    )


def test_brute_force_rejects_large_or_vector_instances():
    big = build_domain(1, 9)  # 7 interior nodes, q=2 gives 14 unknowns
    f_big = make_grid_function(big, np.zeros((big.num_nodes, 2, 1)))
    with pytest.raises(ValueError):
        brute_force_step(f_big, 0.1)
    d = build_domain(1, 3)
    f_vec = make_grid_function(d, np.zeros((3, 1, 2)))
    with pytest.raises(ValueError):
        brute_force_step(f_vec, 0.1)
    f = make_grid_function(d, np.zeros((3, 1, 1)))
    with pytest.raises(ValueError):
        brute_force_step(f, 0.0)


def test_max_principle_check_controls():
    d = build_domain(1, 5)

    def const(c):
        return make_grid_function(d, np.full((5, 1, 1), c))

    assert max_principle_check([const(1.0), const(0.5), const(0.5)])
    assert not max_principle_check([const(0.5), const(1.0)])
    with pytest.raises(ValueError):
        max_principle_check([])

    # positive upper branch monitoring
    vals = np.zeros((5, 2, 1))
    vals[:, 1, 0] = 0.5
    pos = make_grid_function(d, vals)
    flat = make_grid_function(d, np.zeros((5, 2, 1)))
    assert max_principle_check([pos, pos], positive_upper=True, positive_floor=0.1)
    assert not max_principle_check([pos, flat], positive_upper=True, positive_floor=0.1)


def test_chain_converges_first_order_in_time():
    d = build_domain(1, 201)
    mode = EigenMode(1)
    u0 = mode.profile(d.coords[:, 0])
    exact = exact_eigen_solution(mode, 0.25, d)
    scale = np.linalg.norm(exact)
    errors = []
    for nsteps in (8, 16, 32):
        out = implicit_euler_chain(d, u0, [0.25 / nsteps] * nsteps)
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
        out = implicit_euler_chain(d, u0, [0.25 / nsteps] * nsteps)
        exact = exact_eigen_solution(mode, 0.25, d)
        errors.append(np.linalg.norm(out - exact) / np.linalg.norm(exact))
    assert np.log2(errors[0] / errors[1]) >= 1.9
