"""Independent reference solutions for checking the flow solver.

Nothing here shares linear algebra with the direct sparse (SuperLU) path
in `morseflow`: the heat chain below uses a LAPACK banded factorization, the
step oracle enumerates every branch pairing and solves each frozen quadratic
densely, and the eigenmode solutions are closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np
from scipy.linalg import solveh_banded

from .grid import GridDomain, QGridFunction, dirichlet_energy, l2_distance_sq

__all__ = [
    "EigenMode",
    "exact_eigen_solution",
    "implicit_euler_chain",
    "brute_force_step",
    "max_principle_check",
]

BRUTE_FORCE_MAX_UNKNOWNS = 12


@dataclass(frozen=True)
class EigenMode:
    """Dirichlet eigenmode of the interval (-1, 1)."""

    index: int = 1
    amplitude: float = 1.0

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("eigen index must be at least 1")

    @property
    def rate(self) -> float:
        """Continuum decay rate (index * pi / 2)^2."""
        return (self.index * np.pi / 2.0) ** 2

    def discrete_rate(self, delta: float) -> float:
        """Decay rate of the same mode under the second-difference operator."""
        return (2.0 / delta**2) * (1.0 - np.cos(self.index * np.pi * delta / 2.0))

    def profile(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(self.index * np.pi * (np.asarray(x) + 1.0) / 2.0)


def exact_eigen_solution(mode: EigenMode, t: float, domain: GridDomain) -> np.ndarray:
    """Heat solution amplitude * exp(-rate t) * profile sampled on the grid."""
    if domain.m != 1:
        raise ValueError("eigenmode solutions are defined on the interval")
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = domain.coords[:, 0]
    return np.exp(-mode.rate * t) * mode.profile(x)


def implicit_euler_chain(domain: GridDomain, u0: np.ndarray, taus) -> np.ndarray:
    """Backward Euler heat steps with frozen boundary values, solved by a
    direct banded factorization at every step."""
    if domain.m != 1:
        raise ValueError("the direct chain is implemented for m = 1")
    u = np.asarray(u0, dtype=float).copy()
    if u.shape != (domain.num_nodes,):
        raise ValueError("u0 must be a scalar field on the domain nodes")
    taus = [float(t) for t in taus]
    if any(t <= 0 for t in taus):
        raise ValueError("step sizes must be positive")
    mm = domain.num_nodes - 2
    d2 = domain.delta**2
    for tau in taus:
        r = tau / d2
        ab = np.zeros((2, mm))
        ab[0, 1:] = -r
        ab[1, :] = 1.0 + 2.0 * r
        rhs = u[1:-1].copy()
        rhs[0] += r * u[0]
        rhs[-1] += r * u[-1]
        u[1:-1] = solveh_banded(ab, rhs)
    return u


def _frozen_quadratic_min(f_prev, tau, edge_cfg, node_cfg, interior, int_of):
    """Minimize the step objective with all pairings frozen.  Returns the
    interior branch values and the attained value."""
    d = f_prev.domain
    qq = f_prev.q
    w_e = d.delta ** (d.m - 2)
    w_p = d.delta**d.m / tau
    nu = len(interior) * qq
    mat = np.zeros((nu, nu))
    lin = np.zeros(nu)
    const = 0.0
    vals = f_prev.values[:, :, 0]

    def unknown(node, branch):
        return int_of[node] * qq + branch

    # quadratic w x^2 - 2 w c x + w c^2 pieces, accumulated term by term
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
                # both ends fixed; identity pairing is optimal for sorted
                # scalar tuples, so this is the true edge cost
                const += w_e * (vals[a, i] - vals[b, j]) ** 2
    for x, nu_x in node_cfg:
        for i in range(qq):
            add_fixed(w_p, unknown(x, i), vals[x, nu_x[i]])

    z = np.linalg.solve(mat, lin)
    value = const - float(lin @ z)
    return z, value


def brute_force_step(f_prev: QGridFunction, tau: float):
    """Global minimizer of the implicit step objective on tiny grids.

    Enumerates every branch pairing on edges and nodes, solves each frozen
    convex quadratic exactly, and keeps the overall minimum (first
    configuration wins ties).  Returns (minimizer, objective value).
    """
    if f_prev.n != 1:
        raise ValueError("brute force step supports n = 1 only")
    if tau <= 0:
        raise ValueError("tau must be positive")
    d = f_prev.domain
    qq = f_prev.q
    interior = d.interior
    if len(interior) * qq > BRUTE_FORCE_MAX_UNKNOWNS:
        raise ValueError(
            f"instance too large: {len(interior) * qq} unknowns exceeds "
            f"{BRUTE_FORCE_MAX_UNKNOWNS}"
        )
    int_of = -np.ones(d.num_nodes, dtype=int)
    int_of[interior] = np.arange(len(interior))

    perms = list(permutations(range(qq)))
    live_edges = [tuple(e) for e in d.edges if int_of[e[0]] >= 0 or int_of[e[1]] >= 0]
    fixed_edges = [tuple(e) for e in d.edges if int_of[e[0]] < 0 and int_of[e[1]] < 0]

    best = None
    choice_lists = [perms] * len(live_edges) + [perms] * len(interior)
    for config in product(*choice_lists):
        edge_cfg = list(zip(live_edges, config[: len(live_edges)]))
        edge_cfg += [(e, perms[0]) for e in fixed_edges]
        node_cfg = list(zip(interior, config[len(live_edges):]))
        z, value = _frozen_quadratic_min(f_prev, tau, edge_cfg, node_cfg, interior, int_of)
        if best is None or value < best[0]:
            best = (value, z)

    vals = f_prev.values.copy()
    vals[interior, :, 0] = best[1].reshape(len(interior), qq)
    minimizer = QGridFunction(d, vals)
    objective = dirichlet_energy(minimizer) + l2_distance_sq(minimizer, f_prev) / tau
    return minimizer, objective


def max_principle_check(snapshots) -> bool:
    """True iff the largest node norm never increases along the sequence
    (within 1e-12)."""
    norms = [float(np.sqrt((f.values**2).sum(axis=(1, 2))).max())
             for f in snapshots]
    if not norms:
        raise ValueError("empty snapshot sequence")
    return not any(curr > prev + 1e-12 for prev, curr in zip(norms, norms[1:]))
