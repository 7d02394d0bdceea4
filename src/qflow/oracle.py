"""Independent reference solutions for checking the flow solver.

Nothing here shares linear algebra with the block factor of `morseflow`:
the heat chain below is a scalar tridiagonal LDL^T (Thomas) recursion over
Python floats, the step oracle enumerates every branch pairing, writes each
configuration's frozen quadratic as a least-squares residual over a signed
lane incidence and solves its normal equations, a fixed-size block of
configurations per batched dense solve, and the eigenmode solutions are
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, permutations

import numpy as np

from .grid import GridDomain, QGridFunction, dirichlet_energy, l2_distance_sq

__all__ = [
    "EigenMode",
    "exact_eigen_solution",
    "implicit_euler_chain",
    "brute_force_step",
]

BRUTE_FORCE_MAX_CONFIGS = 2**14


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
    """Backward Euler heat steps with frozen boundary values, returning
    every state in one array filled as it steps: row 0 is u0, row k the
    state after step k.  Step tau solves (1 + 2r) u_i - r (u_i-1 + u_i+1)
    = u_prev_i at the interior nodes, r = tau / delta^2, by a scalar
    LDL^T (Thomas) recursion over Python floats: pivots d_i, multipliers
    l_i = r / d_i (built once per run of equal taus), a forward and a back
    substitution."""
    if domain.m != 1:
        raise ValueError("the direct chain is implemented for m = 1")
    u = np.asarray(u0, dtype=float)
    if u.shape != (domain.num_nodes,):
        raise ValueError("u0 must be a scalar field on the domain nodes")
    taus = [float(t) for t in taus]
    if any(t <= 0 for t in taus):
        raise ValueError("step sizes must be positive")
    d2 = domain.delta**2
    vals = u.tolist()
    states = np.empty((len(taus) + 1, u.size))
    states[0], k = u, 0
    for tau, run in groupby(taus):
        r = tau / d2
        a = 1.0 + 2.0 * r
        piv, mult = [a], [r / a]
        for _ in range(len(vals) - 3):
            piv.append(a - r * mult[-1])
            mult.append(r / piv[-1])
        for _ in run:
            z = vals[1:-1]
            z[0] += r * vals[0]
            z[-1] += r * vals[-1]
            for i in range(1, len(z)):
                z[i] += mult[i - 1] * z[i - 1]
            z[-1] /= piv[-1]
            for i in range(len(z) - 2, -1, -1):
                z[i] = z[i] / piv[i] + mult[i] * z[i + 1]
            vals[1:-1] = z
            k += 1
            states[k] = vals
    return states


# matrices per batched dense solve; bounds a batch's incidence at
# (block, live lanes, nu + 1)
_CONFIG_BLOCK = 512


def brute_force_step(f_prev, tau):
    """Global minimizer of the implicit step objective on tiny grids.

    Enumerates every branch pairing on edges and nodes, solves each frozen
    convex quadratic exactly, and keeps the overall minimum (first
    configuration wins ties).  Returns (minimizer, objective value).
    f_prev and tau may also be equal-length sequences of grid functions on
    one domain, of one value shape, and their step sizes; a list of
    (minimizer, objective value) pairs comes back, each with the bits of
    its instance solved alone.

    A configuration is one permutation per live edge (an edge with an
    interior end), then one per interior node, in `itertools.product`
    order.  Its frozen quadratic is w_e |D z - c|^2 + w_p |z - p|^2 over
    the interior lanes z.  The signed lane incidence D has one row per lane
    i of a live edge (a, b): +1 at a's lane i, -1 at b's lane sigma[i]; a
    fixed end points at a spare column, dropped, and its value moves into
    c.  Node x with pairing nu draws p[x, i] = f_prev[x, nu[i]].  An edge
    with two fixed ends adds the same constant to every configuration and
    is left out.  The minimizer solves the normal equations
    (w_e D^T D + w_p I) z = w_e D^T c + w_p p, one right-hand side per value
    coordinate, so every n is handled alike.  The configurations are
    enumerated in blocks, and D and D^T D are built once per block for
    every instance; each block is solved by one batched dense solve of at
    most _CONFIG_BLOCK matrices, or one per instance when there are more
    instances.  An instance of more than BRUTE_FORCE_MAX_CONFIGS
    configurations raises ValueError before anything is assembled.
    """
    single = isinstance(f_prev, QGridFunction)
    f_prevs, taus = ([f_prev], [tau]) if single else (list(f_prev), list(tau))
    if not f_prevs or len(f_prevs) != len(taus):
        raise ValueError("need equal, nonzero numbers of grid functions and taus")
    if not all(0 < t < math.inf for t in taus):
        raise ValueError("tau must be positive and finite")
    d = f_prevs[0].domain
    shape = f_prevs[0].values.shape
    if not all(f.domain.same_as(d) and f.values.shape == shape for f in f_prevs):
        raise ValueError("grid functions must share one domain and value shape")
    _, qq, nn = shape
    interior = d.interior
    int_of = -np.ones(d.num_nodes, dtype=int)
    int_of[interior] = np.arange(len(interior))
    live = (int_of[d.edges] >= 0).any(axis=1)
    slots = int(live.sum()) + len(interior)
    count = math.factorial(qq) ** slots
    if count > BRUTE_FORCE_MAX_CONFIGS:
        raise ValueError(
            f"instance too large: {count} pairing configurations exceeds "
            f"{BRUTE_FORCE_MAX_CONFIGS}"
        )
    nu = len(interior) * qq
    w_e = d.delta ** (d.m - 2)
    batch = len(f_prevs)
    # one w_p per instance, shaped (instance, 1, 1, 1) against a block's axes
    w_p = (d.delta**d.m / np.array(taus, dtype=float))[:, None, None, None]
    vals = np.stack([f.values for f in f_prevs])
    perms = np.array(list(permutations(range(qq))))

    ea, eb = d.edges[live].T
    rows = np.arange(len(ea) * qq)
    # a fixed end's lane points at the spare column nu, dropped after
    a_fixed, b_fixed = int_of[ea, None] < 0, int_of[eb, None] < 0
    col_a = np.where(a_fixed, nu, int_of[ea, None] * qq + np.arange(qq)).ravel()
    c_a = np.where(a_fixed[..., None], vals[:, ea], 0.0)[:, None]

    digits = len(perms) ** np.arange(slots - 1, -1, -1)
    block = max(1, _CONFIG_BLOCK // batch)
    best_value, best_z = np.full(batch, math.inf), np.empty((batch, nu, nn))
    for start in range(0, count, block):
        cfg = np.arange(start, min(start + block, count))
        sigma = perms[cfg[:, None] // digits % len(perms)]
        edge_sigma, node_nu = sigma[:, :len(ea)], sigma[:, len(ea):]
        size = len(cfg)
        col_b = np.where(b_fixed, nu, int_of[eb, None] * qq + edge_sigma)
        dmat = np.zeros((size, len(rows), nu + 1))
        dmat[:, rows, col_a] = 1.0
        dmat[np.arange(size)[:, None], rows, col_b.reshape(size, -1)] = -1.0
        dmat = dmat[:, :, :nu]
        # (instance, configuration, ...) from here on
        c = (np.where(b_fixed[..., None], vals[:, eb[:, None], edge_sigma], 0.0)
             - c_a).reshape(batch, size, -1, nn)
        p = vals[:, interior[:, None], node_nu].reshape(batch, size, nu, nn)

        dt = dmat.transpose(0, 2, 1)
        z = np.linalg.solve(w_e * (dt @ dmat) + w_p * np.eye(nu),
                            w_e * (dt @ c) + w_p * p)
        value = (w_e * ((dmat @ z - c) ** 2).sum(axis=(2, 3))
                 + w_p[:, :, 0, 0] * ((z - p) ** 2).sum(axis=(2, 3)))
        pick = np.arange(batch), value.argmin(axis=1)
        better = value[pick] < best_value
        best_value[better], best_z[better] = value[pick][better], z[pick][better]

    results = []
    for f, t, z in zip(f_prevs, taus, best_z):
        v = f.values.copy()
        v[interior] = z.reshape(len(interior), qq, nn)
        minimizer = QGridFunction(d, v)
        results.append((minimizer, dirichlet_energy(minimizer)
                        + l2_distance_sq(minimizer, f) / t))
    return results[0] if single else results
