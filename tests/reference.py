"""Per-state references for the tests.

The library computes these quantities over stacks of states or not at
all; here each is taken for one state, or one pair of states, the plain
way, so that a test can hold a stacked result to the bits of the state by
state one.  None of them is part of the package.
"""

import numpy as np

from qflow.grid import QGridFunction, _check_same, _paired


def scalar_dirichlet_energy(domain, u) -> float:
    """Dirichlet energy of a single-valued field, u of shape (num_nodes,)
    or (num_nodes, n)."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    ends = (arr.take(domain.edges[:, i], axis=0)[:, None] for i in (0, 1))
    return domain.delta ** (domain.m - 2) * _paired(*ends)[1]


def neighbor_sums(domain, u) -> np.ndarray:
    """For each node j: sum over incident edges of (u_j - u_neighbor)."""
    ea, eb = domain.edges[:, 0], domain.edges[:, 1]
    diff = u.take(ea, axis=0) - u.take(eb, axis=0)
    nn = domain.num_nodes
    return np.bincount(ea, weights=diff, minlength=nn) - np.bincount(
        eb, weights=diff, minlength=nn
    )


def branch_mean_residual(f_prev, f_curr, tau: float) -> float:
    """Max-norm residual of the implicit step equation for the branch mean.

    At interior nodes the mean of a converged step satisfies
    (mean_k - mean_{k-1}) / tau = discrete Laplacian of mean_k in each of
    its n coordinates, whatever the branch pairings; the return value is
    the largest interior violation over all coordinates.  Equals the
    hat-function weak form divided by the node weight delta^m.
    """
    _check_same(f_prev, f_curr)
    if tau <= 0:
        raise ValueError("tau must be positive")
    d = f_prev.domain
    mp, mc = f_prev.values.mean(axis=1), f_curr.values.mean(axis=1)
    lap = np.column_stack([neighbor_sums(d, c) for c in mc.T]) / d.delta**2
    res = (mc - mp)[d.interior] / tau + lap[d.interior]
    return float(np.max(np.abs(res), initial=0.0))


def translate_field(f, phi):
    """Shift every branch at node x by the single-valued field phi(x)."""
    arr = np.asarray(phi, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape != (f.domain.num_nodes, f.n):
        raise ValueError("phi must have shape (num_nodes, n)")
    return QGridFunction(f.domain, f.values + arr[:, None, :])


def max_principle_check(snapshots) -> bool:
    """True iff the largest node norm never increases along the sequence
    (within 1e-12)."""
    norms = [float(np.sqrt((f.values**2).sum(axis=(1, 2))).max())
             for f in snapshots]
    if not norms:
        raise ValueError("empty snapshot sequence")
    return not any(curr > prev + 1e-12 for prev, curr in zip(norms, norms[1:]))
