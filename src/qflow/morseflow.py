"""Implicit time stepping for grid functions with multiset values.

Each step minimizes  dirichlet_energy(g) + l2_distance_sq(g, f_prev) / tau
over grid functions that agree with f_prev on the boundary.  The solver
alternates between recomputing optimal branch pairings and a direct sparse
(LU) solve of the resulting convex quadratic, one block solve over every
value column per sweep, and stops when the pairings no longer change or a
sweep no longer lowers the objective; the matchings that score a sweep
are the pairings of the next one.  For n = 1 the canonical (sorted)
storage makes every pairing the identity, so no matching is computed and
a single sweep is exact.  Two step size schedules are provided: a
geometric one where step k uses tau = h / 2^k, and a uniform one with
tau = T / N.

The interpolated trajectory crosses from state k-1 to state k over the
window `StepSchedule.window(k)`: all of step k's wall time for the uniform
schedule, its terminal tau_k for the geometric one, which holds each state
on a plateau before it.  Across a window each node's branches move linearly
along an optimal pairing, a constant-speed geodesic of the matching metric,
for every value dimension n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import splu

from .grid import (
    GridDomain,
    QGridFunction,
    _paired,
    branch_mean_residual,
    dirichlet_energy,
    l2_distance_sq,
)
from .qspace import match_rows

__all__ = [
    "StepSchedule",
    "StepReport",
    "FlowTrajectory",
    "geometric_schedule",
    "uniform_schedule",
    "minimize_step",
    "run_flow",
    "evaluate_at_time",
    "holder_margin",
]


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes for N implicit steps over the horizon [0, total]."""

    mode: str
    h: float
    steps: int
    total: float

    def __post_init__(self):
        if self.mode not in ("geometric", "uniform"):
            raise ValueError("mode must be 'geometric' or 'uniform'")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if not (0 < self.h < math.inf and 0 < self.total < math.inf):
            raise ValueError("step sizes must be positive and finite")

    def tau(self, k: int) -> float:
        """Step size of step k, 1 <= k <= steps."""
        if not 1 <= k <= self.steps:
            raise ValueError(f"step index {k} outside 1..{self.steps}")
        if self.mode == "geometric":
            return self.h * 0.5**k
        return self.h

    def window(self, k: int) -> tuple:
        """Wall-time window (start, end) over which the interpolated
        trajectory crosses from state k - 1 to state k: the whole step
        ((k-1) h, k h) for the uniform schedule, its terminal tau_k for the
        geometric one."""
        tau = self.tau(k)
        end = k * self.h
        if self.mode == "geometric":
            return end - tau, end
        return (k - 1) * self.h, end


def geometric_schedule(h: float, steps: int) -> StepSchedule:
    """Halving steps tau_k = h / 2^k; the wall horizon is steps * h."""
    return StepSchedule("geometric", float(h), int(steps), float(h) * int(steps))


def uniform_schedule(total_time: float, steps: int) -> StepSchedule:
    """Constant steps tau = total_time / steps."""
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return StepSchedule("uniform", float(total_time) / steps, steps, float(total_time))


# pairing sweeps a step may take before it is flagged as not converged
_MAX_OUTER = 100


@dataclass(frozen=True)
class StepReport:
    k: int
    tau: float
    energy_before: float
    energy_after: float
    penalty: float
    outer_iterations: int
    converged: bool
    objective_trace: tuple
    stationarity: float


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Snapshots of a run with the per-step quantities the paper's bounds
    are stated in.  Each quantity is computed from the snapshots, not taken
    from the solver's reports, once per trajectory on first use."""

    schedule: StepSchedule
    snapshots: tuple
    reports: tuple

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.reports) and len(
            self.reports
        ) == self.schedule.steps

    @property
    def completed_steps(self) -> int:
        return len(self.snapshots) - 1

    @functools.cached_property
    def energies(self) -> tuple:
        """Dirichlet energy of every snapshot."""
        return tuple(dirichlet_energy(f) for f in self.snapshots)

    @functools.cached_property
    def penalties(self) -> tuple:
        """Movement penalty of step k, at index k - 1."""
        snaps = self.snapshots
        return tuple(l2_distance_sq(a, b) for a, b in zip(snaps, snaps[1:]))

    @functools.cached_property
    def estimate_margins(self) -> tuple:
        """Slack in the step estimate penalty <= tau * (energy drop)."""
        e = self.energies
        return tuple(self.schedule.tau(k) * (e[k - 1] - e[k]) - p
                     for k, p in enumerate(self.penalties, start=1))

    @functools.cached_property
    def eta_residuals(self) -> tuple:
        """Residual of the branch-mean step equation of every step."""
        snaps, tau = self.snapshots, self.schedule.tau
        return tuple(branch_mean_residual(snaps[k - 1], snaps[k], tau(k))
                     for k in range(1, len(snaps)))

    @functools.cached_property
    def max_norms(self) -> tuple:
        """Largest node norm of every snapshot."""
        return tuple(float(np.sqrt((f.values**2).sum(axis=(1, 2)).max()))
                     for f in self.snapshots)

    @functools.cached_property
    def horizon(self) -> float:
        """Wall time covered by the completed steps."""
        sched = self.schedule
        if self.completed_steps == sched.steps:
            return sched.total
        return self.completed_steps * sched.h

    @property
    def effective_time(self) -> float:
        """Sum of the step sizes actually taken."""
        return math.fsum(r.tau for r in self.reports)


class _ChainState:
    """Chain state of a run: the frozen-pairing system of one (domain, tau,
    edge pairings) with its LU factor and the boundary term of its
    right-hand side, which a new key replaces, so one run holds one factor;
    and the last accepted state with its edge pairing and energy, which the
    next step starts from.  One chain holds one boundary: every state it
    steps from has the same boundary rows, bit for bit, so the boundary
    term is computed once per factorization."""

    def __init__(self):
        self.domain = None
        self.key = None
        self.system = None
        self.state = None
        self.edge_sigma = None
        self.energy = None

    def get(self, domain: GridDomain, key, build):
        if self.domain is not domain or self.key != key:
            self.system = build()
            self.domain, self.key = domain, key
        return self.system


def _compressed(fmt, data, major, minor, shape):
    """CSC (major = column) or CSR (major = row) matrix from entries
    sorted by (major, minor) index."""
    count = shape[1] if fmt is csc_matrix else shape[0]
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(major, minlength=count), out=indptr[1:])
    return fmt((data, minor, indptr), shape=shape)


def _frozen_system(domain: GridDomain, tau: float, sigma):
    """Normal equations of the frozen-pairing quadratic.

    The unknowns are node lanes, lane i of node x at index x * w + i with
    w = sigma.shape[1]; edge e joins lane i of its first node with lane
    sigma[e, i] of its second.  Returns the SPD matrix over the interior
    lanes (CSC) and the coupling (CSR) that carries fixed boundary lanes
    into the right-hand side.  Both are assembled straight from COO index
    arrays: the matrix has w_e * degree + w_p on the diagonal and -w_e for
    each pair of joined interior lanes, the coupling w_e for each interior
    lane joined to a boundary lane.  Each row of the coupling lists its
    boundary columns in descending order, so `couple @ x` adds them in
    that order.
    """
    width = sigma.shape[1]
    lanes = np.arange(width)
    ua = (domain.edges[:, :1] * width + lanes).ravel()
    ub = (domain.edges[:, 1:] * width + sigma).ravel()
    inner = (domain.interior[:, None] * width + lanes).ravel()
    # row of each lane among the interior lanes, -1 for a boundary lane
    row_of = np.full(domain.num_nodes * width, -1, dtype=np.int64)
    row_of[inner] = np.arange(inner.size)
    # every joined pair in both directions, from an interior lane
    src, dst = np.concatenate([ua, ub]), np.concatenate([ub, ua])
    rows = row_of[src]
    rows, dst = rows[rows >= 0], dst[rows >= 0]
    cols = row_of[dst]
    w_e = domain.delta ** (domain.m - 2)
    w_p = domain.delta**domain.m / tau
    degree = np.bincount(rows, minlength=inner.size).astype(float)

    coupled = cols >= 0
    diag = np.arange(inner.size)
    m_rows = np.concatenate([diag, rows[coupled]])
    m_cols = np.concatenate([diag, cols[coupled]])
    m_data = np.concatenate([w_e * degree + w_p,
                             np.full(coupled.sum(), -w_e)])
    order = np.argsort(m_cols * inner.size + m_rows)
    matrix = _compressed(csc_matrix, m_data[order], m_cols[order],
                         m_rows[order], (inner.size, inner.size))

    c_rows, c_cols = rows[~coupled], dst[~coupled]
    order = np.argsort(c_rows * row_of.size - c_cols)
    couple = _compressed(csr_matrix, np.full(c_rows.size, w_e), c_rows[order],
                         c_cols[order], (inner.size, row_of.size))
    return matrix, couple


def _solve_frozen(prev_vals, domain: GridDomain, tau: float,
                  edge_sigma, node_nu, cache: _ChainState):
    """Minimizer of the step objective with every branch pairing frozen.

    Across edge (a, b), branch i at a meets branch edge_sigma[e, i] at b;
    interior node interior[j] compares its branch i with branch
    node_nu[j, i] of f_prev; None, and only None, stands for the identity
    pairing on every row.  The objective is then a convex quadratic in the
    interior branch values, solved directly by sparse LU.  The matrix
    depends on tau and the edge pairings only.  For the identity edge
    pairing it is q copies of one scalar block over the interior nodes and
    the right-hand side has one column per (branch, coordinate); otherwise
    the columns are the n coordinates of every branch lane.
    Either way all columns go through one block solve, in which a negated
    column is solved with the same arithmetic, so +/- data (q = 2) stay
    exactly symmetric.  Returns the new node values and the largest
    residual of the block system.
    """
    qq, nn = prev_vals.shape[1:]
    if edge_sigma is None:
        sigma, key = np.zeros((domain.num_edges, 1), dtype=np.int64), (tau, None)
        shape = (-1, qq * nn)
    else:
        sigma, key = edge_sigma, (tau, edge_sigma.tobytes())
        shape = (-1, nn)

    def build():
        matrix, couple = _frozen_system(domain, tau, sigma)
        return matrix, splu(matrix), couple @ prev_vals.reshape(shape)

    matrix, lu, boundary_rhs = cache.get(domain, key, build)
    w_p = domain.delta**domain.m / tau
    if node_nu is None:
        matched = prev_vals[domain.interior]
    else:
        matched = prev_vals[domain.interior[:, None], node_nu]
    rhs = w_p * matched.reshape(shape) + boundary_rhs
    sol = lu.solve(rhs)
    vals = prev_vals.copy()
    vals[domain.interior] = sol.reshape(matched.shape)
    return vals, float(np.max(np.abs(matrix @ sol - rhs)))


def minimize_step(f_prev: QGridFunction, tau: float, step_index: int = 0,
                  *, _factor: _ChainState | None = None):
    """One implicit step from f_prev.

    Alternates frozen-pairing solves with pairing updates until the
    pairings of the new iterate are the ones it was solved with, or a sweep
    no longer lowers the objective (its floating point floor); a step still
    moving after _MAX_OUTER sweeps is flagged as not converged.  A sweep's
    iterate is matched once across the edges and once against f_prev at the
    nodes, which gives its objective and the next sweep's pairings; the
    first sweep uses f_prev's edge pairing and the identity at the nodes.
    For n = 1 every pairing is the identity (None), so the first accepted
    sweep ends the step.  Returns (f_next, report) with the boundary of f_prev preserved and
    objective value never above the starting one, so the Dirichlet energy
    cannot increase across the step.
    `_factor` lets a chain of steps share one factorization and hand each
    step the edge pairing and energy of its starting state.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    domain = f_prev.domain
    ea, eb = domain.edges[:, 0], domain.edges[:, 1]
    w_e, w_p = domain.delta ** (domain.m - 2), domain.delta**domain.m
    prev_vals = f_prev.values
    cache = _factor if _factor is not None else _ChainState()
    if cache.state is f_prev:
        edge_sigma, energy_before = cache.edge_sigma, cache.energy
    else:
        edge_sigma, e = _paired(prev_vals[ea], prev_vals[eb])
        energy_before = w_e * e

    if energy_before == 0.0:
        # constant data is a fixed point of every step
        report = StepReport(step_index, tau, 0.0, 0.0, 0.0, 0, True, (0.0,), 0.0)
        cache.state, cache.edge_sigma, cache.energy = f_prev, edge_sigma, 0.0
        return f_prev, report

    pairings = (edge_sigma, None)
    trace = [energy_before]  # objective at f_prev: penalty vanishes
    current, energy_after, penalty = f_prev, energy_before, 0.0
    converged = True
    for outer in range(1, _MAX_OUTER + 1):
        vals, stationarity = _solve_frozen(prev_vals, domain, tau, *pairings, cache)
        candidate = QGridFunction(domain, vals)
        c = candidate.values
        edge_sigma, e = _paired(c[ea], c[eb])
        node_sigma, d = _paired(c, prev_vals)
        energy, dist = w_e * e, w_p * d
        value = energy + dist / tau
        if value >= trace[-1]:
            # floating point floor reached; keep the last accepted iterate
            break
        current, energy_after, penalty = candidate, energy, dist
        trace.append(value)
        solved_with = pairings
        nu = None if node_sigma is None else node_sigma[domain.interior]
        pairings = (edge_sigma, nu)
        if all(p is s or np.array_equal(p, s) for p, s in zip(pairings, solved_with)):
            break
    else:
        converged = False

    cache.state, cache.edge_sigma, cache.energy = current, pairings[0], energy_after
    report = StepReport(
        step_index,
        tau,
        energy_before,
        energy_after,
        penalty,
        outer,
        converged,
        tuple(trace),
        stationarity / domain.delta**domain.m,
    )
    return current, report


def run_flow(f0: QGridFunction, schedule: StepSchedule) -> FlowTrajectory:
    """Run the full chain of implicit steps.  A step that fails to converge
    truncates the trajectory; its best iterate is kept and flagged."""
    chain = _ChainState()
    snapshots = [f0]
    reports = []
    current = f0
    for k in range(1, schedule.steps + 1):
        current, report = minimize_step(current, schedule.tau(k),
                                        step_index=k, _factor=chain)
        snapshots.append(current)
        reports.append(report)
        if not report.converged:
            break
    return FlowTrajectory(schedule, tuple(snapshots), tuple(reports))


def _blend(prev: QGridFunction, nxt: QGridFunction, a: float) -> QGridFunction:
    """(1 - a) prev + a next, with the branches of each node paired
    optimally, then canonicalized.  For n = 1 both rows are sorted and the
    identity pairing is optimal.  Boundary rows are pinned rather than
    blended: both endpoints share them bitwise and (1-a)*v + a*v can drift
    by an ulp."""
    prev_vals, next_vals = prev.values, nxt.values
    if prev.n > 1:
        sigma = match_rows(prev_vals, next_vals)[0]
        next_vals = np.take_along_axis(next_vals, sigma[:, :, None], axis=1)
    blend = (1.0 - a) * prev_vals + a * next_vals
    bnd = prev.domain.is_boundary
    blend[bnd] = prev_vals[bnd]
    return QGridFunction(prev.domain, blend)


def evaluate_at_time(traj: FlowTrajectory, t: float) -> QGridFunction:
    """State of the interpolated trajectory at wall time t.

    With k the step whose wall time contains t, the trajectory is state
    k - 1 up to the start of `StepSchedule.window(k)`, state k from its end,
    and the matched blend of the two inside it: linear interpolation for
    the uniform schedule, a plateau and a terminal ramp of length tau_k for
    the geometric one.  Works for every value shape.
    """
    sched = traj.schedule
    completed = traj.completed_steps
    horizon = traj.horizon
    slack = 1e-12 * max(1.0, abs(horizon))
    if t < -slack or t > horizon + slack:
        raise ValueError(f"time {t} outside [0, {horizon}]")
    t = min(max(t, 0.0), horizon)
    if completed == 0:
        return traj.snapshots[0]

    k = min(int(t / sched.h) + 1, completed)
    start, end = sched.window(k)
    if t <= start:
        return traj.snapshots[k - 1]
    if t >= end:
        return traj.snapshots[k]
    a = (t - start) / sched.tau(k)
    return _blend(traj.snapshots[k - 1], traj.snapshots[k], a)


def holder_margin(traj: FlowTrajectory, t: float, s: float) -> float:
    """Slack in the time regularity bound
    distance(F(t), F(s)) <= sqrt((s - t) + h) * sqrt(initial energy)."""
    if not t < s:
        raise ValueError("need t < s")
    ft = evaluate_at_time(traj, t)
    fs = evaluate_at_time(traj, s)
    dist = math.sqrt(l2_distance_sq(ft, fs))
    bound = math.sqrt((s - t) + traj.schedule.h) * math.sqrt(traj.energies[0])
    return bound - dist
