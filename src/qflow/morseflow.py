"""Implicit time stepping for grid functions with multiset values.

Each step minimizes  dirichlet_energy(g) + l2_distance_sq(g, f_prev) / tau
over grid functions that agree with f_prev on the boundary.  The solver
alternates between recomputing optimal branch pairings and a direct sparse
(LU) solve of the resulting convex quadratic, one block solve over every
value column per sweep, and stops when the pairings no longer change or a
sweep no longer lowers the objective; the matchings that score a sweep
are the pairings of the next one.  For n = 1 the canonical (sorted)
storage makes every pairing the identity, so a single sweep is exact.
One loop, `_ChainState.run`, steps every chain in place over the rows of
its state array, for every value shape: `minimize_step` is that loop run
for one step, and `run_flow` runs it over a whole schedule, building no
per-step objects.  The solver only solves: its log records each step's
energies, penalty and sweeps, and the quantities the paper's bounds are
stated in come from the states, through `FlowTrajectory`.  Two step size
schedules are provided: a geometric one where step k uses tau = h / 2^k,
and a uniform one with tau = T / N.

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
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import splu

from .grid import (
    GridDomain,
    QGridFunction,
    _paired,
    _view,
    branch_mean_residual,
    dirichlet_energy,
    l2_distance_sq,
)
from .qspace import _canonical, match_rows

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
    """The solver's log of step k: the energies of its start and of the
    state it keeps, that state's movement penalty, its pairing sweeps, and
    the objective at its start and after each kept sweep."""

    k: int
    tau: float
    energy_before: float
    energy_after: float
    penalty: float
    outer_iterations: int
    converged: bool
    objective_trace: tuple


class _Reports(Sequence):
    """A chain's per-step arrays, and the StepReports of its completed
    steps built from them on demand: a long chain's reports are mostly
    never read.  energy[k] is the energy of state k, trace the objective
    of every kept sweep, step after step, and ends[k - 1] the end of step
    k's entries in trace.  A chain stops at its first step that does not
    converge, so only its last step can be flagged."""

    def __init__(self, taus):
        steps = len(taus)
        self.taus, self.steps, self.converged = taus, 0, True
        self.energy = array("d", bytes(8 * (steps + 1)))
        self.penalty, self.trace = array("d", bytes(8 * steps)), array("d")
        self.outer = array("q", bytes(8 * steps))
        self.ends = array("q", bytes(8 * steps))

    def __len__(self) -> int:
        return self.steps

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(self.steps)[i])
        k = range(1, self.steps + 1)[i]
        before = self.energy[k - 1]
        kept = self.trace[self.ends[k - 2] if k > 1 else 0:self.ends[k - 1]]
        return StepReport(
            k, self.taus[k - 1], before, self.energy[k], self.penalty[k - 1],
            self.outer[k - 1], self.converged or k < self.steps,
            (before, *kept))


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """The states of a run with the per-step quantities the paper's bounds
    are stated in.

    `states` holds every state as one (completed_steps + 1, num_nodes, q, n)
    array, checked finite and in canonical order and made read-only here,
    and `snapshots` are QGridFunction views of its rows, built on first
    use.  `reports` is the solver's log, a sequence of StepReports; a run
    builds each on demand from its per-step arrays.  Each quantity below
    is computed from the snapshots, not taken from the reports, once per
    trajectory on first use."""

    schedule: StepSchedule
    domain: GridDomain
    states: np.ndarray
    reports: Sequence

    def __post_init__(self):
        states = self.states
        if states.ndim != 4 or states.shape[1] != self.domain.num_nodes:
            raise ValueError("states must have shape (steps + 1, num_nodes, q, n)")
        # a NaN or an infinity reaches the minimum or the maximum
        if not (np.isfinite(states.min()) and np.isfinite(states.max())):
            raise ValueError("values must be finite")
        if states.shape[3] == 1:
            canonical = (states[:, :, 1:] >= states[:, :, :-1]).all()
        else:
            canonical = np.array_equal(_canonical(states), states)
        if not canonical:
            raise ValueError("states must be in canonical order")
        states.flags.writeable = False

    @functools.cached_property
    def snapshots(self) -> tuple:
        """QGridFunction views of the rows of states, without a copy."""
        return tuple(_view(self.domain, row) for row in self.states)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.reports) and len(
            self.reports
        ) == self.schedule.steps

    @property
    def completed_steps(self) -> int:
        return len(self.states) - 1

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


def _as_slice(index: np.ndarray):
    """index as a slice when it is a run of consecutive integers, as the
    interior and edge ends of an interval are: a slice selects a view where
    an index array copies."""
    if index.size and (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


class _ChainState:
    """A chain of implicit steps from f0 over one state array: states[0]
    is f0's values, and step k, of size taus[k - 1], writes states[k].

    It holds the LU factor of the frozen-pairing system of one (tau, edge
    pairing) key and the boundary term of its right-hand side, which a new
    key replaces; the edge pairing of its last state; and its per-step log.
    Every state has the boundary rows of states[0], bit for bit, so the
    boundary term is computed once per factorization."""

    def __init__(self, f0: QGridFunction, taus):
        if not 0.0 < min(taus) <= max(taus) < math.inf:
            raise ValueError("tau must be positive and finite")
        self.domain = domain = f0.domain
        self.log = _Reports(taus)
        self.states = states = np.empty((len(taus) + 1,) + f0.values.shape)
        states[0] = f0.values
        self.ea, self.eb, self.inner = (_as_slice(i) for i in (
            domain.edges[:, 0], domain.edges[:, 1], domain.interior))
        self.w_e, self.w_n = domain.delta ** (domain.m - 2), domain.delta**domain.m
        self.tau, self.key = None, None
        self.edge_sigma, e = _paired(states[0][self.ea], states[0][self.eb])
        self.log.energy[0] = self.w_e * e

    def solve(self, tau: float, prev, edge_sigma, node_nu):
        """Interior values minimizing the step objective of size tau from
        prev with every branch pairing frozen, from the factor and boundary
        term of the last solve when tau and the edge pairing are the same,
        from new ones otherwise.

        Across edge (a, b), branch i at a meets branch edge_sigma[e, i] at
        b; interior node j compares its branch i with branch node_nu[j, i]
        of prev; None, and only None, stands for the identity pairing on
        every row.  For the identity edge pairing the matrix is q copies of
        one scalar block over the interior nodes and the right-hand side
        has one column per (branch, coordinate); otherwise the columns are
        the n coordinates of every branch lane.  Either way all columns go
        through one block solve, in which a negated column is solved with
        the same arithmetic, so +/- data (q = 2) stay exactly symmetric."""
        key = None if edge_sigma is None else edge_sigma.tobytes()
        if tau != self.tau or key != self.key:
            if edge_sigma is None:
                sigma = np.zeros((self.domain.num_edges, 1), dtype=np.int64)
                self.shape = (-1, prev.shape[1] * prev.shape[2])
            else:
                sigma, self.shape = edge_sigma, (-1, prev.shape[2])
            matrix, couple = _frozen_system(self.domain, tau, sigma)
            self.lu, self.tau, self.key = splu(matrix), tau, key
            self.boundary = couple @ prev.reshape(self.shape)
        matched = prev[self.inner]
        if node_nu is not None:
            matched = np.take_along_axis(matched, node_nu[:, :, None], axis=1)
        rhs = self.w_n / tau * matched.reshape(self.shape) + self.boundary
        return self.lu.solve(rhs).reshape(matched.shape)

    def run(self, last: int):
        """Take the steps up to `last` from where the chain stands.

        Each sweep solves the frozen system into a reused candidate row,
        puts it in canonical order for n > 1 and matches it once across the
        edges and once against the step's start, which gives its objective
        and the next sweep's pairings; the first sweep takes the start's
        edge pairing and the identity at the nodes.  For n = 1 the frozen
        matrix is an M-matrix, so the solve keeps each node's branches in
        order and the candidate is scored as solved; FlowTrajectory rejects
        a state out of order.  The floor guard keeps a candidate only if it
        lowers the objective below the last kept value; otherwise the step
        ends, as it does at the pairing fixed point, which for n = 1 or
        q = 1 is the first kept sweep.  A step still moving after
        _MAX_OUTER sweeps is flagged as not converged and ends the chain.
        A start of zero energy is a fixed point of every step."""
        log, states = self.log, self.states
        if not log.converged:
            return
        taus, trace, energy, penalty = log.taus, log.trace, log.energy, log.penalty
        ea, eb, inner, w_e, w_n = self.ea, self.eb, self.inner, self.w_e, self.w_n
        scalar, sweeps = states.shape[3] == 1, range(1, _MAX_OUTER + 1)
        cand = states[log.steps].copy()
        edge, e = self.edge_sigma, energy[log.steps]
        outers, ends, k = log.outer, log.ends, log.steps
        for k, tau in enumerate(taus[k:last], start=k + 1):
            prev, row, best = states[k - 1], states[k], e
            edge_in, nu_in = edge, None
            if e == 0.0:
                row[...], outer = prev, 0
            else:
                for outer in sweeps:
                    cand[inner] = self.solve(tau, prev, edge_in, nu_in)
                    c = cand if scalar else _canonical(cand)
                    edge_out, en = _paired(c[ea], c[eb])
                    node_sigma, dist = _paired(c, prev)
                    en, dist = w_e * en, w_n * dist
                    value = en + dist / tau
                    if not value < best:
                        # floating point floor reached
                        if not np.isfinite(c).all():
                            raise ValueError("values must be finite")
                        if outer == 1:
                            row[...] = prev  # no sweep kept
                        break
                    row[...] = c
                    trace.append(value)
                    best, e = value, en
                    edge, penalty[k - 1] = edge_out, dist
                    nu_out = None if node_sigma is None else node_sigma[inner]
                    if ((edge_out is edge_in or np.array_equal(edge_out, edge_in))
                            and (nu_out is nu_in or np.array_equal(nu_out, nu_in))):
                        break
                    edge_in, nu_in = edge_out, nu_out
                else:
                    log.converged = False
            energy[k], outers[k - 1], ends[k - 1] = e, outer, len(trace)
            if not log.converged:
                break
        log.steps, self.edge_sigma = k, edge


def minimize_step(f_prev: QGridFunction, tau: float, step_index: int = 0,
                  *, _factor: _ChainState | None = None):
    """One implicit step from f_prev: the chain loop, `_ChainState.run`,
    for one step.  It alternates frozen-pairing solves with pairing
    updates until the pairings of the new iterate are the ones it was
    solved with, or a sweep no longer lowers the objective.

    Returns (f_next, report) with the boundary of f_prev preserved and
    objective value never above the starting one, so the Dirichlet energy
    cannot increase across the step; f_next is f_prev itself when no sweep
    is kept.  `_factor` is the chain of a run whose first step this is,
    with f_prev its start and tau its first step size: the run's later
    steps share its factorization and state array.
    """
    chain = _factor or _ChainState(f_prev, [tau])
    chain.run(1)
    report = replace(chain.log[0], k=step_index)
    if len(report.objective_trace) == 1:
        return f_prev, report
    return QGridFunction(f_prev.domain, chain.states[1]), report


def run_flow(f0: QGridFunction, schedule: StepSchedule) -> FlowTrajectory:
    """Run the full chain of implicit steps into one state array.  The
    first step is minimize_step's, so that a profile of the run sees one
    call per chain, and the rest continue in the same loop; a step that
    fails to converge truncates the chain, its best iterate kept and
    flagged."""
    taus = [schedule.tau(k) for k in range(1, schedule.steps + 1)]
    chain = _ChainState(f0, taus)
    minimize_step(f0, taus[0], step_index=1, _factor=chain)
    chain.run(len(taus))
    return FlowTrajectory(schedule, f0.domain,
                          chain.states[:chain.log.steps + 1], chain.log)


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
