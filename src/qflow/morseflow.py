"""Implicit time stepping for grid functions with multiset values.

Each step minimizes  dirichlet_energy(g) + l2_distance_sq(g, f_prev) / tau
over grid functions that agree with f_prev on the boundary.  The solver
alternates between recomputing optimal branch pairings and a direct sparse
(LU) solve of the resulting convex quadratic, and stops when the pairings
no longer change; for n = 1 the canonical (sorted) storage makes every
pairing the identity and a single sweep is exact.  Two step size schedules
are provided: a geometric one where step k uses tau = h / 2^k, and a
uniform one with tau = T / N.

The interpolated trajectory of the geometric schedule holds each state on
a plateau and crosses to the next state on a short terminal ramp through
the sorted embedding; the uniform schedule interpolates linearly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import splu

from .grid import (
    GridDomain,
    QGridFunction,
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
    "step_estimate_margin",
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
        if self.h <= 0 or self.total <= 0:
            raise ValueError("step sizes must be positive")

    def tau(self, k: int) -> float:
        """Step size of step k, 1 <= k <= steps."""
        if not 1 <= k <= self.steps:
            raise ValueError(f"step index {k} outside 1..{self.steps}")
        if self.mode == "geometric":
            return self.h * 0.5**k
        return self.h


def geometric_schedule(h: float, steps: int) -> StepSchedule:
    """Halving steps tau_k = h / 2^k; the wall horizon is steps * h."""
    return StepSchedule("geometric", float(h), int(steps), float(h) * int(steps))


def uniform_schedule(total_time: float, steps: int) -> StepSchedule:
    """Constant steps tau = total_time / steps."""
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return StepSchedule("uniform", float(total_time) / steps, steps, float(total_time))


# relative objective decrease below which the pairing iteration stops
_OUTER_TOL = 1e-12
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


@dataclass(frozen=True)
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

    def ramp_intervals(self) -> tuple:
        """Terminal crossing windows of the geometric interpolation."""
        if self.schedule.mode != "geometric":
            return ()
        h = self.schedule.h
        out = []
        for k in range(1, self.completed_steps + 1):
            end = k * h
            out.append((end - self.schedule.tau(k), end))
        return tuple(out)


class _ChainState:
    """Chain state of a run: the frozen-pairing system of one (domain, tau,
    edge pairings) with its LU factor, which a new key replaces, so one run
    holds one factor; and the last accepted state with its energy, which
    the next step takes as its energy_before."""

    def __init__(self):
        self.domain = None
        self.key = None
        self.system = None
        self.state = None
        self.energy = None

    def get(self, domain: GridDomain, key, build):
        if self.domain is not domain or self.key != key:
            matrix, couple = build()
            self.system = (matrix, couple, splu(matrix))
            self.domain, self.key = domain, key
        return self.system


def _pairings(vals, prev_vals, domain: GridDomain):
    """Optimal branch pairings across each edge, shape (edges, q), and from
    each interior node to f_prev, shape (interior, q).  For n = 1 sorted
    storage makes the identity optimal and no matching is computed."""
    qq = vals.shape[1]
    if vals.shape[2] == 1:
        ident = np.arange(qq)
        return (np.zeros((domain.num_edges, qq), dtype=np.int64) + ident,
                np.zeros((len(domain.interior), qq), dtype=np.int64) + ident)
    ea, eb = domain.edges[:, 0], domain.edges[:, 1]
    inner = domain.interior
    return (match_rows(vals[ea], vals[eb])[0],
            match_rows(vals[inner], prev_vals[inner])[0])


def _frozen_system(domain: GridDomain, tau: float, sigma):
    """Normal equations of the frozen-pairing quadratic.

    The unknowns are node lanes, lane i of node x at index x * w + i with
    w = sigma.shape[1]; edge e joins lane i of its first node with lane
    sigma[e, i] of its second.  Returns the SPD matrix over the interior
    lanes and the coupling that carries fixed boundary lanes into the
    right-hand side.
    """
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


def _solve_frozen(prev_vals, domain: GridDomain, tau: float,
                  edge_sigma, node_nu, cache: _ChainState):
    """Minimizer of the step objective with every branch pairing frozen.

    Across edge (a, b), branch i at a meets branch edge_sigma[e, i] at b;
    interior node interior[j] compares its branch i with branch
    node_nu[j, i] of f_prev.  The objective is then a convex quadratic in
    the interior branch values, solved directly by sparse LU.  The matrix
    depends on tau and the edge pairings only.  When every edge pairing is
    the identity it is q copies of one scalar block: that block is
    factored, and each (branch, coordinate) column is solved with it
    separately, which keeps +/- symmetric data exactly symmetric.  Returns
    the new node values and the largest residual of the linear system.
    """
    qq, nn = prev_vals.shape[1:]
    if (edge_sigma == np.arange(qq)).all():
        sigma, key = np.zeros((domain.num_edges, 1), dtype=np.int64), (tau, None)
        columns = [np.s_[:, i, c] for i in range(qq) for c in range(nn)]
    else:
        sigma, key = edge_sigma, (tau, edge_sigma.tobytes())
        columns = [np.s_[:, :, c] for c in range(nn)]
    matrix, couple, lu = cache.get(
        domain, key, lambda: _frozen_system(domain, tau, sigma))

    w_p = domain.delta**domain.m / tau
    matched = prev_vals[domain.interior[:, None], node_nu]
    x = np.empty_like(matched)
    residual = 0.0
    for col in columns:
        b = w_p * matched[col].ravel() + couple @ prev_vals[col].ravel()
        sol = lu.solve(b)
        residual = max(residual, float(np.max(np.abs(matrix @ sol - b))))
        x[col] = sol.reshape(x[col].shape)
    vals = prev_vals.copy()
    vals[domain.interior] = x
    return vals, residual


def minimize_step(f_prev: QGridFunction, tau: float, step_index: int = 0,
                  *, _factor: _ChainState | None = None):
    """One implicit step from f_prev.

    Alternates frozen-pairing solves with pairing updates until the
    pairings of the new iterate are the ones it was solved with (the first
    sweep for n = 1), the objective stops decreasing by _OUTER_TOL, or it
    reaches the floating point floor; a step still moving after _MAX_OUTER
    sweeps is flagged as not converged.  Returns (f_next, report) with the
    boundary of f_prev preserved and objective value never above the
    starting one, so the Dirichlet energy cannot increase across the step.
    `_factor` lets a chain of steps share one factorization and hand each
    step the energy of its starting state.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    domain = f_prev.domain
    cache = _factor if _factor is not None else _ChainState()
    if cache.state is f_prev:
        energy_before = cache.energy
    else:
        energy_before = dirichlet_energy(f_prev)

    if energy_before == 0.0:
        # constant data is a fixed point of every step
        report = StepReport(step_index, tau, 0.0, 0.0, 0.0, 0, True, (0.0,), 0.0)
        cache.state, cache.energy = f_prev, 0.0
        return f_prev, report

    prev_vals = f_prev.values
    pairings = _pairings(prev_vals, prev_vals, domain)
    trace = [energy_before]  # objective at f_prev: penalty vanishes
    energy_after, penalty = energy_before, 0.0
    converged = False
    outer = 0
    stationarity = 0.0
    current = f_prev
    while outer < _MAX_OUTER:
        outer += 1
        vals, stationarity = _solve_frozen(prev_vals, domain, tau, *pairings, cache)
        candidate = QGridFunction(domain, vals)
        energy = dirichlet_energy(candidate)
        dist = l2_distance_sq(candidate, f_prev)
        value = energy + dist / tau
        if value >= trace[-1]:
            # floating point floor reached; keep the last accepted iterate
            converged = True
            break
        current, energy_after, penalty = candidate, energy, dist
        trace.append(value)
        if trace[-2] - value <= _OUTER_TOL * max(1.0, abs(trace[-2])):
            converged = True
            break
        solved_with = pairings
        pairings = _pairings(candidate.values, prev_vals, domain)
        if all(np.array_equal(p, s) for p, s in zip(pairings, solved_with)):
            converged = True
            break

    cache.state, cache.energy = current, energy_after
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


def _blend_sorted(prev: QGridFunction, nxt: QGridFunction, a: float) -> QGridFunction:
    """Convex combination through the sorted embedding.  Both rows are
    ascending and both weights lie in [0, 1]; rounding is monotone, so the
    blend is ascending too and needs no projection onto the cone.
    Boundary rows are pinned rather than blended: both endpoints share them
    bitwise and (1-a)*v + a*v can drift by an ulp."""
    emb_prev = prev.values[:, :, 0]
    emb_next = nxt.values[:, :, 0]
    blend = (1.0 - a) * emb_prev + a * emb_next
    bnd = prev.domain.is_boundary
    blend[bnd] = emb_prev[bnd]
    return QGridFunction(prev.domain, blend[:, :, None])


def evaluate_at_time(traj: FlowTrajectory, t: float) -> QGridFunction:
    """State of the interpolated trajectory at wall time t.

    Geometric mode: constant plateaus with a crossing ramp of length tau_k
    at the end of each step window.  Uniform mode: linear interpolation
    between consecutive states.  Blending requires n = 1.
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

    if sched.mode == "uniform":
        i = min(int(t / sched.h), completed - 1)
        a = (t - i * sched.h) / sched.h
        a = min(max(a, 0.0), 1.0)
        if a == 0.0:
            return traj.snapshots[i]
        if a == 1.0:
            return traj.snapshots[i + 1]
        if traj.snapshots[0].n != 1:
            raise ValueError("interpolation requires n = 1")
        return _blend_sorted(traj.snapshots[i], traj.snapshots[i + 1], a)

    k = min(int(t / sched.h) + 1, completed)
    ramp_len = sched.tau(k)
    ramp_start = k * sched.h - ramp_len
    if t <= ramp_start:
        return traj.snapshots[k - 1]
    if t >= k * sched.h:
        return traj.snapshots[k]
    if traj.snapshots[0].n != 1:
        raise ValueError("interpolation requires n = 1")
    a = (t - ramp_start) / ramp_len
    return _blend_sorted(traj.snapshots[k - 1], traj.snapshots[k], a)


def step_estimate_margin(report: StepReport) -> float:
    """Slack in the step penalty bound
    penalty <= tau * (energy_before - energy_after)."""
    return report.tau * (report.energy_before - report.energy_after) - report.penalty


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
