"""Implicit time stepping for grid functions with multiset values.

Each step minimizes  dirichlet_energy(g) + l2_distance_sq(g, f_prev) / tau
over grid functions that agree with f_prev on the boundary.  The solver
alternates between recomputing optimal branch pairings and a direct solve
of the resulting convex quadratic, block tridiagonal over lattice rows,
one solve over every value column per sweep, and stops when the pairings
no longer change or a sweep no longer lowers the objective; the matchings
that score a sweep are the pairings of the next one.  For n = 1 the
canonical (sorted) storage makes every pairing the identity, so a single
sweep is exact.
One loop, `_ChainState.run`, steps every chain in place over the rows of
its state array, for every value shape: `minimize_step` is that loop run
for one step, and `run_flow` runs it over a whole schedule, building no
per-step objects.  An n = 1 chain steps in blocks of equal step size,
each twice the last up to a cap: it solves a block's rows one after the
other in a work array, scores them all in one array pass and keeps them up
to the first step the floor guard rejects, which after the same start and
tau rejects every later step of that size too.
The solver only solves: its log records each step's energies, penalty
and sweeps, and the quantities the paper's bounds are stated in come from
the states, through `FlowTrajectory`.  Two step size schedules are
provided: a geometric one where step k uses tau = h / 2^k, and a uniform
one with tau = T / N.

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
from itertools import groupby
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

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

    def taus(self) -> list:
        """Every step size, the floats tau(k) gives."""
        if self.mode == "geometric":
            return [self.h * 0.5**k for k in range(1, self.steps + 1)]
        return [self.h] * self.steps

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
        self.energy, self.penalty = np.zeros(steps + 1), np.zeros(steps)
        self.outer = np.zeros(steps, dtype=np.int64)
        self.ends = np.zeros(steps, dtype=np.int64)
        self.trace = array("d")

    def __len__(self) -> int:
        return self.steps

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(self.steps)[i])
        k = range(1, self.steps + 1)[i]
        before, after = self.energy[k - 1:k + 1].tolist()
        kept = self.trace[self.ends[k - 2] if k > 1 else 0:self.ends[k - 1]]
        return StepReport(
            k, self.taus[k - 1], before, after, self.penalty[k - 1].item(),
            self.outer[k - 1].item(), self.converged or k < self.steps,
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


# lanes up to which consecutive node rows share one dense block of the
# frozen system: a block's factor costs the cube of its lanes, and its solve
# a few numpy calls, so coarse intervals stay one block and fine ones split
_BLOCK_LANES = 64

# values up to which an n = 1 chain guards consecutive steps as one block:
# a block's rows are scored by a few array reductions over its nodes and
# its edges, and the cap bounds the larger of their scratch arrays
_BLOCK_VALUES = 2**14


def _frozen_system(domain: GridDomain, tau: float, sigma):
    """Normal equations of the frozen-pairing quadratic, in row blocks.

    The unknowns are node lanes, lane i of node x at index x * w + i with
    w = sigma.shape[1]; edge e joins lane i of its first node with lane
    sigma[e, i] of its second.  The interior lanes are numbered node-major
    and row by row (a node row: the nodes of one last coordinate, so a
    lattice row on the disk and a single node on the interval), and every
    edge stays in one node row or joins it to the next, so the SPD matrix
    over them is block tridiagonal over blocks of consecutive whole node
    rows.  A block packs node rows up to _BLOCK_LANES lanes, unless one
    row is longer.
    Returns the lane slice of each block, the diagonal blocks A_ii, the
    upper blocks A_i,i+1, and the coupling that carries fixed boundary
    lanes into the right-hand side as (interior lane, boundary lane) index
    pairs, each entry of weight w_e.  The blocks are assembled straight
    from COO index arrays, never as the full matrix: w_e * degree + w_p on
    the diagonal and -w_e for each pair of joined interior lanes.  Each
    interior lane lists its boundary lanes in descending order, the order
    in which the boundary term adds them.
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

    # blocks of consecutive node rows, packed up to _BLOCK_LANES lanes
    _, row_nodes = np.unique(domain.coords[domain.interior, -1],
                             return_counts=True)
    starts, end = [0], 0
    for size in (width * row_nodes).tolist():
        if end + size - starts[-1] > _BLOCK_LANES and end > starts[-1]:
            starts.append(end)
        end += size
    starts.append(end)
    sizes = np.diff(starts)
    block = np.repeat(np.arange(sizes.size), sizes)
    local = np.arange(inner.size) - np.asarray(starts)[block]
    big = sizes.max()
    diag = np.zeros((sizes.size, big, big))
    upper = np.zeros((sizes.size - 1, big, big))
    diag[block, local, local] = w_e * degree + w_p
    coupled = cols >= 0
    r, c = rows[coupled], cols[coupled]
    for out, hit in ((diag, block[c] == block[r]),
                     (upper, block[c] == block[r] + 1)):
        out[block[r[hit]], local[r[hit]], local[c[hit]]] = -w_e

    c_rows, c_cols = rows[~coupled], dst[~coupled]
    order = np.argsort(c_rows * row_of.size - c_cols)
    return ([slice(a, b) for a, b in zip(starts[:-1], starts[1:])],
            [d[:s, :s] for d, s in zip(diag, sizes)],
            [u[:s, :t] for u, s, t in zip(upper, sizes, sizes[1:])],
            (c_rows[order], c_cols[order]))


class _BlockFactor:
    """Block LDL^T factor of a frozen-pairing system, from one forward
    sweep over its blocks: the inverse of every Schur complement
    S_i = A_ii - A_i,i-1 G_i-1, with S_0 = A_00, and G_i = S_i^-1 A_i,i+1.
    For the M-matrix of a frozen system every S_i^-1 is entrywise
    nonnegative and every G_i nonpositive."""

    def __init__(self, domain: GridDomain, tau: float, sigma):
        self.blocks, diag, upper, self.couple = _frozen_system(
            domain, tau, sigma)
        self.w_e = domain.delta ** (domain.m - 2)
        self.lower = [u.T for u in upper]
        self.inv, self.g = [], []
        for i, a in enumerate(diag):
            s = a - self.lower[i - 1] @ self.g[i - 1] if i else a
            self.inv.append(np.linalg.inv(s))
            if i < len(upper):
                self.g.append(self.inv[i] @ upper[i])

    def boundary(self, values):
        """Boundary term of the right-hand side, w_e times the fixed lanes
        of `values` (one row per node lane) joined to each interior lane,
        added in the coupling's order."""
        rows, cols = self.couple
        out = np.zeros((self.blocks[-1].stop, values.shape[1]))
        np.add.at(out, rows, self.w_e * values[cols])
        return out

    def solve(self, rhs, out=None):
        """A^-1 rhs, column by column with the same arithmetic: a forward
        sweep z_i = S_i^-1 (rhs_i - A_i,i-1 z_i-1) and a back sweep
        x_i = z_i - G_i x_i+1, three matrix products per block, written
        into `out` (C-contiguous, rhs's shape, apart from rhs) or a new
        array.  One block is one product and no new array."""
        x = np.empty(rhs.shape) if out is None else out
        if len(self.blocks) == 1:
            return np.matmul(self.inv[0], rhs, out=x)
        z = None
        for i, blk in enumerate(self.blocks):
            y = rhs[blk] - self.lower[i - 1] @ z if i else rhs[blk]
            x[blk] = z = self.inv[i] @ y
        for i in range(len(self.g) - 1, -1, -1):
            x[self.blocks[i]] -= self.g[i] @ x[self.blocks[i + 1]]
        return x


def _square_sums(d: np.ndarray) -> np.ndarray:
    """Sum of the squares of each row of d, a fresh (rows, ...) array that
    is squared in place, with the bits of `grid._paired`'s flat sum of that
    row: numpy sums each row of a C-contiguous (rows, L) array pairwise, as
    it does a flat array, but not a strided one, such as a fancy index
    along axis 1 makes."""
    d = np.ascontiguousarray(d)
    d *= d
    return d.reshape(len(d), -1).sum(axis=1)


class _ChainState:
    """A chain of implicit steps from f0 over one state array: states[0]
    is f0's values, and step k, of size taus[k - 1], writes states[k].

    It holds the block factor of the frozen-pairing system of one (tau,
    edge pairing) key and the boundary term of its right-hand side, which a new
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
        self.ea, self.eb = np.ascontiguousarray(domain.edges.T)
        self.inner = domain.interior
        self.w_e, self.w_n = domain.delta ** (domain.m - 2), domain.delta**domain.m
        self.tau, self.key = None, None
        self.edge_sigma, e = _paired(states[0].take(self.ea, axis=0),
                                     states[0].take(self.eb, axis=0))
        self.log.energy[0] = self.w_e * e

    def prepare(self, tau: float, edge_sigma):
        """Make the factor, boundary term and right-hand side shape those
        of tau and edge_sigma, keeping them when both are unchanged."""
        key = None if edge_sigma is None else edge_sigma.tobytes()
        if tau != self.tau or key != self.key:
            start = self.states[0]
            if edge_sigma is None:
                sigma = np.zeros((self.domain.num_edges, 1), dtype=np.int64)
                self.shape = (-1, start.shape[1] * start.shape[2])
            else:
                sigma, self.shape = edge_sigma, (-1, start.shape[2])
            self.factor = _BlockFactor(self.domain, tau, sigma)
            self.tau, self.key = tau, key
            self.boundary = self.factor.boundary(start.reshape(self.shape))

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
        self.prepare(tau, edge_sigma)
        matched = prev.take(self.inner, axis=0)
        if node_nu is not None:
            matched = np.take_along_axis(matched, node_nu[:, :, None], axis=1)
        rhs = self.w_n / tau * matched.reshape(self.shape) + self.boundary
        return self.factor.solve(rhs).reshape(matched.shape)

    def run(self, last: int):
        """Take the steps up to `last` from where the chain stands.

        Each step minimizes its objective from the step's start, and the
        floor guard keeps a candidate only if its objective is below the
        last kept value, at first the start's energy; a step with no kept
        candidate keeps its start.  A start of zero energy is a fixed
        point of every step.

        For n = 1 the canonical (sorted) storage makes every pairing the
        identity and the frozen matrix is an M-matrix, whose solve keeps
        each node's branches in order, so one sweep is exact and a step is
        solved and scored as is (FlowTrajectory rejects a state out of
        order).  Such a chain steps in blocks, `_blocks`: runs of steps of
        equal tau, guarded all at once.  Every other chain steps sweep by
        sweep, `_sweeps`."""
        if self.log.converged:
            if self.states.shape[3] == 1:
                self._blocks(last)
            else:
                self._sweeps(last)

    def _solve_rows(self, rows, tau: float):
        """Solve rows[1:] of an n = 1 block in place, each a step of size tau
        from the row before.  The start's interior values are gathered once
        into a work array; a step scales one of its rows, adds the boundary
        term and solves into the next, with no gather, scatter or temporary
        of its own.  The rows are scattered back at the end, and the work
        array is freed before the block is scored."""
        self.prepare(tau, None)
        factor, boundary, scale = self.factor, self.boundary, self.w_n / tau
        inner = self.inner
        work = np.empty((len(rows), len(inner)) + rows.shape[2:])
        lanes = work.reshape(len(rows), len(inner), rows.shape[2])
        rhs = np.empty(lanes.shape[1:])
        np.take(rows[0], inner, axis=0, out=work[0])
        for j in range(len(rows) - 1):
            np.multiply(scale, lanes[j], out=rhs)
            rhs += boundary
            factor.solve(rhs, out=lanes[j + 1])
        rows[1:] = rows[0]  # the boundary rows
        rows[1:, inner] = work[1:]

    # a solve that overflows makes a non-finite candidate, which the floor
    # guard turns into a ValueError: its overflowing and invalid operations
    # need no warning, nor do those of the rows a block solves after it
    @np.errstate(invalid="ignore", over="ignore")
    def _blocks(self, last: int):
        """The n = 1 floor guard per block of steps.  A block is a run of
        consecutive steps of equal tau, the first of a run one step long
        and each next twice the last, up to _BLOCK_VALUES values per node
        or edge array, so a run solves no more rows after a rejection than
        it kept before it.  Its rows are solved one after the other,
        `_solve_rows`; then all are scored in one pass, E_k and P_k by one
        reduction each over the block's rows, and the steps are kept up to
        the first whose E_k + P_k / tau is not below E_k-1.  That step
        keeps its start, or raises if its row is not finite; it leaves
        state, tau and floor unchanged, so every later step of the same tau
        is rejected alike and repeats the state without a solve.  A kept
        state of zero energy ends the block."""
        log, states, k = self.log, self.states, self.log.steps
        taus, trace, energy, penalty = log.taus, log.trace, log.energy, log.penalty
        ea, eb, w_e, w_n = self.ea, self.eb, self.w_e, self.w_n
        cap = max(1, _BLOCK_VALUES // (
            max(len(states[0]), len(ea)) * states.shape[2]))
        for tau, run in groupby(taus[k:last]):
            end, size = k + len(list(run)), 1
            while k < end:
                if energy[k] == 0.0:
                    # a fixed point of every step: energy 0 and no sweep
                    states[k + 1:last + 1] = states[k]
                    log.ends[k:last], log.steps = len(trace), last
                    return
                rows = states[k:min(end, k + size) + 1]
                size = min(2 * size, cap)
                self._solve_rows(rows, tau)
                cand = rows[1:]
                diff = cand.take(ea, axis=1)
                diff -= cand.take(eb, axis=1)
                en = w_e * _square_sums(diff)
                dist = w_n * _square_sums(cand - rows[:-1])
                value = en + dist / tau
                kept = value < np.concatenate(([energy[k]], en[:-1]))
                kept[1:] &= en[:-1] != 0.0  # a kept zero energy ends the block
                j = len(kept) if kept.all() else int(kept.argmin())
                trace_end = len(trace)
                trace.frombytes(value[:j].tobytes())
                energy[k + 1:k + j + 1], penalty[k:k + j] = en[:j], dist[:j]
                log.outer[k:k + j] = 1
                log.ends[k:k + j] = np.arange(trace_end + 1, trace_end + j + 1)
                k += j
                if j == len(kept) or energy[k] == 0.0:
                    continue
                # floating point floor reached
                if not np.isfinite(cand[j]).all():
                    raise ValueError("values must be finite")
                states[k + 1:end + 1] = states[k]
                energy[k + 1:end + 1] = energy[k]
                log.outer[k:end], log.ends[k:end] = 1, len(trace)
                k = end
        log.steps = k

    @np.errstate(invalid="ignore")
    def _sweeps(self, last: int):
        """Steps of n > 1, sweep by sweep.  Each sweep solves the frozen
        system into a reused candidate row, puts it in canonical order and
        matches it once across the edges and once against the step's start,
        which gives its objective and the next sweep's pairings; the first
        sweep takes the start's edge pairing and the identity at the nodes.
        A sweep that does not lower the objective below the last kept value
        ends the step, as does the pairing fixed point, which for q = 1 is
        the first kept sweep.  A step still moving after _MAX_OUTER sweeps
        is flagged as not converged and ends the chain."""
        log, states = self.log, self.states
        taus, trace, energy, penalty = log.taus, log.trace, log.energy, log.penalty
        ea, eb, inner, w_e, w_n = self.ea, self.eb, self.inner, self.w_e, self.w_n
        sweeps = range(1, _MAX_OUTER + 1)
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
                    c = _canonical(cand)
                    edge_out, en = _paired(c.take(ea, axis=0), c.take(eb, axis=0))
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
    taus = schedule.taus()
    chain = _ChainState(f0, taus)
    minimize_step(f0, taus[0], step_index=1, _factor=chain)
    chain.run(len(taus))
    return FlowTrajectory(schedule, f0.domain,
                          chain.states[:chain.log.steps + 1], chain.log)


def _blend(prev: QGridFunction, nxt: QGridFunction, a: float) -> QGridFunction:
    """(1 - a) prev + a next, with the branches of each node paired
    optimally, then canonicalized.  For n = 1 both rows are sorted and the
    identity pairing is optimal; their blend is sorted too, since rounding
    is monotone, so it is returned as a view without a re-sort.  Boundary
    rows are pinned rather than blended: both endpoints share them bitwise
    and (1-a)*v + a*v can drift by an ulp."""
    prev_vals, next_vals = prev.values, nxt.values
    if prev.n > 1:
        sigma = match_rows(prev_vals, next_vals)[0]
        next_vals = np.take_along_axis(next_vals, sigma[:, :, None], axis=1)
    blend = (1.0 - a) * prev_vals + a * next_vals
    bnd = prev.domain.is_boundary
    blend[bnd] = prev_vals[bnd]
    if prev.n > 1:
        return QGridFunction(prev.domain, blend)
    blend.flags.writeable = False
    return _view(prev.domain, blend)


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
