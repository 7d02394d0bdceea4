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
per-step objects.  The state array is a window of rows: `run_flow`'s
holds every state, while `final_state`, for callers that read only the
last one, holds one n = 1 block and rolls it, so its states take memory
that does not grow with the number of steps; its per-step log still does,
a few tens of bytes a step (ROADMAP.md, the observability item).  The loop
steps each run of equal step size in blocks, one step long for n > 1 and
for n = 1 each twice the last up to a cap, through one frozen-pairing
solve, `_ChainState._solve_rows`: an n = 1 block solves its rows one after
the other in a work array and scores them all in one array pass, an n > 1
step iterates its pairing sweeps on its one row.  A step that keeps no
candidate leaves start and tau as they were, so every later step of that
size would be rejected too: the rest of the run repeats its start without
a solve.
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
for every value dimension n.  `evaluate_at_time` takes one time or a 1-D
array of them, which it locates in one pass and blends as one stack.
"""

from __future__ import annotations

import functools
import math
from array import array
from itertools import groupby, islice
from operator import countOf
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    GridDomain,
    QGridFunction,
    _paired,
    _paired_sums,
    _state_sums,
    _view,
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
    "final_state",
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


def _check_states(states):
    """Raise unless every state of a (rows, num_nodes, q, n) stack is
    finite and in canonical order."""
    # a NaN or an infinity reaches the minimum or the maximum
    if not (np.isfinite(states.min()) and np.isfinite(states.max())):
        raise ValueError("values must be finite")
    if states.shape[3] == 1:
        canonical = (states[:, :, 1:] >= states[:, :, :-1]).all()
    else:
        canonical = np.array_equal(_canonical(states), states)
    if not canonical:
        raise ValueError("states must be in canonical order")


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """The states of a run with the per-step quantities the paper's bounds
    are stated in.

    `states` holds every state as one (completed_steps + 1, num_nodes, q, n)
    array, checked finite and in canonical order and made read-only here,
    and `snapshots` are QGridFunction views of its rows, built on first
    use.  `reports` is the solver's log, a sequence of StepReports; a run
    builds each on demand from its per-step arrays.  Each quantity below
    is computed from the states, not taken from the reports, once per
    trajectory on first use, in bounded blocks of states, never as one
    stack: each state's energy and branch mean is taken once."""

    schedule: StepSchedule
    domain: GridDomain
    states: np.ndarray
    reports: Sequence

    def __post_init__(self):
        states = self.states
        if states.ndim != 4 or states.shape[1] != self.domain.num_nodes:
            raise ValueError("states must have shape (steps + 1, num_nodes, q, n)")
        _check_states(states)
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
    def _quantities(self) -> tuple:
        """energies, penalties, eta_residuals, mean_norms and max_norms,
        `grid._state_sums` over blocks of states whose scratch arrays hold
        at most _BLOCK_VALUES values."""
        taus = self.schedule.taus()[:self.completed_steps]
        return _state_sums(self.domain, self.states, taus, _BLOCK_VALUES)

    @property
    def energies(self) -> tuple:
        """Dirichlet energy of every snapshot."""
        return self._quantities[0]

    @property
    def penalties(self) -> tuple:
        """Movement penalty of step k, at index k - 1."""
        return self._quantities[1]

    @functools.cached_property
    def estimate_margins(self) -> tuple:
        """Slack in the step estimate penalty <= tau * (energy drop)."""
        e = self.energies
        return tuple(self.schedule.tau(k) * (e[k - 1] - e[k]) - p
                     for k, p in enumerate(self.penalties, start=1))

    @property
    def eta_residuals(self) -> tuple:
        """Max-norm residual of each step's interior equation for the
        branch mean, (mean_k - mean_k-1) / tau_k = discrete Laplacian of
        mean_k, which a converged step meets whatever its pairings."""
        return self._quantities[2]

    @property
    def mean_norms(self) -> tuple:
        """Largest |branch mean| coordinate of every snapshot."""
        return self._quantities[3]

    @property
    def max_norms(self) -> tuple:
        """Largest node norm of every snapshot."""
        return self._quantities[4]

    @functools.cached_property
    def horizon(self) -> float:
        """Wall time covered by the completed steps."""
        sched = self.schedule
        if self.completed_steps == sched.steps:
            return sched.total
        return self.completed_steps * sched.h

    @functools.cached_property
    def _windows(self) -> np.ndarray:
        """Start, end and tau of every completed step's window
        (`StepSchedule.window`), the rows of a (3, completed_steps) array."""
        sched = self.schedule
        return np.array([(*sched.window(k), sched.tau(k))
                         for k in range(1, self.completed_steps + 1)]).T

    @functools.cached_property
    def _boundary_values(self) -> np.ndarray:
        """Positions of the boundary nodes' values in a flattened state."""
        width = self.states[0, 0].size
        return (np.flatnonzero(self.domain.is_boundary)[:, None] * width
                + np.arange(width)).ravel()

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
    upper blocks A_i,i+1 as transposed views of C-contiguous lower blocks
    A_i+1,i, and the coupling that carries fixed boundary lanes into the
    right-hand side as (interior lane, boundary lane) index pairs, each
    entry of weight w_e.  The blocks are assembled straight
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
    # each A_i+1,i C-contiguous at the head of its row, which the solve's
    # products read without a copy
    lower = np.zeros((sizes.size - 1, big * big))
    diag[block, local, local] = w_e * degree + w_p
    coupled = cols >= 0
    r, c = rows[coupled], cols[coupled]
    hit = block[c] == block[r]
    diag[block[r[hit]], local[r[hit]], local[c[hit]]] = -w_e
    hit = block[c] == block[r] + 1
    lower[block[r[hit]],
          local[c[hit]] * sizes[block[r[hit]]] + local[r[hit]]] = -w_e

    c_rows, c_cols = rows[~coupled], dst[~coupled]
    order = np.argsort(c_rows * row_of.size - c_cols)
    return ([slice(a, b) for a, b in zip(starts[:-1], starts[1:])],
            [d[:s, :s] for d, s in zip(diag, sizes)],
            [low[:s * t].reshape(t, s).T
             for low, s, t in zip(lower, sizes, sizes[1:])],
            (c_rows[order], c_cols[order]))


class _BlockFactor:
    """Block LDL^T factor of a frozen-pairing system, from one forward
    sweep over its blocks: the inverse of every Schur complement
    S_i = A_ii - A_i,i-1 G_i-1, with S_0 = A_00, and G_i = S_i^-1 A_i,i+1.
    For the M-matrix of a frozen system every S_i^-1 is entrywise
    nonnegative and every G_i nonpositive.  Their entries below the
    smallest normal double are stored as zero."""

    def __init__(self, domain: GridDomain, tau: float, sigma):
        self.blocks, diag, upper, self.couple = _frozen_system(
            domain, tau, sigma)
        self.w_e = domain.delta ** (domain.m - 2)
        self.lower = [u.T for u in upper]  # C-contiguous
        self.inv, self.g = [], []
        for i, a in enumerate(diag):
            s = a - self.lower[i - 1] @ self.g[i - 1] if i else a
            self.inv.append(np.linalg.inv(s))
            if i < len(upper):
                self.g.append(self.inv[i] @ upper[i])
        # subnormal entries (tiny steps) slow every product that reads them
        tiny = np.finfo(float).tiny
        for b in self.inv + self.g:
            b[np.abs(b) < tiny] = 0.0
        self.one = self.inv[0].dot if len(diag) == 1 else None

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
        array.  A chain calls the bound product `one` of a one-block
        factor in its place, with no Python frame."""
        x = np.empty(rhs.shape) if out is None else out
        dot = np.dot
        z = None
        for i, blk in enumerate(self.blocks):
            y = rhs[blk] - dot(self.lower[i - 1], z) if i else rhs[blk]
            z = dot(self.inv[i], y, out=x[blk])
        for i in range(len(self.g) - 1, -1, -1):
            x[self.blocks[i]] -= dot(self.g[i], x[self.blocks[i + 1]])
        return x


class _ChainState:
    """A chain of implicit steps from f0 over a window of state rows:
    step k, of size taus[k - 1], writes the row of state k, row k - base.

    The state array holds window + 1 rows, at first f0's values in row 0
    and base 0.  By default the window is the whole schedule, so state k
    is row k and the array keeps every state.  A shorter window rolls
    when a block of steps would run past its last row: its rows up to
    the block's start are checked finite and in canonical order, that
    start is copied to row 0 and becomes the base.  Steps that repeat
    their start (a rejected run, a fixed point) are copied when the
    window keeps every state and relabelled otherwise: the start's row
    then stands for the last of them.

    It holds the block factor of the frozen-pairing system of one (tau,
    edge pairing) key, the boundary term of its right-hand side, that
    side's layout and the scale w_n / tau, which a new key replaces; the
    edge pairing of its last state; and its per-step log.
    Every state has the boundary rows of f0, bit for bit, so the boundary
    term is computed once per factorization."""

    def __init__(self, f0: QGridFunction, taus, keep_all: bool = True):
        if not 0.0 < min(taus) <= max(taus) < math.inf:
            raise ValueError("tau must be positive and finite")
        self.domain = domain = f0.domain
        self.log = _Reports(taus)
        self.ea, self.eb = np.ascontiguousarray(domain.edges.T)
        # rows of an n = 1 block, a run of steps guarded at once: the cap
        # bounds the node and edge arrays that score them to _BLOCK_VALUES
        self.cap = max(1, _BLOCK_VALUES // (
            max(domain.num_nodes, len(self.ea)) * f0.q))
        self.window = len(taus) if keep_all else min(len(taus), self.cap)
        self.states = states = np.empty((self.window + 1,) + f0.values.shape)
        states[0], self.base = f0.values, 0
        self.inner = domain.interior
        # flat (node, branch, coordinate) indices of the interior values
        width = f0.q * f0.n
        self.lanes = (self.inner[:, None] * width + np.arange(width)).ravel()
        self.w_e, self.w_n = domain.delta ** (domain.m - 2), domain.delta**domain.m
        self.tau, self.key = None, None
        self.edge_sigma, e = _paired(states[0].take(self.ea, axis=0),
                                     states[0].take(self.eb, axis=0))
        self.log.energy[0] = self.w_e * e

    def rows(self, k: int, count: int):
        """The rows of states k to k + count, rolling the window first
        when they run past its last row."""
        r = k - self.base
        if r + count > self.window:
            _check_states(self.states[:r + 1])
            self.states[0] = self.states[r]
            self.base, r = k, 0
        return self.states[r:r + count + 1]

    def repeat(self, k: int, end: int):
        """States k + 1 to end are state k."""
        if self.window < len(self.log.taus):
            self.base += end - k
        else:
            self.states[k + 1:end + 1] = self.states[k]

    def final(self):
        """The last state, once every row the window still holds is
        checked finite and in canonical order."""
        r = self.log.steps - self.base
        _check_states(self.states[:r + 1])
        return self.states[r]

    # a solve that overflows makes a non-finite candidate, which the floor
    # rule turns into a ValueError: its overflowing and invalid operations
    # need no warning, nor do those of the rows a block solves after it
    @np.errstate(invalid="ignore", over="ignore")
    def run(self, last: int):
        """Take the steps up to `last` from where the chain stands, in
        blocks of consecutive steps of equal tau.

        Each step minimizes its objective from the step's start, and the
        floor guard keeps a candidate only if its objective is below the
        last kept value, at first the start's energy.  Two rules hold for
        every value shape.  A state of zero energy is a fixed point of
        every step: it repeats to `last`, with no sweep.  A step that keeps
        no candidate leaves state, tau, edge pairing and floor unchanged,
        so every later step of the same tau would be rejected alike: it
        repeats its start for the rest of its run of equal tau without a
        solve, or raises if its candidate is not finite.

        Only a block's body depends on the value shape.  For n = 1 the
        canonical (sorted) storage makes every pairing the identity and the
        frozen matrix is an M-matrix, whose solve keeps each node's
        branches in order, so one sweep is exact and a step is solved and
        scored as is (FlowTrajectory rejects a state out of order): the
        first block of a run is one step long and each next twice the last,
        up to `cap` rows, so a run solves no more rows after a rejection
        than it kept before it, and `_block` scores a block's rows at once.
        For n > 1 a block is one step, swept by `_sweeps`, and a step that
        does not converge ends the chain."""
        log, k = self.log, self.log.steps
        trace, energy = log.trace, log.energy
        body, cap = ((self._block, self.cap) if self.states.shape[3] == 1
                     else (self._sweeps, 1))
        for tau, run in groupby(islice(log.taus, k, last)):
            end, size = k + countOf(run, tau), 1
            while k < end and log.converged:
                if energy[k] == 0.0:
                    # a fixed point of every step: energy 0 and no sweep
                    self.repeat(k, last)
                    log.ends[k:last], log.steps = len(trace), last
                    return
                rows = self.rows(k, min(end - k, size))
                size = min(2 * size, cap)
                j = body(rows, tau, k)
                k += j
                if j == len(rows) - 1 or energy[k] == 0.0:
                    continue
                # floating point floor reached: step k + 1 kept no candidate
                if not np.isfinite(rows[j + 1]).all():
                    raise ValueError("values must be finite")
                self.repeat(k, end)
                energy[k + 1:end + 1] = energy[k]
                log.outer[k:end], log.ends[k:end] = 1, len(trace)
                k = end
        log.steps = k

    def _solve_rows(self, rows, tau: float, edge_sigma=None, node_nu=None):
        """Solve rows[1:] in place, each a step of size tau from the row
        before with every branch pairing frozen: the frozen-pairing solve
        of every chain, over a block's rows for n = 1 and into one sweep's
        row for n > 1.

        Across edge (a, b), branch i at a meets branch edge_sigma[e, i] at
        b; interior node j compares its branch i with branch node_nu[j, i]
        of the start; None, and only None, stands for the identity pairing
        on every row.  The factor, boundary term and right-hand side layout
        are those of the last solve when tau and the edge pairing are the
        same, new ones otherwise.  For the identity edge pairing the matrix
        is q copies of one scalar block over the interior nodes and the
        right-hand side has one column per (branch, coordinate); otherwise
        the columns are the n coordinates of every branch lane.  Either way
        all columns go through one block solve, in which a negated column
        is solved with the same arithmetic, so +/- data (q = 2) stay
        exactly symmetric.

        The start's interior values are gathered once into a work array,
        node_nu applied; a step is three numpy calls, given their output
        by position: it scales its start row by the factorization's 0-d
        scale, adds the boundary term and solves into the next row, with
        no Python frame for a one-block factor (its bound product `one`).
        The rows, a contiguous slice of the window whose reshape is a view,
        are scattered back at the end in one assignment over the flat
        interior lanes, and the work array is freed before the rows are
        scored."""
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
            self.scale = np.array(self.w_n / tau)
        solve = self.factor.one or self.factor.solve
        boundary, scale = self.boundary, self.scale
        multiply, add, inner = np.multiply, np.add, self.inner
        work = np.empty((len(rows), len(inner)) + rows.shape[2:])
        np.take(rows[0], inner, axis=0, out=work[0])
        if node_nu is not None:
            work[0] = np.take_along_axis(work[0], node_nu[:, :, None], axis=1)
        steps = work.reshape((len(rows),) + self.shape)
        rhs = np.empty(steps.shape[1:])
        start = steps[0]
        for step in steps[1:]:
            multiply(scale, start, rhs)
            add(rhs, boundary, rhs)
            solve(rhs, step)
            start = step
        rows[1:] = rows[0]  # the boundary rows
        rows.reshape(len(rows), -1)[1:, self.lanes] = work[1:].reshape(
            len(work) - 1, -1)

    def _block(self, rows, tau: float, k: int) -> int:
        """Steps k + 1 to k + len(rows) - 1 of an n = 1 chain, solved one
        after the other, `_solve_rows`, then all scored in one pass: E_k
        and P_k by one `grid._paired_sums` call each over the block's rows.
        The steps are kept up to the first whose E_k + P_k / tau is not
        below E_k-1, or the first after a kept state of zero energy, which
        is a fixed point; returns how many were kept."""
        log = self.log
        self._solve_rows(rows, tau)
        cand = rows[1:]
        en = self.w_e * _paired_sums(cand.take(self.ea, axis=1),
                                     cand.take(self.eb, axis=1))[1]
        dist = self.w_n * _paired_sums(cand, rows[:-1])[1]
        value = en + dist / tau
        kept = value < np.concatenate(([log.energy[k]], en[:-1]))
        kept[1:] &= en[:-1] != 0.0  # a kept zero energy ends the block
        j = len(kept) if kept.all() else int(kept.argmin())
        trace_end = len(log.trace)
        log.trace.frombytes(value[:j].tobytes())
        log.energy[k + 1:k + j + 1], log.penalty[k:k + j] = en[:j], dist[:j]
        log.outer[k:k + j] = 1
        log.ends[k:k + j] = np.arange(trace_end + 1, trace_end + j + 1)
        return j

    def _sweeps(self, rows, tau: float, k: int) -> int:
        """Step k + 1 of an n > 1 chain, sweep by sweep.  Each sweep solves
        the frozen system into rows[1], `_solve_rows`, puts it in canonical
        order and matches it once across the edges and once against the
        step's start, which gives its objective and the next sweep's
        pairings; the first sweep takes the start's edge pairing and the
        identity at the nodes.  A sweep that does not lower the objective
        below the last kept value ends the step, as does the pairing fixed
        point, which for q = 1 is the first kept sweep; the last kept sweep
        is written back to rows[1] from its canonical copy.  A step still
        moving after _MAX_OUTER sweeps is flagged as not converged.
        Returns 1 if a sweep was kept, 0 otherwise."""
        log, (prev, row) = self.log, rows
        ea, eb, inner, w_e, w_n = self.ea, self.eb, self.inner, self.w_e, self.w_n
        best = e = log.energy[k]
        edge_in, nu_in, kept = self.edge_sigma, None, None
        for outer in range(1, _MAX_OUTER + 1):
            self._solve_rows(rows, tau, edge_in, nu_in)
            c = _canonical(row)
            edge_out, en = _paired(c.take(ea, axis=0), c.take(eb, axis=0))
            node_sigma, dist = _paired(c, prev)
            en, dist = w_e * en, w_n * dist
            value = en + dist / tau
            if not value < best:
                # floating point floor reached
                if kept is None:
                    return 0
                if not np.isfinite(c).all():
                    raise ValueError("values must be finite")
                break
            log.trace.append(value)
            kept, best, e = c, value, en
            self.edge_sigma, log.penalty[k] = edge_out, dist
            nu_out = None if node_sigma is None else node_sigma[inner]
            if ((edge_out is edge_in or np.array_equal(edge_out, edge_in))
                    and (nu_out is nu_in or np.array_equal(nu_out, nu_in))):
                break
            edge_in, nu_in = edge_out, nu_out
        else:
            log.converged = False
        row[...] = kept
        log.energy[k + 1], log.outer[k], log.ends[k] = e, outer, len(log.trace)
        return 1


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


def _run_chain(f0: QGridFunction, schedule: StepSchedule,
               keep_all: bool = True) -> _ChainState:
    """The chain of implicit steps of schedule from f0.  The first step
    is minimize_step's, so that a profile of the run sees one call per
    chain, and the rest continue in the same loop; a step that fails to
    converge ends the chain, its best iterate kept and flagged."""
    taus = schedule.taus()
    chain = _ChainState(f0, taus, keep_all)
    minimize_step(f0, taus[0], step_index=1, _factor=chain)
    chain.run(len(taus))
    return chain


def run_flow(f0: QGridFunction, schedule: StepSchedule) -> FlowTrajectory:
    """Run the full chain of implicit steps into one state array, which
    a step that fails to converge truncates."""
    chain = _run_chain(f0, schedule)
    return FlowTrajectory(schedule, f0.domain,
                          chain.states[:chain.log.steps + 1], chain.log)


def final_state(f0: QGridFunction, schedule: StepSchedule) -> QGridFunction:
    """The last state of run_flow(f0, schedule), bit for bit, from the
    same chain over a window of one n = 1 block of rows, so that its
    states take memory that does not grow with the number of steps (its
    per-step log, a few tens of bytes a step, does); every state it steps
    through is checked as a trajectory's are.  Raises ValueError if a
    step does not converge, which ends the chain early."""
    chain = _run_chain(f0, schedule, keep_all=False)
    if chain.log.steps < schedule.steps:
        raise ValueError(f"the chain stopped after {chain.log.steps} of "
                         f"{schedule.steps} steps")
    return QGridFunction(f0.domain, chain.final())


def _locate(traj: FlowTrajectory, t: np.ndarray) -> tuple:
    """For each time of the 1-D array t: the index j of the state it
    reads, the weight a of state j + 1, and whether it lies inside a
    window, where it reads their blend at weight a.  Times within 1e-12
    max(1, horizon) of [0, horizon] are clamped into it; any other time
    raises ValueError."""
    horizon = traj.horizon
    slack = 1e-12 * max(1.0, abs(horizon))
    outside = ~((t >= -slack) & (t <= horizon + slack))
    if outside.any():
        raise ValueError(f"time {t[outside][0]} outside [0, {horizon}]")
    if traj.completed_steps == 0:
        return (np.zeros(len(t), dtype=np.int64), np.zeros(len(t)),
                np.zeros(len(t), dtype=bool))
    t = np.minimum(np.maximum(t, 0.0), horizon)
    i = np.minimum((t / traj.schedule.h).astype(np.int64),
                   traj.completed_steps - 1)
    start, end, tau = traj._windows[:, i]
    past = t > start
    return i + (past & (t >= end)), (t - start) / tau, past & (t < end)


def _blend(traj: FlowTrajectory, j: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(1 - a) state j + a state j + 1 for each index j and weight a, the
    branches of each node paired optimally, as one read-only stack: for
    n > 1 by one `match_rows` call over every stacked row, then put in
    canonical order by one call.  For n = 1 both rows are sorted and the
    identity pairing is optimal; their blend is sorted too, since rounding
    is monotone, so it is not re-sorted.  Boundary rows are pinned rather
    than blended: both states share them bitwise and (1-a)*v + a*v can
    drift by an ulp."""
    prev, nxt = traj.states[j], traj.states[j + 1]
    p, nodes, q, n = prev.shape
    if n > 1:
        sigma = match_rows(prev.reshape(-1, q, n), nxt.reshape(-1, q, n))[0]
        nxt = np.take_along_axis(nxt, sigma.reshape(p, nodes, q, 1), axis=2)
    flat, bnd = prev.reshape(p, nodes * q * n), traj._boundary_values
    pinned = flat[:, bnd]
    w = a[:, None, None, None]
    prev *= 1.0 - w
    nxt *= w
    prev += nxt
    flat[:, bnd] = pinned
    if n > 1:
        return _canonical(prev)
    prev.flags.writeable = False
    return prev


def evaluate_at_time(traj: FlowTrajectory,
                     t: float | np.ndarray) -> QGridFunction | np.ndarray:
    """State of the interpolated trajectory at wall time t, or the states
    at each time of a 1-D array t as one read-only (len(t), num_nodes, q,
    n) array.

    With k the step whose wall time contains t, the trajectory is state
    k - 1 up to the start of `StepSchedule.window(k)`, state k from its end,
    and the matched blend of the two inside it: linear interpolation for
    the uniform schedule, a plateau and a terminal ramp of length tau_k for
    the geometric one.  Works for every value shape.  A scalar t is the
    one-element case, returned as a QGridFunction: the snapshot itself
    outside the windows, a view of the blend inside one.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("times must be a number or a 1-D array")
    j, a, inside = _locate(traj, times.reshape(-1))
    if times.ndim == 0:
        if inside[0]:
            return _view(traj.domain, _blend(traj, j, a)[0])
        return traj.snapshots[j[0]]
    if inside.all():
        return _blend(traj, j, a)
    states = traj.states[j]
    if inside.any():
        states[inside] = _blend(traj, j[inside], a[inside])
    states.flags.writeable = False
    return states


def _holder_slacks(traj: FlowTrajectory, t: np.ndarray,
                   s: np.ndarray) -> np.ndarray:
    """`holder_margin` at each pair of times of the 1-D arrays t < s: one
    `evaluate_at_time` call for both arrays and one `grid._paired_sums`
    call for the distances, each pair's slack the bits of its own call."""
    states = evaluate_at_time(traj, np.concatenate([t, s]))
    d, p = traj.domain, len(t)
    dist = np.sqrt(d.delta**d.m * _paired_sums(states[:p], states[p:])[1])
    bound = np.sqrt((s - t) + traj.schedule.h) * math.sqrt(traj.energies[0])
    return bound - dist


def holder_margin(traj: FlowTrajectory, t: float, s: float) -> float:
    """Slack in the time regularity bound
    distance(F(t), F(s)) <= sqrt((s - t) + h) * sqrt(initial energy)."""
    if not t < s:
        raise ValueError("need t < s")
    return float(_holder_slacks(traj, np.array([t]), np.array([s]))[0])
