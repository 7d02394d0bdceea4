"""Named verification checks with pass/fail margins.

Each check returns a CheckResult of its margin, the clearance to the
failing boundary, from which CheckResult derives the verdict: a result passes
exactly when its margin is nonnegative.  A structural failure has margin -inf.
Value-level checks sample random inputs from a caller-supplied generator;
trajectory-level checks read the per-state quantities FlowTrajectory
computes once each, or slices of its state array, never the solver's own
reports or snapshot views.  Both reduce
their per-sample or per-step clearances through one helper: the smallest
clearance and its index, the first minimum on ties, and -inf at index 0
when there is none, so that a check with nothing to reduce fails as unable
to apply (a null margin in the reports) instead of passing vacuously.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .qspace import _canonical, ascending_projection, match_rows
from .grid import (
    QGridFunction,
    _paired_sums,
    build_domain,
    dirichlet_energy,
    l2_distance_sq,
)
from .morseflow import (
    _BLOCK_VALUES as _STACK_VALUES,
    FlowTrajectory,
    _holder_slacks,
    evaluate_at_time,
    minimize_step,
)
from .oracle import brute_force_step, implicit_euler_chain

@dataclass(frozen=True)
class CheckResult:
    """A check's margin and the verdict derived from it: passed exactly
    when margin >= 0, a zero margin stored as +0.0."""

    name: str
    passed: bool = field(init=False)
    margin: float
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "margin", self.margin + 0.0)
        object.__setattr__(self, "passed", self.margin >= 0.0)


# evaluation order used by the verify command
CHECK_NAMES = (
    "metric_axioms",
    "sorted_matching",
    "embedding_isometry",
    "ascending_projection",
    "translation_identity",
    "energy_monotonicity",
    "step_estimate",
    "eta_residual",
    "symmetry",
    "positivity",
    "max_principle",
    "boundary_trace",
    "holder",
    "brute_force",
    "oracle_equivalence",
)

__all__ = ["CheckResult", "CHECK_NAMES", "evaluate"]
__all__ += ["check_" + name for name in CHECK_NAMES]


def check_metric_axioms(rng, samples: int = 200) -> CheckResult:
    """Symmetry to 1e-12, exact zero on equal multisets, positive distance
    on distinct random ones, triangle inequality with 1e-10 slack.  All
    samples are drawn first, then scored by `_metric_distances`."""
    draws = []
    for _ in range(samples):
        q = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        # a, b, c and a permuted copy of a, zero-padded to n = 3
        ops = np.zeros((4, q, 3))
        ops[:3, :, :n] = rng.normal(size=(3, q, n))
        ops[3] = ops[0][rng.permutation(q)]
        draws.append((q, ops))
    dab, dba, same, dbc, dac = _metric_distances(draws).T
    margin = _tightest(np.concatenate([
        1e-12 - np.abs(dab - dba), dab - 1e-12, dab + dbc + 1e-10 - dac]))[0]
    nonzero = np.flatnonzero(same != 0.0)
    worst = ""
    if nonzero.size:
        worst = f"nonzero distance {same[nonzero[-1]]:g} on a permuted copy"
        margin = -math.inf
    detail = worst or (
        f"{samples} samples, q<=6, n<=3; smallest clearance {margin:.3e}"
    )
    return CheckResult("metric_axioms", margin, detail)


def _metric_distances(draws) -> np.ndarray:
    """d(a, b), d(b, a), d(a, permuted a), d(b, c) and d(a, c) of each
    (q, operands) draw: each q group's operands put in canonical order by
    one call and scored by one `match_rows` call.  The zero coordinates
    padding n to 3 add exact zeros to every squared distance and keep the
    lexicographic order, and for n = 1 the identity, the lexicographically
    smallest pairing, is optimal, so each distance has the bits of its
    (q, n) group scored alone."""
    dist = np.empty((len(draws), 5))
    for idx in _groups(d[0] for d in draws).values():
        a, b, c, perm = _canonical(np.stack([draws[i][1] for i in idx], axis=1))
        cost = match_rows(np.concatenate([a, b, a, b, a]),
                          np.concatenate([b, a, perm, c, c]))[1]
        dist[idx] = np.sqrt(cost).reshape(5, -1).T
    return dist


def check_sorted_matching(rng, samples: int = 200) -> CheckResult:
    """For n = 1 the identity pairing of the canonical (ascending) forms
    must equal the exhaustive minimum over all pairings exactly.  All
    samples are drawn first; each q group is then matched by one
    `match_rows` call and its exhaustive minimum taken over the
    permutations, in chunks of at most _STACK_VALUES squared
    differences."""
    draws = []
    for _ in range(samples):
        q = int(rng.integers(2, 7))
        draws.append((q, rng.normal(size=q), rng.normal(size=q)))
    gaps = np.empty(samples)
    identity_ok = True
    for q, idx in _groups(d[0] for d in draws).items():
        a, b = (np.sort(np.stack([draws[i][k] for i in idx])) for k in (1, 2))
        sigma, cost = match_rows(a[..., None], b[..., None])
        identity_ok &= bool((sigma == np.arange(q)).all())
        perms = np.array(list(itertools.permutations(range(q))))
        best = np.full(len(idx), np.inf)
        size = max(1, _STACK_VALUES // (len(idx) * q))
        for chunk in range(0, len(perms), size):
            d = b[:, perms[chunk:chunk + size]]
            np.subtract(a[:, None], d, out=d)
            np.square(d, out=d)
            best = np.minimum(best, d.sum(axis=2).min(axis=1))
        gaps[idx] = np.abs(cost - best)
    margin = _tightest(-gaps)[0]
    detail = f"{samples} samples, largest identity-vs-exhaustive gap {-margin:.3e}"
    if not identity_ok:
        detail = "non-identity pairing returned for canonical operands"
        margin = -math.inf
    return CheckResult("sorted_matching", margin, detail)


def check_embedding_isometry(rng, samples: int = 200) -> CheckResult:
    """For n = 1 the Euclidean distance of the sorted tuples equals the
    matching distance (1e-12).  All samples are drawn first; each q group
    is then sorted by `np.sort` for the Euclidean side and put in
    canonical order for one `match_rows` call, so a fault in either
    ordering shows."""
    draws = []
    for _ in range(samples):
        q = int(rng.integers(1, 7))
        draws.append((q, rng.normal(size=q), rng.normal(size=q)))
    gaps = np.empty(samples)
    for idx in _groups(d[0] for d in draws).values():
        a, b = (np.stack([draws[i][k] for i in idx]) for k in (1, 2))
        d = np.sort(a) - np.sort(b)
        cost = match_rows(_canonical(a[..., None]), _canonical(b[..., None]))[1]
        gaps[idx] = np.abs(np.sqrt(np.vecdot(d, d)) - np.sqrt(cost))
    return CheckResult(
        "embedding_isometry",
        _tightest(1e-12 - gaps)[0],
        f"{samples} samples, largest embedding-vs-metric gap "
        f"{np.max(gaps, initial=0.0):.3e}",
    )


_PROJECTION_FAULTS = ("", "projection output not a fixed ascending point",
                      "projection moved an already ascending input")


def check_ascending_projection(rng, samples: int = 200) -> CheckResult:
    """The projection's output is a fixed ascending point, ascending input
    stays fixed exactly, and distances never expand (1e-12).  All samples
    are drawn first, each into a row padded to q = 8, then scored by
    `_projection_scores`."""
    x, y = (np.full((samples, 8), np.finfo(float).max) for _ in range(2))
    qs = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        qs[i] = q = int(rng.integers(2, 9))
        x[i, :q] = rng.normal(size=q)
        if rng.random() < 0.3:  # exercise ties
            x[i, rng.integers(0, q)] = x[i, rng.integers(0, q)]
        y[i, :q] = rng.normal(size=q)
    lips, faults = _projection_scores(qs, x, y)
    margin = _tightest(lips)[0]
    faulty = np.flatnonzero(faults)
    detail = _PROJECTION_FAULTS[faults[faulty[-1]]] if faulty.size else ""
    return CheckResult(
        "ascending_projection",
        -math.inf if detail else margin,
        detail or f"{samples} samples, smallest Lipschitz clearance {margin:.3e}",
    )


def _projection_scores(qs, x, y) -> tuple:
    """Lipschitz clearance and index of the fault in _PROJECTION_FAULTS,
    0 for none, of each sample: the first qs entries of its rows x and y,
    padded with the largest double.  Every sample's x, y and sorted x go
    through one `ascending_projection` call, its projected x through one
    more.  Pool-adjacent-violators never pools a block into a larger later
    one, so the padding stays inert and each sample's entries keep the
    bits of their own projection; faults read them alone, and clearances
    take one `np.vecdot` per q group, the bits of its unpadded rows."""
    own = np.arange(x.shape[1]) < qs[:, None]
    xs = np.sort(x)
    px, py, pxs = np.split(ascending_projection(np.concatenate([x, y, xs])), 3)
    fixed = (((ascending_projection(px) == px) | ~own).all(axis=1)
             & ((np.diff(px) >= 0.0) | ~own[:, 1:]).all(axis=1))
    faults = np.where(((pxs != xs) & own).any(axis=1), 2, ~fixed)
    dx, dp = x - y, px - py
    lips = np.empty(len(qs))
    for q, idx in _groups(qs.tolist()).items():
        gx, gp = dx[idx, :q], dp[idx, :q]
        lips[idx] = (np.sqrt(np.vecdot(gx, gx)) + 1e-12
                     - np.sqrt(np.vecdot(gp, gp)))
    return lips, faults


def _translation_gaps(rng, domain, pairs: int, q: int, n: int) -> np.ndarray:
    """Relative gap of the translation identity for each of `pairs` random
    pairs of q-valued f and single-valued phi in R^n on domain, drawn a
    block of at most _STACK_VALUES values of f at a time in the per-pair
    order: f's values, then phi's."""
    nodes = domain.num_nodes
    ea, eb = domain.edges[:, 0], domain.edges[:, 1]
    w = domain.delta ** (domain.m - 2)

    def energies(values):  # of each stacked (p, nodes, q, n) state
        return w * _paired_sums(np.take(values, ea, axis=1),
                                np.take(values, eb, axis=1))[1]

    step = max(1, _STACK_VALUES // (nodes * q * n))
    gaps = [np.empty(0)]
    for start in range(0, pairs, step):
        size = min(step, pairs - start)
        f = np.empty((size, nodes, q, n))
        phi = np.empty((size, nodes, n))
        for k in range(size):
            f[k] = rng.normal(size=(nodes, q, n))
            phi[k] = rng.normal(size=(nodes, n))
        f = _canonical(f)
        eta = f.mean(axis=2)
        deta = np.take(eta, ea, axis=1) - np.take(eta, eb, axis=1)
        dphi = np.take(phi, ea, axis=1) - np.take(phi, eb, axis=1)
        cross = w * (deta * dphi).reshape(size, -1).sum(axis=1)
        rhs = energies(f) + 2.0 * q * cross + q * energies(phi[:, :, None])
        lhs = energies(_canonical(f + phi[:, :, None]))
        gaps.append(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))
    return np.concatenate(gaps)


def check_translation_identity(rng, domain, q: int, pairs: int = 50) -> CheckResult:
    """Shifting every branch by a single-valued field phi expands the energy
    as Dir(f) + 2q * <edge differences of the branch mean, of phi>
    + q * Dir(phi); the pairing-dependent part is unchanged by the shift, so
    the identity is exact up to rounding (1e-10 relative).  The pairs are
    stacked on a leading axis, a block of them at a time, and each block
    is scored together."""
    scalar = _translation_gaps(rng, domain, pairs, q, 1)
    # vector-valued spot checks on a small interval, pairings nontrivial
    vector = _translation_gaps(rng, build_domain(1, 11), 8, 2, 2)
    worst = float(np.max(np.concatenate([scalar, vector]), initial=0.0))
    margin = 1e-10 - worst
    return CheckResult(
        "translation_identity",
        margin,
        f"{pairs} scalar + 8 vector pairs, largest relative gap {worst:.3e}",
    )


def _groups(keys) -> dict:
    """Indices of the samples sharing each key, keys in first-seen order."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _tightest(clearances) -> tuple:
    """Smallest clearance and its 1-based index, the first on ties;
    (-inf, 0) when there is none."""
    c = np.asarray(clearances, dtype=float)
    if c.size == 0:
        return -math.inf, 0
    k = int(np.argmin(c))
    return float(c[k]), k + 1


def check_energy_monotonicity(traj: FlowTrajectory) -> CheckResult:
    e = np.asarray(traj.energies)
    margin, worst_k = _tightest(e[:-1] + 1e-10 * np.maximum(1.0, e[:-1]) - e[1:])
    return CheckResult(
        "energy_monotonicity",
        margin,
        f"{len(e) - 1} steps, tightest clearance {margin:.3e} at step {worst_k}",
    )


def check_step_estimate(traj: FlowTrajectory) -> CheckResult:
    raw, worst_k = _tightest(traj.estimate_margins)
    margin = raw + 1e-10
    return CheckResult(
        "step_estimate",
        margin,
        f"smallest penalty-bound slack {raw:.3e} at step {worst_k}",
    )


# rounding term of eta_residual's threshold, c eps with c = 256: a state
# carries rounding of a few eps times its size, which the residual divides
# by tau; on the geometric tails measured, tau times the residual reached
# at most 43 eps (1 + max |branch mean|) on random data, 2 eps on smooth
_ETA_ROUNDING = 256 * np.finfo(float).eps


def check_eta_residual(traj: FlowTrajectory) -> CheckResult:
    """Branch-mean step equation residual at every converged step k,
    against the threshold max(1e-8, c eps / tau_k) * (1 + max |branch
    mean|), c = 256: 1e-8 wherever tau_k >= 256 eps * 1e8, about 5.7e-6,
    and the states' rounding divided by tau_k below that."""
    taus = traj.schedule.taus()
    paired = list(enumerate(zip(traj.reports, traj.eta_residuals), start=1))
    steps = [(k, res) for k, (report, res) in paired if report.converged]
    margin, i = _tightest([max(1e-8, _ETA_ROUNDING / taus[k - 1])
                           * (1.0 + traj.mean_norms[k]) - res
                           for k, res in steps])
    worst = (f"residual {steps[i - 1][1]:.3e} at step {steps[i - 1][0]}"
             if steps else "no converged steps")
    skipped = len(paired) - len(steps)
    detail = worst + (f", {skipped} non-converged steps skipped" if skipped else "")
    return CheckResult("eta_residual", margin, detail)


def check_symmetry(traj: FlowTrajectory) -> CheckResult:
    worst = max(traj.mean_norms)
    return CheckResult("symmetry", 1e-10 - worst,
                       f"largest |branch mean| over all nodes and steps {worst:.3e}")


def check_positivity(traj: FlowTrajectory) -> CheckResult:
    """Top branch strictly above 1e-12 at interior nodes from step 1 on;
    a value at the threshold fails by one ulp of it."""
    interior = traj.domain.interior
    if traj.completed_steps == 0 or len(interior) == 0:
        return CheckResult("positivity", -math.inf,
                           "needs at least one step and an interior node")
    low = float(traj.states[1:, :, -1, 0].min(axis=0)[interior].min())
    margin = low - 1e-12 if low != 1e-12 else -math.ulp(1e-12)
    return CheckResult("positivity", margin,
                       f"smallest interior top-branch value after step 1 is {low:.3e}")


def check_max_principle(trajs) -> CheckResult:
    """Max node norm non-increasing (within 1e-12) along every run, for
    either schedule: the discrete max principle holds step by step for
    any tau."""
    norms = [np.asarray(traj.max_norms) for traj in trajs]
    clear = [n[:-1] + 1e-12 - n[1:] for n in norms]
    margin = _tightest(np.concatenate(clear) if clear else ())[0]
    return CheckResult("max_principle", margin,
                       f"{len(norms)} run(s), tightest monotonicity "
                       f"clearance {margin:.3e}")


def check_boundary_trace(traj: FlowTrajectory, rng, times: int = 8) -> CheckResult:
    """Boundary rows of every snapshot and of the interpolated trajectory at
    `times` sampled times, against those of the initial snapshot, in
    blocks of at most _STACK_VALUES values: one reduction per block of
    snapshots' boundary rows, one `evaluate_at_time` call per block of
    sampled states."""
    if traj.completed_steps == 0:
        return CheckResult("boundary_trace", -math.inf,
                           "needs at least one step")
    states, bnd = traj.states, traj.domain.is_boundary
    ref = states[0, bnd]
    sampled = rng.uniform(0.0, traj.horizon, size=times)
    rows = max(1, _STACK_VALUES // ref.size)
    size = max(1, _STACK_VALUES // states[0].size)
    blocks = itertools.chain(
        (states[lo:lo + rows, bnd] for lo in range(1, len(states), rows)),
        (evaluate_at_time(traj, sampled[lo:lo + size])[:, bnd]
         for lo in range(0, times, size)))
    dev = max(float(np.max(np.abs(v - ref))) for v in blocks)
    return CheckResult(
        "boundary_trace",
        -dev,
        "boundary rows identical on every snapshot and sampled time"
        if dev == 0.0 else f"largest boundary deviation {dev:.3e}",
    )


def check_holder(traj: FlowTrajectory, rng, pairs: int = 100) -> CheckResult:
    """Time regularity bound, `holder_margin`, at `pairs` sampled time
    pairs.  All pairs are drawn first; those at least 1e-12 apart are then
    scored in blocks of at most _STACK_VALUES stacked state values, each
    by one `evaluate_at_time` and one `grid._paired_sums` call."""
    t, s = np.sort(rng.uniform(0.0, traj.horizon, size=(pairs, 2))).T
    apart = s - t >= 1e-12
    t, s = t[apart], s[apart]
    size = max(1, _STACK_VALUES // (2 * traj.states[0].size))
    slack = [_holder_slacks(traj, t[lo:lo + size], s[lo:lo + size])
             for lo in range(0, len(t), size)]
    raw = _tightest(np.concatenate([np.empty(0), *slack]))[0]
    margin = raw + 1e-8
    return CheckResult(
        "holder",
        margin,
        f"{len(t)} sampled time pairs, smallest bound slack {raw:.3e}",
    )


def check_brute_force(rng, instances: int = 20) -> CheckResult:
    """Solver objective vs exhaustive global minimum on tiny instances.
    All instances are drawn first, each its values and then its tau; each
    domain's instances are then solved by one stacked `brute_force_step`
    call."""
    domains = {res: build_domain(1, res) for res in (3, 5)}
    draws = []
    for i in range(instances):
        domain = domains[3 if i % 4 == 0 else 5]
        f_prev = QGridFunction(
            domain, rng.normal(size=(domain.num_nodes, 2, 1))
        )
        draws.append((domain.resolution, f_prev,
                      float(10.0 ** rng.uniform(-1.0, 0.0))))
    gaps = np.empty(instances)
    for idx in _groups(d[0] for d in draws).values():
        f_prevs, taus = [draws[i][1] for i in idx], [draws[i][2] for i in idx]
        best = brute_force_step(f_prevs, taus)
        for i, f_prev, tau, (_, glob) in zip(idx, f_prevs, taus, best):
            f_loc, _ = minimize_step(f_prev, tau)
            gaps[i] = (dirichlet_energy(f_loc)
                       + l2_distance_sq(f_loc, f_prev) / tau) - glob
    return CheckResult(
        "brute_force",
        _tightest(np.concatenate([1e-8 - np.abs(gaps), gaps + 1e-10]))[0],
        f"{instances} instances, largest objective gap "
        f"{np.max(np.abs(gaps), initial=0.0):.3e}",
    )


def check_oracle_equivalence(traj: FlowTrajectory) -> CheckResult:
    """Scalar flow on the interval against the reference heat chain,
    solved by its own scalar Thomas recursion, snapshot by snapshot, in
    the max norm.  Sorted storage pairs each branch with itself and the
    solve keeps branches in order, so every branch column is its own heat
    chain: one chain call per column steps the reference from the initial
    snapshot through every completed step at the run's own taus."""
    if (traj.domain.m, traj.states.shape[3]) != (1, 1):
        return CheckResult("oracle_equivalence", -math.inf,
                           "needs an m = 1, n = 1 run")
    if traj.completed_steps == 0:
        return CheckResult("oracle_equivalence", -math.inf,
                           "needs at least one step")
    taus = traj.schedule.taus()[:traj.completed_steps]
    worst = max(float(np.max(np.abs(c - implicit_euler_chain(traj.domain, c[0], taus))))
                for c in traj.states[..., 0].transpose(2, 0, 1))
    return CheckResult("oracle_equivalence", 1e-8 - worst,
                       f"{traj.completed_steps} snapshots, largest max-norm gap "
                       f"{worst:.3e}")


def evaluate(names, rng, traj: FlowTrajectory, sym=None, q1=None) -> list:
    """Results of the named checks in order, sampled ones drawing from rng.
    symmetry and positivity read the symmetric run sym, eta_residual and
    oracle_equivalence the one-branch run q1 (both default to traj),
    max_principle each distinct run once, the rest traj.  Checks are looked
    up in this module by name at call time."""
    sym = traj if sym is None else sym
    q1 = traj if q1 is None else q1
    args = {
        "translation_identity": (rng, traj.domain, traj.states.shape[2]),
        "energy_monotonicity": (traj,),
        "step_estimate": (traj,),
        "eta_residual": (q1,),
        "symmetry": (sym,),
        "positivity": (sym,),
        "max_principle": (list({id(t): t for t in (traj, sym, q1)}.values()),),
        "boundary_trace": (traj, rng),
        "holder": (traj, rng),
        "oracle_equivalence": (q1,),
    }
    unknown = [name for name in names if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}")
    return [globals()["check_" + name](*args.get(name, (rng,))) for name in names]
