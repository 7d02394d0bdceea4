"""Named verification checks with pass/fail margins.

Each check returns a CheckResult of its margin, the clearance to the
failing boundary, from which CheckResult derives the verdict: a result passes
exactly when its margin is nonnegative.  A structural failure has margin -inf.
Value-level checks sample random inputs from a caller-supplied generator;
trajectory-level checks read the per-step quantities FlowTrajectory
computes from its snapshots, never the solver's own reports.  Both reduce
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
    branch_mean_field,
    build_domain,
    dirichlet_energy,
    l2_distance_sq,
)
from .morseflow import (
    FlowTrajectory,
    evaluate_at_time,
    holder_margin,
    minimize_step,
)
from .oracle import brute_force_step, implicit_euler_chain

__all__ = [
    "CheckResult",
    "CHECK_NAMES",
    "check_metric_axioms",
    "check_sorted_matching",
    "check_embedding_isometry",
    "check_ascending_projection",
    "check_translation_identity",
    "check_energy_monotonicity",
    "check_step_estimate",
    "check_eta_residual",
    "check_symmetry",
    "check_positivity",
    "check_max_principle",
    "check_boundary_trace",
    "check_holder",
    "check_brute_force",
    "check_oracle_equivalence",
    "evaluate",
]


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


def check_metric_axioms(rng, samples: int = 200) -> CheckResult:
    """Symmetry to 1e-12, exact zero on equal multisets, positive distance
    on distinct random ones, triangle inequality with 1e-10 slack.  All
    samples are drawn first; each (q, n) group is then scored by one
    `match_rows` call over its stacked canonical rows."""
    draws = []
    for _ in range(samples):
        q = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        a = rng.normal(size=(q, n))
        b = rng.normal(size=(q, n))
        c = rng.normal(size=(q, n))
        draws.append((q, n, a, b, c, a[rng.permutation(q)]))
    # per sample: d(a, b), d(b, a), d(a, permuted a), d(b, c), d(a, c)
    dist = np.empty((samples, 5))
    for idx in _groups(d[:2] for d in draws).values():
        a, b, c, perm = (_canonical(np.stack([draws[i][k] for i in idx]))
                         for k in range(2, 6))
        cost = match_rows(np.concatenate([a, b, a, b, a]),
                          np.concatenate([b, a, perm, c, c]))[1]
        dist[idx] = np.sqrt(cost).reshape(5, -1).T
    dab, dba, same, dbc, dac = dist.T
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


def check_sorted_matching(rng, samples: int = 200) -> CheckResult:
    """For n = 1 the identity pairing of the canonical (ascending) forms
    must equal the exhaustive minimum over all pairings exactly.  All
    samples are drawn first; each q group is then matched by one
    `match_rows` call and its exhaustive minimum taken over the
    permutations, a chunk of them at a time."""
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
        for chunk in range(0, len(perms), 24):
            d = b[:, perms[chunk:chunk + 24]]
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
    is then scored over its stacked canonical rows by one `match_rows`
    call."""
    draws = []
    for _ in range(samples):
        q = int(rng.integers(1, 7))
        draws.append((q, rng.normal(size=q), rng.normal(size=q)))
    gaps = np.empty(samples)
    for idx in _groups(d[0] for d in draws).values():
        a, b = (_canonical(np.stack([draws[i][k] for i in idx])[..., None])
                for k in (1, 2))
        d = a[..., 0] - b[..., 0]
        gaps[idx] = np.abs(np.sqrt(np.vecdot(d, d))
                           - np.sqrt(match_rows(a, b)[1]))
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
    are drawn first; each q group is then projected as stacked rows."""
    draws = []
    for _ in range(samples):
        q = int(rng.integers(2, 9))
        x = rng.normal(size=q)
        if rng.random() < 0.3:  # exercise ties
            x[rng.integers(0, q)] = x[rng.integers(0, q)]
        draws.append((q, x, rng.normal(size=q)))
    lips = np.empty(samples)
    # per sample: the index of its fault in _PROJECTION_FAULTS, 0 for none
    faults = np.zeros(samples, dtype=np.int64)
    for idx in _groups(d[0] for d in draws).values():
        x, y = (np.stack([draws[i][k] for i in idx]) for k in (1, 2))
        xs = np.sort(x)
        px, py, pxs = np.split(ascending_projection(np.concatenate([x, y, xs])), 3)
        fixed = ((ascending_projection(px) == px).all(axis=1)
                 & (np.diff(px, axis=1) >= 0.0).all(axis=1))
        faults[idx] = np.where((pxs != xs).any(axis=1), 2, ~fixed)
        dx, dp = x - y, px - py
        lips[idx] = (np.sqrt(np.vecdot(dx, dx)) + 1e-12
                     - np.sqrt(np.vecdot(dp, dp)))
    margin = _tightest(lips)[0]
    faulty = np.flatnonzero(faults)
    detail = _PROJECTION_FAULTS[faults[faulty[-1]]] if faulty.size else ""
    return CheckResult(
        "ascending_projection",
        -math.inf if detail else margin,
        detail or f"{samples} samples, smallest Lipschitz clearance {margin:.3e}",
    )


# values per stacked array in check_translation_identity, about 32 KB:
# blocks of pairs that size keep a verify's peak memory where drawing and
# scoring one pair at a time had it
_BLOCK_VALUES = 4096


def _stacked_energies(domain, values: np.ndarray) -> np.ndarray:
    """`dirichlet_energy` of each canonical (num_nodes, q, n) state stacked
    in values, bit for bit: the squared differences of each state's edge
    rows are summed as one C-contiguous row, and for n > 1 the branches
    are paired by one `match_rows` call over every state's edge rows."""
    p, _, q, n = values.shape
    ea, eb = domain.edges[:, 0], domain.edges[:, 1]
    a = np.take(values, ea, axis=1)
    if n == 1 or q == 1:
        a -= np.take(values, eb, axis=1)
        np.square(a, out=a)
        total = a.reshape(p, -1).sum(axis=1)
    else:
        cost = match_rows(a.reshape(-1, q, n),
                          np.take(values, eb, axis=1).reshape(-1, q, n))[1]
        total = np.add.accumulate(cost.reshape(p, len(ea)), axis=1)[:, -1]
    return domain.delta ** (domain.m - 2) * total


def _translation_gaps(rng, domain, pairs: int, q: int, n: int) -> np.ndarray:
    """Relative gap of the translation identity for each of `pairs` random
    pairs of q-valued f and single-valued phi in R^n on domain, drawn a
    block at a time in the per-pair order: f's values, then phi's."""
    nodes = domain.num_nodes
    ea, eb = domain.edges[:, 0], domain.edges[:, 1]
    w = domain.delta ** (domain.m - 2)
    step = max(1, _BLOCK_VALUES // (nodes * q * n))
    gaps = [np.empty(0)]
    for start in range(0, pairs, step):
        size = min(step, pairs - start)
        f = np.empty((size, nodes, q, n))
        phi = np.empty((size, nodes, n))
        for k in range(size):
            f[k] = rng.normal(size=(nodes, q, n))
            phi[k] = rng.normal(size=(nodes, n))
        f = _canonical(f)
        energy = _stacked_energies(domain, f)
        eta = f.mean(axis=2)
        deta = np.take(eta, ea, axis=1) - np.take(eta, eb, axis=1)
        dphi = np.take(phi, ea, axis=1) - np.take(phi, eb, axis=1)
        cross = w * (deta * dphi).reshape(size, -1).sum(axis=1)
        rhs = energy + 2.0 * q * cross \
            + q * (w * np.square(dphi).reshape(size, -1).sum(axis=1))
        lhs = _stacked_energies(domain, _canonical(f + phi[:, :, None]))
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


def check_eta_residual(traj: FlowTrajectory) -> CheckResult:
    """Branch-mean step equation residual at every converged step, against
    the threshold 1e-8 * (1 + max |branch mean|)."""
    paired = list(enumerate(zip(traj.reports, traj.eta_residuals), start=1))
    steps = [(k, res) for k, (report, res) in paired if report.converged]
    margin, i = _tightest([
        1e-8 * (1.0 + float(np.max(np.abs(branch_mean_field(traj.snapshots[k]))))) - res
        for k, res in steps
    ])
    worst = (f"residual {steps[i - 1][1]:.3e} at step {steps[i - 1][0]}"
             if steps else "no converged steps")
    skipped = len(paired) - len(steps)
    detail = worst + (f", {skipped} non-converged steps skipped" if skipped else "")
    return CheckResult("eta_residual", margin, detail)


def check_symmetry(traj: FlowTrajectory) -> CheckResult:
    worst = max(
        float(np.max(np.abs(branch_mean_field(f)))) for f in traj.snapshots
    )
    margin = 1e-10 - worst
    return CheckResult(
        "symmetry",
        margin,
        f"largest |branch mean| over all nodes and steps {worst:.3e}",
    )


def check_positivity(traj: FlowTrajectory) -> CheckResult:
    """Top branch strictly above 1e-12 at interior nodes from step 1 on;
    a value at the threshold fails by one ulp of it."""
    interior = traj.snapshots[0].domain.interior
    if len(traj.snapshots) < 2 or len(interior) == 0:
        return CheckResult("positivity", -math.inf,
                           "needs at least one step and an interior node")
    low = min(
        float(np.min(f.values[interior, -1, 0])) for f in traj.snapshots[1:]
    )
    margin = low - 1e-12 if low != 1e-12 else -math.ulp(1e-12)
    return CheckResult(
        "positivity",
        margin,
        f"smallest interior top-branch value after step 1 is {low:.3e}",
    )


def check_max_principle(trajs) -> CheckResult:
    """Max node norm non-increasing (within 1e-12) along every uniform run."""
    uniform = [traj for traj in trajs if traj.schedule.mode == "uniform"]
    if not uniform:
        return CheckResult("max_principle", -math.inf,
                           "no uniform-schedule run available")
    norms = [np.asarray(traj.max_norms) for traj in uniform]
    margin = _tightest(np.concatenate([n[:-1] + 1e-12 - n[1:] for n in norms]))[0]
    return CheckResult(
        "max_principle",
        margin,
        f"{len(uniform)} uniform run(s), tightest monotonicity clearance {margin:.3e}",
    )


def check_boundary_trace(traj: FlowTrajectory, rng, times: int = 8) -> CheckResult:
    """Boundary rows of every snapshot and of the interpolated trajectory at
    `times` sampled times, against those of the initial snapshot."""
    if traj.completed_steps == 0:
        return CheckResult("boundary_trace", -math.inf,
                           "needs at least one step")
    bnd = traj.snapshots[0].domain.is_boundary
    ref = traj.snapshots[0].values[bnd]
    sampled = (evaluate_at_time(traj, float(t))
               for t in rng.uniform(0.0, traj.horizon, size=times))
    dev = max((float(np.max(np.abs(f.values[bnd] - ref)))
               for f in itertools.chain(traj.snapshots[1:], sampled)))
    return CheckResult(
        "boundary_trace",
        -dev,
        "boundary rows identical on every snapshot and sampled time"
        if dev == 0.0 else f"largest boundary deviation {dev:.3e}",
    )


def check_holder(traj: FlowTrajectory, rng, pairs: int = 100) -> CheckResult:
    draws = [np.sort(rng.uniform(0.0, traj.horizon, size=2)) for _ in range(pairs)]
    slack = [holder_margin(traj, float(t), float(s))
             for t, s in draws if s - t >= 1e-12]
    raw = _tightest(slack)[0]
    margin = raw + 1e-8
    return CheckResult(
        "holder",
        margin,
        f"{len(slack)} sampled time pairs, smallest bound slack {raw:.3e}",
    )


def check_brute_force(rng, instances: int = 20) -> CheckResult:
    """Solver objective vs exhaustive global minimum on tiny instances."""
    gaps = []
    domains = {res: build_domain(1, res) for res in (3, 5)}
    for i in range(instances):
        domain = domains[3 if i % 4 == 0 else 5]
        f_prev = QGridFunction(
            domain, rng.normal(size=(domain.num_nodes, 2, 1))
        )
        tau = float(10.0 ** rng.uniform(-1.0, 0.0))
        f_loc, _ = minimize_step(f_prev, tau)
        loc = dirichlet_energy(f_loc) + l2_distance_sq(f_loc, f_prev) / tau
        _, glob = brute_force_step(f_prev, tau)
        gaps.append(loc - glob)
    gaps = np.array(gaps)
    return CheckResult(
        "brute_force",
        _tightest(np.concatenate([1e-8 - np.abs(gaps), gaps + 1e-10]))[0],
        f"{instances} instances, largest objective gap "
        f"{np.max(np.abs(gaps), initial=0.0):.3e}",
    )


def check_oracle_equivalence(traj: FlowTrajectory) -> CheckResult:
    """Single-branch uniform flow on the interval against the reference
    heat chain, solved by its own scalar Thomas recursion, snapshot by
    snapshot, in the max norm.  One chain call steps the reference from
    the initial snapshot through every completed step."""
    f0 = traj.snapshots[0]
    if (f0.domain.m, f0.q, f0.n, traj.schedule.mode) != (1, 1, 1, "uniform"):
        return CheckResult("oracle_equivalence", -math.inf,
                           "needs an m = 1, q = 1, n = 1 uniform run")
    values = traj.states[:, :, 0, 0]
    ref = implicit_euler_chain(f0.domain, values[0],
                               [traj.schedule.h] * traj.completed_steps)
    worst = float(np.max(np.abs(values - ref)))
    margin = 1e-8 - worst
    return CheckResult(
        "oracle_equivalence",
        margin,
        f"{traj.completed_steps} snapshots, largest max-norm gap {worst:.3e}",
    )


def evaluate(names, rng, traj: FlowTrajectory, sym=None, q1=None) -> list:
    """Results of the named checks in order, sampled ones drawing from rng.
    symmetry and positivity read the symmetric run sym, eta_residual and
    oracle_equivalence the one-branch uniform run q1 (both default to traj),
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
