"""Named verification checks with pass/fail margins.

Each check returns a CheckResult of its margin, the clearance to the
failing boundary, from which CheckResult derives the verdict: a result passes
exactly when its margin is nonnegative.  A structural failure has margin -inf.
Value-level checks sample random inputs from a caller-supplied generator;
trajectory-level checks read the per-step quantities FlowTrajectory
computes from its snapshots, never the solver's own reports.  They reduce their per-step clearances
through one helper: the smallest clearance and its step, the first minimum
on ties, and -inf at step 0 when there is none, so that a check with
nothing to reduce fails as unable to apply (a null margin in the reports)
instead of passing vacuously.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .qspace import (
    _canonical,
    ascending_projection,
    make_qpoint,
    match_rows,
    matching_distance,
    optimal_matching,
    sorted_embedding,
)
from .grid import (
    QGridFunction,
    branch_mean_field,
    build_domain,
    dirichlet_energy,
    l2_distance_sq,
    scalar_dirichlet_energy,
    translate_field,
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
    groups = {}
    for i, draw in enumerate(draws):
        groups.setdefault(draw[:2], []).append(i)
    # per sample: d(a, b), d(b, a), d(a, permuted a), d(b, c), d(a, c)
    dist = np.empty((samples, 5))
    for idx in groups.values():
        a, b, c, perm = (_canonical(np.stack([draws[i][k] for i in idx]))
                         for k in range(2, 6))
        cost = match_rows(np.concatenate([a, b, a, b, a]),
                          np.concatenate([b, a, perm, c, c]))[1]
        dist[idx] = np.sqrt(cost).reshape(5, -1).T
    dab, dba, same, dbc, dac = dist.T
    margin = float(np.min(np.concatenate([
        1e-12 - np.abs(dab - dba), dab - 1e-12, dab + dbc + 1e-10 - dac]),
        initial=math.inf))
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
    must equal the exhaustive minimum over all pairings exactly."""
    worst = 0.0
    identity_ok = True
    perms = {q: np.array(list(itertools.permutations(range(q)))) for q in range(2, 7)}
    for _ in range(samples):
        q = int(rng.integers(2, 7))
        a = np.sort(rng.normal(size=q))
        b = np.sort(rng.normal(size=q))
        match = optimal_matching(make_qpoint(a), make_qpoint(b))
        identity_ok &= match.sigma == tuple(range(q))
        best = float(((a - b[perms[q]]) ** 2).sum(axis=1).min())
        worst = max(worst, abs(match.cost - best))
    detail = f"{samples} samples, largest identity-vs-exhaustive gap {worst:.3e}"
    if not identity_ok:
        detail = "non-identity pairing returned for canonical operands"
    margin = -worst if identity_ok else -math.inf
    return CheckResult("sorted_matching", margin, detail)


def check_embedding_isometry(rng, samples: int = 200) -> CheckResult:
    gap = 0.0
    for _ in range(samples):
        q = int(rng.integers(1, 7))
        pa = make_qpoint(rng.normal(size=q))
        pb = make_qpoint(rng.normal(size=q))
        emb = float(np.linalg.norm(sorted_embedding(pa) - sorted_embedding(pb)))
        gap = max(gap, abs(emb - matching_distance(pa, pb)))
    margin = 1e-12 - gap
    return CheckResult(
        "embedding_isometry",
        margin,
        f"{samples} samples, largest embedding-vs-metric gap {gap:.3e}",
    )


def check_ascending_projection(rng, samples: int = 200) -> CheckResult:
    margin = math.inf
    detail = ""
    for _ in range(samples):
        q = int(rng.integers(2, 9))
        x = rng.normal(size=q)
        if rng.random() < 0.3:  # exercise ties
            x[rng.integers(0, q)] = x[rng.integers(0, q)]
        y = rng.normal(size=q)
        px, py = ascending_projection(x), ascending_projection(y)
        if not (np.array_equal(ascending_projection(px), px)
                and np.all(np.diff(px) >= 0.0)):
            detail = "projection output not a fixed ascending point"
        xs = np.sort(x)
        if not np.array_equal(ascending_projection(xs), xs):
            detail = "projection moved an already ascending input"
        lip = float(np.linalg.norm(x - y)) + 1e-12 \
            - float(np.linalg.norm(px - py))
        margin = min(margin, lip)
    return CheckResult(
        "ascending_projection",
        -math.inf if detail else margin,
        detail or f"{samples} samples, smallest Lipschitz clearance {margin:.3e}",
    )


def check_translation_identity(rng, domain, q: int, pairs: int = 50) -> CheckResult:
    """Shifting every branch by a single-valued field phi expands the energy
    as Dir(f) + 2q * <edge differences of the branch mean, of phi>
    + q * Dir(phi); the pairing-dependent part is unchanged by the shift, so
    the identity is exact up to rounding (1e-10 relative)."""
    def rel_gap(dom, f, phi):
        ea, eb = dom.edges[:, 0], dom.edges[:, 1]
        lhs = dirichlet_energy(translate_field(f, phi))
        eta = branch_mean_field(f)
        deta = eta[ea] - eta[eb]
        dphi = phi[ea] - phi[eb]
        cross = dom.delta ** (dom.m - 2) * float((deta * dphi).sum())
        rhs = dirichlet_energy(f) + 2.0 * f.q * cross \
            + f.q * scalar_dirichlet_energy(dom, phi)
        return abs(lhs - rhs) / max(1.0, abs(lhs))

    worst = 0.0
    for _ in range(pairs):
        f = QGridFunction(domain, rng.normal(size=(domain.num_nodes, q, 1)))
        phi = rng.normal(size=(domain.num_nodes, 1))
        worst = max(worst, rel_gap(domain, f, phi))
    # vector-valued spot checks on a small interval, pairings nontrivial
    small = build_domain(1, 11)
    for _ in range(8):
        f = QGridFunction(small, rng.normal(size=(small.num_nodes, 2, 2)))
        phi = rng.normal(size=(small.num_nodes, 2))
        worst = max(worst, rel_gap(small, f, phi))
    margin = 1e-10 - worst
    return CheckResult(
        "translation_identity",
        margin,
        f"{pairs} scalar + 8 vector pairs, largest relative gap {worst:.3e}",
    )


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
    worst = 0.0
    one_sided = math.inf
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
        worst = max(worst, abs(loc - glob))
        one_sided = min(one_sided, loc - glob + 1e-10)
    margin = min(1e-8 - worst, one_sided)
    return CheckResult(
        "brute_force",
        margin,
        f"{instances} instances, largest objective gap {worst:.3e}",
    )


def check_oracle_equivalence(traj: FlowTrajectory) -> CheckResult:
    """Single-branch uniform flow on the interval against the banded-solver
    reference chain, snapshot by snapshot, in the max norm.  The reference
    takes one step from its own previous state per snapshot."""
    f0 = traj.snapshots[0]
    if (f0.domain.m, f0.q, f0.n, traj.schedule.mode) != (1, 1, 1, "uniform"):
        return CheckResult("oracle_equivalence", -math.inf,
                           "needs an m = 1, q = 1, n = 1 uniform run")
    tau = traj.schedule.h
    worst = 0.0
    ref = f0.values[:, 0, 0]
    for k in range(1, traj.completed_steps + 1):
        ref = implicit_euler_chain(f0.domain, ref, [tau])
        worst = max(worst, float(np.max(np.abs(
            traj.snapshots[k].values[:, 0, 0] - ref
        ))))
    margin = 1e-8 - worst
    return CheckResult(
        "oracle_equivalence",
        margin,
        f"{traj.completed_steps} snapshots, largest max-norm gap {worst:.3e}",
    )
