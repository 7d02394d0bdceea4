"""Check battery: positive runs and deliberate negative controls."""

import itertools
import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from qflow import checks, cli, morseflow, qspace
from qflow.checks import (
    CHECK_NAMES,
    CheckResult,
    check_ascending_projection,
    check_boundary_trace,
    check_brute_force,
    check_energy_monotonicity,
    check_eta_residual,
    check_holder,
    check_max_principle,
    check_metric_axioms,
    check_oracle_equivalence,
    check_positivity,
    check_sorted_matching,
    check_step_estimate,
    check_symmetry,
    check_translation_identity,
    check_embedding_isometry,
)
from qflow.grid import (
    InitialSpec,
    QGridFunction,
    branch_mean_field,
    build_domain,
    dirichlet_energy,
    sample_initial,
    scalar_dirichlet_energy,
    translate_field,
)
from qflow.morseflow import (
    FlowTrajectory,
    evaluate_at_time,
    geometric_schedule,
    holder_margin,
    run_flow,
    uniform_schedule,
)
from qflow.qspace import (
    ascending_projection,
    make_qpoint,
    match_rows,
    matching_distance,
    optimal_matching,
    sorted_embedding,
)


@pytest.fixture(scope="module")
def healthy():
    d = build_domain(1, 31)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    return run_flow(f0, uniform_schedule(0.25, 8))


def trajectory_of(schedule, snapshots, reports):
    """A trajectory whose state array stacks the given snapshots."""
    return FlowTrajectory(schedule, snapshots[0].domain,
                          np.stack([f.values for f in snapshots]), reports)


def corrupt_middle(traj):
    """Double the interior values of one snapshot, boundary intact."""
    k = traj.completed_steps // 2
    f = traj.snapshots[k]
    vals = f.values.copy()
    vals[f.domain.interior] *= 2.0
    snaps = list(traj.snapshots)
    snaps[k] = QGridFunction(f.domain, vals)
    return trajectory_of(traj.schedule, snaps, traj.reports)


def test_check_names_are_unique_and_ordered():
    assert len(CHECK_NAMES) == 15
    assert len(set(CHECK_NAMES)) == 15


def test_a_check_result_derives_its_verdict_from_its_margin():
    """CheckResult(name, margin, detail) sets passed = margin >= 0 itself
    and stores a zero margin as +0.0, every other margin bit for bit."""
    tiny = 5e-324
    for margin, passed, stored in (
            (-math.inf, False, -math.inf), (math.nan, False, math.nan),
            (-0.0, True, 0.0), (0.0, True, 0.0), (tiny, True, tiny),
            (-tiny, False, -tiny), (1.0, True, 1.0)):
        res = CheckResult("x", margin, "detail")
        assert res.passed is passed, margin
        assert struct.pack("<d", res.margin) == struct.pack("<d", stored), margin
    assert replace(CheckResult("x", 1.0, "detail"), margin=-1.0).passed is False
    with pytest.raises(TypeError):
        CheckResult("x", True, 1.0, "detail")
    with pytest.raises(TypeError):
        CheckResult("x", 1.0, "detail", passed=True)


def test_value_space_checks_pass():
    rng = np.random.default_rng(71)
    for fn in (check_metric_axioms, check_sorted_matching,
               check_embedding_isometry, check_ascending_projection):
        res = fn(rng, 50)
        assert res.passed, res.detail
        assert res.margin >= 0.0 and math.copysign(1.0, res.margin) == 1.0


def metric_axioms_by_loop(rng, samples=200):
    """Per-sample reference for `check_metric_axioms`: one
    `matching_distance` call per distance; no samples cannot apply."""
    margin = math.inf
    ok = True
    worst = ""
    for _ in range(samples):
        q = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        a = rng.normal(size=(q, n))
        b = rng.normal(size=(q, n))
        c = rng.normal(size=(q, n))
        pa, pb, pc = make_qpoint(a, n), make_qpoint(b, n), make_qpoint(c, n)
        dab = matching_distance(pa, pb)
        sym = 1e-12 - abs(dab - matching_distance(pb, pa))
        same = matching_distance(pa, make_qpoint(a[rng.permutation(q)], n))
        if same != 0.0:
            ok = False
            worst = f"nonzero distance {same:g} on a permuted copy"
        distinct = dab - 1e-12
        tri = matching_distance(pa, pb) + matching_distance(pb, pc) \
            + 1e-10 - matching_distance(pa, pc)
        margin = min(margin, sym, distinct, tri)
    if not ok or samples == 0:
        margin = -math.inf
    detail = worst or (
        f"{samples} samples, q<=6, n<=3; smallest clearance {margin:.3e}"
    )
    return CheckResult("metric_axioms", margin, detail)


@pytest.mark.parametrize("seed", [1, 5, 11, 123, 999])
def test_metric_axioms_agrees_with_a_per_sample_loop(seed):
    for samples in (200, 7, 0):
        assert check_metric_axioms(np.random.default_rng(seed), samples) \
            == metric_axioms_by_loop(np.random.default_rng(seed), samples)


def charging(a, b):
    """`match_rows` that charges equal multisets by their first value."""
    sigma, cost = match_rows(a, b)
    equal = (a == b).all(axis=(1, 2))
    return sigma, cost + np.abs(a[:, 0, 0]) * equal


def test_metric_axioms_names_the_last_failing_sample(monkeypatch):
    """A matching that charges equal multisets, by their first value, makes
    the permuted-copy axiom fail on every sample; both paths name the same
    (last) one."""
    monkeypatch.setattr(qspace, "match_rows", charging)
    monkeypatch.setattr(checks, "match_rows", charging)
    res = check_metric_axioms(np.random.default_rng(3), 40)
    assert not res.passed and res.margin < 0.0
    assert res.detail.startswith("nonzero distance")
    assert res == metric_axioms_by_loop(np.random.default_rng(3), 40)


def sorted_matching_by_loop(rng, samples=200):
    """Per-permutation loop reference for `check_sorted_matching`."""
    worst = 0.0
    identity_ok = True
    for _ in range(samples):
        q = int(rng.integers(2, 7))
        a = np.sort(rng.normal(size=q))
        b = np.sort(rng.normal(size=q))
        match = optimal_matching(make_qpoint(a), make_qpoint(b))
        identity_ok &= match.sigma == tuple(range(q))
        best = min(
            float(((a - b[list(p)]) ** 2).sum())
            for p in itertools.permutations(range(q))
        )
        worst = max(worst, abs(match.cost - best))
    detail = f"{samples} samples, largest identity-vs-exhaustive gap {worst:.3e}"
    if not identity_ok:
        detail = "non-identity pairing returned for canonical operands"
    return (identity_ok and worst == 0.0,
            -worst if identity_ok else -math.inf, detail)


@pytest.mark.parametrize("seed", range(10))
def test_sorted_matching_agrees_with_a_permutation_loop(seed):
    res = check_sorted_matching(np.random.default_rng(seed), 60)
    ref = sorted_matching_by_loop(np.random.default_rng(seed), 60)
    assert (res.passed, res.margin, res.detail) == ref


def one_ulp_high(a, b):
    """`match_rows` with every cost one ulp high."""
    sigma, cost = match_rows(a, b)
    return sigma, np.nextafter(cost, np.inf)


def reversed_pairing(a, b):
    """`match_rows` with every pairing reversed, at the same cost."""
    sigma, cost = match_rows(a, b)
    return sigma[:, ::-1], cost


def scaled_cost(a, b):
    """`match_rows` with every cost scaled by 1 + 1e-9."""
    sigma, cost = match_rows(a, b)
    return sigma, cost * (1.0 + 1e-9)


def unprojected(values):
    """An `ascending_projection` that returns its input."""
    return np.asarray(values, dtype=float)


def test_sorted_matching_rejects_a_cost_one_ulp_high(monkeypatch):
    monkeypatch.setattr(checks, "match_rows", one_ulp_high)
    res = check_sorted_matching(np.random.default_rng(3), 20)
    assert not res.passed and res.margin < 0.0


def test_sorted_matching_rejects_a_reversed_pairing_at_zero_gap(monkeypatch):
    """A non-identity pairing at the exhaustive minimum's cost has no gap,
    yet fails: with margin -inf, not -0.0."""
    monkeypatch.setattr(checks, "match_rows", reversed_pairing)
    res = check_sorted_matching(np.random.default_rng(3), 20)
    assert not res.passed and res.margin == -math.inf
    assert res.detail == "non-identity pairing returned for canonical operands"
    assert res.margin < 0.0


def test_embedding_isometry_rejects_a_cost_scaled_by_one_plus_1e_9(monkeypatch):
    monkeypatch.setattr(checks, "match_rows", scaled_cost)
    res = check_embedding_isometry(np.random.default_rng(3), 20)
    assert not res.passed and res.margin < 0.0


def test_ascending_projection_rejects_a_projection_that_does_not_move(
        monkeypatch):
    monkeypatch.setattr(checks, "ascending_projection", unprojected)
    res = check_ascending_projection(np.random.default_rng(3), 20)
    assert not res.passed and res.margin == -math.inf
    assert res.detail == "projection output not a fixed ascending point"


def shifted_when_odd(values):
    """An `ascending_projection` that returns rows of even length as they
    are and moves rows of odd length by 1e-3."""
    x = np.asarray(values, dtype=float)
    return x + 1e-3 if x.shape[-1] % 2 else x


def test_ascending_projection_names_the_fault_of_the_last_failing_sample(
        monkeypatch):
    """Samples of even q fail as not fixed and samples of odd q as moved;
    both paths name the fault of the same (last) failing sample."""
    monkeypatch.setattr(checks, "ascending_projection", shifted_when_odd)
    details = set()
    for seed, samples in itertools.product((1, 5, 11), (200, 7, 3)):
        res = check_ascending_projection(np.random.default_rng(seed), samples)
        assert not res.passed and res.margin == -math.inf
        assert same_result(res, ascending_projection_by_loop(
            np.random.default_rng(seed), samples, shifted_when_odd))
        details.add(res.detail)
    assert len(details) == 2


def embedding_isometry_by_loop(rng, samples=200):
    """Per-sample reference for `check_embedding_isometry`: two `QPoint`s,
    the embedding's norm and one `matching_distance` per sample."""
    gaps = []
    for _ in range(samples):
        q = int(rng.integers(1, 7))
        pa = make_qpoint(rng.normal(size=q))
        pb = make_qpoint(rng.normal(size=q))
        emb = float(np.linalg.norm(sorted_embedding(pa) - sorted_embedding(pb)))
        gaps.append(abs(emb - matching_distance(pa, pb)))
    margin = min((1e-12 - g for g in gaps), default=-math.inf)
    return CheckResult(
        "embedding_isometry", margin,
        f"{samples} samples, largest embedding-vs-metric gap "
        f"{max(gaps, default=0.0):.3e}")


def ascending_projection_by_loop(rng, samples=200,
                                 project=ascending_projection):
    """Per-sample reference for `check_ascending_projection`: four 1-D
    projections per sample; the last failing sample names the fault."""
    lips = []
    detail = ""
    for _ in range(samples):
        q = int(rng.integers(2, 9))
        x = rng.normal(size=q)
        if rng.random() < 0.3:
            x[rng.integers(0, q)] = x[rng.integers(0, q)]
        y = rng.normal(size=q)
        px, py = project(x), project(y)
        if not (np.array_equal(project(px), px)
                and np.all(np.diff(px) >= 0.0)):
            detail = "projection output not a fixed ascending point"
        xs = np.sort(x)
        if not np.array_equal(project(xs), xs):
            detail = "projection moved an already ascending input"
        lips.append(float(np.linalg.norm(x - y)) + 1e-12
                    - float(np.linalg.norm(px - py)))
    margin = min(lips, default=-math.inf)
    return CheckResult(
        "ascending_projection", -math.inf if detail else margin,
        detail or f"{samples} samples, smallest Lipschitz clearance {margin:.3e}")


def translation_identity_by_loop(rng, domain, q, pairs=50):
    """Per-pair reference for `check_translation_identity`: grid functions,
    `translate_field` and the energy functions, one pair at a time."""
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
    small = build_domain(1, 11)
    for _ in range(8):
        f = QGridFunction(small, rng.normal(size=(small.num_nodes, 2, 2)))
        phi = rng.normal(size=(small.num_nodes, 2))
        worst = max(worst, rel_gap(small, f, phi))
    return CheckResult(
        "translation_identity", 1e-10 - worst,
        f"{pairs} scalar + 8 vector pairs, largest relative gap {worst:.3e}")


def same_result(a, b):
    """Equal results, margins compared bit for bit."""
    return a == b and struct.pack("<d", a.margin) == struct.pack("<d", b.margin)


@pytest.mark.parametrize("seed", [1, 5, 11, 123, 999])
def test_value_checks_agree_with_their_per_sample_loops(seed):
    for samples in (200, 7, 0):
        for check, ref in (
                (check_embedding_isometry, embedding_isometry_by_loop),
                (check_ascending_projection, ascending_projection_by_loop)):
            assert same_result(check(np.random.default_rng(seed), samples),
                               ref(np.random.default_rng(seed), samples))


@pytest.mark.parametrize("seed", [1, 5, 11, 123, 999])
@pytest.mark.parametrize("m, res, q", [(1, 201, 2), (1, 21, 9), (2, 9, 3)])
def test_translation_identity_agrees_with_a_per_pair_loop(seed, m, res, q):
    domain = build_domain(m, res)
    for pairs in (50, 3, 0):
        assert same_result(
            check_translation_identity(np.random.default_rng(seed), domain,
                                       q, pairs),
            translation_identity_by_loop(np.random.default_rng(seed), domain,
                                         q, pairs))


@pytest.mark.parametrize("check", [
    check_metric_axioms, check_sorted_matching, check_embedding_isometry,
    check_ascending_projection, check_brute_force])
def test_value_level_check_without_samples_cannot_apply(check, tmp_path):
    """With nothing sampled a value-level check fails with margin -inf,
    which a report writes as null, instead of passing vacuously."""
    res = check(np.random.default_rng(3), 0)
    assert not res.passed and res.margin == -math.inf
    cli._write_report(tmp_path / "report.json", {}, [res])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks"][0]["margin"] is None


def test_brute_force_rejects_a_step_that_does_not_move(monkeypatch):
    """A solver that returns f_prev unmoved stays above the global minimum
    of every random instance by far more than the tolerance."""
    monkeypatch.setattr(checks, "minimize_step",
                        lambda f_prev, tau: (f_prev, None))
    res = check_brute_force(np.random.default_rng(3))
    assert not res.passed and res.margin < 0.0


def test_translation_identity_check_passes():
    rng = np.random.default_rng(73)
    res = check_translation_identity(rng, build_domain(1, 21), 2, pairs=10)
    assert res.passed
    assert res.margin >= 0.0


def test_trajectory_checks_pass_on_a_healthy_run(healthy):
    rng = np.random.default_rng(79)
    for res in (
        check_energy_monotonicity(healthy),
        check_step_estimate(healthy),
        check_eta_residual(healthy),
        check_symmetry(healthy),
        check_positivity(healthy),
        check_max_principle([healthy]),
        check_boundary_trace(healthy, rng),
        check_holder(healthy, rng, pairs=20),
        check_brute_force(rng, instances=5),
    ):
        assert res.passed, f"{res.name}: {res.detail}"


def test_corrupted_run_fails_the_energy_checks(healthy):
    """Doubling one state's interior breaks energy monotonicity, the step
    estimate and the max principle, all three of which the healthy run
    keeps."""
    bad = corrupt_middle(healthy)
    mono = check_energy_monotonicity(bad)
    assert not mono.passed and mono.margin < 0.0
    est = check_step_estimate(bad)
    assert not est.passed and est.margin < 0.0
    assert check_max_principle([healthy]).passed
    peak = check_max_principle([bad])
    assert not peak.passed and peak.margin < 0.0


def test_holder_fails_on_a_run_that_jumps_between_states(healthy):
    """Negative control of the time regularity bound: doubling the interior
    rows of every odd state (positive scaling keeps canonical order, as
    the injected control's does) makes the run jump on every step, and a
    sampled time pair breaks the bound that the healthy run keeps."""
    rng = np.random.default_rng(83)
    assert check_holder(healthy, rng).margin > 0.0
    states = healthy.states.copy()
    states[1::2, healthy.domain.interior] *= 2.0
    bad = FlowTrajectory(healthy.schedule, healthy.domain, states,
                         healthy.reports)
    res = check_holder(bad, np.random.default_rng(83))
    assert not res.passed and res.margin < 0.0, res


def test_symmetry_check_rejects_one_sided_data():
    d = build_domain(1, 21)
    f0 = sample_initial(
        InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0),)), d, 1
    )
    traj = run_flow(f0, uniform_schedule(0.1, 4))
    res = check_symmetry(traj)
    assert not res.passed
    assert res.margin < 0.0


def test_positivity_check_rejects_negative_branches():
    d = build_domain(1, 11)
    spec = InitialSpec("branches", branch_coeffs=((-1.0,), (-0.5,)))
    traj = run_flow(sample_initial(spec, d, 2), uniform_schedule(0.1, 2))
    res = check_positivity(traj)
    assert not res.passed and res.margin < 0.0

    lone = trajectory_of(uniform_schedule(0.1, 2), (traj.snapshots[0],), ())
    res = check_positivity(lone)
    assert not res.passed and res.margin < 0.0


def positivity_at(low):
    """check_positivity of a one-step run whose smallest interior top
    branch is `low`."""
    d = build_domain(1, 5)
    vals = np.ones((2, d.num_nodes, 2, 1))
    vals[:, :, 0] = -1.0
    vals[1, d.interior[1], 1] = low
    return check_positivity(FlowTrajectory(uniform_schedule(0.1, 1), d, vals, ()))


def test_positivity_fails_at_the_threshold_with_a_negative_margin():
    """The threshold is strict: a smallest top branch of exactly 1e-12
    fails with margin -ulp(1e-12), and one ulp above it passes."""
    for low, passed in ((1e-12, False), (math.nextafter(1e-12, 1.0), True)):
        res = positivity_at(low)
        assert res.passed is passed
        assert res.margin == (math.ulp(1e-12) if passed else -math.ulp(1e-12))


def test_eta_residual_skips_unconverged_steps():
    d = build_domain(1, 21)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    run = run_flow(f0, uniform_schedule(0.25, 4))
    reports = run.reports[:-1] + (replace(run.reports[-1], converged=False),)
    traj = trajectory_of(run.schedule, run.snapshots, reports)
    assert not traj.converged
    res = check_eta_residual(traj)
    assert "skipped" in res.detail


def test_eta_residual_holds_for_vector_values():
    """The branch-mean step equation holds coordinatewise for any frozen
    pairing, so converged n = 2 steps pass; moving one interior mean in
    its second coordinate must fail."""
    rng = np.random.default_rng(67)
    d = build_domain(1, 15)
    f0 = QGridFunction(d, rng.normal(0.0, 1.0, size=(15, 2, 2)))
    traj = run_flow(f0, uniform_schedule(0.25, 6))
    assert traj.converged
    res = check_eta_residual(traj)
    assert res.passed and res.margin >= 0.0, res.detail

    f = traj.snapshots[3]
    vals = f.values.copy()
    vals[d.interior[4], :, 1] += 1e-3
    snaps = list(traj.snapshots)
    snaps[3] = QGridFunction(d, vals)
    bad = trajectory_of(traj.schedule, snaps, traj.reports)
    res = check_eta_residual(bad)
    assert not res.passed and res.margin < 0.0


def test_max_principle_check_needs_a_uniform_run(healthy):
    d = build_domain(1, 11)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    geo = run_flow(f0, geometric_schedule(0.25, 4))
    res = check_max_principle([geo])
    assert not res.passed and res.margin < 0.0
    assert "no uniform" in res.detail
    # geometric runs are ignored, not counted
    both = check_max_principle([geo, healthy])
    assert both.passed
    assert "1 uniform run(s)" in both.detail


def test_boundary_trace_detects_a_moved_boundary(healthy):
    f = healthy.snapshots[2]
    vals = f.values.copy()
    vals[0] += 0.5  # first node is boundary on the interval
    snaps = list(healthy.snapshots)
    snaps[2] = QGridFunction(f.domain, vals)
    bad = trajectory_of(healthy.schedule, snaps, healthy.reports)
    rng = np.random.default_rng(83)
    res = check_boundary_trace(bad, rng)
    assert not res.passed
    assert res.margin < 0.0


# --- per-step loop references for the trajectory checks ----------------------

def energy_monotonicity_by_loop(traj):
    energies = traj.energies
    margin = math.inf
    worst_k = 0
    for k in range(1, len(energies)):
        allowed = energies[k - 1] + 1e-10 * max(1.0, energies[k - 1])
        if allowed - energies[k] < margin:
            margin = allowed - energies[k]
            worst_k = k
    if math.isinf(margin):
        margin = -math.inf  # no step: the check cannot apply
    return CheckResult(
        "energy_monotonicity", margin,
        f"{len(energies) - 1} steps, tightest clearance {margin:.3e} at step {worst_k}",
    )


def step_estimate_by_loop(traj):
    raw = math.inf
    worst_k = 0
    for k, slack in enumerate(traj.estimate_margins, start=1):
        if slack < raw:
            raw = slack
            worst_k = k
    if math.isinf(raw):
        raw = -math.inf  # no step: the check cannot apply
    margin = raw + 1e-10
    return CheckResult("step_estimate", margin,
                       f"smallest penalty-bound slack {raw:.3e} at step {worst_k}")


def eta_residual_by_loop(traj):
    margin = math.inf
    worst = ""
    skipped = 0
    for k, (report, res) in enumerate(zip(traj.reports, traj.eta_residuals),
                                      start=1):
        if not report.converged:
            skipped += 1
            continue
        eta_max = float(np.max(np.abs(branch_mean_field(traj.snapshots[k]))))
        clearance = 1e-8 * (1.0 + eta_max) - res
        if clearance < margin:
            margin = clearance
            worst = f"residual {res:.3e} at step {k}"
    if math.isinf(margin):
        margin = -math.inf  # no converged step: the check cannot apply
        worst = "no converged steps"
    detail = worst + (f", {skipped} non-converged steps skipped" if skipped else "")
    return CheckResult("eta_residual", margin, detail)


def symmetry_by_loop(traj):
    worst = 0.0
    for f in traj.snapshots:
        for row in branch_mean_field(f):
            for value in row:
                worst = max(worst, abs(float(value)))
    return CheckResult("symmetry", 1e-10 - worst,
                       f"largest |branch mean| over all nodes and steps {worst:.3e}")


def positivity_by_loop(traj):
    interior = traj.snapshots[0].domain.interior
    if len(traj.snapshots) < 2 or len(interior) == 0:
        return CheckResult("positivity", -math.inf,
                           "needs at least one step and an interior node")
    low = math.inf
    for f in traj.snapshots[1:]:
        for j in interior:
            low = min(low, float(f.values[j, -1, 0]))
    margin = low - 1e-12 if low != 1e-12 else -math.ulp(1e-12)
    return CheckResult(
        "positivity", margin,
        f"smallest interior top-branch value after step 1 is {low:.3e}")


def max_principle_by_loop(trajs):
    margin = math.inf
    counted = 0
    for traj in trajs:
        if traj.schedule.mode != "uniform":
            continue
        counted += 1
        norms = traj.max_norms
        for k in range(1, len(norms)):
            margin = min(margin, norms[k - 1] + 1e-12 - norms[k])
    if counted == 0:
        return CheckResult("max_principle", -math.inf,
                           "no uniform-schedule run available")
    if math.isinf(margin):
        margin = -math.inf  # no uniform run with a step: cannot apply
    return CheckResult(
        "max_principle", margin,
        f"{counted} uniform run(s), tightest monotonicity clearance {margin:.3e}",
    )


def boundary_trace_by_loops(traj, rng, times=8):
    if traj.completed_steps == 0:
        return CheckResult("boundary_trace", -math.inf,
                           "needs at least one step")
    bnd = traj.snapshots[0].domain.is_boundary
    ref = traj.snapshots[0].values[bnd]
    dev = 0.0
    for f in traj.snapshots[1:]:
        if not np.array_equal(f.values[bnd], ref):
            dev = max(dev, float(np.max(np.abs(f.values[bnd] - ref))))
    for t in rng.uniform(0.0, traj.horizon, size=times):
        g = evaluate_at_time(traj, float(t))
        if not np.array_equal(g.values[bnd], ref):
            dev = max(dev, float(np.max(np.abs(g.values[bnd] - ref))))
    return CheckResult(
        "boundary_trace", 0.0 if dev == 0.0 else -dev,
        "boundary rows identical on every snapshot and sampled time"
        if dev == 0.0 else f"largest boundary deviation {dev:.3e}",
    )


def holder_by_loop(traj, rng, pairs=100):
    raw = math.inf
    used = 0
    for _ in range(pairs):
        t, s = np.sort(rng.uniform(0.0, traj.horizon, size=2))
        if s - t < 1e-12:
            continue
        used += 1
        raw = min(raw, holder_margin(traj, float(t), float(s)))
    if math.isinf(raw):
        raw = -math.inf  # no sampled pair: the check cannot apply
    margin = raw + 1e-8
    return CheckResult("holder", margin,
                       f"{used} sampled time pairs, smallest bound slack {raw:.3e}")


def test_tightest_takes_the_first_minimum():
    assert checks._tightest([3.0, -1.0, 2.0, -1.0]) == (-1.0, 2)
    assert checks._tightest(np.array([0.5])) == (0.5, 1)
    assert checks._tightest([]) == (-math.inf, 0)
    assert checks._tightest(np.empty(0)) == (-math.inf, 0)


def _truncated_vector_run():
    """An n = 2 run whose first step cannot confirm its pairing fixed point
    in one sweep, so the trajectory ends at that non-converged step."""
    rng = np.random.default_rng(6)
    f0 = QGridFunction(build_domain(1, 11), rng.normal(0.0, 1.0, size=(11, 2, 2)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(morseflow, "_MAX_OUTER", 1)
        return run_flow(f0, uniform_schedule(0.25, 4))


@pytest.fixture(scope="module")
def reference_trajectories(healthy):
    d = build_domain(1, 31)
    f0 = sample_initial(InitialSpec("symmetric-cos"), d, 2)
    injected = cli._apply_injection(run_flow(f0, uniform_schedule(0.25, 16)),
                                    cli.RunConfig(inject="energy_monotonicity"))
    geo = run_flow(sample_initial(InitialSpec("symmetric-cos"), build_domain(1, 11), 2),
                   geometric_schedule(0.25, 4))
    one_step = run_flow(f0, uniform_schedule(0.1, 1))
    zero_step = trajectory_of(uniform_schedule(0.1, 2), (f0,), ())
    return {"healthy": healthy, "geometric": geo, "injected": injected,
            "one step": one_step, "truncated n = 2": _truncated_vector_run(),
            "zero steps": zero_step}


def test_trajectory_checks_match_their_loop_references(reference_trajectories):
    """Each check equals its per-step loop, field for field, and draws the
    same random numbers."""
    for label, traj in reference_trajectories.items():
        pairs = [
            (check_energy_monotonicity(traj), energy_monotonicity_by_loop(traj)),
            (check_step_estimate(traj), step_estimate_by_loop(traj)),
            (check_eta_residual(traj), eta_residual_by_loop(traj)),
            (check_symmetry(traj), symmetry_by_loop(traj)),
            (check_positivity(traj), positivity_by_loop(traj)),
            (check_max_principle([traj]), max_principle_by_loop([traj])),
        ]
        for times in (8, 7, 0):
            rng, ref_rng = np.random.default_rng(89), np.random.default_rng(89)
            pairs.append((check_boundary_trace(traj, rng, times),
                          boundary_trace_by_loops(traj, ref_rng, times)))
            assert rng.random() == ref_rng.random()
        for count in (100, 7, 0):
            rng, ref_rng = np.random.default_rng(97), np.random.default_rng(97)
            pairs.append((check_holder(traj, rng, count),
                          holder_by_loop(traj, ref_rng, count)))
            assert rng.random() == ref_rng.random()
        for res, ref in pairs:
            assert res == ref, (label, res, ref)


def test_reference_trajectories_reach_each_branch(reference_trajectories):
    trajs = reference_trajectories
    mono = check_energy_monotonicity(trajs["injected"])
    assert not mono.passed and mono.margin < 0.0
    assert mono.detail.endswith("at step 8")
    assert check_max_principle([trajs["geometric"]]).margin == -math.inf
    truncated = check_eta_residual(trajs["truncated n = 2"])
    assert truncated.detail == "no converged steps, 1 non-converged steps skipped"
    assert not truncated.passed and truncated.margin == -math.inf
    zero = check_energy_monotonicity(trajs["zero steps"])
    assert zero.margin == -math.inf and zero.detail.endswith("at step 0")
    assert not zero.passed


def test_checks_with_nothing_to_reduce_cannot_apply(reference_trajectories):
    """A trajectory check with no step, no converged step, no uniform run
    with a step, no sampled time pair or nothing to compare fails with a
    -inf margin (null in the reports) instead of passing vacuously."""
    zero = reference_trajectories["zero steps"]
    healthy = reference_trajectories["healthy"]
    rng = np.random.default_rng(5)
    for res in (check_energy_monotonicity(zero), check_step_estimate(zero),
                check_eta_residual(zero),
                check_eta_residual(reference_trajectories["truncated n = 2"]),
                check_max_principle([zero]), check_boundary_trace(zero, rng),
                check_holder(zero, rng), check_holder(healthy, rng, 0)):
        assert not res.passed and res.margin == -math.inf, res


def test_max_principle_matches_its_loop_on_a_mixed_list(reference_trajectories):
    trajs = reference_trajectories
    mixed = [trajs["geometric"], trajs["healthy"], trajs["geometric"],
             trajs["injected"], trajs["zero steps"], trajs["one step"]]
    for runs in (mixed, mixed[:1], mixed[::-1], []):
        assert check_max_principle(runs) == max_principle_by_loop(runs)
    assert check_max_principle(iter(mixed)) == max_principle_by_loop(mixed)


def test_oracle_equivalence_requires_single_branch_uniform(healthy):
    res = check_oracle_equivalence(healthy)  # q = 2
    assert not res.passed and res.margin < 0.0
    d = build_domain(1, 21)
    f0 = sample_initial(
        InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0),)), d, 1
    )
    good = run_flow(f0, uniform_schedule(0.1, 4))
    assert check_oracle_equivalence(good).passed


def test_oracle_equivalence_cannot_apply_on_the_disk():
    """The reference chain lives on the interval: a q = 1 disk run gets the
    cannot-apply result, not the chain's ValueError."""
    d = build_domain(2, 7)
    f0 = sample_initial(
        InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0),)), d, 1
    )
    res = check_oracle_equivalence(run_flow(f0, uniform_schedule(0.1, 2)))
    assert not res.passed
    assert res.margin == -math.inf
    assert res.detail == "needs an m = 1, q = 1, n = 1 uniform run"


def test_oracle_equivalence_detects_a_moved_value():
    """One interior value of a middle snapshot moved by 1e-6: the reference
    chain steps from its own states, so the check fails by that move less
    its 1e-8 tolerance."""
    d = build_domain(1, 21)
    f0 = sample_initial(
        InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0),)), d, 1
    )
    good = run_flow(f0, uniform_schedule(0.1, 4))
    vals = good.snapshots[2].values.copy()
    vals[d.interior[5], 0, 0] += 1e-6
    snaps = list(good.snapshots)
    snaps[2] = QGridFunction(d, vals)
    bad = trajectory_of(good.schedule, snaps, good.reports)
    res = check_oracle_equivalence(bad)
    assert not res.passed
    assert res.margin == pytest.approx(1e-8 - 1e-6, rel=0.0, abs=1e-13)


ACCEPTANCE_CONFIG = """\
mode = uniform
m = 1
resolution = 201
q = 2
preset = symmetric-cos
total_time = 0.25
steps = 64
"""


def test_a_result_passes_exactly_when_its_margin_is_nonnegative(
        monkeypatch, tmp_path, healthy, reference_trajectories):
    """Every result of `verify` on the acceptance config, healthy and with
    its injected negative control, and of each negative control above,
    passes if and only if its margin is nonnegative."""
    results = []
    evaluate = checks.evaluate

    def recorded(*args):
        batch = evaluate(*args)
        results.extend(batch)
        return batch

    with monkeypatch.context() as patch:
        patch.setattr(checks, "evaluate", recorded)
        for inject, code in (("", 0), ("inject = energy_monotonicity\n", 1)):
            cfg = tmp_path / "verify.cfg"
            cfg.write_text(ACCEPTANCE_CONFIG + inject)
            assert cli.main(["verify", "--config", str(cfg), "--seed", "9",
                             "--out", str(tmp_path / "out")]) == code
    assert len(results) == 2 * len(CHECK_NAMES)
    assert all(r.passed for r in results[:len(CHECK_NAMES)])
    assert "energy_monotonicity" in [r.name for r in results if not r.passed]

    controls = []
    rng = np.random.default_rng(3)
    for target, name, fake, check in (
            (checks, "match_rows", charging, check_metric_axioms),
            (checks, "match_rows", one_ulp_high, check_sorted_matching),
            (checks, "match_rows", reversed_pairing, check_sorted_matching),
            (checks, "match_rows", scaled_cost, check_embedding_isometry),
            (checks, "ascending_projection", unprojected,
             check_ascending_projection)):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fake)
            controls.append(check(rng, 20))
    bad = corrupt_middle(healthy)
    zero = reference_trajectories["zero steps"]
    controls += [
        positivity_at(1e-12), positivity_at(-1.0),
        check_energy_monotonicity(bad), check_step_estimate(bad),
        check_oracle_equivalence(healthy),
        check_max_principle([reference_trajectories["geometric"]]),
        check_eta_residual(zero), check_boundary_trace(zero, rng),
        check_holder(zero, rng),
    ]
    assert not any(r.passed for r in controls), controls
    for res in results + controls:
        assert res.passed == (res.margin >= 0.0), res


def test_verify_prints_no_passing_margin_with_a_minus_sign(tmp_path, capsys):
    """Every PASS line of `verify` on the acceptance config at --seed 9
    prints a margin without a minus sign: a zero margin reads +0.0."""
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(ACCEPTANCE_CONFIG)
    assert cli.main(["verify", "--config", str(cfg), "--seed", "9",
                     "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    margins = [line.split(" margin=")[1] for line in lines
               if line.startswith("check ") and ": PASS " in line]
    assert len(margins) == len(CHECK_NAMES)
    assert not [m for m in margins if m.startswith("-")], margins


@pytest.fixture(scope="module")
def three_runs(healthy):
    """A configured run, a distinct symmetric run and the one-branch
    uniform run, as `verify` builds them for a non-symmetric config."""
    d = healthy.domain
    spec = InitialSpec("branches", branch_coeffs=((0.0, 1.0), (1.0, 0.0, 1.0)))
    traj = run_flow(sample_initial(spec, d, 2), uniform_schedule(0.25, 8))
    q1_spec = InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0),))
    q1 = run_flow(sample_initial(q1_spec, d, 1), uniform_schedule(0.25, 8))
    return traj, healthy, q1


def test_evaluate_runs_each_check_on_its_run_in_order(three_runs):
    """One result per CHECK_NAMES entry, named after it and in its order,
    equal to each check called by hand on the run it reads, drawing from
    one generator in the same order."""
    traj, sym, q1 = three_runs
    results = checks.evaluate(CHECK_NAMES, np.random.default_rng(17),
                              traj, sym, q1)
    assert [r.name for r in results] == list(CHECK_NAMES)
    rng = np.random.default_rng(17)
    by_hand = [
        check_metric_axioms(rng), check_sorted_matching(rng),
        check_embedding_isometry(rng), check_ascending_projection(rng),
        check_translation_identity(rng, traj.domain, 2),
        check_energy_monotonicity(traj), check_step_estimate(traj),
        check_eta_residual(q1), check_symmetry(sym), check_positivity(sym),
        check_max_principle([traj, sym, q1]),
        check_boundary_trace(traj, rng), check_holder(traj, rng),
        check_brute_force(rng), check_oracle_equivalence(q1),
    ]
    assert results == by_hand


def test_evaluate_falls_back_to_the_configured_run(three_runs):
    """Without sym and q1 every check reads traj, and max_principle
    counts it once."""
    traj = three_runs[0]
    names = ("eta_residual", "symmetry", "max_principle")
    results = checks.evaluate(names, np.random.default_rng(0), traj)
    assert results == [check_eta_residual(traj), check_symmetry(traj),
                       check_max_principle([traj])]
    assert results[2].detail.startswith("1 uniform run(s)")


def test_evaluate_rejects_an_unknown_name_before_running_any(
        monkeypatch, healthy):
    called = []
    monkeypatch.setattr(checks, "check_holder",
                        lambda *args: called.append(args))
    with pytest.raises(ValueError, match="'bogus'"):
        checks.evaluate(("holder", "bogus"), np.random.default_rng(0), healthy)
    assert called == []


def test_evaluate_calls_the_check_bound_in_the_module_now(monkeypatch, healthy):
    """A check rebound in qflow.checks after import, as a tracer does, is
    the function that evaluate calls."""
    calls = []

    def fake(traj, rng):
        calls.append((traj, rng))
        return CheckResult("holder", 1.0, "fake")

    rng = np.random.default_rng(0)
    monkeypatch.setattr(checks, "check_holder", fake)
    (res,) = checks.evaluate(("holder",), rng, healthy)
    assert res == CheckResult("holder", 1.0, "fake")
    assert calls == [(healthy, rng)]
