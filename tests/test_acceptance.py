"""Acceptance battery for the implicit energy-reducing flow.

Every test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL summary line (visible with pytest -s).  The
heavy trajectories are computed once per module.
"""

import itertools
import time

import numpy as np
import pytest

from qflow.grid import (
    InitialSpec,
    QGridFunction,
    branch_mean_field,
    branch_mean_residual,
    build_domain,
    dirichlet_energy,
    l2_distance_sq,
    sample_initial,
)
from qflow.morseflow import (
    evaluate_at_time,
    geometric_schedule,
    holder_margin,
    minimize_step,
    run_flow,
    uniform_schedule,
)
from qflow.oracle import (
    EigenMode,
    brute_force_step,
    exact_eigen_solution,
    implicit_euler_chain,
    max_principle_check,
)
from qflow.qspace import (
    ascending_projection,
    make_qpoint,
    matching_distance,
    optimal_matching,
    sorted_embedding,
)

RESOLUTION = 201
STEPS = 64
HORIZON = 0.25

Q1_BRANCHES = ((1.0, 0.0, -1.0),)
Q3_BRANCHES = ((-1.0, 0.0, 1.0), (0.3, 0.0, -0.3), (1.2, 0.0, -1.0))


def initial_datum(domain, q):
    if q == 1:
        spec = InitialSpec("branches", branch_coeffs=Q1_BRANCHES)
    elif q == 2:
        spec = InitialSpec("symmetric-cos")
    else:
        spec = InitialSpec("branches", branch_coeffs=Q3_BRANCHES)
    return sample_initial(spec, domain, q)


def summary(criterion, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {label}: {status} ({detail})")


@pytest.fixture(scope="module")
def battery():
    """The acceptance trajectories: both schedules at N=64 for Q in {1,2},
    the uniform Q=3 run, and short geometric runs for the step equation."""
    domain = build_domain(1, RESOLUTION)
    runs = {}

    def add(name, q, schedule):
        f0 = initial_datum(domain, q)
        t0 = time.monotonic()
        traj = run_flow(f0, schedule)
        runs[name] = {
            "traj": traj,
            "seconds": time.monotonic() - t0,
            "q": q,
            "f0": f0,
        }

    for q in (1, 2):
        add(f"uniform_q{q}", q, uniform_schedule(HORIZON, STEPS))
        add(f"geometric_q{q}", q, geometric_schedule(HORIZON, STEPS))
    add("uniform_q3", 3, uniform_schedule(HORIZON, STEPS))
    for q in (1, 2, 3):
        add(f"geo16_q{q}", q, geometric_schedule(HORIZON, 16))
    return {"domain": domain, "runs": runs}


def test_criterion_01_energy_monotonicity(battery):
    """Both schedules, Q in {1,2}: the energy never increases and each run
    stays inside the wall budget."""
    names = ["uniform_q1", "uniform_q2", "geometric_q1", "geometric_q2"]
    clearance = np.inf
    slowest = 0.0
    for name in names:
        entry = battery["runs"][name]
        traj = entry["traj"]
        assert traj.completed_steps == STEPS, name
        energies = traj.energies
        for prev, curr in zip(energies, energies[1:]):
            clearance = min(clearance, prev + 1e-10 * max(1.0, prev) - curr)
        slowest = max(slowest, entry["seconds"])
    ok = clearance >= 0.0 and slowest < 10.0
    summary(1, "energy monotonicity, 4 runs x 64 steps", ok,
            f"tightest clearance {clearance:.3e}, slowest run {slowest:.2f}s")
    assert clearance >= 0.0
    assert slowest < 10.0


def test_criterion_02_step_estimate(battery):
    """tau * energy drop dominates the movement penalty at every step of
    every acceptance run."""
    worst = np.inf
    count = 0
    for entry in battery["runs"].values():
        margins = entry["traj"].estimate_margins
        worst = min(worst, *margins)
        count += len(margins)
    ok = worst >= -1e-10
    summary(2, f"step estimate over {count} steps", ok,
            f"smallest margin {worst:.3e}")
    assert worst >= -1e-10


def test_criterion_03_step_equation_residual(battery):
    """The branch mean of every converged step satisfies the implicit heat
    equation at the interior nodes."""
    names = ["uniform_q1", "uniform_q2", "uniform_q3",
             "geo16_q1", "geo16_q2", "geo16_q3"]
    worst = 0.0
    for name in names:
        traj = battery["runs"][name]["traj"]
        for k, report in enumerate(traj.reports, start=1):
            if not report.converged:
                continue
            prev, curr = traj.snapshots[k - 1], traj.snapshots[k]
            res = branch_mean_residual(prev, curr, report.tau)
            scale = 1.0 + float(np.max(np.abs(branch_mean_field(curr))))
            worst = max(worst, res / scale)
    ok = worst <= 1e-8
    summary(3, "step equation residual, Q in {1,2,3}, both schedules", ok,
            f"largest scaled residual {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_04_symmetry(battery):
    """Symmetric two branch data keeps its nodewise mean at zero for the
    whole trajectory."""
    worst = 0.0
    for name in ("uniform_q2", "geometric_q2", "geo16_q2"):
        for f in battery["runs"][name]["traj"].snapshots:
            worst = max(worst, float(np.max(np.abs(branch_mean_field(f)))))
    ok = worst <= 1e-10
    summary(4, "symmetry preservation, cosine datum", ok,
            f"largest |mean| {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_05_positivity(battery):
    """The upper branch separates instantly and stays strictly positive at
    interior nodes."""
    interior = battery["domain"].interior
    smallest = np.inf
    for name in ("uniform_q2", "geometric_q2", "geo16_q2"):
        traj = battery["runs"][name]["traj"]
        for f in traj.snapshots[1:]:
            smallest = min(smallest, float(f.values[interior, -1, 0].min()))
    ok = smallest > 1e-12
    summary(5, "instant separation of the upper branch", ok,
            f"smallest interior value {smallest:.3e}")
    assert smallest > 1e-12


def test_criterion_06_heat_flow_limit(battery):
    """The upper branch of the symmetric flow tracks the decaying eigenmode:
    headline accuracy at N=64, first order in tau, second order in delta."""
    mode = EigenMode(1)
    domain = battery["domain"]
    exact = exact_eigen_solution(mode, HORIZON, domain)
    scale = float(np.linalg.norm(exact))

    def rel_error(traj, dom, ref, ref_scale):
        top = evaluate_at_time(traj, HORIZON).values[:, -1, 0]
        return float(np.linalg.norm(top - ref) / ref_scale)

    headline = rel_error(battery["runs"]["uniform_q2"]["traj"], domain,
                         exact, scale)

    t0 = time.monotonic()
    temporal = []
    for steps in (16, 32):
        traj = run_flow(initial_datum(domain, 2), uniform_schedule(HORIZON, steps))
        temporal.append(rel_error(traj, domain, exact, scale))
    temporal.append(headline)
    t_orders = [np.log2(a / b) for a, b in zip(temporal, temporal[1:])]

    spatial = []
    for res in (11, 21, 41):
        dom = build_domain(1, res)
        ref = exact_eigen_solution(mode, HORIZON, dom)
        traj = run_flow(initial_datum(dom, 2), uniform_schedule(HORIZON, 12800))
        spatial.append(rel_error(traj, dom, ref, float(np.linalg.norm(ref))))
    s_orders = [np.log2(a / b) for a, b in zip(spatial, spatial[1:])]
    ladder_seconds = time.monotonic() - t0

    ok = (headline <= 5e-2 and min(t_orders) >= 0.9 and min(s_orders) >= 1.9
          and ladder_seconds < 60.0)
    summary(6, "heat flow limit", ok,
            f"headline error {headline:.3e}, temporal orders "
            f"{t_orders[0]:.3f}/{t_orders[1]:.3f}, spatial orders "
            f"{s_orders[0]:.3f}/{s_orders[1]:.3f}, ladder {ladder_seconds:.1f}s")
    assert headline <= 5e-2
    assert min(t_orders) >= 0.9
    assert min(s_orders) >= 1.9
    assert ladder_seconds < 60.0


def test_criterion_07_holder_bound(battery):
    """Time regularity: movement between sampled times stays under the
    square root bound from the initial energy."""
    rng = np.random.default_rng(2026)
    worst = np.inf
    for entry in battery["runs"].values():
        traj = entry["traj"]
        horizon = traj.schedule.total
        pairs = 0
        while pairs < 100:
            t, s = np.sort(rng.uniform(0.0, horizon, size=2))
            if not t < s:
                continue
            worst = min(worst, holder_margin(traj, float(t), float(s)))
            pairs += 1
    ok = worst >= -1e-8
    summary(7, "Holder bound, 100 pairs per run", ok,
            f"smallest margin {worst:.3e}")
    assert worst >= -1e-8


def test_criterion_08_max_principle(battery):
    """Uniform schedule runs keep the largest node norm non increasing."""
    names = ["uniform_q1", "uniform_q2", "uniform_q3"]
    ok = all(
        max_principle_check(battery["runs"][name]["traj"].snapshots)
        for name in names
    )
    summary(8, "max norm monotonicity, uniform runs", ok,
            f"{len(names)} runs checked")
    assert ok


def test_criterion_09_oracle_equivalence(battery):
    """Two independent routes agree: the Q=1 flow against the direct banded
    chain, and the local step against global enumeration on tiny grids."""
    domain = battery["domain"]
    entry = battery["runs"]["uniform_q1"]
    traj = entry["traj"]
    ref = implicit_euler_chain(domain, entry["f0"].values[:, 0, 0],
                               [report.tau for report in traj.reports])
    chain_gap = float(np.max(np.abs(traj.states[:, :, 0, 0] - ref)))

    rng = np.random.default_rng(515)
    step_gap = 0.0
    for i in range(20):
        res = 3 if i % 4 == 0 else 5  # at most 3 interior nodes
        dom = build_domain(1, res)
        f = QGridFunction(dom, rng.normal(0.0, 1.0, size=(dom.num_nodes, 2, 1)))
        tau = float(10.0 ** rng.uniform(-1.0, 0.0))
        local, _ = minimize_step(f, tau)
        value = dirichlet_energy(local) + l2_distance_sq(local, f) / tau
        _, best = brute_force_step(f, tau)
        step_gap = max(step_gap, abs(value - best))
        assert best <= value + 1e-10  # enumeration is the global optimum

    ok = chain_gap <= 1e-8 and step_gap <= 1e-8
    summary(9, "oracle equivalence", ok,
            f"chain gap {chain_gap:.3e}, step objective gap {step_gap:.3e}")
    assert chain_gap <= 1e-8
    assert step_gap <= 1e-8


def test_criterion_10_translation_identity(battery):
    """Energy of a translated function expands exactly into the original
    energy, a cross term with the branch mean, and the shift energy."""
    rng = np.random.default_rng(1031)
    d = build_domain(1, 31)
    ea, eb = d.edges[:, 0], d.edges[:, 1]
    w = d.delta ** (d.m - 2)
    worst = 0.0
    from qflow.grid import scalar_dirichlet_energy, translate_field

    for _ in range(50):
        q = int(rng.integers(1, 4))
        f = QGridFunction(d, rng.normal(0.0, 1.0, size=(d.num_nodes, q, 1)))
        phi = rng.normal(0.0, 1.0, size=d.num_nodes)
        lhs = dirichlet_energy(translate_field(f, phi[:, None]))
        eta = branch_mean_field(f)[:, 0]
        cross = 2.0 * q * w * float(((eta[ea] - eta[eb]) * (phi[ea] - phi[eb])).sum())
        rhs = dirichlet_energy(f) + cross + q * scalar_dirichlet_energy(d, phi)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst <= 1e-10
    summary(10, "translation identity, 50 pairs", ok,
            f"largest relative gap {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_11_metric_suite(battery):
    """Value space foundations: sorted matching equals exhaustive search,
    the sorted embedding is isometric, the ascending retraction is an
    idempotent short map."""
    rng = np.random.default_rng(1141)
    match_gap = 0.0
    for _ in range(200):
        q = int(rng.integers(1, 7))
        a = make_qpoint(rng.normal(0.0, 2.0, size=q))
        b = make_qpoint(rng.normal(0.0, 2.0, size=q))
        best = min(
            float(((a.points[:, 0] - b.points[list(p), 0]) ** 2).sum())
            for p in itertools.permutations(range(q))
        )
        match_gap = max(match_gap, abs(optimal_matching(a, b).cost - best))

    iso_gap = 0.0
    lip_excess = -np.inf
    idempotent = True
    for _ in range(200):
        q = int(rng.integers(1, 7))
        a = make_qpoint(rng.normal(0.0, 2.0, size=q))
        b = make_qpoint(rng.normal(0.0, 2.0, size=q))
        emb = float(np.linalg.norm(sorted_embedding(a) - sorted_embedding(b)))
        iso_gap = max(iso_gap, abs(emb - matching_distance(a, b)))
        x = rng.normal(0.0, 2.0, size=q)
        y = rng.normal(0.0, 2.0, size=q)
        px, py = ascending_projection(x), ascending_projection(y)
        idempotent &= bool(np.array_equal(ascending_projection(px), px))
        lip_excess = max(
            lip_excess,
            float(np.linalg.norm(px - py) - np.linalg.norm(x - y)),
        )

    ok = (match_gap == 0.0 and iso_gap <= 1e-12 and idempotent
          and lip_excess <= 1e-12)
    summary(11, "metric and embedding suite", ok,
            f"matching gap {match_gap:.1e}, isometry gap {iso_gap:.1e}, "
            f"Lipschitz excess {lip_excess:.1e}")
    assert match_gap == 0.0
    assert iso_gap <= 1e-12
    assert idempotent
    assert lip_excess <= 1e-12
