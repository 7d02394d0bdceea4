"""Domain construction, energies, residuals, snapshot files."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qflow.grid import (
    _format_cells,
    _paired,
    InitialSpec,
    QGridFunction,
    build_domain,
    dirichlet_energy,
    domain_manifest,
    l2_distance_sq,
    sample_initial,
    write_snapshot_csv,
)
from qflow.oracle import implicit_euler_chain
from qflow.qspace import match_rows
from reference import (
    branch_mean_residual,
    neighbor_sums,
    scalar_dirichlet_energy,
    translate_field,
)


def random_function(rng, domain, q, n=1, scale=1.0):
    return QGridFunction(
        domain, rng.normal(0.0, scale, size=(domain.num_nodes, q, n))
    )


# --- domains ---------------------------------------------------------------

def test_interval_domain_resolution_3():
    d = build_domain(1, 3)
    assert d.delta == 1.0
    assert np.array_equal(d.coords[:, 0], [-1.0, 0.0, 1.0])
    assert np.array_equal(d.edges, [[0, 1], [1, 2]])
    assert np.array_equal(d.interior, [1])
    assert np.array_equal(d.is_boundary, [True, False, True])


def test_disk_domain_resolution_3_is_the_five_node_cross():
    # the four square corners lie outside the unit disk and are masked off
    d = build_domain(2, 3)
    assert d.num_nodes == 5
    assert d.num_edges == 4
    assert len(d.interior) == 1
    assert np.array_equal(d.coords[d.interior[0]], [0.0, 0.0])


def test_disk_domain_counts_at_resolution_9():
    d = build_domain(2, 9)
    assert (d.num_nodes, d.num_edges, len(d.interior)) == (49, 80, 29)
    # all boundary nodes lie within one cell of the sphere
    r = np.linalg.norm(d.coords[d.is_boundary], axis=1)
    assert np.all(r >= 1.0 - 2 * d.delta)
    assert np.all(np.linalg.norm(d.coords, axis=1) <= 1.0 + 1e-12)


def _per_point_lattice(m, resolution):
    """The lattice built point by point: the closed form on the interval,
    and on the disk a walk over every point of the square that keeps the
    points of the closed disk, row by row with x fastest."""
    axis = np.linspace(-1.0, 1.0, resolution)
    if m == 1:
        coords = axis.reshape(-1, 1).copy()
        is_boundary = np.zeros(resolution, dtype=bool)
        is_boundary[0] = is_boundary[-1] = True
        idx = np.arange(resolution - 1)
        edges = np.column_stack([idx, idx + 1]).astype(np.int64)
        return coords, is_boundary, edges, np.flatnonzero(~is_boundary)
    keep = {}
    coords_list = []
    for iy in range(resolution):
        for ix in range(resolution):
            x, y = axis[ix], axis[iy]
            if x * x + y * y <= 1.0 + 1e-12:
                keep[(ix, iy)] = len(coords_list)
                coords_list.append((x, y))
    coords = np.asarray(coords_list, dtype=float)
    is_boundary = np.zeros(len(coords_list), dtype=bool)
    edge_list = []
    for (ix, iy), k in keep.items():
        x, y = coords[k]
        on_sphere = x * x + y * y >= 1.0 - 1e-12
        missing = any((ix + dx, iy + dy) not in keep
                      for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))
        is_boundary[k] = on_sphere or missing
        for dx, dy in ((1, 0), (0, 1)):
            other = keep.get((ix + dx, iy + dy))
            if other is not None:
                edge_list.append((k, other))
    edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    return coords, is_boundary, edges, np.flatnonzero(~is_boundary)


@pytest.mark.parametrize("m", (1, 2))
def test_domain_arrays_equal_the_per_point_lattice(m):
    for resolution in [*range(3, 62, 2), 201]:
        d = build_domain(m, resolution)
        got = (d.coords, d.is_boundary, d.edges, d.interior)
        for name, a, b in zip(("coords", "is_boundary", "edges", "interior"),
                              got, _per_point_lattice(m, resolution)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (resolution, name)
            assert a.tobytes() == b.tobytes(), (resolution, name)


def test_domain_validation():
    for m, res in ((0, 11), (3, 11), (1, 10), (1, 1)):
        with pytest.raises(ValueError):
            build_domain(m, res)


def test_domain_manifest_fields():
    d = build_domain(1, 5)
    man = domain_manifest(d)
    assert man["m"] == 1 and man["resolution"] == 5
    assert man["num_nodes"] == 5 and man["num_edges"] == 4
    assert man["boundary_nodes"] == [0, 4]
    assert man["delta"] == 0.5


# --- energies --------------------------------------------------------------

def test_hat_function_energy():
    d = build_domain(1, 3)
    f = QGridFunction(d, np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
    assert dirichlet_energy(f) == 2.0


def test_symmetric_pair_doubles_the_scalar_energy():
    rng = np.random.default_rng(11)
    d = build_domain(1, 21)
    u = np.abs(rng.normal(0.0, 1.0, size=d.num_nodes))
    vals = np.stack([-u, u], axis=1)[:, :, None]
    f = QGridFunction(d, vals)
    expected = 2.0 * scalar_dirichlet_energy(d, u)
    assert dirichlet_energy(f) == pytest.approx(expected, rel=1e-12)


def test_cosine_energy_converges_at_second_order():
    """The two-branch cosine datum has energy pi^2/2 in the continuum."""
    exact = np.pi**2 / 2.0
    errors = []
    for res in (51, 101, 201):
        d = build_domain(1, res)
        f = sample_initial(InitialSpec("symmetric-cos"), d, 2)
        errors.append(abs(dirichlet_energy(f) - exact))
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert errors[-1] < 2e-4
    assert min(orders) >= 1.9


def test_l2_distance_between_distinct_functions_is_positive():
    rng = np.random.default_rng(13)
    d = build_domain(1, 11)
    f = random_function(rng, d, 2)
    g = random_function(rng, d, 2)
    assert l2_distance_sq(f, f) == 0.0
    assert l2_distance_sq(f, g) > 0.0
    assert l2_distance_sq(f, g) == pytest.approx(l2_distance_sq(g, f), rel=1e-12)


def test_mismatched_functions_raise():
    d5, d7 = build_domain(1, 5), build_domain(1, 7)
    f5 = QGridFunction(d5, np.zeros((5, 1, 1)))
    f7 = QGridFunction(d7, np.zeros((7, 1, 1)))
    g5 = QGridFunction(d5, np.zeros((5, 2, 1)))
    with pytest.raises(ValueError):
        l2_distance_sq(f5, f7)
    with pytest.raises(ValueError):
        l2_distance_sq(f5, g5)


# --- translation identity --------------------------------------------------

def test_translation_energy_identity():
    """Adding a single-valued field phi to every branch expands the energy
    by an exact cross term against the branch mean plus q times the energy
    of phi.  Checked for scalar and planar domains."""
    rng = np.random.default_rng(17)
    cases = [(build_domain(1, 31), q) for q in (1, 2, 3)]
    cases.append((build_domain(2, 11), 2))
    worst = 0.0
    for d, q in cases:
        ea, eb = d.edges[:, 0], d.edges[:, 1]
        w = d.delta ** (d.m - 2)
        for _ in range(20):
            f = random_function(rng, d, q)
            phi = rng.normal(0.0, 1.0, size=d.num_nodes)
            lhs = dirichlet_energy(translate_field(f, phi[:, None]))
            eta = f.values.mean(axis=1)[:, 0]
            cross = 2.0 * q * w * float(
                ((eta[ea] - eta[eb]) * (phi[ea] - phi[eb])).sum()
            )
            rhs = (
                dirichlet_energy(f)
                + cross
                + q * scalar_dirichlet_energy(d, phi)
            )
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-10


def test_translate_field_validates_shape():
    d = build_domain(1, 5)
    f = QGridFunction(d, np.zeros((5, 2, 1)))
    with pytest.raises(ValueError):
        translate_field(f, np.zeros(4))


# --- step residual ---------------------------------------------------------

def test_stationary_residual_equals_laplacian_of_the_mean():
    """With f_curr = f_prev the time difference vanishes, leaving exactly
    the second difference of the branch mean (computed here by hand)."""
    rng = np.random.default_rng(19)
    d = build_domain(1, 17)
    f = random_function(rng, d, 3)
    got = branch_mean_residual(f, f, tau=0.37)
    mean = f.values.mean(axis=1)[:, 0]
    worst = 0.0
    for j in d.interior:
        acc = 0.0
        for a, b in d.edges:
            if a == j:
                acc += mean[j] - mean[b]
            elif b == j:
                acc += mean[j] - mean[a]
        worst = max(worst, abs(acc) / d.delta**2)
    assert got == pytest.approx(worst, rel=1e-12)


def test_chain_step_has_negligible_residual():
    """One backward Euler step from the direct solver satisfies the interior
    equation to solver precision."""
    rng = np.random.default_rng(23)
    d = build_domain(1, 41)
    u0 = rng.normal(0.0, 1.0, size=d.num_nodes)
    tau = 0.05
    u1 = implicit_euler_chain(d, u0, [tau])[-1]
    f0 = QGridFunction(d, u0[:, None, None])
    f1 = QGridFunction(d, u1[:, None, None])
    assert branch_mean_residual(f0, f1, tau) <= 1e-10


def test_residual_rejects_bad_arguments():
    d = build_domain(1, 5)
    f = QGridFunction(d, np.zeros((5, 1, 1)))
    g = QGridFunction(d, np.zeros((5, 1, 2)))
    with pytest.raises(ValueError):
        branch_mean_residual(f, f, tau=0.0)
    with pytest.raises(ValueError):
        branch_mean_residual(f, g, tau=0.1)


def test_vector_residual_is_the_largest_coordinate_residual():
    """For n > 1 the residual is taken coordinate by coordinate; each
    coordinate of the branch mean gives the scalar residual exactly."""
    rng = np.random.default_rng(29)
    d = build_domain(2, 9)
    prev = rng.normal(size=(d.num_nodes, 2, 3))
    curr = rng.normal(size=(d.num_nodes, 2, 3))
    got = branch_mean_residual(QGridFunction(d, prev),
                               QGridFunction(d, curr), tau=0.2)
    per_coordinate = [
        branch_mean_residual(QGridFunction(d, prev[:, :, c:c + 1]),
                             QGridFunction(d, curr[:, :, c:c + 1]), tau=0.2)
        for c in range(3)
    ]
    assert got == max(per_coordinate)


# --- initial data ----------------------------------------------------------

def test_symmetric_cos_preset_shape():
    d = build_domain(1, 21)
    f = sample_initial(InitialSpec("symmetric-cos"), d, 4)
    x = d.coords[:, 0]
    g = np.cos(np.pi * np.abs(x) / 2.0)
    assert np.allclose(f.values[:, 3, 0], g, atol=1e-15)
    assert np.allclose(f.values[:, 0, 0], -g, atol=1e-15)
    # boundary values vanish for the cosine datum
    assert np.allclose(f.values[d.is_boundary], 0.0, atol=1e-15)


def test_symmetric_poly_preset_clamps_below_zero():
    d = build_domain(1, 11)
    f = sample_initial(InitialSpec("symmetric-poly", coeffs=(0.5, -1.0)), d, 2)
    s = np.abs(d.coords[:, 0])
    g = np.maximum(0.5 - s, 0.0)
    assert np.allclose(f.values[:, 1, 0], g, atol=1e-15)


def test_branches_preset_samples_radial_polynomials():
    d = build_domain(1, 9)
    spec = InitialSpec("branches", branch_coeffs=((1.0, 0.0, -1.0), (0.0, 0.5)))
    f = sample_initial(spec, d, 2)
    s = np.abs(d.coords[:, 0])
    expect = np.sort(np.stack([1.0 - s**2, 0.5 * s], axis=1), axis=1)
    assert np.allclose(f.values[:, :, 0], expect, atol=1e-15)


@pytest.mark.parametrize("m, res", [(1, 21), (2, 11)])
def test_polynomial_presets_have_the_bits_of_numpy_polynomial(m, res):
    """Both polynomial presets sample their coefficients with the bits of
    `numpy.polynomial.polynomial.polyval`, for random coefficients of
    every length from 1 to 6."""
    from numpy.polynomial import polynomial as npoly

    d = build_domain(m, res)
    s = np.linalg.norm(d.coords, axis=1)
    rng = np.random.default_rng(res)
    for length in range(1, 7):
        for _ in range(5):
            a, b = (tuple(rng.normal(size=length).tolist()) for _ in range(2))
            poly = sample_initial(InitialSpec("symmetric-poly", coeffs=a), d, 2)
            want = np.maximum(npoly.polyval(s, np.asarray(a)), 0.0)
            assert poly.values[:, 1, 0].tobytes() == want.tobytes()
            branches = sample_initial(
                InitialSpec("branches", branch_coeffs=(a, b)), d, 2)
            want = np.sort(np.stack([npoly.polyval(s, np.asarray(c))
                                     for c in (a, b)], axis=1), axis=1)
            assert branches.values[:, :, 0].tobytes() == want.tobytes()


def test_preset_validation():
    d = build_domain(1, 5)
    with pytest.raises(ValueError):
        sample_initial(InitialSpec("symmetric-cos"), d, 3)  # odd q
    with pytest.raises(ValueError):
        sample_initial(InitialSpec("symmetric-poly"), d, 2)  # no coeffs
    with pytest.raises(ValueError):
        sample_initial(InitialSpec("branches", branch_coeffs=((1.0,),)), d, 2)
    with pytest.raises(ValueError):
        sample_initial(InitialSpec("branches", branch_coeffs=((1.0,), ())), d, 2)
    with pytest.raises(ValueError):
        sample_initial(InitialSpec("plateau"), d, 2)
    with pytest.raises(ValueError):
        sample_initial(InitialSpec("symmetric-cos"), d, 0)


def test_grid_function_rows_are_canonical_and_frozen():
    d = build_domain(1, 3)
    f = QGridFunction(d, np.array([[[2.0], [-1.0]]] * 3))
    assert np.array_equal(f.values[0, :, 0], [-1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 9.0


def test_domains_and_grid_functions_compare_by_identity():
    """Array fields take no part in == or hash(): equal-shaped objects
    built twice are distinct, and `same_as` is the structural test."""
    d, d2 = build_domain(1, 5), build_domain(1, 5)
    assert d != d2 and d == d and d.same_as(d2)
    assert d in [d2, d] and d not in [d2]
    assert hash(d) == hash(d) and len({d, d2, d}) == 2
    f = QGridFunction(d, np.zeros((5, 2, 1)))
    f2 = QGridFunction(d, np.zeros((5, 2, 1)))
    assert f != f2 and f in [f2, f] and f not in [f2]
    assert len({f, f2, f}) == 2


def test_vector_energy_adds_edge_costs_left_to_right():
    """For n > 1 the energy and the distance are the per-row matching
    costs added in row order, bit for bit."""
    rng = np.random.default_rng(31)
    d = build_domain(2, 9)
    f = random_function(rng, d, 3, n=2)
    g = random_function(rng, d, 3, n=2)

    def in_order(a_rows, b_rows):
        total = 0.0
        for cost in match_rows(a_rows, b_rows)[1]:
            total += float(cost)
        return total

    ea, eb = d.edges[:, 0], d.edges[:, 1]
    assert dirichlet_energy(f) == \
        d.delta ** (d.m - 2) * in_order(f.values[ea], f.values[eb])
    assert l2_distance_sq(f, g) == d.delta**d.m * in_order(f.values, g.values)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_edge_gathers_have_the_bits_of_a_fancy_index(q, n):
    """The energies gather edge ends with `take`; on the resolution-61 disk
    they carry the bits of the same sums over fancy-indexed edge ends."""
    rng = np.random.default_rng(10 * q + n)
    d = build_domain(2, 61)
    ea, eb = d.edges[:, 0], d.edges[:, 1]
    w_e = d.delta ** (d.m - 2)
    f = random_function(rng, d, q, n)
    vals = f.values
    assert dirichlet_energy(f) == w_e * _paired(vals[ea], vals[eb])[1]
    u = vals[:, 0]
    assert scalar_dirichlet_energy(d, u) == w_e * float(((u[ea] - u[eb]) ** 2).sum())
    c = u[:, 0]
    diff = c[ea] - c[eb]
    want = (np.bincount(ea, weights=diff, minlength=d.num_nodes)
            - np.bincount(eb, weights=diff, minlength=d.num_nodes))
    assert neighbor_sums(d, c).tobytes() == want.tobytes()


# --- snapshot files --------------------------------------------------------

def test_snapshot_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(29)
    d = build_domain(1, 15)
    f = random_function(rng, d, 3)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(f, path)
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert raw.shape == (d.num_nodes, 1 + d.m + 3)
    assert np.array_equal(raw[:, 1 + d.m:], f.values.reshape(d.num_nodes, 3))
    header = path.read_text().splitlines()[0]
    assert header == "node_index,x0,v0,v1,v2"


def write_snapshot_by_rows(f, path):
    """Per-row, per-cell reference writer for `write_snapshot_csv`."""
    d = f.domain
    cols = ["node_index"]
    cols += [f"x{i}" for i in range(d.m)]
    cols += [f"v{i}" for i in range(f.q * f.n)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for j in range(d.num_nodes):
            row = [str(j)]
            row += [format(c, ".17e") for c in d.coords[j]]
            row += [format(c, ".17e") for c in f.values[j].ravel()]
            fh.write(",".join(row) + "\n")


def assert_same_snapshot_bytes(f, tmp_path):
    write_snapshot_csv(f, tmp_path / "fast.csv")
    write_snapshot_by_rows(f, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


EXTREME_VALUES = [-0.0, 5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize("m,resolution", [(1, 9), (2, 7)])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_snapshot_bytes_match_a_per_row_writer(tmp_path, m, resolution, q, n):
    rng = np.random.default_rng(31 + 7 * q + n)
    d = build_domain(m, resolution)
    vals = rng.normal(size=(d.num_nodes, q, n))
    vals.ravel()[:len(EXTREME_VALUES)] = EXTREME_VALUES
    f = QGridFunction(d, vals)
    assert_same_snapshot_bytes(f, tmp_path)
    text = (tmp_path / "fast.csv").read_text()
    for cell in ("-0.00000000000000000e+00", "4.94065645841246544e-324",
                 "-1.00000000000000005e+300", "3.33333333333333315e-01"):
        assert cell in text


def test_snapshot_widths_on_one_domain_in_either_order(tmp_path):
    rng = np.random.default_rng(37)
    d = build_domain(2, 9)
    narrow = random_function(rng, d, 1)
    wide = random_function(rng, d, 3, n=2)
    for f in (narrow, wide, narrow):
        assert_same_snapshot_bytes(f, tmp_path)
    d = build_domain(2, 9)
    for f in (QGridFunction(d, wide.values), QGridFunction(d, narrow.values)):
        assert_same_snapshot_bytes(f, tmp_path)


# --- the snapshot formatter against `%` -------------------------------------

def assert_formats_like_percent(x):
    """`_format_cells` gives the bytes of `'%.17e' % c` for every c of x."""
    x = np.asarray(x, dtype=float)
    cells = _format_cells(x).T
    got = cells[cells != 0].tobytes().decode().split(",")
    want = ["%.17e" % c for c in x.tolist()]
    assert got[-1] == "" and len(got) == len(want) + 1
    bad = [(c, g, w) for c, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(want)} differ, first: {bad[:3]}"


def signed(rng, values):
    return values * rng.choice([-1.0, 1.0], size=values.shape)


@pytest.mark.parametrize("draw", ["normal", "uniform", "log-uniform", "dyadic"])
def test_format_cells_matches_percent_on_seeded_draws(draw):
    rng = np.random.default_rng(41)
    size = 60_000
    x = {
        "normal": lambda: rng.normal(size=size),
        "uniform": lambda: rng.uniform(-2.0, 2.0, size),
        "log-uniform": lambda: signed(rng, 10.0 ** rng.uniform(-12, 18, size)),
        # j / 2^18 in [1, 10): up to 18 significant bits after the point
        "dyadic": lambda: rng.integers(2**18, 10 * 2**18, size) / 2.0**18,
    }[draw]()
    assert_formats_like_percent(x)


def test_format_cells_matches_percent_beside_powers_of_ten():
    near = []
    for k in range(-12, 19):
        for toward in (0.0, math.inf):
            y = float(f"1e{k}")
            for _ in range(4):
                near.append(y)
                y = np.nextafter(y, toward)
    near = np.array(near)
    assert_formats_like_percent(np.concatenate([near, -near]))


def test_format_cells_rounds_exact_decimal_ties_half_even():
    """c / 2^s with c odd has exactly s digits after the point; with
    s = 18 - E in the decade [10^E, 10^(E+1)) the 19th significant digit is
    a final 5, a tie that `%` rounds to even."""
    rng = np.random.default_rng(43)
    ties = []
    for E in range(-9, 16):
        s = 18 - E
        lo = math.ceil(Fraction(10) ** E * 2**s)
        hi = min(math.ceil(Fraction(10) ** (E + 1) * 2**s), 2**53)
        c = np.unique(rng.integers(lo, hi, size=2000) | 1)
        ties += [math.ldexp(int(j), -s) for j in c[c < hi]]
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 19 and digits[-1] == 5
    assert len(ties) > 30_000
    assert_formats_like_percent(ties + [-t for t in ties])


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_format_cells_corrects_a_decade_estimate_one_off(monkeypatch, shift):
    """With log10 one off on every value the range check redoes them all,
    and an exact power of ten estimated a decade low carries to 10^18, so
    the bytes still equal `%`."""
    rng = np.random.default_rng(47)
    x = np.concatenate([signed(rng, 10.0 ** rng.uniform(-10, 14, 5000)),
                        [float(f"1e{k}") for k in range(-10, 14)]])
    # keep the values whose own estimate is right (not 1e-7, just below
    # 10^-7), so that the shifted one is one off
    exponent = [int(("%.17e" % c).split("e")[1]) for c in x]
    x = x[np.floor(np.log10(np.abs(x))) == exponent]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert_formats_like_percent(x)


def test_format_cells_falls_back_to_percent_outside_its_range():
    tiny, huge = np.nextafter(1e-10, 0.0), 1e14
    edges = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e300, tiny, huge,
             1e-10, np.nextafter(huge, 0.0), math.inf]
    assert_formats_like_percent(edges + [-v for v in edges] + [math.nan])
