"""Domain construction, energies, residuals, snapshot files."""

import numpy as np
import pytest

from qflow.grid import (
    InitialSpec,
    build_domain,
    branch_mean_field,
    branch_mean_residual,
    dirichlet_energy,
    domain_manifest,
    l2_distance_sq,
    make_grid_function,
    read_snapshot_csv,
    sample_initial,
    scalar_dirichlet_energy,
    translate_field,
    write_snapshot_csv,
)
from qflow.oracle import implicit_euler_chain
from qflow.qspace import make_qpoint, optimal_matching


def random_function(rng, domain, q, n=1, scale=1.0):
    return make_grid_function(
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
    f = make_grid_function(d, np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
    assert dirichlet_energy(f) == 2.0


def test_symmetric_pair_doubles_the_scalar_energy():
    rng = np.random.default_rng(11)
    d = build_domain(1, 21)
    u = np.abs(rng.normal(0.0, 1.0, size=d.num_nodes))
    vals = np.stack([-u, u], axis=1)[:, :, None]
    f = make_grid_function(d, vals)
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
    f5 = make_grid_function(d5, np.zeros((5, 1, 1)))
    f7 = make_grid_function(d7, np.zeros((7, 1, 1)))
    g5 = make_grid_function(d5, np.zeros((5, 2, 1)))
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
            eta = branch_mean_field(f)[:, 0]
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
    f = make_grid_function(d, np.zeros((5, 2, 1)))
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
    mean = branch_mean_field(f)[:, 0]
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
    u1 = implicit_euler_chain(d, u0, [tau])
    f0 = make_grid_function(d, u0[:, None, None])
    f1 = make_grid_function(d, u1[:, None, None])
    assert branch_mean_residual(f0, f1, tau) <= 1e-10


def test_residual_rejects_bad_arguments():
    d = build_domain(1, 5)
    f = make_grid_function(d, np.zeros((5, 1, 1)))
    g = make_grid_function(d, np.zeros((5, 1, 2)))
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
    got = branch_mean_residual(make_grid_function(d, prev),
                               make_grid_function(d, curr), tau=0.2)
    per_coordinate = [
        branch_mean_residual(make_grid_function(d, prev[:, :, c:c + 1]),
                             make_grid_function(d, curr[:, :, c:c + 1]), tau=0.2)
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
    f = make_grid_function(d, np.array([[[2.0], [-1.0]]] * 3))
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
    f = make_grid_function(d, np.zeros((5, 2, 1)))
    f2 = make_grid_function(d, np.zeros((5, 2, 1)))
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
        for va, vb in zip(a_rows, b_rows):
            total += optimal_matching(make_qpoint(va), make_qpoint(vb)).cost
        return total

    ea, eb = d.edges[:, 0], d.edges[:, 1]
    assert dirichlet_energy(f) == \
        d.delta ** (d.m - 2) * in_order(f.values[ea], f.values[eb])
    assert l2_distance_sq(f, g) == d.delta**d.m * in_order(f.values, g.values)


# --- snapshot files --------------------------------------------------------

def test_snapshot_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(29)
    d = build_domain(1, 15)
    f = random_function(rng, d, 3)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(f, path)
    g = read_snapshot_csv(path, d, q=3)
    assert np.array_equal(f.values, g.values)
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
    f = make_grid_function(d, vals)
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
    for f in (make_grid_function(d, wide.values), make_grid_function(d, narrow.values)):
        assert_same_snapshot_bytes(f, tmp_path)


def test_snapshot_read_validates_shape(tmp_path):
    d = build_domain(1, 5)
    f = make_grid_function(d, np.zeros((5, 2, 1)))
    path = tmp_path / "snap.csv"
    write_snapshot_csv(f, path)
    with pytest.raises(ValueError):
        read_snapshot_csv(path, d, q=3)
    with pytest.raises(ValueError):
        read_snapshot_csv(path, build_domain(1, 7), q=2)
