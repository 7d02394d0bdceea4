"""Multiset value type: metric, matching, embedding, projection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.grid import _paired
from qflow.qspace import (
    QPoint,
    _canonical,
    ascending_projection,
    make_qpoint,
    match_rows,
    matching_distance,
    optimal_matching,
    sorted_embedding,
)


def random_qpoint(rng, q, n, scale=2.0):
    return make_qpoint(rng.normal(0.0, scale, size=(q, n)))


def exhaustive_cost(a, b):
    """Minimum pairing cost by explicit enumeration of all permutations."""
    best = None
    for perm in itertools.permutations(range(a.q)):
        c = float(((a.points - b.points[list(perm)]) ** 2).sum())
        if best is None or c < best:
            best = c
    return best


def match_rows_by_enumeration(a, b):
    """First permutation, in itertools.permutations order, whose cost is
    within 1e-9 * (1 + |minimum|) of the minimum, for every row of two
    (rows, q, n) arrays at once: all q! permutations scored as one cost
    tensor.  Returns sigma and each row's cost as the sum of its q pair
    costs along the row (which numpy sums pairwise from q = 8 on)."""
    rows, q, _ = a.shape
    cost = ((a[:, :, None, :] - b[:, None, :, :]) ** 2).sum(axis=3)
    perms = np.array(list(itertools.permutations(range(q))), dtype=np.int64)
    scores = cost[:, np.arange(q), perms].sum(axis=2)
    low = scores.min(axis=1, keepdims=True)
    sigma = perms[np.argmax(scores <= low + 1e-9 * (1.0 + np.abs(low)), axis=1)]
    return sigma, cost[np.arange(rows)[:, None], np.arange(q), sigma].sum(axis=1)


def assert_matches_reference(a, b):
    sigma, cost = match_rows(a, b)
    assert sigma.shape == a.shape[:2] and cost.shape == a.shape[:1]
    ref_sigma, ref_cost = match_rows_by_enumeration(a, b)
    assert np.array_equal(sigma, ref_sigma)
    assert cost.tobytes() == ref_cost.tobytes()


# --- frozen values ---------------------------------------------------------

def test_sorted_pair_distance():
    a = make_qpoint([1.0, 3.0])
    b = make_qpoint([2.0, 4.0])
    assert matching_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    match = optimal_matching(a, b)
    assert match.sigma == (0, 1)
    assert match.cost == pytest.approx(2.0, abs=1e-15)


def test_identical_multisets_have_zero_distance():
    a = make_qpoint(np.array([[0.0, 0.0], [1.0, 1.0]]))
    b = make_qpoint(np.array([[1.0, 1.0], [0.0, 0.0]]))  # same multiset
    assert a == b
    assert matching_distance(a, b) == 0.0
    assert optimal_matching(a, b).cost == 0.0


def test_planar_pair_prefers_crossing_when_cheaper():
    a = make_qpoint(np.array([[0.0, 0.0], [1.0, 1.0]]))
    b = make_qpoint(np.array([[0.9, 1.1], [1.1, 0.0]]))
    match = optimal_matching(a, b)
    assert match.sigma == (1, 0)
    assert match.cost == pytest.approx(1.23, abs=1e-12)


def test_ascending_projection_examples():
    assert np.allclose(ascending_projection([3.0, 1.0]), [2.0, 2.0])
    assert np.allclose(ascending_projection([5.0, 3.0, 4.0]), [4.0, 4.0, 4.0])
    assert np.allclose(ascending_projection([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert ascending_projection([]).size == 0


def test_norm_is_distance_to_origin_copies():
    a = make_qpoint([3.0, 4.0])
    norm = float(np.sqrt((a.points**2).sum()))
    assert norm == pytest.approx(5.0, abs=1e-15)
    zero = make_qpoint([0.0, 0.0])
    assert matching_distance(a, zero) == pytest.approx(norm, abs=1e-15)
    # vector points: the norm sums |p_i|^2 over the branches
    b = QPoint(np.array([[1.0, 2.0], [-2.0, 4.0]]))
    assert matching_distance(b, QPoint(np.zeros((2, 2)))) == pytest.approx(
        5.0, abs=1e-15)


def test_canonical_storage_sorts_values():
    a = make_qpoint([2.0, -1.0, 0.5])
    assert np.array_equal(a.points[:, 0], [-1.0, 0.5, 2.0])
    b = QPoint(np.array([[3.0, 0.0], [1.0, 2.0], [1.0, -1.0]]))
    # lexicographic: first coordinate, then second
    assert np.array_equal(b.points, [[1.0, -1.0], [1.0, 2.0], [3.0, 0.0]])
    with pytest.raises(ValueError):
        a.points[0, 0] = 7.0  # canonical storage is read only


# --- randomized properties -------------------------------------------------

def test_metric_axioms():
    rng = np.random.default_rng(101)
    for _ in range(200):
        q = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        a = random_qpoint(rng, q, n)
        b = random_qpoint(rng, q, n)
        c = random_qpoint(rng, q, n)
        assert matching_distance(a, a) == 0.0
        dab = matching_distance(a, b)
        assert abs(dab - matching_distance(b, a)) <= 1e-12
        # reordering the same points is the same multiset
        perm = rng.permutation(q)
        assert matching_distance(a, QPoint(a.points[perm])) == 0.0
        if np.max(np.abs(a.points - b.points)) > 1e-12:
            assert dab > 1e-12
        assert matching_distance(a, c) <= dab + matching_distance(b, c) + 1e-10


def test_sorted_matching_agrees_with_exhaustive_search():
    """For scalar values the identity pairing of the sorted tuples is
    optimal; the enumerated minimum must agree exactly."""
    rng = np.random.default_rng(202)
    for _ in range(200):
        q = int(rng.integers(1, 7))
        a = random_qpoint(rng, q, 1)
        b = random_qpoint(rng, q, 1)
        match = optimal_matching(a, b)
        assert match.sigma == tuple(range(q))
        assert match.cost == exhaustive_cost(a, b)


def test_assignment_matches_exhaustive_search_in_the_plane():
    rng = np.random.default_rng(303)
    for _ in range(100):
        q = int(rng.integers(2, 6))
        a = random_qpoint(rng, q, 2)
        b = random_qpoint(rng, q, 2)
        assert optimal_matching(a, b).cost == pytest.approx(
            exhaustive_cost(a, b), abs=1e-12
        )


def test_match_rows_is_the_first_minimizer_in_permutation_order():
    """The subset programme against the enumeration for every q it takes,
    with exact ties from rounded values and from duplicated points."""
    rng = np.random.default_rng(707)
    for q in range(1, 9):
        for n in range(1, 4):
            rows = 12
            a = rng.normal(size=(rows, q, n))
            b = rng.normal(size=(rows, q, n))
            a[:4], b[:4] = np.round(a[:4]), np.round(b[:4])
            b[4:8] = a[4:8, rng.permutation(q)]
            a[8:, -1] = a[8:, 0]
            b[8:, 0] = b[8:, -1]
            assert_matches_reference(_canonical(a), _canonical(b))


def test_match_rows_takes_near_ties_within_the_tolerance():
    """Branches 0 and 1 of a[r] a hair apart: swapping their partners in
    the minimizer changes the cost by less or by more than
    1e-9 * (1 + |min|).  Where the swap comes first in permutation order,
    rows of the first kind take it above the minimum and rows of the second
    kind refuse it."""
    rng = np.random.default_rng(808)
    took = refused = 0
    for q in range(2, 9):
        rows = 40
        a = rng.normal(size=(rows, q, 2))
        b = rng.normal(size=(rows, q, 2))
        a[:, 0, 0] = a[:, :, 0].min(axis=1) - 1.0  # first in canonical order
        a[:, 1] = a[:, 0]
        a[:, 1, 1] += 10.0 ** rng.uniform(-11.0, -7.0, size=rows)
        a, b = _canonical(a), _canonical(b)
        assert_matches_reference(a, b)
        cost = ((a[:, :, None, :] - b[:, None, :, :]) ** 2).sum(axis=3)
        perms = np.array(list(itertools.permutations(range(q))))
        best = perms[cost[:, np.arange(q), perms].sum(axis=2).argmin(axis=1)]
        sigma = match_rows(a, b)[0]
        moved = (sigma != best).any(axis=1)
        took += int(moved.sum())
        refused += int((~moved & (best[:, 1] < best[:, 0])).sum())
    assert took > 0 and refused > 0


def test_vector_matching_is_bounded_in_q():
    rng = np.random.default_rng(909)
    with pytest.raises(ValueError, match="q <= 8"):
        match_rows(*rng.normal(size=(2, 3, 9, 2)))
    a, b = np.sort(rng.normal(size=(2, 3, 9, 1)), axis=2)
    sigma, cost = match_rows(a, b)
    assert np.array_equal(sigma, np.broadcast_to(np.arange(9), (3, 9)))
    assert np.array_equal(cost, ((a - b) ** 2).sum(axis=(1, 2)))


@st.composite
def row_pairs(draw, count=2):
    """`count` (rows, q, n) arrays of half integers, so ties are exact."""
    rows, q, n = draw(st.tuples(st.integers(1, 3), st.integers(1, 8),
                                st.integers(1, 3)))
    size = count * rows * q * n
    values = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    return tuple(0.5 * np.array(values, dtype=float).reshape(count, rows, q, n))


@settings(max_examples=60, deadline=None)
@given(row_pairs())
def test_match_rows_breaks_exact_ties_like_the_reference(pair):
    a, b = pair
    assert_matches_reference(_canonical(a), _canonical(b))


@settings(max_examples=60, deadline=None)
@given(row_pairs())
def test_paired_reports_the_identity_as_none(pair):
    """`grid._paired` returns None exactly when `match_rows` pairs every
    row by the identity, its sigma otherwise, and the row costs added left
    to right."""
    a, b = map(_canonical, pair)
    sigma, cost = match_rows(a, b)
    got, total = _paired(a, b)
    assert (got is None) == bool((sigma == np.arange(a.shape[1])).all())
    assert got is None or np.array_equal(got, sigma)
    want = 0.0
    for c in cost:
        want += float(c)
    assert total == want


@settings(max_examples=60, deadline=None)
@given(row_pairs(count=3), st.randoms(use_true_random=False))
def test_matching_distance_is_a_metric(rows, rnd):
    """The metric axioms of `check_metric_axioms`, over rows with exact
    ties: symmetry to 1e-12, exactly zero on a permuted copy, and the
    triangle inequality with 1e-10 slack."""
    a, b, c = map(_canonical, rows)
    order = list(range(a.shape[1]))
    rnd.shuffle(order)
    twin = _canonical(a[:, order])
    cost = match_rows(np.concatenate([a, b, a, b, a]),
                      np.concatenate([b, a, twin, c, c]))[1]
    dab, dba, same, dbc, dac = np.sqrt(cost).reshape(5, -1)
    assert np.all(np.abs(dab - dba) <= 1e-12)
    assert np.all(same == 0.0)
    assert np.all(dac <= dab + dbc + 1e-10)


@settings(max_examples=100, deadline=None)
@given(row_pairs())
def test_batched_canonical_order_is_the_per_row_order(pair):
    vals = pair[0]
    batched = _canonical(vals)
    for r, row in enumerate(vals):
        assert np.array_equal(batched[r], QPoint(row).points)
        assert [tuple(p) for p in batched[r]] == sorted(map(tuple, row))
    assert not batched.flags.writeable


def test_sorted_embedding_is_isometric():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        q = int(rng.integers(1, 7))
        a = random_qpoint(rng, q, 1)
        b = random_qpoint(rng, q, 1)
        d_embed = float(np.linalg.norm(sorted_embedding(a) - sorted_embedding(b)))
        worst = max(worst, abs(d_embed - matching_distance(a, b)))
    assert worst <= 1e-12


def test_ascending_projection_properties():
    rng = np.random.default_rng(505)
    for _ in range(200):
        q = int(rng.integers(1, 9))
        x = rng.normal(0.0, 3.0, size=q)
        y = rng.normal(0.0, 3.0, size=q)
        if rng.random() < 0.3 and q > 1:
            x[rng.integers(0, q - 1)] = x[rng.integers(0, q)]  # inject ties
        px = ascending_projection(x)
        assert np.all(np.diff(px) >= 0.0)
        # idempotent, bitwise
        assert np.array_equal(ascending_projection(px), px)
        # already ascending input is fixed bitwise
        xs = np.sort(x)
        assert np.array_equal(ascending_projection(xs), xs)
        # the retraction never expands distances
        py = ascending_projection(y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_translate_shifts_mean_and_preserves_distance():
    rng = np.random.default_rng(606)
    for _ in range(50):
        q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        a = random_qpoint(rng, q, n)
        b = random_qpoint(rng, q, n)
        v = rng.normal(0.0, 1.0, size=n)
        ta, tb = QPoint(a.points + v), QPoint(b.points + v)
        assert np.allclose(ta.points.mean(axis=0), a.points.mean(axis=0) + v,
                           atol=1e-12)
        assert abs(
            matching_distance(ta, tb) - matching_distance(a, b)
        ) <= 1e-12


# --- argument validation ---------------------------------------------------

def test_incompatible_operands_raise():
    a = make_qpoint([1.0, 2.0])
    b = make_qpoint([1.0, 2.0, 3.0])
    c = QPoint(np.zeros((2, 2)))
    for other in (b, c):
        with pytest.raises(ValueError):
            matching_distance(a, other)
        with pytest.raises(ValueError):
            optimal_matching(a, other)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_match_rows_refuses_non_finite_values(q, n, bad):
    """A NaN or an infinity in either operand raises, for every q and n,
    rather than giving a NaN cost or an index error."""
    rng = np.random.default_rng(10 * q + n)
    for side in (0, 1):
        rows = rng.normal(size=(2, 3, q, n))
        rows[side, 1, q // 2, n - 1] = bad
        with pytest.raises(ValueError, match="values must be finite"):
            match_rows(*rows)


def test_bad_inputs_raise():
    with pytest.raises(ValueError):
        make_qpoint([1.0, np.nan])
    with pytest.raises(ValueError):
        make_qpoint(np.zeros((0, 1)))
    with pytest.raises(ValueError):
        make_qpoint([[1.0, 2.0]], n=3)
    with pytest.raises(ValueError):
        sorted_embedding(QPoint(np.zeros((2, 2))))
    with pytest.raises(ValueError):
        ascending_projection([1.0, np.inf])
