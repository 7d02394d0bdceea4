"""Canonical multiset values: metric, matching, embedding, projection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.grid import _paired
from qflow.qspace import (
    _canonical,
    ascending_projection,
    match_rows,
    optimal_matching,
)


def random_value(rng, q, n, scale=2.0):
    """A canonical (q, n) value of normal points."""
    return _canonical(rng.normal(0.0, scale, size=(q, n)))


def exhaustive_cost(a, b):
    """Minimum pairing cost of two (q, n) values by explicit enumeration
    of all permutations."""
    best = None
    for perm in itertools.permutations(range(len(a))):
        c = float(((a - b[list(perm)]) ** 2).sum())
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
    a = np.array([[1.0], [3.0]])
    b = np.array([[2.0], [4.0]])
    sigma, cost = optimal_matching(a, b)
    assert sigma == (0, 1)
    assert cost == pytest.approx(2.0, abs=1e-15)
    assert np.sqrt(cost) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_identical_multisets_have_zero_distance():
    a = _canonical(np.array([[0.0, 0.0], [1.0, 1.0]]))
    b = _canonical(np.array([[1.0, 1.0], [0.0, 0.0]]))  # same multiset
    assert np.array_equal(a, b)
    assert match_rows(a[None], b[None])[1][0] == 0.0
    assert optimal_matching(a, b)[1] == 0.0


def test_planar_pair_prefers_crossing_when_cheaper():
    a = _canonical(np.array([[0.0, 0.0], [1.0, 1.0]]))
    b = _canonical(np.array([[0.9, 1.1], [1.1, 0.0]]))
    sigma, cost = optimal_matching(a, b)
    assert sigma == (1, 0)
    assert cost == pytest.approx(1.23, abs=1e-12)


def test_optimal_matching_is_match_rows_on_one_pair():
    """The one-pair call returns the sigma tuple and the cost of
    `match_rows` on that one row, bit for bit."""
    rng = np.random.default_rng(111)
    for q in range(1, 9):
        for n in range(1, 4):
            a, b = random_value(rng, q, n), random_value(rng, q, n)
            sigma, cost = match_rows(a[None], b[None])
            got = optimal_matching(a, b)
            assert got == (tuple(sigma[0].tolist()), float(cost[0]))
            assert type(got[0][0]) is int and type(got[1]) is float


def test_ascending_projection_examples():
    assert np.allclose(ascending_projection([3.0, 1.0]), [2.0, 2.0])
    assert np.allclose(ascending_projection([5.0, 3.0, 4.0]), [4.0, 4.0, 4.0])
    assert np.allclose(ascending_projection([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert ascending_projection([]).size == 0


def test_norm_is_distance_to_origin_copies():
    a = _canonical(np.array([[3.0], [4.0]]))
    norm = float(np.sqrt((a**2).sum()))
    assert norm == pytest.approx(5.0, abs=1e-15)
    assert np.sqrt(match_rows(a[None], np.zeros((1, 2, 1)))[1][0]) \
        == pytest.approx(norm, abs=1e-15)
    # vector points: the norm sums |p_i|^2 over the branches
    b = _canonical(np.array([[1.0, 2.0], [-2.0, 4.0]]))
    assert np.sqrt(match_rows(b[None], np.zeros((1, 2, 2)))[1][0]) \
        == pytest.approx(5.0, abs=1e-15)


def test_canonical_storage_sorts_values():
    a = _canonical(np.array([[2.0], [-1.0], [0.5]]))
    assert np.array_equal(a[:, 0], [-1.0, 0.5, 2.0])
    b = _canonical(np.array([[3.0, 0.0], [1.0, 2.0], [1.0, -1.0]]))
    # lexicographic: first coordinate, then second
    assert np.array_equal(b, [[1.0, -1.0], [1.0, 2.0], [3.0, 0.0]])
    with pytest.raises(ValueError):
        a[0, 0] = 7.0  # canonical storage is read only


# --- randomized properties -------------------------------------------------

def test_metric_axioms():
    rng = np.random.default_rng(101)
    for _ in range(200):
        q = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        a = random_value(rng, q, n)
        b = random_value(rng, q, n)
        c = random_value(rng, q, n)
        # reordering the same points is the same multiset
        twin = _canonical(a[rng.permutation(q)])
        daa, dab, dba, same, dac, dbc = np.sqrt(match_rows(
            np.stack([a, a, b, a, a, b]), np.stack([a, b, a, twin, c, c]))[1])
        assert daa == 0.0
        assert abs(dab - dba) <= 1e-12
        assert same == 0.0
        if np.max(np.abs(a - b)) > 1e-12:
            assert dab > 1e-12
        assert dac <= dab + dbc + 1e-10


def test_sorted_matching_agrees_with_exhaustive_search():
    """For scalar values the identity pairing of the sorted tuples is
    optimal; the enumerated minimum must agree exactly."""
    rng = np.random.default_rng(202)
    for _ in range(200):
        q = int(rng.integers(1, 7))
        a = random_value(rng, q, 1)
        b = random_value(rng, q, 1)
        sigma, cost = match_rows(a[None], b[None])
        assert sigma[0].tolist() == list(range(q))
        assert cost[0] == exhaustive_cost(a, b)


def test_assignment_matches_exhaustive_search_in_the_plane():
    rng = np.random.default_rng(303)
    for _ in range(100):
        q = int(rng.integers(2, 6))
        a = random_value(rng, q, 2)
        b = random_value(rng, q, 2)
        assert match_rows(a[None], b[None])[1][0] == pytest.approx(
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
        assert np.array_equal(batched[r], _canonical(row))
        assert [tuple(p) for p in batched[r]] == sorted(map(tuple, row))
    assert not batched.flags.writeable


def test_sorted_embedding_is_isometric():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        q = int(rng.integers(1, 7))
        a = random_value(rng, q, 1)
        b = random_value(rng, q, 1)
        d_embed = float(np.linalg.norm(a[:, 0] - b[:, 0]))
        d_match = float(np.sqrt(match_rows(a[None], b[None])[1][0]))
        worst = max(worst, abs(d_embed - d_match))
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


def pav_by_stack(x):
    """Pool-adjacent-violators of one 1-D row on Python lists of block sums
    and counts, kept as an independent reference."""
    sums, counts = [x[0]], [1]
    for v in x[1:]:
        sums.append(float(v))
        counts.append(1)
        while len(sums) > 1 and sums[-2] / counts[-2] > sums[-1] / counts[-1]:
            s = sums.pop()
            c = counts.pop()
            sums[-1] += s
            counts[-1] += c
    return np.repeat([s / c for s, c in zip(sums, counts)], counts).astype(float)


@pytest.mark.parametrize("q", range(1, 10))
def test_ascending_projection_of_rows_is_that_of_each_row(q):
    """Each row of the last axis is projected as the 1-D call projects it,
    and as the list-stack reference does, bit for bit: ties, rounded values
    and ascending rows included."""
    rng = np.random.default_rng(q)
    x = rng.normal(size=(300, q))
    for i in range(0, 300, 3):
        x[i, rng.integers(0, q)] = x[i, rng.integers(0, q)]
    x[1::3] = np.round(x[1::3], 1)
    x[2::6] = np.sort(x[2::6])
    stacked = ascending_projection(x.reshape(2, 150, q))
    assert stacked.shape == (2, 150, q)
    for row, got in zip(x, stacked.reshape(300, q)):
        assert got.tobytes() == ascending_projection(row).tobytes()
        assert got.tobytes() == pav_by_stack(row).tobytes()
    assert np.array_equal(ascending_projection(np.sort(x)), np.sort(x))


def test_ascending_projection_keeps_empty_and_non_finite_behaviour():
    for shape in ((0,), (3, 0), (0, 4)):
        out = ascending_projection(np.empty(shape))
        assert out.shape == shape
    assert ascending_projection(2.5).tolist() == [2.5]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="values must be finite"):
            ascending_projection([[1.0, 0.0], [bad, 2.0]])


def test_translate_shifts_mean_and_preserves_distance():
    rng = np.random.default_rng(606)
    for _ in range(50):
        q = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        a = random_value(rng, q, n)
        b = random_value(rng, q, n)
        v = rng.normal(0.0, 1.0, size=n)
        ta, tb = _canonical(a + v), _canonical(b + v)
        assert np.allclose(ta.mean(axis=0), a.mean(axis=0) + v, atol=1e-12)
        shifted, plain = np.sqrt(match_rows(np.stack([ta, a]),
                                            np.stack([tb, b]))[1])
        assert abs(shifted - plain) <= 1e-12


# --- argument validation ---------------------------------------------------

def test_incompatible_operands_raise():
    a = np.array([[1.0], [2.0]])
    b = np.array([[1.0], [2.0], [3.0]])
    c = np.zeros((2, 2))
    for other in (b, c):
        with pytest.raises(ValueError, match="incompatible operands"):
            match_rows(a[None], other[None])
        with pytest.raises(ValueError, match="incompatible operands"):
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
    with pytest.raises(ValueError, match="values must be finite"):
        optimal_matching(np.array([[1.0], [np.nan]]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ascending_projection([1.0, np.inf])
