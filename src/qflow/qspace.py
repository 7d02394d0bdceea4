"""Unordered multisets of Q points in R^n.

A value is stored in canonical order (ascending for n = 1, lexicographic for
n > 1), which makes equality testing and, for n = 1, optimal matching trivial.
The matching metric is the l2 cost of the best branch pairing; for n = 1 the
identity pairing of the sorted tuples is optimal, so the sorted tuple itself
is an isometric embedding into R^Q.  The ascending cone is the image of that
embedding and `ascending_projection` retracts onto it.

`match_rows` makes every pairing decision of the package, for a batch of
rows at once: the identity for n = 1, and for n > 1 one dynamic programme
over column subsets (Bellman 1962; Held and Karp 1962), vectorized over the
rows, in O(rows * 2^q * q) time for q <= 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QPoint",
    "Matching",
    "make_qpoint",
    "match_rows",
    "optimal_matching",
    "matching_distance",
    "sorted_embedding",
    "ascending_projection",
]


def _canonical(points: np.ndarray) -> np.ndarray:
    """Canonical order of the (q, n) rows of a (..., q, n) array."""
    if points.shape[-1] == 1:
        out = np.sort(points, axis=-2)
    else:
        # lexicographic by first coordinate, then second, ...
        order = np.lexsort(np.moveaxis(points[..., ::-1], -1, 0), axis=-1)
        out = np.take_along_axis(points, order[..., None], axis=-2)
    out = np.ascontiguousarray(out, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class QPoint:
    """A multiset of q points in R^n, kept in canonical order."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a (q, n) array with q, n >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", _canonical(pts))

    @property
    def q(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoint):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.array_equal(self.points, other.points)
        )

    def __repr__(self) -> str:
        rows = ", ".join(str(tuple(row)) for row in self.points)
        return f"QPoint[{rows}]"


@dataclass(frozen=True)
class Matching:
    """A branch pairing: branch i of the first operand goes to branch
    sigma[i] of the second, at the stated squared-distance cost."""

    sigma: tuple
    cost: float


def make_qpoint(values, n: int | None = None) -> QPoint:
    """Build a QPoint from a (q, n) array, or a flat sequence when n = 1."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if n is not None and arr.shape[1] != n:
        raise ValueError(f"expected point dimension {n}, got {arr.shape[1]}")
    return QPoint(arr)


# largest q matched for n > 1: the subset table holds 2^q floats per row
_MATCH_MAX_Q = 8


def match_rows(a: np.ndarray, b: np.ndarray):
    """Best branch pairing of every row of two canonical (rows, q, n)
    arrays: branch i of a[r] goes to branch sigma[r, i] of b[r].  Returns
    sigma (rows, q) and the squared-distance cost of each row.  Ties within
    1e-9 * (1 + |minimum|) go to the lexicographically smallest sigma.

    For n = 1 the identity is optimal.  For n > 1, rest[s] is the cheapest
    pairing of branches |s|..q-1 with the columns outside the set s, filled
    from the full set down; sigma is then read off branch by branch, each
    time the smallest free column through which the minimum is still met
    within the tolerance.  That costs O(rows * 2^q * q) time and
    rows * 2^q floats, so n > 1 requires q <= 8 (ValueError beyond).  A
    NaN or infinite entry raises ValueError, for every q and n.
    """
    rows, q, n = a.shape
    if b.shape != a.shape:
        raise ValueError(f"incompatible operands: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("values must be finite")
    if n == 1:
        sigma = np.zeros((rows, q), dtype=np.int64) + np.arange(q)
        return sigma, ((a - b) ** 2).sum(axis=(1, 2))
    if q > _MATCH_MAX_Q:
        raise ValueError(f"matching points in R^{n} needs q <= "
                         f"{_MATCH_MAX_Q}, got q = {q}")
    # cost[i, j, r]: squared distance from branch i of a[r] to branch j of b[r]
    at, bt = a.transpose(2, 1, 0), b.transpose(2, 1, 0)
    cost = sum((at[k][:, None] - bt[k][None]) ** 2 for k in range(n))
    full = 1 << q
    taken = (np.arange(full)[:, None] >> np.arange(q)) & 1
    # nxt[s, j]: the set s plus column j, or the infinite entry if j is in s
    nxt = np.where(taken, full, np.arange(full)[:, None] | 1 << np.arange(q))
    rest = np.zeros((full + 1, rows))
    rest[full] = np.inf
    size = taken.sum(axis=1)
    for i in range(q - 1, -1, -1):
        sets = np.flatnonzero(size == i)
        rest[sets] = (cost[i] + rest[nxt[sets]]).min(axis=1)
    limit = rest[0] + 1e-9 * (1.0 + np.abs(rest[0]))
    r = np.arange(rows)
    sigma = np.zeros((rows, q), dtype=np.int64)
    s = np.zeros(rows, dtype=np.int64)
    spent = np.zeros(rows)
    for i in range(q - 1):
        through = spent + cost[i] + rest[nxt.T[:, s], r]
        # admit the best free column even if rounding puts it above limit
        bar = np.maximum(limit, through.min(axis=0))
        sigma[:, i] = j = np.argmax(through <= bar, axis=0)
        spent += cost[i, j, r]
        s = nxt[s, j]
    # the last branch takes the one column left
    sigma[:, -1] = q * (q - 1) // 2 - sigma[:, :-1].sum(axis=1)
    return sigma, cost[np.arange(q), sigma, r[:, None]].sum(axis=1)


def optimal_matching(a: QPoint, b: QPoint) -> Matching:
    """Best branch pairing between two compatible QPoints (`match_rows`
    on one row)."""
    sigma, cost = match_rows(a.points[None], b.points[None])
    return Matching(tuple(sigma[0].tolist()), float(cost[0]))


def matching_distance(a: QPoint, b: QPoint) -> float:
    """Metric between multisets: sqrt of the optimal pairing cost."""
    return float(np.sqrt(optimal_matching(a, b).cost))


def sorted_embedding(a: QPoint) -> np.ndarray:
    """The ascending tuple of values, an isometric image in R^q (n = 1)."""
    if a.n != 1:
        raise ValueError("sorted embedding requires point dimension 1")
    return a.points[:, 0].copy()


def ascending_projection(values) -> np.ndarray:
    """Euclidean projection onto the ascending cone {x : x_1 <= ... <= x_q}.

    Pool-adjacent-violators with uniform weights.  Fixes already ascending
    input exactly and never expands distances between inputs.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        return x.copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    sums = [x[0]]
    counts = [1]
    for v in x[1:]:
        sums.append(float(v))
        counts.append(1)
        while len(sums) > 1 and sums[-2] / counts[-2] > sums[-1] / counts[-1]:
            s = sums.pop()
            c = counts.pop()
            sums[-1] += s
            counts[-1] += c
    means = [s / c for s, c in zip(sums, counts)]
    return np.repeat(means, counts).astype(float)
