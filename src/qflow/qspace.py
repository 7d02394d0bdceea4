"""Unordered multisets of Q points in R^n.

A value is stored in canonical order (ascending for n = 1, lexicographic for
n > 1), which makes equality testing and, for n = 1, optimal matching trivial.
The matching metric is the l2 cost of the best branch pairing; for n = 1 the
identity pairing of the sorted tuples is optimal, so the sorted tuple itself
is an isometric embedding into R^Q.  The ascending cone is the image of that
embedding and `ascending_projection` retracts onto it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "QPoint",
    "Matching",
    "make_qpoint",
    "optimal_matching",
    "matching_distance",
    "branch_mean",
    "translate",
    "sorted_embedding",
    "ascending_projection",
    "qpoint_norm",
    "approx_equal",
]


def _canonical(points: np.ndarray) -> np.ndarray:
    if points.shape[1] == 1:
        out = np.sort(points, axis=0)
    else:
        # lexicographic by first coordinate, then second, ...
        order = np.lexsort(points.T[::-1])
        out = points[order]
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


def _check_compatible(a: QPoint, b: QPoint):
    if a.q != b.q or a.n != b.n:
        raise ValueError(
            f"incompatible operands: ({a.q},{a.n}) vs ({b.q},{b.n})"
        )


def _lex_smallest_assignment(cost: np.ndarray, total: float) -> list:
    """Lexicographically smallest permutation among the minimizers of the
    assignment problem with the given cost matrix and optimal value."""
    q = cost.shape[0]
    tol = 1e-9 * (1.0 + abs(total))
    free = list(range(q))
    sigma = []
    remaining = total
    for i in range(q):
        for j in free:
            rest_rows = np.arange(i + 1, q)
            rest_cols = [c for c in free if c != j]
            if rest_rows.size:
                sub = cost[np.ix_(rest_rows, rest_cols)]
                r, c = linear_sum_assignment(sub)
                rest = float(sub[r, c].sum())
            else:
                rest = 0.0
            if cost[i, j] + rest <= remaining + tol:
                sigma.append(j)
                free.remove(j)
                remaining -= cost[i, j]
                break
        else:  # pragma: no cover - defensive, assignment always completes
            raise RuntimeError("assignment reconstruction failed")
    return sigma


def optimal_matching(a: QPoint, b: QPoint) -> Matching:
    """Best branch pairing between two compatible QPoints.

    For n = 1 the operands are already sorted and the identity pairing is
    optimal.  For n > 1 an exact assignment solve is used; ties are broken
    toward the lexicographically smallest permutation.
    """
    _check_compatible(a, b)
    if a.n == 1:
        cost = float(((a.points - b.points) ** 2).sum())
        return Matching(tuple(range(a.q)), cost)
    diff = a.points[:, None, :] - b.points[None, :, :]
    cost = (diff**2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum())
    sigma = _lex_smallest_assignment(cost, total)
    return Matching(tuple(sigma), float(cost[np.arange(a.q), sigma].sum()))


def matching_distance(a: QPoint, b: QPoint) -> float:
    """Metric between multisets: sqrt of the optimal pairing cost."""
    _check_compatible(a, b)
    if a.n == 1:
        return float(np.sqrt(((a.points - b.points) ** 2).sum()))
    return float(np.sqrt(optimal_matching(a, b).cost))


def branch_mean(a: QPoint) -> np.ndarray:
    """Average of the q branch points, a vector in R^n."""
    return a.points.mean(axis=0)


def translate(a: QPoint, shift) -> QPoint:
    """Add the same vector to every branch point."""
    v = np.asarray(shift, dtype=float).reshape(-1)
    if v.size != a.n:
        raise ValueError(f"shift must have dimension {a.n}")
    return QPoint(a.points + v[None, :])


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


def qpoint_norm(a: QPoint) -> float:
    """Distance to q copies of the origin: sqrt of the sum of |p_i|^2."""
    return float(np.sqrt((a.points**2).sum()))


def approx_equal(a: QPoint, b: QPoint, tol: float = 1e-12) -> bool:
    """Coordinatewise comparison of the canonical forms."""
    if a.q != b.q or a.n != b.n:
        return False
    return bool(np.max(np.abs(a.points - b.points), initial=0.0) <= tol)

