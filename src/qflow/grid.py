"""Lattice discretization of the unit ball and grid functions with
multiset values.

Node values are the rows of one canonical (num_nodes, q, n) array; edges
connect axis neighbors at spacing delta.  The Dirichlet energy sums squared matching
distances over edges with weight delta^(m-2); the squared L2 distance
sums them over nodes with weight delta^m.  Boundary nodes are the lattice
points touching the sphere (or the interval endpoints for m = 1) and are
treated as hard constraints by every solver in this package.

Snapshot files are formatted by one exact vectorized pass over each
function's values, `_format_cells`, which gives the bytes of `'%.17e' % c`
for every double c: values in [1e-10, 1e14) in magnitude are rounded in
integer arithmetic, every other value is formatted by `%` itself.  The
`node_index,x0[,x1]` cells are formatted once per domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .qspace import _canonical, match_rows

__all__ = [
    "GridDomain",
    "QGridFunction",
    "InitialSpec",
    "build_domain",
    "domain_manifest",
    "sample_initial",
    "dirichlet_energy",
    "l2_distance_sq",
    "branch_mean_field",
    "branch_mean_residual",
    "translate_field",
    "scalar_dirichlet_energy",
    "write_snapshot_csv",
    "read_snapshot_csv",
]

_GEOM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Masked lattice over the closed unit ball in R^m, m in {1, 2}."""

    m: int
    resolution: int
    delta: float
    coords: np.ndarray      # (num_nodes, m)
    is_boundary: np.ndarray  # (num_nodes,) bool
    edges: np.ndarray        # (num_edges, 2) node indices
    interior: np.ndarray     # indices of interior nodes

    def __post_init__(self):
        for name in ("coords", "is_boundary", "edges", "interior"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def num_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def same_as(self, other: "GridDomain") -> bool:
        return self.m == other.m and self.resolution == other.resolution

    @cached_property
    def _snapshot_prefix(self) -> tuple:
        """Snapshot header cells and the NUL-padded `j,x0[,x1],` prefix of
        each row, a (num_nodes, width) uint8 block."""
        head = ",".join(["node_index"] + [f"x{i}" for i in range(self.m)])
        nn = self.num_nodes
        index = np.array([b"%d," % j for j in range(nn)]).view(np.uint8)
        coords = _format_cells(self.coords.ravel()).T.reshape(nn, -1)
        return head, np.concatenate([index.reshape(nn, -1), coords], axis=1)


def build_domain(m: int, resolution: int) -> GridDomain:
    """Uniform grid of odd resolution >= 3 on [-1, 1]^m masked to |x| <= 1.

    Nodes are numbered row by row with x fastest, and the edges list each
    node's +x edge before its +y edge, node by node; snapshot rows and
    energy sums follow this order.  A node is on the boundary when it lies
    on the sphere or misses an axis neighbor."""
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    if resolution < 3 or resolution % 2 == 0:
        raise ValueError("resolution must be odd and at least 3")
    axis = np.linspace(-1.0, 1.0, resolution)
    delta = 2.0 / (resolution - 1)

    grids = np.meshgrid(*[axis] * m)  # indexed [y, x]: x varies fastest
    r2 = sum(g * g for g in grids)
    inside = r2 <= 1.0 + _GEOM_TOL
    coords = np.column_stack([g[inside] for g in grids])
    nodes = np.arange(coords.shape[0])
    # node index on the lattice padded by one layer of -1 (no node)
    index = np.full([resolution + 2] * m, -1, dtype=np.int64)
    index[(slice(1, -1),) * m][inside] = nodes

    def neighbors(ax: int, step: int) -> np.ndarray:
        window = [slice(1, -1)] * m
        window[ax] = slice(1 + step, resolution + 1 + step)
        return index[tuple(window)][inside]

    axes = range(m - 1, -1, -1)  # x first, then y
    ahead = np.column_stack([neighbors(ax, 1) for ax in axes])
    behind = np.column_stack([neighbors(ax, -1) for ax in axes])
    is_boundary = (r2[inside] >= 1.0 - _GEOM_TOL) | np.any(
        (ahead < 0) | (behind < 0), axis=1)
    has = ahead >= 0
    edges = np.column_stack(
        [np.broadcast_to(nodes[:, None], ahead.shape)[has], ahead[has]])

    interior = np.flatnonzero(~is_boundary)
    # every interior node must see at least one edge
    touched = np.zeros(coords.shape[0], dtype=bool)
    touched[edges.ravel()] = True
    if not np.all(touched[interior]):
        raise ValueError("degenerate domain: isolated interior node")
    return GridDomain(m, resolution, delta, coords, is_boundary, edges, interior)


def domain_manifest(domain: GridDomain) -> dict:
    """JSON-ready description of the discretization."""
    return {
        "m": domain.m,
        "resolution": domain.resolution,
        "delta": domain.delta,
        "num_nodes": domain.num_nodes,
        "num_edges": domain.num_edges,
        "boundary_nodes": [int(i) for i in np.flatnonzero(domain.is_boundary)],
    }


@dataclass(frozen=True, eq=False)
class QGridFunction:
    """Node values of shape (num_nodes, q, n), canonical per node."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3 or vals.shape[0] != self.domain.num_nodes:
            raise ValueError("values must have shape (num_nodes, q, n)")
        if vals.shape[1] < 1 or vals.shape[2] < 1:
            raise ValueError("values must have q, n >= 1")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", _canonical(vals))

    @property
    def q(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.values.shape[2]


def _view(domain: GridDomain, values: np.ndarray) -> QGridFunction:
    """QGridFunction over values that are already canonical, finite and
    read-only, such as a row of a trajectory's state array: no copy, no
    check and no sort."""
    f = object.__new__(QGridFunction)
    object.__setattr__(f, "domain", domain)
    object.__setattr__(f, "values", values)
    return f


@dataclass(frozen=True)
class InitialSpec:
    """Named initial datum.  Polynomials are in the radial coordinate |x|,
    coefficients in ascending-degree order."""

    preset: str
    coeffs: tuple = field(default_factory=tuple)
    branch_coeffs: tuple = field(default_factory=tuple)


def sample_initial(spec: InitialSpec, domain: GridDomain, q: int) -> QGridFunction:
    if q < 1:
        raise ValueError("q must be at least 1")
    s = np.linalg.norm(domain.coords, axis=1)
    nn = domain.num_nodes

    if spec.preset in ("symmetric-cos", "symmetric-poly"):
        if q % 2 != 0:
            raise ValueError(f"preset {spec.preset!r} requires even q")
        if spec.preset == "symmetric-cos":
            g = np.cos(np.pi * s / 2.0)
        else:
            if not spec.coeffs:
                raise ValueError("symmetric-poly requires coefficients")
            g = np.maximum(npoly.polyval(s, np.asarray(spec.coeffs, float)), 0.0)
        half = q // 2
        vals = np.empty((nn, q, 1))
        vals[:, :half, 0] = -g[:, None]
        vals[:, half:, 0] = g[:, None]
    elif spec.preset == "branches":
        if len(spec.branch_coeffs) != q:
            raise ValueError(
                f"branches preset needs {q} coefficient groups, "
                f"got {len(spec.branch_coeffs)}"
            )
        vals = np.empty((nn, q, 1))
        for b, coeffs in enumerate(spec.branch_coeffs):
            if not len(coeffs):
                raise ValueError("empty coefficient group in branches preset")
            vals[:, b, 0] = npoly.polyval(s, np.asarray(coeffs, float))
    else:
        raise ValueError(f"unknown preset {spec.preset!r}")
    return QGridFunction(domain, vals)


def _check_same(f: QGridFunction, g: QGridFunction):
    if not f.domain.same_as(g.domain):
        raise ValueError("grid functions live on different domains")
    if f.q != g.q or f.n != g.n:
        raise ValueError("grid functions have different value shapes")


def _paired(a_vals: np.ndarray, b_vals: np.ndarray):
    """Optimal branch pairing of paired value arrays (rows, q, n) and the
    sum of its squared matching distances, the row costs added left to
    right.  The pairing is None when it is the identity on every row, which
    sorted storage makes it for n = 1 or q = 1; no matching is computed
    then."""
    if a_vals.shape[2] == 1 or a_vals.shape[1] == 1:
        return None, float(((a_vals - b_vals) ** 2).sum())
    sigma, cost = match_rows(a_vals, b_vals)
    if (sigma == np.arange(sigma.shape[1])).all():
        sigma = None
    return sigma, float(np.add.accumulate(cost)[-1])


def dirichlet_energy(f: QGridFunction) -> float:
    """Edge sum of squared matching distances, weighted by delta^(m-2)."""
    d = f.domain
    vals = f.values
    return d.delta ** (d.m - 2) * _paired(vals.take(d.edges[:, 0], axis=0),
                                          vals.take(d.edges[:, 1], axis=0))[1]


def l2_distance_sq(f: QGridFunction, g: QGridFunction) -> float:
    """Node sum of squared matching distances, weighted by delta^m."""
    _check_same(f, g)
    d = f.domain
    return d.delta**d.m * _paired(f.values, g.values)[1]


def branch_mean_field(f: QGridFunction) -> np.ndarray:
    """Nodewise average of the branches, shape (num_nodes, n)."""
    return f.values.mean(axis=1)


def scalar_dirichlet_energy(domain: GridDomain, u: np.ndarray) -> float:
    """Dirichlet energy of a single-valued field, u of shape (num_nodes,)
    or (num_nodes, n)."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    ea, eb = domain.edges[:, 0], domain.edges[:, 1]
    diff = arr.take(ea, axis=0) - arr.take(eb, axis=0)
    return domain.delta ** (domain.m - 2) * float((diff**2).sum())


def _neighbor_sums(domain: GridDomain, u: np.ndarray) -> np.ndarray:
    """For each node j: sum over incident edges of (u_j - u_neighbor)."""
    ea, eb = domain.edges[:, 0], domain.edges[:, 1]
    diff = u.take(ea, axis=0) - u.take(eb, axis=0)
    nn = domain.num_nodes
    return np.bincount(ea, weights=diff, minlength=nn) - np.bincount(
        eb, weights=diff, minlength=nn
    )


def branch_mean_residual(f_prev: QGridFunction, f_curr: QGridFunction, tau: float) -> float:
    """Max-norm residual of the implicit step equation for the branch mean.

    At interior nodes the mean of a converged step satisfies
    (mean_k - mean_{k-1}) / tau = discrete Laplacian of mean_k in each of
    its n coordinates, whatever the branch pairings; the return value is
    the largest interior violation over all coordinates.  Equals the
    hat-function weak form divided by the node weight delta^m.
    """
    _check_same(f_prev, f_curr)
    if tau <= 0:
        raise ValueError("tau must be positive")
    d = f_prev.domain
    mp = branch_mean_field(f_prev)
    mc = branch_mean_field(f_curr)
    lap = np.column_stack([_neighbor_sums(d, c) for c in mc.T]) / d.delta**2
    res = (mc - mp)[d.interior] / tau + lap[d.interior]
    return float(np.max(np.abs(res), initial=0.0))


def translate_field(f: QGridFunction, phi) -> QGridFunction:
    """Shift every branch at node x by the single-valued field phi(x)."""
    arr = np.asarray(phi, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape != (f.domain.num_nodes, f.n):
        raise ValueError("phi must have shape (num_nodes, n)")
    return QGridFunction(f.domain, f.values + arr[:, None, :])


# `'%.17e'` of a double takes at most 25 bytes, as in
# '-1.00000000000000005e+300'; a cell holds them NUL-padded, then a separator
_CELL = 26
_POW5 = 5 ** np.arange(28, dtype=np.uint64)  # 5^27 < 2^63
_LOW32 = np.uint64(0xFFFFFFFF)


def _scaled(M: np.ndarray, p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """round_half_even(M 5^p / 2^r) for uint64 M < 2^53, p <= 27 and
    1 <= r <= 63, exact: the product is formed in 128 bits as (hi, lo) from
    four 32-bit partial products."""
    f = _POW5[p]
    a0, a1, b0, b1 = M & _LOW32, M >> 32, f & _LOW32, f >> 32
    ll, lh, hl = a0 * b0, a0 * b1, a1 * b0
    mid = (ll >> 32) + (lh & _LOW32) + (hl & _LOW32)
    lo = (mid << 32) | (ll & _LOW32)
    hi = a1 * b1 + (lh >> 32) + (hl >> 32) + (mid >> 32)
    N = (hi << (64 - r)) | (lo >> r)
    half = (lo >> (r - 1)) & 1
    sticky = (lo & ((np.uint64(1) << (r - 1)) - 1)) != 0
    return N + (half & (sticky | (N & 1)))


def _format_cells(x: np.ndarray) -> np.ndarray:
    """`'%.17e' % c` for each double c of the 1-D array x, one cell per
    column of a (_CELL, len(x)) uint8 array: the text, NUL padding, then a
    ',' separator.

    The 18 digits of 1e-10 <= |c| < 1e14 are N = round_half_even(|c| /
    10^(E-17)) for E = floor(log10 |c|), taken exactly in integers (Steele
    and White 1990, Adams 2018): with |c| = M 2^(e-53) from frexp,
    N = M 5^p / 2^r for p = 17 - E <= 27 and r = 36 - e + E in [1, 63].  A
    log10 estimate one off puts N outside [10^17, 10^18) and is redone; a
    carry to 10^18 moves to the next exponent.  Every other value (zeros,
    subnormals, tiny, huge, infinite, nan) is formatted by `%` itself."""
    a = np.abs(x)
    fast = (a >= 1e-10) & (a < 1e14)
    a = np.where(fast, a, 1.0)
    mant, e = np.frexp(a)
    M = (mant * 2.0**53).astype(np.uint64)
    E = np.clip(np.floor(np.log10(a)), -10, 13).astype(np.int64)
    N = _scaled(M, 17 - E, (36 - e + E).astype(np.uint64))
    redo = np.flatnonzero((N < 10**17) | (N > 10**18))
    E[redo] += np.where(N[redo] > 10**18, 1, -1)
    N[redo] = _scaled(M[redo], 17 - E[redo], (36 - e[redo] + E[redo]).astype(np.uint64))
    carry = N == 10**18
    N[carry] = 10**17
    E += carry

    out = np.empty((_CELL, x.size), np.uint8)
    out[0] = np.where(x < 0, ord("-"), 0)
    # the 18 digits go to bytes 2..19, nine from each uint32 half of N;
    # then the first moves before the point
    digits = out[2:20].reshape(2, 9, -1)
    halves = np.stack([N // 10**9, N % 10**9]).astype(np.uint32)
    for i in range(8, -1, -1):
        rest = halves // 10
        digits[:, i] = halves - rest * 10 + 48
        halves = rest
    out[1] = out[2]
    out[2] = ord(".")
    out[20] = ord("e")
    out[21] = np.where(E < 0, ord("-"), ord("+"))
    out[22] = np.abs(E) // 10 + 48
    out[23] = np.abs(E) % 10 + 48
    out[24] = 0
    out[25] = ord(",")
    slow = np.flatnonzero(~fast)
    text = np.array(["%.17e" % c for c in x[slow].tolist()], dtype="S25")
    out[:25, slow] = text.view(np.uint8).reshape(-1, 25).T
    return out


def write_snapshot_csv(f: QGridFunction, path):
    """One row per node: node index, m coordinates, then q*n branch
    coordinates in canonical order, each as `'%.17e' % c`.

    The values are formatted by one `_format_cells` pass and joined to the
    domain's cached row prefixes; one compress drops the NUL padding."""
    head, prefix = f.domain._snapshot_prefix
    width = f.q * f.n
    cells = _format_cells(f.values.ravel())
    cells[-1, width - 1::width] = ord("\n")
    rows = np.concatenate(
        [prefix, cells.T.reshape(prefix.shape[0], width * _CELL)], axis=1)
    with open(path, "wb") as fh:
        fh.write((head + "".join(f",v{i}" for i in range(width)) + "\n").encode())
        fh.write(rows[rows != 0].tobytes())


def read_snapshot_csv(path, domain: GridDomain, q: int, n: int = 1) -> QGridFunction:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[0] != domain.num_nodes or raw.shape[1] != 1 + domain.m + q * n:
        raise ValueError("snapshot file does not match the domain shape")
    vals = raw[:, 1 + domain.m:].reshape(domain.num_nodes, q, n)
    return QGridFunction(domain, vals)
