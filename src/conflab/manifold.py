"""Background geometries: flat tori, Euclidean boxes and round spheres.

Each geometry supplies the exact base distance d0, ball volumes for the base
measure mu0, geodesic midpoints, covering lattices and uniform Monte Carlo
samples of balls.  Points are plain numpy vectors: chart coordinates for
torus/box, ambient unit vectors for the sphere (the sphere radius only scales
distances and volumes).  All operations are pure; randomness enters only
through explicit seeds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, gamma, pi, sqrt
from typing import Optional

import numpy as np

from .errors import GeometryError, InputError, ResourceError
from .rng import derive_rng

DEFAULT_LATTICE_BUDGET = 2_000_000

# Nearest-neighbour spacing of the quasi-uniform sphere layouts is about
# sqrt(vol / (c * N)) per dimension; calibrated on the implemented layouts.
SPHERE_LAYOUT_CONSTANT = {2: 0.85, 3: 0.55, 4: 0.35}


def unit_ball_volume(n: int) -> float:
    """Euclidean volume of the unit n-ball."""
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def float_array(values, what: str) -> np.ndarray:
    """values as a float array; InputError naming what unless they are numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be numbers, got {values!r}") from exc


def positive_scalar(value, what: str) -> float:
    """value as a float; InputError naming what unless it is one positive
    finite number (NaN fails too)."""
    v = float_array(value, what)
    if v.ndim or not 0 < v < np.inf:
        raise InputError(f"{what} must be positive and finite, got {value!r}")
    return float(v)


def is_count(value, least: int) -> bool:
    """Whether value is an integer (Python or numpy) of at least ``least``."""
    try:
        return operator.index(value) >= least
    except TypeError:
        return False


def sphere_volume(n: int) -> float:
    """Riemannian volume of the unit round n-sphere."""
    return 2.0 * pi ** ((n + 1) / 2.0) / gamma((n + 1) / 2.0)


@dataclass(frozen=True)
class Manifold:
    """Background geometry descriptor (torus, box or sphere)."""

    kind: str
    dim: int
    periods: Optional[np.ndarray] = None
    extents: Optional[np.ndarray] = None
    radius: float = 1.0

    @staticmethod
    def torus(dim: int = 2, periods=None) -> "Manifold":
        if not is_count(dim, 2):
            raise InputError(f"torus dimension must be >= 2 and an integer, got {dim!r}")
        p = np.full(dim, 2 * pi) if periods is None else float_array(periods, "torus periods")
        if p.shape != (dim,) or not np.all((p > 0) & (p < np.inf)):
            raise InputError("torus periods must be a positive vector of length dim with finite entries")
        return Manifold("torus", dim, periods=p)

    @staticmethod
    def box(extents) -> "Manifold":
        e = float_array(extents, "box extents")
        if e.ndim != 2 or e.shape[1] != 2 or e.shape[0] < 2:
            raise InputError("box extents must be an (n, 2) array with n >= 2")
        if np.any(e[:, 1] <= e[:, 0]) or not np.all(np.isfinite(e)):
            raise InputError("box extents must be finite, with hi > lo on every axis")
        return Manifold("box", e.shape[0], extents=e)

    @staticmethod
    def sphere(dim: int = 2, radius: float = 1.0) -> "Manifold":
        if not (is_count(dim, 2) and dim <= 4):
            raise InputError(f"sphere dimension must be in {{2,3,4}}, got {dim!r}")
        return Manifold("sphere", dim, radius=positive_scalar(radius, "sphere radius"))

    # -- basic attributes ------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1 if self.kind == "sphere" else self.dim

    @property
    def chart(self) -> tuple:
        """(lo, hi) of the flat chart: [0, periods) on a torus, the extents on a box."""
        if self.kind == "sphere":
            raise InputError("a sphere has no flat chart")
        return (np.zeros(self.dim), self.periods) if self.kind == "torus" else tuple(self.extents.T)

    @property
    def volume(self) -> float:
        if self.kind == "sphere":
            return sphere_volume(self.dim) * self.radius**self.dim
        lo, hi = self.chart
        return float(np.prod(hi - lo))

    @property
    def max_distance(self) -> float:
        """Diameter of the manifold for d0."""
        if self.kind == "sphere":
            return pi * self.radius
        lo, hi = self.chart
        return float(np.linalg.norm((hi - lo) / 2.0 if self.kind == "torus" else hi - lo))

    @property
    def min_period(self) -> float:
        if self.kind == "sphere":
            return pi * self.radius
        lo, hi = self.chart
        return float(np.min(hi - lo))

    # -- point handling --------------------------------------------------

    def check_points(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(float_array(x, "points"))
        if x.shape[-1] != self.ambient_dim:
            raise InputError(
                f"point dimension {x.shape[-1]} does not match manifold "
                f"ambient dimension {self.ambient_dim}"
            )
        if not np.all(np.isfinite(x)):
            raise InputError("points must have finite coordinates")
        if self.kind == "sphere":
            nrm = np.linalg.norm(x, axis=-1)
            if np.any(np.abs(nrm - 1.0) > 1e-12):
                raise InputError("sphere points must be unit vectors (|1 - |x|| <= 1e-12)")
        return x

    def canonicalize(self, x: np.ndarray) -> np.ndarray:
        """Canonical representative: torus coords wrapped into [0, period)
        by ``torus_wrap`` on a copy (bit for bit the np.mod wrap), sphere
        points normalized, box points as given."""
        if self.kind == "torus":
            return torus_wrap(np.array(x, dtype=float), self.periods)
        x = np.asarray(x, dtype=float)
        if self.kind == "sphere":
            return x / np.linalg.norm(x, axis=-1, keepdims=True)
        return x


@dataclass(frozen=True)
class PointSet:
    """Ordered point collection with its generation spacing and cell volumes."""

    points: np.ndarray
    spacing: float
    cell_volume: np.ndarray = field(default=None)  # per-point quadrature cell
    lattice_shape: Optional[tuple] = None
    axis_spacing: Optional[np.ndarray] = None

    @staticmethod
    def grid(axes, axis_spacing) -> "PointSet":
        """The lattice whose points are the row-major tensor product of the
        per-axis node coordinates ``axes``, with node steps ``axis_spacing``."""
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        h = np.asarray(axis_spacing)
        return PointSet(
            points=pts,
            spacing=float(np.max(h)),
            cell_volume=np.full(len(pts), float(np.prod(h))),
            lattice_shape=tuple(a.size for a in axes),
            axis_spacing=h,
        )

    def __len__(self) -> int:
        return self.points.shape[0]

    def axes(self) -> list:
        """Per-axis node coordinates of a lattice, whose row-major tensor
        product is ``points``."""
        shape = self.lattice_shape
        return [self.points[:: int(np.prod(shape[a + 1 :]))][:s, a] for a, s in enumerate(shape)]

    def nearest(self, m: "Manifold", x):
        """Index of the node nearest to x in d0, the lowest one on ties:
        np.argmin(d0_many(m, points, x)).  Over rows for (K, d) x: the K
        indices, each that of its row on its own; a point (d,) gives an int.

        On a lattice only the nodes of x's cell and one more on each side
        along every axis (wrapped on a torus, clipped on a box) are compared;
        every other node is at least a spacing farther, far beyond rounding.
        """
        x = float_array(x, "nearest point")
        if x.ndim not in (1, 2) or x.shape[-1] != m.ambient_dim:
            raise InputError(
                f"nearest point of shape {x.shape} does not match manifold "
                f"ambient dimension {m.ambient_dim}"
            )
        if not np.all(np.isfinite(x)):
            raise InputError("nearest needs a point with finite coordinates")
        rows = np.atleast_2d(x)
        if self.lattice_shape is None:
            idx = np.array([np.argmin(d0_many(m, self.points, p)) for p in rows], dtype=np.int64)
        else:
            shape = np.asarray(self.lattice_shape)
            cell = np.floor((m.canonicalize(rows) - self.points[0]) / self.axis_spacing)
            cell = np.clip(cell, -2, shape + 1).astype(np.int64)  # x may lie far off a box
            near = cell[..., None] + np.arange(-1, 3)  # (K, d, 4) per-axis neighbours
            near = np.mod(near, shape[:, None]) if m.kind == "torus" else np.clip(near, 0, shape[:, None] - 1)
            # each row's product of its per-axis neighbours, sorted so that argmin
            # keeps the lowest index on ties (a repeated index repeats its d0)
            dim = shape.size
            grids = [near[:, a].reshape((-1,) + (1,) * a + (4,) + (1,) * (dim - a - 1)) for a in range(dim)]
            cand = np.ravel_multi_index(tuple(np.broadcast_arrays(*grids)), shape).reshape(len(rows), -1)
            cand.sort(axis=1)
            best = np.argmin(d0_many(m, self.points[cand], rows[:, None]), axis=1)
            idx = cand[np.arange(len(rows)), best]
        return int(idx[0]) if x.ndim == 1 else idx


@dataclass(frozen=True)
class BallSpec:
    """Geodesic ball for d0: center point and radius in d0 units."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not np.all(np.isfinite(float_array(self.center, "ball center"))):
            raise InputError("ball center must have finite coordinates")
        object.__setattr__(self, "radius", positive_scalar(self.radius, "ball radius"))


def check_ball(m: Manifold, b: BallSpec) -> None:
    """InputError unless b's center has m's ambient dimension (a length
    check: no pass over any samples)."""
    if np.shape(b.center) != (m.ambient_dim,):
        raise InputError(
            f"ball center of shape {np.shape(b.center)} does not match manifold "
            f"ambient dimension {m.ambient_dim}"
        )


def whole_manifold_ball(m: Manifold) -> BallSpec:
    """Ball that covers the entire manifold (averages over all of M)."""
    if m.kind == "torus":
        center = np.zeros(m.dim)
    elif m.kind == "box":
        center = m.extents.mean(axis=1)
    else:
        center = np.zeros(m.dim + 1)
        center[-1] = 1.0
    return BallSpec(center=center, radius=m.max_distance * (1 + 1e-9))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def torus_wrap(x: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """Wrap the last axis of the float array x into [0, periods), in place;
    returns x.

    The result is np.where(np.mod(x, p) < p, np.mod(x, p), 0.0) bit for bit:
    a tiny negative that np.mod rounds up to p becomes 0, and so does -0.0
    (np.mod gives +0.0 for every zero remainder).  An axis whose entries lie
    within [-p, 2p) is shifted by at most one period.  There x - p is exact
    for x in [p, 2p) (Sterbenz), which is the remainder np.mod computes, and
    for x in [-p, 0) np.mod's remainder is x + p with the same rounding.
    Such an axis is wrapped only on the side it leaves: p is subtracted
    when its max is >= p, and p added (then entries that round up to p
    cleared) when its min is < 0 or a zero, which may be -0.0; an axis
    inside (0, p) is left alone.  Each side is an in-place select (a
    product with a 0/1 mask) on a contiguous copy of the axis (the axis
    itself when it is contiguous), written back once.  Any other axis,
    non-finite entries included, goes through np.mod.
    """
    if x.size == 0:
        return x
    for a, p in enumerate(periods):
        col = x[..., a]
        lo, hi = col.min(), col.max()
        if not (lo >= -p and hi < 2.0 * p):
            np.mod(col, p, out=col)
            np.copyto(col, 0.0, where=~(col < p))
            continue
        if 0.0 < lo and hi < p:
            continue
        # products with 0/1 masks, not np.where, which costs four times as
        # much on an axis of mixed signs.  v -/+ 0.0 is v, except that
        # -0.0 + 0.0 is +0.0, np.mod's zero; v * 0.0 is +0.0 for v >= p > 0
        v = np.ascontiguousarray(col)
        if hi >= p:
            v -= p * (v >= p)
        if lo <= 0.0:
            v += p * (v < 0.0)
            v *= v < p
        if v is not col:
            col[...] = v
    return x


def torus_delta(m: Manifold, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimal representative of y - x, entries in [-p/2, p/2).

    The wrap chooses -p/2 on cut-locus ties, which is the lexicographically
    smallest translate; documented for reproducibility.
    """
    half = m.periods / 2.0
    return torus_wrap(y - x + half, m.periods) - half


def chart_delta(m: Manifold, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y - x in the flat chart: torus_delta on a torus, plain on a box."""
    if m.kind == "torus":
        return torus_delta(m, x, y)
    return y - x


def _sphere_angle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # 2*arcsin of half-chord; switch to the antipodal form for obtuse angles
    # so accuracy is ~1e-15 over the whole range (plain arccos loses digits).
    dot = np.sum(x * y, axis=-1)
    # the chords are norms, so only the clip at 1 can act
    chord = np.sqrt(np.sum((x - y) ** 2, axis=-1))
    anti = np.sqrt(np.sum((x + y) ** 2, axis=-1))
    near = 2.0 * np.arcsin(np.minimum(chord / 2.0, 1.0))
    far = pi - 2.0 * np.arcsin(np.minimum(anti / 2.0, 1.0))
    return np.where(dot >= 0.0, near, far)


def d0_many(m: Manifold, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise d0 between broadcast-compatible point arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if m.kind == "sphere":
        return m.radius * _sphere_angle(x, y)
    return np.linalg.norm(chart_delta(m, x, y), axis=-1)


def midpoint(m: Manifold, x, y) -> np.ndarray:
    """Point at distance d0(x,y)/2 from both ends of a minimizing geodesic.

    Over rows for (K, d) x and y: one geodesic_points call gives the (K, d)
    midpoints, bit for bit those of the rows one by one, and any row whose
    two points coincide, or are (nearly) antipodal on a sphere, is a
    GeometryError.
    """
    rows = np.ndim(x) > 1 or np.ndim(y) > 1
    x = m.check_points(x)
    y = m.check_points(y)
    if np.any(np.all(x == y, axis=-1)):
        raise GeometryError("midpoint requires two distinct points")
    if m.kind == "sphere" and np.any(d0_many(m, x, y) >= pi * m.radius - 1e-9):
        raise GeometryError("midpoint of (nearly) antipodal sphere points is ambiguous")
    mid = geodesic_points(m, x, y, [0.5])[0]
    return mid if rows else mid[0]


def geodesic_points(m: Manifold, x: np.ndarray, y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Points gamma(t) on the minimizing geodesic x -> y, for t in [0,1].

    Vectorized over an (E, d) batch of segments; returns (T, E, d).
    """
    ts = np.asarray(ts, dtype=float)[:, None, None]
    if m.kind != "sphere":
        g = ts * chart_delta(m, x, y)[None]
        g += x
        return torus_wrap(g, m.periods) if m.kind == "torus" else g
    ang = _sphere_angle(x, y)[None, :, None]
    s = np.sin(ang)
    safe = np.where(s < 1e-14, 1.0, s)
    a = np.where(s < 1e-14, 1.0 - ts, np.sin((1.0 - ts) * ang) / safe)
    b = np.where(s < 1e-14, ts, np.sin(ts * ang) / safe)
    g = a * x[None] + b * y[None]
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# ball volumes
# ---------------------------------------------------------------------------


def gauss_rule(K: int):
    """K-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(K)
    return (x + 1.0) / 2.0, w / 2.0


# panel edges of one piece, as fractions of it: graded by 1/4 toward both ends
_GRADED = 0.5 * 0.25 ** np.arange(12)
_PANELS = np.concatenate([[0.0], _GRADED[::-1], 1.0 - _GRADED[1:], [1.0]])
_NODES, _WEIGHTS = gauss_rule(20)
# colatitude rules kept by _cap_rule; one rule is at most 1,440 nodes (~23 KB)
CAP_RULE_CACHE_SIZE = 256


def _slice_measure(n: int, psi: np.ndarray) -> np.ndarray:
    """Measure of a geodesic cap of angular radius psi on the unit S^{n-1}."""
    if n == 2:
        return 2.0 * psi
    if n == 3:
        return 2 * pi * (1.0 - np.cos(psi))
    return 2 * pi * (psi - np.sin(psi) * np.cos(psi))


def cap_quadrature(m: Manifold, gamma: float, radius: float):
    """(theta, weights) with weights @ F(theta) = int_B F(theta(x)) dmu0.

    theta(x) is the angle of x from a symmetry axis; B is the geodesic ball
    of the given radius whose center lies at angle gamma from the axis.  The
    rule depends only on (n, R, gamma, radius), so it is built once per such
    geometry (_cap_rule) and the same read-only arrays are returned to every
    caller with the same floats.
    """
    return _cap_rule(m.dim, float(m.radius), float(gamma), float(radius))


@lru_cache(maxsize=CAP_RULE_CACHE_SIZE)
def _cap_rule(n: int, R: float, gamma: float, radius: float):
    """The colatitude rule of cap_quadrature on the radius-R round n-sphere.

    B meets the colatitude sphere at theta in a cap of angular radius psi,
    the angle opposite rb = radius/R in the spherical triangle
    (theta, gamma, rb).  psi comes from the half-angle formula, which unlike
    the cosine rule does not cancel where cos(theta) rounds to 1; clipping
    gives psi = 0 on empty slices and pi on full ones.  The composite
    20-point Gauss-Legendre rule breaks [0, pi] where slices start or stop
    meeting B and grades each piece by 1/4 toward both ends, which resolves
    integrands concentrated there.
    """
    rb = float(np.clip(radius / R, 0.0, pi))
    kinks = [abs(gamma - rb), min(gamma + rb, 2 * pi - gamma - rb)]
    breaks = np.unique(np.clip([0.0, *kinks, pi], 0.0, pi))
    edges = breaks[:-1, None] + np.diff(breaks)[:, None] * _PANELS
    lo, width = edges[:, :-1, None], np.diff(edges, axis=1)[:, :, None]
    theta = (lo + width * _NODES).ravel()
    s = (theta + gamma + rb) / 2.0
    psi = 2.0 * np.arctan2(
        np.sqrt(np.clip(np.sin(s - theta) * np.sin(s - gamma), 0.0, None)),
        np.sqrt(np.clip(np.sin(s) * np.sin(s - rb), 0.0, None)),
    )
    w = (width * _WEIGHTS).ravel() * R**n
    w *= np.sin(theta) ** (n - 1) * _slice_measure(n, psi)
    keep = w > 0.0
    theta, w = theta[keep], w[keep]
    theta.flags.writeable = False
    w.flags.writeable = False
    return theta, w


def cap_volume(m: Manifold, r: float) -> float:
    """Volume of a geodesic cap of radius r on the round sphere: the weight
    sum of cap_quadrature about its own center (relative error ~1e-15, so
    A-infinity denominators are noise free)."""
    return float(cap_quadrature(m, 0.0, r)[1].sum())


def _closed_form_volume(m: Manifold, b: BallSpec):
    """(mu0(B), standard error) where B has a closed-form volume, else None."""
    r = b.radius
    if m.kind == "sphere":
        vol = cap_volume(m, r)
        return vol, 1e-12 * vol
    if m.kind == "torus" and r < m.min_period / 2.0:
        return unit_ball_volume(m.dim) * r**m.dim, 0.0
    c = np.asarray(b.center, dtype=float)
    if m.kind == "box" and np.all((c - m.extents[:, 0] >= r) & (m.extents[:, 1] - c >= r)):
        return unit_ball_volume(m.dim) * r**m.dim, 0.0
    return None


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def lattice_steps(m: Manifold, spacing: float, cover: bool = False) -> tuple:
    """(shape, axis_spacing) of ``lattice(m, spacing, cover)`` on a torus or
    box, without building it: the node counts are each period over the
    spacing, rounded, and on a box one more than the whole steps that fit
    (``cover`` rounds up, so the realized spacing never exceeds the
    request); the node steps are those of ``grid_axes``."""
    torus = m.kind == "torus"
    lo, hi = m.chart
    steps = (hi - lo) / spacing
    if cover:
        steps = np.ceil(steps - 1e-9)
    else:
        steps = np.round(steps) if torus else np.floor(steps + 1e-9)
    shape = tuple(int(k) + (not torus) for k in np.maximum(steps, 1))
    return shape, grid_axes(m, shape)[1]


def grid_axes(m: Manifold, shape) -> tuple:
    """(axes, axis_spacing) of the torus/box node grid with ``shape`` nodes:
    i * (p/k) on a torus of period p with k nodes along an axis, and
    linspace(lo, hi, k) on a box."""
    if m.kind not in ("torus", "box"):
        raise InputError("node grids live on tori and boxes only")
    if m.kind == "torus":
        h = m.periods / np.asarray(shape)
        return [np.arange(k) * hk for k, hk in zip(shape, h)], h
    lo, hi = m.extents.T
    h = (hi - lo) / (np.asarray(shape) - 1)
    return [np.linspace(a, b, k) for a, b, k in zip(lo, hi, shape)], h


def equal_slab_axes(table: np.ndarray, naxes: int) -> list:
    """The axes among the first ``naxes`` of ``table`` along which it is
    constant, compared with exact == as ``np.array_equal`` compares each
    slab (the entries with one index along the axis) with the first: its
    max and min along the axis are equal everywhere, one reduction each
    (a NaN fails, -0.0 == 0.0).  An axis of extent 1 has one slab, so it
    is constant, NaN or not."""
    return [a for a in range(naxes) if table.shape[a] < 2 or np.all(table.max(axis=a) == table.min(axis=a))]


def lattice_orbits(shape, axes, index):
    """(rep, steps) of row-major indices into a lattice of ``shape`` under
    the translations along ``axes``: rep, each index with its coordinates
    along ``axes`` zeroed (its orbit representative), and the (len(index),
    d) coordinates that were zeroed, which ``lattice_roll`` moves by."""
    coords = np.array(np.unravel_index(index, shape)).T
    steps = np.zeros_like(coords)
    steps[:, axes] = coords[:, axes]
    return np.ravel_multi_index((coords - steps).T, shape), steps


def lattice_roll(u: np.ndarray, shape, steps) -> np.ndarray:
    """The row-major lattice vector u translated by ``steps`` nodes along
    each axis, wrapping around: entry t of the result is u's entry at
    t - steps (mod shape)."""
    return np.roll(u.reshape(shape), tuple(steps), axis=tuple(range(len(shape)))).reshape(-1)


def _fibonacci_sphere(count: int) -> np.ndarray:
    golden = (1 + np.sqrt(5.0)) / 2
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = 2 * pi * np.mod(i / golden, 1.0)
    s = np.sqrt(np.clip(1 - z * z, 0.0, 1.0))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _sin_power_ppf(power: int, u: np.ndarray, theta_max: float = pi) -> np.ndarray:
    """Inverse CDF of density sin(t)^power (power >= 1) on [0, theta_max],
    by table lookup."""
    if power == 1:
        lo = 1.0
        hi = np.cos(theta_max)
        return np.arccos(np.clip(lo + (hi - lo) * u, -1.0, 1.0))
    t = np.linspace(0.0, theta_max, 4097)
    dens = np.sin(t) ** power
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(t))])
    cdf /= cdf[-1]
    return np.interp(u, cdf, t)


def _kronecker_sequence(count: int, dims: int) -> np.ndarray:
    # generalized golden-ratio (R_d) low-discrepancy sequence in [0,1)^dims
    g = 2.0
    for _ in range(32):
        g = (1 + g) ** (1.0 / (dims + 1))
    alpha = np.array([(1.0 / g) ** (k + 1) for k in range(dims)])
    return np.mod(np.outer(np.arange(1, count + 1), alpha) + 0.5, 1.0)


def _quasi_uniform_sphere(n: int, count: int) -> np.ndarray:
    """Quasi-uniform points on S^n.

    S^1 takes the equispaced midpoint angles (k + 1/2) 2 pi / count, S^2
    the golden spiral; higher spheres start from a low-discrepancy set in
    area-preserving spherical coordinates and even out the
    nearest-neighbour spacing with deterministic repulsion sweeps.
    """
    if n == 1:
        theta = (np.arange(count) + 0.5) * (2 * pi / count)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 2:
        return _fibonacci_sphere(count)
    u = _kronecker_sequence(count, n)
    # colatitudes with densities sin^{n-1}, sin^{n-2}, ..., final azimuth uniform
    angles = [_sin_power_ppf(n - 1 - j, u[:, j]) for j in range(n - 1)]
    phi = 2 * pi * u[:, n - 1]
    coords = []
    sin_prod = np.ones(count)
    for th in angles:
        coords.append(sin_prod * np.cos(th))
        sin_prod = sin_prod * np.sin(th)
    coords.append(sin_prod * np.cos(phi))
    coords.append(sin_prod * np.sin(phi))
    x = np.column_stack(coords[::-1])
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return _repel_sphere_points(x)


def _repel_sphere_points(x: np.ndarray) -> np.ndarray:
    """x after at most 60 repulsion sweeps, each pushing apart the points
    closer than the target spacing along their 4 nearest neighbours."""
    from scipy.spatial import cKDTree

    count = x.shape[0]
    target = (sphere_volume(x.shape[1] - 1) / count) ** (1.0 / (x.shape[1] - 1))
    for sweep in range(60):
        tree = cKDTree(x)
        dist, idx = tree.query(x, k=5)
        step = np.zeros_like(x)
        for k in range(1, 5):
            d = dist[:, k]
            close = d < target
            if not np.any(close):
                continue
            push = (x[close] - x[idx[close, k]]) / d[close, None]
            step[close] += push * ((target - d[close]) / 2)[:, None]
        if not step.any():
            break
        x = x + 0.5 * step
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def lattice(m: Manifold, spacing: float, cover: bool = False) -> PointSet:
    """Covering point set with the requested spacing, of at most
    DEFAULT_LATTICE_BUDGET points (else ResourceError).

    Torus/box: axis-aligned grid (torus spacing adjusted to divide each
    period; ``cover=True`` rounds the counts up so the realized spacing never
    exceeds the request).  Sphere: quasi-uniform layout with
    nearest-neighbour spacing within [0.5, 2] of the request.
    """
    spacing = positive_scalar(spacing, "lattice spacing")
    if m.kind == "sphere":
        count = max(m.dim + 2, int(round(m.volume / (SPHERE_LAYOUT_CONSTANT[m.dim] * spacing**m.dim))))
    else:
        shape, _ = lattice_steps(m, spacing, cover)
        count = int(np.prod([float(s) for s in shape]))
    if count > DEFAULT_LATTICE_BUDGET:
        raise ResourceError(f"lattice would need {count} points, exceeding the budget of "
                            f"{DEFAULT_LATTICE_BUDGET}")
    if m.kind != "sphere":
        return PointSet.grid(*grid_axes(m, shape))
    pts = _quasi_uniform_sphere(m.dim, count)
    return PointSet(
        points=pts,
        spacing=float(spacing),
        cell_volume=np.full(count, m.volume / count),
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_manifold(m: Manifold, count: int, seed: int = 0):
    """(points, weights): i.i.d. uniform w.r.t. mu0 over all of M."""
    if not is_count(count, 1):
        raise InputError(f"sample count must be >= 1 and an integer, got {count!r}")
    rng = derive_rng(seed, "manifold")
    if m.kind != "sphere":
        lo, hi = m.chart
        pts = lo + rng.random((count, m.dim)) * (hi - lo)
    else:
        g = rng.standard_normal((count, m.dim + 1))
        pts = g / np.linalg.norm(g, axis=1, keepdims=True)
    w = np.full(count, m.volume / count)
    return pts, w


def _householder_to(x: np.ndarray) -> np.ndarray:
    """Orthogonal maps (N, d, d) taking the last basis vector e to each unit row of x.

    Each is the reflection taking s e to x, s = +-1 the sign of x's last
    coordinate (so the two are never near antipodal), with its last column
    times s; the other columns are an orthonormal tangent frame at x.
    """
    s = np.where(x[:, -1] >= 0.0, 1.0, -1.0)
    v = x.copy()
    v[:, -1] += s
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    h = 2.0 * v[:, :, None] * v[:, None, :] - np.eye(x.shape[1])
    h[:, :, -1] *= s[:, None]
    return h


def _sample_cap(m: Manifold, b: BallSpec, count: int, rng) -> np.ndarray:
    n = m.dim
    theta_max = min(b.radius / m.radius, pi)
    theta = _sin_power_ppf(n - 1, rng.random(count), theta_max)
    g = rng.standard_normal((count, n))
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    local = np.concatenate(
        [np.sin(theta)[:, None] * u, np.cos(theta)[:, None]], axis=1
    )
    hh = _householder_to(np.asarray(b.center, dtype=float)[None])[0]
    return local @ hh.T


def sample_ball(m: Manifold, b: BallSpec, count: int, seed: int = 0):
    """(points, weights, volume_se): i.i.d. uniform samples of B w.r.t. mu0.

    A ball that covers M (r >= max_distance) is sample_manifold's draws.
    Caps are sampled by colatitude inversion and a rotation.  A flat ball of
    dimension n <= 4 is drawn by rejection from its bounding cube: c + r v
    for the columns v of an axis-major (n, k) block of uniforms on [-1, 1)^n
    with |v|^2 < 1 (a unit cube, so no tiny r^2 underflows), each 2u - 1 in
    place on a block u of rng.random: the floats of rng.uniform(-1, 1), which
    reads the same stream and rounds -1 + 2u alike.  Each round's k
    expects the remaining count from the cube's ball fraction omega_n / 2^n,
    times the in-domain fraction seen so far, with a margin of
    3 sqrt(remaining) + 1, and is never larger than the first round's k.
    That fraction is 0.31 at n = 4 but 0.16 at n = 5, so from n = 5 on each
    round draws c + r U^{1/n} g/|g| (U uniform, g Gaussian) count times.
    Of the draws in the ball, those inside the box, or on a torus within half
    a period of c in every coordinate, are kept.  The (count, n) points
    returned are a transposed axis-major block, so they may be F-ordered;
    on a torus torus_wrap wraps each axis only on the side the ball leaves.
    Weights are uniform and sum to the exact volume where there is one (see
    _closed_form_volume), else to omega r^n a, a the kept fraction of the
    draws in the ball, with binomial volume_se omega r^n sqrt(a (1 - a) / drawn).
    """
    if not is_count(count, 1):
        raise InputError(f"sample count must be >= 1 and an integer, got {count!r}")
    check_ball(m, b)
    if b.radius >= m.max_distance:
        pts, w = sample_manifold(m, count, seed)
        return pts, w, 0.0
    rng = derive_rng(seed, "ball")
    volume = _closed_form_volume(m, b)
    if m.kind == "sphere":
        return _sample_cap(m, b, count, rng), np.full(count, volume[0] / count), volume[1]
    n, c, r = m.dim, np.asarray(b.center, dtype=float), b.radius
    whole = volume is not None  # the ball neither wraps nor meets a face
    lo, hi = (c - m.periods / 2.0, c + m.periods / 2.0) if m.kind == "torus" else m.extents.T
    cube = unit_ball_volume(n) / 2.0**n
    first = ceil((count + 3.0 * sqrt(count) + 1.0) / cube)
    kept, accepted, drawn = [], 0, 0  # drawn counts the draws in the ball
    while accepted < count:
        if n <= 4:
            need = count - accepted
            share = cube * accepted / drawn if accepted else cube
            k = min(ceil((need + 3.0 * sqrt(need) + 1.0) / share), first)
            v = rng.random((n, k))
            v *= 2.0
            v -= 1.0
            sq = v[0] * v[0]
            for a in range(1, n):
                sq += v[a] * v[a]
            cols = np.compress(sq < 1.0, v, axis=1)
            cols *= r
        else:
            g = rng.standard_normal((count, n))
            rad = r * rng.random(count) ** (1.0 / n) / np.sqrt(np.einsum("ij,ij->i", g, g))
            cols = g.T.copy()  # (n, count): c + rad * g, rounded as written
            cols *= rad
        drawn += cols.shape[1]
        cols += c[:, None]
        if not whole:
            inside = ((cols >= lo[:, None]) & (cols < hi[:, None])).all(axis=0)
            cols = np.compress(inside, cols, axis=1)
        kept.append(cols)
        accepted += cols.shape[1]
        if drawn > 4096 and accepted / drawn < 1e-3:
            raise ResourceError(f"ball rejection efficiency {accepted / drawn:.2e} below 1e-3")
    pts = (kept[0] if len(kept) == 1 else np.concatenate(kept, axis=1))[:, :count].T
    if m.kind == "torus":
        pts = torus_wrap(pts, m.periods)
    if volume is None:
        a, disc = accepted / drawn, unit_ball_volume(n) * b.radius**n
        volume = disc * a, disc * float(np.sqrt(a * (1.0 - a) / drawn))
    return pts, np.full(count, volume[0] / count), volume[1]
