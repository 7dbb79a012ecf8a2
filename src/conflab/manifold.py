"""Background geometries: flat tori, Euclidean boxes and round spheres.

Each geometry supplies the exact base distance d0, ball volumes for the base
measure mu0, geodesic midpoints, covering lattices and uniform Monte Carlo
samples of balls.  Points are plain numpy vectors: chart coordinates for
torus/box, ambient unit vectors for the sphere (the sphere radius only scales
distances and volumes).  All operations are pure; randomness enters only
through explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gamma, pi
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
        if dim < 2:
            raise InputError(f"torus dimension must be >= 2, got {dim}")
        p = np.full(dim, 2 * pi) if periods is None else np.asarray(periods, dtype=float)
        if p.shape != (dim,) or np.any(p <= 0):
            raise InputError("torus periods must be a positive vector of length dim")
        return Manifold("torus", dim, periods=p)

    @staticmethod
    def box(extents) -> "Manifold":
        e = np.asarray(extents, dtype=float)
        if e.ndim != 2 or e.shape[1] != 2 or e.shape[0] < 2:
            raise InputError("box extents must be an (n, 2) array with n >= 2")
        if np.any(e[:, 1] <= e[:, 0]):
            raise InputError("box extents must have hi > lo on every axis")
        return Manifold("box", e.shape[0], extents=e)

    @staticmethod
    def sphere(dim: int = 2, radius: float = 1.0) -> "Manifold":
        if dim not in (2, 3, 4):
            raise InputError(f"sphere dimension must be in {{2,3,4}}, got {dim}")
        if radius <= 0:
            raise InputError("sphere radius must be positive")
        return Manifold("sphere", dim, radius=float(radius))

    # -- basic attributes ------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1 if self.kind == "sphere" else self.dim

    @property
    def volume(self) -> float:
        if self.kind == "torus":
            return float(np.prod(self.periods))
        if self.kind == "box":
            return float(np.prod(self.extents[:, 1] - self.extents[:, 0]))
        return sphere_volume(self.dim) * self.radius**self.dim

    @property
    def max_distance(self) -> float:
        """Diameter of the manifold for d0."""
        if self.kind == "torus":
            return float(np.linalg.norm(self.periods / 2.0))
        if self.kind == "box":
            return float(np.linalg.norm(self.extents[:, 1] - self.extents[:, 0]))
        return pi * self.radius

    @property
    def min_period(self) -> float:
        if self.kind == "torus":
            return float(np.min(self.periods))
        if self.kind == "box":
            return float(np.min(self.extents[:, 1] - self.extents[:, 0]))
        return pi * self.radius

    # -- point handling --------------------------------------------------

    def check_points(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
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

    def nearest(self, m: "Manifold", x) -> int:
        """Index of the node nearest to x in d0, the lowest one on ties:
        np.argmin(d0_many(m, points, x)).

        On a lattice only the nodes of x's cell and one more on each side
        along every axis (wrapped on a torus, clipped on a box) are compared;
        every other node is at least a spacing farther, far beyond rounding.
        """
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise InputError("nearest needs a point with finite coordinates")
        if self.lattice_shape is None:
            return int(np.argmin(d0_many(m, self.points, x)))
        shape = np.asarray(self.lattice_shape)
        cell = np.floor((m.canonicalize(x) - self.points[0]) / self.axis_spacing)
        cell = np.clip(cell, -2, shape + 1).astype(np.int64)  # x may lie far off a box
        near = []
        for c, s in zip(cell, shape):
            i = c + np.arange(-1, 3)
            near.append(np.unique(np.mod(i, s) if m.kind == "torus" else np.clip(i, 0, s - 1)))
        # ascending, so argmin keeps the lowest index on ties
        cand = np.ravel_multi_index(np.meshgrid(*near, indexing="ij"), shape).ravel()
        return int(cand[np.argmin(d0_many(m, self.points[cand], x))])


@dataclass(frozen=True)
class BallSpec:
    """Geodesic ball for d0: center point and radius in d0 units."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.center)):
            raise InputError("ball center must have finite coordinates")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InputError("ball radius must be positive and finite")


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
    Any other axis, non-finite entries included, goes through np.mod.
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
        if hi >= p:
            np.subtract(col, p, out=col, where=col >= p)
        if lo <= 0.0:
            np.add(col, p, out=col, where=col < 0.0)
            np.copyto(col, 0.0, where=(col >= p) | (col == 0.0))
    return x


def torus_delta(m: Manifold, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimal representative of y - x, entries in [-p/2, p/2).

    The wrap chooses -p/2 on cut-locus ties, which is the lexicographically
    smallest translate; documented for reproducibility.
    """
    half = m.periods / 2.0
    return torus_wrap(y - x + half, m.periods) - half


def _sphere_angle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # 2*arcsin of half-chord; switch to the antipodal form for obtuse angles
    # so accuracy is ~1e-15 over the whole range (plain arccos loses digits).
    dot = np.sum(x * y, axis=-1)
    chord = np.linalg.norm(x - y, axis=-1)
    anti = np.linalg.norm(x + y, axis=-1)
    near = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    far = pi - 2.0 * np.arcsin(np.clip(anti / 2.0, 0.0, 1.0))
    return np.where(dot >= 0.0, near, far)


def d0_many(m: Manifold, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise d0 between broadcast-compatible point arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if m.kind == "torus":
        return np.linalg.norm(torus_delta(m, x, y), axis=-1)
    if m.kind == "box":
        return np.linalg.norm(y - x, axis=-1)
    return m.radius * _sphere_angle(x, y)


def d0(m: Manifold, x, y) -> float:
    """Base distance between two points."""
    x = m.check_points(x)[0]
    y = m.check_points(y)[0]
    return float(d0_many(m, x, y))


def midpoint(m: Manifold, x, y) -> np.ndarray:
    """Point at distance d0(x,y)/2 from both ends of a minimizing geodesic."""
    x = m.check_points(x)[0]
    y = m.check_points(y)[0]
    if np.array_equal(x, y):
        raise GeometryError("midpoint requires two distinct points")
    if m.kind == "sphere" and d0_many(m, x, y) >= pi * m.radius - 1e-9:
        raise GeometryError("midpoint of (nearly) antipodal sphere points is ambiguous")
    return geodesic_points(m, x[None], y[None], [0.5])[0, 0]


def geodesic_points(m: Manifold, x: np.ndarray, y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Points gamma(t) on the minimizing geodesic x -> y, for t in [0,1].

    Vectorized over an (E, d) batch of segments; returns (T, E, d).
    """
    ts = np.asarray(ts, dtype=float)[:, None, None]
    if m.kind == "torus":
        g = ts * torus_delta(m, x, y)[None]
        g += x
        return torus_wrap(g, m.periods)
    if m.kind == "box":
        return x[None] + ts * (y - x)[None]
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
    of the given radius whose center lies at angle gamma from the axis.  B
    meets the colatitude sphere at theta in a cap of angular radius psi, the
    angle opposite rb = radius/R in the spherical triangle (theta, gamma, rb).
    psi comes from the half-angle formula, which unlike the cosine rule does
    not cancel where cos(theta) rounds to 1; clipping gives psi = 0 on empty
    slices and pi on full ones.  The composite 20-point Gauss-Legendre rule
    breaks [0, pi] where slices start or stop meeting B and grades each piece
    by 1/4 toward both ends, which resolves integrands concentrated there.
    """
    n = m.dim
    rb = float(np.clip(radius / m.radius, 0.0, pi))
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
    w = (width * _WEIGHTS).ravel() * m.radius**n
    w *= np.sin(theta) ** (n - 1) * _slice_measure(n, psi)
    keep = w > 0.0
    return theta[keep], w[keep]


def cap_volume(m: Manifold, r: float) -> float:
    """Volume of a geodesic cap of radius r on the round sphere: the weight
    sum of cap_quadrature about its own center (relative error ~1e-15, so
    A-infinity denominators are noise free)."""
    return float(cap_quadrature(m, 0.0, r)[1].sum())


def _closed_form_volume(m: Manifold, b: BallSpec):
    """(mu0(B), standard error) where B has a closed-form volume, else None."""
    r = b.radius
    if r >= m.max_distance:
        return m.volume, 0.0
    if m.kind == "sphere":
        return cap_volume(m, r), 1e-12 * cap_volume(m, r)
    if m.kind == "torus" and r < m.min_period / 2.0:
        return unit_ball_volume(m.dim) * r**m.dim, 0.0
    c = np.asarray(b.center, dtype=float)
    if m.kind == "box" and np.all((c - m.extents[:, 0] >= r) & (m.extents[:, 1] - c >= r)):
        return unit_ball_volume(m.dim) * r**m.dim, 0.0
    return None


def mu0_ball_detail(m: Manifold, b: BallSpec, budget: int = 200_000, seed: int = 0):
    """(volume, standard error) of mu0(B): closed forms with zero error (caps
    1e-12 relative), else the acceptance ratio of ``budget`` sample_ball draws."""
    exact = _closed_form_volume(m, b)
    if exact is not None:
        return exact
    _, w, se = sample_ball(m, b, budget, seed)
    return float(w.sum()), se


def mu0_ball(m: Manifold, b: BallSpec, budget: int = 200_000, seed: int = 0) -> float:
    """Base-measure volume of a geodesic ball."""
    return mu0_ball_detail(m, b, budget, seed)[0]


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def _lattice_shape(m: Manifold, spacing: float, cover: bool = False) -> tuple:
    """Node counts of the torus/box lattice at ``spacing``: each period over
    the spacing, rounded; on a box one more than the whole steps that fit.
    ``cover`` rounds up, so the realized spacing never exceeds the request."""
    torus = m.kind == "torus"
    steps = (m.periods if torus else m.extents[:, 1] - m.extents[:, 0]) / spacing
    if cover:
        steps = np.ceil(steps - 1e-9)
    else:
        steps = np.round(steps) if torus else np.floor(steps + 1e-9)
    return tuple(int(k) + (not torus) for k in np.maximum(steps, 1))


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
    constant, compared with exact ==: each slab (the entries with one index
    along the axis, a view) against the first, stopping at the first
    mismatch."""

    def constant_along(a):
        slabs = np.moveaxis(table, a, 0)
        return all(np.array_equal(s, slabs[0]) for s in slabs[1:])

    return [a for a in range(naxes) if constant_along(a)]


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

    S^2 uses the golden spiral; higher spheres start from a low-discrepancy
    set in area-preserving spherical coordinates and even out the
    nearest-neighbour spacing with deterministic repulsion sweeps.
    """
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
    if spacing <= 0:
        raise InputError("lattice spacing must be positive")
    if m.kind in ("torus", "box"):
        shape = _lattice_shape(m, spacing, cover)
        npts = int(np.prod([float(s) for s in shape]))
        if npts > DEFAULT_LATTICE_BUDGET:
            raise ResourceError(
                f"lattice would need {npts} points, exceeding the budget of {DEFAULT_LATTICE_BUDGET}"
            )
        return PointSet.grid(*grid_axes(m, shape))
    c = SPHERE_LAYOUT_CONSTANT[m.dim]
    count = max(m.dim + 2, int(round(m.volume / (c * spacing**m.dim))))
    if count > DEFAULT_LATTICE_BUDGET:
        raise ResourceError(
            f"lattice would need {count} points, exceeding the budget of {DEFAULT_LATTICE_BUDGET}"
        )
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
    if count < 1:
        raise InputError(f"sample count must be >= 1, got {count}")
    rng = derive_rng(seed, "manifold")
    if m.kind == "torus":
        pts = rng.random((count, m.dim)) * m.periods
    elif m.kind == "box":
        lo, hi = m.extents[:, 0], m.extents[:, 1]
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
    Caps are sampled by colatitude inversion and a rotation.  Flat balls keep
    the draws c + r U^{1/n} g/|g| (U uniform, g Gaussian) that lie inside the
    box, or on a torus within half a period of c in every coordinate.
    Weights are uniform and sum to the exact volume where there is one (see
    mu0_ball_detail), else to omega r^n a, a the accepted fraction of all
    draws, with binomial volume_se omega r^n sqrt(a (1 - a) / drawn).
    """
    if count < 1:
        raise InputError("sample count must be >= 1")
    if b.radius >= m.max_distance:
        pts, w = sample_manifold(m, count, seed)
        return pts, w, 0.0
    rng = derive_rng(seed, "ball")
    volume = _closed_form_volume(m, b)
    if m.kind == "sphere":
        return _sample_cap(m, b, count, rng), np.full(count, volume[0] / count), volume[1]
    n, c = m.dim, np.asarray(b.center, dtype=float)
    whole = volume is not None  # the ball neither wraps nor meets a face
    lo, hi = (c - m.periods / 2.0, c + m.periods / 2.0) if m.kind == "torus" else m.extents.T
    kept, accepted, drawn = [], 0, 0
    while accepted < count:
        pts = rng.standard_normal((count, n))
        rad = b.radius * rng.random(count) ** (1.0 / n) / np.sqrt(np.einsum("ij,ij->i", pts, pts))
        inside = None if whole else np.ones(count, dtype=bool)
        for a in range(n):  # c + rad * g, rounded as written, in place
            col = pts[:, a]
            col *= rad
            col += c[a]
            if inside is not None:
                inside &= (col >= lo[a]) & (col < hi[a])
        if inside is not None:
            pts = pts[inside]
        kept.append(pts)
        accepted += len(pts)
        drawn += count
        if drawn > 4096 and accepted / drawn < 1e-3:
            raise ResourceError(f"ball rejection efficiency {accepted / drawn:.2e} below 1e-3")
    pts = kept[0][:count] if len(kept) == 1 else np.concatenate(kept)[:count]
    if m.kind == "torus":
        pts = torus_wrap(pts, m.periods)
    if volume is None:
        a, disc = accepted / drawn, unit_ball_volume(n) * b.radius**n
        volume = disc * a, disc * float(np.sqrt(a * (1.0 - a) / drawn))
    return pts, np.full(count, volume[0] / count), volume[1]
