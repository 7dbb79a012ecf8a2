"""Log-conformal-factor fields f and the volume weight w = e^{nf}.

Analytic presets (constant, oscillating torus weight, log-cusp, sphere
dilation bubble), grid-sampled fields with multilinear/cubic interpolation,
and the quadrature operations on the deformed measure mu_f = e^{nf} mu0:
ball masses and total mass.

Fields are immutable and evaluated vectorized; fields with closed-form
derivatives expose the ambient gradient and the (nonnegative-spectrum)
Laplacian of f, which is all the curvature layer needs.  A rotationally
symmetric sphere field names its axis (``radial_axis``) and gives
(f, f', f'') at angles from it in one call (``profile``), which is all the
colatitude rule needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import pi
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import FormatError, InputError, IntegrationError
from .manifold import (
    BallSpec,
    Manifold,
    PointSet,
    cap_quadrature,
    chart_delta,
    check_ball,
    d0_many,
    float_array,
    grid_axes,
    is_count,
    positive_scalar,
    sample_ball,
    sample_manifold,
)
from .rng import check_seed

# ---------------------------------------------------------------------------
# field classes
# ---------------------------------------------------------------------------


class WeightField:
    """Base class: the log factor f with optional exact derivatives, and
    the volume weight e^{nf} at points (``weight_many``)."""

    def validate(self, m: Manifold) -> None:
        pass

    def eval_many(self, m: Manifold, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def weight_many(self, m: Manifold, x: np.ndarray) -> np.ndarray:
        """e^{nf} at the points x: np.exp(n * eval_many) unless a field has
        the weight in closed form."""
        return np.exp(m.dim * self.eval_many(m, x))

    def grad_lap_many(self, m: Manifold, x: np.ndarray):
        """(gradient vectors, Laplacian of f), geometer's sign Laplacian;
        InputError for a field without closed-form derivatives."""
        raise InputError(
            f"{type(self).__name__} does not provide exact derivatives; "
            "its curvature has only the finite-difference reference scal_fd_many"
        )

    def radial_axis(self, m: Manifold) -> Optional[np.ndarray]:
        """The ambient unit vector a sphere field is rotationally symmetric
        about, f = f(theta) with theta the geodesic angle from it, or None.
        A field that names one gives its ``profile``."""
        return None

    def profile(self, theta: np.ndarray) -> tuple:
        """(f, f', f'') at angles theta from ``radial_axis``."""
        raise NotImplementedError

    def constant_axes(self, m: Manifold) -> tuple:
        """Coordinate axes along which f is constant on m: changing those
        coordinates of a point leaves ``eval_many`` bit for bit unchanged.
        Lattice edge weighting evaluates f only across the other axes."""
        return ()


@dataclass(frozen=True)
class Constant(WeightField):
    value: float = 0.0

    def eval_many(self, m, x):
        return np.full(x.shape[0], float(self.value))

    def grad_lap_many(self, m, x):
        npts = x.shape[0]
        return np.zeros((npts, x.shape[1])), np.zeros(npts)

    def constant_axes(self, m):
        return tuple(range(m.ambient_dim))

    def radial_axis(self, m):
        if m.kind != "sphere":
            return None
        axis = np.zeros(m.dim + 1)
        axis[-1] = 1.0
        return axis

    def profile(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.full_like(theta, float(self.value)), np.zeros_like(theta), np.zeros_like(theta)


@dataclass(frozen=True)
class BuragoTorus(WeightField):
    """Oscillating weight e^{nf} = 1 - cos(ell * x1)/2 on a flat torus.

    ``weight_many`` returns that weight by the half-angle identity
    1 - cos(u)/2 = 1.5 - 1/(1 + tan^2(u/2)), u = ell * x1, computed in
    place: numpy's float64 tangent is vectorised where its cosine may be
    scalar libm.  It is within 1.5 ulp of the weight at the rounded u (the
    cosine's 0.75), within 2 ulp of the cosine form, and exactly 0.5 at
    x1 = 0 and 1.5 at x1 = pi/ell.  f is its log over n."""

    ell: int = 1

    def validate(self, m):
        if m.kind != "torus":
            raise InputError("BuragoTorus is only defined on tori")
        if not is_count(self.ell, 1):
            raise InputError(f"BuragoTorus frequency ell must be a positive integer, got {self.ell!r}")
        turns = self.ell * float(m.periods[0]) / (2 * pi)  # else f jumps at x1 = P1 ~ 0
        if abs(turns - round(turns)) > 1e-9 * turns:
            raise InputError(f"BuragoTorus needs ell * P1 / (2 pi) integer, got {turns:.6g}")

    def weight_many(self, m, x):
        t = (0.5 * self.ell) * x[:, 0]
        np.tan(t, out=t)
        t *= t
        t += 1.0
        np.reciprocal(t, out=t)
        return np.subtract(1.5, t, out=t)

    def eval_many(self, m, x):
        return np.log(self.weight_many(m, x)) / m.dim

    def grad_lap_many(self, m, x):
        n = m.dim
        u = self.ell * x[:, 0]
        g = 1.0 - 0.5 * np.cos(u)
        fp = self.ell * 0.5 * np.sin(u) / (n * g)
        fpp = self.ell**2 * (0.5 * np.cos(u) - 0.25) / (n * g * g)
        grad = np.zeros_like(x)
        grad[:, 0] = fp
        return grad, -fpp

    def constant_axes(self, m):
        return tuple(range(1, m.dim))


def _quintic_decay(s: np.ndarray, h: float, y0: float, d0_: float, dd0: float):
    """Quintic on [0,1] matching (y0, d0, dd0) at s=0 and (0,0,0) at s=1.

    Returns (value, d/ds, d2/ds2); h is the physical interval length so the
    caller converts back with 1/h factors.
    """
    s2, s3, s4, s5 = s * s, s**3, s**4, s**5
    h0 = 1 - 10 * s3 + 15 * s4 - 6 * s5
    h1 = s - 6 * s3 + 8 * s4 - 3 * s5
    h2 = 0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5
    v = y0 * h0 + h * d0_ * h1 + h * h * dd0 * h2
    dh0 = -30 * s2 + 60 * s3 - 30 * s4
    dh1 = 1 - 18 * s2 + 32 * s3 - 15 * s4
    dh2 = s - 4.5 * s2 + 6 * s3 - 2.5 * s4
    dv = y0 * dh0 + h * d0_ * dh1 + h * h * dd0 * dh2
    d2h0 = -60 * s + 180 * s2 - 120 * s3
    d2h1 = -36 * s + 96 * s2 - 60 * s3
    d2h2 = 1 - 9 * s + 18 * s2 - 10 * s3
    d2v = y0 * d2h0 + h * d0_ * d2h1 + h * h * dd0 * d2h2
    return v, dv, d2v


@dataclass(frozen=True)
class LogCusp(WeightField):
    """Radial blow-up f = sqrt(ln(r0/d)) around x0, C^2-blended to zero.

    The raw square-root profile is kept for d <= r0/e (where its value is 1
    and its derivatives are finite) and decays through a quintic on
    [r0/e, 2*r0] that matches value and two derivatives at both ends; it
    vanishes beyond 2*r0.  ``cap`` (None means uncapped) saturates the value
    smoothly at level cap via s(t) = t / (1 + (t/cap)^3)^{1/3}, leaving e^f
    bounded while keeping f_cap increasing to the uncapped profile.
    """

    x0: tuple
    r0: float = 1.0
    cap: Optional[float] = None

    def __post_init__(self):
        x0 = float_array(self.x0, "LogCusp centre x0")
        if x0.ndim != 1:
            raise InputError(f"LogCusp centre x0 must be a list of coordinates, got {self.x0!r}")
        object.__setattr__(self, "r0", positive_scalar(self.r0, "LogCusp radius r0"))
        if self.cap is not None:  # None is the uncapped cusp
            object.__setattr__(self, "cap", positive_scalar(self.cap, "LogCusp cap"))

    def validate(self, m):
        if m.kind not in ("torus", "box"):
            raise InputError("LogCusp is defined on tori and boxes only")
        if len(self.x0) != m.dim:
            raise InputError(f"LogCusp centre x0 needs {m.dim} coordinates, got {len(self.x0)}")
        if m.kind == "torus" and 2 * self.r0 >= m.min_period / 2:
            raise InputError("LogCusp support 2*r0 must fit inside half the min period")

    def _center(self):
        return np.asarray(self.x0, dtype=float)

    def _raw(self, d):
        """Uncapped profile value and two d-derivatives."""
        d = np.asarray(d, dtype=float)
        a = self.r0 / np.e
        b = 2.0 * self.r0
        v = np.zeros_like(d)
        dv = np.zeros_like(d)
        ddv = np.zeros_like(d)
        core = (d > 0) & (d <= a)
        if np.any(core):
            dc = d[core]
            ell = np.log(self.r0 / dc)
            rl = np.sqrt(ell)
            v[core] = rl
            dv[core] = -0.5 / (dc * rl)
            ddv[core] = (0.5 / rl - 0.25 / rl**3) / dc**2
        mid = (d > a) & (d < b)
        if np.any(mid):
            s = (d[mid] - a) / (b - a)
            val, dvs, ddvs = _quintic_decay(
                s, b - a, 1.0, -np.e / (2 * self.r0), np.e**2 / (4 * self.r0**2)
            )
            v[mid] = val
            dv[mid] = dvs / (b - a)
            ddv[mid] = ddvs / (b - a) ** 2
        v[d == 0] = np.inf
        return v, dv, ddv

    def _saturate(self, t):
        """C^2 saturation s(t) and ds/dt, d2s/dt2 (identity when uncapped)."""
        if self.cap is None:
            return t, np.ones_like(t), np.zeros_like(t)
        k = self.cap
        t = np.asarray(t, dtype=float)
        s = np.full_like(t, k)
        ds = np.zeros_like(t)
        dds = np.zeros_like(t)
        fin = np.isfinite(t)
        u = t[fin] / k
        w = 1.0 + u**3
        s[fin] = t[fin] * w ** (-1.0 / 3.0)
        ds[fin] = w ** (-4.0 / 3.0)
        dds[fin] = -4.0 * u * u / k * w ** (-7.0 / 3.0)
        return s, ds, dds

    def _dist(self, m, x):
        return d0_many(m, x, self._center())

    def eval_many(self, m, x):
        v, _, _ = self._raw(self._dist(m, x))
        s, _, _ = self._saturate(v)
        return s

    def grad_lap_many(self, m, x):
        n = m.dim
        d = self._dist(m, x)
        v, dv, ddv = self._raw(d)
        _, ds, dds = self._saturate(v)
        fp = ds * dv
        fpp = dds * dv * dv + ds * ddv
        delta = chart_delta(m, self._center(), x)
        safe = np.where(d > 0, d, 1.0)
        grad = fp[:, None] * delta / safe[:, None]
        grad[d == 0] = 0.0
        lap = -(fpp + (n - 1) * np.where(d > 0, fp / safe, 0.0))
        lap[d == 0] = np.inf
        return grad, lap


@dataclass(frozen=True)
class SphereBubble(WeightField):
    """Conformal dilation family of the round sphere.

    In the stereographic chart sigma from ``pole``, the metric e^{2f} g_S is
    the round metric pulled back under dilation by lam, i.e.
    f = ln(lam (1+|sigma|^2)) - ln(1+lam^2 |sigma|^2), extended continuously
    by -ln(lam) at the pole.  Rotationally symmetric about the antipode of
    the pole, where the measure concentrates as lam grows.  In the angle
    theta from ``radial_axis``, with s = sin(theta/2), c = cos(theta/2),
    a = lam^2 - 1 and q = a s^2, d = 1 + q, the profile is bounded on all of
    [0, pi]: f = ln(lam) - log1p(q), f' = -a s c / d and
    f'' = -a ((c - s)(c + s) - q) / (2 d^2).
    """

    lam: float = 1.0
    pole: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "lam", positive_scalar(self.lam, "SphereBubble dilation lam"))
        if self.pole is not None and float_array(self.pole, "SphereBubble pole").ndim != 1:
            raise InputError(f"SphereBubble pole must be a list of coordinates, got {self.pole!r}")

    def validate(self, m):
        if m.kind != "sphere":
            raise InputError("SphereBubble is only defined on spheres")
        if self.pole is not None and len(self.pole) != m.dim + 1:
            raise InputError(
                f"SphereBubble pole needs {m.dim + 1} ambient coordinates, got {len(self.pole)}"
            )
        if self.pole is not None and abs(1.0 - np.linalg.norm(self.pole)) > 1e-12:
            raise InputError("SphereBubble pole must be a unit vector (|1 - |pole|| <= 1e-12)")

    def radial_axis(self, m):
        """The antipode of the pole, where the measure concentrates."""
        if self.pole is None:
            pole = np.zeros(m.dim + 1)
            pole[-1] = 1.0
        else:
            pole = np.asarray(self.pole, dtype=float)
        return -pole

    def profile(self, theta):
        lam = self.lam
        half = np.asarray(theta, dtype=float) / 2.0
        s, c = np.sin(half), np.cos(half)
        a = (lam - 1.0) * (lam + 1.0)
        q = a * s * s
        d = 1.0 + q
        return np.log(lam) - np.log1p(q), -a * s * c / d, -a * ((c - s) * (c + s) - q) / (2.0 * d * d)

    def eval_many(self, m, x):
        return self.profile(d0_many(m, x, self.radial_axis(m)) / m.radius)[0]

    def grad_lap_many(self, m, x):
        axis = self.radial_axis(m)
        theta = d0_many(m, x, axis) / m.radius
        _, fp, fpp = self.profile(theta)
        sin = np.sin(theta)
        safe = np.where(sin > 1e-7, sin, 1.0)
        # unit tangent pointing away from the axis
        u = (np.cos(theta)[:, None] * x - axis[None, :]) / safe[:, None]
        grad = (fp / m.radius)[:, None] * u
        grad[sin <= 1e-7] = 0.0
        return grad, _radial_laplacian(m, theta, fp, fpp)


def _radial_laplacian(m: Manifold, theta: np.ndarray, fp: np.ndarray, fpp: np.ndarray):
    """Geometer's Laplacian of f(theta) on the sphere, theta the angle from an
    axis: -(f'' + (n-1) cot(theta) f') / R^2, with pole limit -n f'' / R^2."""
    sin = np.sin(theta)
    safe = np.where(sin > 1e-7, sin, 1.0)
    lap = np.where(sin > 1e-7, -(fpp + (m.dim - 1) * np.cos(theta) / safe * fp), -m.dim * fpp)
    return lap / m.radius**2


@dataclass(frozen=True)
class Sum(WeightField):
    fields: tuple

    def validate(self, m):
        if not self.fields:
            raise InputError("Sum needs at least one field")
        for f in self.fields:
            f.validate(m)

    def eval_many(self, m, x):
        return sum(f.eval_many(m, x) for f in self.fields)

    def grad_lap_many(self, m, x):
        grads, laps = zip(*(f.grad_lap_many(m, x) for f in self.fields))
        return sum(grads), sum(laps)

    def constant_axes(self, m):
        declared = [f.constant_axes(m) for f in self.fields]
        return tuple(a for a in range(m.ambient_dim) if all(a in axes for axes in declared))

    def radial_axis(self, m):
        """The one axis of the summands that vary, or None unless each names
        it; a summand constant along every axis is radial about any, so a
        sum of constants keeps its first summand's axis."""
        varying = [f for f in self.fields if len(f.constant_axes(m)) < m.ambient_dim]
        axes = [f.radial_axis(m) for f in varying or self.fields[:1]]
        if any(a is None or np.linalg.norm(a - axes[0]) > 1e-12 for a in axes):
            return None
        return axes[0]

    def profile(self, theta):
        return tuple(sum(parts) for parts in zip(*(f.profile(theta) for f in self.fields)))


@dataclass(frozen=True)
class _Lifted(WeightField):
    """A field of ``manifold`` read through its ``canonicalize``, on another
    manifold whose coordinates are its own: a box patch of a torus's
    universal cover, or a box domain inside a torus or box."""

    manifold: Manifold
    field: WeightField

    def validate(self, m):
        self.field.validate(self.manifold)

    def eval_many(self, m, x):
        return self.field.eval_many(self.manifold, self.manifold.canonicalize(x))

    def constant_axes(self, m):
        return self.field.constant_axes(self.manifold)


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------


class NodeGrid:
    """Node layout of a torus/box grid with ``manifold`` and ``shape`` attributes:
    the ``grid_axes`` nodes, cached once as a read-only lattice.  The axes
    are cached apart, so reading the spacing builds no node mesh."""

    @cached_property
    def _axes(self) -> tuple:
        axes, h = grid_axes(self.manifold, self.shape)
        h.flags.writeable = False
        return axes, h

    @cached_property
    def _grid(self) -> PointSet:
        g = PointSet.grid(*self._axes)
        g.points.flags.writeable = False
        return g

    # read-only views of the cache, which the holder cannot make writeable
    @property
    def axis_spacing(self) -> np.ndarray:
        return self._axes[1].view()

    def nodes(self) -> np.ndarray:
        """(N, dim) node coordinates in row-major order."""
        return self._grid.points.view()


def _grid_shape(m: Manifold, shape) -> tuple:
    """shape as a grid's node counts on m, one per axis, each an integer
    >= 1, or >= 2 on a box (its step divides by count - 1); else InputError."""
    least = 2 if m.kind == "box" else 1
    counts = tuple(shape) if np.iterable(shape) else ()
    if len(counts) != m.dim or not all(is_count(k, least) for k in counts):
        raise InputError(f"grid shape {shape!r} on a {m.dim}-D {m.kind} needs {m.dim} node counts, "
                         f"each an integer >= {least}")
    return tuple(map(int, counts))


@dataclass(frozen=True)
class GridField(NodeGrid):
    """Sampled log factor on a torus/box node grid (finite row-major values
    of f, of a ``_grid_shape``), else InputError."""

    manifold: Manifold
    values: np.ndarray

    def __post_init__(self):
        if self.manifold.kind not in ("torus", "box"):
            raise InputError("grid fields live on tori and boxes only")
        values = float_array(self.values, "grid values")
        _grid_shape(self.manifold, values.shape)
        if not np.all(np.isfinite(values)):
            raise InputError("grid values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple:
        return self.values.shape


def _linear_weights(s: np.ndarray) -> np.ndarray:
    """Multilinear kernel weights for taps at offsets 0, 1."""
    return np.stack([1.0 - s, s], axis=0)


def _cubic_weights(s: np.ndarray) -> np.ndarray:
    """Catmull-Rom kernel weights for taps at offsets -1, 0, 1, 2."""
    s2, s3 = s * s, s**3
    return np.stack(
        [
            -0.5 * s3 + s2 - 0.5 * s,
            1.5 * s3 - 2.5 * s2 + 1.0,
            -1.5 * s3 + 2.0 * s2 + 0.5 * s,
            0.5 * s3 - 0.5 * s2,
        ],
        axis=0,
    )


# interpolation order -> (tap offsets from the node below, kernel weights)
_TAPS = {1: ((0, 1), _linear_weights), 3: ((-1, 0, 1, 2), _cubic_weights)}


def _ghosts(f0, f1, f2):
    """The quadratic through a face node f0 and the next two inward, f1 and
    f2, continued one and two nodes beyond the face."""
    return 3 * f0 - 3 * f1 + f2, 6 * f0 - 8 * f1 + 3 * f2


@dataclass(frozen=True)
class GridWeight(WeightField):
    """Interpolated grid field: order 1 (multilinear) or 3 (cubic)."""

    grid: GridField
    order: int = 1

    def validate(self, m):
        gm = self.grid.manifold
        if m.kind != gm.kind or m.dim != gm.dim:
            raise InputError("grid manifold does not match evaluation manifold")
        if self.order not in (1, 3):
            raise InputError("grid interpolation order must be 1 or 3")
        if self.order == 3 and gm.kind == "box" and min(self.grid.shape) < 3:
            raise InputError("cubic interpolation on a box needs >= 3 nodes per axis")

    @cached_property
    def _ghosted(self) -> np.ndarray:
        """Box values with two quadratic ghost layers beyond each face, so the
        cubic taps that reach past a face keep the interpolant exact for
        quadratics (clamping them to the face value does not)."""
        vals = self.grid.values
        for a in range(vals.ndim):
            lo1, lo2 = _ghosts(*(np.take(vals, [k], axis=a) for k in (0, 1, 2)))
            hi1, hi2 = _ghosts(*(np.take(vals, [-1 - k], axis=a) for k in (0, 1, 2)))
            vals = np.concatenate([lo2, lo1, vals, hi1, hi2], axis=a)
        return vals

    def _local(self, m, x):
        rel = (m.canonicalize(x) - m.chart[0]) / self.grid.axis_spacing
        i0 = np.floor(rel).astype(int)
        frac = rel - i0
        return i0, frac

    def _gather(self, idx_list):
        """Values at integer node indices: wrapped on a torus; on a box read
        from the ghosted array for order 3, else clamped to the face."""
        g = self.grid
        torus = g.manifold.kind == "torus"
        vals, pad = (self._ghosted, 2) if self.order == 3 and not torus else (g.values, 0)
        flat = np.ravel_multi_index([i + pad for i in idx_list], vals.shape,
                                    mode="wrap" if torus else "clip")
        return vals.ravel()[flat]

    def eval_many(self, m, x):
        self.validate(m)
        i0, frac = self._local(m, x)
        n = m.dim
        offsets, kernel = _TAPS[self.order]
        wts = [kernel(frac[:, a]) for a in range(n)]
        out = np.zeros(x.shape[0])
        for corner in np.ndindex(*(len(offsets),) * n):
            wgt = np.ones(x.shape[0])
            for a, c in enumerate(corner):
                wgt = wgt * wts[a][c]
            out += wgt * self._gather([i0[:, a] + offsets[c] for a, c in enumerate(corner)])
        return out


def grid_from_field(m: Manifold, field: WeightField, shape) -> GridField:
    """Sample an analytic field onto a node grid (torus/box, ``_grid_shape``)."""
    shape = _grid_shape(m, shape)
    nodes = PointSet.grid(*grid_axes(m, shape)).points
    field.validate(m)
    return GridField(manifold=m, values=field.eval_many(m, nodes).reshape(shape))


# ---------------------------------------------------------------------------
# grid i/o
# ---------------------------------------------------------------------------

def write_grid(grid: GridField, path) -> None:
    """Write the grid's manifest as JSON at path and its values as the
    payload the manifest names, next to it: little-endian float64,
    row-major."""
    path = Path(path)
    m = grid.manifold
    mdesc = {"kind": m.kind, "dim": m.dim}
    if m.kind == "torus":
        mdesc["periods"] = list(map(float, m.periods))
    else:
        mdesc["extents"] = [[float(lo), float(hi)] for lo, hi in m.extents]
    manifest = {"version": 1, "manifold": mdesc, "shape": list(grid.shape), "field": "logf",
                "payload": path.with_suffix(".bin").name, "dtype": "f64le", "order": "row-major"}
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (path.parent / manifest["payload"]).write_bytes(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def read_grid(path) -> GridField:
    """The grid ``write_grid`` wrote at path.  The manifest's keys must be
    exactly those ``write_grid`` writes; an unreadable, incomplete or
    malformed manifest or payload raises FormatError."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise FormatError(f"cannot read grid manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"grid manifest must be a JSON object, got {type(manifest).__name__}")
    expected = {"version", "manifold", "shape", "field", "payload", "dtype", "order"}
    if set(manifest) != expected:
        raise FormatError(
            f"grid manifest keys {sorted(manifest)} do not match expected {sorted(expected)}"
        )
    if manifest["field"] != "logf":
        raise FormatError(f"unknown field name {manifest['field']!r}; expected 'logf'")
    try:
        mdesc = manifest["manifold"]
        kind, dim = mdesc["kind"], int(mdesc["dim"])  # write_grid gives every kind a dim
        if kind == "torus":
            m = Manifold.torus(dim, mdesc["periods"])
        elif kind == "box":
            m = Manifold.box(mdesc["extents"])
        else:
            raise FormatError(f"grid manifold kind {kind!r} not supported")
        shape = manifest["shape"]
        raw = (path.parent / manifest["payload"]).read_bytes()
    except KeyError as exc:
        raise FormatError(f"grid manifest missing key {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed grid manifest or unreadable payload: {exc}") from exc
    if manifest["dtype"] != "f64le" or manifest["order"] != "row-major":
        raise FormatError("grid payload must be f64le row-major")
    try:
        shape = _grid_shape(m, shape)
    except InputError as exc:
        raise FormatError(f"malformed grid manifest: {exc}") from exc
    expect = int(np.prod(shape)) * 8
    if len(raw) != expect:
        raise FormatError(f"payload holds {len(raw)} bytes, expected {expect}")
    values = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return GridField(manifold=m, values=values)


# ---------------------------------------------------------------------------
# measure quadrature
# ---------------------------------------------------------------------------


def radial_ball_integral(m: Manifold, integrand, axis: np.ndarray, ball: BallSpec) -> float:
    """Integral over a geodesic ball of a rotationally symmetric integrand.

    integrand(theta) is vectorized over angles from the symmetry ``axis``;
    the ball may be centered anywhere.  One call on the nodes of
    cap_quadrature, whose exact slice measure and graded panels keep
    concentrated integrands (fat values in tiny regions) accurate.
    """
    gamma = d0_many(m, np.asarray(ball.center, dtype=float), axis) / m.radius
    theta, w = cap_quadrature(m, gamma, ball.radius)
    return float(w @ integrand(theta))


def _mc_integral(vals: np.ndarray, volume: float, what: str, volume_se: float):
    """The one Monte Carlo estimate: (volume * mean, standard error) of the
    finite ``vals`` (at most 0.1% may be non-finite), whose error joins
    mean * volume_se, that of a sampled volume, to the sample error.

    One pass of np.add.reduce gives the sum; a finite sum means every value
    is finite, so only a sum that is not finite looks for non-finite values.
    The mean is that sum over the size and the standard deviation sums the
    squared deviations from it: the operations of vals.mean() and
    vals.std(ddof=1), so the same floats."""
    with np.errstate(invalid="ignore"):  # inf + -inf, dropped below
        total = np.add.reduce(vals)
    if not np.isfinite(total):
        good = np.isfinite(vals)
        bad = vals.size - int(np.count_nonzero(good))
        if bad > 0.001 * vals.size:
            raise IntegrationError(f"{bad} of {vals.size} {what} non-finite (limit 0.1%)")
        if bad:
            vals = vals[good]
            total = np.add.reduce(vals)
    mean = float(total / vals.size)
    se = 0.0
    if vals.size > 1:
        dev = vals - mean
        dev *= dev
        se = volume * float(np.sqrt(np.add.reduce(dev) / (vals.size - 1))) / np.sqrt(vals.size)
    return volume * mean, float(np.hypot(mean * volume_se, se))


def ball_integral(m: Manifold, field: WeightField, ball: Optional[BallSpec], on_points,
                  on_profile, budget: int, seed: int, what: str):
    """(value, standard error) of int g dmu0 over ball, or over all of M when
    ball is None: the one place that picks how such an integral is computed.

    With on_profile(theta, f, fp, fpp), g at angles theta from the field's
    radial_axis given its profile there, a field with a radial axis on the
    sphere takes the colatitude rule of cap_quadrature, accurate under
    measure concentration, and reports an error of 1e-9 |value|.
    Everything else is Monte Carlo on on_points(pts), g at uniform samples
    of the ball or of M.  A seed that is not an integer (``check_seed``)
    and a ball whose center is not a point of M's ambient space are
    InputErrors, whichever path runs."""
    check_seed(seed)
    field.validate(m)
    if ball is not None:
        check_ball(m, ball)
    axis = field.radial_axis(m) if m.kind == "sphere" and on_profile is not None else None
    if axis is not None:
        integrand = lambda theta: on_profile(theta, *field.profile(theta))
        if ball is None:  # all of M: the cap of radius pi R about the axis, at gamma = 0 exactly
            theta, w = cap_quadrature(m, 0.0, pi * m.radius)
            val = float(w @ integrand(theta))
        else:
            val = radial_ball_integral(m, integrand, axis, ball)
        return val, 1e-9 * abs(val)
    if ball is None:
        pts, _ = sample_manifold(m, budget, seed)
        volume, volume_se = m.volume, 0.0
    else:
        pts, w, volume_se = sample_ball(m, ball, budget, seed)
        volume = float(w.sum())
    return _mc_integral(on_points(pts), volume, what, volume_se)


def _density(m: Manifold, field: WeightField):
    """The integrand pair of mu_f: e^{nf} at points (the field's
    ``weight_many``) and along a profile."""
    n = m.dim
    return (lambda pts: field.weight_many(m, pts),
            lambda theta, f, fp, fpp: np.exp(n * f))


def check_ball_budget(budget: int) -> None:
    """InputError unless budget is enough samples for one ball mass."""
    if not is_count(budget, 100):
        raise InputError(f"mu_f_ball budget must be >= 100 and an integer, got {budget!r}")


def mu_f_ball(m: Manifold, field: WeightField, b: BallSpec, budget: int = 20_000, seed: int = 0):
    """(mass, standard error) of mu_f(B) = int_B e^{nf} dmu0, by ball_integral."""
    check_ball_budget(budget)
    return ball_integral(m, field, b, *_density(m, field), budget, seed, "weight samples")


def total_mass(m: Manifold, field: WeightField, budget: int = 100_000, seed: int = 0):
    """(mass, standard error) of mu_f(M), by ball_integral over all of M; a
    standard error needs a budget of at least 2 samples."""
    if not is_count(budget, 2):
        raise InputError(f"total_mass needs an integer sample count of at least 2, got {budget!r}")
    return ball_integral(m, field, None, *_density(m, field), budget, seed, "weight samples")
