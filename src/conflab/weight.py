"""Log-conformal-factor fields f and the volume weight w = e^{nf}.

Analytic presets (constant, oscillating torus weight, log-cusp, sphere
dilation bubble), grid-sampled fields with multilinear/cubic interpolation,
and the quadrature operations on the deformed measure mu_f = e^{nf} mu0:
ball masses, total mass and integrability profiles.

Fields are immutable and evaluated vectorized; fields with closed-form
derivatives expose the ambient gradient and the (nonnegative-spectrum)
Laplacian of f, which is all the curvature layer needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import pi
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import FormatError, InputError, IntegrationError
from .manifold import (
    BallSpec,
    Manifold,
    PointSet,
    cap_quadrature,
    d0_many,
    grid_axes,
    sample_ball,
    sample_manifold,
    torus_delta,
    torus_wrap,
)

# ---------------------------------------------------------------------------
# field classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Rotationally symmetric description of a sphere field: f = f(theta),
    theta the geodesic angle from ``axis`` (an ambient unit vector)."""

    axis: np.ndarray
    f: Callable[[np.ndarray], np.ndarray]
    fp: Callable[[np.ndarray], np.ndarray]
    fpp: Callable[[np.ndarray], np.ndarray]


class WeightField:
    """Base class: the log factor f with optional exact derivatives."""

    exact_derivatives = False

    def validate(self, m: Manifold) -> None:
        pass

    def eval_many(self, m: Manifold, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_lap_many(self, m: Manifold, x: np.ndarray):
        """(gradient vectors, Laplacian of f), geometer's sign Laplacian."""
        raise InputError(f"{type(self).__name__} does not provide exact derivatives")

    def radial_profile(self, m: Manifold) -> Optional[RadialProfile]:
        return None


def eval_f(m: Manifold, field: WeightField, x) -> float:
    """Log conformal factor at one point (+-inf on the declared singular set)."""
    field.validate(m)
    return float(field.eval_many(m, m.check_points(x))[0])


def eval_f_many(m: Manifold, field: WeightField, x: np.ndarray) -> np.ndarray:
    field.validate(m)
    return field.eval_many(m, np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Constant(WeightField):
    value: float = 0.0
    exact_derivatives = True

    def eval_many(self, m, x):
        return np.full(x.shape[0], float(self.value))

    def grad_lap_many(self, m, x):
        npts = x.shape[0]
        return np.zeros((npts, x.shape[1])), np.zeros(npts)

    def radial_profile(self, m):
        if m.kind != "sphere":
            return None
        axis = np.zeros(m.dim + 1)
        axis[-1] = 1.0
        c = float(self.value)
        return RadialProfile(
            axis=axis,
            f=lambda t: np.full_like(np.asarray(t, dtype=float), c),
            fp=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            fpp=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )


@dataclass(frozen=True)
class BuragoTorus(WeightField):
    """Oscillating weight e^{nf} = 1 - cos(ell * x1)/2 on a flat torus."""

    ell: int = 1
    exact_derivatives = True

    def validate(self, m):
        if m.kind != "torus":
            raise InputError("BuragoTorus is only defined on tori")
        if self.ell < 1:
            raise InputError("BuragoTorus frequency ell must be a positive integer")
        turns = self.ell * float(m.periods[0]) / (2 * pi)  # else f jumps at x1 = P1 ~ 0
        if abs(turns - round(turns)) > 1e-9 * turns:
            raise InputError(f"BuragoTorus needs ell * P1 / (2 pi) integer, got {turns:.6g}")

    def eval_many(self, m, x):
        return np.log(1.0 - 0.5 * np.cos(self.ell * x[:, 0])) / m.dim

    def grad_lap_many(self, m, x):
        n = m.dim
        u = self.ell * x[:, 0]
        g = 1.0 - 0.5 * np.cos(u)
        fp = self.ell * 0.5 * np.sin(u) / (n * g)
        fpp = self.ell**2 * (0.5 * np.cos(u) - 0.25) / (n * g * g)
        grad = np.zeros_like(x)
        grad[:, 0] = fp
        return grad, -fpp


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
    exact_derivatives = True

    def validate(self, m):
        if m.kind not in ("torus", "box"):
            raise InputError("LogCusp is defined on tori and boxes only")
        if self.r0 <= 0:
            raise InputError("LogCusp radius r0 must be positive")
        if self.cap is not None and self.cap <= 0:
            raise InputError("LogCusp cap must be positive (or None)")
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
        if m.kind == "torus":
            delta = torus_delta(m, self._center(), x)
        else:
            delta = x - self._center()
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
    the pole, where the measure concentrates as lam grows.
    """

    lam: float = 1.0
    pole: Optional[tuple] = None
    exact_derivatives = True

    def validate(self, m):
        if m.kind != "sphere":
            raise InputError("SphereBubble is only defined on spheres")
        if self.lam <= 0:
            raise InputError("SphereBubble dilation lam must be positive")

    def _pole(self, m):
        if self.pole is None:
            p = np.zeros(m.dim + 1)
            p[-1] = 1.0
            return p
        return np.asarray(self.pole, dtype=float)

    def _profile_fns(self):
        lam = float(self.lam)

        def val(theta):
            theta = np.asarray(theta, dtype=float)
            near = theta <= pi / 2
            t = np.tan(np.where(near, theta, 0.0) / 2.0)
            u = np.tan((pi - np.where(near, pi, theta)) / 2.0)
            v_near = np.log(lam) + np.log1p(t * t) - np.log1p(lam * lam * t * t)
            v_far = -np.log(lam) + np.log1p(u * u) - np.log1p(u * u / lam**2)
            return np.where(near, v_near, v_far)

        def dval(theta):
            theta = np.asarray(theta, dtype=float)
            near = theta <= pi / 2
            t = np.tan(np.where(near, theta, 0.0) / 2.0)
            u = np.tan((pi - np.where(near, pi, theta)) / 2.0)
            d_near = (1.0 - lam * lam) * t / (1.0 + lam * lam * t * t)
            d_far = (1.0 - lam * lam) * u / (u * u + lam * lam)
            return np.where(near, d_near, d_far)

        def ddval(theta):
            theta = np.asarray(theta, dtype=float)
            near = theta <= pi / 2
            t = np.tan(np.where(near, theta, 0.0) / 2.0)
            u = np.tan((pi - np.where(near, pi, theta)) / 2.0)
            la2 = lam * lam
            n_num = (1.0 - la2) * (1.0 - la2 * t * t) * (1.0 + t * t)
            n_den = 2.0 * (1.0 + la2 * t * t) ** 2
            f_num = (1.0 - la2) * (u * u - la2) * (u * u + 1.0)
            f_den = 2.0 * (u * u + la2) ** 2
            return np.where(near, n_num / n_den, f_num / f_den)

        return val, dval, ddval

    def radial_profile(self, m):
        f, fp, fpp = self._profile_fns()
        return RadialProfile(axis=-self._pole(m), f=f, fp=fp, fpp=fpp)

    def eval_many(self, m, x):
        prof = self.radial_profile(m)
        theta = d0_many(m, x, prof.axis) / m.radius
        return prof.f(theta)

    def grad_lap_many(self, m, x):
        prof = self.radial_profile(m)
        return _radial_sphere_grad_lap(m, prof, x)


def _radial_laplacian(m: Manifold, theta: np.ndarray, fp: np.ndarray, fpp: np.ndarray):
    """Geometer's Laplacian of f(theta) on the sphere, theta the angle from an
    axis: -(f'' + (n-1) cot(theta) f') / R^2, with pole limit -n f'' / R^2."""
    sin = np.sin(theta)
    safe = np.where(sin > 1e-7, sin, 1.0)
    lap = np.where(sin > 1e-7, -(fpp + (m.dim - 1) * np.cos(theta) / safe * fp), -m.dim * fpp)
    return lap / m.radius**2


def _radial_sphere_grad_lap(m: Manifold, prof: RadialProfile, x: np.ndarray):
    """Ambient gradient and Laplacian of a rotationally symmetric sphere field."""
    theta = d0_many(m, x, prof.axis) / m.radius
    fp = prof.fp(theta)
    sin = np.sin(theta)
    safe = np.where(sin > 1e-7, sin, 1.0)
    # unit tangent pointing away from the axis
    u = (np.cos(theta)[:, None] * x - prof.axis[None, :]) / safe[:, None]
    grad = (fp / m.radius)[:, None] * u
    grad[sin <= 1e-7] = 0.0
    return grad, _radial_laplacian(m, theta, fp, prof.fpp(theta))


@dataclass(frozen=True)
class Scaled(WeightField):
    """base field shifted by a constant: f = base.f + shift."""

    base: WeightField
    shift: float

    @property
    def exact_derivatives(self):
        return self.base.exact_derivatives

    def validate(self, m):
        self.base.validate(m)

    def eval_many(self, m, x):
        return self.base.eval_many(m, x) + self.shift

    def grad_lap_many(self, m, x):
        return self.base.grad_lap_many(m, x)

    def radial_profile(self, m):
        prof = self.base.radial_profile(m)
        if prof is None:
            return None
        c = float(self.shift)
        return RadialProfile(
            axis=prof.axis, f=lambda t: prof.f(t) + c, fp=prof.fp, fpp=prof.fpp
        )


@dataclass(frozen=True)
class Sum(WeightField):
    fields: tuple

    @property
    def exact_derivatives(self):
        return all(f.exact_derivatives for f in self.fields)

    def validate(self, m):
        for f in self.fields:
            f.validate(m)

    def eval_many(self, m, x):
        return sum(f.eval_many(m, x) for f in self.fields)

    def grad_lap_many(self, m, x):
        grads, laps = zip(*(f.grad_lap_many(m, x) for f in self.fields))
        return sum(grads), sum(laps)

    def radial_profile(self, m):
        profs = [f.radial_profile(m) for f in self.fields]
        if any(p is None for p in profs):
            return None
        axis = profs[0].axis
        if any(np.linalg.norm(p.axis - axis) > 1e-12 for p in profs[1:]):
            return None
        return RadialProfile(
            axis=axis,
            f=lambda t: sum(p.f(t) for p in profs),
            fp=lambda t: sum(p.fp(t) for p in profs),
            fpp=lambda t: sum(p.fpp(t) for p in profs),
        )


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------


class NodeGrid:
    """Node layout of a torus/box grid with ``manifold`` and ``shape`` fields:
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


@dataclass(frozen=True)
class GridField(NodeGrid):
    """Sampled log factor on a torus/box node grid (row-major values of f)."""

    manifold: Manifold
    shape: tuple
    values: np.ndarray

    def __post_init__(self):
        if self.manifold.kind not in ("torus", "box"):
            raise InputError("grid fields live on tori and boxes only")
        if tuple(self.values.shape) != tuple(self.shape):
            raise InputError("grid values shape does not match declared shape")
        if not np.all(np.isfinite(self.values)):
            raise InputError("grid values must be finite")


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
        g = self.grid
        h = g.axis_spacing
        if m.kind == "torus":
            rel = torus_wrap(np.array(x, dtype=float), m.periods) / h
        else:
            rel = (x - m.extents[:, 0]) / h
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
        if self.order == 1:
            out = np.zeros(x.shape[0])
            for corner in range(2**n):
                bits = [(corner >> a) & 1 for a in range(n)]
                wgt = np.ones(x.shape[0])
                for a, b in enumerate(bits):
                    wgt = wgt * (frac[:, a] if b else 1.0 - frac[:, a])
                out += wgt * self._gather([i0[:, a] + bits[a] for a in range(n)])
            return out
        wts = [_cubic_weights(frac[:, a]) for a in range(n)]
        out = np.zeros(x.shape[0])
        for corner in np.ndindex(*(4,) * n):
            wgt = np.ones(x.shape[0])
            for a, c in enumerate(corner):
                wgt = wgt * wts[a][c]
            out += wgt * self._gather([i0[:, a] + corner[a] - 1 for a in range(n)])
        return out


def grid_from_field(m: Manifold, field: WeightField, shape) -> GridField:
    """Sample an analytic field onto a node grid (torus/box)."""
    shape = tuple(int(s) for s in shape)
    nodes = PointSet.grid(*grid_axes(m, shape)).points
    return GridField(manifold=m, shape=shape, values=eval_f_many(m, field, nodes).reshape(shape))


# ---------------------------------------------------------------------------
# grid i/o
# ---------------------------------------------------------------------------

_MANIFEST_KEYS = {"version", "manifold", "shape", "field", "payload", "dtype", "order"}


def write_grid(grid: GridField, path) -> None:
    """Write manifest JSON + little-endian float64 payload next to it."""
    path = Path(path)
    payload = path.with_suffix(".bin").name
    m = grid.manifold
    mdesc = {"kind": m.kind, "dim": m.dim}
    if m.kind == "torus":
        mdesc["periods"] = list(map(float, m.periods))
    else:
        mdesc["extents"] = [[float(lo), float(hi)] for lo, hi in m.extents]
    manifest = {
        "version": 1,
        "manifold": mdesc,
        "shape": list(grid.shape),
        "field": "logf",
        "payload": payload,
        "dtype": "f64le",
        "order": "row-major",
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (path.parent / payload).write_bytes(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def read_grid(path) -> GridField:
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed grid manifest: {exc}") from exc
    keys = set(manifest)
    if keys != _MANIFEST_KEYS:
        raise FormatError(
            f"grid manifest keys {sorted(keys)} do not match expected {sorted(_MANIFEST_KEYS)}"
        )
    if manifest["field"] != "logf":
        raise FormatError(
            f"unknown field name {manifest['field']!r}; expected 'logf'"
        )
    if manifest["dtype"] != "f64le" or manifest["order"] != "row-major":
        raise FormatError("grid payload must be f64le row-major")
    mdesc = manifest["manifold"]
    if mdesc["kind"] == "torus":
        m = Manifold.torus(int(mdesc["dim"]), mdesc["periods"])
    elif mdesc["kind"] == "box":
        m = Manifold.box(mdesc["extents"])
    else:
        raise FormatError(f"grid manifold kind {mdesc['kind']!r} not supported")
    shape = tuple(int(s) for s in manifest["shape"])
    raw = (path.parent / manifest["payload"]).read_bytes()
    expect = int(np.prod(shape)) * 8
    if len(raw) != expect:
        raise FormatError(f"payload holds {len(raw)} bytes, expected {expect}")
    values = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return GridField(manifold=m, shape=shape, values=values)


def write_grid_csv(grid: GridField, path) -> None:
    """Fallback format: one 'x1,...,xn,f' row per node, row-major."""
    cols = [*grid.nodes().T, grid.values.ravel()]
    header = ",".join([f"x{i+1}" for i in range(grid.manifold.dim)] + ["f"])
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="")


def read_grid_csv(path, m: Manifold, shape) -> GridField:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    shape = tuple(int(s) for s in shape)
    if data.shape[0] != int(np.prod(shape)) or data.shape[1] != m.dim + 1:
        raise FormatError("csv grid row/column count does not match shape")
    return GridField(manifold=m, shape=shape, values=data[:, -1].reshape(shape))


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


def _mc_mean(vals: np.ndarray, volume: float, what: str = "weight samples"):
    """(mean, volume * standard error of the mean) of the finite ``vals``,
    of which at most 0.1% may be non-finite."""
    good = np.isfinite(vals)
    bad = vals.size - int(good.sum())
    if bad > 0.001 * vals.size:
        raise IntegrationError(f"{bad} of {vals.size} {what} non-finite (limit 0.1%)")
    vals = vals[good]
    se = volume * float(vals.std(ddof=1)) / np.sqrt(vals.size) if vals.size > 1 else 0.0
    return float(vals.mean()), se


def mu_f_ball(m: Manifold, field: WeightField, b: BallSpec, budget: int = 20_000, seed: int = 0):
    """(mass, standard error) of mu_f(B) = int_B e^{nf} dmu0.

    Monte Carlo over uniform ball samples (deterministic per seed), whose
    error adds the volume error of sample_ball to the sample error.  Fields
    that are rotationally symmetric on the sphere instead use the colatitude
    rule of radial_ball_integral, which stays accurate under measure
    concentration; its reported error is 1e-9 |mass|.
    """
    if budget < 100:
        raise InputError("mu_f_ball budget must be >= 100")
    field.validate(m)
    if m.kind == "sphere":
        prof = field.radial_profile(m)
        if prof is not None:
            val = radial_ball_integral(m, lambda t: np.exp(m.dim * prof.f(t)), prof.axis, b)
            return val, 1e-9 * abs(val)
    pts, w, vol_se = sample_ball(m, b, budget, seed)
    vol = float(w.sum())
    mean, se = _mc_mean(np.exp(m.dim * field.eval_many(m, pts)), vol)
    return vol * mean, float(np.hypot(mean * vol_se, se))


def total_mass(m: Manifold, field: WeightField, budget: int = 100_000, seed: int = 0):
    """(mass, standard error) of mu_f(M), whole-manifold quadrature.

    Monte Carlo on uniform samples of M, except for fields rotationally
    symmetric on the sphere: those use cap_quadrature over the whole sphere
    (radius pi R), and the reported error is 1e-9 |mass|.
    """
    field.validate(m)
    if m.kind == "sphere":
        prof = field.radial_profile(m)
        if prof is not None:
            theta, w = cap_quadrature(m, 0.0, pi * m.radius)
            val = float(w @ np.exp(m.dim * prof.f(theta)))
            return val, 1e-9 * abs(val)
    pts, _ = sample_manifold(m, budget, seed)
    mean, se = _mc_mean(np.exp(m.dim * field.eval_many(m, pts)), m.volume)
    return m.volume * mean, se


def integrability_profile(
    m: Manifold, field: WeightField, exponents, budget: int = 100_000, seed: int = 0
):
    """[(p, int e^{pf} dmu0, stderr)] on a shared whole-manifold sample pool."""
    field.validate(m)
    exponents = [float(p) for p in exponents]
    if not all(np.isfinite(exponents)):
        raise InputError("integrability exponents must be finite")
    pts, _ = sample_manifold(m, budget, seed)
    f = field.eval_many(m, pts)
    out = []
    for p in exponents:
        mean, se = _mc_mean(np.exp(p * f), m.volume, f"samples of e^({p} f)")
        out.append((p, m.volume * mean, se))
    return out
