"""Scalar curvature of conformally deformed metrics and pinching functionals.

The curvature of g_f = e^{2f} g0 is computed through the conformal factor
u = e^{(n-2)f/2} and the second-order identity linking scal_{g_f}, u and the
background Laplacian (nonnegative-spectrum convention):

    scal_{g_f} = e^{-2f} ( scal_{g0} + (4(n-1)/(n-2)) * (Delta u) / u )

which expands to scal_{g0} + 2(n-1) Delta f - (n-1)(n-2) |df|^2 inside the
bracket when f has exact derivatives.  n = 2 is supported through the plane
formula scal = e^{-2f}(scal_{g0} + 2 Delta f) as plumbing for the oscillating
torus family.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import pi
from typing import Optional

import numpy as np

from .errors import InputError, NumericError
from .manifold import (
    BallSpec,
    Manifold,
    PointSet,
    _householder_to,
    cap_volume,
    sample_ball,
    sphere_volume,
)
from .rng import derive_seed
from .weight import RadialProfile, WeightField, radial_ball_integral


def alpha_n2(n: int) -> float:
    """Critical total-curvature level: n(n-1) vol(S^n)^{2/n} for the unit sphere."""
    if n < 3:
        raise InputError("alpha_n2 requires dimension n >= 3")
    return n * (n - 1) * sphere_volume(n) ** (2.0 / n)


def alpha_n2_quadrature(n: int) -> float:
    """Same quantity from direct quadrature of the constant-curvature integrand.

    (int_{S^n} (n(n-1))^{n/2} dmu0)^{2/n} with the sphere volume evaluated by
    the cap-integral backend; consistency guard for the closed form.
    """
    m = Manifold.sphere(n) if n <= 4 else None
    if m is not None:
        vol = cap_volume(m, pi)
    else:  # cap-integral backend only covers the supported sphere dims
        vol = sphere_volume(n)
    return ((n * (n - 1)) ** (n / 2.0) * vol) ** (2.0 / n)


@dataclass(frozen=True)
class CurvatureSample:
    point: np.ndarray
    scal: float
    method: str
    h: Optional[float] = None


@dataclass(frozen=True)
class PinchingReport:
    """sup over sampled centers of the local curvature functionals."""

    radius: float
    n_centers: int
    sup_pos: float
    sup_abs: float
    alpha_n2: float
    lambda_margin: float  # sup of the raw integral, no 2/n exponent
    below_alpha: bool
    below_lambda0: Optional[bool]
    lambda0: Optional[float]
    budget: int = 0
    seed: int = 0
    method: str = "exact"
    per_center_pos: np.ndarray = dc_field(repr=False, default=None)

    def to_dict(self):
        """JSON-ready report with all inputs echoed."""
        return {
            "radius": self.radius,
            "n_centers": self.n_centers,
            "sup_pos": self.sup_pos,
            "sup_abs": self.sup_abs,
            "alpha_n2": self.alpha_n2,
            "lambda_margin": self.lambda_margin,
            "below_alpha": bool(self.below_alpha),
            "below_lambda0": None if self.below_lambda0 is None else bool(self.below_lambda0),
            "lambda0": self.lambda0,
            "budget": self.budget,
            "seed": self.seed,
            "method": self.method,
        }


def _scal0(m: Manifold) -> float:
    if m.kind == "sphere":
        return m.dim * (m.dim - 1) / m.radius**2
    return 0.0


def scal_exact_many(m: Manifold, field: WeightField, x: np.ndarray) -> np.ndarray:
    """Vectorized curvature from a field's closed-form derivatives."""
    n = m.dim
    f = field.eval_many(m, x)
    grad, lap = field.grad_lap_many(m, x)
    grad_sq = np.sum(grad * grad, axis=-1)
    if n == 2:
        inner = _scal0(m) + 2.0 * lap
    else:
        inner = _scal0(m) + 2.0 * (n - 1) * lap - (n - 1) * (n - 2) * grad_sq
    return np.exp(-2.0 * f) * inner


def scal_radial(m: Manifold, prof: RadialProfile, theta: np.ndarray) -> np.ndarray:
    """Curvature of a rotationally symmetric sphere field as a function of angle."""
    n = m.dim
    theta = np.asarray(theta, dtype=float)
    f = prof.f(theta)
    fp = prof.fp(theta)
    fpp = prof.fpp(theta)
    sin = np.sin(theta)
    safe = np.where(sin > 1e-7, sin, 1.0)
    lap = np.where(
        sin > 1e-7,
        -(fpp + (n - 1) * np.cos(theta) / safe * fp) / m.radius**2,
        -n * fpp / m.radius**2,
    )
    grad_sq = (fp / m.radius) ** 2
    if n == 2:
        inner = _scal0(m) + 2.0 * lap
    else:
        inner = _scal0(m) + 2.0 * (n - 1) * lap - (n - 1) * (n - 2) * grad_sq
    return np.exp(-2.0 * f) * inner


def _sphere_fd_lap(m: Manifold, func, x: np.ndarray, h: float) -> np.ndarray:
    """Central differences along geodesic normal coordinates.

    Christoffel symbols vanish at the base point of normal coordinates, so
    the plain second-difference sum converges at order h^2 on the sphere.
    """
    npts, amb = x.shape
    theta = h / m.radius
    frames = np.swapaxes(_householder_to(x)[:, :, :-1], 1, 2)  # rows: tangent frame at x
    base = np.cos(theta) * x[:, None, :]
    plus = func((base + np.sin(theta) * frames).reshape(-1, amb))
    minus = func((base - np.sin(theta) * frames).reshape(-1, amb))
    return (2.0 * (amb - 1) * func(x) - (plus + minus).reshape(npts, -1).sum(axis=1)) / h**2


def scal_fd_many(m: Manifold, field: WeightField, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference curvature: flat charts on torus/box, geodesic
    normal coordinates on the sphere (analytic fields only there; grid
    fields never live on spheres)."""
    n = m.dim
    if m.kind == "sphere":
        f0 = field.eval_many(m, x)
        if n == 2:
            lap_f = _sphere_fd_lap(m, lambda p: field.eval_many(m, p), x, h)
            return np.exp(-2.0 * f0) * (_scal0(m) + 2.0 * lap_f)
        u_of = lambda p: np.exp((n - 2) * field.eval_many(m, p) / 2.0)
        lap_u = _sphere_fd_lap(m, u_of, x, h)
        u0 = np.exp((n - 2) * f0 / 2.0)
        return np.exp(-2.0 * f0) * (_scal0(m) + (4.0 * (n - 1) / (n - 2)) * lap_u / u0)
    f0 = field.eval_many(m, x)
    if n == 2:
        lap_f = np.zeros(x.shape[0])
        for a in range(n):
            e = np.zeros(n)
            e[a] = h
            fp = field.eval_many(m, m.canonicalize(x + e))
            fm = field.eval_many(m, m.canonicalize(x - e))
            lap_f += (2.0 * f0 - fp - fm) / h**2
        return np.exp(-2.0 * f0) * (_scal0(m) + 2.0 * lap_f)
    u0 = np.exp((n - 2) * f0 / 2.0)
    lap_u = np.zeros(x.shape[0])
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        up = np.exp((n - 2) * field.eval_many(m, m.canonicalize(x + e)) / 2.0)
        um = np.exp((n - 2) * field.eval_many(m, m.canonicalize(x - e)) / 2.0)
        lap_u += (2.0 * u0 - up - um) / h**2
    return np.exp(-2.0 * f0) * (_scal0(m) + (4.0 * (n - 1) / (n - 2)) * lap_u / u0)


def scalar_curvature_many(
    m: Manifold, field: WeightField, x: np.ndarray, method: str = "exact", h: float = 1e-3
) -> np.ndarray:
    field.validate(m)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if method == "exact":
        if not field.exact_derivatives:
            raise InputError("field has no exact derivatives; use method='fd'")
        vals = scal_exact_many(m, field, x)
    elif method == "fd":
        vals = scal_fd_many(m, field, x, h)
    else:
        raise InputError(f"unknown curvature method {method!r}")
    if not np.all(np.isfinite(vals)):
        raise NumericError("curvature evaluation hit the singular set")
    return vals


def scalar_curvature(
    m: Manifold, field: WeightField, x, method: str = "exact", h: float = 1e-3
) -> CurvatureSample:
    """Curvature sample at one point (units 1/length^2)."""
    pt = m.check_points(x)[0]
    val = float(scalar_curvature_many(m, field, pt[None, :], method, h)[0])
    return CurvatureSample(point=pt, scal=val, method=method, h=h if method == "fd" else None)


def _scal_values(m, field, pts, method, h):
    if method == "exact" and field.exact_derivatives:
        return scal_exact_many(m, field, pts)
    return scal_fd_many(m, field, pts, h)


def lp_scal_norm(
    m: Manifold,
    field: WeightField,
    b: BallSpec,
    p: float,
    budget: int = 20_000,
    seed: int = 0,
    positive_part: bool = False,
    method: str = "exact",
    h: float = 1e-3,
) -> float:
    """(int_B |scal|^p dmu_f)^{1/p}, optionally with the positive part.

    Rotationally symmetric sphere fields integrate exactly over colatitude
    slices; everything else is Monte Carlo on uniform ball samples.
    """
    if p < 1:
        raise InputError("lp_scal_norm requires p >= 1")
    field.validate(m)
    n = m.dim
    if m.kind == "sphere" and method == "exact":
        prof = field.radial_profile(m)
        if prof is not None:
            def integrand(theta):
                s = scal_radial(m, prof, theta)
                s = np.maximum(s, 0.0) if positive_part else np.abs(s)
                return s**p * np.exp(n * prof.f(theta))

            val = radial_ball_integral(m, integrand, prof.axis, b)
            return val ** (1.0 / p)
    pts, w, _ = sample_ball(m, b, budget, seed)
    s = _scal_values(m, field, pts, method, h)
    s = np.maximum(s, 0.0) if positive_part else np.abs(s)
    dens = np.exp(n * field.eval_many(m, pts))
    return float(np.sum(w * s**p * dens)) ** (1.0 / p)


def pinching_profile(
    m: Manifold,
    field: WeightField,
    R0: float,
    centers: PointSet,
    budget: int = 20_000,
    seed: int = 0,
    lambda0: Optional[float] = None,
    method: str = "exact",
    h: float = 1e-3,
) -> PinchingReport:
    """Local curvature concentration: sup over centers of the two
    (int_{B(x,R0)} . dmu_f)^{2/n} functionals, with threshold flags."""
    if R0 <= 0:
        raise InputError("pinching radius R0 must be positive")
    n = m.dim
    p = n / 2.0
    pos_vals = np.empty(len(centers))
    abs_vals = np.empty(len(centers))
    for i, c in enumerate(centers.points):
        ball = BallSpec(center=c, radius=R0)
        s = derive_seed(seed, "pinch", i)
        pos_vals[i] = lp_scal_norm(
            m, field, ball, p, budget, s, positive_part=True, method=method, h=h
        )
        abs_vals[i] = lp_scal_norm(
            m, field, ball, p, budget, s, positive_part=False, method=method, h=h
        )
    # lp_scal_norm returns ( . )^{1/p} = ( . )^{2/n}, already the pinched form
    sup_pos = float(pos_vals.max())
    sup_abs = float(abs_vals.max())
    alpha = alpha_n2(n) if n >= 3 else float("nan")
    margin = sup_abs**p
    return PinchingReport(
        radius=R0,
        n_centers=len(centers),
        sup_pos=sup_pos,
        sup_abs=sup_abs,
        alpha_n2=alpha,
        lambda_margin=margin,
        below_alpha=bool(n >= 3 and sup_pos < alpha),
        below_lambda0=None if lambda0 is None else bool(margin < lambda0),
        lambda0=lambda0,
        budget=budget,
        seed=seed,
        method=method,
        per_center_pos=pos_vals,
    )
