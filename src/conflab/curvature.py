"""Scalar curvature of conformally deformed metrics and pinching functionals.

Every curvature value comes from one identity for g_f = e^{2f} g0, with the
geometer's (nonnegative-spectrum) Laplacian:

    scal_{g_f} = e^{-2f} ( scal_{g0} + 2(n-1) Delta f - (n-1)(n-2) |df|^2 )

method="exact" fills the bracket from a field's closed-form derivatives (or,
for rotationally symmetric sphere fields, from the radial profile) and raises
InputError for fields without them; the |df|^2 term vanishes at n = 2.
method="fd" fills it with 2 Delta_h f at n = 2 and with
(4(n-1)/(n-2)) Delta_h u / u, u = e^{(n-2)f/2}, above, where Delta_h is the
central second difference along an orthonormal frame at each point: the
chart axes on tori and boxes, geodesic normal coordinates on the sphere.
Non-finite curvature raises NumericError.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    sample_ball,  # noqa: F401  perfbench's tracer checks it rebinds this copy
    sphere_volume,
)
from .rng import derive_seed
from .weight import RadialProfile, WeightField, _radial_laplacian, ball_integral


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


def _scal0(m: Manifold) -> float:
    if m.kind == "sphere":
        return m.dim * (m.dim - 1) / m.radius**2
    return 0.0


def _conformal_scal(m: Manifold, f, lap_term, grad_term=0.0) -> np.ndarray:
    """The one conformal identity: e^{-2f} (scal_{g0} + lap_term - grad_term).

    Finite differences pass their whole bracket as lap_term."""
    return np.exp(-2.0 * f) * (_scal0(m) + lap_term - grad_term)


def _exact_scal(m: Manifold, f, lap, grad_sq) -> np.ndarray:
    """The identity with bracket 2(n-1) Delta f - (n-1)(n-2) |df|^2."""
    n = m.dim
    return _conformal_scal(m, f, 2.0 * (n - 1) * lap, (n - 1) * (n - 2) * grad_sq)


def scal_exact_many(m: Manifold, field: WeightField, x: np.ndarray) -> np.ndarray:
    """Vectorized curvature from a field's closed-form derivatives."""
    grad, lap = field.grad_lap_many(m, x)
    return _exact_scal(m, field.eval_many(m, x), lap, np.sum(grad * grad, axis=-1))


def scal_radial(m: Manifold, prof: RadialProfile, theta: np.ndarray) -> np.ndarray:
    """Curvature of a rotationally symmetric sphere field as a function of angle."""
    theta = np.asarray(theta, dtype=float)
    fp = prof.fp(theta)
    lap = _radial_laplacian(m, theta, fp, prof.fpp(theta))
    return _exact_scal(m, prof.f(theta), lap, (fp / m.radius) ** 2)


def _fd_laplacian(m: Manifold, func, x: np.ndarray, h: float) -> np.ndarray:
    """Geometer's Laplacian of func at each row of x by central second
    differences along an orthonormal frame: the chart axes on tori and boxes
    (steps wrapped by canonicalize), geodesic normal coordinates on the
    sphere, whose Christoffel symbols vanish at the base point, so the plain
    second-difference sum converges at order h^2 on every geometry."""
    npts, amb = x.shape
    if m.kind == "sphere":
        frames = np.swapaxes(_householder_to(x)[:, :, :-1], 1, 2)  # rows: tangent frame at x
        t = h / m.radius
        step = lambda sign: np.cos(t) * x[:, None, :] + sign * np.sin(t) * frames
    else:
        step = lambda sign: m.canonicalize(x[:, None, :] + sign * h * np.eye(amb))
    plus, minus = (func(step(sign).reshape(-1, amb)).reshape(npts, -1) for sign in (1.0, -1.0))
    return (2.0 * m.dim * func(x) - (plus + minus).sum(axis=1)) / h**2


def scal_fd_many(m: Manifold, field: WeightField, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference curvature: the identity with bracket 2 Delta_h f at
    n = 2, else (4(n-1)/(n-2)) Delta_h u / u with u = e^{(n-2)f/2}."""
    n = m.dim
    f_of = lambda p: field.eval_many(m, p)
    f0 = f_of(x)
    if n == 2:
        return _conformal_scal(m, f0, 2.0 * _fd_laplacian(m, f_of, x, h))
    u_of = lambda p: np.exp((n - 2) * f_of(p) / 2.0)
    lap_u = _fd_laplacian(m, u_of, x, h)
    return _conformal_scal(m, f0, (4.0 * (n - 1) / (n - 2)) * lap_u / np.exp((n - 2) * f0 / 2.0))


def scalar_curvature_many(
    m: Manifold, field: WeightField, x: np.ndarray, method: str = "exact", h: float = 1e-3
) -> np.ndarray:
    field.validate(m)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if method == "exact":
        vals = scal_exact_many(m, field, x)  # InputError for a field without exact derivatives
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


def lp_scal_norm(
    m: Manifold,
    field: WeightField,
    b: BallSpec,
    p: float,
    budget: int = 20_000,
    seed: int = 0,
    positive_part: bool = False,
    method: str = "exact",
) -> float:
    """(int_B |scal|^p dmu_f)^{1/p}, optionally with the positive part, by
    ball_integral: the colatitude rule for rotationally symmetric sphere
    fields at method "exact", else Monte Carlo on uniform ball samples with
    the curvature from scalar_curvature_many(method) at its default fd step.
    """
    if p < 1:
        raise InputError("lp_scal_norm requires p >= 1")
    n = m.dim
    part = (lambda s: np.maximum(s, 0.0)) if positive_part else np.abs

    def on_points(pts):
        s = scalar_curvature_many(m, field, pts, method)
        with np.errstate(invalid="ignore"):  # inf * 0 is nan, which _mc_integral rejects
            return part(s) ** p * np.exp(n * field.eval_many(m, pts))

    def on_profile(prof, theta):
        return part(scal_radial(m, prof, theta)) ** p * np.exp(n * prof.f(theta))

    val, _ = ball_integral(m, field, b, on_points, on_profile if method == "exact" else None,
                           budget, seed, "samples of |scal|^p e^(nf)")
    return val ** (1.0 / p)


def pinching_profile(
    m: Manifold,
    field: WeightField,
    R0: float,
    centers: PointSet,
    budget: int = 20_000,
    seed: int = 0,
    lambda0: Optional[float] = None,
    method: str = "exact",
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
            m, field, ball, p, budget, s, positive_part=True, method=method
        )
        abs_vals[i] = lp_scal_norm(
            m, field, ball, p, budget, s, positive_part=False, method=method
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
    )
