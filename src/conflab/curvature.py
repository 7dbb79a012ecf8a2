"""Scalar curvature of conformally deformed metrics and pinching functionals.

Every curvature value comes from one identity for g_f = e^{2f} g0, with the
geometer's (nonnegative-spectrum) Laplacian:

    scal_{g_f} = e^{-2f} ( scal_{g0} + 2(n-1) Delta f - (n-1)(n-2) |df|^2 )

Every functional fills the bracket from a field's closed-form derivatives
(or, for a rotationally symmetric sphere field, from the (f, f', f'') its
``profile`` gives at angles from its ``radial_axis``) and raises InputError
for fields without them; the |df|^2 term vanishes at n = 2.  Non-finite
curvature raises NumericError.

``scal_fd_many`` is the finite-difference reference the exact derivatives
are checked against: it fills the bracket with 2 Delta_h f at n = 2 and with
(4(n-1)/(n-2)) Delta_h u / u, u = e^{(n-2)f/2}, above, where Delta_h is the
central second difference along an orthonormal frame at each point: the
chart axes on tori and boxes, geodesic normal coordinates on the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .manifold import (
    BallSpec,
    Manifold,
    PointSet,
    _householder_to,
    sample_ball,  # noqa: F401  perfbench's tracer checks it rebinds this copy
    sphere_volume,
)
from .rng import derive_seed
from .weight import WeightField, _radial_laplacian, ball_integral

_BUDGET = 20_000  # samples per ball of the Monte Carlo path of lp_scal_norm


def alpha_n2(n: int) -> float:
    """Critical total-curvature level: n(n-1) vol(S^n)^{2/n} for the unit sphere."""
    if n < 3:
        raise InputError("alpha_n2 requires dimension n >= 3")
    return n * (n - 1) * sphere_volume(n) ** (2.0 / n)


@dataclass(frozen=True)
class PinchingReport:
    """sup over sampled centers of the local curvature functionals."""

    n_centers: int
    sup_pos: float
    sup_abs: float


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


def scal_radial(m: Manifold, theta: np.ndarray, f, fp, fpp) -> np.ndarray:
    """Curvature of a rotationally symmetric sphere field at angles theta from
    its axis, given its profile (f, f', f'') there."""
    lap = _radial_laplacian(m, theta, fp, fpp)
    return _exact_scal(m, f, lap, (fp / m.radius) ** 2)


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


def scalar_curvature_many(m: Manifold, field: WeightField, x: np.ndarray) -> np.ndarray:
    """Vectorized curvature from a field's closed-form derivatives."""
    field.validate(m)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    grad, lap = field.grad_lap_many(m, x)  # InputError for a field without exact derivatives
    vals = _exact_scal(m, field.eval_many(m, x), lap, np.sum(grad * grad, axis=-1))
    if not np.all(np.isfinite(vals)):
        raise NumericError("curvature evaluation hit the singular set")
    return vals


def lp_scal_norm(
    m: Manifold,
    field: WeightField,
    b: BallSpec,
    p: float,
    seed: int = 0,
    positive_part: bool = False,
) -> float:
    """(int_B |scal|^p dmu_f)^{1/p}, optionally with the positive part, by
    ball_integral: the colatitude rule for rotationally symmetric sphere
    fields, else Monte Carlo on _BUDGET uniform ball samples, whose
    e^{nf} is the field's ``weight_many``.
    """
    if not 1 <= p < np.inf:
        raise InputError("lp_scal_norm requires a finite p >= 1")
    n = m.dim
    part = (lambda s: np.maximum(s, 0.0)) if positive_part else np.abs

    def on_points(pts):
        s = scalar_curvature_many(m, field, pts)
        with np.errstate(invalid="ignore"):  # inf * 0 is nan, which _mc_integral rejects
            return part(s) ** p * field.weight_many(m, pts)

    def on_profile(theta, f, fp, fpp):
        return part(scal_radial(m, theta, f, fp, fpp)) ** p * np.exp(n * f)

    val, _ = ball_integral(m, field, b, on_points, on_profile, _BUDGET, seed,
                           "samples of |scal|^p e^(nf)")
    return val ** (1.0 / p)


def pinching_profile(
    m: Manifold,
    field: WeightField,
    R0: float,
    centers: PointSet,
    seed: int = 0,
) -> PinchingReport:
    """Local curvature concentration: sup over centers of the two
    (int_{B(x,R0)} . dmu_f)^{2/n} functionals."""
    if R0 <= 0:
        raise InputError("pinching radius R0 must be positive")
    p = m.dim / 2.0
    pos_vals = np.empty(len(centers))
    abs_vals = np.empty(len(centers))
    for i, c in enumerate(centers.points):
        ball = BallSpec(center=c, radius=R0)
        s = derive_seed(seed, "pinch", i)
        pos_vals[i] = lp_scal_norm(m, field, ball, p, s, positive_part=True)
        abs_vals[i] = lp_scal_norm(m, field, ball, p, s, positive_part=False)
    # lp_scal_norm returns ( . )^{1/p} = ( . )^{2/n}, already the pinched form
    return PinchingReport(
        n_centers=len(centers), sup_pos=float(pos_vals.max()), sup_abs=float(abs_vals.max())
    )
