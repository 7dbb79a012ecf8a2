import numpy as np
import pytest
from scipy.integrate import quad

from conflab.curvature import (
    alpha_n2,
    alpha_n2_quadrature,
    lp_scal_norm,
    pinching_profile,
    scal_radial,
    scalar_curvature,
    scalar_curvature_many,
)
from conflab.errors import InputError
from conflab.manifold import BallSpec, Manifold, PointSet, cap_volume, lattice, sample_manifold
from conflab.weight import (
    BuragoTorus,
    Constant,
    GridWeight,
    LogCusp,
    Scaled,
    SphereBubble,
    grid_from_field,
)

N3 = np.array([0.0, 0.0, 0.0, 1.0])
S3 = np.array([0.0, 0.0, 0.0, -1.0])


def test_alpha_values():
    assert alpha_n2(3) == pytest.approx(6 * (2 * np.pi**2) ** (2 / 3), rel=1e-12)
    assert alpha_n2(3) == pytest.approx(43.825, rel=1e-4)
    assert alpha_n2(4) == pytest.approx(12 * np.sqrt(8 * np.pi**2 / 3), rel=1e-12)
    assert alpha_n2(4) == pytest.approx(61.56, rel=1e-3)


def test_alpha_quadrature_consistency():
    for n in (3, 4):
        assert abs(alpha_n2_quadrature(n) / alpha_n2(n) - 1) <= 1e-6


def test_alpha_dimension_guard():
    with pytest.raises(InputError):
        alpha_n2(2)


def test_flat_and_round_curvature(torus2, sphere3):
    assert scalar_curvature(torus2, Constant(0.0), (1.0, 2.0)).scal == 0.0
    assert scalar_curvature(sphere3, Constant(0.0), N3).scal == pytest.approx(6.0, rel=1e-12)


def test_burago_curvature_fd_and_exact(torus2):
    fd = scalar_curvature(torus2, BuragoTorus(1), (0.0, 0.0), method="fd", h=1e-4)
    assert fd.scal == pytest.approx(-2.0, abs=5e-6)
    assert fd.h == 1e-4
    exact = scalar_curvature(torus2, BuragoTorus(1), (0.0, 0.0))
    assert exact.scal == pytest.approx(-2.0, rel=1e-13)


def test_bubble_constant_curvature(sphere3):
    pts, _ = sample_manifold(sphere3, 1000, seed=4)
    for lam in (1.0, 2.0, 10.0, 100.0):
        s = scalar_curvature_many(sphere3, SphereBubble(lam), pts)
        assert np.abs(s / 6.0 - 1.0).max() <= 1e-6


def _cusp_shell(dim, count):
    """Points 0.3-0.6 from the center of [0, 2]^dim: the LogCusp blend region."""
    dirs = np.random.default_rng(11).standard_normal((count, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return 1.0 + np.linspace(0.3, 0.6, count)[:, None] * dirs


# one case per branch of the finite differences: flat and round, n = 2 and n > 2
S2 = Manifold.sphere(2)
FD_CASES = {
    "T2": (Manifold.torus(2), BuragoTorus(1), np.array([[0.7, 0.3]])),
    "T3": (Manifold.torus(3), BuragoTorus(2), np.array([[0.7, 0.3, 5.0], [2.2, 6.0, 1.0]])),
    "S2": (S2, SphereBubble(3.0), sample_manifold(S2, 6, seed=9)[0]),
    "box3": (Manifold.box([[0.0, 2.0]] * 3), LogCusp((1.0, 1.0, 1.0), 0.4, 3.0), _cusp_shell(3, 6)),
    "box2": (Manifold.box([[0.0, 2.0]] * 2), LogCusp((1.0, 1.0), 0.4, 3.0), _cusp_shell(2, 6)),
}


@pytest.mark.parametrize("case", sorted(FD_CASES))
def test_fd_order_two(case):
    m, field, pts = FD_CASES[case]
    truth = scalar_curvature_many(m, field, pts)
    errs = [
        np.abs(scalar_curvature_many(m, field, pts, method="fd", h=h) - truth)
        for h in (0.02, 0.01, 0.005)
    ]
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert np.min(orders) >= 1.8


def test_fd_order_two_on_sphere(sphere3):
    pts, _ = sample_manifold(sphere3, 6, seed=9)
    pts = np.vstack([pts, N3, S3])  # both reflections of the tangent frames
    truth = scalar_curvature_many(sphere3, SphereBubble(10.0), pts)
    errs = [
        np.abs(scalar_curvature_many(sphere3, SphereBubble(10.0), pts, method="fd", h=h) - truth)
        for h in (4e-3, 2e-3, 1e-3)
    ]
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert np.min(orders) >= 1.8


def test_fd_on_sphere_analytic(sphere3):
    # geodesic normal-coordinate differences; 5e-2 tolerance across dilations
    pts, _ = sample_manifold(sphere3, 25, seed=9)
    for lam in (1.0, 10.0, 100.0):
        s = scalar_curvature_many(sphere3, SphereBubble(lam), pts, method="fd", h=2e-3)
        assert np.abs(s / 6.0 - 1.0).max() <= 5e-2


def test_lp_norm_flat_zero(torus2):
    b = BallSpec(np.array([1.0, 1.0]), 0.6)
    assert lp_scal_norm(torus2, Constant(0.0), b, 2.0, budget=500, seed=1) == 0.0


def test_lp_norm_hemisphere_value(sphere3):
    got = lp_scal_norm(sphere3, Constant(0.0), BallSpec(N3, np.pi / 2), 1.5)
    assert got == pytest.approx((6**1.5 * np.pi**2) ** (2 / 3), rel=1e-9)


def _quad_ball_integral(m, F, gamma, R):
    """Adaptive reference for int_{B} F(theta) dmu0, B at angle gamma from the axis."""
    n, rb = m.dim, min(R / m.radius, np.pi)
    cap = {
        2: lambda p: 2 * p,
        3: lambda p: 2 * np.pi * (1 - np.cos(p)),
        4: lambda p: 2 * np.pi * (p - np.sin(p) * np.cos(p)),
    }[n]

    def g(t):
        c = (np.cos(rb) - np.cos(t) * np.cos(gamma)) / (np.sin(t) * np.sin(gamma))
        return F(np.array([t]))[0] * np.sin(t) ** (n - 1) * cap(np.arccos(np.clip(c, -1, 1)))

    breaks = [abs(gamma - rb), min(gamma + rb, 2 * np.pi - gamma - rb)]
    val, _ = quad(g, 0.0, np.pi, points=breaks, limit=400, epsabs=0.0, epsrel=1e-12)
    return m.radius**n * val


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")  # the reference's own tails
def test_pinching_integrals_match_adaptive_quadrature(n):
    m = Manifold.sphere(n)
    p = n / 2.0
    for lam in (1.0, 10.0, 100.0, 1000.0):
        field = SphereBubble(lam)
        prof = field.radial_profile(m)
        for gamma in (0.3, 1.2, 2.5):
            center = np.zeros(n + 1)
            center[0], center[-1] = np.sin(gamma), -np.cos(gamma)  # axis is the south pole
            for R in (0.5, 1.5):
                for positive in (True, False):
                    part = (lambda s: np.maximum(s, 0.0)) if positive else np.abs

                    def integrand(t):
                        return part(scal_radial(m, prof, t)) ** p * np.exp(n * prof.f(t))

                    ref = _quad_ball_integral(m, integrand, gamma, R)
                    ball = BallSpec(center, R)
                    got = lp_scal_norm(m, field, ball, p, positive_part=positive) ** p
                    assert abs(got / ref - 1) <= 1e-9, (lam, gamma, R, positive)


def test_lp_norm_total_conformal_invariance(sphere3):
    full = BallSpec(N3, np.pi)
    vals = [lp_scal_norm(sphere3, SphereBubble(lam), full, 1.5) for lam in (1.0, 10.0)]
    assert abs(vals[1] / vals[0] - 1) <= 0.02


def test_lp_positive_part_bound(torus2):
    b = BallSpec(np.array([0.5, 0.5]), 0.8)
    pos = lp_scal_norm(torus2, BuragoTorus(1), b, 1.0, budget=20_000, seed=2, positive_part=True)
    absv = lp_scal_norm(torus2, BuragoTorus(1), b, 1.0, budget=20_000, seed=2)
    assert pos <= absv + 1e-12


def _bubble_centers(sphere3):
    cents = lattice(sphere3, 0.7)
    return PointSet(points=np.vstack([cents.points, S3[None]]), spacing=cents.spacing)


def test_pinching_flat(torus2):
    rep = pinching_profile(torus2, Constant(0.0), 0.5, lattice(torus2, 2.5), budget=500, seed=1)
    assert rep.sup_pos == 0.0
    assert rep.lambda_margin == 0.0


def test_pinching_bubble_cap_oracle(sphere3):
    cents = _bubble_centers(sphere3)
    rep = pinching_profile(sphere3, SphereBubble(1.0), 0.5, cents, seed=2)
    oracle = 6.0 * cap_volume(sphere3, 0.5) ** (2 / 3)
    assert rep.sup_pos == pytest.approx(oracle, rel=1e-6)


def test_pinching_bubble_concentration(sphere3):
    cents = _bubble_centers(sphere3)
    sups = [
        pinching_profile(sphere3, SphereBubble(lam), 0.5, cents, seed=2).sup_pos
        for lam in (1.0, 10.0, 100.0)
    ]
    assert np.all(np.diff(sups) > 0)
    assert 0.95 * alpha_n2(3) <= sups[-1] <= 1.01 * alpha_n2(3)


def test_pinching_scale_invariance(torus2, sphere3):
    cents = lattice(torus2, 2.0)
    a = pinching_profile(torus2, BuragoTorus(1), 0.5, cents, seed=3)
    b = pinching_profile(torus2, Scaled(BuragoTorus(1), 1.1), 0.5, cents, seed=3)
    assert abs(b.sup_abs / a.sup_abs - 1) <= 1e-10
    sc = _bubble_centers(sphere3)
    a = pinching_profile(sphere3, SphereBubble(5.0), 0.5, sc, seed=3)
    b = pinching_profile(sphere3, Scaled(SphereBubble(5.0), -0.4), 0.5, sc, seed=3)
    assert abs(b.sup_pos / a.sup_pos - 1) <= 1e-10


def test_pinching_on_grid_field_needs_fd(torus2):
    field = GridWeight(grid_from_field(torus2, BuragoTorus(1), (32, 32)), 3)
    cents = lattice(torus2, 2.5)
    with pytest.raises(InputError):
        pinching_profile(torus2, field, 0.5, cents, budget=500, seed=1)
    rep = pinching_profile(torus2, field, 0.5, cents, budget=500, seed=1, method="fd")
    assert rep.method == "fd"
    assert np.isfinite(rep.sup_abs) and rep.sup_abs > 0.0


@pytest.mark.parametrize("x", [(0.0, 1.2, 1.0), (0.01, 1.2, 1.0)])
def test_cubic_grid_fd_curvature_at_a_box_face(x):
    # the fd stencil at the face reads one step past it, where the cubic taps
    # need ghost nodes; clamping them to the face value read -214.6 and -79.9
    box = Manifold.box([[0.0, 2.0]] * 3)
    cusp = LogCusp((0.3, 1.0, 1.0), 0.4)
    grid = GridWeight(grid_from_field(box, cusp, (81, 81, 81)), 3)
    exact = scalar_curvature(box, cusp, x).scal
    assert scalar_curvature(box, grid, x, method="fd").scal == pytest.approx(exact, rel=0.15)


def test_pinching_flags(sphere3):
    cents = _bubble_centers(sphere3)
    rep = pinching_profile(sphere3, SphereBubble(2.0), 0.5, cents, seed=1, lambda0=1e9)
    assert rep.below_alpha
    assert rep.below_lambda0
