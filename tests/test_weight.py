import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j1

from conflab.curvature import lp_scal_norm
from conflab.diagnostics import (
    BoxDomain,
    _ball_boundary_quadrature,
    _box_boundary_quadrature,
    isoperimetric_ratio,
)
from conflab.errors import FormatError, InputError, IntegrationError
from conflab.experiments import weak_star_test
from conflab.manifold import (
    BallSpec,
    Manifold,
    cap_volume,
    sample_ball,
    sample_manifold,
    whole_manifold_ball,
)
from conflab.weight import (
    BuragoTorus,
    Constant,
    GridField,
    GridWeight,
    LogCusp,
    SphereBubble,
    Sum,
    WeightField,
    _Lifted,
    _mc_integral,
    grid_from_field,
    mu_f_ball,
    read_grid,
    total_mass,
    write_grid,
)

S_POLE3 = np.array([0.0, 0.0, 0.0, -1.0])


def test_burago_weight_value(torus2):
    # e^{nf} = 1 - cos(0)/2 = 1/2 on the ridge
    f = BuragoTorus(1).eval_many(torus2, np.array([[0.0, 1.7]]))[0]
    assert np.exp(2 * f) == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ell", [1, 3, 16])
def test_burago_weight_is_its_closed_form(n, ell):
    """weight_many, the half-angle form 1.5 - 1/(1 + tan^2(ell x1 / 2)), is
    within 2 ulp of 1 - cos(ell x1)/2 at uniform samples, at x1 = 0, pi/ell
    and one ulp below the period, and exactly 0.5 and 1.5 at the extremes;
    f is log(weight_many) / n bit for bit, and weight_many is within one ulp
    of exp(n f)."""
    m = Manifold.torus(n)
    pts, _ = sample_manifold(m, 20_000, seed=n)
    edges = np.zeros((3, n))
    edges[:, 0] = 0.0, np.pi / ell, np.nextafter(m.periods[0], 0.0)
    pts = np.vstack([pts, edges])
    field = BuragoTorus(ell)
    w = field.weight_many(m, pts)
    cosine = 1.0 - 0.5 * np.cos(ell * pts[:, 0])
    assert np.all(np.abs(w - cosine) <= 2 * np.spacing(cosine))
    assert w[-3] == 0.5 and w[-2] == 1.5
    f = field.eval_many(m, pts)
    assert f.tobytes() == (np.log(w) / n).tobytes()
    via_f = np.exp(n * f)
    assert np.all(np.abs(w - via_f) <= np.spacing(via_f))


@pytest.mark.parametrize("ell", [1, 4, 16])
def test_burago_ball_masses_match_the_bessel_formula(ell):
    """At n = 2, mu_f(B_r(c)) = pi r^2 - pi r cos(ell c1) J1(ell r) / ell for
    r below half the period; each Monte Carlo mass is within 3 se of it."""
    m = Manifold.torus(2)
    field = BuragoTorus(ell)
    for k, (r, c1) in enumerate(((2.4 / ell, 0.3), (3.0 / ell, 2.0), (3.0 / ell, np.pi / ell))):
        ball = BallSpec(np.array([c1, 1.1]), r)
        mass, se = mu_f_ball(m, field, ball, budget=20_000, seed=10 * ell + k)
        exact = np.pi * r * r - np.pi * r * np.cos(ell * c1) * j1(ell * r) / ell
        assert abs(mass - exact) <= 3 * se


def test_default_weight_is_exp_of_n_f(torus2, sphere2):
    box = Manifold.box([[0.0, 1.0], [-0.5, 2.0]])
    grid = GridField(torus2, np.random.default_rng(3).normal(size=(6, 5)))
    for m, field in (
        (torus2, Constant(0.3)),
        (torus2, LogCusp((1.0, 2.0), 0.8, None)),
        (sphere2, SphereBubble(3.0)),
        (torus2, GridWeight(grid, 3)),
        (torus2, Sum((BuragoTorus(2), Constant(0.1)))),
        (box, _Lifted(torus2, BuragoTorus(1))),
    ):
        assert type(field).weight_many is WeightField.weight_many
        pts = sample_manifold(m, 500, seed=4)[0]
        want = np.exp(m.dim * field.eval_many(m, pts))
        assert field.weight_many(m, pts).tobytes() == want.tobytes()


def test_constant_field(torus2):
    assert Constant(0.0).eval_many(torus2, np.array([[1.0, 2.0]]))[0] == 0.0


def test_bubble_identity_at_lam_one(sphere3, rng):
    pts, _ = sample_manifold(sphere3, 50, seed=1)
    assert np.abs(SphereBubble(1.0).eval_many(sphere3, pts)).max() == 0.0


def test_fields_store_their_checked_scalars_as_floats():
    cusp = LogCusp((1.0, 1.0), np.float32(0.5), 2)
    assert type(cusp.r0) is float and type(cusp.cap) is float and cusp.cap == 2.0
    assert type(SphereBubble(np.int64(3)).lam) is float
    assert LogCusp((1.0, 1.0), 0.5).cap is None


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
def test_bubble_rejects_a_non_positive_or_non_finite_lam(lam):
    # nan <= 0 is False, so a nan lam used to construct a field of nan values
    with pytest.raises(InputError, match="positive and finite"):
        SphereBubble(lam)


def _tan_split_profile(lam, theta):
    """The bubble profile in two branches, t = tan(theta/2) up to pi/2 and
    u = tan((pi - theta)/2) beyond, neither of which grows large: the
    reference of the half-angle closed form."""
    la2 = lam * lam
    near = theta <= np.pi / 2
    t = np.tan(np.where(near, theta, 0.0) / 2.0)
    u = np.tan((np.pi - np.where(near, np.pi, theta)) / 2.0)
    v_near = np.log(lam) + np.log1p(t * t) - np.log1p(la2 * t * t)
    v_far = -np.log(lam) + np.log1p(u * u) - np.log1p(u * u / lam**2)
    d_near = (1.0 - la2) * t / (1.0 + la2 * t * t)
    d_far = (1.0 - la2) * u / (u * u + la2)
    n_num = (1.0 - la2) * (1.0 - la2 * t * t) * (1.0 + t * t)
    n_den = 2.0 * (1.0 + la2 * t * t) ** 2
    f_num = (1.0 - la2) * (u * u - la2) * (u * u + 1.0)
    f_den = 2.0 * (u * u + la2) ** 2
    return (np.where(near, v_near, v_far), np.where(near, d_near, d_far),
            np.where(near, n_num / n_den, f_num / f_den))


@pytest.mark.parametrize("lam, rtol", [
    (1.0, 0.0), (2.0, 1e-15), (10.0, 1e-15), (100.0, 1e-15), (1000.0, 1e-15), (1e4, 1e-15),
    (0.3, 1e-11), (0.01, 1e-11),
])
def test_bubble_profile_is_the_tan_split_profile(lam, rtol):
    # both forms are exactly 0 at lam = 1 and round-off apart above it; below
    # it, which no run uses, the half-angle error grows like 1e-16 / lam^2
    half_pi = np.pi / 2
    ends = [0.0, 1e-300, 1e-12, np.nextafter(half_pi, 0.0), half_pi, np.nextafter(half_pi, 4.0),
            np.pi - 1e-6, np.nextafter(np.pi, 0.0), np.pi]
    theta = np.concatenate([ends, np.random.default_rng(37).uniform(0.0, np.pi, 4000)])
    got, ref = SphereBubble(lam).profile(theta), _tan_split_profile(lam, theta)
    for g, r in zip(got, ref):
        assert np.abs(g - r).max() <= rtol * np.abs(r).max()
    if lam == 1.0:
        assert not any(np.any(g) for g in got)
    assert got[0][0] == np.log(lam) and got[1][0] == 0.0


def test_bubble_pole_value(sphere3):
    # continuous extension by -ln(lam) at the projection pole
    pole = np.array([0.0, 0.0, 0.0, 1.0])
    north, south = SphereBubble(7.0).eval_many(sphere3, np.stack([pole, S_POLE3]))
    assert north == pytest.approx(-np.log(7.0), abs=1e-9)
    assert south == pytest.approx(np.log(7.0), abs=1e-12)


def test_manifold_mismatch(torus2, sphere3):
    with pytest.raises(InputError):
        BuragoTorus(1).validate(sphere3)
    with pytest.raises(InputError):
        SphereBubble(2.0).validate(torus2)


def test_mu_f_ball_constant(torus2):
    b = BallSpec(np.array([1.0, 1.0]), 0.5)
    v, se = mu_f_ball(torus2, Constant(0.0), b, budget=2000, seed=3)
    assert v == pytest.approx(np.pi * 0.25, rel=1e-12)  # constant integrand: exact
    c = 0.8
    v2, _ = mu_f_ball(torus2, Constant(c), b, budget=2000, seed=3)
    assert v2 == pytest.approx(np.exp(2 * c) * v, rel=1e-12)


def test_mu_f_ball_takes_a_numeral_radius(torus2):
    # the radius is stored as the float it converts to, not as the text
    text = BallSpec(np.zeros(2), "1.0")
    assert type(text.radius) is float and text.radius == 1.0
    got = mu_f_ball(torus2, Constant(0.0), text, 1000, 3)
    assert got == mu_f_ball(torus2, Constant(0.0), BallSpec(np.zeros(2), 1.0), 1000, 3)


def test_mu_f_ball_rejects_a_non_finite_center(torus2):
    # the torus wrap sends nan to 0: this ball used to get the mass pi / 4
    with pytest.raises(InputError):
        mu_f_ball(torus2, Constant(0.0), BallSpec(np.array([np.nan, 1.0]), 0.5), 2000, 3)


def test_grid_nodes_are_read_only(torus2):
    g = grid_from_field(torus2, BuragoTorus(1), (8, 6))
    before = g.nodes().copy()
    for arr in (g.nodes(), g.axis_spacing):
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr.flags.writeable = True
    assert np.array_equal(g.nodes(), before)


def test_mu_f_ball_burago_full_torus(torus2):
    v, se = mu_f_ball(torus2, BuragoTorus(1), whole_manifold_ball(torus2), budget=200_000, seed=5)
    assert abs(v - 4 * np.pi**2) <= 3 * se


def test_total_mass_trivial_and_burago(torus2):
    v, se = total_mass(torus2, Constant(0.0), budget=50_000, seed=1)
    assert v == pytest.approx(4 * np.pi**2, rel=1e-12)
    v, se = total_mass(torus2, BuragoTorus(3), budget=200_000, seed=2)
    assert abs(v - 4 * np.pi**2) <= 3 * se


def test_bubble_mass_conserved(sphere3):
    for lam in (1.0, 2.0, 10.0, 100.0):
        v, _ = total_mass(sphere3, SphereBubble(lam))
        assert v == pytest.approx(2 * np.pi**2, rel=1e-2)


def _unit(n, angle):
    """Point of S^n at the given angle from the south pole, the bubble axis."""
    x = np.zeros(n + 1)
    x[0], x[-1] = np.sin(angle), -np.cos(angle)
    return x


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bubble_total_mass_exact(n):
    m = Manifold.sphere(n)
    for lam in (0.01, 1.0, 100.0, 1e4):
        v, err = total_mass(m, SphereBubble(lam))
        assert abs(v / m.volume - 1) <= 1e-12
        assert err == 1e-9 * v


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bubble_axis_ball_is_a_cap(n):
    # the dilation maps B(-pole, R) onto the cap of radius 2 atan(lam tan(R/2))
    m = Manifold.sphere(n)
    for lam in (0.01, 0.5, 10.0, 1000.0):
        for R in (0.01, 0.5, 2.0, 3.0):
            v, err = mu_f_ball(m, SphereBubble(lam), BallSpec(_unit(n, 0.0), R))
            oracle = cap_volume(m, 2.0 * np.arctan(lam * np.tan(R / 2.0)))
            assert abs(v / oracle - 1) <= 1e-10
            assert err == 1e-9 * v


@pytest.mark.parametrize("m", [Manifold.sphere(2), Manifold.sphere(3, 2.0), Manifold.sphere(4)])
def test_identity_bubble_ball_masses_are_caps(m):
    # every center, including balls reaching past the antipode of the axis
    for rb in (0.05, 1.0, 2.5, 3.1, np.pi):
        cap = cap_volume(m, rb * m.radius)
        for gamma in np.linspace(0.0, np.pi, 9):
            b = BallSpec(_unit(m.dim, gamma), rb * m.radius)
            v, _ = mu_f_ball(m, SphereBubble(1.0), b)
            assert abs(v / cap - 1) <= 1e-12, (rb, gamma)


def test_bubble_dirac_development(sphere3):
    fracs = []
    for lam in (1.0, 2.0, 10.0, 100.0):
        v, _ = mu_f_ball(sphere3, SphereBubble(lam), BallSpec(S_POLE3, 0.5))
        fracs.append(v / (2 * np.pi**2))
    assert np.all(np.diff(fracs) > 0)
    assert fracs[-1] > 0.99


class _Unprofiled(WeightField):
    """Test helper: a field's values without its radial axis, so its
    masses take the Monte Carlo branch of ball_integral."""

    def __init__(self, base):
        self.base = base

    def validate(self, m):
        self.base.validate(m)

    def eval_many(self, m, x):
        return self.base.eval_many(m, x)


@pytest.mark.parametrize("lam", [1.0, 2.0, 10.0])
@pytest.mark.parametrize("n", [2, 3])
def test_sampled_bubble_masses_agree_with_the_cap_rule(n, lam):
    m = Manifold.sphere(n)
    balls = [BallSpec(_unit(n, gamma), R) for gamma in (0.0, 1.0, 2.5) for R in (0.3, 1.2, 2.8)]
    masses = [lambda f, seed: total_mass(m, f, 20_000, seed)] + [
        lambda f, seed, b=b: mu_f_ball(m, f, b, 20_000, seed) for b in balls
    ]
    for seed, mass in enumerate(masses):
        exact, _ = mass(SphereBubble(lam), seed)
        got, se = mass(_Unprofiled(SphereBubble(lam)), seed)
        if lam == 1.0:  # e^{nf} = 1: no sample error, only the cap volume's 1e-12
            assert se <= 1e-12 * got and abs(got / exact - 1) <= 1e-12
        else:
            assert se > 0 and abs(got - exact) <= 4 * se, (seed, got, exact, se)


def test_scaled_pointwise_and_measure(torus2, rng):
    base = BuragoTorus(2)
    shifted = Sum((base, Constant(0.9)))
    pts = rng.random((50, 2)) * 2 * np.pi
    assert np.allclose(
        shifted.eval_many(torus2, pts), base.eval_many(torus2, pts) + 0.9, atol=1e-14
    )
    b = BallSpec(np.array([2.0, 3.0]), 0.7)
    v1, _ = mu_f_ball(torus2, base, b, budget=4000, seed=7)
    v2, _ = mu_f_ball(torus2, shifted, b, budget=4000, seed=7)
    assert v2 / v1 == pytest.approx(np.exp(2 * 0.9), rel=1e-12)


def test_mu_f_ball_stderr_scaling(torus2):
    b = BallSpec(np.array([1.0, 1.0]), 0.8)
    _, se1 = mu_f_ball(torus2, BuragoTorus(1), b, budget=2000, seed=11)
    _, se2 = mu_f_ball(torus2, BuragoTorus(1), b, budget=20_000, seed=11)
    ratio = se1 / se2
    assert np.sqrt(10.0) / 2 <= ratio <= 2 * np.sqrt(10.0)


def test_logcusp_radial_oracle(torus2):
    # 1-D radial quadrature of the cusp mass vs the Monte Carlo estimate
    lc = LogCusp((np.pi, np.pi), 0.75)
    x2 = np.full(1, np.pi)

    def prof(s):
        return lc.eval_many(torus2, np.column_stack([np.pi + np.atleast_1d(s), x2]))[0]

    bump, _ = quad(lambda s: (np.exp(2 * prof(s)) - 1) * 2 * np.pi * s, 0, 1.5, limit=200)
    oracle = 4 * np.pi**2 + bump
    got, se = total_mass(torus2, lc, 400_000, seed=8)
    assert abs(got - oracle) <= 3 * se


def test_logcusp_profile_decreasing_in_r0(torus2):
    # the total mass, the integral of e^{nf}, decreases with the cusp radius
    vals = [total_mass(torus2, LogCusp((np.pi, np.pi), r0), 200_000, seed=9)[0]
            for r0 in (0.9, 0.6, 0.3)]
    assert vals[0] > vals[1] > vals[2]


def test_logcusp_cap_monotone(torus2):
    x = np.column_stack([np.pi + np.array([0.003, 0.05, 0.3]), np.full(3, np.pi)])
    prev = None
    for cap in (2.0, 4.0, 8.0, None):
        vals = LogCusp((np.pi, np.pi), 0.75, cap).eval_many(torus2, x)
        if prev is not None:
            assert np.all(vals >= prev - 1e-14)
        prev = vals
    center = np.array([[np.pi, np.pi]])
    assert np.isinf(LogCusp((np.pi, np.pi), 0.75).eval_many(torus2, center)[0])
    assert LogCusp((np.pi, np.pi), 0.75, 3.0).eval_many(torus2, center)[0] == pytest.approx(3.0)


def test_logcusp_blend_is_c2(torus2):
    # numeric second differences stay bounded through both junctions
    lc = LogCusp((0.0, 0.0), 0.75)
    for d_star in (0.75 / np.e, 1.5):
        ds = d_star + np.linspace(-0.02, 0.02, 41)
        x = np.column_stack([ds, np.zeros_like(ds)])
        f = lc.eval_many(torus2, x)
        h = ds[1] - ds[0]
        second = np.diff(f, 2) / h**2
        assert np.all(np.isfinite(second))
        assert np.abs(np.diff(second)).max() <= 0.5  # no jump at the junction


def test_sum_field(torus2, rng):
    s = Sum((BuragoTorus(1), Constant(0.3)))
    pts = rng.random((20, 2)) * 2 * np.pi
    expect = BuragoTorus(1).eval_many(torus2, pts) + 0.3
    assert np.allclose(s.eval_many(torus2, pts), expect, atol=1e-14)


def test_sum_exact_curvature_and_radial_profile(torus2, rng):
    from conflab.curvature import scalar_curvature_many

    # a constant summand leaves the derivatives alone: scal picks up e^{-2c}
    c = 0.3
    pts = rng.random((20, 2)) * 2 * np.pi
    base = scalar_curvature_many(torus2, BuragoTorus(1), pts)
    got = scalar_curvature_many(torus2, Sum((BuragoTorus(1), Constant(c))), pts)
    np.testing.assert_allclose(got, np.exp(-2 * c) * base, rtol=1e-12, atol=0)
    # summands about one axis: the profile sums f, f' and f''
    s2 = Manifold.sphere(2)
    a, b = SphereBubble(2.0), SphereBubble(5.0)
    np.testing.assert_array_equal(Sum((a, b)).radial_axis(s2), a.radial_axis(s2))
    theta = np.linspace(0.1, 3.0, 7)
    for got, pa, pb in zip(Sum((a, b)).profile(theta), a.profile(theta), b.profile(theta)):
        np.testing.assert_array_equal(got, pa + pb)
    # summands about different axes, or one with no axis: none
    assert Sum((a, SphereBubble(5.0, pole=(1.0, 0.0, 0.0)))).radial_axis(s2) is None
    assert Sum((BuragoTorus(1), Constant(c))).radial_axis(torus2) is None


def test_sum_axis_ignores_constant_summands():
    # a constant summand is radial about any axis: a shifted bubble keeps
    # the bubble's axis, so its masses take the colatitude rule (error 1e-9)
    s2 = Manifold.sphere(2)
    bubble = SphereBubble(10.0)
    shifted = Sum((bubble, Constant(0.7)))
    np.testing.assert_array_equal(shifted.radial_axis(s2), bubble.radial_axis(s2))
    b = BallSpec(np.array([0.0, 0.6, 0.8]), 0.9)
    base, _ = mu_f_ball(s2, bubble, b)
    mass, se = mu_f_ball(s2, shifted, b)
    assert abs(mass / (np.exp(2 * 0.7) * base) - 1) <= 1e-12
    assert se == 1e-9 * mass
    # a sum of constants keeps its first summand's axis
    np.testing.assert_array_equal(Sum((Constant(0.1), Constant(0.2))).radial_axis(s2),
                                  Constant(0.1).radial_axis(s2))


@pytest.mark.parametrize("field", [
    SphereBubble(1.0), SphereBubble(10.0), SphereBubble(1000.0),
    Sum((SphereBubble(10.0), Constant(0.7))), Sum((SphereBubble(2.0), SphereBubble(5.0))), Constant(0.3),
], ids=["bubble1", "bubble10", "bubble1000", "scaled", "sum", "constant"])
def test_profile_derivatives_match_central_differences(field):
    # near both ends of [0, pi] and on both sides of pi/2
    theta = np.array([0.2, 0.9, np.pi / 2 - 0.01, np.pi / 2, np.pi / 2 + 0.01, 2.2, 2.9])
    h = 1e-4
    f, fp, fpp = field.profile(theta)
    lo, hi = field.profile(theta - h)[0], field.profile(theta + h)[0]
    np.testing.assert_allclose(fp, (hi - lo) / (2 * h), rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(fpp, (hi - 2 * f + lo) / h**2, rtol=1e-5, atol=1e-5)


def test_empty_sum_rejected(torus2):
    from conflab.manifold import lattice
    from conflab.metric import build_graph

    pts = lattice(torus2, 0.3)
    with pytest.raises(InputError, match="at least one field"):
        build_graph(torus2, pts, 3 * pts.spacing, Sum(()))
    with pytest.raises(InputError, match="at least one field"):
        total_mass(torus2, Sum(()), 1000)


def test_grid_io_roundtrip(tmp_path, torus2):
    box = Manifold.box([[-1.0, 2.0], [0.5, 1.25]])
    uneven = Manifold.torus(2, [2.2, 5.0])
    cusp = LogCusp((0.3, 0.9), 0.4)
    for k, (m, field) in enumerate([(torus2, BuragoTorus(1)), (box, cusp), (uneven, Constant(0.1))]):
        g = grid_from_field(m, field, (16, 24))
        path = tmp_path / f"grid{k}.json"
        write_grid(g, path)
        g2 = read_grid(path)
        assert g2.values.tobytes() == g.values.tobytes()
        assert g2.shape == g.shape == (16, 24)
        assert g2.manifold.kind == m.kind
        if m.kind == "torus":
            assert g2.manifold.periods.tobytes() == m.periods.tobytes()
        else:
            assert g2.manifold.extents.tobytes() == m.extents.tobytes()


@pytest.mark.parametrize(
    "edit, words",
    [
        (lambda path: path.write_text(path.read_text().replace('"f64le"', '"f32be"')), None),
        (lambda path: path.write_text(path.read_text().replace('"row-major"', '"column-major"')),
         None),
        (lambda path: path.write_text(path.read_text()[:-2]), None),
        (lambda path: path.with_suffix(".bin").unlink(), None),
        (lambda path: path.with_suffix(".bin").write_bytes(path.with_suffix(".bin").read_bytes()[:-8]),
         None),
        (lambda path: path.write_text(path.read_text().replace('"torus"', '"sphere"')),
         "kind 'sphere' not supported"),
    ],
    ids=["f32be", "column-major", "truncated-manifest", "missing-payload", "truncated-payload",
         "sphere-kind"],
)
def test_grid_io_rejects_other_layouts(tmp_path, torus2, edit, words):
    path = tmp_path / "grid.json"
    write_grid(grid_from_field(torus2, Constant(0.1), (8, 8)), path)
    edit(path)
    with pytest.raises(FormatError, match=words):
        read_grid(path)


def test_grid_io_unknown_field_name(tmp_path, torus2):
    import json

    g = grid_from_field(torus2, Constant(0.1), (8, 8))
    path = tmp_path / "grid.json"
    write_grid(g, path)
    doc = json.loads(path.read_text())
    doc["field"] = "weight"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as exc:
        read_grid(path)
    assert "logf" in str(exc.value)


def test_grid_interpolation_accuracy(torus2, rng):
    g = grid_from_field(torus2, BuragoTorus(1), (64, 64))
    pts = rng.random((500, 2)) * 2 * np.pi
    truth = BuragoTorus(1).eval_many(torus2, pts)
    lin = GridWeight(g, 1).eval_many(torus2, pts)
    cub = GridWeight(g, 3).eval_many(torus2, pts)
    assert np.abs(lin - truth).max() < 1e-3
    assert np.abs(cub - truth).max() < 1e-5


def test_cubic_grid_reproduces_quadratics_up_to_box_faces(rng):
    box = Manifold.box([[0.0, 1.0], [-1.0, 2.0]])
    quadratic = lambda p: 1.0 + p[:, 0] - 2.0 * p[:, 1] + 3.0 * p[:, 0] * p[:, 1] - p[:, 1] ** 2
    shape = (9, 13)
    nodes = GridField(manifold=box, values=np.zeros(shape)).nodes()
    g = GridField(manifold=box, values=quadratic(nodes).reshape(shape))
    near_faces = np.array(
        [[0.0, 0.0], [0.03, -1.0], [1.0, 1.97], [0.5, 2.0], [-1e-3, 0.4], [1.001, -1.001]]
    )
    pts = np.vstack([near_faces, rng.random((50, 2)) * [1.0, 3.0] - [0.0, 1.0]])
    cub = GridWeight(g, 3).eval_many(box, pts)
    assert np.abs(cub - quadratic(pts)).max() <= 1e-12


def _row_major_gather(vals, idx_list, torus):
    """The per-axis index loop GridWeight._gather had before ravel_multi_index."""
    flat = np.zeros(idx_list[0].shape, dtype=int)
    for a, size in enumerate(vals.shape):
        ia = np.mod(idx_list[a], size) if torus else np.clip(idx_list[a], 0, size - 1)
        flat = flat * size + ia
    return vals.ravel()[flat]


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("kind", ["torus", "box"])
def test_gather_is_the_row_major_loop(kind, order, rng):
    m = Manifold.torus(3, [1.0, 2.0, 3.0]) if kind == "torus" else Manifold.box([[0, 1]] * 3)
    w = GridWeight(GridField(m, rng.normal(size=(5, 7, 4))), order)
    idx = list(rng.integers(-30, 30, size=(3, 200)))
    vals, pad = (w._ghosted, 2) if (kind, order) == ("box", 3) else (w.grid.values, 0)
    want = _row_major_gather(vals, [i + pad for i in idx], kind == "torus")
    assert w._gather(idx).tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [1, 3])
def test_grid_weight_reads_a_tiny_negative_as_zero(order, rng):
    # np.mod(-1e-17, 2.2) rounds up to 2.2, which over h = 2.2 / 7 fell just
    # short of node 7 = node 0 and interpolated from the far side of the cell
    m = Manifold.torus(2, [2.2, 2.2])
    w = GridWeight(GridField(m, rng.normal(size=(7, 7))), order)
    at = w.eval_many(m, np.array([[-1e-17, 0.3], [0.0, 0.3]]))
    assert at[0].tobytes() == at[1].tobytes()


def test_grid_on_sphere_rejected(sphere2):
    with pytest.raises(InputError):
        GridField(manifold=sphere2, values=np.zeros((8, 8)))


def test_grid_io_unknown_manifest_key(tmp_path, torus2):
    import json

    from conflab.weight import WeightField, grid_from_field

    g = grid_from_field(torus2, Constant(0.1), (8, 8))
    path = tmp_path / "grid.json"
    write_grid(g, path)
    doc = json.loads(path.read_text())
    doc["surprise"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as exc:
        read_grid(path)
    assert "expected" in str(exc.value)


class _HalfInfinite(__import__("conflab.weight", fromlist=["WeightField"]).WeightField):
    """Test helper: infinite on half the torus, far beyond the 0.1% allowance.
    Its derivatives are zero, so its curvature e^{-2f} * 0 is finite."""

    def eval_many(self, m, x):
        return np.where(x[:, 0] < np.pi, np.inf, 0.0)

    def grad_lap_many(self, m, x):
        return np.zeros_like(x), np.zeros(x.shape[0])


@pytest.mark.parametrize(
    "mass",
    [
        lambda m, f: mu_f_ball(m, f, whole_manifold_ball(m), budget=2000, seed=1),
        lambda m, f: total_mass(m, f, budget=2000, seed=1),
        lambda m, f: weak_star_test(m, [("half", f)], ["1"]),
        lambda m, f: isoperimetric_ratio(
            m, f, [BoxDomain((2.5, 1.0), (3.5, 2.0))], seed=1
        ),
        lambda m, f: lp_scal_norm(m, f, whole_manifold_ball(m), 1.0, seed=1),
        lambda m, f: _box_boundary_quadrature(m, f, BoxDomain((2.5, 1.0), (3.5, 2.0))),
        lambda m, f: _ball_boundary_quadrature(m, f, BallSpec(np.array([np.pi, 1.5]), 0.5)),
    ],
    ids=["mu_f_ball", "total_mass", "weak_star_test",
         "isoperimetric_box", "lp_scal_norm", "box_perimeter", "ball_perimeter"],
)
def test_mu_f_ball_nonfinite_excess(torus2, mass):
    from conflab.errors import IntegrationError

    with pytest.raises(IntegrationError):
        mass(torus2, _HalfInfinite())


@pytest.mark.parametrize("nans", [0, 1, 2])
def test_mc_integral_averages_the_finite_values(nans):
    vals = np.random.default_rng(5).lognormal(size=1000)
    vals[[417, 803][:nans]] = np.nan
    if nans > 1:  # 2 of 1000 is over the 0.1% allowance
        with pytest.raises(IntegrationError):
            _mc_integral(vals, 2.5, "values", 0.01)
        return
    good = vals[np.isfinite(vals)]
    mean = float(good.mean())
    se = 2.5 * float(good.std(ddof=1)) / np.sqrt(good.size)
    assert _mc_integral(vals, 2.5, "values", 0.01) == (2.5 * mean, float(np.hypot(mean * 0.01, se)))


def test_burago_needs_whole_turns_across_the_seam():
    m = Manifold.torus(2, [3.0, 3.0])
    f = BuragoTorus(1)
    # on this torus the field jumps across the seam x1 = 3 ~ 0
    seam = f.eval_many(m, np.array([[0.0, 1.0], [np.nextafter(3.0, 0.0), 1.0]]))
    assert seam[0] == pytest.approx(-0.347, abs=1e-3) and seam[1] == pytest.approx(0.201, abs=1e-3)
    with pytest.raises(InputError, match="integer"):
        f.validate(m)
    BuragoTorus(2).validate(Manifold.torus(2, [np.pi, 3.0]))
    BuragoTorus(1).validate(Manifold.torus(2, [4 * np.pi, 3.0]))


def test_mu_f_ball_cut_ball_error_bar(torus2):
    box = Manifold.box([[0.0, 1.0], [0.0, 1.0]])
    v, se = mu_f_ball(box, Constant(0.0), BallSpec(np.array([0.1, 0.0]), 0.1))
    assert se > 0
    assert abs(v - np.pi * 0.01 / 2) <= 3 * se
    # closed-form volumes add no error: the sample error alone, as before
    for m, f, b in (
        (box, Constant(0.0), BallSpec(np.array([0.5, 0.5]), 0.1)),
        (torus2, BuragoTorus(1), BallSpec(np.ones(2), 0.8)),
    ):
        _, se = mu_f_ball(m, f, b, budget=2000, seed=4)
        pts, w, vol_se = sample_ball(m, b, 2000, 4)
        vals = np.exp(2 * f.eval_many(m, pts))
        assert vol_se == 0.0
        assert se == float(w.sum()) * float(vals.std(ddof=1)) / np.sqrt(vals.size)


def _box_grid(shape):
    return GridField(Manifold.box([[0.0, 1.0], [0.0, 1.0]]), np.zeros(shape))


@pytest.mark.parametrize(
    "call, words",
    [
        (lambda t2: BuragoTorus(0).validate(t2), "positive integer"),
        (lambda t2: mu_f_ball(t2, BuragoTorus("a"), BallSpec(np.ones(2), 0.5), 1000),
         "positive integer"),
        (lambda t2: mu_f_ball(t2, Constant(0.0), BallSpec(np.zeros(3), 1.0), 1000),
         "ambient dimension 2"),
        # the colatitude rule never samples, so ball_integral checks the ball too
        (lambda t2: mu_f_ball(Manifold.sphere(3), SphereBubble(2.0), BallSpec(np.zeros(3), 1.0), 1000),
         "ambient dimension 4"),
        (lambda t2: GridField(t2, np.full((8, 8), np.nan)), "must be finite"),
        (lambda t2: GridWeight(_box_grid((8, 8))).validate(t2), "does not match"),
        (lambda t2: GridWeight(GridField(t2, np.zeros((8, 8))), order=2).validate(t2),
         "order must be 1 or 3"),
        (lambda t2: GridWeight(_box_grid((2, 8)), order=3).validate(_box_grid((2, 8)).manifold),
         ">= 3 nodes per axis"),
        (lambda t2: LogCusp((1.0, 1.0), np.nan), "r0 must be positive and finite"),
        (lambda t2: LogCusp((1.0, 1.0), 0.5, np.nan), "cap must be positive"),
        (lambda t2: LogCusp((1.0, 1.0), "a"), "LogCusp radius r0 must be numbers"),
        (lambda t2: LogCusp((1.0, 1.0), 0.5, "a"), "LogCusp cap must be numbers"),
        # None is the uncapped cusp, so an infinite cap is refused
        (lambda t2: LogCusp((1.0, 1.0), 0.5, np.inf), "LogCusp cap must be positive and finite"),
        (lambda t2: LogCusp(("a", 1.0), 0.5), "LogCusp centre x0 must be numbers"),
        (lambda t2: LogCusp(1.0, 0.5), "LogCusp centre x0 must be a list of coordinates"),
        (lambda t2: SphereBubble("a"), "SphereBubble dilation lam must be numbers"),
        (lambda t2: SphereBubble(2.0, pole=("a", 0.0, 1.0)), "SphereBubble pole must be numbers"),
        (lambda t2: SphereBubble(2.0, pole=1.0), "SphereBubble pole must be a list of coordinates"),
        (lambda t2: total_mass(t2, BuragoTorus(1), 1), "sample count of at least 2"),
        (lambda t2: total_mass(t2, BuragoTorus(1), np.nan), "integer sample count"),
        (lambda t2: total_mass(t2, BuragoTorus(1), 2.5), "integer sample count"),
        (lambda t2: mu_f_ball(t2, BuragoTorus(1), whole_manifold_ball(t2), budget=np.nan),
         "budget must be >= 100 and an integer"),
        (lambda t2: mu_f_ball(t2, BuragoTorus(1), whole_manifold_ball(t2), budget=2000.5),
         "budget must be >= 100 and an integer"),
        (lambda t2: mu_f_ball(t2, BuragoTorus(1), BallSpec(np.ones(2), 0.5), 1000, seed="x"),
         "seed must be an integer"),
        # a fraction used to run as its integer part
        (lambda t2: total_mass(t2, BuragoTorus(1), 1000, 1.5), "seed must be an integer"),
        # the colatitude rule draws nothing, so ball_integral checks the seed too
        (lambda t2: mu_f_ball(Manifold.sphere(2), SphereBubble(2.0), BallSpec([0, 0, 1], 0.5), 1000, seed="x"),
         "seed must be an integer"),
        (lambda t2: total_mass(Manifold.sphere(2), SphereBubble(2.0), 1000, seed=None), "seed must be an integer"),
    ],
    ids=["burago-ell-0", "burago-ell-text", "ball-center-3-on-2-torus", "ball-center-3-on-3-sphere",
         "nan-grid", "grid-manifold-kind", "grid-order-2", "cubic-box-2-nodes",
         "log-cusp-nan-r0", "log-cusp-nan-cap", "log-cusp-text-r0", "log-cusp-text-cap",
         "log-cusp-inf-cap", "log-cusp-text-x0", "log-cusp-scalar-x0", "bubble-text-lam", "bubble-text-pole",
         "bubble-scalar-pole", "total-mass-one-sample", "total-mass-nan-budget",
         "total-mass-fractional-budget", "ball-nan-budget", "ball-fractional-budget", "ball-text-seed",
         "total-mass-fractional-seed", "colatitude-ball-text-seed", "colatitude-total-mass-no-seed"],
)
def test_weights_reject_bad_inputs(torus2, call, words):
    with pytest.raises(InputError, match=words):
        call(torus2)
