import numpy as np
import pytest
from scipy.spatial import cKDTree

from conflab.errors import GeometryError, InputError, ResourceError
from conflab.manifold import (
    BallSpec,
    Manifold,
    PointSet,
    cap_volume,
    d0,
    d0_many,
    geodesic_points,
    lattice,
    midpoint,
    mu0_ball,
    mu0_ball_detail,
    sample_ball,
    sample_manifold,
    unit_ball_volume,
    whole_manifold_ball,
)

N_POLE = np.array([0.0, 0.0, 1.0])
S_POLE = np.array([0.0, 0.0, -1.0])


def test_d0_torus_half_period(torus2):
    assert d0(torus2, (0.0, 0.0), (np.pi, 0.0)) == pytest.approx(np.pi, abs=1e-14)


def test_d0_torus_wraparound(torus2):
    assert d0(torus2, (0.1, 0.0), (2 * np.pi - 0.1, 0.0)) == pytest.approx(0.2, abs=1e-12)


def test_canonicalize_strictly_below_period(torus2):
    # np.mod(-1e-17, 2 pi) rounds up to 2 pi itself
    x = np.array([[-1e-17, 0.5], [-1e-300, 4 * np.pi], [2 * np.pi, -0.0]])
    y = torus2.canonicalize(x)
    assert np.all(y >= 0.0) and np.all(y < torus2.periods)
    assert np.all(d0_many(torus2, x, y) <= 1e-15)


def test_d0_sphere_antipodal(sphere2):
    assert d0(sphere2, N_POLE, S_POLE) == pytest.approx(np.pi, abs=1e-14)


def test_d0_dimension_mismatch(torus2):
    with pytest.raises(InputError):
        d0(torus2, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def test_triangle_inequality_exact(torus3, sphere3, rng):
    x = rng.random((300, 3)) * 2 * np.pi
    a, b, c = x[:100], x[100:200], x[200:]
    gap = d0_many(torus3, a, c) - d0_many(torus3, a, b) - d0_many(torus3, b, c)
    assert gap.max() <= 1e-12
    g = rng.standard_normal((300, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    gap = (
        d0_many(sphere3, g[:100], g[200:])
        - d0_many(sphere3, g[:100], g[100:200])
        - d0_many(sphere3, g[100:200], g[200:])
    )
    assert gap.max() <= 1e-12


def test_mu0_ball_euclidean_disc(torus2):
    assert mu0_ball(torus2, BallSpec(np.zeros(2), 0.5)) == pytest.approx(np.pi * 0.25, rel=1e-14)


def test_mu0_ball_exact_power(torus3):
    for r in (0.2, 0.5, 1.0):
        got = mu0_ball(torus3, BallSpec(np.zeros(3), r))
        assert got == pytest.approx(unit_ball_volume(3) * r**3, rel=1e-14)


def test_geodesic_points_strictly_below_period(torus2):
    # the first point of a segment that wraps below zero is -1e-17 * 0.3
    g = geodesic_points(torus2, np.array([[0.0, 1.0]]), np.array([[2 * np.pi - 0.3, 1.0]]), [1e-17])
    assert np.all(g >= 0.0) and np.all(g < torus2.periods)
    assert np.array_equal(g[0], [[0.0, 1.0]])


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_cap_volume_closed_forms(radius):
    # written with 1 - cos t = 2 sin^2(t/2), which does not cancel for small t
    closed = {
        2: lambda t: 4 * np.pi * np.sin(t / 2) ** 2,
        3: lambda t: np.pi * (2 * t - np.sin(2 * t)),
        4: lambda t: 8 * np.pi**2 * np.sin(t / 2) ** 4 * (2 + np.cos(t)) / 3,
    }
    for n, vol in closed.items():
        m = Manifold.sphere(n, radius)
        for t in (0.1, 0.5, 1.0, np.pi / 2, 2.0, 3.0, np.pi):
            assert abs(cap_volume(m, t * radius) / (radius**n * vol(t)) - 1) <= 1e-13
        assert cap_volume(m, 10.0 * radius) == pytest.approx(m.volume, rel=1e-13)


def test_mu0_hemisphere_and_full(sphere2):
    assert mu0_ball(sphere2, BallSpec(N_POLE, np.pi / 2)) == pytest.approx(2 * np.pi, rel=1e-9)
    assert mu0_ball(sphere2, BallSpec(N_POLE, np.pi)) == pytest.approx(4 * np.pi, rel=1e-9)
    assert mu0_ball(sphere2, BallSpec(N_POLE, 5.0)) == pytest.approx(4 * np.pi, rel=1e-9)


def test_mu0_monotone_in_radius(torus2, sphere2):
    radii = np.linspace(0.1, 4.0, 15)
    vt = [mu0_ball(torus2, BallSpec(np.ones(2), r), budget=40_000, seed=3) for r in radii]
    assert np.all(np.diff(vt) >= -1e-9 * max(vt))
    vs = [cap_volume(sphere2, r) for r in radii]
    assert np.all(np.diff(vs) >= 0)


def test_mu0_large_radius_monte_carlo(torus2):
    # radius beyond half period: Monte Carlo fallback with reported error
    val, se = mu0_ball_detail(torus2, BallSpec(np.zeros(2), 3.5), budget=200_000, seed=5)
    disc = np.pi * 3.5**2  # would exceed the true clipped area
    assert se > 0
    assert val < disc
    assert val < torus2.volume


def test_midpoint_torus(torus2):
    assert np.allclose(midpoint(torus2, np.zeros(2), np.array([1.0, 0.0])), [0.5, 0.0])


def test_midpoint_sphere_45deg(sphere2):
    mid = midpoint(sphere2, N_POLE, np.array([1.0, 0.0, 0.0]))
    assert d0(sphere2, N_POLE, mid) == pytest.approx(np.pi / 4, abs=1e-12)


def test_midpoint_antipodal_error(sphere2):
    with pytest.raises(GeometryError):
        midpoint(sphere2, N_POLE, S_POLE)


def test_midpoint_invariants(torus2, sphere2, rng):
    for m, pts in (
        (torus2, rng.random((40, 2)) * 2 * np.pi),
        (sphere2, rng.standard_normal((40, 3))),
    ):
        if m.kind == "sphere":
            pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        for x, y in zip(pts[:20], pts[20:]):
            if d0(m, x, y) < 1e-6 or (m.kind == "sphere" and d0(m, x, y) > 3.0):
                continue
            mid = midpoint(m, x, y)
            assert abs(d0(m, x, mid) - d0(m, mid, y)) <= 1e-10
            assert abs(d0(m, x, mid) - d0(m, x, y) / 2) <= 1e-10


def test_lattice_counts(torus2):
    assert len(lattice(torus2, np.pi / 2)) == 16
    box = Manifold.box([[0.0, 1.0], [0.0, 1.0]])
    assert len(lattice(box, 0.5)) == 9


@pytest.mark.parametrize(
    "center, radius",
    [([np.nan, 1.0], 0.5), ([0.0, -np.inf], 0.5), ([0.0, 1.0], np.nan), ([0.0, 1.0], np.inf)],
)
def test_ball_spec_rejects_non_finite(center, radius):
    # nan <= 0 is False, so a nan radius used to pass the positivity check
    with pytest.raises(InputError):
        BallSpec(np.asarray(center), radius)


@pytest.mark.parametrize("x", [[np.nan, 1.0], [1.0, np.inf]])
def test_nearest_rejects_non_finite(torus2, x):
    # the torus wrap sends nan to 0, which used to snap [nan, 1] to node 1
    grid = lattice(torus2, 0.5)
    for pts in (grid, PointSet(grid.points, grid.spacing)):
        with pytest.raises(InputError):
            pts.nearest(torus2, x)


def test_lattice_budget_error(torus2):
    with pytest.raises(ResourceError) as exc:
        lattice(torus2, 1e-4)
    assert "budget" in str(exc.value)


def test_sphere_lattice_layout(sphere2):
    from conflab.manifold import SPHERE_LAYOUT_CONSTANT

    spacing = 0.1
    ps = lattice(sphere2, spacing)
    expect = 4 * np.pi / (spacing**2 * SPHERE_LAYOUT_CONSTANT[2])
    assert 0.5 * expect <= len(ps) <= 2.0 * expect
    tree = cKDTree(ps.points)
    dd, _ = tree.query(ps.points, k=2)
    nn = 2 * np.arcsin(np.clip(dd[:, 1] / 2, 0, 1))
    assert nn.min() >= 0.5 * spacing
    assert nn.max() <= 2.0 * spacing


def test_sphere3_lattice_nn(sphere3):
    spacing = 0.3
    ps = lattice(sphere3, spacing)
    tree = cKDTree(ps.points)
    dd, _ = tree.query(ps.points, k=2)
    nn = 2 * np.arcsin(np.clip(dd[:, 1] / 2, 0, 1))
    assert nn.min() >= 0.5 * spacing
    assert nn.max() <= 2.0 * spacing


def test_sample_ball_weights_sum(torus2, sphere2):
    for m, center in ((torus2, np.zeros(2)), (sphere2, N_POLE)):
        b = BallSpec(center, 0.5)
        pts, w, _ = sample_ball(m, b, 5000, seed=2)
        assert w.sum() == pytest.approx(mu0_ball(m, b), rel=1e-12)
        assert np.all(d0_many(m, pts, center) <= 0.5 + 1e-12)


def test_sample_ball_deterministic(torus2):
    b = BallSpec(np.zeros(2), 0.5)
    p1, w1, _ = sample_ball(torus2, b, 1000, seed=9)
    p2, w2, _ = sample_ball(torus2, b, 1000, seed=9)
    assert np.array_equal(p1, p2)
    assert np.array_equal(w1, w2)


def test_sample_ball_symmetric_mean(torus2):
    b = BallSpec(np.zeros(2), 0.5)
    n = 10**5
    pts, _, _ = sample_ball(torus2, b, n, seed=12)
    signed = np.mod(pts[:, 0] + np.pi, 2 * np.pi) - np.pi
    # mean of a coordinate over a symmetric disc: 0 within 3 sigma
    assert abs(signed.mean()) <= 3 * b.radius / np.sqrt(n)


def test_covering_ball_samples_the_whole_manifold():
    # the covering ball of an elongated box holds 2.4e-5 of its disc draws
    box = Manifold.box([[0.0, 100.0], [0.0, 1.0], [0.0, 1.0]])
    for m in (box, Manifold.torus(3), Manifold.sphere(2)):
        b = whole_manifold_ball(m)
        pts, w, se = sample_ball(m, b, 1000, seed=3)
        assert pts.shape == (1000, m.ambient_dim) and se == 0.0
        assert w.sum() == pytest.approx(m.volume, rel=1e-12)
        assert np.all(d0_many(m, pts, b.center) <= b.radius)
        assert mu0_ball_detail(m, b) == (m.volume, 0.0)
    pts, _, _ = sample_ball(box, whole_manifold_ball(box), 1000, seed=3)
    assert np.all((pts >= box.extents[:, 0]) & (pts <= box.extents[:, 1]))


def test_sample_manifold_uniform(sphere3):
    pts, w = sample_manifold(sphere3, 2000, seed=4)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert w.sum() == pytest.approx(sphere3.volume, rel=1e-12)


def test_point_validation(sphere2):
    with pytest.raises(InputError):
        sphere2.check_points(np.array([0.0, 0.0, 1.0 + 1e-9]))
    # exactly unit is fine
    sphere2.check_points(N_POLE)
