import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conflab.curvature import pinching_profile
from conflab.errors import GeometryError, InputError, ResourceError
from conflab.manifold import (
    BallSpec,
    Manifold,
    PointSet,
    _cap_rule,
    _closed_form_volume,
    _sphere_angle,
    cap_quadrature,
    cap_volume,
    d0_many,
    geodesic_points,
    lattice,
    midpoint,
    sample_ball,
    sample_manifold,
    unit_ball_volume,
    whole_manifold_ball,
)
from conflab.rng import derive_rng
from conflab.weight import SphereBubble

N_POLE = np.array([0.0, 0.0, 1.0])
S_POLE = np.array([0.0, 0.0, -1.0])


def d0(m, x, y) -> float:
    """The base distance of two points, each checked by ``m.check_points``."""
    return float(d0_many(m, m.check_points(x)[0], m.check_points(y)[0]))


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


def _sphere_angle_by_linalg_norm(x, y):
    """The sphere angle with np.linalg.norm chords clipped to [0, 1]: the
    sum-of-squares chords clipped at 1 must give the same bits."""
    dot = np.sum(x * y, axis=-1)
    chord = np.linalg.norm(x - y, axis=-1)
    anti = np.linalg.norm(x + y, axis=-1)
    near = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    far = np.pi - 2.0 * np.arcsin(np.clip(anti / 2.0, 0.0, 1.0))
    return np.where(dot >= 0.0, near, far)


def test_sphere_angle_is_the_linalg_norm_angle():
    rng = np.random.default_rng(37)

    def unit(a):
        return a / np.linalg.norm(a, axis=-1, keepdims=True)

    cases = []
    for d in (3, 4, 5):  # the spheres S^2 to S^4
        x, y = unit(rng.standard_normal((2, 500, d)))
        tiny = unit(-x + 1e-9 * rng.standard_normal(x.shape))
        cases += [(x, y), (x, x), (x, -x), (x, tiny)]
    x, y = unit(rng.standard_normal((2, 3)))
    cases.append((x, y))  # one 1-D pair
    x, y = unit(rng.standard_normal((7, 1, 4))), unit(rng.standard_normal((1, 9, 4)))
    cases.append((x, y))  # broadcast to (7, 9)
    for x, y in cases:
        got, ref = _sphere_angle(x, y), _sphere_angle_by_linalg_norm(x, y)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


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
    vol, se = _closed_form_volume(torus2, BallSpec(np.zeros(2), 0.5))
    assert vol == pytest.approx(np.pi * 0.25, rel=1e-14) and se == 0.0


def test_mu0_ball_exact_power(torus3):
    for r in (0.2, 0.5, 1.0):
        got, _ = _closed_form_volume(torus3, BallSpec(np.zeros(3), r))
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "gamma, rb",  # rb: the ball's radius in units of the sphere's
    [
        (0.0, 0.5),  # centred on the axis
        (np.pi - 1e-9, 0.5),  # centred next to the far pole
        (2.5, 1.0),  # a cap that meets the far pole
        (1.0, np.pi),  # the whole sphere
        (0.3, 10.0),  # beyond the whole sphere
    ],
)
def test_cap_rule_cache_is_the_uncached_rule(n, gamma, rb):
    m = Manifold.sphere(n, 1.5)
    fresh = _cap_rule.__wrapped__(n, 1.5, gamma, 1.5 * rb)
    for _ in range(2):  # the second call is a cache hit
        cached = cap_quadrature(m, np.float64(gamma), 1.5 * rb)
        assert [a.tobytes() for a in cached] == [a.tobytes() for a in fresh]


def test_cap_rule_is_read_only(sphere2):
    theta, w = cap_quadrature(sphere2, 0.4, 0.7)
    with pytest.raises(ValueError):
        theta[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert cap_quadrature(sphere2, 0.4, 0.7)[1][0] == w[0]


def test_pinching_sweep_builds_one_rule_per_gamma(sphere3):
    centers = lattice(sphere3, 1.2)
    axis = SphereBubble(1.0).radial_axis(sphere3)
    gammas = {float(d0_many(sphere3, c, axis) / sphere3.radius) for c in centers.points}
    _cap_rule.cache_clear()
    for lam in (2.0, 10.0):  # each ball integrates sup_pos and sup_abs, at both lambdas
        pinching_profile(sphere3, SphereBubble(lam), 0.5, centers, seed=1)
    assert _cap_rule.cache_info().misses == len(gammas)


def test_mu0_hemisphere_and_full(sphere2):
    for r, vol in ((np.pi / 2, 2 * np.pi), (np.pi, 4 * np.pi), (5.0, 4 * np.pi)):
        assert _closed_form_volume(sphere2, BallSpec(N_POLE, r))[0] == pytest.approx(vol, rel=1e-9)


def test_mu0_monotone_in_radius(torus2, sphere2):
    radii = np.linspace(0.1, 4.0, 15)
    vt = [sample_ball(torus2, BallSpec(np.ones(2), r), 40_000, seed=3)[1].sum() for r in radii]
    assert np.all(np.diff(vt) >= -1e-9 * max(vt))
    vs = [cap_volume(sphere2, r) for r in radii]
    assert np.all(np.diff(vs) >= 0)


def test_mu0_large_radius_monte_carlo(torus2):
    # radius beyond half period: Monte Carlo fallback with reported error
    _, w, se = sample_ball(torus2, BallSpec(np.zeros(2), 3.5), 200_000, seed=5)
    val = w.sum()
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
    [([np.nan, 1.0], 0.5), ([0.0, -np.inf], 0.5), ([0.0, 1.0], np.nan), ([0.0, 1.0], np.inf),
     ([0.0, 0.0], "a"), (["a", 0.0], 1.0)],
)
def test_ball_spec_rejects_non_finite(center, radius):
    # nan <= 0 is False, so a nan radius used to pass the positivity check;
    # text used to escape as a TypeError from np.isfinite
    with pytest.raises(InputError):
        BallSpec(np.asarray(center), radius)


@pytest.mark.parametrize("center", [np.zeros(3), np.zeros(1)], ids=["3", "1"])
def test_sample_ball_rejects_a_center_of_another_dimension(torus2, center):
    with pytest.raises(InputError, match="ambient dimension 2"):
        sample_ball(torus2, BallSpec(center, 1.0), 100)


@pytest.mark.parametrize("x, words", [([1.0, 2.0, 3.0], "ambient dimension 2"), ([[1.0, 2.0]], "ambient dimension 2"),
                                      (["a", 2.0], "nearest point must be numbers")],
                         ids=["3-on-2-torus", "2-d", "text"])
def test_nearest_rejects_a_point_of_another_shape(torus2, x, words):
    # a point of 3 coordinates used to fail broadcasting against the nodes
    grid = lattice(torus2, 0.5)
    for pts in (grid, PointSet(grid.points, grid.spacing)):
        with pytest.raises(InputError, match=words):
            pts.nearest(torus2, x)


@pytest.mark.parametrize("x", [[np.nan, 1.0], [1.0, np.inf]])
def test_nearest_rejects_non_finite(torus2, x):
    # the torus wrap sends nan to 0, which used to snap [nan, 1] to node 1
    grid = lattice(torus2, 0.5)
    for pts in (grid, PointSet(grid.points, grid.spacing)):
        with pytest.raises(InputError):
            pts.nearest(torus2, x)


def test_lattice_budget_error(torus2, sphere2):
    for m in (torus2, sphere2):  # one budget check for grids and sphere layouts
        with pytest.raises(ResourceError) as exc:
            lattice(m, 1e-4)
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
        assert w.sum() == pytest.approx(_closed_form_volume(m, b)[0], rel=1e-12)
        assert np.all(d0_many(m, pts, center) <= 0.5 + 1e-12)


def test_sample_ball_deterministic(torus2):
    b = BallSpec(np.zeros(2), 0.5)
    p1, w1, _ = sample_ball(torus2, b, 1000, seed=9)
    p2, w2, _ = sample_ball(torus2, b, 1000, seed=9)
    assert np.array_equal(p1, p2)
    assert np.array_equal(w1, w2)


def _row_major_ball(m, b, count, seed):
    """sample_ball's flat draws, one row per point, wrapped by np.mod: the
    reference for its axis-major placement.  Below n = 5 each round keeps
    the rows v of a uniform block on [-1, 1)^n with |v|^2 < 1 as c + r v;
    from n = 5 on it draws c + r U^{1/n} g/|g| count times."""
    rng = derive_rng(seed, "ball")
    volume = _closed_form_volume(m, b)
    n, c, r = m.dim, np.asarray(b.center, dtype=float), b.radius
    lo, hi = (c - m.periods / 2.0, c + m.periods / 2.0) if m.kind == "torus" else m.extents.T
    cube = unit_ball_volume(n) / 2.0**n
    first = math.ceil((count + 3 * math.sqrt(count) + 1) / cube)
    kept, accepted, drawn = [], 0, 0
    while accepted < count:
        if n <= 4:
            need = count - accepted
            share = cube * accepted / drawn if accepted else cube
            k = min(math.ceil((need + 3 * math.sqrt(need) + 1) / share), first)
            v = rng.uniform(-1.0, 1.0, (n, k)).T
            sq = np.zeros(k)
            for a in range(n):
                sq += v[:, a] ** 2
            pts = r * v[sq < 1.0]
        else:
            pts = rng.standard_normal((count, n))
            pts *= (r * rng.random(count) ** (1.0 / n) / np.sqrt(np.einsum("ij,ij->i", pts, pts)))[:, None]
        drawn += len(pts)
        pts += c
        if volume is None:
            pts = pts[np.all((pts >= lo) & (pts < hi), axis=1)]
        kept.append(pts)
        accepted += len(pts)
    pts = np.concatenate(kept)[:count]
    if m.kind == "torus":
        y = np.mod(pts, m.periods)
        pts = np.where(y < m.periods, y, 0.0)
    if volume is None:
        a, disc = accepted / drawn, unit_ball_volume(n) * b.radius**n
        volume = disc * a, disc * float(np.sqrt(a * (1.0 - a) / drawn))
    return pts, np.full(count, volume[0] / count), volume[1]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize(
    "kind, center, radius",
    [("torus", 3.0, 1.0), ("torus", 0.0, 1.0), ("torus", 1.0, 3.5), ("box", 0.2, 0.5)],
    ids=["torus-inside", "torus-seams", "torus-rejection", "box-face"],
)
def test_sample_ball_is_the_row_major_draw(n, kind, center, radius):
    m = Manifold.torus(n) if kind == "torus" else Manifold.box([[0.0, 1.0]] * n)
    b = BallSpec(np.full(n, center), radius)
    count = 1237
    pts, w, se = sample_ball(m, b, count, seed=17)
    want_pts, want_w, want_se = _row_major_ball(m, b, count, 17)
    assert pts.shape == (count, n)
    assert np.ascontiguousarray(pts).tobytes() == want_pts.tobytes()
    assert w.tobytes() == want_w.tobytes() and se == want_se


def _uniform_block_ball(m, b, count, seed):
    """sample_ball's flat draws as they were before its cube was drawn by
    rng.random: rounds of rng.uniform(-1, 1, (n, k)) blocks below n = 5,
    the same axis-major loop, and the np.mod wrap.  The reference for its
    2u - 1 cube and one-sided wrap."""
    rng = derive_rng(seed, "ball")
    volume = _closed_form_volume(m, b)
    n, c, r = m.dim, np.asarray(b.center, dtype=float), b.radius
    whole = volume is not None
    lo, hi = (c - m.periods / 2.0, c + m.periods / 2.0) if m.kind == "torus" else m.extents.T
    cube = unit_ball_volume(n) / 2.0**n
    first = math.ceil((count + 3.0 * math.sqrt(count) + 1.0) / cube)
    kept, accepted, drawn = [], 0, 0
    while accepted < count:
        if n <= 4:
            need = count - accepted
            share = cube * accepted / drawn if accepted else cube
            k = min(math.ceil((need + 3.0 * math.sqrt(need) + 1.0) / share), first)
            v = rng.uniform(-1.0, 1.0, (n, k))
            sq = v[0] * v[0]
            for a in range(1, n):
                sq += v[a] * v[a]
            cols = np.compress(sq < 1.0, v, axis=1)
            cols *= r
        else:
            g = rng.standard_normal((count, n))
            rad = r * rng.random(count) ** (1.0 / n) / np.sqrt(np.einsum("ij,ij->i", g, g))
            cols = g.T.copy()
            cols *= rad
        drawn += cols.shape[1]
        cols += c[:, None]
        if not whole:
            inside = ((cols >= lo[:, None]) & (cols < hi[:, None])).all(axis=0)
            cols = np.compress(inside, cols, axis=1)
        kept.append(cols)
        accepted += cols.shape[1]
    pts = np.concatenate(kept, axis=1)[:, :count].T
    if m.kind == "torus":
        y = np.mod(pts, m.periods)
        pts = np.where(y < m.periods, y, 0.0)
    if volume is None:
        a, disc = accepted / drawn, unit_ball_volume(n) * b.radius**n
        volume = disc * a, disc * float(np.sqrt(a * (1.0 - a) / drawn))
    return pts, np.full(count, volume[0] / count), volume[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "kind, center, radius",
    [("torus", 3.0, 1.0), ("torus", 0.0, 1.0), ("torus", "below p", 1.0), ("torus", 0.0, 3.5),
     ("box", 0.5, 0.3), ("box", 0.0, 0.5), ("box", "below p", 0.5)],
    ids=["torus-whole", "torus-wraps-at-0", "torus-wraps-below-p", "torus-rejection",
         "box-whole", "box-face-at-0", "box-face-below-hi"],
)
def test_sample_ball_is_the_uniform_block_draw(n, kind, center, radius):
    """Bit for bit the rng.uniform cube and np.mod wrap it replaced, on
    whole, wrapping and face-cut balls centered at 0 and one ulp below the
    period (or the box's upper face)."""
    m = Manifold.torus(n) if kind == "torus" else Manifold.box([[0.0, 1.0]] * n)
    top = 2 * np.pi if kind == "torus" else 1.0
    c = np.nextafter(top, 0.0) if center == "below p" else center
    b = BallSpec(np.full(n, c), radius)
    pts, w, se = sample_ball(m, b, 1237, seed=23)
    want_pts, want_w, want_se = _uniform_block_ball(m, b, 1237, 23)
    assert np.ascontiguousarray(pts).tobytes() == np.ascontiguousarray(want_pts).tobytes()
    assert w.tobytes() == want_w.tobytes() and se == want_se


def test_midpoint_over_rows_is_the_rows_one_by_one(torus2, sphere2, rng):
    box = Manifold.box([[0.0, 1.0], [-0.5, 2.0], [1.0, 1.5]])
    sphere3 = Manifold.sphere(3, 0.7)
    for m in (torus2, Manifold.torus(3), box, sphere2, sphere3):
        x, y = (rng.standard_normal((25, m.ambient_dim)) for _ in range(2))
        if m.kind == "sphere":
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            y /= np.linalg.norm(y, axis=1, keepdims=True)
        else:
            x, y = (m.canonicalize(v) if m.kind == "torus" else v for v in (x, y))
        mids = midpoint(m, x, y)
        assert mids.shape == x.shape
        for xk, yk, mk in zip(x, y, mids):
            assert midpoint(m, xk, yk).tobytes() == mk.tobytes()
        for bad in (x[3], -x[3] if m.kind == "sphere" else None):
            if bad is None:
                continue
            rows = y.copy()
            rows[7] = bad  # row 7 coincides with, or on a sphere is antipodal to, x[3]
            with pytest.raises(GeometryError):
                midpoint(m, x[3], rows)
            with pytest.raises(GeometryError):
                midpoint(m, np.broadcast_to(x[3], x.shape), rows)


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


@pytest.mark.parametrize("count", [0, -3, np.nan, 2.5])
def test_sample_manifold_needs_a_sample(torus2, count):
    # no sample used to end in a ZeroDivisionError in the weights, and NaN
    # or a fraction in a TypeError
    with pytest.raises(InputError, match="sample count must be >= 1"):
        sample_manifold(torus2, count)


@pytest.mark.parametrize(
    "call",
    [lambda m: sample_manifold(m, 100, "x"), lambda m: sample_ball(m, BallSpec(np.ones(2), 0.5), 100, seed=None)],
    ids=["manifold-text-seed", "ball-none-seed"],
)
def test_sampling_rejects_a_seed_that_is_no_integer(torus2, call):
    # text used to escape as a ValueError, and None as a TypeError
    with pytest.raises(InputError, match="seed must be an integer"):
        call(torus2)


@pytest.mark.parametrize(
    "build, words",
    [
        (lambda: Manifold.torus(1), "dimension must be >= 2"),
        (lambda: Manifold.torus(2, [1.0]), "periods must be a positive vector"),
        (lambda: Manifold.box([[0, 1]]), r"\(n, 2\) array with n >= 2"),
        (lambda: Manifold.box([[0, 1], [1, 1]]), "hi > lo"),
        (lambda: Manifold.sphere(5), "dimension must be in"),
        (lambda: Manifold.sphere(2, 0.0), "radius must be positive"),
        (lambda: Manifold.torus(2, [np.inf, 1.0]), "finite entries"),
        (lambda: Manifold.box([[0, np.inf], [0, 1]]), "extents must be finite"),
        (lambda: Manifold.sphere(2, np.nan), "radius must be positive and finite"),
        (lambda: Manifold.torus(2, ["a", 1.0]), "torus periods must be numbers"),
        (lambda: Manifold.box([["a", 1], [0, 1]]), "box extents must be numbers"),
        (lambda: Manifold.sphere(2, "a"), "sphere radius must be numbers"),
        (lambda: Manifold.torus("a"), "dimension must be >= 2 and an integer"),
        (lambda: Manifold.sphere(2.0), "dimension must be in"),
        (lambda: Manifold.sphere("a"), "dimension must be in"),
    ],
    ids=["torus-dim-1", "torus-periods", "box-1d", "box-flat-axis", "sphere-dim-5",
         "sphere-radius-0", "torus-inf-period", "box-inf-extent", "sphere-nan-radius",
         "torus-text-period", "box-text-extent", "sphere-text-radius", "torus-text-dim",
         "sphere-float-dim", "sphere-text-dim"],
)
def test_manifold_constructors_reject_bad_arguments(build, words):
    with pytest.raises(InputError, match=words):
        build()


def test_lattice_rejects_nan_spacing(torus2):
    # NaN passed the positivity test and failed converting a node count to int
    with pytest.raises(InputError, match="spacing must be positive"):
        lattice(torus2, np.nan)


@pytest.mark.parametrize(
    "spacing, words",
    [("a", "lattice spacing must be numbers"), (np.inf, "spacing must be positive and finite")],
    ids=["text", "inf"],
)
def test_lattice_rejects_a_spacing_that_is_no_finite_number(torus2, spacing, words):
    # text failed comparing with 0, and an infinite spacing gave one node
    with pytest.raises(InputError, match=words):
        lattice(torus2, spacing)
