"""Property tests: the flat-ball sampler, the torus wrap, the d0 metric
axioms and the e^{nc} scaling of sphere ball masses.

Hypothesis runs derandomized, so every run of the suite checks the same
examples.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conflab.manifold import (
    BallSpec,
    Manifold,
    d0,
    d0_many,
    mu0_ball_detail,
    sample_ball,
    torus_delta,
    unit_ball_volume,
)
from conflab.weight import Scaled, SphereBubble, mu_f_ball

PROPS = settings(derandomize=True, max_examples=40, deadline=None)

TORUS2 = Manifold.torus(2)
TORUS3 = Manifold.torus(3)
UNIT_BOX = Manifold.box([[0.0, 1.0], [0.0, 1.0]])
FLAT = {"torus2": TORUS2, "torus3": TORUS3, "box": UNIT_BOX}
METRIC = {
    "torus2": TORUS2,
    "torus3": TORUS3,
    "box": Manifold.box([[0.0, 1.0], [-0.5, 2.0], [1.0, 1.5]]),
    "sphere2": Manifold.sphere(2),
    "sphere3": Manifold.sphere(3, 0.7),
}

seeds = st.integers(0, 2**32 - 1)
unit = st.floats(0.0, 1.0, exclude_max=True)


def _in_manifold(m, pts):
    if m.kind == "torus":
        return np.all((pts >= 0.0) & (pts < m.periods))
    return np.all((pts >= m.extents[:, 0]) & (pts <= m.extents[:, 1]))


def _wrapped_disc_area(r):
    # disc of radius pi < r < pi sqrt(2) on the 2pi-torus: the square minus
    # four disjoint circular segments at distance pi from the center
    h = np.pi
    return np.pi * r**2 - 4 * (r**2 * np.arccos(h / r) - h * np.sqrt(r**2 - h**2))


@PROPS
@given(
    kind=st.sampled_from(sorted(FLAT)),
    u=st.lists(unit, min_size=3, max_size=3),
    rel_radius=st.floats(1e-3, 1.2),
    seed=seeds,
)
def test_samples_in_manifold_and_ball(kind, u, rel_radius, seed):
    m = FLAT[kind]
    span = m.periods if m.kind == "torus" else m.extents[:, 1] - m.extents[:, 0]
    lo = 0.0 if m.kind == "torus" else m.extents[:, 0]
    c = lo + np.asarray(u[: m.dim]) * span
    b = BallSpec(c, rel_radius * m.max_distance)
    pts, w, se = sample_ball(m, b, 300, seed)
    assert pts.shape == (300, m.dim) and w.shape == (300,)
    assert _in_manifold(m, pts)
    assert np.all(d0_many(m, pts, c) <= b.radius * (1 + 1e-12))
    assert 0.0 < w.sum() <= unit_ball_volume(m.dim) * b.radius**m.dim * (1 + 1e-12)
    assert se >= 0.0


@PROPS
@given(
    kind=st.sampled_from(sorted(FLAT)),
    u=st.lists(unit, min_size=3, max_size=3),
    rel_radius=st.floats(1e-3, 0.499),
    covering=st.booleans(),
    seed=seeds,
)
def test_exact_branches_report_zero_error(kind, u, rel_radius, covering, seed):
    m = FLAT[kind]
    if covering:
        b = BallSpec(np.asarray(u[: m.dim]), m.max_distance * (1 + rel_radius))
        exact = m.volume
    else:
        # a torus ball below half the period, or a box ball clear of the faces
        r = rel_radius * m.min_period
        u = np.asarray(u[: m.dim])
        c = u * m.periods if m.kind == "torus" else 0.5 + (u - 0.5) * (0.5 - r)
        b = BallSpec(c, r)
        exact = unit_ball_volume(m.dim) * r**m.dim
    _, w, se = sample_ball(m, b, 200, seed)
    assert se == 0.0
    assert abs(w.sum() / exact - 1) <= 1e-12
    assert mu0_ball_detail(m, b, 200, seed) == (exact, 0.0)


@PROPS
@given(
    shape=st.sampled_from(["corner", "edge", "wrap"]),
    t=st.floats(0.05, 0.95),
    seed=seeds,
)
def test_cut_and_wrapped_volumes_within_four_sigma(shape, t, seed):
    if shape == "corner":
        corner = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])[seed % 4]
        m, b = UNIT_BOX, BallSpec(corner, t)
        exact = np.pi * t**2 / 4
    elif shape == "edge":
        r = 0.5 * min(t, 1 - t)
        m, b = UNIT_BOX, BallSpec(np.array([t, 1.0]), r)
        exact = np.pi * r**2 / 2
    else:
        r = np.pi * (1 + t * (np.sqrt(2) - 1))
        m, b = TORUS2, BallSpec(np.array([t, 2 * np.pi * t]), r)
        exact = _wrapped_disc_area(r)
    _, w, se = sample_ball(m, b, 2000, seed)
    assert se > 0.0
    assert abs(w.sum() - exact) <= 4 * se
    assert mu0_ball_detail(m, b, 2000, seed)[1] == se


@PROPS
@given(
    periods=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=3),
    x=st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3),
    y=st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3),
)
@example(periods=[2 * np.pi, 2 * np.pi], x=[0.0, 0.0, 0.0], y=[np.nextafter(-np.pi, -4.0), np.pi, 0.0])
def test_torus_delta_in_half_open_period(periods, x, y):
    m = Manifold.torus(len(periods), periods)
    n = len(periods)
    d = torus_delta(m, np.asarray(x[:n]), np.asarray(y[:n]))
    assert np.all(d >= -m.periods / 2) and np.all(d < m.periods / 2)


def _point(m, u):
    """Point of m from coordinates u in [-1, 1)^5 (None if it degenerates)."""
    u = np.asarray(u)
    if m.kind == "sphere":
        x = u[: m.dim + 1]
        nrm = np.linalg.norm(x)
        return x / nrm if nrm > 1e-3 else None
    t = (u[: m.dim] + 1.0) / 2.0
    if m.kind == "torus":
        return t * m.periods
    return m.extents[:, 0] + t * (m.extents[:, 1] - m.extents[:, 0])


coords = st.lists(st.floats(-1.0, 1.0, exclude_max=True), min_size=5, max_size=5)


@PROPS
@given(kind=st.sampled_from(sorted(METRIC)), a=coords, b=coords, c=coords)
@example(kind="sphere2", a=[0, 0, 1.0, 0, 0], b=[0, 0, -1.0, 0, 0], c=[1.0 - 2**-53, 0, 0, 0, 0])
@example(kind="torus2", a=[-1.0, -1.0, 0, 0, 0], b=[0, 0, 0, 0, 0], c=[0.5, -0.5, 0, 0, 0])
def test_d0_is_a_metric(kind, a, b, c):
    m = METRIC[kind]
    x, y, z = (_point(m, u) for u in (a, b, c))
    assume(x is not None and y is not None and z is not None)
    assert d0(m, x, x) == 0.0
    dxy, dyx = d0(m, x, y), d0(m, y, x)
    assert abs(dxy - dyx) <= 1e-12
    assert d0(m, x, z) <= dxy + d0(m, y, z) + 1e-12
    assert 0.0 <= dxy <= m.max_distance


@PROPS
@given(
    n=st.sampled_from([2, 3, 4]),
    log_lam=st.floats(-2.0, 3.0),
    shift=st.floats(-3.0, 3.0),
    u=coords,
    rel_radius=st.floats(1e-3, 1.1),
)
def test_sphere_ball_mass_scales_by_e_to_the_nc(n, log_lam, shift, u, rel_radius):
    m = Manifold.sphere(n)
    center = _point(m, u)
    assume(center is not None)
    b = BallSpec(center, rel_radius * np.pi)
    base, _ = mu_f_ball(m, SphereBubble(10.0**log_lam), b)
    scaled, _ = mu_f_ball(m, Scaled(SphereBubble(10.0**log_lam), shift), b)
    assert abs(scaled / (np.exp(n * shift) * base) - 1) <= 1e-12
