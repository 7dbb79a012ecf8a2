"""Property tests for the flat-ball sampler and the torus wrap.

Hypothesis runs derandomized, so every run of the suite checks the same
examples.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conflab.manifold import (
    BallSpec,
    Manifold,
    d0_many,
    mu0_ball_detail,
    sample_ball,
    torus_delta,
    unit_ball_volume,
)

PROPS = settings(derandomize=True, max_examples=40, deadline=None)

TORUS2 = Manifold.torus(2)
TORUS3 = Manifold.torus(3)
UNIT_BOX = Manifold.box([[0.0, 1.0], [0.0, 1.0]])
FLAT = {"torus2": TORUS2, "torus3": TORUS3, "box": UNIT_BOX}

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
