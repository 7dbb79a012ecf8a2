"""Property tests: the flat-ball sampler and the law of its draws, the
torus wraps, the one-pass Monte Carlo mean and standard error against
numpy's mean and std, the torus/box node grid shared by lattices and grid fields,
the flat-chart paths (one formula for torus and box) against their former per-kind code,
the d0 metric axioms, the e^{nc} scaling of ball masses, nearest-node
snapping on lattices (one point or rows of points), grid distances to every node against d0, the eps-graph distances (metric axioms, e^c scaling,
monotonicity in eps and in the LogCusp cap, the one-solve-per-orbit shortest
paths against per-source Dijkstra, the lattice orbit
representatives and translations behind it, and the invariant axes they
use, against the slab-by-slab test of the expanded weights; the solve
folded along the mirror axes against Dijkstra on the expanded CSR, and the
mirror axes against their column-by-column definition), the connectivity of accepted
lattice graphs, the invariance of the Muckenhoupt-type diagnostics
under constant shifts of f, the axes a field declares it is constant
along (the field ignores them; lattice weights keep every bit), the
chunked lattice weight table against its former per-block builder, and the
distance CSV writer against the bytes of np.savetxt.

Hypothesis runs derandomized, so every run of the suite checks the same
examples.
"""

from dataclasses import dataclass, replace
from functools import cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

import conflab.metric as mt

from conflab.diagnostics import (
    BallSampler,
    ap_product,
    doubling_constant,
    reverse_holder,
    subset_ratio_exponent,
)
from conflab.errors import InputError, IntegrationError
from conflab.manifold import (
    BallSpec,
    Manifold,
    PointSet,
    d0_many,
    _closed_form_volume,
    equal_slab_axes,
    geodesic_points,
    lattice,
    lattice_orbits,
    lattice_roll,
    lattice_steps,
    sample_ball,
    sample_manifold,
    torus_delta,
    torus_wrap,
    unit_ball_volume,
)
from conflab.metric import ChainBall, RiemannLine, build_graph, shortest_paths
from conflab.rng import derive_rng
from conflab.schrodinger import GridGeometry
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
    mu_f_ball,
)

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


def _wrapped_ball_volume(n, r):
    # ball of radius pi < r < pi sqrt(2) on the 2pi n-torus: the ball minus
    # 2n disjoint caps beyond the faces at distance pi from the center, each
    # a stack of (n - 1)-balls of radius sqrt(r^2 - x^2) for pi < x < r
    # (in the plane, four circular segments r^2 acos(pi/r) - pi sqrt(r^2 - pi^2))
    cap, _ = quad(lambda x: (r * r - x * x) ** ((n - 1) / 2), np.pi, r, epsabs=0.0, epsrel=1e-12)
    return unit_ball_volume(n) * r**n - 2 * n * unit_ball_volume(n - 1) * cap


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
    # sample_ball draws a covering ball from all of M before any closed form
    assert covering or _closed_form_volume(m, b) == (exact, 0.0)


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
        exact = _wrapped_ball_volume(2, r)
    _, w, se = sample_ball(m, b, 2000, seed)
    assert se > 0.0
    assert abs(w.sum() - exact) <= 4 * se
    assert _closed_form_volume(m, b) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flat_ball_draws_are_uniform(n):
    # both draws (the cube's below n = 5, the Gaussian's above): in a whole
    # ball (|x - c| / r)^n is U(0, 1) and each coordinate has second moment
    # r^2 / (n + 2); a wrapping and a face-cut ball read their exact volume
    count, r = 20_000, 1.0
    m, c = Manifold.torus(n), np.full(n, np.pi)
    pts, _, se = sample_ball(m, BallSpec(c, r), count, seed=n)
    y = pts - c
    assert se == 0.0 and stats.kstest((np.sqrt(np.sum(y * y, axis=1)) / r) ** n, "uniform").pvalue > 1e-3
    m2, m4 = r**2 / (n + 2), 3 * r**4 / ((n + 2) * (n + 4))
    assert np.all(np.abs(np.mean(y * y, axis=0) - m2) <= 4 * np.sqrt((m4 - m2 * m2) / count))
    r = 1.2 * np.pi
    cases = [
        (m, BallSpec(np.full(n, 1.0), r), _wrapped_ball_volume(n, r)),
        (Manifold.box([[0.0, 1.0]] * n), BallSpec(np.ones(n), 0.7), unit_ball_volume(n) * 0.35**n),
    ]
    for mc, b, exact in cases:
        _, w, se = sample_ball(mc, b, count, seed=n)
        assert se > 0.0 and abs(w.sum() - exact) <= 4 * se


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


# entries a float u stands for u * p * stretch; the names for edge values
WRAP_SPECIAL = {
    "0": lambda p: 0.0,
    "-0": lambda p: -0.0,
    "+1e-17": lambda p: 1e-17,
    "-1e-17": lambda p: -1e-17,
    "p": lambda p: p,
    "-p": lambda p: -p,
    "2p": lambda p: 2 * p,
    "-3p": lambda p: -3 * p,
    "below p": lambda p: np.nextafter(p, 0.0),
    "below 2p": lambda p: np.nextafter(2 * p, 0.0),
    "above -p": lambda p: np.nextafter(-p, 0.0),
}


@PROPS
@given(
    periods=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=3),
    shape=st.sampled_from([(), (5,), (4, 3)]),
    entries=st.lists(
        st.one_of(st.floats(-1.0, 2.0, exclude_max=True), st.sampled_from(sorted(WRAP_SPECIAL))),
        min_size=1, max_size=36,
    ),
    stretch=st.sampled_from([1.0, 3.0, 1e4]),
    order=st.sampled_from(["C", "F", "view"]),
)
@example(periods=[2 * np.pi, 3.0], shape=(4, 3), entries=["-1e-17", 0.25, "-0"], stretch=1.0,
         order="C")
# at the skip test: every entry inside (0, p), or all but one at or next to a wrap edge
@example(periods=[2 * np.pi, 3.0], shape=(4, 3), entries=[0.25, 0.5, 0.75], stretch=1.0,
         order="F")
@example(periods=[2 * np.pi, 3.0], shape=(4, 3), entries=["0"] + [0.25] * 23, stretch=1.0,
         order="view")
@example(periods=[2 * np.pi, 3.0], shape=(4, 3), entries=["-0"] + [0.25] * 23, stretch=1.0,
         order="F")
@example(periods=[2 * np.pi, 3.0], shape=(4, 3), entries=["below p"] + [0.5] * 23, stretch=1.0,
         order="C")
# one-sided wraps (an even number of entries keeps each to one column): a
# column with min -0.0 and max >= p, one with min < 0 and an entry that
# rounds up to p, and one whose max is exactly p
@example(periods=[2 * np.pi, 3.0], shape=(4, 3), entries=["-0", 0.25, 1.5, 0.5], stretch=1.0,
         order="C")
@example(periods=[2 * np.pi, 3.0], shape=(4, 3), entries=["-1e-17", 0.25, -0.5, 0.5], stretch=1.0,
         order="F")
@example(periods=[2 * np.pi, 3.0], shape=(4, 3), entries=[0.25, "p", 0.5, 0.75], stretch=1.0,
         order="view")
def test_torus_wrap_is_the_np_mod_wrap(periods, shape, entries, stretch, order):
    p = np.asarray(periods)
    size = int(np.prod(shape, dtype=int)) * p.size
    x = np.empty(size)
    for k in range(size):
        e, pa = entries[k % len(entries)], p[k % p.size]
        x[k] = WRAP_SPECIAL[e](pa) if isinstance(e, str) else e * pa * stretch
    x = x.reshape(shape + (p.size,))
    y = np.mod(x, p)
    want = np.where(y < p, y, 0).tobytes()  # sign of zero included
    if order == "view":  # the axes of a wider array: strided columns
        wide = np.full(shape + (p.size + 1,), 7.5)
        wide[..., :-1] = x
        arg = wide[..., :-1]
    else:
        arg = x.copy(order=order)
    assert torus_wrap(arg, p) is arg
    assert np.ascontiguousarray(arg).tobytes() == want
    if order == "view":
        assert np.all(wide[..., -1] == 7.5)
    assert Manifold.torus(p.size, p).canonicalize(x).tobytes() == want


def _mc_integral_reference(vals, volume, what, volume_se):
    """_mc_integral as it was before its one-pass form: the isfinite mask
    first, then vals.mean() and vals.std(ddof=1)."""
    good = np.isfinite(vals)
    bad = vals.size - int(good.sum())
    if bad > 0.001 * vals.size:
        raise IntegrationError(f"{bad} of {vals.size} {what} non-finite (limit 0.1%)")
    if bad:
        vals = vals[good]
    se = volume * float(vals.std(ddof=1)) / np.sqrt(vals.size) if vals.size > 1 else 0.0
    mean = float(vals.mean())
    return volume * mean, float(np.hypot(mean * volume_se, se))


@PROPS
@given(
    size=st.sampled_from([1, 2, 3, 999, 1000, 2000, 3001]),
    scale=st.sampled_from([1.0, -3.5, 1e-300, 1e300, 1.7e308]),
    spread=st.floats(0.0, 4.0),
    bad=st.sampled_from(["none", "at", "over"]),
    kinds=st.lists(st.sampled_from(["nan", "inf", "-inf"]), min_size=1, max_size=3),
    volume_se=st.sampled_from([0.0, 0.01]),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=2000, scale=1.0, spread=1.0, bad="at", kinds=["inf", "-inf"], volume_se=0.0, seed=0)
@example(size=1000, scale=1.7e308, spread=0.0, bad="none", kinds=["nan"], volume_se=0.01, seed=1)
@example(size=999, scale=1.0, spread=1.0, bad="over", kinds=["nan"], volume_se=0.0, seed=2)
def test_mc_integral_is_mean_and_std(size, scale, spread, bad, kinds, volume_se, seed):
    """Bit for bit the former mask-mean-std form, on sizes 1 and 2, on
    non-finite shares at and just over 0.1% (+inf and -inf together too),
    and on finite values whose sum overflows; or the same IntegrationError."""
    rng = np.random.default_rng(seed)
    vals = rng.lognormal(sigma=spread, size=size)
    vals *= scale / vals.max()  # finite, at most |scale|
    nbad = {"none": 0, "at": size // 1000, "over": size // 1000 + 1}[bad]
    at = rng.choice(size, nbad, replace=False)
    vals[at] = [float(kinds[k % len(kinds)]) for k in range(nbad)]
    outcome = []
    for integral in (_mc_integral, _mc_integral_reference):
        with np.errstate(all="ignore"):
            try:
                outcome.append(np.array(integral(vals, 2.5, "values", volume_se)).tobytes())
            except IntegrationError as exc:
                outcome.append(str(exc))
    assert outcome[0] == outcome[1]


def _np_mod_delta(p, x, y):
    """torus_delta's former np.mod form, the reference for its torus_wrap form."""
    d = np.mod(y - x + p / 2.0, p) - p / 2.0
    # np.mod rounds a tiny negative up to the period itself: p/2 is -p/2
    return np.subtract(d, p, out=d, where=d >= p / 2.0)


# entries a float u stands for u * p * stretch; the names for edge values
DELTA_SPECIAL = {
    "0": lambda p: 0.0,
    "-0": lambda p: -0.0,
    "+1e-17": lambda p: 1e-17,
    "-1e-17": lambda p: -1e-17,
    "p/2": lambda p: p / 2,
    "-p/2": lambda p: -p / 2,
    "below p/2": lambda p: np.nextafter(p / 2, 0.0),
    "above -p/2": lambda p: np.nextafter(-p / 2, 0.0),
    "p": lambda p: p,
    "-p": lambda p: -p,
}
delta_entries = st.lists(
    st.one_of(st.floats(-1.0, 1.0), st.sampled_from(sorted(DELTA_SPECIAL))),
    min_size=1, max_size=24,
)


@PROPS
@given(
    periods=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=3),
    xs=delta_entries,
    ys=delta_entries,
    stretch=st.sampled_from([1.0, 3.0, 1e4]),
)
@example(periods=[2 * np.pi, 3.0], xs=["0", "-0", "p/2"], ys=["-0", "-p/2", "0"], stretch=1.0)
@example(periods=[2 * np.pi, 2 * np.pi], xs=["+1e-17", "p"], ys=["-1e-17", "-p"], stretch=1.0)
def test_torus_delta_is_the_np_mod_delta(periods, xs, ys, stretch):
    p = np.asarray(periods)

    def coords(entries):
        k = np.arange(4 * p.size)
        e = [entries[i % len(entries)] for i in k]
        pa = p[k % p.size]
        v = [DELTA_SPECIAL[u](q) if isinstance(u, str) else u * q * stretch for u, q in zip(e, pa)]
        return np.asarray(v).reshape(4, p.size)

    x, y = coords(xs), coords(ys)
    want = _np_mod_delta(p, x, y).tobytes()  # sign of zero included
    assert torus_delta(Manifold.torus(p.size, p), x, y).tobytes() == want


@PROPS
@given(
    kind=st.sampled_from(["torus", "box"]),
    lengths=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=3),
    lo=st.floats(-5.0, 5.0),
    steps=st.floats(1.0, 14.0),
    cover=st.booleans(),
)
@example(kind="torus", lengths=[2 * np.pi, 2 * np.pi], lo=0.0, steps=9.0, cover=False)
@example(kind="box", lengths=[1.6, 1.0], lo=-5.0, steps=7.0, cover=False)  # lo + 11 h != hi
def test_grid_nodes_are_the_lattice_nodes(kind, lengths, lo, steps, cover):
    lens = np.asarray(lengths)
    if kind == "torus":
        m = Manifold.torus(lens.size, lens)
    else:
        m = Manifold.box(np.column_stack([np.full(lens.size, lo), lo + lens]))
    pts = lattice(m, float(lens.min()) / steps, cover=cover)
    shape = pts.lattice_shape
    if kind == "torus":  # the node rule of both, written out
        want = [np.arange(k) * (p / k) for p, k in zip(m.periods, shape)]
    else:
        want = [np.linspace(a, b, k) for (a, b), k in zip(m.extents, shape)]
    assert [a.tobytes() for a in pts.axes()] == [w.tobytes() for w in want]
    grids = [GridField(m, np.zeros(shape))]
    if min(shape) >= 8:
        grids.append(GridGeometry(m, shape))
    for g in grids:
        assert g.nodes().tobytes() == pts.points.tobytes()
        assert g.axis_spacing.tobytes() == pts.axis_spacing.tobytes()


# the former per-kind code of each flat-chart path, the reference for its
# one formula on Manifold.chart and chart_delta
def _lattice_steps_per_kind(m, spacing, cover):
    torus = m.kind == "torus"
    steps = (m.periods if torus else m.extents[:, 1] - m.extents[:, 0]) / spacing
    if cover:
        steps = np.ceil(steps - 1e-9)
    else:
        steps = np.round(steps) if torus else np.floor(steps + 1e-9)
    return tuple(int(k) + (not torus) for k in np.maximum(steps, 1))


def _sample_manifold_per_kind(m, count, seed):
    rng = derive_rng(seed, "manifold")
    if m.kind == "torus":
        return rng.random((count, m.dim)) * m.periods
    lo, hi = m.extents[:, 0], m.extents[:, 1]
    return lo + rng.random((count, m.dim)) * (hi - lo)


def _geodesic_points_per_kind(m, x, y, ts):
    ts = np.asarray(ts, dtype=float)[:, None, None]
    if m.kind == "torus":
        g = ts * torus_delta(m, x, y)[None]
        g += x
        return torus_wrap(g, m.periods)
    return x[None] + ts * (y - x)[None]


def _cusp_grad_lap_per_kind(cusp, m, x):
    d = cusp._dist(m, x)
    v, dv, ddv = cusp._raw(d)
    _, ds, dds = cusp._saturate(v)
    fp = ds * dv
    fpp = dds * dv * dv + ds * ddv
    if m.kind == "torus":
        delta = torus_delta(m, cusp._center(), x)
    else:
        delta = x - cusp._center()
    safe = np.where(d > 0, d, 1.0)
    grad = fp[:, None] * delta / safe[:, None]
    grad[d == 0] = 0.0
    lap = -(fpp + (m.dim - 1) * np.where(d > 0, fp / safe, 0.0))
    lap[d == 0] = np.inf
    return grad, lap


def _grid_local_per_kind(grid, m, x):
    h = grid.axis_spacing
    if m.kind == "torus":
        rel = torus_wrap(np.array(x, dtype=float), m.periods) / h
    else:
        rel = (x - m.extents[:, 0]) / h
    i0 = np.floor(rel).astype(int)
    return i0, rel - i0


def _edges_kdtree_per_kind(m, points, eps):
    pts = points.points
    if m.kind == "torus":
        tree = cKDTree(m.canonicalize(pts), boxsize=m.periods)
    else:
        tree = cKDTree(pts)
    pairs = tree.query_pairs(r=eps, output_type="ndarray")
    if pairs.size == 0:
        raise InputError("eps-graph has no edges; increase eps")
    i, j = pairs[:, 0], pairs[:, 1]
    d = d0_many(m, pts[i], pts[j])
    keep = d <= eps
    return np.stack((i[keep], j[keep])).astype(np.int32), d[keep]


def _outcome(call):
    """The bytes of each array call returns, or its InputError's message."""
    try:
        return [np.asarray(a).tobytes() for a in call()]
    except InputError as exc:
        return str(exc)


# coordinates a float u stands for lo + u (hi - lo); the names for edge values
CHART_SPECIAL = {
    "lo": lambda lo, hi: lo,
    "below lo": lambda lo, hi: np.nextafter(lo, -np.inf),
    "below 0": lambda lo, hi: np.nextafter(0.0, -1.0),
    "0": lambda lo, hi: 0.0,
    "-0": lambda lo, hi: -0.0,
    "hi": lambda lo, hi: hi,
    "below hi": lambda lo, hi: np.nextafter(hi, -np.inf),
}
chart_entries = st.lists(
    st.one_of(st.floats(-0.5, 1.5), st.sampled_from(sorted(CHART_SPECIAL))), min_size=1, max_size=12
)


@PROPS
@given(
    kind=st.sampled_from(["torus", "box"]),
    lengths=st.lists(st.floats(0.5, 3.0), min_size=2, max_size=3),
    lo=st.floats(-5.0, 5.0),
    xs=chart_entries,
    ys=chart_entries,
    steps=st.floats(1.0, 14.0),
    cover=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="torus", lengths=[2 * np.pi, 3.0], lo=0.0, xs=["below 0", "-0", "hi"],
         ys=["hi", "0", "below hi"], steps=9.0, cover=False, seed=0)
@example(kind="box", lengths=[1.6, 1.0, 0.5], lo=-0.0, xs=["-0", "below lo", "hi"],
         ys=["below 0", "lo", "below hi"], steps=7.0, cover=True, seed=1)
@example(kind="torus", lengths=[1.0, 2.0, 3.0], lo=0.0, xs=["hi", "-0"], ys=["below 0"],
         steps=3.0, cover=True, seed=2)
@example(kind="box", lengths=[2.88, 0.86, 2.87], lo=0.12, xs=[0.3, "below 0"], ys=["hi"],
         steps=5.0, cover=False, seed=3)  # a centre (lo + hi) / 2 != lo + (hi - lo) / 2
def test_flat_chart_paths_are_the_per_kind_code(kind, lengths, lo, xs, ys, steps, cover, seed):
    lens = np.asarray(lengths)
    n = lens.size
    if kind == "torus":
        m, lo_v, hi_v = Manifold.torus(n, lens), np.zeros(n), lens
    else:
        lo_v = np.array([lo, -lo / 2.0, 1.5 * lo][:n])  # -0.0 stays -0.0
        m = Manifold.box(np.column_stack([lo_v, lo_v + lens]))
        lo_v, hi_v = m.extents[:, 0], m.extents[:, 1]
    torus = kind == "torus"

    def coords(entries):
        k = np.arange(4 * n)
        e = [entries[i % len(entries)] for i in k]
        a, b = lo_v[k % n], hi_v[k % n]
        v = [CHART_SPECIAL[u](p, q) if isinstance(u, str) else p + u * (q - p)
             for u, p, q in zip(e, a, b)]
        return np.asarray(v).reshape(4, n)

    x, y = coords(xs), coords(ys)
    side = m.periods if torus else m.extents[:, 1] - m.extents[:, 0]
    want = [float(np.prod(side)), float(np.min(side)), float(np.linalg.norm(side / 2.0 if torus else side))]
    assert [m.volume, m.min_period, m.max_distance] == want
    spacing = float(lens.min()) / steps
    shape, _ = lattice_steps(m, spacing, cover)
    assert shape == _lattice_steps_per_kind(m, spacing, cover)
    pts, _ = sample_manifold(m, 7, seed)
    assert pts.tobytes() == _sample_manifold_per_kind(m, 7, seed).tobytes()
    want = np.linalg.norm(torus_delta(m, x, y) if torus else y - x, axis=-1)
    assert d0_many(m, x, y).tobytes() == want.tobytes()
    ts = [0.0, 0.25, 0.5, 1.0]
    assert geodesic_points(m, x, y, ts).tobytes() == _geodesic_points_per_kind(m, x, y, ts).tobytes()
    cusp = LogCusp(tuple(y[0]), r0=float(lens.min()) / 9.0, cap=3.0)
    with np.errstate(all="ignore"):
        got, ref = cusp.grad_lap_many(m, x), _cusp_grad_lap_per_kind(cusp, m, x)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
    grid = GridField(m, np.zeros(tuple(range(5, 5 + n))))
    got, ref = GridWeight(grid)._local(m, x), _grid_local_per_kind(grid, m, x)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
    nodes = PointSet(np.vstack([x, y, lattice(m, spacing).points]), spacing)
    eps = float(lens.min()) / 4.0
    assert _outcome(lambda: mt._edges_kdtree(m, nodes, eps)) == _outcome(
        lambda: _edges_kdtree_per_kind(m, nodes, eps))
    if n == 3:  # the Sobolev probes centre on the chart's middle
        seen, distances = [], GridGeometry.distances
        with patch.object(GridGeometry, "distances", lambda g, c: seen.append(c) or distances(g, c)):
            GridGeometry(m, (8, 8, 8)).sobolev_constant
        centre = m.periods / 2.0 if torus else m.extents.mean(axis=1)
        assert seen[0].tobytes() == centre[None].tobytes()



@PROPS
@given(
    kind=st.sampled_from(["torus", "box"]),
    lengths=st.lists(st.floats(0.5, 3.0), min_size=2, max_size=3),
    lo=st.floats(-5.0, 5.0),
    sizes=st.lists(st.integers(8, 13), min_size=3, max_size=3),
    u=st.lists(st.floats(-1.5, 2.5), min_size=12, max_size=12),
    node=st.integers(0, 2**16),
)
@example(kind="torus", lengths=[2 * np.pi, 2 * np.pi, 2 * np.pi], lo=0.0, sizes=[8, 9, 10],
         u=[0.5] * 12, node=0)
def test_grid_distances_are_d0_bit_for_bit(kind, lengths, lo, sizes, u, node):
    # four centers off the nodes, inside and outside the chart, and one on a node
    lens = np.asarray(lengths)
    if kind == "torus":
        m = Manifold.torus(lens.size, lens)
    else:
        m = Manifold.box(np.column_stack([np.full(lens.size, lo), lo + lens]))
    g = GridGeometry(m, tuple(sizes[: lens.size]))
    nodes = g.nodes()
    base = 0.0 if kind == "torus" else m.extents[:, 0]
    centers = base + np.reshape(u, (4, 3))[:, : lens.size] * lens
    centers = np.vstack([centers, nodes[node % len(nodes)]])
    want = np.stack([d0_many(m, nodes, c) for c in centers])
    assert g.distances(centers).tobytes() == want.tobytes()


def d0(m, x, y) -> float:
    """The base distance of two points, each checked by ``m.check_points``."""
    return float(d0_many(m, m.check_points(x)[0], m.check_points(y)[0]))


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
    scaled, _ = mu_f_ball(m, Sum((SphereBubble(10.0**log_lam), Constant(shift))), b)
    assert abs(scaled / (np.exp(n * shift) * base) - 1) <= 1e-12


# small point sets for the eps-graph properties: 64, 81 and 59 nodes
GRAPHS = {
    kind: (m, lattice(m, spacing))
    for kind, m, spacing in (
        ("torus2", TORUS2, 2 * np.pi / 8),
        ("box", UNIT_BOX, 0.125),
        ("sphere2", METRIC["sphere2"], 0.5),
    )
}


def _graph_case(kind, u):
    """(manifold, points, field) with the field's shape taken from u in [-1, 1)^5."""
    m, pts = GRAPHS[kind]
    if m.kind == "torus":
        field = BuragoTorus(1 + int(u[0] > 0))
    elif m.kind == "box":
        field = LogCusp(tuple(_point(m, u)), r0=0.15, cap=2.0)
    else:
        field = SphereBubble(10.0 ** u[0], pole=tuple(_point(m, [1.0, *u[1:]])))
    return m, pts, field


def _distances(m, pts, eps_rel, field, estimator=RiemannLine()):
    g = build_graph(m, pts, eps_rel * pts.spacing, field, estimator)
    return shortest_paths(g).values


@PROPS
@given(
    kind=st.sampled_from(sorted(GRAPHS)),
    u=coords,
    eps_rel=st.floats(3.0, 4.5),
    chain=st.booleans(),
)
def test_graph_distance_is_a_metric(kind, u, eps_rel, chain):
    m, pts, field = _graph_case(kind, u)
    d = _distances(m, pts, eps_rel, field, ChainBall(budget=100, seed=5) if chain else RiemannLine())
    assert np.all(np.diag(d) == 0.0) and np.all(d[~np.eye(len(pts), dtype=bool)] > 0.0)
    tol = 1e-12 * d.max()
    assert np.all(np.abs(d - d.T) <= tol)
    # d(i, k) <= d(i, j) + d(j, k) for every i, j, k
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + tol)


@PROPS
@given(
    kind=st.sampled_from(sorted(GRAPHS)),
    u=coords,
    eps_rel=st.floats(3.0, 4.5),
    c=st.floats(-3.0, 3.0),
)
def test_graph_distances_scale_by_e_to_the_c(kind, u, eps_rel, c):
    m, pts, field = _graph_case(kind, u)
    base = _distances(m, pts, eps_rel, field)
    scaled = _distances(m, pts, eps_rel, Sum((field, Constant(c))))
    assert np.all(np.abs(scaled - np.exp(c) * base) <= 1e-12 * np.exp(c) * base)


@PROPS
@given(
    kind=st.sampled_from(sorted(FLAT)),
    u=coords,
    rel_radius=st.floats(1e-3, 1.2),
    c=st.floats(-3.0, 3.0),
    seed=seeds,
)
def test_flat_ball_mass_scales_by_e_to_the_nc(kind, u, rel_radius, c, seed):
    m = FLAT[kind]
    center = _point(m, u)
    field = BuragoTorus(1) if m.kind == "torus" else LogCusp(tuple(_point(m, u[::-1])), 0.1, 2.0)
    b = BallSpec(center, rel_radius * m.max_distance)
    base, _ = mu_f_ball(m, field, b, 500, seed)
    scaled, _ = mu_f_ball(m, Sum((field, Constant(c))), b, 500, seed)
    assert abs(scaled / (np.exp(m.dim * c) * base) - 1) <= 1e-12


@PROPS
@given(
    kind=st.sampled_from(sorted(GRAPHS)),
    u=coords,
    eps_rel=st.lists(st.floats(3.0, 4.5), min_size=2, max_size=2),
)
def test_graph_distances_never_increase_with_eps(kind, u, eps_rel):
    m, pts, field = _graph_case(kind, u)
    small, large = (_distances(m, pts, e, field) for e in sorted(eps_rel))
    assert np.all(large <= small * (1 + 1e-12))


@PROPS
@given(
    kind=st.sampled_from(["torus", "box"]),
    counts=st.lists(st.integers(4, 12), min_size=2, max_size=3),
    stretch=st.lists(st.floats(0.8, 1.2), min_size=3, max_size=3),
    eps_rel=st.floats(3.0, 4.5),
)
@example(kind="torus", counts=[12, 9], stretch=[1.0, 1.1, 1.0], eps_rel=3.0)
@example(kind="box", counts=[10, 12, 9], stretch=[1.2, 0.8, 1.0], eps_rel=3.0)
def test_accepted_lattice_graphs_are_connected(kind, counts, stretch, eps_rel):
    # lattices of `counts` cells along axes of unequal spacing 0.1 * stretch;
    # block graphs and, where the eps reach wraps, kd-tree graphs
    sizes = [0.1 * k * s for k, s in zip(counts, stretch)]
    if kind == "torus":
        m = Manifold.torus(len(sizes), sizes)
    else:
        m = Manifold.box([[0.0, s] for s in sizes])
    pts = lattice(m, 0.1)
    g = build_graph(m, pts, eps_rel * pts.spacing, Constant(0.0))
    assert connected_components(g.csgraph, directed=False)[0] == 1


# lattices for the snapping properties: unequal periods, a 3-torus and boxes
SNAP = {
    kind: (m, lattice(m, spacing))
    for kind, m, spacing in (
        ("torus2", Manifold.torus(2, [2 * np.pi, 3.0]), 0.3),
        ("torus3", TORUS3, 2 * np.pi / 7),
        ("box2", Manifold.box([[0.0, 2.0], [-1.0, 0.5]]), 0.1),
        ("box3", METRIC["box"], 0.1),
    )
}


def _argmin_node(m, pts, x):
    return int(np.argmin(d0_many(m, pts.points, x)))


@PROPS
@given(kind=st.sampled_from(sorted(SNAP)), u=coords)
def test_nearest_node_is_the_argmin(kind, u):
    m, pts = SNAP[kind]
    # two spans beyond the chart on both sides: the torus wraps these
    # coordinates, the box snaps them to its faces
    if m.kind == "torus":
        lo, span = 0.0, m.periods
    else:
        lo, span = m.extents[:, 0], m.extents[:, 1] - m.extents[:, 0]
    x = lo + (0.5 + 2.5 * np.asarray(u[: m.dim])) * span
    assert pts.nearest(m, x) == _argmin_node(m, pts, x)


def _tie_points(m, pts):
    """Cell midpoints; on a torus the seam at p - 1e-17 and -1e-17 and the
    midpoint between an axis's last node and its first; on a box the
    corners and the face points between nodes."""
    axes = pts.axes()
    mids = [(a[1:] + a[:-1]) / 2 for a in axes]
    out = [np.array([c[k] for c in mids]) for k in (0, 3, -1)]
    if m.kind == "torus":
        seams = [(m.periods[a] - 1e-17, -1e-17, (axes[a][-1] + m.periods[a]) / 2) for a in range(m.dim)]
    else:
        lo, hi = m.extents.T
        out += [np.where(np.asarray(c) == 1, hi, lo) for c in np.ndindex(*(2,) * m.dim)]
        seams = list(zip(lo, hi))
    for a, values in enumerate(seams):
        for v in values:
            x = out[0].copy()
            x[a] = v
            out.append(x)
    return out


@pytest.mark.parametrize("kind", sorted(SNAP))
def test_nearest_node_breaks_ties_like_argmin(kind):
    m, pts = SNAP[kind]
    ties = 0
    for x in _tie_points(m, pts):
        d = d0_many(m, pts.points, x)
        ties += int(np.sum(d == d.min()) > 1)
        assert pts.nearest(m, x) == _argmin_node(m, pts, x), x
    assert ties >= 3  # the points above do meet exact ties


@pytest.mark.parametrize("kind", sorted(SNAP))
@settings(PROPS, max_examples=10)
@given(us=st.lists(coords, min_size=1, max_size=12))
def test_nearest_over_rows_is_each_row_alone(kind, us):
    m, pts = SNAP[kind]
    lo, hi = (np.zeros(m.dim), m.periods) if m.kind == "torus" else m.extents.T
    # exact ties, points spread over five spans around the chart (far off
    # a box, wrapped on a torus) and points a thousand spans away
    rows = np.array(
        _tie_points(m, pts)
        + [lo + (0.5 + 2.5 * np.asarray(u[: m.dim])) * (hi - lo) for u in us]
        + [lo + 1000.0 * np.asarray(u[: m.dim]) * (hi - lo) for u in us]
    )
    got = pts.nearest(m, rows)
    assert got.dtype == np.int64 and got.shape == (len(rows),)
    assert got.tolist() == [pts.nearest(m, x) for x in rows] == [_argmin_node(m, pts, x) for x in rows]
    assert type(pts.nearest(m, rows[0])) is int


@PROPS
@given(
    u=coords,
    r0=st.floats(0.1, 0.4),
    cap=st.floats(0.2, 4.0),
    rise=st.floats(1.0, 4.0),
)
def test_logcusp_distances_rise_with_the_cap(u, r0, cap, rise):
    m, pts = GRAPHS["box"]
    x0 = tuple(_point(m, u))
    low, high = LogCusp(x0, r0, cap), LogCusp(x0, r0, cap * rise)
    probe = np.vstack([pts.points, x0])  # the cusp itself included
    assert np.all(high.eval_many(m, probe) >= low.eval_many(m, probe))
    g = build_graph(m, pts, 3 * pts.spacing, low)
    assert g.blocks is not None
    d_low = shortest_paths(g).values
    d_high = shortest_paths(g.reweight(high)).values
    assert np.all(d_high >= d_low * (1 - 1e-12))


SHIFT_BALLS = BallSampler(lattice(TORUS2, 3.0), (0.4, 0.9), seed=3)
SHIFT_BASE = LogCusp((3.0, 3.0), 1.2, cap=3.0)  # A_2 product 1.26 on these balls


SHIFT_DIAGNOSTICS = {
    "reverse_holder": lambda f: reverse_holder(TORUS2, f, 2.0, SHIFT_BALLS, 2000),
    "ap_product": lambda f: ap_product(TORUS2, f, 2.0, SHIFT_BALLS, 2000),
    "doubling_constant": lambda f: doubling_constant(TORUS2, f, SHIFT_BALLS, 2000),
    "subset_ratio_exponent": lambda f: subset_ratio_exponent(TORUS2, f, SHIFT_BALLS, 2000),
}


@pytest.mark.parametrize("name", sorted(SHIFT_DIAGNOSTICS))
@PROPS
@given(c=st.floats(-3.0, 3.0))
def test_diagnostics_ignore_constant_shifts(name, c):
    # e^{n(f + c)} = e^{nc} e^{nf}: the factor cancels in every ratio
    diag = SHIFT_DIAGNOSTICS[name]
    np.testing.assert_allclose(diag(Sum((SHIFT_BASE, Constant(c)))), diag(SHIFT_BASE), rtol=1e-10)


# torus lattices with unequal periods, under fields invariant along every
# axis, along all but x1, and along none
ORBIT_TORI = {
    "torus2": (Manifold.torus(2, [2 * np.pi, 4.0]), 0.3),  # 21 x 13 nodes
    "torus3": (Manifold.torus(3, [2 * np.pi, 3.2, 3.0]), 0.4),  # 16 x 8 x 8 nodes
}
ORBIT_FIELDS = {
    "constant": Constant(0.3),
    "scaled": Sum((Constant(0.0), Constant(0.7))),
    "burago": BuragoTorus(2),
    "logcusp": LogCusp((1.3, 1.1, 0.9), 0.5, None),
}


@cache
def _orbit_graph(kind, field):
    m, spacing = ORBIT_TORI[kind]
    pts = lattice(m, spacing)
    f = ORBIT_FIELDS[field]
    if isinstance(f, LogCusp):
        f = LogCusp(f.x0[: m.dim], f.r0, f.cap)
    g = build_graph(m, pts, 3 * pts.spacing, f)
    assert g.blocks is not None
    return g


@pytest.mark.parametrize("kind", sorted(ORBIT_TORI))
@pytest.mark.parametrize("field", sorted(ORBIT_FIELDS))
@PROPS
@given(
    src=st.lists(unit, min_size=1, max_size=8),
    tgt=st.none() | st.lists(unit, min_size=1, max_size=12),
    widen=st.booleans(),
)
def test_orbit_solve_is_the_per_source_dijkstra(kind, field, src, tgt, widen):
    g = _orbit_graph(kind, field)
    src = [int(u * g.n) for u in src] + [int(src[0] * g.n)]  # one duplicate source at least
    tgt = None if tgt is None else [int(u * g.n) for u in tgt]
    # a first limit far too short makes the bounded solve widen several times
    got = shortest_paths(replace(g, rho=1e-3 * g.rho) if widen else g, src, tgt).values
    want = np.vstack([dijkstra(g.csgraph, directed=False, indices=s) for s in src])
    if tgt is not None:
        want = want[:, tgt]
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@PROPS
@given(data=st.data(), shape=st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple))
def test_lattice_orbit_steps_roll_the_representative_onto_the_index(data, shape):
    d, size = len(shape), int(np.prod(shape))
    axes = data.draw(st.lists(st.integers(0, d - 1), unique=True).map(sorted))
    index = np.array(data.draw(st.lists(st.integers(0, size - 1), max_size=6)), dtype=int)
    rep, steps = lattice_orbits(shape, axes, index)
    assert rep.shape == index.shape and steps.shape == (index.size, d)
    coords = np.array(np.unravel_index(index, shape)).T
    rep_coords = np.array(np.unravel_index(rep, shape)).T
    off = [a for a in range(d) if a not in axes]
    assert np.all(rep_coords[:, axes] == 0)
    assert np.array_equal(rep_coords[:, off], coords[:, off])
    for i, r, k in zip(index, rep, steps):
        at_rep = np.zeros(size)
        at_rep[r] = 1.0
        assert np.flatnonzero(lattice_roll(at_rep, shape, k)).tolist() == [i]
    rep0, steps0 = lattice_orbits(shape, [], index)
    assert np.array_equal(rep0, index) and not steps0.any()


def _slab_axes(table, naxes):
    """The axes along which ``table`` is constant, by definition: every
    slab along the axis array_equal to the first."""
    return [a for a in range(naxes)
            if all(np.array_equal(s, np.moveaxis(table, a, 0)[0]) for s in np.moveaxis(table, a, 0)[1:])]


SLAB_VALUES = [0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan]


@PROPS
@given(data=st.data(), shape=st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple))
def test_equal_slab_axes_is_the_slab_by_slab_test(data, shape):
    # a table broadcast along some axes, with NaN, +-inf and -0.0 entries
    # and a few spot changes, so both verdicts come up on every axis
    flat = data.draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
    base = tuple(1 if f else s for f, s in zip(flat, shape))
    values = data.draw(st.lists(st.sampled_from(SLAB_VALUES), min_size=int(np.prod(base)),
                                max_size=int(np.prod(base))))
    table = np.broadcast_to(np.array(values).reshape(base), shape).copy()
    for _ in range(data.draw(st.integers(0, 2)) if table.size else 0):
        table.flat[data.draw(st.integers(0, table.size - 1))] = data.draw(st.sampled_from(SLAB_VALUES))
    naxes = data.draw(st.integers(0, len(shape)))
    assert equal_slab_axes(table, naxes) == _slab_axes(table, naxes)


def _invariant_fields(m):
    """Fields on the torus m constant along every axis, along all but x1 (a
    sum with a constant too), along none, and multilinear grid fields that
    declare no constant axis, one of them constant along x2 all the same."""
    rng = np.random.default_rng(4)
    shape = (7,) + (5,) * (m.dim - 1)
    along_x1 = np.broadcast_to(rng.uniform(-0.5, 0.5, (7,) + (1,) * (m.dim - 1)), shape)
    return {
        "constant": Constant(0.3),
        "burago": BuragoTorus(2),
        "sum": Sum((BuragoTorus(2), Constant(0.5))),
        "logcusp": LogCusp((1.3, 1.1, 0.9)[: m.dim], 0.5, None),
        "grid-x1": GridWeight(GridField(m, np.array(along_x1))),
        "grid": GridWeight(GridField(m, rng.uniform(-0.5, 0.5, shape))),
    }


def _expanded_invariant_axes(g):
    """The invariant axes of a torus lattice graph as first defined: those
    along which each forward column of the expanded (n, 2B) CSR data is
    constant."""
    table = g.csgraph.data.reshape(tuple(g.points.lattice_shape) + (len(g.blocks),))
    return tuple(_slab_axes(table[..., : len(g.blocks) // 2], g.manifold.dim))


@cache
def _invariant_graph(kind, name, chain):
    # ChainBall gets the torus2 of 11 x 7 nodes, on which a RiemannLine graph
    # takes the lattice layout; a ChainBall graph is a kd-tree graph all the same
    m, spacing = (ORBIT_TORI[kind][0], 0.6) if chain else ORBIT_TORI[kind]
    pts = lattice(m, spacing)
    estimator = ChainBall(budget=100, seed=3) if chain else RiemannLine()
    g = build_graph(m, pts, 3 * pts.spacing, _invariant_fields(m)[name], estimator)
    assert (g.blocks is None) == chain
    return g


@pytest.mark.parametrize("kind, chain", [("torus2", False), ("torus3", False), ("torus2", True)],
                         ids=["torus2", "torus3", "torus2-chain"])
@settings(PROPS, max_examples=12)
@given(
    name=st.sampled_from(["constant", "burago", "sum", "logcusp", "grid-x1", "grid"]),
    other=st.sampled_from(["constant", "burago", "sum", "logcusp", "grid-x1", "grid"]),
)
def test_invariant_axes_are_those_of_the_expanded_weights(kind, chain, name, other):
    # a kd-tree graph has no invariant axis, even under a field constant along every axis
    expanded = (lambda _: ()) if chain else _expanded_invariant_axes
    g = _invariant_graph(kind, name, chain)
    assert g.invariant_axes == expanded(g)
    h = g.reweight(_invariant_fields(g.manifold)[other])
    assert h.invariant_axes == expanded(h)
    if not chain:  # every axis a field declares constant is invariant
        assert set(_invariant_fields(g.manifold)[name].constant_axes(g.manifold)) <= set(g.invariant_axes)


# torus lattices of odd and of even sizes, in 2-D and 3-D, and fields whose
# graphs fold along every axis, along all but x1, and along none
MIRROR_TORI = {
    "torus2-odd": (Manifold.torus(2, [2 * np.pi, 4.0]), 0.3),  # 21 x 13 nodes
    "torus2-even": (Manifold.torus(2, [2 * np.pi, 3.78]), 0.315),  # 20 x 12 nodes
    "torus3": (Manifold.torus(3, [2 * np.pi, 3.2, 2.9]), 0.4),  # 16 x 8 x 7 nodes
}
MIRROR_FIELDS = ["constant", "scaled", "burago1", "burago2", "burago3", "logcusp", "grid"]


def _mirror_fields(m):
    rng = np.random.default_rng(5)
    return {
        "constant": Constant(0.3),
        "scaled": Sum((Constant(0.0), Constant(0.7))),
        "burago1": BuragoTorus(1),
        "burago2": BuragoTorus(2),
        "burago3": BuragoTorus(3),
        "logcusp": LogCusp((1.3, 1.1, 0.9)[: m.dim], 0.5, None),
        "grid": GridWeight(GridField(m, rng.uniform(-0.5, 0.5, (7,) + (5,) * (m.dim - 1)))),
    }


def _expected_mirror_axes(name, dim):
    if name in ("constant", "scaled"):
        return tuple(range(dim))
    return tuple(range(1, dim)) if name.startswith("burago") else ()


def _flip_axes(table, offsets, axes):
    """The axes a of ``axes`` along which each column of a lattice-shaped
    (..., 2B) table equals the column of its offset with o_a negated."""
    found = []
    for a in axes:
        flip = [offsets.index(tuple(-v if e == a else v for e, v in enumerate(o))) for o in offsets]
        if all(np.array_equal(table[..., c], table[..., f]) for c, f in enumerate(flip)):
            found.append(a)
    return tuple(found)


def _expanded_mirror_axes(g):
    """The mirror axes of a torus lattice graph by definition: the invariant
    axes along which each column of the expanded (n, 2B) CSR data equals
    the column of its offset with o_a negated."""
    table = g.csgraph.data.reshape(tuple(g.points.lattice_shape) + (len(g.blocks),))
    return _flip_axes(table, [blk.offset for blk in g.blocks], _expanded_invariant_axes(g))


@cache
def _mirror_graph(kind, name):
    m, spacing = MIRROR_TORI[kind]
    pts = lattice(m, spacing)
    g = build_graph(m, pts, 3.3 * pts.spacing, _mirror_fields(m)[name])
    assert g.blocks is not None
    return g


def _lattice_node(data, shape):
    """A node drawn with its index along each axis often 0, s // 2 or on
    either side of s / 2: on or next to a mirror plane."""
    coords = [data.draw(st.sampled_from([0, s // 2, (s + 1) // 2, s - 1]) | st.integers(0, s - 1))
              for s in shape]
    return int(np.ravel_multi_index(coords, shape))


@pytest.mark.parametrize("kind", sorted(MIRROR_TORI))
@pytest.mark.parametrize("name", MIRROR_FIELDS)
@settings(PROPS, max_examples=6)
@given(data=st.data(), other=st.sampled_from(MIRROR_FIELDS), bounded=st.booleans(), widen=st.booleans())
def test_folded_solve_is_the_full_dijkstra(kind, name, data, other, bounded, widen):
    # the solve on the CSR folded along the mirror axes, unfolded, is scipy's
    # Dijkstra on the expanded CSR bit for bit, built and reweighted,
    # unbounded, with targets, and with a first limit far too short
    g = _mirror_graph(kind, name)
    shape = g.points.lattice_shape
    for w, field in ((g, name), (g.reweight(_mirror_fields(g.manifold)[other]), other)):
        assert w.mirror_axes == _expanded_mirror_axes(w) == _expected_mirror_axes(field, g.manifold.dim)
        src = [_lattice_node(data, shape) for _ in range(data.draw(st.integers(1, 4)))]
        tgt = [_lattice_node(data, shape) for _ in range(data.draw(st.integers(1, 6)))] if bounded else None
        got = shortest_paths(replace(w, rho=1e-3 * w.rho) if widen else w, src, tgt).values
        want = dijkstra(w.csgraph, directed=True, indices=src)
        if tgt is not None:
            want = want[:, tgt]
        assert got.tobytes() == want.tobytes()


@PROPS
@given(data=st.data(), kind=st.sampled_from(sorted(MIRROR_TORI)))
def test_mirror_axes_are_the_column_flips_of_the_table(data, kind):
    # a constant table with a few columns nudged by one ulp: an axis stays a
    # mirror axis only while every column still equals its flip along it
    g = _mirror_graph(kind, "constant")
    table = g.table.copy()
    for c in data.draw(st.lists(st.integers(0, len(g.blocks) - 1), max_size=3)):
        table[..., c] = np.nextafter(table[..., c], np.inf)
    axes = tuple(range(g.manifold.dim))
    assert mt._mirror_axes(g.blocks, table, axes) == _flip_axes(table, [blk.offset for blk in g.blocks], axes)


def test_dijkstra_reads_a_repeated_entry_as_its_lighter_weight():
    # a folded CSR can list one target twice in a row, at two weights (two
    # offsets landing on one class near a mirror plane); scipy relaxes each
    # stored entry and sums no duplicates, so the lighter weight counts
    g = _mirror_graph("torus2-odd", "constant")
    folded = mt._csr(g, g.mirror_axes)
    assert any(np.unique(folded.indices[a:b]).size < b - a for a, b in zip(folded.indptr, folded.indptr[1:]))
    for first, second in ((5.0, 2.0), (2.0, 5.0)):
        csg = csr_matrix((np.array([first, second, 1.5]), np.array([1, 1, 2], dtype=np.int32), [0, 2, 3, 3]),
                         shape=(3, 3))
        assert not csg.has_canonical_format
        assert dijkstra(csg, directed=True, indices=[0]).tolist() == [[0.0, 2.0, 3.5]]


def test_boxes_and_kd_tree_graphs_have_no_invariant_axis():
    box = Manifold.box([[0.0, 2.0], [0.0, 1.0]])
    small = lattice(TORUS2, 1.5)  # fewer nodes than the eps reach spans: a kd-tree graph
    sphere = Manifold.sphere(2)
    for m, pts in ((box, lattice(box, 0.1)), (TORUS2, small), (sphere, lattice(sphere, 0.3))):
        g = build_graph(m, pts, 3 * pts.spacing, Constant(0.3))
        assert (g.blocks is not None) == (m is box)
        assert g.invariant_axes == () and g.reweight(Constant(0.0)).invariant_axes == ()
        assert g.mirror_axes == () and g.reweight(Constant(0.0)).mirror_axes == ()


def _rho_by_definition(g):
    """rho as first defined: the largest CSR weight per unit of d0 over the
    entries with d0 > 0, 0 if there are none; each entry's d0 is read from
    the CSR of the graph with its d0 in place of its weights."""
    d0 = g.d0 if g.blocks is None else np.array([b.d0 for b in g.blocks]).reshape((1,) * g.manifold.dim + (-1,))
    d0 = replace(g, table=d0).csgraph.data
    pos = d0 > 0
    return float(np.max(g.csgraph.data[pos] / d0[pos])) if np.any(pos) else 0.0


RHO_BOX = Manifold.box([[0.0, 2.0], [0.0, 1.4]])
SPHERE2 = Manifold.sphere(2)
# torus and box lattices, a sphere layout, a torus lattice smaller than the
# eps reach and a kd-tree graph with a duplicated node, whose d0 = 0 edge
# rho skips
RHO_GRAPHS = {
    "torus-lattice": (TORUS2, lambda: lattice(TORUS2, 0.7)),
    "box-lattice": (RHO_BOX, lambda: lattice(RHO_BOX, 0.2)),
    "sphere": (SPHERE2, lambda: lattice(SPHERE2, 0.45)),
    "small-lattice-kdtree": (TORUS2, lambda: lattice(TORUS2, 1.0)),
    "duplicated-node": (TORUS2, lambda: PointSet(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [0.4, 0.9]]), 0.4)),
}


def _rho_fields(m):
    if m.kind == "sphere":
        return [Constant(0.3), SphereBubble(3.0, pole=(0.6, 0.0, 0.8)), Sum((SphereBubble(2.0), Constant(-0.4)))]
    return [Constant(0.3), LogCusp((1.013, 0.521), 0.3, 2.0), Sum((LogCusp((0.31, 0.27), 0.2, None), Constant(0.2)))]


@cache
def _rho_graph(case, chain):
    m, points = RHO_GRAPHS[case]
    pts = points()
    return build_graph(m, pts, 3.3 * pts.spacing, _rho_fields(m)[1],
                       ChainBall(budget=100, seed=3) if chain else RiemannLine())


# a chain ball of radius 0 is an InputError, so the duplicated node is RiemannLine's only
RHO_ESTIMATORS = [(case, chain) for case in sorted(RHO_GRAPHS) for chain in (False, True)
                  if not (chain and case == "duplicated-node")]


@pytest.mark.parametrize("case, chain", RHO_ESTIMATORS,
                         ids=[f"{case}-{'chain' if chain else 'riemann'}" for case, chain in RHO_ESTIMATORS])
@settings(PROPS, max_examples=4)
@given(k=st.integers(0, 2), c=st.floats(-2.0, 2.0))
def test_rho_is_the_largest_weight_per_unit_of_d0(case, chain, k, c):
    # rho comes with the weights, from the forward entries or the compact
    # table; it is the expanded definition's float, built and reweighted
    g = _rho_graph(case, chain)
    assert (g.blocks is not None) == (not chain and case in ("torus-lattice", "box-lattice"))
    assert g.rho > 0 and g.rho == _rho_by_definition(g)
    h = g.reweight(Sum((_rho_fields(g.manifold)[k], Constant(c))))
    assert h.rho == _rho_by_definition(h)


def _former_symmetric_csr(g, field):
    """A kd-tree graph's CSR for ``field`` as it was stored before each edge
    was kept once: every pair i < j with d0 <= eps (found here over all
    pairs) as the entries (i, j) and (j, i), rows sorted by column, the
    weights computed on the entries i < j and scattered to their reverse
    entries."""
    pts = g.points.points
    i, j = np.triu_indices(g.n, 1)
    d = d0_many(g.manifold, pts[i], pts[j])
    keep = d <= g.eps
    rows, cols = np.concatenate((i[keep], j[keep])), np.concatenate((j[keep], i[keep]))
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=g.n))))
    ei, ej, d0 = rows[order], cols[order], np.concatenate((d[keep], d[keep]))[order]
    up = ei < ej
    per_edge = mt._riemann_weights if isinstance(g.estimator, RiemannLine) else mt._chain_weights
    forward = per_edge(g, field, ei[up], ej[up], d0[up])
    w = np.empty(ei.size)
    w[up] = forward
    w[~up] = forward[np.lexsort((ei[up], ej[up]))]  # rows sorted: the (j, i) in the order of (j, i)
    return csr_matrix((w, ej.astype(np.int32), indptr), shape=(g.n, g.n))


KDTREE_BOX = Manifold.box([[0.0, 2.0], [0.0, 1.0]])
SPHERE3 = Manifold.sphere(3)
# a 2- and a 3-sphere layout, scattered points, a torus and a box lattice
# smaller than the eps reach, and a ChainBall graph on a torus lattice:
# (manifold, points, eps per spacing, estimator)
KDTREE_GRAPHS = {
    "sphere2": (SPHERE2, lambda: lattice(SPHERE2, 0.3), 3.3, RiemannLine()),
    "sphere3": (SPHERE3, lambda: lattice(SPHERE3, 0.6), 3.1, RiemannLine()),
    "scattered": (TORUS2, lambda: PointSet(sample_manifold(TORUS2, 200, 11)[0], 0.45), 3.3, RiemannLine()),
    "small-torus-lattice": (TORUS2, lambda: lattice(TORUS2, 1.0), 3.3, RiemannLine()),
    "small-box-lattice": (KDTREE_BOX, lambda: lattice(KDTREE_BOX, 0.4), 3.1, RiemannLine()),
    "chain-torus-lattice": (TORUS2, lambda: lattice(TORUS2, 0.8), 3.3, ChainBall(budget=100, seed=5)),
}


@cache
def _kdtree_graph(case):
    m, points, eps_rel, estimator = KDTREE_GRAPHS[case]
    pts = points()
    return build_graph(m, pts, eps_rel * pts.spacing, Constant(0.3), estimator)


@pytest.mark.parametrize("case", sorted(KDTREE_GRAPHS))
@settings(PROPS, max_examples=4)
@given(u=st.lists(st.floats(-1.0, 1.0, exclude_max=True), min_size=5, max_size=5), c=st.floats(-2.0, 2.0))
def test_kd_tree_graphs_expand_each_stored_edge_both_ways(case, u, c):
    # a kd-tree graph stores each edge once, as a pair i < j with one
    # weight, and its CSR is the former symmetric one, bit for bit, built
    # and reweighted; Dijkstra on it reads the reference's distances
    g = _kdtree_graph(case)
    m = g.manifold
    x = _point(m, u)
    assume(x is not None)
    other = SphereBubble(3.0, pole=tuple(x)) if m.kind == "sphere" else LogCusp(tuple(x), 0.3, 2.0)
    assert g.blocks is None and g.pairs.dtype == np.int32 and np.all(g.pairs[0] < g.pairs[1])
    src = [0, g.n // 2, g.n - 1]
    for field, w in ((Constant(0.3), g), (Sum((other, Constant(c))), g.reweight(Sum((other, Constant(c)))))):
        got, want = w.csgraph, _former_symmetric_csr(w, field)
        for a, b in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert 2 * w.table.size == got.nnz
        assert shortest_paths(w, src).values.tobytes() == dijkstra(want, directed=True, indices=src).tobytes()


def test_a_graph_of_coincident_nodes_has_rho_zero_and_solves_unbounded(monkeypatch):
    # every edge has d0 = 0, so rho is 0 and Dijkstra gets no limit
    g = build_graph(TORUS2, PointSet(np.array([[1.0, 2.0], [1.0, 2.0]]), 0.4), 1.3, Constant(0.5))
    assert g.blocks is None and g.rho == 0.0 == _rho_by_definition(g)
    limits = []
    real = mt.dijkstra

    def recorded(*args, **kwargs):
        limits.append(kwargs["limit"])
        return real(*args, **kwargs)

    monkeypatch.setattr(mt, "dijkstra", recorded)
    assert shortest_paths(g, [0], [1]).values.tolist() == [[0.0]]
    assert limits == [np.inf]


# tori of unequal periods and a box whose axes hold 11, 13 and 8 nodes, with
# fields declaring constant axes built on one periodic field: BuragoTorus on
# the tori, read periodically (as on a stable-norm patch) on the box
DECLARE_LATTICES = {
    kind: (m, lattice(m, spacing))
    for kind, (m, spacing) in dict(
        ORBIT_TORI, box3=(Manifold.box([[0.0, 1.0], [-0.5, 0.7], [1.0, 1.7]]), 0.1)
    ).items()
}


def _declaring_fields(m):
    base = BuragoTorus(2)
    if m.kind == "box":
        base = _Lifted(ORBIT_TORI["torus3"][0], base)
    return {
        "constant": Constant(0.3),
        "periodic": base,
        "scaled": Sum((base, Constant(-0.4))),
        "sum": Sum((base, Constant(0.5), Sum((base, Constant(0.1))))),
    }


@dataclass(frozen=True)
class _Undeclared(WeightField):
    """The same field declaring no constant axis."""

    field: WeightField

    def validate(self, m):
        self.field.validate(m)

    def eval_many(self, m, x):
        return self.field.eval_many(m, x)


@pytest.mark.parametrize("kind", ["torus2", "torus3"])
@pytest.mark.parametrize("name", ["constant", "periodic", "scaled", "sum", "lifted"])
@PROPS
@given(seed=seeds)
def test_declared_axes_leave_eval_many_unchanged(kind, name, seed):
    m = DECLARE_LATTICES[kind][0]
    fields = _declaring_fields(m)
    field = _Lifted(m, fields["sum"]) if name == "lifted" else fields[name]
    axes = list(field.constant_axes(m))
    assert axes and set(axes) <= set(range(m.dim))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (64, m.dim)) * m.periods  # cover coordinates, for _Lifted
    y = x.copy()
    y[:, axes] = rng.uniform(-2.0, 2.0, (64, len(axes))) * m.periods[axes]
    assert field.eval_many(m, y).tobytes() == field.eval_many(m, x).tobytes()


def test_a_sum_declares_the_axes_all_its_fields_share():
    m = ORBIT_TORI["torus3"][0]
    assert Constant(1.0).constant_axes(m) == (0, 1, 2)
    assert Sum((BuragoTorus(1), Constant(0.5))).constant_axes(m) == (1, 2)
    assert Sum((BuragoTorus(1), LogCusp((1.0, 1.0, 1.0), 0.5))).constant_axes(m) == ()


@pytest.mark.parametrize("kind", sorted(DECLARE_LATTICES))
@settings(PROPS, max_examples=10)
@given(
    name=st.sampled_from(["constant", "periodic", "scaled", "sum"]),
    other=st.sampled_from(["constant", "periodic", "scaled", "sum"]),
    eps_rel=st.floats(3.0, 3.7),  # within the reach every axis holds
)
def test_declared_axes_keep_lattice_weights_bit_for_bit(kind, name, other, eps_rel):
    m, pts = DECLARE_LATTICES[kind]
    fields = _declaring_fields(m)
    g = build_graph(m, pts, eps_rel * pts.spacing, fields[name])
    want = build_graph(m, pts, eps_rel * pts.spacing, _Undeclared(fields[name]))
    assert g.blocks is not None and want.blocks is not None
    assert g.csgraph.data.tobytes() == want.csgraph.data.tobytes()
    got = g.reweight(fields[other]).csgraph.data
    assert got.tobytes() == want.reweight(_Undeclared(fields[other])).csgraph.data.tobytes()


# tori and boxes of unequal extents, in 2-D and 3-D.  A field constant
# along all but x1 takes chunks of n / s_1 blocks: 12 and 11 in 2-D, fewer
# than the B = 14 blocks at eps = 3 spacings, so the last chunk is partial;
# 90 and 110 in 3-D, more than B = 61 there and fewer than B = 132 and
# 128 at 4 spacings
TABLE_LATTICES = {
    kind: (m, lattice(m, spacing))
    for kind, (m, spacing) in {
        "torus2": (Manifold.torus(2, [2 * np.pi, 3.0]), 0.25),  # 25 x 12 nodes
        "torus3": (Manifold.torus(3, [2 * np.pi, 4.5, 5.0]), 0.5),  # 13 x 9 x 10 nodes
        "box2": (Manifold.box([[0.0, 2.0], [0.0, 1.0]]), 0.1),  # 21 x 11 nodes
        "box3": (Manifold.box([[0.0, 1.0], [-0.5, 0.5], [0.0, 0.9]]), 0.1),  # 11 x 11 x 10 nodes
    }.items()
}
TABLE_FIELDS = ["constant", "scaled", "x1", "cusp", "capped", "grid1", "grid3"]


def _table_fields(m, pts):
    """Fields constant along every axis, along all but x1 (BuragoTorus, read
    periodically on a box), and along none: a cusp off the lattice, capped
    and uncapped, and multilinear and cubic grid fields."""
    rng = np.random.default_rng(6)
    center = tuple(pts.points[len(pts) // 2] + 0.013)
    grid = GridField(m, rng.uniform(-0.5, 0.5, (7,) + (5,) * (m.dim - 1)))
    return {
        "constant": Constant(0.3),
        "scaled": Sum((Constant(0.1), Constant(0.2))),
        "x1": BuragoTorus(2) if m.kind == "torus" else _Lifted(Manifold.torus(m.dim), BuragoTorus(2)),
        "cusp": LogCusp(center, 0.3, None),
        "capped": LogCusp(center, 0.3, 2.0),
        "grid1": GridWeight(grid, 1),
        "grid3": GridWeight(grid, 3),
    }


def _per_block_table(g, field):
    """The lattice weight table as first built, one forward block at a time
    on its source sub-box alone: the Gauss points of its edges per axis,
    at the sub-box's first index along the field's constant axes, then the
    block's mirror as its roll."""
    m = g.manifold
    ts, ws = mt.gauss_rule(mt._GAUSS_POINTS)
    n = m.dim
    axes, shape = g.points.axes(), tuple(g.points.lattice_shape)
    constant = set(field.constant_axes(m))
    half = len(g.blocks) // 2
    table = np.zeros(tuple(1 if a in constant else s for a, s in enumerate(shape)) + (2 * half,))
    for b, blk in enumerate(g.blocks[:half]):
        o = blk.offset
        if m.kind == "torus":
            lo, hi = (0,) * n, shape
        else:
            lo = tuple(max(0, -v) for v in o)
            hi = tuple(s - max(0, v) for s, v in zip(shape, o))
        cols = []
        for a in range(n):
            i = np.arange(lo[a], lo[a] + 1 if a in constant else hi[a])
            x, y = np.zeros((i.size, n)), np.zeros((i.size, n))
            x[:, a], y[:, a] = axes[a][i], axes[a][(i + o[a]) % shape[a]]
            cols.append(geodesic_points(m, x, y, ts)[:, :, a])
        gam = np.empty(tuple(c.shape[1] for c in cols) + (n,))
        acc = np.zeros(gam.shape[:-1])
        for k, wk in enumerate(ws):
            for a, c in enumerate(cols):
                gam[..., a] = c[k].reshape([-1 if e == a else 1 for e in range(n)])
            acc += wk * np.exp(field.eval_many(m, gam.reshape(-1, n))).reshape(acc.shape)
        box = tuple(slice(0, 1) if a in constant else slice(lo[a], hi[a]) for a in range(n))
        table[box + (b,)] = acc * blk.d0
        table[..., half + b] = np.roll(table[..., b], o, axis=tuple(range(n)))
    return table


def _weighting(g):
    return g.table.shape, g.table.tobytes(), g.invariant_axes, g.mirror_axes, np.float64(g.rho).tobytes()


@pytest.mark.parametrize("kind", sorted(TABLE_LATTICES))
@settings(PROPS, max_examples=8)
@given(
    name=st.sampled_from(TABLE_FIELDS),
    other=st.sampled_from(TABLE_FIELDS),
    eps_rel=st.floats(3.0, 4.0),  # within the reach every axis holds
)
@example(name="x1", other="cusp", eps_rel=3.0)
@example(name="cusp", other="x1", eps_rel=4.0)
def test_chunked_lattice_table_is_the_per_block_table(kind, name, other, eps_rel):
    m, pts = TABLE_LATTICES[kind]
    fields = _table_fields(m, pts)
    eps = eps_rel * pts.spacing
    g = build_graph(m, pts, eps, fields[name])
    with patch.object(mt, "_riemann_lattice_table", _per_block_table):
        want = build_graph(m, pts, eps, fields[name])
        want_other = want.reweight(fields[other])
    assert g.blocks is not None and [tuple(b) for b in g.blocks] == [tuple(b) for b in want.blocks]
    assert _weighting(g) == _weighting(want)
    assert _weighting(g.reweight(fields[other])) == _weighting(want_other)


# stable_norm's endpoints t v lie on each torus's period lattice: t = 1, 2 times
# the diagonal period vector on torus2, and times P_2 e_2 on torus3, where the
# diagonal one would need a patch of over 10^5 nodes
PATCH_PERIODS = {"torus2": [1, 1], "torus3": [0, 1, 0]}


def _patch_weights(m, field, v):
    """Edge weights of every cover patch stable_norm builds."""
    seen, real = [], mt._eps_graph

    def spy(*args, **kwargs):
        g = real(*args, **kwargs)
        seen.append((g.blocks is not None, g.csgraph.data.tobytes()))
        return g

    with patch.object(mt, "_eps_graph", spy):
        mt.stable_norm(m, field, v, [1.0, 2.0], check_corridor=False)
    return seen


@pytest.mark.parametrize("kind", ["torus2", "torus3"])
@pytest.mark.parametrize("name", ["periodic", "sum"])
def test_declared_axes_keep_stable_norm_patches_bit_for_bit(kind, name):
    m = DECLARE_LATTICES[kind][0]
    field = _declaring_fields(m)[name]
    v = m.periods * PATCH_PERIODS[kind]
    got = _patch_weights(m, field, v)
    assert len(got) == 2 and all(lattice_graph for lattice_graph, _ in got)
    assert got == _patch_weights(m, _Undeclared(field), v)


def _savetxt_csv(dm, path):
    """The former DistanceMatrix.write_csv: np.savetxt formats every cell."""
    header = ",".join(["source"] + [str(t) for t in dm.targets])
    rows = np.column_stack([dm.sources.astype(float), dm.values])
    np.savetxt(path, rows, delimiter=",", header=header, comments="")


# signed zeros and infinities, NaNs with other signs and payloads, the
# smallest subnormal and the largest finite float
CSV_SPECIALS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308] + list(
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8DEADBEEF0001],
             dtype=np.uint64).view(np.float64)
)


@settings(PROPS, max_examples=60)
@given(
    sources=st.lists(st.integers(0, 10**6), max_size=12),
    targets=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
    pool=st.lists(st.floats(width=64) | st.sampled_from(CSV_SPECIALS), min_size=1, max_size=8),
    distinct=st.booleans(),
    seed=seeds,
)
@example(sources=[], targets=[7, 2], pool=[1.0], distinct=False, seed=0)  # header only
@example(sources=[4], targets=[9], pool=[5e-324], distinct=False, seed=0)  # 1 x 1
@example(sources=[5, 0, 3], targets=list(range(40, 0, -1)), pool=CSV_SPECIALS, distinct=False, seed=1)
@example(sources=[9, 1, 2, 8], targets=list(range(50, 0, -1)), pool=[1.0], distinct=True, seed=2)
def test_write_csv_is_the_savetxt_bytes(tmp_path_factory, sources, targets, pool, distinct, seed):
    rng = np.random.default_rng(seed)
    shape = (len(sources), len(targets))
    if distinct:  # (almost surely) every cell its own float, over the whole exponent range
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    else:  # every cell one of a few floats, as in a lattice graph's rows
        values = rng.choice(np.array(pool), shape)
    dm = mt.DistanceMatrix(sources=np.array(sources, dtype=np.int64),
                           targets=np.array(targets, dtype=np.int64), values=values)
    out = tmp_path_factory.mktemp("csv")
    dm.write_csv(out / "new.csv")
    _savetxt_csv(dm, out / "savetxt.csv")
    assert (out / "new.csv").read_bytes() == (out / "savetxt.csv").read_bytes()
