"""Property tests: the flat-ball sampler, the torus wraps, the torus/box
node grid shared by lattices and grid fields, the d0 metric axioms, the
e^{nc} scaling of ball masses, nearest-node snapping on lattices, the
eps-graph distances (metric axioms, e^c scaling,
monotonicity in eps and in the LogCusp cap, the one-solve-per-orbit shortest
paths against per-source Dijkstra), the connectivity of accepted
lattice graphs, the invariance of the Muckenhoupt-type diagnostics
under constant shifts of f, and the axes a field declares it is constant
along (the field ignores them; lattice weights keep every bit).

Hypothesis runs derandomized, so every run of the suite checks the same
examples.
"""

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, dijkstra

import conflab.metric as mt

from conflab.diagnostics import (
    BallSampler,
    ap_product,
    doubling_constant,
    reverse_holder,
    subset_ratio_exponent,
)
from conflab.manifold import (
    BallSpec,
    Manifold,
    d0_many,
    _closed_form_volume,
    lattice,
    sample_ball,
    torus_delta,
    torus_wrap,
    unit_ball_volume,
)
from conflab.metric import ChainBall, RiemannLine, build_graph, shortest_paths
from conflab.schrodinger import GridGeometry
from conflab.weight import (
    BuragoTorus,
    Constant,
    GridField,
    LogCusp,
    Scaled,
    SphereBubble,
    Sum,
    WeightField,
    _Lifted,
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
        exact = _wrapped_disc_area(r)
    _, w, se = sample_ball(m, b, 2000, seed)
    assert se > 0.0
    assert abs(w.sum() - exact) <= 4 * se
    assert _closed_form_volume(m, b) is None


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
)
@example(periods=[2 * np.pi, 3.0], shape=(4, 3), entries=["-1e-17", 0.25, "-0"], stretch=1.0)
def test_torus_wrap_is_the_np_mod_wrap(periods, shape, entries, stretch):
    p = np.asarray(periods)
    size = int(np.prod(shape, dtype=int)) * p.size
    x = np.empty(size)
    for k in range(size):
        e, pa = entries[k % len(entries)], p[k % p.size]
        x[k] = WRAP_SPECIAL[e](pa) if isinstance(e, str) else e * pa * stretch
    x = x.reshape(shape + (p.size,))
    y = np.mod(x, p)
    want = np.where(y < p, y, 0).tobytes()  # sign of zero included
    assert torus_wrap(x.copy(), p).tobytes() == want
    assert Manifold.torus(p.size, p).canonicalize(x).tobytes() == want


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
    scaled, _ = mu_f_ball(m, Scaled(SphereBubble(10.0**log_lam), shift), b)
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
    scaled = _distances(m, pts, eps_rel, Scaled(field, c))
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
    scaled, _ = mu_f_ball(m, Scaled(field, c), b, 500, seed)
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
    np.testing.assert_allclose(diag(Scaled(SHIFT_BASE, c)), diag(SHIFT_BASE), rtol=1e-10)


# torus lattices with unequal periods, under fields invariant along every
# axis, along all but x1, and along none
ORBIT_TORI = {
    "torus2": (Manifold.torus(2, [2 * np.pi, 4.0]), 0.3),  # 21 x 13 nodes
    "torus3": (Manifold.torus(3, [2 * np.pi, 3.2, 3.0]), 0.4),  # 16 x 8 x 8 nodes
}
ORBIT_FIELDS = {
    "constant": Constant(0.3),
    "scaled": Scaled(Constant(0.0), 0.7),
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
    real = mt._weight_per_d0
    shrink = patch.object(mt, "_weight_per_d0", lambda gg: 1e-3 * real(gg)) if widen else nullcontext()
    with shrink:
        got = shortest_paths(g, src, tgt).values
    want = np.vstack([dijkstra(g.csgraph, directed=False, indices=s) for s in src])
    if tgt is not None:
        want = want[:, tgt]
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
        "scaled": Scaled(base, -0.4),
        "sum": Sum((base, Constant(0.5), Scaled(base, 0.1))),
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
