from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from conflab.errors import InputError
from conflab.manifold import Manifold, PointSet, d0_many, lattice
from conflab.metric import (
    ChainBall,
    DistanceMatrix,
    RiemannLine,
    _NODE_BUDGET,
    _SPACING,
    _cover_distance,
    _lattice_offsets,
    build_graph,
    fit_rate,
    refine_distance,
    shortest_paths,
    stable_norm,
)
from conflab.weight import BuragoTorus, Constant, GridField, GridWeight, LogCusp, SphereBubble, Sum

TWO_NODES = PointSet(points=np.array([[0.0, 0.0], [1.0, 0.0]]), spacing=0.4)


def test_edge_weight_closed_forms(torus2):
    g_r = build_graph(torus2, TWO_NODES, 1.3, Constant(0.0), RiemannLine())
    assert g_r.csgraph.data[0] == pytest.approx(1.0, rel=1e-14)
    g_c = build_graph(torus2, TWO_NODES, 1.3, Constant(0.0), ChainBall(budget=400))
    assert g_c.csgraph.data[0] == pytest.approx(0.5, rel=1e-14)


def test_chain_vs_riemann_two_node_factor(torus2):
    # the chain increment of a single edge is exactly half the line integral
    # for the trivial weight; the factor-2 relation is kept literal
    g_r = build_graph(torus2, TWO_NODES, 1.3, Constant(0.0), RiemannLine())
    g_c = build_graph(torus2, TWO_NODES, 1.3, Constant(0.0), ChainBall(budget=400))
    assert 2 * shortest_paths(g_c, [0]).get(0, 1) == pytest.approx(
        shortest_paths(g_r, [0]).get(0, 1), rel=1e-12
    )


def test_weight_scaling_per_edge(torus2):
    g0 = build_graph(torus2, TWO_NODES, 1.3, Constant(0.0), RiemannLine())
    for c in (0.5, -1.2):
        gc = g0.reweight(Constant(c))
        assert gc.csgraph.data[0] == pytest.approx(np.exp(c) * g0.csgraph.data[0], rel=1e-12)


def test_connectivity_precondition(torus2):
    pts = lattice(torus2, 0.5)
    with pytest.raises(InputError) as exc:
        build_graph(torus2, pts, 1.2, Constant(0.0))
    assert "eps >= 3 * spacing" in str(exc.value)


@pytest.mark.parametrize(
    "eps, words",
    [(np.nan, "positive and finite"), (np.inf, "positive and finite"), ("a", "eps must be numbers")],
    ids=["nan", "inf", "text"],
)
def test_build_graph_rejects_a_bad_eps(torus2, eps, words):
    # NaN and inf used to fail converting a reach to int, text comparing it
    with pytest.raises(InputError, match=words):
        build_graph(torus2, lattice(torus2, 0.5), eps, Constant(0.0))


def test_graph_on_points_just_below_zero(torus2):
    pts = PointSet(points=np.array([[-1e-17, 0.0], [0.3, 0.0], [0.6, 0.0]]), spacing=0.3)
    g = build_graph(torus2, pts, 0.9, Constant(0.0))
    assert shortest_paths(g, [0]).values[0, 2] == pytest.approx(0.6, abs=1e-12)


def test_flat_distance_three_percent(torus2, rng):
    pts = lattice(torus2, 0.1)
    g = build_graph(torus2, pts, 3 * pts.spacing, Constant(0.0))
    src = rng.choice(len(pts), 6, replace=False)
    dm = shortest_paths(g, src)
    for s in src:
        tgt = rng.choice(len(pts), 30, replace=False)
        dd0 = d0_many(torus2, pts.points[tgt], pts.points[s])
        ok = dd0 > 0.5
        rel = np.abs(dm.row(s)[tgt][ok] / dd0[ok] - 1.0)
        assert rel.max() <= 0.03


def test_distance_matrix_symmetry_triangle(torus2):
    pts = lattice(torus2, 0.35)
    g = build_graph(torus2, pts, 3 * pts.spacing, BuragoTorus(1))
    dm = shortest_paths(g, None)
    v = dm.values
    assert np.allclose(v, v.T, atol=1e-12)
    assert np.allclose(np.diag(v), 0.0)
    n = v.shape[0]
    idx = np.random.default_rng(0).integers(0, n, (200, 3))
    viol = v[idx[:, 0], idx[:, 2]] - v[idx[:, 0], idx[:, 1]] - v[idx[:, 1], idx[:, 2]]
    assert viol.max() <= 1e-12


def test_scaling_equivariance_full(torus2):
    pts = lattice(torus2, 0.25)
    g0 = build_graph(torus2, pts, 3 * pts.spacing, BuragoTorus(1))
    g1 = g0.reweight(Sum((BuragoTorus(1), Constant(0.8))))
    d0v = shortest_paths(g0, [0, 5]).values
    d1v = shortest_paths(g1, [0, 5]).values
    mask = d0v > 0
    assert np.abs(d1v[mask] / d0v[mask] / np.exp(0.8) - 1.0).max() <= 1e-10


def test_monotone_in_eps(torus2):
    pts = lattice(torus2, 0.15)
    d_prev = None
    for eps in (0.45, 0.9, 1.35):
        g = build_graph(torus2, pts, eps, Constant(0.0))
        d = shortest_paths(g, [0]).values
        if d_prev is not None:
            assert np.all(d <= d_prev + 1e-12)
        d_prev = d


def test_refine_flat_and_scaled(torus2):
    pairs = [
        (np.array([0.0, 0.0]), np.array([1.0, 0.0])),
        (np.array([0.3, 0.4]), np.array([2.0, 1.3])),
    ]
    res = refine_distance(torus2, Constant(0.0), pairs, [0.6, 0.3, 0.15])
    assert np.abs(res.extrapolated / res.pair_d0 - 1.0).max() <= 5e-3
    res_c = refine_distance(torus2, Constant(0.4), pairs, [0.6, 0.3, 0.15])
    expect = np.exp(0.4) * res_c.pair_d0
    assert np.abs(res_c.extrapolated / expect - 1.0).max() <= 5e-3


def test_refine_burago_valley(torus2):
    # vertical pair through the weight minimum: the optimal path hugs the
    # valley x1 = 0 and costs 2^{-1/2} per unit length
    pairs = [(np.array([0.0, 0.0]), np.array([0.0, np.pi]))]
    res = refine_distance(torus2, BuragoTorus(1), pairs, [0.6, 0.3, 0.15])
    assert res.extrapolated[0] == pytest.approx(np.pi / np.sqrt(2.0), rel=0.01)


def test_chain_riemann_consistency_modulo_factor(torus2):
    pts = lattice(torus2, 0.2)
    g_r = build_graph(torus2, pts, 3 * pts.spacing, BuragoTorus(1))
    g_c = build_graph(torus2, pts, 3 * pts.spacing, BuragoTorus(1), ChainBall(seed=1))
    src = [0, 200, 700]
    dr = shortest_paths(g_r, src).values
    dc = shortest_paths(g_c, src).values
    mask = dr > 1.0
    assert np.abs(2 * dc[mask] / dr[mask] - 1.0).max() <= 0.03


def test_fit_rate_exact_model():
    eps = np.array([0.4, 0.2, 0.1])
    a, b, q = fit_rate(eps, (2.0 + 0.3 * eps**1.5)[:, None])
    assert a[0] == pytest.approx(2.0, abs=1e-6)
    assert q[0] == pytest.approx(1.5, abs=0.05)
    # a single series is a one-column table
    assert np.array_equal(fit_rate(list(eps), list(2.0 + 0.3 * eps**1.5)), (a, b, q))


@pytest.mark.parametrize("eps", [[0.4, 0.2], [0.3, 0.15, 0.075], [0.5, 0.3, 0.2, 0.1]], ids=len)
def test_fit_rate_of_a_table_is_each_column_fitted_alone(eps):
    eps = np.array(eps)
    rng = np.random.default_rng(3)
    table = 1.0 + 0.3 * eps[:, None] ** rng.uniform(-2.0, 2.0, 30) + 1e-3 * rng.standard_normal((eps.size, 30))
    table[:, 4] = 2.0  # a constant column: every q fits it exactly
    a, b, q = fit_rate(eps, table)
    assert a.shape == b.shape == q.shape == (30,)
    for k in range(30):
        one = fit_rate(eps, table[:, [k]])
        assert np.array_equal(np.ravel(one), [a[k], b[k], q[k]])


def test_stable_norm_flat(torus2):
    P = 2 * np.pi
    r = stable_norm(torus2, Constant(0.0), [0.0, 1.0], [P, 2 * P])
    assert r.estimate == pytest.approx(1.0, rel=0.01)


def test_stable_norm_burago(torus2):
    P = 2 * np.pi
    r2 = stable_norm(torus2, BuragoTorus(1), [0.0, 1.0], [P, 2 * P, 3 * P])
    assert r2.estimate == pytest.approx(2.0**-0.5, rel=0.01)
    r1 = stable_norm(torus2, BuragoTorus(1), [1.0, 0.0], [P, 2 * P, 3 * P])
    oracle = quad(lambda t: np.sqrt(1 - 0.5 * np.cos(t)), 0, 2 * np.pi)[0] / (2 * np.pi)
    assert r1.estimate == pytest.approx(oracle, rel=0.01)
    assert r2.corridor_check <= 1e-9


def test_stable_norm_subadditive(torus2):
    P = 2 * np.pi
    n_e1, n_e2, n_diag = (
        stable_norm(torus2, BuragoTorus(1), v, [P, 2 * P], check_corridor=False).estimate
        for v in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
    )
    assert np.sqrt(2.0) * n_diag <= (n_e1 + n_e2) * 1.02


def test_stable_norm_off_the_axes_is_sound_on_period_vectors(torus2):
    # rho = e^f = sqrt(1 - cos(x1)/2): the closed form c dx2 + sqrt(rho^2 - c^2) dx1
    # calibrates the Clairaut geodesic of constant c, which advances
    # X(c) = int_0^P c / sqrt(rho^2 - c^2) dx1 in x2 per period P in x1;
    # direction (1, 1) is X(c) = P, and its unit norm is
    # (c P + int_0^P sqrt(rho^2 - c^2) dx1) / (P sqrt 2)
    P = 2 * np.pi
    rho2 = lambda x: 1 - 0.5 * np.cos(x)  # noqa: E731
    c = brentq(lambda c: quad(lambda x: c / np.sqrt(rho2(x) - c * c), 0, P)[0] - P, 0.0, 0.7)
    exact = (c * P + quad(lambda x: np.sqrt(rho2(x) - c * c), 0, P)[0]) / (P * np.sqrt(2.0))
    assert exact == pytest.approx(0.965258, abs=1e-6)
    r = stable_norm(torus2, BuragoTorus(1), [1.0, 1.0], [P, 2 * P])
    assert exact <= r.estimate <= 1.015 * exact
    # t v = (P, P)/sqrt 2 is off the period lattice along x1, where the field varies
    with pytest.raises(InputError, match=r"t v = \[4.44.*not a whole number of periods"):
        stable_norm(torus2, BuragoTorus(1), np.array([1.0, 1.0]) / np.sqrt(2.0), [P, 2 * P])


def _per_t(m, v, t_list):
    """Flat cover distance per unit of snapped displacement at each t, on
    stable_norm's patch at its first margin, 2 eps."""
    return [_cover_distance(m, Constant(0.0), np.asarray(v, dtype=float), t, 6 * _SPACING, _NODE_BUDGET)
            for t in t_list]


def test_stable_norm_flat_at_a_node_tie(torus2):
    # t = pi lies half-way between lattice nodes 31 h and 32 h; the cover
    # distance is divided by the snapped displacement, not by t
    r = stable_norm(torus2, Constant(0.0), [0.0, 1.0], [np.pi, 2 * np.pi])
    assert _per_t(torus2, [0.0, 1.0], [np.pi, 2 * np.pi]) == pytest.approx([1.0, 1.0], rel=1e-12)
    assert r.estimate == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "m, v, t_list",
    [(Manifold.torus(2, [150.0, 150.0]), [0, 1], [5, 10]),
     (Manifold.torus(3, [13.0] * 3), [0, 0, 1], [1, 2])],
    ids=["T2-150", "T3-13"],
)
def test_stable_norm_of_a_torus_over_the_lattice_budget(m, v, t_list):
    # the torus lattice at the cover spacing would exceed the lattice budget;
    # only its node steps are read, and the patch is small
    r = stable_norm(m, Constant(0.0), v, t_list, check_corridor=False)
    assert _per_t(m, v, t_list) == pytest.approx([1.0, 1.0], rel=1e-12)
    assert r.estimate == pytest.approx(1.0, rel=1e-12)


def test_stable_norm_margin_check_sees_an_offaxis_valley(torus2):
    # the cheapest line x1 = 1 lies 1.0 off the segment: outside the margin
    # 2 eps = 0.6, inside the doubled one
    P = 2 * np.pi
    x = np.arange(64) * (P / 64)
    vals = np.repeat(0.5 * np.log(1 - 0.5 * np.cos(x - 1.0))[:, None], 64, axis=1)
    f = GridWeight(GridField(manifold=torus2, values=vals), 1)
    r = stable_norm(torus2, f, [0.0, 1.0], [P, 2 * P])
    assert r.corridor_check > 1e-3
    assert r.estimate == pytest.approx(2.0**-0.5, rel=0.01)


@pytest.mark.parametrize(
    "t_list",
    [
        [0.0, 1.0],
        [-1.0, 1.0],
        [0.01, 1.0],  # under half a lattice step: snaps onto the origin
    ],
    ids=["t_list0-0.1", "t_list1-0.1", "t_list2-0.1"],  # 0.1: the cover lattice spacing
)
def test_stable_norm_rejects_bad_t_and_spacing(torus2, t_list):
    with pytest.raises(InputError):
        stable_norm(torus2, Constant(0.0), [0.0, 1.0], t_list)


def test_distance_matrix_get_unknown_target():
    dm = DistanceMatrix(sources=np.array([0]), targets=np.array([0, 1]), values=np.ones((1, 2)))
    assert dm.get(0, 1) == 1.0
    with pytest.raises(InputError):
        dm.get(0, 2)


def test_distance_matrix_export(tmp_path, torus2):
    pts = lattice(torus2, 0.6)
    g = build_graph(torus2, pts, 3 * pts.spacing, Constant(0.0))
    dm = shortest_paths(g, [0, 3])
    csv_path = tmp_path / "dist.csv"
    dm.write_csv(csv_path)
    rows = np.column_stack([dm.sources.astype(float), dm.values])
    header = ",".join(["source"] + [str(t) for t in dm.targets])
    np.savetxt(tmp_path / "savetxt.csv", rows, delimiter=",", header=header, comments="")
    assert csv_path.read_bytes() == (tmp_path / "savetxt.csv").read_bytes()
    # %.18e round-trips every float64
    assert np.loadtxt(csv_path, delimiter=",", skiprows=1).tobytes() == rows.tobytes()


def test_box_lattice_graph(torus2):
    from conflab.manifold import Manifold

    box = Manifold.box([[0.0, 2.0], [0.0, 1.0]])
    pts = lattice(box, 0.1)
    g = build_graph(box, pts, 3 * pts.spacing, Constant(0.0))
    dm = shortest_paths(g, [0])
    d0v = d0_many(box, pts.points, pts.points[0])
    ok = d0v > 0.4
    rel = dm.values[0][ok] / d0v[ok] - 1.0
    assert rel.min() >= -1e-12
    assert rel.max() <= 0.03


def test_disconnected_graph_reported(torus2):
    # two distant clusters with a spacing claim that passes the eps check
    cluster = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05]])
    pts = PointSet(
        points=np.vstack([cluster, cluster + np.array([3.0, 3.0])]), spacing=0.03
    )
    with pytest.raises(InputError) as exc:
        build_graph(torus2, pts, 0.1, Constant(0.0))
    assert "components" in str(exc.value)


def test_sphere_graph_distances(sphere2):
    pts = lattice(sphere2, 0.12)
    g = build_graph(sphere2, pts, 3 * 0.12, Constant(0.0))
    dm = shortest_paths(g, [0])
    d0v = d0_many(sphere2, pts.points, pts.points[0])
    ok = d0v > 0.8
    rel = dm.values[0][ok] / d0v[ok] - 1.0
    assert rel.min() >= -1e-9  # graph metric never undershoots
    assert rel.max() <= 0.05


def _dilate(x: np.ndarray, lam: float) -> np.ndarray:
    """sigma^-1(lam sigma(x)) on S^2, sigma the stereographic projection
    from the bubble's pole (0, 0, 1)."""
    y = lam * x[:, :2] / (1.0 - x[:, 2:])
    r2 = np.sum(y * y, axis=1, keepdims=True)
    return np.hstack([2.0 * y, r2 - 1.0]) / (r2 + 1.0)


@pytest.mark.parametrize("lam", [1.0, 10.0])
def test_bubble_graph_distances_are_the_dilated_round_distances(sphere2, lam):
    # the bubble metric is the round metric pulled back by the dilation, so
    # d_f(x, y) = d0(dilate(x), dilate(y)) exactly; no lattice node is the
    # pole, where sigma divides by zero
    pts = lattice(sphere2, 0.1)
    g = build_graph(sphere2, pts, 3 * pts.spacing, SphereBubble(lam))
    sources = np.arange(4) * (g.n // 4)
    y = _dilate(pts.points, lam)
    exact = d0_many(sphere2, y[sources][:, None], y[None])
    far = exact > 0.2
    rel = shortest_paths(g, sources).values[far] / exact[far] - 1.0
    assert rel.min() >= -1e-12  # graph metric never undershoots
    assert rel.max() <= 0.03 and np.median(rel) <= 0.005


def test_stable_norm_node_budget(torus2):
    from conflab.errors import ResourceError

    # a 20,000 x 20,000 patch of the cover: raised before any node is built
    with pytest.raises(ResourceError, match="over the budget 400000$"):
        stable_norm(torus2, Constant(0.0), [1.0, 1.0], [2000.0, 4000.0])


def test_logcusp_distance_finite(torus2):
    # blow-up weight stays integrable: distances through the cusp are finite
    # (the singular center is kept off lattice midpoints)
    pts = lattice(torus2, 0.3)
    g = build_graph(torus2, pts, 3 * pts.spacing, LogCusp((np.pi + 0.013, np.pi - 0.029), 0.6))
    dm = shortest_paths(g, [0])
    assert np.all(np.isfinite(dm.values))


def test_chain_ball_edge_on_box_face_is_truncated():
    # the chain ball of an edge along a face is a half disc, so the weight is
    # (mu0(B)/omega)^{1/2} = r / sqrt(2), not the full-disc r = 0.1
    box = Manifold.box([[0.0, 1.0], [0.0, 1.0]])
    pts = PointSet(points=np.array([[0.0, 0.0], [0.2, 0.0]]), spacing=0.1)
    g = build_graph(box, pts, 0.3, Constant(0.0), ChainBall(budget=400))
    exact = 0.1 / np.sqrt(2)
    # binomial error of the half-disc acceptance over at least 2 * 400 draws,
    # halved by the square root
    se = exact / 2 * np.sqrt(0.5 * 0.5 / 800) / 0.5
    assert abs(g.csgraph.data[0] - exact) <= 3 * se


def test_chain_ball_checks_its_budget_when_made():
    with pytest.raises(InputError, match="budget must be >= 100"):
        ChainBall(budget=50)


@pytest.mark.parametrize("budget, seed", [(100, 0), (300, 7)])
def test_chain_ball_graph_reweights_to_itself_bit_for_bit(torus2, budget, seed):
    # the estimator holds its Monte Carlo budget and seed, so reweighting to
    # the graph's own field redraws every edge mass from the same stream
    pts = lattice(torus2, 1.0)
    est = ChainBall(budget=budget, seed=seed)
    g = build_graph(torus2, pts, 3 * pts.spacing, BuragoTorus(1), est)
    again = g.reweight(BuragoTorus(1))
    assert again.estimator is est
    assert again.csgraph.data.tobytes() == g.csgraph.data.tobytes()
    reseeded = build_graph(torus2, pts, g.eps, BuragoTorus(1), replace(est, seed=seed + 1))
    assert reseeded.csgraph.indices.tobytes() == g.csgraph.indices.tobytes()
    assert not np.array_equal(reseeded.csgraph.data, g.csgraph.data)


# lattices on which every reach from 3 to 5 nodes leaves the offsets unaliased
LATTICE_GRAPHS = {
    "T2-unequal": (Manifold.torus(2, [2 * np.pi, 3.0]), 0.25),
    "T3": (Manifold.torus(3), 2 * np.pi / 12),
    "T3-unequal": (Manifold.torus(3, [2 * np.pi, 5.5, 6.0]), 0.5),
    "B2": (Manifold.box([[0.0, 2.0], [0.0, 1.0]]), 0.1),
    "B3": (Manifold.box([[0.0, 1.0], [-0.5, 1.0], [0.0, 1.2]]), 0.1),
    "B3-thin": (Manifold.box([[0.0, 1.0], [0.0, 1.3], [-0.2, 0.9]]), 0.1),
}


def _lattice_edges_one_by_one(m, pts, eps):
    """Edges per half-space offset, each source node in row-major order to
    its translate."""
    shape = np.asarray(pts.lattice_shape)
    src = np.indices(shape).reshape(shape.size, -1).T
    ei, ej, ed = [], [], []
    for off, d in _lattice_offsets(pts.axis_spacing, eps):
        dst = src + off
        if m.kind == "torus":
            dst %= shape
        keep = np.all((dst >= 0) & (dst < shape), axis=1)
        ei.append(np.ravel_multi_index(src[keep].T, shape))
        ej.append(np.ravel_multi_index(dst[keep].T, shape))
        ed.append(np.full(keep.sum(), d))
    return np.concatenate(ei), np.concatenate(ej), np.concatenate(ed)


@pytest.mark.parametrize("case", sorted(c for c in LATTICE_GRAPHS if c.startswith("T")))
def test_torus_indptr_counts_the_filled_slots(case):
    # a torus fills every slot of the node-major (n, 2B) table, B half-space
    # blocks and their mirrors, so its indptr is a plain stride of 2B, in
    # the CSR's index dtype, and edge_i, read from the row counts without
    # an expansion, must agree
    m, spacing = LATTICE_GRAPHS[case]
    pts = lattice(m, spacing)
    eps = 4.3 * pts.spacing
    g = build_graph(m, pts, eps, Constant(0.0))
    assert len(g.blocks) == 2 * len(_lattice_offsets(pts.axis_spacing, eps))
    counted = np.arange(len(pts) + 1) * len(g.blocks)
    csg = g.csgraph
    assert csg.indptr.dtype == csg.indices.dtype == np.int32
    assert csg.indptr.tobytes() == counted.astype(np.int32).tobytes()
    assert np.array_equal(g.edge_i, np.repeat(np.arange(g.n), np.diff(counted)))


@pytest.mark.parametrize("case", sorted(LATTICE_GRAPHS))
def test_lattice_csr_is_node_major(case):
    # row i lists node i's edges in _lattice_offsets order, then the same
    # offsets negated, unsorted: _lattice_csr broadcasts the weights from
    # an (n, 2B) table whose first B columns are the half-space blocks
    m, spacing = LATTICE_GRAPHS[case]
    pts = lattice(m, spacing)
    eps = 4.3 * pts.spacing
    g = build_graph(m, pts, eps, Constant(0.0))
    shape = np.asarray(pts.lattice_shape)
    offsets = _lattice_offsets(pts.axis_spacing, eps)
    offsets += [(tuple(-np.asarray(o)), d) for o, d in offsets]
    off, d0 = np.array([o for o, _ in offsets]), np.array([d for _, d in offsets])
    indices, indptr, edge_d0 = [], [0], []
    for i in range(g.n):
        dst = np.array(np.unravel_index(i, shape)) + off
        if m.kind == "torus":
            dst %= shape
        keep = np.all((dst >= 0) & (dst < shape), axis=1)
        indices.append(np.ravel_multi_index(dst[keep].T, shape))
        indptr.append(indptr[-1] + keep.sum())
        edge_d0.append(d0[keep])
    csg = g.csgraph
    assert np.array_equal(csg.indices, np.concatenate(indices))
    assert np.array_equal(csg.indptr, indptr)
    assert _entry_d0(g).tobytes() == np.concatenate(edge_d0).tobytes()


def _entry_d0(g):
    """d0 of each entry of ``g.csgraph``: the CSR of the graph with its
    d0 in place of its weights (a lattice graph's blocks' d0 at extent 1)."""
    d0 = g.d0 if g.blocks is None else np.array([b.d0 for b in g.blocks]).reshape((1,) * g.manifold.dim + (-1,))
    return replace(g, table=d0).csgraph.data


@pytest.mark.parametrize("reach", [3, 4, 5])
@pytest.mark.parametrize("case", sorted(LATTICE_GRAPHS))
def test_block_weights_match_edge_list(case, reach):
    m, spacing = LATTICE_GRAPHS[case]
    pts = lattice(m, spacing)
    eps = (reach + 0.3) * pts.spacing  # reach nodes along the widest-spaced axis
    center = pts.points[len(pts) // 2] + 0.013
    fields = [Constant(0.4), LogCusp(tuple(center), 0.3, None), LogCusp(tuple(center), 0.3, 2.0)]
    if m.kind == "torus":
        fields.append(BuragoTorus(2))
    g = build_graph(m, pts, eps, fields[0])
    assert g.blocks is not None
    # the CSR holds exactly the (i, j, d0) triples of the one-by-one edge
    # list, each also read from the other end as (j, i, d0)
    csg = g.csgraph
    assert csg.indices.dtype == np.int32
    assert not (csg.indices.flags.writeable or csg.indptr.flags.writeable)
    got = (g.edge_i, csg.indices, _entry_d0(g))
    ei, ej, ed = _lattice_edges_one_by_one(m, pts, eps)
    want = (np.concatenate((ei, ej)), np.concatenate((ej, ei)), np.concatenate((ed, ed)))
    assert np.array_equal(got[0], np.repeat(np.arange(g.n), np.diff(csg.indptr)))
    order_got, order_want = np.lexsort(got[1::-1]), np.lexsort(want[1::-1])
    for a, b in zip(got, want):
        assert a[order_got].tobytes() == b[order_want].astype(a.dtype).tobytes()
    # the per-edge geodesic_points path, on the one-by-one edges stored as
    # kd-tree pairs i < j, whose CSR has sorted rows (here with d0 as weights)
    pairs = np.sort(np.stack((ei, ej)), axis=0).astype(np.int32)
    edge_list = replace(g, pairs=pairs, d0=ed, blocks=None, table=ed)
    sorted_csg = edge_list.csgraph
    assert sorted_csg.indices.tobytes() == got[1][order_got].tobytes()
    assert sorted_csg.data.tobytes() == got[2][order_got].tobytes()
    for field in fields:
        blocked = g.reweight(field)
        assert blocked.blocks is g.blocks
        # the reweighted graph stores its blocks and weight table, no CSR,
        # and expands to the same edges
        assert [k for k, v in vars(blocked).items() if isinstance(v, (np.ndarray, csr_matrix))] == ["table"]
        expanded = blocked.csgraph
        assert expanded.indices.tobytes() == csg.indices.tobytes()
        assert expanded.indptr.tobytes() == csg.indptr.tobytes()
        want_w = edge_list.reweight(field).csgraph.data
        np.testing.assert_allclose(expanded.data[order_got], want_w, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(g.csgraph.data[order_got], edge_list.reweight(fields[0]).csgraph.data,
                               rtol=1e-13, atol=0.0)
    # Dijkstra on the symmetric node-major CSR equals the undirected solve
    # on its upper triangle
    w = g.reweight(fields[1])
    src = [0, g.n // 3, g.n - 1]
    full = dijkstra(_upper_triangle(w), directed=False, indices=src)
    assert shortest_paths(w, src).values.tobytes() == full.tobytes()
    tgt = sorted({1, g.n // 2, g.n // 3 + 2, g.n - 5})
    assert shortest_paths(w, src, tgt).values.tobytes() == full[:, tgt].tobytes()


def _upper_triangle(g):
    """The entries i < j of a graph's CSR, as a sorted CSR of their
    weights: the half-stored undirected graph."""
    csg = g.csgraph
    ei, ej = g.edge_i, csg.indices
    up = ei < ej
    return csr_matrix((csg.data[up], (ei[up], ej[up])), shape=(g.n, g.n))


def _symmetric_cases():
    t2, box, s2 = Manifold.torus(2), Manifold.box([[0.0, 2.0], [0.0, 1.0]]), Manifold.sphere(2)
    return {
        "torus-lattice": (t2, lattice(t2, 0.5), True),
        "box-lattice": (box, lattice(box, 0.125), True),
        "sphere-kdtree": (s2, lattice(s2, 0.3), False),
        "small-lattice-kdtree": (t2, lattice(t2, 1.0), False),
    }


@pytest.mark.parametrize("estimator", [RiemannLine(), ChainBall(budget=100, seed=3)], ids=["riemann", "chain"])
@pytest.mark.parametrize("case", ["torus-lattice", "box-lattice", "sphere-kdtree", "small-lattice-kdtree"])
def test_csr_is_its_own_transpose(case, estimator):
    # every edge is stored both ways with one weight, bit for bit, so the
    # directed solve on it is the undirected solve on its upper triangle;
    # only RiemannLine takes the lattice layout, ChainBall always the kd-tree
    m, pts, on_lattice = _symmetric_cases()[case]
    center = tuple(pts.points[len(pts) // 2] + 0.013) if m.kind != "sphere" else (0.6, 0.0, 0.8)
    fields = (Constant(0.3), SphereBubble(3.0, pole=center) if m.kind == "sphere" else LogCusp(center, 0.3, 2.0))
    g = build_graph(m, pts, 3.3 * pts.spacing, fields[0], estimator)
    assert (g.blocks is not None) == (on_lattice and isinstance(estimator, RiemannLine))
    for w in (g, g.reweight(fields[1])):
        c = w.csgraph.copy()
        c.sort_indices()
        t = w.csgraph.T.tocsr()
        t.sort_indices()
        for a, b in ((c.indptr, t.indptr), (c.indices, t.indices), (c.data, t.data)):
            assert a.tobytes() == b.tobytes()
        src = [0, w.n // 2, w.n - 1]
        want = dijkstra(_upper_triangle(w), directed=False, indices=src)
        assert shortest_paths(w, src).values.tobytes() == want.tobytes()


def test_graphs_solve_without_a_transpose(monkeypatch):
    # Dijkstra and the component count read the symmetric CSR as directed,
    # so neither builds the transpose an undirected solve needs
    import scipy.sparse as sp

    def refuse(self, *args, **kwargs):
        raise AssertionError("the CSR was transposed")

    monkeypatch.setattr(sp.csr_matrix, "transpose", refuse)
    t2 = Manifold.torus(2)
    # a torus lattice, a lattice smaller than the eps reach and a sphere layout
    for m, spacing in ((t2, 0.25), (t2, 1.0), (Manifold.sphere(2), 0.3)):
        pts = lattice(m, spacing)
        g = build_graph(m, pts, 3 * pts.spacing, Constant(0.0))
        shortest_paths(g, [0, 3])
        shortest_paths(g, [0], [1, g.n - 1])
    with pytest.raises(AssertionError, match="transposed"):
        dijkstra(g.csgraph, directed=False, indices=[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_edge_weights_must_be_finite_and_nonnegative(torus2, monkeypatch, bad):
    import conflab.metric as mt

    monkeypatch.setattr(mt, "_riemann_weights", lambda g, field, ei, ej, d0: np.full(ei.size, bad))
    with pytest.raises(InputError, match="finite and nonnegative"):
        build_graph(torus2, TWO_NODES, 1.3, Constant(0.0))
    # lattice graphs check their compact weight tables, in which a box keeps
    # zeros in its empty slots: the bad value still reaches a torus and a
    # box through their block weights, built or reweighted, from every Gauss
    # weight; a ChainBall graph on the same lattice nodes is a kd-tree graph,
    # and the bad value reaches it from the forward edges of one node
    box = Manifold.box([[0.0, 2.0], [0.0, 2.0]])
    graphs = [build_graph(m, pts, 3 * pts.spacing, Constant(0.0))
              for m, pts in ((m, lattice(m, 0.25)) for m in (torus2, box))]
    gauss = mt.gauss_rule
    monkeypatch.setattr(mt, "gauss_rule", lambda k: (gauss(k)[0], np.full(k, bad)))
    monkeypatch.setattr(mt, "_chain_weights", lambda g, field, ei, ej, d0: np.where(ei == 5, bad, d0))
    for g in graphs:
        assert g.blocks is not None
        for weigh in (lambda: build_graph(g.manifold, g.points, g.eps, Constant(0.0)),
                      lambda: g.reweight(Constant(0.2)),
                      lambda: build_graph(g.manifold, g.points, g.eps, Constant(0.0), ChainBall())):
            with pytest.raises(InputError, match="finite and nonnegative"):
                weigh()


@pytest.mark.parametrize("which", ["sources", "targets"])
@pytest.mark.parametrize(
    "bad", [lambda n: [-1], lambda n: [n], lambda n: [1.5], lambda n: [[0, 1]]],
    ids=["negative", "n", "float", "2-d"],
)
def test_shortest_paths_rejects_bad_node_indices(torus2, which, bad):
    pts = lattice(torus2, 0.5)
    g = build_graph(torus2, pts, 3 * pts.spacing, Constant(0.0))
    with pytest.raises(InputError):
        if which == "sources":
            shortest_paths(g, bad(g.n))
        else:
            shortest_paths(g, [0], bad(g.n))


def _u_shaped_points():
    """Scattered points on the U [0, 3]^2 minus [0.6, 2.4] x [0.6, 3]; the
    tops of its arms are 2.4 apart in d0 but over 6 apart in the graph."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 3.0, (6000, 2))
    pts = pts[(pts[:, 0] < 0.6) | (pts[:, 0] > 2.4) | (pts[:, 1] < 0.6)]
    return PointSet(points=pts, spacing=0.05)


def _bounded_cases():
    t2, box, s2 = Manifold.torus(2), Manifold.box([[0.0, 2.0], [0.0, 1.0]]), Manifold.sphere(2)
    torus_pts = lattice(t2, 0.05)
    box_pts = lattice(box, 0.05)
    sphere_pts = lattice(s2, 0.12)
    u_box = Manifold.box([[0.0, 3.0], [0.0, 3.0]])
    u_pts = _u_shaped_points()
    return {
        "torus-burago16": (t2, torus_pts, 3 * torus_pts.spacing, BuragoTorus(16)),
        "box-capped-logcusp": (box, box_pts, 3 * box_pts.spacing, LogCusp((0.713, 0.471), 0.3, 2.0)),
        "sphere-kdtree": (s2, sphere_pts, 0.36, Constant(0.2)),
        "u-shape-kdtree": (u_box, u_pts, 0.15, Constant(0.0)),
    }


@pytest.mark.parametrize("case", ["torus-burago16", "box-capped-logcusp", "sphere-kdtree", "u-shape-kdtree"])
def test_bounded_solve_is_the_full_solve(case):
    m, pts, eps, field = _bounded_cases()[case]
    g = build_graph(m, pts, eps, field)
    if case == "u-shape-kdtree":
        src = [pts.nearest(m, [0.3, 2.9])]
        tgt = [pts.nearest(m, [2.7, 2.9]), pts.nearest(m, [0.4, 2.5]), src[0]]
    else:
        src = [pts.nearest(m, pts.points[k]) for k in (0, len(pts) // 3, len(pts) - 1)]
        tgt = sorted({int(j) for i in src for j in np.argsort(d0_many(m, pts.points, pts.points[i]))[:40:3]})
        tgt += [len(pts) // 2, 0]  # one far target and a repeated source
    full = shortest_paths(g, src)
    bounded = shortest_paths(g, src, tgt)
    assert np.array_equal(bounded.sources, full.sources)
    assert np.array_equal(bounded.targets, tgt)
    assert bounded.values.tobytes() == full.values[:, tgt].tobytes()
    if case == "u-shape-kdtree":
        # even twice the first limit rho (R + eps) falls short, so the solve widens
        rho = np.max(g.csgraph.data / _entry_d0(g))
        reach = d0_many(m, pts.points[src][:, None], pts.points[tgt][None]).max()
        assert full.get(src[0], tgt[0]) > 2 * rho * (reach + eps)


def _count_solved_sources(monkeypatch):
    """The node indices passed to metric.dijkstra, one list per call."""
    import conflab.metric as mt

    solved, real = [], mt.dijkstra

    def counting(*args, **kwargs):
        solved.append(np.atleast_1d(kwargs["indices"]).tolist())
        return real(*args, **kwargs)

    monkeypatch.setattr(mt, "dijkstra", counting)
    return solved


ORBIT_TORUS = Manifold.torus(2, [2 * np.pi, 4.0])


@pytest.mark.parametrize(
    "field, orbits",
    [
        (Constant(0.3), lambda src, shape: 1),
        (Sum((Constant(0.0), Constant(0.7))), lambda src, shape: 1),
        # e^{nf} depends on x1 alone: one solve per distinct x1 index
        (BuragoTorus(2), lambda src, shape: np.unique(src // shape[1]).size),
        (LogCusp((1.3, 1.1), 0.5, None), lambda src, shape: np.unique(src).size),
    ],
    ids=["constant", "scaled", "burago", "logcusp"],
)
def test_shortest_paths_solves_one_source_per_orbit(monkeypatch, field, orbits):
    pts = lattice(ORBIT_TORUS, 0.1)
    g = build_graph(ORBIT_TORUS, pts, 3 * pts.spacing, field)
    src = np.concatenate([np.arange(0, g.n, 37), [0, 37]])  # strided, with duplicates
    solved = _count_solved_sources(monkeypatch)
    got = shortest_paths(g, src).values
    assert len(solved) == 1 and len(solved[0]) == orbits(src, pts.lattice_shape)
    assert got.tobytes() == dijkstra(g.csgraph, directed=False, indices=src).tobytes()


def test_box_lattice_shares_no_orbit(monkeypatch):
    # a constant field on a box: the faces break every translation
    box = Manifold.box([[0.0, 2.0], [0.0, 1.0]])
    pts = lattice(box, 0.05)
    g = build_graph(box, pts, 3 * pts.spacing, Constant(0.3))
    src = [0, 5, g.n // 2, g.n - 1, 5]
    solved = _count_solved_sources(monkeypatch)
    got = shortest_paths(g, src).values
    assert solved == [[0, 5, g.n // 2, g.n - 1]]
    assert got.tobytes() == dijkstra(g.csgraph, directed=False, indices=src).tobytes()


def test_lattice_graphs_skip_the_component_count(torus2, monkeypatch):
    import conflab.metric as mt

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice graph is connected by its unit offsets")

    monkeypatch.setattr(mt, "connected_components", refuse)
    for m in (torus2, Manifold.box([[0.0, 2.0], [0.0, 1.0]])):
        pts = lattice(m, 0.1)
        assert build_graph(m, pts, 3 * pts.spacing, Constant(0.0)).blocks is not None


def test_lattice_graph_without_a_unit_offset_is_rejected(torus2):
    # a lattice whose spacing claim hides its coarse first axis: eps reaches
    # no neighbour along axis 0, so the graph is a stack of separate columns
    pts = lattice(torus2, 0.5)
    fake = replace(pts, spacing=0.05, axis_spacing=np.array([1.0, 0.05]))
    with pytest.raises(InputError, match="axis 0"):
        build_graph(torus2, fake, 0.15, Constant(0.0))


@pytest.mark.parametrize(
    "m, spacing, field",
    [(Manifold.torus(2), 0.05, BuragoTorus(1)),
     (Manifold.box([[0.0, 3.0], [0.0, 3.0]]), 0.03, Constant(0.0))],
    ids=["torus", "box"],
)
def test_lattice_graph_memory_per_edge(m, spacing, field):
    # 32 bytes per undirected edge: its two CSR entries (an int32 target and
    # a float64 weight each), with room for the build's node-major tables
    # and Dijkstra's scans; block-major int64 edge arrays plus a CSR rebuilt
    # per solve took 56
    import tracemalloc

    pts = lattice(m, spacing)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = build_graph(m, pts, 0.3, field)
        shortest_paths(g, [0, 5])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.csgraph.nnz > 800_000
    assert peak <= 16 * g.csgraph.nnz  # nnz counts each undirected edge twice


def _traced_peak(call):
    """call()'s result and the most memory it held at once, by tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_constant_torus_lattice_graph_holds_no_per_entry_array():
    # a lattice graph keeps its blocks and compact weight table, which a
    # Constant field leaves at extent 1 along every axis; its CSR is built
    # only for a solve, so building or reweighting it peaks below one byte
    # per entry of that CSR
    m = Manifold.torus(2)
    pts = lattice(m, 0.05)
    g, built = _traced_peak(lambda: build_graph(m, pts, 0.3, Constant(0.2)))
    _, reweighted = _traced_peak(lambda: g.reweight(Constant(0.5)))
    nnz = g.csgraph.nnz
    assert nnz > 800_000
    assert max(built, reweighted) < nnz


def test_box_weighting_of_a_field_varying_along_every_axis_is_chunked():
    # a cusp varies along every axis, so each chunk of the weighting holds
    # one block and n Gauss points per Gauss node; the build peaks at the
    # (n, 2B) weight table and a little more, 19.8 bytes per undirected
    # edge here, where weighting all 158 blocks at once peaked at 87.9
    m = Manifold.box([[0.0, 3.0], [0.0, 3.0]])
    pts = lattice(m, 0.03)
    g, peak = _traced_peak(lambda: build_graph(m, pts, 0.3, LogCusp((1.013, 1.021), 0.3, None)))
    assert len(g.blocks) == 2 * 158
    assert peak <= 24 * (g.csgraph.nnz // 2)


@pytest.mark.parametrize(
    "call, words",
    [
        (lambda t2: refine_distance(t2, Constant(0.0), [((1.0, 1.0), (2.0, 2.0))], [0.3]),
         "at least two"),
        (lambda t2: refine_distance(t2, Constant(0.0), [((1.0, 1.0), (2.0, 2.0))], [0.6, "a"]),
         "eps schedule must be numbers"),
        (lambda t2: stable_norm(Manifold.box([[0, 1], [0, 1]]), Constant(0.0), [1.0, 0.0],
                                [1.0, 2.0]), "torus"),
        (lambda t2: stable_norm(t2, Constant(0.0), [0.0, 0.0], [1.0, 2.0]), "nonzero"),
        (lambda t2: stable_norm(t2, Constant(0.0), [0.0, 1.0], [2 * np.pi]), ">= 2 entries"),
        (lambda t2: stable_norm(t2, Constant(0.0), [np.nan, 1.0], [1.0, 2.0]), "finite 2-vector"),
        (lambda t2: stable_norm(t2, Constant(0.0), [np.inf, 1.0], [1.0, 2.0]), "finite 2-vector"),
        (lambda t2: stable_norm(t2, Constant(0.0), [0.0, 1.0, 0.0], [1.0, 2.0]),
         "finite 2-vector"),
        (lambda t2: stable_norm(t2, Constant(0.0), ["a", 1.0], [1.0, 2.0]),
         "direction must be numbers"),
        (lambda t2: stable_norm(t2, Constant(0.0), [0.0, 1.0], ["a", 2.0]), "t_list must be numbers"),
        (lambda t2: refine_distance(t2, Constant(0.0), [(1.0, 2.0, 3.0)], [1.5, 1.0]), "point pairs"),
        # each read "lattice spacing must be positive and finite"
        (lambda t2: refine_distance(t2, Constant(0.0), [((1.0, 1.0), (2.0, 2.0))], [0.6, np.nan]),
         r"eps schedule entries must be positive and finite, got \[0.6, nan\]"),
        (lambda t2: refine_distance(t2, Constant(0.0), [((1.0, 1.0), (2.0, 2.0))], [0.6, 0.0]),
         "eps schedule entries must be positive and finite"),
        (lambda t2: refine_distance(t2, Constant(0.0), [((1.0, 1.0), (2.0, 2.0))], [0.6, -0.3]),
         "eps schedule entries must be positive and finite"),
        (lambda t2: fit_rate([0.4, 0.2, 0.1], np.ones((2, 3))), r"one table row per eps \(3\)"),
        (lambda t2: fit_rate([0.4], [1.0]), "two or more distinct"),
        (lambda t2: fit_rate([0.4, 0.4, 0.4], np.ones((3, 2))), "two or more distinct"),
        (lambda t2: fit_rate([0.4, 0.2, -0.1], np.ones(3)), "positive finite eps"),
        (lambda t2: fit_rate([0.4, 0.2, 0.1], [[1.0, 2.0], [np.nan, 2.0], [1.0, 2.0]]),
         "finite distances"),
        (lambda t2: fit_rate([0.4, 0.2], ["a", 1.0]), "fit_rate distances must be numbers"),
        (lambda t2: fit_rate(["a", 0.2], [1.0, 1.0]), "fit_rate eps must be numbers"),
    ],
    ids=["refine-one-eps", "refine-text-eps", "stable-norm-box", "stable-norm-zero-direction",
         "stable-norm-one-t", "stable-norm-nan-direction", "stable-norm-inf-direction",
         "stable-norm-3-vector", "stable-norm-text-direction", "stable-norm-text-t",
         "refine-non-pair", "refine-nan-eps", "refine-zero-eps", "refine-negative-eps",
         "fit-rate-row-count", "fit-rate-one-eps", "fit-rate-equal-eps", "fit-rate-negative-eps",
         "fit-rate-nan-table", "fit-rate-text-table", "fit-rate-text-eps"],
)
def test_metric_rejects_bad_inputs(torus2, call, words):
    with pytest.raises(InputError, match=words):
        call(torus2)
