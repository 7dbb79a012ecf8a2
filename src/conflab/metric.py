"""Conformal distances from eps-proximity graphs.

Distances for the deformed metric are realized as shortest paths on a graph
over a covering point set, with two edge-weight estimators:

* RiemannLine: Gauss-rule line integral of e^f along the base geodesic
  segment; the graph metric approximates the Riemannian distance d_f from
  above (chordal overshoot shrinks as eps grows on a fixed point set).
* ChainBall: the chain increment (mu_f(B_xy)/omega_n)^{1/n} with B_xy the
  ball whose diameter is the segment [x, y].  Note the exact flat-case value
  of one edge is d0/2, so the chain-ball graph metric carries a factor 1/2
  relative to RiemannLine; the factor is kept literal and documented, and
  consistency checks compare 2 * chain against the line estimator.

Also here: scheduled refinement with fitted-rate extrapolation, metric balls
with their masses, and the stable norm of periodic weights, whose patches of
the torus's universal cover are box lattices on the same eps-graph path.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from math import pi
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .errors import FormatError, InputError, ResourceError
from .manifold import (
    BallSpec,
    Manifold,
    PointSet,
    _lattice_shape,
    d0_many,
    gauss_rule,
    geodesic_points,
    grid_axes,
    lattice,
    unit_ball_volume,
)
from .rng import derive_seed
from .weight import WeightField, mu_f_ball

_EDGE_CHUNK = 2_000_000


@dataclass(frozen=True)
class RiemannLine:
    """Line-integral estimator with a K-point Gauss rule per edge."""

    K: int = 5

    def tag(self) -> str:
        return f"riemann-line-{self.K}"


@dataclass(frozen=True)
class ChainBall:
    """Chain-increment estimator; Monte Carlo ball masses per edge."""

    def tag(self) -> str:
        return "chain-ball"


class LatticeBlock(NamedTuple):
    """Edges start:stop of a lattice graph: each node of the source sub-box
    lo <= index < hi, in row-major order, joined to the node ``offset``
    steps away (wrapped on a torus)."""

    offset: tuple
    start: int
    stop: int
    lo: tuple
    hi: tuple


@dataclass
class EpsGraph:
    """Undirected eps-graph: edge arrays, base lengths d0 and weights.

    ``blocks`` lists the offset blocks of a graph built on a torus or box
    lattice, in edge order; it is None for graphs whose edges come from a
    kd-tree (sphere layouts, scattered points, lattices smaller than the
    eps reach), which share no displacement.
    """

    points: PointSet
    eps: float
    estimator: object
    edge_i: np.ndarray  # one row per undirected edge
    edge_j: np.ndarray
    edge_d0: np.ndarray
    edge_w: np.ndarray
    provenance: dict = dc_field(default_factory=dict)
    blocks: Optional[list] = None
    manifold: Optional[Manifold] = None  # the geometry of d0, for bounded solves

    @property
    def n(self) -> int:
        return len(self.points)

    def to_csgraph(self) -> csr_matrix:
        return csr_matrix(
            (self.edge_w, (self.edge_i, self.edge_j)), shape=(self.n, self.n)
        )

    def reweight(self, m: Manifold, field: WeightField, budget: int, seed: int) -> "EpsGraph":
        """Same topology and blocks, weights recomputed for another field
        (shared seeds)."""
        w = _edge_weights(m, self, field, budget, seed)
        return replace(self, edge_w=w, provenance=dict(self.provenance, seed=seed))


@dataclass
class DistanceMatrix:
    sources: np.ndarray
    targets: np.ndarray
    values: np.ndarray  # (len(sources), len(targets))
    provenance: dict = dc_field(default_factory=dict)

    def row(self, source_index: int) -> np.ndarray:
        pos = np.nonzero(self.sources == source_index)[0]
        if pos.size == 0:
            raise InputError(f"distance matrix has no row for source {source_index}")
        return self.values[pos[0]]

    def get(self, source_index: int, target_index: int) -> float:
        pos = np.nonzero(self.targets == target_index)[0]
        if pos.size == 0:
            raise InputError(f"distance matrix has no column for target {target_index}")
        return float(self.row(source_index)[pos[0]])

    def write_csv(self, path) -> None:
        header = ",".join(["source"] + [str(t) for t in self.targets])
        rows = np.column_stack([self.sources.astype(float), self.values])
        np.savetxt(path, rows, delimiter=",", header=header, comments="")

    def write_binary(self, path) -> None:
        import json

        path = Path(path)
        payload = path.with_suffix(".bin").name
        manifest = {
            "version": 1,
            "sources": [int(s) for s in self.sources],
            "targets": [int(t) for t in self.targets],
            "payload": payload,
            "dtype": "f64le",
            "order": "row-major",
        }
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        (path.parent / payload).write_bytes(
            np.ascontiguousarray(self.values, dtype="<f8").tobytes()
        )

    @staticmethod
    def read_binary(path) -> "DistanceMatrix":
        import json

        path = Path(path)
        try:
            manifest = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise FormatError(f"malformed distance manifest: {exc}") from exc
        for key in ("sources", "targets", "payload", "dtype", "order"):
            if key not in manifest:
                raise FormatError(f"distance manifest missing key {key!r}")
        if manifest["dtype"] != "f64le" or manifest["order"] != "row-major":
            raise FormatError("distance payload must be f64le row-major")
        sources = np.asarray(manifest["sources"], dtype=int)
        targets = np.asarray(manifest["targets"], dtype=int)
        raw = (path.parent / manifest["payload"]).read_bytes()
        expect = sources.size * targets.size * 8
        if len(raw) != expect:
            raise FormatError(f"payload holds {len(raw)} bytes, expected {expect}")
        values = np.frombuffer(raw, dtype="<f8").reshape(sources.size, targets.size).copy()
        return DistanceMatrix(sources=sources, targets=targets, values=values)


# ---------------------------------------------------------------------------
# edge enumeration
# ---------------------------------------------------------------------------


def _lattice_offsets(shape, axis_spacing, eps):
    """Half-space integer offsets with |offset * spacing| <= eps."""
    reach = [int(np.floor(eps / h)) for h in axis_spacing]
    offsets = []
    for off in np.ndindex(*(2 * r + 1 for r in reach)):
        o = tuple(off[a] - reach[a] for a in range(len(reach)))
        if all(v == 0 for v in o):
            continue
        first = next(v for v in o if v != 0)
        if first < 0:
            continue  # keep one representative per undirected direction
        d = np.linalg.norm(np.asarray(o) * axis_spacing)
        if d <= eps:
            offsets.append((o, float(d)))
    return offsets


def _edges_lattice(m, points: PointSet, eps):
    """Lattice edges one offset block at a time, with the block list.

    A block joins every node of a source sub-box to the node one offset
    away: on a torus the whole lattice, wrapped; on a box the nodes whose
    translate stays inside.
    """
    shape = points.lattice_shape
    idx = np.arange(len(points), dtype=np.int64).reshape(shape)
    eis, ejs, d0s, blocks = [], [], [], []
    for off, d in _lattice_offsets(shape, points.axis_spacing, eps):
        if m.kind == "torus":
            lo, hi = (0,) * len(shape), shape
            dst = np.roll(idx, [-o for o in off], axis=tuple(range(len(shape))))
        else:
            lo = tuple(max(0, -o) for o in off)
            hi = tuple(s - max(0, o) for s, o in zip(shape, off))
            dst = idx[tuple(slice(a + o, b + o) for a, b, o in zip(lo, hi, off))]
        src = idx[tuple(slice(a, b) for a, b in zip(lo, hi))]
        start = sum(e.size for e in eis)
        blocks.append(LatticeBlock(off, start, start + src.size, lo, hi))
        eis.append(src.ravel())
        ejs.append(dst.ravel())
        d0s.append(np.full(src.size, d))
    return np.concatenate(eis), np.concatenate(ejs), np.concatenate(d0s), blocks


def _edges_kdtree(m, points: PointSet, eps):
    pts = points.points
    if m.kind == "torus":
        tree = cKDTree(m.canonicalize(pts), boxsize=m.periods)
        pairs = tree.query_pairs(r=eps, output_type="ndarray")
    elif m.kind == "box":
        tree = cKDTree(pts)
        pairs = tree.query_pairs(r=eps, output_type="ndarray")
    else:
        chord = 2.0 * np.sin(min(eps / m.radius, pi) / 2.0)
        tree = cKDTree(pts)
        pairs = tree.query_pairs(r=chord * (1 + 1e-12), output_type="ndarray")
    if pairs.size == 0:
        raise InputError("eps-graph has no edges; increase eps")
    i, j = pairs[:, 0], pairs[:, 1]
    d = d0_many(m, pts[i], pts[j])
    keep = d <= eps
    return i[keep], j[keep], d[keep]


# ---------------------------------------------------------------------------
# edge weights
# ---------------------------------------------------------------------------


def _riemann_weights(m, g: EpsGraph, field: WeightField, K: int) -> np.ndarray:
    if g.blocks is not None:
        return _block_riemann_weights(m, g, field, K)
    ts, ws = gauss_rule(K)
    pts = g.points.points
    out = np.zeros(g.edge_i.size)
    for lo in range(0, g.edge_i.size, _EDGE_CHUNK):
        sl = slice(lo, min(lo + _EDGE_CHUNK, g.edge_i.size))
        x = pts[g.edge_i[sl]]
        y = pts[g.edge_j[sl]]
        gam = geodesic_points(m, x, y, ts)  # (K, E, d)
        acc = np.zeros(x.shape[0])
        for k in range(K):
            acc += ws[k] * np.exp(field.eval_many(m, gam[k]))
        out[sl] = acc * g.edge_d0[sl]
    return out


def _block_riemann_weights(m, g: EpsGraph, field: WeightField, K: int) -> np.ndarray:
    """_riemann_weights of a lattice graph, one offset block at a time.

    The k-th Gauss points of a block's edges form the tensor-product grid of
    per-axis coordinate vectors, one entry per source index of the sub-box.
    geodesic_points works coordinate by coordinate, so running it on the
    s_a source/target coordinates of axis a alone gives the same bits as on
    every edge; nothing is gathered or wrapped per edge.
    """
    ts, ws = gauss_rule(K)
    axes, shape, n = g.points.axes(), g.points.lattice_shape, m.dim
    out = np.empty(g.edge_i.size)
    for b in g.blocks:
        cols = []  # (K, s_a) Gauss coordinates along each axis
        for a, (lo, hi, o) in enumerate(zip(b.lo, b.hi, b.offset)):
            i = np.arange(lo, hi)
            x, y = np.zeros((i.size, n)), np.zeros((i.size, n))
            x[:, a], y[:, a] = axes[a][i], axes[a][(i + o) % shape[a]]
            cols.append(geodesic_points(m, x, y, ts)[:, :, a])
        gam = np.empty(tuple(c.shape[1] for c in cols) + (n,))
        acc = np.zeros(b.stop - b.start)
        for k in range(K):
            for a, c in enumerate(cols):
                gam[..., a] = c[k].reshape([-1 if e == a else 1 for e in range(n)])
            acc += ws[k] * np.exp(field.eval_many(m, gam.reshape(-1, n)))
        out[b.start : b.stop] = acc * g.edge_d0[b.start : b.stop]
    return out


def _chain_weights(m, g: EpsGraph, field: WeightField, budget: int, seed: int) -> np.ndarray:
    n = m.dim
    omega = unit_ball_volume(n)
    pts = g.points.points
    mids = geodesic_points(m, pts[g.edge_i], pts[g.edge_j], np.array([0.5]))[0]
    radii = g.edge_d0 / 2.0
    out = np.empty(g.edge_i.size)
    for e in range(g.edge_i.size):
        ball = BallSpec(center=mids[e], radius=radii[e])
        mass, _ = mu_f_ball(
            m, field, ball, budget, derive_seed(seed, "edge", int(g.edge_i[e]), int(g.edge_j[e]))
        )
        out[e] = (mass / omega) ** (1.0 / n)
    return out


def _edge_weights(m, g: EpsGraph, field: WeightField, budget: int, seed: int) -> np.ndarray:
    field.validate(m)
    if isinstance(g.estimator, RiemannLine):
        w = _riemann_weights(m, g, field, g.estimator.K)
    elif isinstance(g.estimator, ChainBall):
        w = _chain_weights(m, g, field, budget, seed)
    else:
        raise InputError(f"unknown estimator {g.estimator!r}")
    if np.any(~np.isfinite(w)) or np.any(w < 0):
        raise InputError("edge weights must be finite and nonnegative")
    return w


def _eps_graph(m, points: PointSet, eps, field, estimator=RiemannLine(), budget=256, seed=0):
    """All d0 <= eps edges of ``points``, weighted per estimator.

    On a torus or box lattice whose axes each hold more nodes than the eps
    reach spans, the edges are enumerated one integer offset at a time and
    recorded as ``LatticeBlock``s, through which RiemannLine weights its
    Gauss points axis by axis; other point sets get their edges from a
    kd-tree and are weighted edge by edge.
    """
    small_lattice = points.lattice_shape is not None and any(
        2 * int(np.floor(eps / h)) + 1 > s
        for h, s in zip(points.axis_spacing, points.lattice_shape)
    )
    blocks = None
    if points.lattice_shape is not None and m.kind in ("torus", "box") and not small_lattice:
        ei, ej, ed, blocks = _edges_lattice(m, points, eps)
    else:
        # wrap reach would alias the roll-based enumeration on tiny lattices
        ei, ej, ed = _edges_kdtree(m, points, eps)
    g = EpsGraph(
        points=points,
        eps=eps,
        estimator=estimator,
        edge_i=ei,
        edge_j=ej,
        edge_d0=ed,
        edge_w=np.zeros(ei.size),
        provenance={"eps": eps, "estimator": estimator.tag(), "seed": seed},
        blocks=blocks,
        manifold=m,
    )
    g.edge_w = _edge_weights(m, g, field, budget, seed)
    return g


def build_graph(
    m: Manifold,
    points: PointSet,
    eps: float,
    field: WeightField,
    estimator=RiemannLine(),
    budget: int = 256,
    seed: int = 0,
) -> EpsGraph:
    """Proximity graph with all d0 <= eps edges, weighted per estimator
    (see ``_eps_graph``), for eps >= 3 * spacing and checked connected.

    A lattice graph holding the unit offset of every axis with more than
    one node is connected by construction, and eps >= 3 * spacing >= h_a
    puts those blocks in, so lattice graphs are checked by their offsets;
    kd-tree graphs count their connected components.
    """
    if eps < 3.0 * points.spacing - 1e-12:
        raise InputError(
            f"eps = {eps} violates the connectivity requirement "
            f"eps >= 3 * spacing = {3.0 * points.spacing}"
        )
    g = _eps_graph(m, points, eps, field, estimator, budget, seed)
    if g.blocks is not None:
        shape, offsets = points.lattice_shape, {b.offset for b in g.blocks}
        for a, s in enumerate(shape):
            if s > 1 and tuple(int(e == a) for e in range(len(shape))) not in offsets:
                raise InputError(f"eps-graph lattice has no unit edge along axis {a}")
        return g
    ncomp, _ = connected_components(g.to_csgraph(), directed=False)
    if ncomp != 1:
        raise InputError(f"eps-graph is disconnected ({ncomp} components)")
    return g


def _node_indices(idx, n: int, what: str) -> np.ndarray:
    """idx as a 1-D int array of node indices in [0, n), else InputError."""
    arr = np.atleast_1d(np.asarray(idx))
    if arr.size == 0:
        return arr.astype(int)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise InputError(f"{what} must be a 1-D sequence of integer node indices")
    if arr.min() < 0 or arr.max() >= n:
        raise InputError(f"{what} must lie in [0, {n}), got {arr.min()}..{arr.max()}")
    return arr.astype(int)


def shortest_paths(g: EpsGraph, sources=None, targets=None) -> DistanceMatrix:
    """Exact nonnegative-edge shortest paths from each source node (all
    nodes if None), to every node or only to ``targets``.

    Sources and targets are integer node indices in [0, n); anything else
    raises InputError.  With targets the matrix holds only those columns,
    and Dijkstra stops at the limit L = 2 rho (R + eps): rho is the largest
    edge weight per unit of d0 and R the largest d0 between a source and a
    target.  Every node within L keeps its optimal predecessor, which is
    within L too, so a finite entry is the unbounded solve's value bit for
    bit.  An entry that comes back infinite doubles L and solves again,
    ending with no limit, so the values are those of the full solve in
    every case.
    """
    n = g.n
    sources = np.arange(n) if sources is None else _node_indices(sources, n, "sources")
    limit = np.inf
    if targets is None:
        targets, cols = np.arange(n), slice(None)
    else:
        targets = cols = _node_indices(targets, n, "targets")
        pos = g.edge_d0 > 0
        if g.manifold is not None and np.any(pos) and sources.size and targets.size:
            pts = g.points.points
            reach = d0_many(g.manifold, pts[sources][:, None], pts[targets][None]).max()
            limit = 2.0 * float(np.max(g.edge_w[pos] / g.edge_d0[pos])) * (float(reach) + g.eps)
    csg = g.to_csgraph()
    while True:
        vals = np.atleast_2d(dijkstra(csg, directed=False, indices=sources, limit=limit))[:, cols]
        if limit == np.inf or np.all(np.isfinite(vals)):
            break
        # no finite distance exceeds the total edge weight
        limit = np.inf if limit >= np.sum(g.edge_w) else 2.0 * limit
    return DistanceMatrix(
        sources=sources, targets=targets, values=vals, provenance=dict(g.provenance)
    )


# ---------------------------------------------------------------------------
# refinement and extrapolation
# ---------------------------------------------------------------------------


def fit_rate(eps_values: np.ndarray, d_values: np.ndarray):
    """Least-squares fit of d(eps) = a + b * eps^q with q free.

    q is scanned over a grid (both signs: on a fixed point set the distances
    converge as the neighbourhood grows, i.e. as eps^q -> 0 with q < 0); the
    extrapolant a is the fitted asymptote and the observed q is reported.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    d_values = np.asarray(d_values, dtype=float)
    if eps_values.size == 2:
        # the exponent is not identifiable from 2 points; the fixed-point-set
        # distances converge as the neighbourhood grows, i.e. toward eps^-1 -> 0
        qs = np.array([-1.0])
    else:
        qs = np.concatenate([np.linspace(-6, -0.05, 120), np.linspace(0.05, 6, 120)])
        qs = qs[np.argsort(np.abs(qs), kind="stable")]  # ties go to moderate q
    best = (np.inf, d_values[-1], 0.0, 0.0)
    for q in qs:
        basis = np.column_stack([np.ones_like(eps_values), eps_values**q])
        coef, res, *_ = np.linalg.lstsq(basis, d_values, rcond=None)
        r = float(res[0]) if res.size else float(np.sum((basis @ coef - d_values) ** 2))
        if r < best[0] * (1.0 - 1e-9):
            best = (r, float(coef[0]), float(coef[1]), float(q))
    _, a, b, q = best
    return a, b, q


@dataclass
class RefineResult:
    eps_schedule: np.ndarray
    pair_nodes: np.ndarray  # (P, 2) node indices after snapping
    pair_d0: np.ndarray  # (P,) base distance of the snapped pairs
    table: np.ndarray  # (n_eps, P) graph distances
    extrapolated: np.ndarray  # (P,)
    observed_q: np.ndarray  # (P,)
    monotone_warning: np.ndarray  # (P,) True where convergence not monotone


def refine_distance(
    m: Manifold,
    field: WeightField,
    pairs: Sequence,
    eps_schedule: Sequence[float],
    budget: int = 256,
    seed: int = 0,
    estimator=RiemannLine(),
    points: Optional[PointSet] = None,
) -> RefineResult:
    """Distances across an eps schedule on one matched point set, extrapolated.

    The point set is matched to the finest schedule entry (spacing =
    min(eps)/3), so coarser entries see strictly richer chord sets and the
    per-pair distances decrease monotonically toward the metric.
    """
    eps_schedule = np.asarray(sorted(set(float(e) for e in eps_schedule), reverse=True))
    if eps_schedule.size < 2:
        raise InputError("eps schedule needs at least two decreasing entries")
    if points is None:
        points = lattice(m, float(eps_schedule.min()) / 3.0, cover=True)
    for e in eps_schedule:
        if e < 3.0 * points.spacing - 1e-12:
            raise InputError(
                f"schedule entry eps = {e} violates eps >= 3 * spacing = {3 * points.spacing}"
            )
    pair_arr = [(m.check_points(a)[0], m.check_points(b)[0]) for a, b in pairs]
    nodes = np.empty((len(pair_arr), 2), dtype=int)
    for k, (a, b) in enumerate(pair_arr):
        nodes[k] = points.nearest(m, a), points.nearest(m, b)
    pair_d0 = d0_many(m, points.points[nodes[:, 0]], points.points[nodes[:, 1]])
    sources = np.unique(nodes[:, 0])
    table = np.empty((eps_schedule.size, len(pair_arr)))
    for r, e in enumerate(eps_schedule):
        g = build_graph(m, points, float(e), field, estimator, budget, seed)
        dmat = shortest_paths(g, sources)
        for k in range(len(pair_arr)):
            table[r, k] = dmat.get(nodes[k, 0], nodes[k, 1])
    extrap = np.empty(len(pair_arr))
    qs = np.empty(len(pair_arr))
    warn = np.zeros(len(pair_arr), dtype=bool)
    for k in range(len(pair_arr)):
        a, _, q = fit_rate(eps_schedule, table[:, k])
        extrap[k] = a
        qs[k] = q
        diffs = np.diff(table[:, k])  # moving to finer eps: distances grow
        tol = 1e-12 * max(1.0, abs(table[-1, k]))
        warn[k] = bool(np.any(diffs < -tol))
    return RefineResult(
        eps_schedule=eps_schedule,
        pair_nodes=nodes,
        pair_d0=pair_d0,
        table=table,
        extrapolated=extrap,
        observed_q=qs,
        monotone_warning=warn,
    )


# ---------------------------------------------------------------------------
# metric balls
# ---------------------------------------------------------------------------


def f_ball(
    m: Manifold,
    field: WeightField,
    graph: EpsGraph,
    dmat: DistanceMatrix,
    center_index: int,
    r_f: float,
):
    """Members and mu_f mass of the graph-metric ball {d_f <= r_f}.

    Mass sums per-node quadrature cells e^{nf(x_i)} * cell_volume; a coverage
    warning is set when the requested radius exhausts the sampled graph.
    """
    row = dmat.row(center_index)
    members = np.nonzero(row <= r_f)[0]
    coverage_warning = bool(r_f > row.max())
    pts = graph.points.points[members]
    cells = graph.points.cell_volume
    cell = cells[members] if cells is not None else np.full(members.size, m.volume / graph.n)
    mass = float(np.sum(np.exp(m.dim * field.eval_many(m, pts)) * cell))
    return members, mass, coverage_warning


# ---------------------------------------------------------------------------
# stable norm on the periodic cover
# ---------------------------------------------------------------------------


@dataclass
class StableNormResult:
    direction: np.ndarray
    t_values: np.ndarray
    per_t: np.ndarray  # d(0, t v)/|snapped displacement| per t, widest margin
    estimate: float
    corridor_check: Optional[float]  # sup |narrow - wide| over t, if checked


@dataclass(frozen=True)
class _Lifted(WeightField):
    """A torus field read on a patch of the universal cover."""

    torus: Manifold
    field: WeightField

    def validate(self, m):
        self.field.validate(self.torus)

    def eval_many(self, m, x):
        return self.field.eval_many(self.torus, self.torus.canonicalize(x))


def _cover_distance(m, field, v, t, spacing, margin, node_budget) -> float:
    """Graph distance 0 -> t*v on the universal cover per unit of snapped
    displacement.

    The patch is the rectangle of torus lattice nodes (spacing h of
    ``lattice(m, spacing)``) around the segment, grown by ``margin`` on
    every side, taken as a box lattice and weighted at eps = 3 * spacing
    with the field read periodically.  A full rectangle at that eps is
    connected, so no connectivity check runs.
    """
    _, h = grid_axes(m, _lattice_shape(m, spacing))
    target = t * v
    lo = np.minimum(0.0, target) - margin
    hi = np.maximum(0.0, target) + margin
    axes = [np.arange(np.floor(a / s), np.ceil(b / s) + 1) * s for a, b, s in zip(lo, hi, h)]
    count = int(np.prod([float(a.size) for a in axes]))
    if count > node_budget:
        raise ResourceError(f"cover patch needs {count} nodes, over the budget {node_budget}")
    pts = PointSet.grid(axes, h)
    box = Manifold.box([[a[0], a[-1]] for a in axes])
    g = _eps_graph(box, pts, 3.0 * spacing, _Lifted(m, field))
    src, dst = pts.nearest(box, np.zeros(m.dim)), pts.nearest(box, target)
    if src == dst:
        raise InputError(f"t = {t} snaps to the origin; t |v| must exceed half a lattice step")
    dist = shortest_paths(g, [src]).values[0, dst]
    return float(dist / np.linalg.norm(pts.points[dst] - pts.points[src]))


def stable_norm(
    m: Manifold,
    field: WeightField,
    v,
    t_list: Sequence[float],
    spacing: float = 0.1,
    check_corridor: bool = True,
    node_budget: int = 400_000,
) -> StableNormResult:
    """Asymptotic length per unit of direction v for a periodic torus weight.

    Shortest paths at eps = 3 * spacing run on lattice rectangles of the
    universal cover around the segment 0 -> t v, grown by a margin of
    2 eps (weight evaluated periodically); the reported norm is the
    monotone-corrected a + b/t extrapolation of d(0, tv)/t.  Sufficiency
    of the margin is checked by recomputing with it doubled.
    """
    if m.kind != "torus":
        raise InputError("stable_norm is defined for torus weights")
    field.validate(m)
    v = np.asarray(v, dtype=float)
    if np.allclose(v, 0.0):
        raise InputError("stable norm direction must be nonzero")
    if not (np.isfinite(spacing) and spacing > 0):
        raise InputError(f"stable norm spacing must be positive, got {spacing}")
    t_list = np.asarray(sorted(float(t) for t in t_list))
    if np.any(np.diff(t_list) <= 0) or t_list.size < 2:
        raise InputError("t_list must be strictly increasing with >= 2 entries")
    if not np.all(np.isfinite(t_list) & (t_list > 0)):
        raise InputError("t_list entries must be positive and finite")
    margin = 6.0 * spacing  # 2 eps
    runs = [
        np.array([_cover_distance(m, field, v, t, spacing, k * margin, k * node_budget)
                  for t in t_list])
        for k in ((1, 2) if check_corridor else (1,))
    ]
    per_t = runs[-1]
    check = float(np.max(np.abs(runs[-1] - runs[0]))) if check_corridor else None
    basis = np.column_stack([np.ones_like(t_list), 1.0 / t_list])
    coef, *_ = np.linalg.lstsq(basis, per_t, rcond=None)
    est = min(float(coef[0]), float(per_t.min()))  # subadditive: inf_t is an upper bound
    return StableNormResult(
        direction=v, t_values=t_list, per_t=per_t, estimate=est, corridor_check=check
    )
