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
with their masses, and the stable norm of periodic weights on covering
strips of the torus.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import pi
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .errors import FormatError, InputError, ResourceError
from .manifold import (
    BallSpec,
    Manifold,
    PointSet,
    d0_many,
    gauss_rule,
    geodesic_points,
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


@dataclass
class EpsGraph:
    points: PointSet
    eps: float
    estimator: object
    edge_i: np.ndarray  # one row per undirected edge
    edge_j: np.ndarray
    edge_d0: np.ndarray
    edge_w: np.ndarray
    provenance: dict = dc_field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.points)

    def to_csgraph(self) -> csr_matrix:
        return csr_matrix(
            (self.edge_w, (self.edge_i, self.edge_j)), shape=(self.n, self.n)
        )

    def reweight(self, m: Manifold, field: WeightField, budget: int, seed: int) -> "EpsGraph":
        """Same topology, weights recomputed for another field (shared seeds)."""
        w = _edge_weights(m, self, field, budget, seed)
        return EpsGraph(
            points=self.points,
            eps=self.eps,
            estimator=self.estimator,
            edge_i=self.edge_i,
            edge_j=self.edge_j,
            edge_d0=self.edge_d0,
            edge_w=w,
            provenance=dict(self.provenance, seed=seed),
        )


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
        return float(self.row(source_index)[np.nonzero(self.targets == target_index)[0][0]])

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
        manifest = json.loads(path.read_text())
        for key in ("sources", "targets", "payload", "dtype", "order"):
            if key not in manifest:
                raise FormatError(f"distance manifest missing key {key!r}")
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


def _edges_torus_lattice(m, points: PointSet, eps):
    shape = points.lattice_shape
    hs = points.axis_spacing
    idx = np.arange(len(points), dtype=np.int64).reshape(shape)
    eis, ejs, d0s = [], [], []
    for off, d in _lattice_offsets(shape, hs, eps):
        j = idx
        for a, o in enumerate(off):
            if o:
                j = np.roll(j, -o, axis=a)
        eis.append(idx.ravel())
        ejs.append(j.ravel())
        d0s.append(np.full(idx.size, d))
    return np.concatenate(eis), np.concatenate(ejs), np.concatenate(d0s)


def _edges_box_lattice(m, points: PointSet, eps):
    shape = points.lattice_shape
    hs = points.axis_spacing
    idx = np.arange(len(points), dtype=np.int64).reshape(shape)
    eis, ejs, d0s = [], [], []
    for off, d in _lattice_offsets(shape, hs, eps):
        src = idx
        for a, o in enumerate(off):
            sl = [slice(None)] * len(shape)
            sl[a] = slice(None, shape[a] - o) if o >= 0 else slice(-o, None)
            src = src[tuple(sl)]
        dst = idx
        for a, o in enumerate(off):
            sl = [slice(None)] * len(shape)
            sl[a] = slice(o, None) if o >= 0 else slice(None, shape[a] + o)
            dst = dst[tuple(sl)]
        eis.append(src.ravel())
        ejs.append(dst.ravel())
        d0s.append(np.full(src.size, d))
    return np.concatenate(eis), np.concatenate(ejs), np.concatenate(d0s)


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


def build_graph(
    m: Manifold,
    points: PointSet,
    eps: float,
    field: WeightField,
    estimator=RiemannLine(),
    budget: int = 256,
    seed: int = 0,
    skip_connectivity_check: bool = False,
) -> EpsGraph:
    """Proximity graph with all d0 <= eps edges, weighted per estimator."""
    if eps < 3.0 * points.spacing - 1e-12:
        raise InputError(
            f"eps = {eps} violates the connectivity requirement "
            f"eps >= 3 * spacing = {3.0 * points.spacing}"
        )
    small_lattice = points.lattice_shape is not None and any(
        2 * int(np.floor(eps / h)) + 1 > s
        for h, s in zip(points.axis_spacing, points.lattice_shape)
    )
    if points.lattice_shape is not None and m.kind == "torus" and not small_lattice:
        ei, ej, ed = _edges_torus_lattice(m, points, eps)
    elif points.lattice_shape is not None and m.kind == "box" and not small_lattice:
        ei, ej, ed = _edges_box_lattice(m, points, eps)
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
    )
    g.edge_w = _edge_weights(m, g, field, budget, seed)
    if not skip_connectivity_check:
        ncomp, _ = connected_components(g.to_csgraph(), directed=False)
        if ncomp != 1:
            raise InputError(f"eps-graph is disconnected ({ncomp} components)")
    return g


def shortest_paths(g: EpsGraph, sources=None) -> DistanceMatrix:
    """Exact nonnegative-edge shortest paths from each source node."""
    n = g.n
    if sources is None:
        sources = np.arange(n)
    sources = np.asarray(sources, dtype=int)
    vals = dijkstra(g.to_csgraph(), directed=False, indices=sources)
    return DistanceMatrix(
        sources=sources,
        targets=np.arange(n),
        values=np.atleast_2d(vals),
        provenance=dict(g.provenance),
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
        nodes[k, 0] = int(np.argmin(d0_many(m, points.points, a)))
        nodes[k, 1] = int(np.argmin(d0_many(m, points.points, b)))
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
    per_t: np.ndarray  # d(0, t v)/t per t, widest corridor
    estimate: float
    corridor_check: Optional[float]  # sup |narrow - wide| over t, if checked


def _cover_distance(
    m: Manifold,
    field: WeightField,
    v: np.ndarray,
    t: float,
    spacing: float,
    eps: float,
    K: int,
    corridor_halfwidth: float,
    margin: float,
    node_budget: int,
):
    """Graph distance 0 -> t*v on a corridor patch of the universal cover."""
    n = m.dim
    target = t * v
    lo = np.minimum(0.0, target) - margin
    hi = np.maximum(0.0, target) + margin
    axes = []
    for a in range(n):
        k = max(1, int(round(m.periods[a] / spacing)))
        h = m.periods[a] / k
        axes.append(np.arange(np.floor(lo[a] / h), np.ceil(hi[a] / h) + 1) * h)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    vhat = v / np.linalg.norm(v)
    rel = pts - 0.5 * target
    perp = rel - np.outer(rel @ vhat, vhat)
    keep = np.linalg.norm(perp, axis=1) <= corridor_halfwidth
    along = rel @ vhat
    keep &= (along >= -0.5 * t * np.linalg.norm(v) - margin) & (
        along <= 0.5 * t * np.linalg.norm(v) + margin
    )
    pts = pts[keep]
    if pts.shape[0] > node_budget:
        raise ResourceError(
            f"cover strip needs {pts.shape[0]} nodes, over the budget {node_budget}"
        )
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r=eps, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    d = np.linalg.norm(pts[i] - pts[j], axis=1)
    ts, ws = gauss_rule(K)
    acc = np.zeros(i.size)
    for k in range(K):
        gam = pts[i] + ts[k] * (pts[j] - pts[i])
        acc += ws[k] * np.exp(field.eval_many(m, np.mod(gam, m.periods)))
    w = acc * d
    src = int(np.argmin(np.linalg.norm(pts, axis=1)))
    dst = int(np.argmin(np.linalg.norm(pts - target, axis=1)))
    csgraph = csr_matrix((w, (i, j)), shape=(pts.shape[0], pts.shape[0]))
    dist = dijkstra(csgraph, directed=False, indices=[src])[0]
    return float(dist[dst])


def stable_norm(
    m: Manifold,
    field: WeightField,
    v,
    t_list: Sequence[float],
    spacing: float = 0.1,
    eps: Optional[float] = None,
    K: int = 5,
    corridor_periods: float = 1.0,
    margin: Optional[float] = None,
    check_corridor: bool = True,
    node_budget: int = 400_000,
) -> StableNormResult:
    """Asymptotic length per unit of direction v for a periodic torus weight.

    Shortest paths run on corridor patches of the universal cover around the
    segment 0 -> t v (weight evaluated periodically); the reported norm is
    the monotone-corrected a + b/t extrapolation of d(0, tv)/t.  Corridor
    sufficiency is checked by recomputing at twice the width.
    """
    if m.kind != "torus":
        raise InputError("stable_norm is defined for torus weights")
    field.validate(m)
    v = np.asarray(v, dtype=float)
    if np.allclose(v, 0.0):
        raise InputError("stable norm direction must be nonzero")
    t_list = np.asarray(sorted(float(t) for t in t_list))
    if np.any(np.diff(t_list) <= 0) or t_list.size < 2:
        raise InputError("t_list must be strictly increasing with >= 2 entries")
    eps = 3.0 * spacing if eps is None else eps
    margin = 2.0 * eps if margin is None else margin
    width = corridor_periods * float(np.max(m.periods)) / 2.0 + margin
    per_t = np.array(
        [
            _cover_distance(m, field, v, t, spacing, eps, K, width, margin, node_budget)
            / (t * np.linalg.norm(v))
            for t in t_list
        ]
    )
    check = None
    if check_corridor:
        wide = np.array(
            [
                _cover_distance(
                    m, field, v, t, spacing, eps, K, 2 * width, margin, node_budget * 2
                )
                / (t * np.linalg.norm(v))
                for t in t_list
            ]
        )
        check = float(np.max(np.abs(wide - per_t)))
        per_t = wide
    basis = np.column_stack([np.ones_like(t_list), 1.0 / t_list])
    coef, *_ = np.linalg.lstsq(basis, per_t, rcond=None)
    est = min(float(coef[0]), float(per_t.min()))  # subadditive: inf_t is an upper bound
    return StableNormResult(
        direction=v, t_values=t_list, per_t=per_t, estimate=est, corridor_check=check
    )
