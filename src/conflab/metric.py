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

Also here: scheduled refinement with fitted-rate extrapolation, and the
stable norm of periodic weights, whose patches of the torus's universal cover
are box lattices on the same eps-graph path.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, replace
from math import pi
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .errors import InputError, ResourceError
from .manifold import (
    BallSpec,
    Manifold,
    PointSet,
    d0_many,
    equal_slab_axes,
    gauss_rule,
    geodesic_points,
    lattice,
    lattice_steps,
    unit_ball_volume,
)
from .rng import derive_seed
from .weight import WeightField, _Lifted, check_ball_budget, mu_f_ball

_EDGE_CHUNK = 2_000_000
_GAUSS_POINTS = 5  # RiemannLine's Gauss rule per edge


@dataclass(frozen=True)
class RiemannLine:
    """Line-integral estimator with a 5-point Gauss rule per edge."""


@dataclass(frozen=True)
class ChainBall:
    """Chain-increment estimator: each edge's ball mass from ``budget`` samples, seeded by ``seed``."""

    budget: int = 256
    seed: int = 0

    def __post_init__(self):
        check_ball_budget(self.budget)


class LatticeBlock(NamedTuple):
    """Column of a lattice graph's node-major (n, B) edge table: each node of
    the source sub-box lo <= index < hi joined to the node ``offset`` steps
    away (wrapped on a torus), at base length d0."""

    offset: tuple
    d0: float
    lo: tuple
    hi: tuple


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass
class EpsGraph:
    """Undirected eps-graph stored as one CSR adjacency, a single entry
    (i, j) with the edge weight per undirected edge.

    A graph built on a torus or box lattice fills its CSR node-major: row i
    lists the edges from node i, one per offset block in block order, and
    ``blocks`` holds one ``LatticeBlock`` per column of that (n, B) table,
    from which the base lengths d0 follow.  Graphs whose edges come from a
    kd-tree (sphere layouts, scattered points, lattices smaller than the
    eps reach) share no displacement: ``blocks`` is None, the CSR rows are
    sorted and ``d0`` holds each entry's base length.
    """

    points: PointSet
    eps: float
    estimator: object
    csgraph: csr_matrix
    manifold: Manifold  # the geometry of d0 and of the edge weights
    blocks: Optional[list] = None
    d0: Optional[np.ndarray] = None  # kd-tree graphs: d0 per CSR entry

    @property
    def n(self) -> int:
        return len(self.points)

    # read-only per-edge views, in CSR order
    @property
    def edge_i(self) -> np.ndarray:
        c = self.csgraph
        return _read_only(np.repeat(np.arange(self.n, dtype=c.indices.dtype), np.diff(c.indptr)))

    @property
    def edge_j(self) -> np.ndarray:
        return _read_only(self.csgraph.indices)

    @property
    def edge_d0(self) -> np.ndarray:
        if self.blocks is None:
            return _read_only(self.d0)
        every_axis = range(self.manifold.dim)
        return _read_only(_lattice_entries(self.manifold, self.points, self.blocks, lambda b: b.d0, every_axis))

    def reweight(self, field: WeightField) -> "EpsGraph":
        """Same edges, blocks and estimator, weights for another field on the
        graph's manifold; the CSR shares its read-only ``indices`` and ``indptr``."""
        csg = copy(self.csgraph)
        csg.data = _edge_weights(self, field)
        return replace(self, csgraph=csg)


@dataclass
class DistanceMatrix:
    sources: np.ndarray
    targets: np.ndarray
    values: np.ndarray  # (len(sources), len(targets))

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


# ---------------------------------------------------------------------------
# edge enumeration
# ---------------------------------------------------------------------------


def _lattice_offsets(axis_spacing, eps):
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


def _lattice_table(points: PointSet, blocks, column, flat) -> np.ndarray:
    """Node-major (n, B) float table whose column b holds column(blocks[b])
    on the block's source sub-box.  column(blk) is a scalar or an array
    shaped like the sub-box, but of extent 1 along the axes ``flat``, whose
    one value holds for every node along them.  The table is filled at
    extent 1 along ``flat`` and broadcast to (n, B) once, so a box block's
    slots off its sub-box hold copies rather than zeros; only the filled
    slots are ever read."""
    shape = tuple(points.lattice_shape)
    table = np.zeros(tuple(1 if a in flat else s for a, s in enumerate(shape)) + (len(blocks),))
    for b, blk in enumerate(blocks):
        box = (slice(0, 1) if a in flat else slice(lo, hi) for a, (lo, hi) in enumerate(zip(blk.lo, blk.hi)))
        table[tuple(box) + (b,)] = column(blk)
    return np.broadcast_to(table, shape + (len(blocks),)).reshape(len(points), len(blocks))


def _filled_slots(points: PointSet, blocks) -> np.ndarray:
    """Which slots of the node-major table hold an edge: the AND over axes
    a of the (s_a, B) tests lo_a <= i_a < hi_a, broadcast over the lattice."""
    lo, hi = (np.array([getattr(b, k) for b in blocks]) for k in ("lo", "hi"))
    filled = True
    for a, i in enumerate(np.ix_(*map(np.arange, points.lattice_shape))):
        filled = filled & (lo[:, a] <= i[..., None]) & (i[..., None] < hi[:, a])
    return filled.reshape(len(points), len(blocks))


def _lattice_entries(m, points: PointSet, blocks, column, flat) -> np.ndarray:
    """column's values at a lattice graph's CSR entries, in CSR order: the
    filled slots of ``_lattice_table``, row by row.  On a torus every slot
    is filled, so the table itself is the entry array."""
    table = _lattice_table(points, blocks, column, flat)
    return table.ravel() if m.kind == "torus" else table[_filled_slots(points, blocks)]


def _lattice_csr(m, points: PointSet, eps):
    """Blocks, CSR indices (the int32 target node of each entry) and indptr
    of a lattice graph.

    A block joins every node of a source sub-box to the node one offset
    away: on a torus the whole lattice, wrapped; on a box the nodes whose
    translate stays inside.  The target table is the sum over axes of the
    per-axis (s_a, B) terms stride_a * ((i_a + o_a) mod s_a), materialised
    once as (n, B); a box compresses it by ``_filled_slots``.
    """
    shape = tuple(points.lattice_shape)
    blocks = []
    for off, d in _lattice_offsets(points.axis_spacing, eps):
        if m.kind == "torus":
            lo, hi = (0,) * len(shape), shape
        else:
            lo = tuple(max(0, -o) for o in off)
            hi = tuple(s - max(0, o) for s, o in zip(shape, off))
        blocks.append(LatticeBlock(off, d, lo, hi))
    offsets, targets = np.array([b.offset for b in blocks]), np.int32(0)
    for a, i in enumerate(np.ix_(*map(np.arange, shape))):
        term = (i[..., None] + offsets[:, a]) % shape[a] * int(np.prod(shape[a + 1:]))
        targets = targets + term.astype(np.int32)
    targets = targets.reshape(len(points), len(blocks))
    if m.kind == "torus":
        return blocks, targets.ravel(), np.arange(len(points) + 1) * len(blocks)  # every slot is filled
    filled = _filled_slots(points, blocks)
    return blocks, targets[filled], np.concatenate(([0], np.cumsum(filled.sum(axis=1))))


def _edges_kdtree(m, points: PointSet, eps) -> csr_matrix:
    """The d0 <= eps pairs i < j, as a CSR matrix of their d0."""
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
    return csr_matrix((d[keep], (i[keep], j[keep])), shape=(len(pts), len(pts)))


# ---------------------------------------------------------------------------
# edge weights
# ---------------------------------------------------------------------------


def _riemann_weights(g: EpsGraph, field: WeightField) -> np.ndarray:
    """Gauss-rule line integrals of e^f, one per CSR entry.

    On a lattice graph, the k-th Gauss points of a block's edges form the
    tensor-product grid of per-axis coordinate vectors, one entry per source
    index of the sub-box.  geodesic_points works coordinate by coordinate,
    so running it on the s_a source/target coordinates of axis a alone gives
    the same bits as on every edge; nothing is gathered or wrapped per edge.
    Along the axes of ``field.constant_axes`` the grid keeps only the
    sub-box's first index: the weights then have extent 1 there, and
    ``_lattice_table`` fills its table at extent 1 along those axes and
    broadcasts it once to (n, B), the same floats every edge would get.
    Other graphs run it edge by edge.
    """
    m = g.manifold
    ts, ws = gauss_rule(_GAUSS_POINTS)
    n = m.dim
    if g.blocks is not None:
        axes, shape = g.points.axes(), g.points.lattice_shape
        constant = set(field.constant_axes(m))

        def block_weights(blk):
            cols = []  # (Gauss point, s_a) coordinates along each axis
            for a, (lo, hi, o) in enumerate(zip(blk.lo, blk.hi, blk.offset)):
                i = np.arange(lo, lo + 1 if a in constant else hi)
                x, y = np.zeros((i.size, n)), np.zeros((i.size, n))
                x[:, a], y[:, a] = axes[a][i], axes[a][(i + o) % shape[a]]
                cols.append(geodesic_points(m, x, y, ts)[:, :, a])
            gam = np.empty(tuple(c.shape[1] for c in cols) + (n,))
            acc = np.zeros(gam.shape[:-1])
            for k, wk in enumerate(ws):
                for a, c in enumerate(cols):
                    gam[..., a] = c[k].reshape([-1 if e == a else 1 for e in range(n)])
                acc += wk * np.exp(field.eval_many(m, gam.reshape(-1, n))).reshape(acc.shape)
            return acc * blk.d0

        return _lattice_entries(m, g.points, g.blocks, block_weights, constant)
    pts = g.points.points
    ei, ej, d0 = g.edge_i, g.edge_j, g.edge_d0
    out = np.zeros(ei.size)
    for lo in range(0, ei.size, _EDGE_CHUNK):
        sl = slice(lo, min(lo + _EDGE_CHUNK, ei.size))
        gam = geodesic_points(m, pts[ei[sl]], pts[ej[sl]], ts)  # (Gauss point, E, d)
        acc = np.zeros(gam.shape[1])
        for gk, wk in zip(gam, ws):
            acc += wk * np.exp(field.eval_many(m, gk))
        out[sl] = acc * d0[sl]
    return out


def _chain_weights(g: EpsGraph, field: WeightField) -> np.ndarray:
    m, est = g.manifold, g.estimator
    n = m.dim
    omega = unit_ball_volume(n)
    pts = g.points.points
    ei, ej, d0 = g.edge_i, g.edge_j, g.edge_d0
    mids = geodesic_points(m, pts[ei], pts[ej], np.array([0.5]))[0]
    radii = d0 / 2.0
    out = np.empty(ei.size)
    for e in range(ei.size):
        ball = BallSpec(center=mids[e], radius=radii[e])
        mass, _ = mu_f_ball(m, field, ball, est.budget, derive_seed(est.seed, "edge", int(ei[e]), int(ej[e])))
        out[e] = (mass / omega) ** (1.0 / n)
    return out


def _edge_weights(g: EpsGraph, field: WeightField) -> np.ndarray:
    field.validate(g.manifold)
    if isinstance(g.estimator, RiemannLine):
        w = _riemann_weights(g, field)
    elif isinstance(g.estimator, ChainBall):
        w = _chain_weights(g, field)
    else:
        raise InputError(f"unknown estimator {g.estimator!r}")
    if np.any(~np.isfinite(w)) or np.any(w < 0):
        raise InputError("edge weights must be finite and nonnegative")
    return w


def _eps_graph(m, points: PointSet, eps, field, estimator):
    """All d0 <= eps edges of ``points`` in one CSR, weighted per estimator.

    On a torus or box lattice whose axes each hold more nodes than the eps
    reach spans, the edges are enumerated one integer offset at a time, as
    the ``LatticeBlock`` columns of a node-major table, through which
    RiemannLine weights its Gauss points axis by axis; other point sets get
    their edges from a kd-tree and are weighted edge by edge.
    """
    small_lattice = points.lattice_shape is not None and any(
        2 * int(np.floor(eps / h)) + 1 > s
        for h, s in zip(points.axis_spacing, points.lattice_shape)
    )
    blocks = d0 = None
    if points.lattice_shape is not None and m.kind in ("torus", "box") and not small_lattice:
        blocks, indices, indptr = _lattice_csr(m, points, eps)
    else:
        # wrap reach would alias the offset enumeration on tiny lattices
        kd = _edges_kdtree(m, points, eps)
        indices, indptr, d0 = kd.indices, kd.indptr, kd.data
    # every edge reads 0, without storage, until its weight is computed
    csg = csr_matrix((np.broadcast_to(0.0, indices.shape), indices, indptr), shape=(len(points),) * 2)
    csg.indices.flags.writeable = csg.indptr.flags.writeable = False  # shared by reweighted graphs
    g = EpsGraph(
        points=points,
        eps=eps,
        estimator=estimator,
        csgraph=csg,
        manifold=m,
        blocks=blocks,
        d0=d0,
    )
    csg.data = _edge_weights(g, field)
    return g


def build_graph(
    m: Manifold,
    points: PointSet,
    eps: float,
    field: WeightField,
    estimator=RiemannLine(),
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
    g = _eps_graph(m, points, eps, field, estimator)
    if g.blocks is not None:
        shape, offsets = points.lattice_shape, {b.offset for b in g.blocks}
        for a, s in enumerate(shape):
            if s > 1 and tuple(int(e == a) for e in range(len(shape))) not in offsets:
                raise InputError(f"eps-graph lattice has no unit edge along axis {a}")
        return g
    ncomp, _ = connected_components(g.csgraph, directed=False)
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


def _weight_per_d0(g: EpsGraph) -> float:
    """rho, the largest edge weight per unit of d0 over the edges with
    d0 > 0 (0 if there are none).  A lattice graph takes it block by block:
    the largest weight of each table column over the column's d0."""
    w = g.csgraph.data
    if g.blocks is None:
        pos = g.d0 > 0
        return float(np.max(w[pos] / g.d0[pos])) if np.any(pos) else 0.0
    if g.manifold.kind == "torus":
        table = w.reshape(g.n, len(g.blocks))  # every slot holds an edge
    else:
        filled = _filled_slots(g.points, g.blocks)
        table = np.zeros(filled.shape)
        table[filled] = w  # weights are nonnegative, so the empty slots change no maximum
    return float(np.max(table.max(axis=0) / [blk.d0 for blk in g.blocks]))


def _invariant_axes(g: EpsGraph) -> list:
    """The lattice axes along which every translation maps a torus lattice
    graph onto itself: those along which each column of its node-major
    weight table is constant (``equal_slab_axes``, exact ==, one lattice
    slab at a time).  Box lattices and kd-tree graphs have no invariant
    axis."""
    if g.blocks is None or g.manifold.kind != "torus":
        return []
    table = g.csgraph.data.reshape(tuple(g.points.lattice_shape) + (len(g.blocks),))
    return equal_slab_axes(table, table.ndim - 1)


def shortest_paths(g: EpsGraph, sources=None, targets=None) -> DistanceMatrix:
    """Exact nonnegative-edge shortest paths from each source node (all
    nodes if None), to every node or only to ``targets``, on the graph's
    CSR.

    Sources and targets are integer node indices in [0, n); anything else
    raises InputError.  With targets the matrix holds only those columns,
    and Dijkstra stops at the limit L = rho (R + eps): rho is the largest
    edge weight per unit of d0 and R the largest d0 between a source and a
    target.  L is only a first guess: a straight path to the farthest
    target, plus one edge, at the heaviest rate.  Every node within L keeps
    its optimal predecessor, which is within L too, so a finite entry is the
    unbounded solve's value bit for bit, whatever L is.  An entry that comes
    back infinite doubles L and solves again, ending with no limit, so the
    values are those of the full solve in every case.

    Dijkstra runs once per orbit of the sources under the lattice
    translations that leave the graph unchanged (``_invariant_axes``).  The
    orbit's representative is the node with the source's lattice index
    zeroed on the invariant axes, and a source tau steps from it reads its
    entry at target t from the representative's row at t - tau (mod the
    lattice shape).  A translated path adds the same edge weights in the
    same order, so this is the per-source solve bit for bit.  With no
    invariant axis (box lattices, kd-tree graphs, fields that vary along
    every axis) each distinct source is its own representative.
    """
    n = g.n
    sources = np.arange(n) if sources is None else _node_indices(sources, n, "sources")
    limit = np.inf
    if targets is None:
        targets = np.arange(n)
    else:
        targets = _node_indices(targets, n, "targets")
        rho = _weight_per_d0(g) if sources.size and targets.size else 0.0
        if rho > 0:
            pts = g.points.points
            reach = d0_many(g.manifold, pts[sources][:, None], pts[targets][None]).max()
            limit = rho * (float(reach) + g.eps)
    shape = g.points.lattice_shape
    shifts = []  # (size, stride, tau): source i sits tau[i] steps along the axis from its representative
    for a in _invariant_axes(g):
        size, stride = shape[a], int(np.prod(shape[a + 1:]))
        shifts.append((size, stride, sources // stride % size))
    rep = sources - sum(stride * tau for _, stride, tau in shifts)
    reps, orbit = np.unique(rep, return_inverse=True)

    def translated(rows):
        """Source i's entries: its representative's row at targets - tau[i]
        (mod the lattice shape), indexed after the solve."""
        idx = np.broadcast_to(targets, (sources.size, targets.size))
        for size, stride, tau in shifts:
            col = targets // stride % size
            idx = idx + ((col - tau[:, None]) % size - col) * stride
        return rows[orbit[:, None], idx]

    csg = g.csgraph
    while True:
        vals = translated(np.atleast_2d(dijkstra(csg, directed=False, indices=reps, limit=limit)))
        if limit == np.inf or np.all(np.isfinite(vals)):
            break
        # no finite distance exceeds the total edge weight
        limit = np.inf if limit >= np.sum(csg.data) else 2.0 * limit
    return DistanceMatrix(sources=sources, targets=targets, values=vals)


# ---------------------------------------------------------------------------
# refinement and extrapolation
# ---------------------------------------------------------------------------


def fit_rate(eps_values: np.ndarray, d_values: np.ndarray):
    """Least-squares fit of d(eps) = a + b * eps^q with q free.

    q is scanned over a grid (both signs: on a fixed point set the distances
    converge as the neighbourhood grows, i.e. as eps^q -> 0 with q < 0); the
    extrapolant a is the fitted asymptote and the observed q is reported.

    d_values is an (m, P) table, one series per column, giving arrays a, b,
    q of P fits: each q solves every column at once as the right-hand sides
    of one lstsq, and each column keeps its own best q.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    d = np.asarray(d_values, dtype=float)
    if eps_values.size == 2:
        # the exponent is not identifiable from 2 points; the fixed-point-set
        # distances converge as the neighbourhood grows, i.e. toward eps^-1 -> 0
        qs = np.array([-1.0])
    else:
        qs = np.concatenate([np.linspace(-6, -0.05, 120), np.linspace(0.05, 6, 120)])
        qs = qs[np.argsort(np.abs(qs), kind="stable")]  # ties go to moderate q
    best = np.full(d.shape[1], np.inf)
    a, b, q_best = d[-1].copy(), np.zeros(d.shape[1]), np.zeros(d.shape[1])
    for q in qs:
        basis = np.column_stack([np.ones_like(eps_values), eps_values**q])
        coef, res, *_ = np.linalg.lstsq(basis, d, rcond=None)
        r = res if res.size else np.sum((basis @ coef - d) ** 2, axis=0)
        better = r < best * (1.0 - 1e-9)
        best[better], a[better], b[better], q_best[better] = r[better], coef[0, better], coef[1, better], q
    return a, b, q_best


@dataclass
class RefineResult:
    eps_schedule: np.ndarray
    pair_d0: np.ndarray  # (P,) base distance of the snapped pairs
    extrapolated: np.ndarray  # (P,)
    observed_q: np.ndarray  # (P,)


def refine_distance(
    m: Manifold,
    field: WeightField,
    pairs: Sequence,
    eps_schedule: Sequence[float],
) -> RefineResult:
    """RiemannLine distances across an eps schedule on one matched point
    set, extrapolated.

    The point set is the covering lattice matched to the finest schedule
    entry (spacing = min(eps)/3), so coarser entries see strictly richer
    chord sets and the per-pair distances decrease monotonically toward the
    metric.  A pair whose ends snap to one node of it raises InputError.
    """
    eps_schedule = np.asarray(sorted(set(float(e) for e in eps_schedule), reverse=True))
    if eps_schedule.size < 2:
        raise InputError("eps schedule needs at least two decreasing entries")
    points = lattice(m, float(eps_schedule.min()) / 3.0, cover=True)
    pair_arr = [(m.check_points(a)[0], m.check_points(b)[0]) for a, b in pairs]
    nodes = np.empty((len(pair_arr), 2), dtype=int)
    for k, (a, b) in enumerate(pair_arr):
        nodes[k] = points.nearest(m, a), points.nearest(m, b)
    same = np.nonzero(nodes[:, 0] == nodes[:, 1])[0]
    if same.size:
        raise InputError(f"pair {same[0]} has both ends on one node of the refinement lattice "
                         f"at spacing {points.spacing:.4g}, a third of the finest eps or less")
    pair_d0 = d0_many(m, points.points[nodes[:, 0]], points.points[nodes[:, 1]])
    sources = np.unique(nodes[:, 0])
    table = np.empty((eps_schedule.size, len(pair_arr)))
    for r, e in enumerate(eps_schedule):
        g = build_graph(m, points, float(e), field)
        dmat = shortest_paths(g, sources)
        for k in range(len(pair_arr)):
            table[r, k] = dmat.get(nodes[k, 0], nodes[k, 1])
    extrap, _, qs = fit_rate(eps_schedule, table)
    return RefineResult(eps_schedule=eps_schedule, pair_d0=pair_d0, extrapolated=extrap, observed_q=qs)


# ---------------------------------------------------------------------------
# stable norm on the periodic cover
# ---------------------------------------------------------------------------


@dataclass
class StableNormResult:
    estimate: float
    corridor_check: Optional[float]  # sup |narrow - wide| over t, if checked


_SPACING = 0.1  # requested lattice spacing of the cover patches
_NODE_BUDGET = 400_000  # most cover-patch nodes at the 2 eps margin; twice that at 4 eps


def _cover_distance(m, field, v, t, margin, node_budget) -> float:
    """Graph distance 0 -> t*v on the universal cover per unit of snapped
    displacement.

    The patch is the rectangle of torus lattice nodes (steps h of
    ``lattice(m, _SPACING)``, read by ``lattice_steps`` without building
    the torus lattice) around the segment, grown by ``margin`` on
    every side, taken as a box lattice and weighted at eps = 3 * _SPACING
    with the field read periodically.  A full rectangle at that eps is
    connected, so no connectivity check runs.
    """
    _, h = lattice_steps(m, _SPACING)
    target = t * v
    lo = np.minimum(0.0, target) - margin
    hi = np.maximum(0.0, target) + margin
    axes = [np.arange(np.floor(a / s), np.ceil(b / s) + 1) * s for a, b, s in zip(lo, hi, h)]
    count = int(np.prod([float(a.size) for a in axes]))
    if count > node_budget:
        raise ResourceError(f"cover patch needs {count} nodes, over the budget {node_budget}")
    pts = PointSet.grid(axes, h)
    box = Manifold.box([[a[0], a[-1]] for a in axes])
    g = _eps_graph(box, pts, 3.0 * _SPACING, _Lifted(m, field), RiemannLine())
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
    check_corridor: bool = True,
) -> StableNormResult:
    """Asymptotic length per unit of direction v for a periodic torus weight.

    Shortest paths at eps = 3 * _SPACING run on lattice rectangles of the
    universal cover around the segment 0 -> t v, grown by a margin of
    2 eps (weight evaluated periodically); the reported norm is the
    monotone-corrected a + b/t extrapolation of d(0, tv)/t.  Every endpoint
    t v must be a whole number of periods along each axis the field varies
    on (outside ``field.constant_axes(m)``, to 1e-9 relative), else
    InputError: off that lattice d(0, tv)/t oscillates around the norm by
    O(1/t), and the fit extrapolates the oscillation.  Sufficiency of the
    margin is checked by recomputing with it doubled.  A patch over the
    node budget raises ResourceError before it is built.
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
    if not np.all(np.isfinite(t_list) & (t_list > 0)):
        raise InputError("t_list entries must be positive and finite")
    varying = [a for a in range(m.dim) if a not in field.constant_axes(m)]
    for t in t_list:
        q = t * v[varying] / m.periods[varying]
        if np.any(np.abs(q - np.round(q)) > 1e-9 * np.maximum(np.abs(q), 1.0)):
            raise InputError(
                f"stable_norm endpoint t v = {(t * v).tolist()} at t = {t:g} is not a whole "
                f"number of periods {m.periods.tolist()} along the axes {varying} the field varies on"
            )
    margin = 6.0 * _SPACING  # 2 eps
    runs = [
        np.array([_cover_distance(m, field, v, t, k * margin, k * _NODE_BUDGET)
                  for t in t_list])
        for k in ((1, 2) if check_corridor else (1,))
    ]
    per_t = runs[-1]
    check = float(np.max(np.abs(runs[-1] - runs[0]))) if check_corridor else None
    basis = np.column_stack([np.ones_like(t_list), 1.0 / t_list])
    coef, *_ = np.linalg.lstsq(basis, per_t, rcond=None)
    est = min(float(coef[0]), float(per_t.min()))  # subadditive: inf_t is an upper bound
    return StableNormResult(estimate=est, corridor_check=check)
