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
    float_array,
    gauss_rule,
    geodesic_points,
    lattice,
    lattice_orbits,
    lattice_roll,
    lattice_steps,
    positive_scalar,
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
    """Column of a lattice graph's node-major (n, 2B) edge table: each node
    joined to the node ``offset`` steps away, at base length d0.  On a
    torus the target wraps; on a box the column holds only the nodes whose
    target lies inside (``_filled_slots``)."""

    offset: tuple
    d0: float


@dataclass
class EpsGraph:
    """Undirected eps-graph that stores each edge once, with one weight, and
    is solved as one symmetric CSR adjacency, which ``_csr`` builds only
    for a solve (``csgraph`` builds it per read): each edge {i, j} is the
    two entries (i, j) and (j, i), which hold the same weight, bit for bit,
    so Dijkstra runs on it as a directed graph and builds no transpose.

    A RiemannLine graph on a torus or box lattice keeps ``blocks``, one
    ``LatticeBlock`` (offset and d0) per column of a node-major (n, 2B) edge
    table, and ``table``, its compact weight table
    (``_riemann_lattice_table``: extent 1 along the field's constant axes,
    one column per block).  Its first B blocks are the half-space offsets,
    the last B their mirrors: block B + b joins the targets of block b back
    to its sources.  Graphs whose edges come from a kd-tree (ChainBall
    graphs, sphere layouts, scattered points, lattices smaller than the eps
    reach) share no displacement: ``pairs`` holds the (2, E) int32 node
    pairs i < j, ``d0`` their base lengths and ``table`` their weights.

    ``invariant_axes``, ``mirror_axes`` and ``rho`` are found once per
    weighting, with the weights.  The invariant axes are those along which
    each forward column of a torus lattice graph's weight table is constant
    (exact ==), so every translation along them maps the graph onto itself;
    the mirror axes are the invariant axes a along which the table equals
    itself with its columns permuted by o -> o with o_a negated (exact ==),
    so the reflection i_a -> -i_a maps it onto itself too.  Both are () on
    boxes and kd-tree graphs.  rho is the largest edge weight per unit of
    d0 over the edges with d0 > 0, 0 if there are none; it bounds
    ``shortest_paths``' first Dijkstra limit.
    """

    points: PointSet
    eps: float
    estimator: object
    manifold: Manifold  # the geometry of d0 and of the edge weights
    pairs: Optional[np.ndarray] = None  # kd-tree graphs: (2, E) node pairs i < j
    d0: Optional[np.ndarray] = None  # kd-tree graphs: d0 per pair
    blocks: Optional[list] = None  # lattice graphs: the table's columns
    table: Optional[np.ndarray] = None  # the compact weight table, or one weight per pair
    invariant_axes: tuple = ()
    mirror_axes: tuple = ()
    rho: float = 0.0

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def csgraph(self) -> csr_matrix:
        """The symmetric CSR, built anew at each read (``_csr``)."""
        return _csr(self, ())

    @property
    def edge_i(self) -> np.ndarray:
        """The source node of each entry of ``csgraph``, from the row counts
        alone: no indices or weights are expanded for it."""
        if self.blocks is None:
            counts = np.bincount(self.pairs.ravel(), minlength=self.n)
        elif self.manifold.kind == "torus":
            counts = len(self.blocks)  # every slot is filled
        else:
            counts = _filled_slots(self.points, self.blocks).sum(axis=-1).ravel()
        return np.repeat(np.arange(self.n, dtype=np.int32), counts)

    def reweight(self, field: WeightField) -> "EpsGraph":
        """Same edges, blocks and estimator; a new weight table, invariant
        axes, mirror axes and rho for another field on the graph's
        manifold.  The edges (``blocks``, or ``pairs`` and ``d0``) are
        shared, and no expanded array is held."""
        return _weighted(self, field)


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
        """The table as CSV: a ``source,<target>...`` header, then one row
        per source of its index and its distances, each cell in ``%.18e``.

        The bytes are ``np.savetxt``'s with ``delimiter=","`` and
        ``comments=""``, but each distinct float is formatted once: the
        cells are grouped by their 64-bit patterns (equal bits give equal
        text, so ±0.0, NaNs, ±inf and subnormals need no case) and each row
        is the comma-join of its cells' strings.  A lattice graph's rows
        repeat under its translations and mirrors, so few floats are
        distinct; only their strings and one row's are held at a time.
        """
        header = ",".join(["source"] + [str(t) for t in self.targets])
        rows = np.column_stack([self.sources.astype(float), self.values])
        bits, cells = np.unique(rows.view(np.int64), return_inverse=True)
        text = np.array(["%.18e" % x for x in bits.view(np.float64).tolist()], dtype=object)
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in cells.reshape(rows.shape):
                fh.write(",".join(text[row].tolist()) + "\n")


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


def _filled_slots(points: PointSet, blocks) -> np.ndarray:
    """Which slots of a box lattice graph's lattice-shaped table of
    ``blocks`` hold an edge: those whose target i + o lies inside the lattice, the
    sub-box max(0, -o_a) <= i_a < s_a - max(0, o_a) of the block's offset
    o, the AND over axes a of the (s_a, 2B) tests, taken in place on one
    bool per slot."""
    offsets, shape = np.array([b.offset for b in blocks]), points.lattice_shape
    filled = np.ones(tuple(shape) + (len(blocks),), dtype=bool)
    for a, i in enumerate(np.ix_(*map(np.arange, shape))):
        target = i[..., None] + offsets[:, a]
        filled &= (0 <= target) & (target < shape[a])
    return filled


def _lattice_blocks(points: PointSet, eps) -> list:
    """The ``LatticeBlock`` columns of a lattice graph: the B half-space
    offsets first, then their negations, the mirror of block (o, d0)
    holding the same edges read from the other end as (-o, d0)."""
    half = _lattice_offsets(points.axis_spacing, eps)
    return [LatticeBlock(o, d) for o, d in half + [(tuple(-v for v in o), d) for o, d in half]]


def _folded_index(i, s: int, folded: bool):
    """Lattice index i along an axis of s nodes, folded to its class under
    i -> -i (mod s), min(i, s - i), if ``folded``."""
    return np.minimum(i, s - i) if folded else i


def _folded_shape(shape, fold) -> tuple:
    """Lattice shape of the classes of nodes under the reflections
    i_a -> -i_a along the axes ``fold``: s_a // 2 + 1 along each."""
    return tuple(s // 2 + 1 if a in fold else s for a, s in enumerate(shape))


def _node_classes(shape, fold) -> np.ndarray:
    """Row-major index of each node's class, in the lattice of classes
    ``_folded_shape(shape, fold)``."""
    index = [_folded_index(i, s, a in fold) for a, (i, s) in enumerate(zip(np.indices(shape), shape))]
    return np.ravel_multi_index(index, _folded_shape(shape, fold)).ravel()


def _csr(g: EpsGraph, fold) -> csr_matrix:
    """The graph's symmetric CSR from its edges and ``g.table``, folded
    about index 0 along the axes ``fold`` (mirror axes of a torus lattice
    graph, () on any other).  Its index arrays are read-only.

    A kd-tree graph's rows list its pairs read both ways, (i, j) and (j, i),
    at the pair's weight, sorted by column.  A lattice graph's rows are the
    nodes with index <= s_a // 2 along each axis a of ``fold``, in
    row-major order, one per class of nodes under the reflections
    i_a -> -i_a; row r lists, in block order, the class of each node
    r + offset (wrapped on a torus), at the table's weight for r.  The
    int32 target table is one (..., 2B) array, the sum of the per-axis
    (r_a, 2B) terms stride_a * fold_a((i_a + o_a) mod s_a), with the
    strides of the rows' shape, written by the first addition and added to
    in place by the rest.  The weight table (or any of its layout, such as
    the blocks' d0 at extent 1) is broadcast to it; a box compresses both
    by ``_filled_slots``, the slots whose target lies inside.
    """
    if g.blocks is None:
        i, j = g.pairs
        entries = (np.concatenate((g.table, g.table)), (np.concatenate((i, j)), np.concatenate((j, i))))
        csg = csr_matrix(entries, shape=(g.n, g.n))  # distinct pairs: scipy sums none, sorts each row
        csg.indices.flags.writeable = csg.indptr.flags.writeable = False
        return csg
    shape = tuple(g.points.lattice_shape)
    rows = _folded_shape(shape, fold)
    offsets = np.array([b.offset for b in g.blocks])
    terms = [(_folded_index((i[..., None] + offsets[:, a]) % shape[a], shape[a], a in fold)
              * int(np.prod(rows[a + 1:]))).astype(np.int32)
             for a, i in enumerate(np.ix_(*map(np.arange, rows)))]
    targets = np.add(terms[0], terms[1], out=np.empty(rows + (len(g.blocks),), dtype=np.int32))  # dim >= 2
    for term in terms[2:]:
        targets += term
    weights = np.broadcast_to(g.table[tuple(slice(0, r) for r in rows)], targets.shape)
    nrows = int(np.prod(rows))
    if g.manifold.kind == "torus":  # every slot is filled
        indices, data, indptr = targets.ravel(), weights.ravel(), np.arange(nrows + 1) * len(g.blocks)
    else:
        filled = _filled_slots(g.points, g.blocks)
        indices = targets[filled]
        del targets  # not held beside the weights
        data = weights[filled]
        indptr = np.concatenate(([0], np.cumsum(filled.sum(axis=-1).ravel())))
    csg = csr_matrix((data, indices, indptr), shape=(nrows, nrows))
    csg.indices.flags.writeable = csg.indptr.flags.writeable = False
    return csg


def _edges_kdtree(m, points: PointSet, eps):
    """The (2, E) int32 node pairs i < j with d0 <= eps, and their d0."""
    pts, r = points.points, eps
    if m.kind == "sphere":  # the chord of an arc of length eps
        tree = cKDTree(pts)
        r = 2.0 * np.sin(min(eps / m.radius, pi) / 2.0) * (1 + 1e-12)
    else:
        tree = cKDTree(m.canonicalize(pts), boxsize=m.periods if m.kind == "torus" else None)
    pairs = tree.query_pairs(r=r, output_type="ndarray")
    if pairs.size == 0:
        raise InputError("eps-graph has no edges; increase eps")
    i, j = pairs[:, 0], pairs[:, 1]
    d = d0_many(m, pts[i], pts[j])
    keep = d <= eps
    return pairs[keep].T.astype(np.int32), d[keep]


# ---------------------------------------------------------------------------
# edge weights
# ---------------------------------------------------------------------------


def _riemann_lattice_table(g: EpsGraph, field: WeightField) -> np.ndarray:
    """Gauss-rule line integrals of e^f over a lattice graph's edges, as
    its compact lattice-shaped (..., 2B) weight table, filled in place.

    The k-th Gauss points of a block's edges form the tensor-product grid
    of per-axis coordinate vectors, one entry per source index.
    geodesic_points works coordinate by coordinate, so running it on the
    source/target coordinates of axis a alone gives the same bits as on
    every edge; nothing is gathered per edge.  Along the axes of
    ``field.constant_axes`` the grid keeps only index 0, so the table has
    extent 1 there, the same floats every edge would get.  The B forward
    blocks go in chunks of as many blocks as keep a chunk within n Gauss
    points per Gauss node (n nodes): per axis, one geodesic_points call on
    the chunk's (extent x blocks) coordinates, and per Gauss node one
    ``eval_many`` over the chunk.  A field constant along all but one axis
    weights every block at once, one varying along every axis one block at
    a time.  The forward columns are then scaled by d0; on a box, the slots
    whose target lies outside (wrapped there, read by no entry) are zeroed,
    along the constant axes only if no node has its target inside.  Each
    mirror column B + b is forward column b rolled by the block's offset.
    Tests over every entry (finite, nonnegative, constant along an axis)
    can read this table; ``_csr`` broadcasts it.
    """
    m = g.manifold
    ts, ws = gauss_rule(_GAUSS_POINTS)
    n = m.dim
    axes, shape = g.points.axes(), tuple(g.points.lattice_shape)
    constant = tuple(field.constant_axes(m))
    extent = tuple(1 if a in constant else s for a, s in enumerate(shape))
    half = len(g.blocks) // 2
    offsets = np.array([b.offset for b in g.blocks[:half]])
    table = np.zeros(extent + (2 * half,))
    chunk = max(1, int(np.prod(shape)) // int(np.prod(extent)))
    for first in range(0, half, chunk):
        o = offsets[first:first + chunk]
        cols = []  # (Gauss point, extent_a, blocks) coordinates along each axis
        for a, e in enumerate(extent):
            i = np.arange(e)[:, None]
            x, y = np.zeros((e, len(o), n)), np.zeros((e, len(o), n))
            x[..., a], y[..., a] = axes[a][i], axes[a][(i + o[:, a]) % shape[a]]
            path = geodesic_points(m, x.reshape(-1, n), y.reshape(-1, n), ts)
            cols.append(path[:, :, a].reshape(len(ts), e, len(o)))
        acc = table[..., first:first + len(o)]
        gam = np.empty(acc.shape + (n,))
        for k, wk in enumerate(ws):
            for a, c in enumerate(cols):
                gam[..., a] = c[k].reshape([-1 if e == a else 1 for e in range(n)] + [len(o)])
            acc += wk * np.exp(field.eval_many(m, gam.reshape(-1, n))).reshape(acc.shape)
    forward = table[..., :half]
    forward *= np.array([b.d0 for b in g.blocks[:half]])
    if m.kind == "box":
        forward[~_filled_slots(g.points, g.blocks[:half]).any(axis=constant, keepdims=True)] = 0.0
    for b, off in enumerate(offsets):
        table[..., half + b] = np.roll(forward[..., b], off, axis=tuple(range(n)))
    return table


def _riemann_weights(g: EpsGraph, field: WeightField, ei, ej, d0) -> np.ndarray:
    """Gauss-rule line integrals of e^f along the edges ei -> ej of base
    lengths d0, edge by edge."""
    m = g.manifold
    ts, ws = gauss_rule(_GAUSS_POINTS)
    pts = g.points.points
    out = np.zeros(ei.size)
    for lo in range(0, ei.size, _EDGE_CHUNK):
        sl = slice(lo, min(lo + _EDGE_CHUNK, ei.size))
        gam = geodesic_points(m, pts[ei[sl]], pts[ej[sl]], ts)  # (Gauss point, E, d)
        acc = np.zeros(gam.shape[1])
        for gk, wk in zip(gam, ws):
            acc += wk * np.exp(field.eval_many(m, gk))
        out[sl] = acc * d0[sl]
    return out


def _chain_weights(g: EpsGraph, field: WeightField, ei, ej, d0) -> np.ndarray:
    """Chain increments of the edges ei -> ej of base lengths d0, each ball
    mass seeded by the estimator's seed and the edge's end nodes."""
    m, est = g.manifold, g.estimator
    n = m.dim
    omega = unit_ball_volume(n)
    pts = g.points.points
    mids = geodesic_points(m, pts[ei], pts[ej], np.array([0.5]))[0]
    radii = d0 / 2.0
    out = np.empty(ei.size)
    for e in range(ei.size):
        ball = BallSpec(center=mids[e], radius=radii[e])
        mass, _ = mu_f_ball(m, field, ball, est.budget, derive_seed(est.seed, "edge", int(ei[e]), int(ej[e])))
        out[e] = (mass / omega) ** (1.0 / n)
    return out


def _mirror_axes(blocks, table, axes) -> tuple:
    """The axes a of ``axes`` (invariant axes of a torus lattice graph)
    along which its (..., 2B) weight table equals itself with its columns
    permuted by o -> o with o_a negated, compared column by column with
    exact ==.  The reflection i_a -> -i_a about any node then maps each
    edge onto one of the same weight."""
    column = {blk.offset: c for c, blk in enumerate(blocks)}

    def mirrored(a):
        flip = (column[tuple(-v if e == a else v for e, v in enumerate(blk.offset))] for blk in blocks)
        return all(np.array_equal(table[..., c], table[..., f]) for c, f in enumerate(flip))

    return tuple(a for a in axes if mirrored(a))


def _weighted(g: EpsGraph, field: WeightField) -> EpsGraph:
    """g with a new weight table for ``field``, and its invariant axes,
    mirror axes and rho from the same weighting.  Each undirected edge is
    weighted once, on its forward entry (a half-space block of a lattice
    graph, a pair i < j of a kd-tree graph), so the weight check (finite
    and nonnegative), the invariant axes and rho, the largest weight per
    unit of d0 over the edges with d0 > 0 (0 if there are none), read the
    forward entries alone.  A lattice graph reads the forward half of its
    compact table, and its rho is each column's largest weight over the
    column's one d0 (a box's empty slots hold zeros, below every weight).
    A kd-tree graph's table is its pairs' weights."""
    field.validate(g.manifold)
    if g.blocks is not None:
        table = _riemann_lattice_table(g, field)
        half = len(g.blocks) // 2
        forward, d0 = table[..., :half], np.array([blk.d0 for blk in g.blocks[:half]])
    elif isinstance(g.estimator, (RiemannLine, ChainBall)):
        per_edge = _riemann_weights if isinstance(g.estimator, RiemannLine) else _chain_weights
        table = forward = per_edge(g, field, *g.pairs, g.d0)
        d0 = g.d0
    else:
        raise InputError(f"unknown estimator {g.estimator!r}")
    # min and max allocate no per-entry temporary; a NaN fails the first test
    if forward.size and not (forward.min() >= 0 and forward.max() < np.inf):
        raise InputError("edge weights must be finite and nonnegative")
    if g.blocks is not None:
        rho = float(np.max(forward.max(axis=tuple(range(forward.ndim - 1))) / d0))
        axes = tuple(equal_slab_axes(forward, g.manifold.dim)) if g.manifold.kind == "torus" else ()
        return replace(g, table=table, invariant_axes=axes, mirror_axes=_mirror_axes(g.blocks, table, axes),
                       rho=rho)
    pos = d0 > 0
    rho = float(np.max(forward[pos] / d0[pos])) if np.any(pos) else 0.0
    return replace(g, table=table, rho=rho)


def _eps_graph(m, points: PointSet, eps, field, estimator):
    """All d0 <= eps edges of ``points``, each stored once, weighted per
    estimator, with the graph's invariant axes, mirror axes and rho from
    the same weighting (``_weighted``).

    A RiemannLine graph on a torus or box lattice whose axes each hold more
    nodes than the eps reach spans takes the lattice layout: its edges are
    enumerated one integer offset at a time, as the ``LatticeBlock`` columns
    of a node-major table, through which its Gauss points are weighted axis
    by axis.  Every other graph, ChainBall graphs on lattices included,
    gets its edges from a kd-tree, as node pairs, and is weighted edge by
    edge.
    """
    small_lattice = points.lattice_shape is not None and any(
        2 * int(np.floor(eps / h)) + 1 > s
        for h, s in zip(points.axis_spacing, points.lattice_shape)
    )
    g = EpsGraph(points=points, eps=eps, estimator=estimator, manifold=m)
    if (isinstance(estimator, RiemannLine) and points.lattice_shape is not None
            and m.kind in ("torus", "box") and not small_lattice):
        g.blocks = _lattice_blocks(points, eps)
    else:
        # wrap reach would alias the offset enumeration on tiny lattices
        g.pairs, g.d0 = _edges_kdtree(m, points, eps)
    return _weighted(g, field)


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
    eps = positive_scalar(eps, "eps")
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
    # the CSR holds both directions, so the strong components are the
    # undirected ones, found without a transpose
    ncomp, _ = connected_components(g.csgraph, directed=True, connection="strong")
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
    nodes if None), to every node or only to ``targets``, on the graph's
    CSR, read as a directed graph: it stores both directions of each edge,
    so Dijkstra builds no transpose.

    Sources and targets are integer node indices in [0, n); anything else
    raises InputError.  With targets the matrix holds only those columns,
    and Dijkstra stops at the limit L = rho (R + eps): rho (``g.rho``, found
    with the weights) is the largest edge weight per unit of d0 and R the
    largest d0 between a source and a target.  L is only a first guess: a
    straight path to the farthest target, plus one edge, at the heaviest
    rate.  Every node within L keeps
    its optimal predecessor, which is within L too, so a finite entry is the
    unbounded solve's value bit for bit, whatever L is.  An entry that comes
    back infinite doubles L and solves again, ending with no limit, so the
    values are those of the full solve in every case.

    Dijkstra runs once per orbit of the sources under the lattice
    translations that leave the graph unchanged (``g.invariant_axes``,
    ``lattice_orbits``), and each source's row is its representative's,
    moved by ``lattice_roll``.  A translated path adds the same edge
    weights in the same order, so this is the per-source solve bit for
    bit.  A kd-tree graph is a 1-D lattice of its n nodes; with no
    invariant axis (box lattices, kd-tree graphs, fields that vary along
    every axis) each distinct source is its own representative.

    The graph's CSR is built for the call by ``_csr``, folded along its
    mirror axes: a representative has index 0 along
    them, so the reflections i_a -> -i_a fix it, and the distance to a
    node is the distance to its class.  Each path of the folded graph
    lifts to a path of the full graph with the same edge weights in the
    same order, and each full path folds to one, so the least float sum
    over paths, which is what Dijkstra finds, is the same for every node
    of a class.  Near a mirror plane two offsets can land on one class;
    Dijkstra relaxes every stored entry, so the lighter one counts.  Each
    row is unfolded through every node's class before it is moved.
    """
    n = g.n
    sources = np.arange(n) if sources is None else _node_indices(sources, n, "sources")
    limit = np.inf
    if targets is None:
        targets = np.arange(n)
    else:
        targets = _node_indices(targets, n, "targets")
        if sources.size and targets.size and g.rho > 0:
            pts = g.points.points
            reach = d0_many(g.manifold, pts[sources][:, None], pts[targets][None]).max()
            limit = g.rho * (float(reach) + g.eps)
    shape = g.points.lattice_shape if g.blocks is not None else (n,)
    rep, tau = lattice_orbits(shape, g.invariant_axes, sources)
    reps, orbit = np.unique(rep, return_inverse=True)
    csg = _csr(g, g.mirror_axes)
    classes = _node_classes(shape, g.mirror_axes)  # each node's row of csg
    while True:
        rows = np.atleast_2d(dijkstra(csg, directed=True, indices=classes[reps], limit=limit))
        vals = np.empty((sources.size, targets.size))  # after the solve, not held through it
        for i, (o, t) in enumerate(zip(orbit, tau)):
            vals[i] = lattice_roll(rows[o][classes], shape, t)[targets]
        if limit == np.inf or np.all(np.isfinite(vals)):
            break
        # no finite distance exceeds the total weight of the solved graph's entries
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
    of one lstsq, and each column keeps its own best q.  A single series (m,)
    is a one-column table.  eps needs at least two distinct positive finite
    entries and the table m = len(eps) finite rows, else InputError.
    """
    eps_values = float_array(eps_values, "fit_rate eps")
    d = float_array(d_values, "fit_rate distances")
    if d.ndim == 1:
        d = d[:, None]
    positive = np.all((eps_values > 0) & (eps_values < np.inf))  # NaN fails too
    if eps_values.ndim != 1 or not positive or np.unique(eps_values).size < 2:
        raise InputError(f"fit_rate needs two or more distinct positive finite eps, got {eps_values.tolist()}")
    if d.ndim != 2 or d.shape[0] != eps_values.size:
        raise InputError(f"fit_rate needs one table row per eps ({eps_values.size}), got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise InputError("fit_rate needs finite distances")
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
    metric.  A pair whose ends snap to one node of it, or a schedule entry
    that is not a positive finite number, raises InputError.
    """
    eps_schedule = float_array(eps_schedule, "eps schedule")
    if eps_schedule.ndim != 1:
        raise InputError("eps schedule must be a list of numbers")
    if not np.all((eps_schedule > 0) & (eps_schedule < np.inf)):  # NaN fails too
        raise InputError(f"eps schedule entries must be positive and finite, got {eps_schedule.tolist()}")
    eps_schedule = np.asarray(sorted(set(eps_schedule.tolist()), reverse=True))
    if eps_schedule.size < 2:
        raise InputError("eps schedule needs at least two decreasing entries")
    points = lattice(m, float(eps_schedule.min()) / 3.0, cover=True)
    pair_arr = float_array(pairs, "refine pairs")
    if pair_arr.ndim != 3 or pair_arr.shape[1] != 2:
        raise InputError(f"refine pairs must be a list of (a, b) point pairs, got {pairs!r}")
    pair_arr = m.check_points(pair_arr)
    nodes = points.nearest(m, pair_arr.reshape(-1, m.ambient_dim)).reshape(-1, 2)
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
        del g, dmat  # not held while the next entry's graph is built
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
    src, dst = pts.nearest(box, np.stack([np.zeros(m.dim), target]))
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
    v = float_array(v, "stable norm direction")
    if v.shape != (m.dim,) or not np.all(np.isfinite(v)):
        raise InputError(f"stable norm direction must be a finite {m.dim}-vector, got {v.tolist()}")
    if np.allclose(v, 0.0):
        raise InputError("stable norm direction must be nonzero")
    t_list = np.sort(float_array(t_list, "t_list"))
    if t_list.ndim != 1 or t_list.size < 2 or np.any(np.diff(t_list) <= 0):
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
