"""Grid-discretized Schrödinger operators L = Delta - V on tori and boxes.

Delta is the second-order stencil with the geometer's (nonnegative-spectrum)
sign, assembled once per grid as a sparse Kronecker sum of 1-D second
differences (periodic on the torus, Neumann on the box).  The FFT (torus) or
the orthonormal DCT-II (box) diagonalizes it; ``GridGeometry.spectral``
applies functions of Delta through that transform: the mean-zero inverse used
by the fixed-point machinery and the (Delta + c)^{-1} preconditioner of the
lowest-eigenpair solver (a block-1 LOBPCG, no factorization, whose shift c
follows the current Ritz value).  The solver applies Delta - V as the stencil
product minus V times the vector; no matrix of Delta - V is assembled.  The
dense LAPACK oracle keeps only the axes where V varies.  The module also
implements the eigenvalue-zeroing shift for potentials supported in a ball,
the log-gradient fixed point producing a ground-state representative e^v,
and the cover-based decomposition
log(phi) = f + w of the operator's own ground state phi, with a W^{(1,2),n}
part f and a Hölder part w.  The decomposition solves one local ground
state per orbit of cover centers under the grid translations that leave its
problem unchanged: along an axis where V is constant (exact ==, slab by
slab) and the center spacing is a whole number of grid steps, a center takes
its representative's shift and translated log ground state, provided its
ball mask is exactly the translated mask.  The solved centers' shifts and
fixed points each run as one batch: each Newton round solves the eigenpairs
of every local problem still running in lockstep, and each eigen or Picard
step applies the stencil and the spectral transform once to the block of
those problems, while each problem keeps its own reductions, checks and
stop, so every local c0 and v is bit for bit its own solve's.

Discrete square gradient: the fixed point uses
    G(v) = Delta v - e^{-v} Delta(e^v)
(the discrete analogue of |dv|^2, nonnegative by convexity).  With this
choice the fixed point equation Delta v - G(v) = V + c holds exactly on the
grid, so e^v is an exact discrete eigenvector of Delta - V and matches the
eigen-solver ground state to solver tolerance rather than discretization
order.

Grid norms are cell sums, gradients forward differences for norms and the
central stencil for operators.  The functional constants entering
thresholds, the gradient/inverse-Laplacian constant A and the Sobolev
constant beta, are estimated empirically by probing, once per grid (the
lowest nonconstant mode of each axis for A; the constant and Gaussian bumps
for beta): they are the cached properties
``GridGeometry.grad_inv_constant`` and ``GridGeometry.sobolev_constant``,
which every threshold reads from the operator's own grid, and every report
records them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, diags, kronsum
from scipy.sparse.linalg import splu  # noqa: F401  perfbench's tracer rebinds splu

from .errors import InputError, NumericError
from .manifold import (
    Manifold,
    PointSet,
    equal_slab_axes,
    float_array,
    is_count,
    lattice,
    lattice_orbits,
    lattice_roll,
    positive_scalar,
    torus_wrap,
)
from .weight import NodeGrid


def _second_difference(s: int, h: float, periodic: bool):
    """1-D geometer's-sign second difference: periodic wrap, or Neumann ends."""
    if periodic:
        return diags([-1.0, -1.0, 2.0, -1.0, -1.0], [1 - s, -1, 0, 1, s - 1], shape=(s, s)) / h**2
    main = np.full(s, 2.0)
    main[[0, -1]] = 1.0  # Neumann: the missing neighbour drops out
    return diags([-1.0, main, -1.0], [-1, 0, 1], shape=(s, s)) / h**2


def _kron_laplacian(shape, spacing, periodic: bool) -> csr_matrix:
    """Kronecker sum of the 1-D second differences along each axis, on
    row-major node vectors (earlier axes vary slowest)."""
    terms = [_second_difference(s, h, periodic) for s, h in zip(shape, spacing)]
    out = terms[0]
    for t in terms[1:]:
        out = kronsum(t, out)
    return out.tocsr()


@dataclass(frozen=True)
class GridGeometry(NodeGrid):
    """Node grid on a torus/box with the discrete calculus used throughout."""

    manifold: Manifold
    shape: tuple

    def __post_init__(self):
        if self.manifold.kind not in ("torus", "box"):
            raise InputError("grid operators live on tori and boxes only")
        try:
            entries = len(self.shape)
        except TypeError:  # a scalar
            entries = 0
        if entries != self.manifold.dim:
            raise InputError(f"grid shape {self.shape!r} needs {self.manifold.dim} entries, one per axis")
        if not all(is_count(s, 8) for s in self.shape):
            raise InputError(f"grid size must be an integer >= 8 per axis, got {self.shape!r}")

    @property
    def dim(self) -> int:
        return self.manifold.dim

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.axis_spacing))

    # -- discrete calculus -------------------------------------------------

    @cached_property
    def laplacian(self) -> csr_matrix:
        """Geometer's-sign Laplacian, periodic (torus) or Neumann (box), as a
        sparse matrix on row-major node vectors."""
        return _kron_laplacian(self.shape, self.axis_spacing, self.manifold.kind == "torus")

    def lap(self, u: np.ndarray) -> np.ndarray:
        return self.laplacian @ np.ravel(u)

    def grad_forward(self, u: np.ndarray) -> np.ndarray:
        """(dim, N) forward differences of a node vector u (N,), or
        (dim, N, k) of a block (N, k): wrapped to the first slab on the
        torus, 0 past the last slab of a box (its last slab is repeated)."""
        x = np.reshape(u, self.shape + np.shape(u)[1:])
        edge = 0 if self.manifold.kind == "torus" else -1
        return np.stack([
            (np.diff(x, axis=a, append=np.take(x, [edge], axis=a)) / h).reshape(np.shape(u))
            for a, h in enumerate(self.axis_spacing)
        ])

    def grad_magnitude(self, u: np.ndarray) -> np.ndarray:
        """|du| at each node from ``grad_forward``, shaped like u; the
        squares are summed axis by axis, so no (dim, N, k) square is held."""
        square = 0.0
        for g in self.grad_forward(u):
            square = square + g * g
        return np.sqrt(square)

    def lp_norm(self, u: np.ndarray, p: float) -> float:
        return float(np.sum(np.abs(u) ** p) * self.cell_volume) ** (1.0 / p)

    def grad_lp_norm(self, u: np.ndarray, p: float) -> float:
        return self.lp_norm(self.grad_magnitude(u), p)

    @cached_property
    def symbol(self) -> np.ndarray:
        """Eigenvalues of the stencil in the order of ``spectral``: on the
        torus sum_a (2 - 2cos(2 pi k_a/s_a))/h_a^2 (FFT), on the box
        sum_a (2 - 2cos(pi k_a/s_a))/h_a^2 (orthonormal DCT-II)."""
        freq = 2.0 if self.manifold.kind == "torus" else 1.0
        sym = np.zeros(self.shape)
        for a, (s, h) in enumerate(zip(self.shape, self.axis_spacing)):
            lam = (2.0 - 2.0 * np.cos(freq * np.pi * np.arange(s) / s)) / h**2
            sym = sym + lam.reshape([s if b == a else 1 for b in range(self.dim)])
        return sym

    def spectral(self, u: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        """The function of Delta with eigenvalues ``multiplier`` applied to
        node vectors u of shape (N,) or (N, k).  The multiplier is shaped
        like ``symbol``, or for a block like ``symbol`` plus a last axis of
        k, one function per column."""
        axes = tuple(range(self.dim))
        x = np.reshape(u, self.shape + np.shape(u)[1:])
        mult = multiplier.reshape(multiplier.shape + (1,) * (x.ndim - multiplier.ndim))
        if self.manifold.kind == "torus":
            out = np.real(np.fft.ifftn(np.fft.fftn(x, axes=axes) * mult, axes=axes))
        else:
            from scipy.fft import dctn, idctn

            coef = dctn(x, type=2, norm="ortho", axes=axes)
            out = idctn(coef * mult, type=2, norm="ortho", axes=axes)
        return out.reshape(np.shape(u))

    @cached_property
    def _symbol_inverse(self) -> np.ndarray:
        """1/symbol with the k = 0 mode dropped (0 there)."""
        return 1.0 / np.where(self.symbol > 0, self.symbol, np.inf)

    def lap_inverse(self, rhs: np.ndarray) -> np.ndarray:
        """Mean-zero solution of Delta u = rhs - mean(rhs)."""
        return self.spectral(np.ravel(rhs), self._symbol_inverse)

    def distances(self, centers) -> np.ndarray:
        """(K, N) d0 from each of the K points in the rows of ``centers``
        (K, dim) to every node, bit for bit ``d0_many(manifold, nodes(), c)``.

        Each axis's displacement c_a - x_a is taken on that axis's node
        coordinates alone (wrapped by ``torus_wrap`` on a torus as
        ``d0_many`` wraps it, plain on a box), and the squares are summed
        axis by axis over the broadcast grid, in ``d0_many``'s order, so no
        (K, N, dim) array is held.  Centers that are not such rows are an
        InputError."""
        m = self.manifold
        centers = float_array(centers, "grid distance centers")
        if centers.ndim != 2 or centers.shape[1] != self.dim:
            raise InputError(f"grid distance centers must be rows of {self.dim} coordinates, "
                             f"got shape {centers.shape}")
        square = 0.0
        for a, axis in enumerate(self._axes[0]):
            delta = centers[:, a, None] - axis
            if m.kind == "torus":
                period = m.periods[a : a + 1]
                half = period / 2.0
                delta = torus_wrap(delta[..., None] + half, period)[..., 0] - half
            grid = [s if b == a else 1 for b, s in enumerate(self.shape)]
            square = square + (delta * delta).reshape([len(centers)] + grid)
        return np.sqrt(square, out=square).reshape(len(centers), -1)

    def ball_mask(self, center, radius: float) -> np.ndarray:
        return self.distances([center])[0] <= radius

    # -- empirical functional constants ------------------------------------

    @cached_property
    def grad_inv_constant(self) -> float:
        """A: the best lower bound from the axis modes on the sup over h of
        ||d (Delta^{-1} h)||_{L^n} / ||h||_{L^{n/2}}.

        The probes are the lowest nonconstant stencil mode of each axis (the
        ``symbol`` index 1: cos(2 pi k/s) on a torus, cos(pi (k + 1/2)/s) on
        a box).  They do not reach the sup: a mixture such as
        cos x_1 + cos x_2 gives a larger quotient.
        """
        n = self.dim

        def quotient(h):
            h = h - h.mean()
            return self.grad_lp_norm(self.lap_inverse(h), float(n)) / self.lp_norm(h, n / 2.0)

        best = 0.0
        freq, offset = (2.0, 0.0) if self.manifold.kind == "torus" else (1.0, 0.5)
        for a, s in enumerate(self.shape):
            mode = np.cos(freq * np.pi * (np.arange(s) + offset) / s)
            mode = mode.reshape([s if b == a else 1 for b in range(n)])
            best = max(best, quotient(np.broadcast_to(mode, self.shape).reshape(-1)))
        return best

    @cached_property
    def sobolev_constant(self) -> float:
        """beta: smallest observed (||d phi||_2^2 + ||phi||_2^2) / ||phi||_{2n/(n-2)}^2.

        The probes are the constant (value vol^{2/n}) and 12 Gaussian bumps
        about the grid's center (the scale-free regime).  Needs n >= 3, else
        InputError.
        """
        n = self.dim
        if n <= 2:
            raise InputError("the Sobolev constant needs dimension n >= 3")
        p_crit = 2.0 * n / (n - 2.0)
        m = self.manifold
        lo, hi = m.chart
        d = self.distances(((lo + hi) / 2.0)[None])[0]

        def quotient(phi):
            num = self.grad_lp_norm(phi, 2.0) ** 2 + self.lp_norm(phi, 2.0) ** 2
            return num / self.lp_norm(phi, p_crit) ** 2

        best = quotient(np.ones(d.size))
        for s in np.geomspace(self.axis_spacing.max(), m.min_period / 3.0, 12):
            best = min(best, quotient(np.exp(-((d / s) ** 2))))
        return float(best)


@dataclass
class GridOperator:
    """Schrödinger operator Delta - V on a grid geometry."""

    geom: GridGeometry
    V: np.ndarray

    def __post_init__(self):
        self.V = float_array(self.V, "potential").reshape(-1)
        if self.V.size != int(np.prod(self.geom.shape)):
            raise InputError("potential size does not match the grid")
        if not np.all(np.isfinite(self.V)):
            raise InputError("potential must be finite")


def _apply(geom: GridGeometry, V, xs) -> list:
    """(Delta - V_j) x_j for each problem j: the potentials V_j (N,) and the
    node vectors (N,) or blocks (N, m) x_j, all of one shape.  The stencil
    product runs once on the stacked columns; each problem's own V is then
    subtracted on its own slice, into a new array of x_j's shape, so no
    broadcast block of V is built."""
    stencil = geom.laplacian @ np.column_stack(xs)
    parts = np.split(stencil, len(xs), axis=1)
    return [s.reshape(x.shape) - (v if x.ndim == 1 else v[:, None]) * x
            for s, v, x in zip(parts, V, xs)]


@dataclass
class SchrodingerSolve:
    lambda0: float
    phi: np.ndarray  # positive, max-normalized
    iterations: int


_MAX_ITER = 400  # most residual evaluations of one eigen solve


def _eigenpairs(geom: GridGeometry, V, x0, tol: float) -> list:
    """Lowest eigenpairs of Delta - V_j for the k potentials V_j (N,) in V,
    each from the start x0[j] (N,), by block-1 LOBPCG run in lockstep.

    Each step applies the stencil once to the block of the problems still
    running (``_apply``) and the preconditioner once, by one
    ``GridGeometry.spectral`` call with one multiplier column per problem.
    Every reduction and small dense step stays per problem, on its own
    contiguous vectors (a dot product along a strided column of a block
    rounds differently): norm, Rayleigh quotient, QR, eigh and the update
    of p.  So each problem stops at its own step, bit for bit what it gives
    alone.  Returns one ``SchrodingerSolve`` per problem; a problem that
    misses tol or whose ground state is not positive raises its own
    NumericError.
    """
    tol = positive_scalar(tol, "eigen tol")
    k = len(V)
    v_mean = [float(v.mean()) for v in V]
    x = [row / np.linalg.norm(row) for row in x0]
    Ax = _apply(geom, V, x)
    lam = [float(a @ b) for a, b in zip(x, Ax)]
    p = [None] * k
    history = [[] for _ in range(k)]
    out = [None] * k
    active = range(k)
    for step in range(_MAX_ITER):
        running, residuals = [], []
        for j in active:
            r = Ax[j] - lam[j] * x[j]
            history[j].append(float(np.linalg.norm(r)))
            if history[j][-1] > tol:
                running.append(j)
                residuals.append(r)
                continue
            xj = -x[j] if x[j][np.argmax(np.abs(x[j]))] < 0 else x[j]
            if xj.min() <= 0:
                raise NumericError(
                    "converged eigenvector is not positive; residual history "
                    f"tail {history[j][-5:]}"
                )
            out[j] = SchrodingerSolve(lambda0=lam[j], phi=xj / xj.max(), iterations=len(history[j]))
        active = running
        if not active:
            return out
        if step == _MAX_ITER - 1:
            raise NumericError(
                f"eigen iteration did not reach tol={tol} in {_MAX_ITER} iterations; "
                f"residual history tail {history[active[0]][-5:]}"
            )
        shifts = [max(-lam[j] - v_mean[j], 1e-3) for j in active]
        w = geom.spectral(np.column_stack(residuals), 1.0 / (geom.symbol[..., None] + shifts))
        Q = [np.linalg.qr(np.column_stack([x[j], w[:, col]] + ([] if p[j] is None else [p[j]])))[0]
             for col, j in enumerate(active)]
        del residuals, w  # not held through the block product
        AQ = _apply(geom, [V[j] for j in active], Q)
        for Qj, AQj, j in zip(Q, AQ, active):
            vals, vecs = np.linalg.eigh(Qj.T @ AQj)
            x_new, Ax[j], lam[j] = Qj @ vecs[:, 0], AQj @ vecs[:, 0], float(vals[0])
            p[j] = x_new - (x[j] @ x_new) * x[j]
            x[j] = x_new


def lowest_eigenpair(op: GridOperator, tol: float = 1e-10) -> SchrodingerSolve:
    """Lowest eigenpair by block-1 LOBPCG preconditioned with (Delta + c)^{-1}.

    The iterate x starts as the unit positive constant vector.  Each step
    applies A = Delta - V as the stencil product minus V x, without
    assembling A, and takes the Rayleigh-Ritz pair of lowest value on an
    orthonormal basis of [x, w, p]: w is the preconditioned residual, p the
    last iterate minus its component along the one before (Knyazev, SIAM J.
    Sci. Comput. 23, 2001).  The preconditioner needs no factorization: it
    is applied by ``GridGeometry.spectral`` as 1/(symbol + c), with c
    recomputed each step from the current Ritz value lambda as
    c = max(-lambda - mean V, 1e-3).  It is the inverse of A - lambda with V
    replaced by its mean, kept positive definite by the floor (a shift that
    ignored lambda stalled at strong potentials).  The solve stops once
    ||A x - lambda x|| <= tol; ``iterations`` counts these residual
    evaluations.  A tol that is not positive and finite is an InputError.
    No stop within ``_MAX_ITER`` of them, or a ground state that is not
    positive, raises NumericError, which quotes the residual history's
    tail.  This is the lockstep core of the decomposition's local shifts
    run on one problem.
    """
    return _eigenpairs(op.geom, [op.V], [np.ones(op.V.size)], tol)[0]


def dense_lowest_eigenvalue(op: GridOperator) -> float:
    """Lowest eigenvalue of Delta - V by dense LAPACK, on the axes where V
    varies only (``equal_slab_axes``, exact ==; one axis for a constant V).

    Delta - V is the Kronecker sum of its restriction to those axes with the
    1-D second differences of the others, each positive semidefinite with
    the constants in its kernel (periodic and Neumann alike), so both have
    the same lambda0."""
    geom = op.geom
    V = op.V.reshape(geom.shape)
    flat = equal_slab_axes(V, geom.dim)
    keep = [a for a in range(geom.dim) if a not in flat] or [0]
    sub = V[tuple(slice(None) if a in keep else 0 for a in range(geom.dim))]
    lap = _kron_laplacian(sub.shape, geom.axis_spacing[keep], geom.manifold.kind == "torus")
    return float(np.linalg.eigvalsh((lap - diags(sub.reshape(-1))).toarray())[0])


# ---------------------------------------------------------------------------
# eigenvalue-zeroing shift
# ---------------------------------------------------------------------------


@dataclass
class GsShiftResult:
    c0: float
    bracket: tuple
    evaluations: int


_SHIFT_EIG_TOL = 1e-11  # the eigen solves of gs_shift_c0


def _shifts(geom: GridGeometry, q, masks, tol: float, eig_tol: float) -> list:
    """``gs_shift_c0`` for the k problems (q_j, ball mask masks[j]), run as
    one batch: each Newton round solves every problem still running by one
    ``_eigenpairs`` call at eig_tol.  Each problem keeps its own checks,
    bracket, warm start, NumericError and stop, so each result is bit for
    bit what the problem gives alone.  Returns one ``GsShiftResult`` per
    problem."""
    tol = positive_scalar(tol, "shift tol")
    n = geom.dim
    vol_m = geom.manifold.volume
    c_lo, c_hi, comp = [], [], []
    for qj, mask in zip(q, masks):
        if np.any(np.abs(qj[~mask]) > 1e-14):
            raise InputError("q has support outside B(x0, r0) on the grid")
        beta = geom.sobolev_constant
        ball_vol = float(mask.sum()) * geom.cell_volume
        if ball_vol > (beta / 2.0) ** (n / 2.0):
            raise InputError(
                f"vol(B(x0,r0)) = {ball_vol:.4g} exceeds (beta/2)^(n/2) = "
                f"{(beta / 2.0) ** (n / 2.0):.4g}"
            )
        q_l1 = float(np.sum(np.abs(qj)) * geom.cell_volume)
        c_lo.append(-2.0 * q_l1 / vol_m)
        c_hi.append(2.0 * geom.lp_norm(qj, n / 2.0) / beta)
        comp.append((~mask).astype(float))
    c = list(c_lo)
    warm = [np.ones(qj.size) for qj in q]
    lam, lam_lo = [None] * len(c), [None] * len(c)
    out = [None] * len(c)
    active = range(len(c))
    for evals in range(1, 101):
        sols = _eigenpairs(geom, [-(q[j] + c[j] * comp[j]) for j in active],
                           [warm[j] for j in active], eig_tol)
        running = []
        for j, sol in zip(active, sols):
            lam[j], warm[j] = sol.lambda0, sol.phi
            if evals == 1:
                lam_lo[j] = lam[j]
            if abs(lam[j]) <= tol:
                out[j] = GsShiftResult(c0=float(c[j]), bracket=(c_lo[j], c_hi[j]), evaluations=evals)
                continue
            # outside mass > 0: beta <= vol(M)^{2/n} caps vol(B) at vol(M)/2^{n/2}
            c_next = c[j] - lam[j] * (warm[j] @ warm[j]) / (warm[j] @ (comp[j] * warm[j]))
            if lam_lo[j] > tol or c_next > c_hi[j]:
                raise NumericError(
                    f"bracket does not straddle zero: lambda0({c_lo[j]:.4g}) = {lam_lo[j]:.4g}, "
                    f"Newton step to {c_next:.4g} (c_hi = {c_hi[j]:.4g}) from "
                    f"lambda0({c[j]:.4g}) = {lam[j]:.4g}"
                )
            c[j] = c_next
            running.append(j)
        active = running
        if not active:
            return out
    raise NumericError(f"shift root finding stalled; last lambda0 = {lam[active[0]]:.3e}")


def gs_shift_c0(geom: GridGeometry, q: np.ndarray, x0, r0: float, tol: float) -> GsShiftResult:
    """Constant c0 with lowest eigenvalue of Delta + q + c0*1_{complement} zero.

    q must be supported in the ball B(x0, r0) whose volume satisfies
    vol <= (beta/2)^{n/2}, beta the grid's ``sobolev_constant``; the
    bracket is [c_lo, c_hi] = [-(2/vol(M)) int |q|, (2/beta) ||q||_{n/2}].
    Newton's method runs from c_lo, each eigen solve (at tol 1e-11)
    warm-started from the last ground state phi, until |lambda0| <= tol, a
    positive finite number (else InputError, before any solve).  Its slope
    d lambda0/dc is phi's share of mass outside the ball (Hellmann-Feynman).
    lambda0(c) is a minimum of functions affine in c, hence concave, so each
    tangent lies above the curve and the iterates rise monotonically to the
    root without passing it.  lambda0(c_lo) > tol, or a step past c_hi
    (checked before solving there), means the bracket does not straddle
    zero: the NumericError names lambda0(c_lo), the step and the last
    lambda0.  This is the batch core of the decomposition's local shifts
    run on one problem.
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    return _shifts(geom, [q], [geom.ball_mask(x0, r0)], tol, _SHIFT_EIG_TOL)[0]


# ---------------------------------------------------------------------------
# log-gradient fixed point
# ---------------------------------------------------------------------------


def discrete_grad_square(geom: GridGeometry, v: np.ndarray) -> np.ndarray:
    """G(v) = Delta v - e^{-v} Delta e^v, the exponential-consistent discrete
    |dv|^2 (pointwise nonnegative), for node vectors v of shape (N,) or
    (N, k)."""
    ev = np.exp(v)
    return geom.laplacian @ v - (geom.laplacian @ ev) / ev


@dataclass
class FixedPointResult:
    v: np.ndarray  # mean-zero log of the ground-state representative
    c: float  # the constant: Delta v - G(v) = V + c, eigenvalue of e^v
    iterations: int
    residual_n2: float  # ||Delta v - G(v) - V - c||_{n/2}
    dv_norm: float  # ||dv||_{L^n}
    v_norm_bound: float  # 2 A ||V||_{n/2}


def _fixed_points(geom: GridGeometry, V: np.ndarray):
    """Picard iterations of S(v) = Delta^{-1} (V + G(v)) from v = 0 for the
    k potentials in the columns of V (N, k), run as one batch.

    Each step applies G and Delta^{-1} once to the (N, k) block of the
    problems still running (``discrete_grad_square``, then
    ``GridGeometry.spectral``) and takes the block's gradient magnitudes,
    all entrywise arithmetic that rounds each column as it would alone.
    Each problem sums its own norms from its column (a sum over the block
    would round differently) and stops once its W^{1,n} step is at most
    1e-11, so every column is bit for bit what the problem gives alone.
    A potential with ||V||_{n/2} >= 1/(8 A^2), A the grid's
    ``grad_inv_constant``, an iterate leaving the contraction ball
    ||dv||_n <= 1/(4A), or a problem still running after 400 steps raises
    NumericError.  Returns v (N, k) and, per problem, the step count and
    the last ||dv||_n.
    """
    p = float(geom.dim)
    A = geom.grad_inv_constant
    threshold = 1.0 / (8.0 * A**2)
    for j in range(V.shape[1]):
        v_norm = geom.lp_norm(V[:, j], p / 2.0)
        if v_norm >= threshold:
            raise NumericError(
                f"||V||_{{n/2}} = {v_norm:.4g} is not below the contraction "
                f"threshold 1/(8 A^2) = {threshold:.4g} (A = {A:.4g})"
            )
    rho = 1.0 / (4.0 * A)
    v = np.zeros_like(V)
    iterations = np.zeros(V.shape[1], dtype=int)
    dv = np.zeros(V.shape[1])
    gap = np.full(V.shape[1], np.inf)
    active = np.arange(V.shape[1])
    for it in range(1, 401):
        block = v[:, active]
        new = geom.spectral(V[:, active] + discrete_grad_square(geom, block), geom._symbol_inverse)
        diff = new - block
        grad_diff, grad_new = geom.grad_magnitude(diff), geom.grad_magnitude(new)
        for col, j in enumerate(active):
            gap[j] = geom.lp_norm(diff[:, col], p) + geom.lp_norm(grad_diff[:, col], p)
            dv[j] = geom.lp_norm(grad_new[:, col], p)
            if dv[j] > rho:
                raise NumericError(
                    f"fixed-point iterate left the contraction ball: ||dv||_n = "
                    f"{dv[j]:.4g} > rho = {rho:.4g}"
                )
        v[:, active] = new
        iterations[active] = it
        active = active[~(gap[active] <= 1e-11)]
        if not active.size:
            return v, iterations, dv
    raise NumericError(f"fixed point did not converge; last gap {gap[active].max():.3e}")


def log_gradient_fixedpoint(op: GridOperator) -> FixedPointResult:
    """Picard iteration of S(v) = Delta^{-1} V + Delta^{-1} G(v) from v = 0,
    until the W^{1,n} step is at most 1e-11 (at most 400 iterations): the
    batch core that solves ``decompose_ground_state``'s local problems
    together, run on this one potential, with the report fields added.

    Requires the smallness ||V||_{n/2} < 1/(8 A^2) with A the grid's
    ``grad_inv_constant``; iterates leaving the contraction ball
    ||dv||_n <= 1/(4A) abort with a numeric error.
    """
    geom = op.geom
    n = geom.dim
    block, iterations, dv = _fixed_points(geom, op.V[:, None])
    v = block[:, 0]
    g_final = discrete_grad_square(geom, v)
    c = -np.mean(op.V + g_final)
    residual = geom.lp_norm(geom.lap(v) - g_final - op.V - c, n / 2.0)
    return FixedPointResult(
        v=v,
        c=float(c),
        iterations=int(iterations[0]),
        residual_n2=float(residual),
        dv_norm=float(dv[0]),
        v_norm_bound=float(2.0 * geom.grad_inv_constant * geom.lp_norm(op.V, n / 2.0)),
    )


# ---------------------------------------------------------------------------
# ground-state decomposition
# ---------------------------------------------------------------------------


def _cover_centers(geom: GridGeometry, rho: float) -> PointSet:
    """Cover centers, the lattice at spacing 0.52 rho: balls of radius rho/2
    cover, quarter-balls disjoint."""
    m = geom.manifold
    if m.kind != "torus":
        raise InputError("the ground-state decomposition runs on torus grids")
    cover = lattice(m, 0.52 * rho)
    for L, s in zip(m.periods, cover.axis_spacing):
        if s < rho / 2.0 - 1e-12 or s * np.sqrt(geom.dim) / 2.0 > rho / 2.0 + 1e-12:
            raise InputError(
                f"rho = {rho:g} incompatible with period {L:g}: need a center "
                f"spacing in [rho/2, rho/sqrt(n)]"
            )
    return cover


def bump(t: np.ndarray) -> np.ndarray:
    """C^2 radial bump on [0, 1]: (1 - t^2)^3, zero beyond."""
    out = np.zeros_like(t)
    inside = t < 1.0
    out[inside] = (1.0 - t[inside] ** 2) ** 3
    return out


@dataclass
class DecompositionResult:
    f: np.ndarray
    w: np.ndarray
    report: dict


def decompose_ground_state(
    op: GridOperator,
    rho: float,
) -> DecompositionResult:
    """Split log(phi) = f + w, phi = ``lowest_eigenpair(op).phi``, through
    localized ground states.

    Finite cover by balls B(x_i, rho/2) with disjoint quarter-balls; each
    center gets a shifted local potential (eigenvalue-zeroed), a local
    ground state from the fixed point, and the pieces are glued with a
    C^2 partition of unity.  The reconstruction e^{f + w} = phi holds to
    round-off by construction; the report carries ||df||_{L^n},
    ||Delta f||_{n/2}, the 1/2-Hölder seminorm of w over every node pair and
    all thresholds.  phi is solved here at ``lowest_eigenpair``'s default tol,
    and every threshold reads the grid's ``sobolev_constant`` and
    ``grad_inv_constant`` (echoed as ``beta_est`` and ``a_est``), so the
    split is always of this operator's ground state on this grid.  Each
    local shift is solved to |lambda0| <= 1e-7 with eigen solves at tol
    1e-9.

    The shift and the fixed point run once per orbit of centers under the
    cover-lattice translations along the axes where V is constant
    (``equal_slab_axes``, exact ==) and the center spacing is a whole
    number of grid steps (``lattice_orbits``): there every center's local
    problem is a grid translate of its representative's.  Such a center
    takes the representative's c0 and its v moved by ``lattice_roll``,
    unless its own ball mask differs from the moved representative mask,
    in which case it is solved directly.  A V that varies along every axis
    solves every center.  The work runs in three steps: the shifts of every
    center solved directly in one batch (the core of ``gs_shift_c0``, given
    the ball masks held here), then all of those centers' fixed points in
    one batch (the core of ``log_gradient_fixedpoint``), each c0 and v bit
    for bit its own solve's, then each other center takes its
    representative's c0 and moved v.  Every center's distances to the nodes
    come from one ``GridGeometry.distances`` call.
    """
    geom = op.geom
    n = geom.dim
    cover = _cover_centers(geom, rho)
    beta = geom.sobolev_constant
    centers = cover.points
    dists = geom.distances(centers)
    masks = dists <= rho  # row i is geom.ball_mask(centers[i], rho)
    # smallness of V on cover balls (the per-ball hypothesis)
    sup_local = max(geom.lp_norm(op.V * mask, n / 2.0) for mask in masks)
    if sup_local > beta / 2.0:
        raise InputError(
            f"sup over cover balls of ||V||_{{n/2}} = {sup_local:.4g} exceeds "
            f"beta/2 = {beta / 2.0:.4g}"
        )
    phi = lowest_eigenpair(op).phi
    log_phi = np.log(phi)
    shape, cover_shape = geom.shape, cover.lattice_shape
    axes = [a for a in equal_slab_axes(op.V.reshape(shape), n) if shape[a] % cover_shape[a] == 0]
    reps, steps = lattice_orbits(cover_shape, axes, np.arange(len(centers)))
    steps = steps * (np.asarray(shape) // cover_shape)  # cover steps to grid steps
    # an exact grid translate of its representative's local problem reuses it
    reuse = [k.any() and np.array_equal(mask, lattice_roll(masks[r], shape, k))
             for mask, r, k in zip(masks, reps, steps)]
    direct = [i for i, reused in enumerate(reuse) if not reused]
    # local operators Delta - V 1_B + c 1_comp
    shifts = _shifts(geom, [-op.V * masks[i] for i in direct], masks[direct], 1e-7, 1e-9)
    c0 = {i: s.c0 for i, s in zip(direct, shifts)}
    shift_cs = [c0[r if reused else i] for i, (r, reused) in enumerate(zip(reps, reuse))]
    v_locs = [op.V * masks[i] - c0[i] * (~masks[i]).astype(float) for i in direct]
    solved = iter(_fixed_points(geom, np.column_stack(v_locs))[0].T)
    f = np.zeros_like(log_phi)
    w = np.zeros_like(log_phi)
    chi_sum = np.zeros_like(log_phi)
    chis, vs, vbars = [], [], []
    for d, r, k, reused in zip(dists, reps, steps, reuse):
        v = lattice_roll(vs[r], shape, k) if reused else next(solved)
        chi = bump(d / (0.75 * rho))
        chis.append(chi)
        vs.append(v)
        vbars.append(float(np.mean(v[d <= 0.75 * rho])))
        chi_sum += chi
    if chi_sum.min() <= 0:
        raise InputError("partition of unity failed to cover the grid")
    for chi, v_i, vbar in zip(chis, vs, vbars):
        lam = chi / chi_sum
        f += lam * (v_i - vbar)
        w += lam * ((log_phi - v_i) + vbar)
    recon = float(np.max(np.abs(np.exp(f + w) - phi) / phi))
    # the seminorm over every node pair: d0 depends only on the grid offset,
    # whose pairs one roll of w gives; the offsets k and -k give one max of
    # |w(x + k) - w(x)|, so each pair is rolled once, over the smaller of
    # its two d0 (wrapped, they can differ by an ulp); nearest pairs first,
    # stopping once the oscillation of w over d0^alpha cannot beat the best
    holder_alpha = 0.5
    d0 = geom.distances(geom.nodes()[:1])[0]
    offsets = np.arange(d0.size)
    neg = np.ravel_multi_index([-c % s for c, s in zip(np.unravel_index(offsets, shape), shape)], shape)
    pair_d0 = np.minimum(d0, d0[neg])
    once = offsets[(offsets <= neg) & (offsets > 0)]  # offset 0 pairs no two nodes
    osc = float(w.max() - w.min())
    hold = 0.0
    for k in once[np.argsort(pair_d0[once])]:
        scale = pair_d0[k] ** holder_alpha
        if osc / scale <= hold:
            break
        step = np.unravel_index(k, shape)
        hold = max(hold, float(np.max(np.abs(lattice_roll(w, shape, step) - w))) / scale)
    report = {
        "n_centers": int(centers.shape[0]),
        "rho": float(rho),
        "df_ln": geom.grad_lp_norm(f, float(n)),
        "lap_f_n2": geom.lp_norm(geom.lap(f), n / 2.0),
        "holder_alpha": holder_alpha,
        "holder_seminorm_w": hold,
        "reconstruction_error": recon,
        "sup_local_V_n2": sup_local,
        "beta_est": beta,
        "a_est": geom.grad_inv_constant,
        "shift_constants": [float(c) for c in shift_cs],
    }
    return DecompositionResult(f=f, w=w, report=report)
