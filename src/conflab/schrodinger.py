"""Grid-discretized Schrödinger operators L = Delta - V on tori and boxes.

Delta is the second-order stencil with the geometer's (nonnegative-spectrum)
sign, assembled once per grid as a sparse Kronecker sum of 1-D second
differences (periodic on the torus, Neumann on the box).  The FFT (torus) or
the orthonormal DCT-II (box) diagonalizes it; ``GridGeometry.spectral``
applies functions of Delta through that transform: the mean-zero inverse used
by the fixed-point machinery, the (Delta + c)^{-1} preconditioner of the
lowest-eigenpair solver (a block-1 LOBPCG, no factorization) and the smoothing
of the probes that estimate the functional constants.  The dense LAPACK
oracle keeps only the axes where V varies.  The module also
implements the eigenvalue-zeroing shift for potentials supported in a ball,
the log-gradient fixed point producing a ground-state representative e^v,
and the cover-based decomposition log(phi) = f + w of the operator's own
ground state phi, with a W^{(1,2),n} part f and a Hölder part w.  The
decomposition solves one local ground state per orbit of cover centers
under the grid translations that leave its problem unchanged: along an axis
where V is constant (exact ==, slab by slab) and the center spacing is a
whole number of grid steps, a center takes its representative's shift and
translated log ground state, provided its ball mask is exactly the
translated mask.

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
lowest mode of each axis and seeded random fields for A; bumps and seeded
random fields for beta): they are the cached properties
``GridGeometry.grad_inv_constant`` and ``GridGeometry.sobolev_constant``,
which every threshold reads from the operator's own grid, and every report
records them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix, diags, kronsum
from scipy.sparse.linalg import splu  # noqa: F401  perfbench's tracer rebinds splu

from .errors import InputError, NumericError
from .manifold import Manifold, PointSet, d0_many, equal_slab_axes, lattice
from .rng import derive_rng
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
        if len(self.shape) != self.manifold.dim:
            raise InputError(f"grid shape {self.shape} needs {self.manifold.dim} entries, one per axis")
        if any(s < 8 for s in self.shape):
            raise InputError("grid size must be >= 8 per axis")

    @property
    def dim(self) -> int:
        return self.manifold.dim

    @property
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
        """(dim, N) forward differences: wrapped to the first slab on the
        torus, 0 past the last slab of a box (its last slab is repeated)."""
        u = u.reshape(self.shape)
        edge = 0 if self.manifold.kind == "torus" else -1
        return np.stack([
            (np.diff(u, axis=a, append=np.take(u, [edge], axis=a)) / h).reshape(-1)
            for a, h in enumerate(self.axis_spacing)
        ])

    def lp_norm(self, u: np.ndarray, p: float) -> float:
        return float(np.sum(np.abs(u) ** p) * self.cell_volume) ** (1.0 / p)

    def grad_lp_norm(self, u: np.ndarray, p: float) -> float:
        g = self.grad_forward(u)
        mag = np.sqrt(np.sum(g * g, axis=0))
        return self.lp_norm(mag, p)

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
        """The function of Delta with eigenvalues ``multiplier`` (shaped like
        ``symbol``) applied to node vectors u of shape (N,) or (N, k)."""
        axes = tuple(range(self.dim))
        x = np.reshape(u, self.shape + np.shape(u)[1:])
        mult = multiplier.reshape(multiplier.shape + (1,) * (x.ndim - self.dim))
        if self.manifold.kind == "torus":
            out = np.real(np.fft.ifftn(np.fft.fftn(x, axes=axes) * mult, axes=axes))
        else:
            from scipy.fft import dctn, idctn

            coef = dctn(x, type=2, norm="ortho", axes=axes)
            out = idctn(coef * mult, type=2, norm="ortho", axes=axes)
        return out.reshape(np.shape(u))

    def lap_inverse(self, rhs: np.ndarray) -> np.ndarray:
        """Mean-zero solution of Delta u = rhs - mean(rhs)."""
        inv = 1.0 / np.where(self.symbol > 0, self.symbol, np.inf)  # drops the k = 0 mode
        return self.spectral(np.ravel(rhs), inv)

    def ball_mask(self, center, radius: float) -> np.ndarray:
        return d0_many(self.manifold, self._grid.points, np.asarray(center, dtype=float)) <= radius

    # -- empirical functional constants ------------------------------------

    @cached_property
    def grad_inv_constant(self) -> float:
        """A: the best lower bound found on the sup over h of
        ||d (Delta^{-1} h)||_{L^n} / ||h||_{L^{n/2}}.

        The probes are the lowest nonconstant stencil mode of each axis (the
        ``symbol`` index 1: cos(2 pi k/s) on a torus, cos(pi (k + 1/2)/s) on
        a box), where this quotient peaks, and 48 random fields (seed 0),
        white and smoothed.
        """
        n = self.dim
        rng = derive_rng(0, "aconst")

        def quotient(h):
            h = h - h.mean()
            denom = self.lp_norm(h, n / 2.0)
            return 0.0 if denom == 0 else self.grad_lp_norm(self.lap_inverse(h), float(n)) / denom

        best = 0.0
        freq, offset = (2.0, 0.0) if self.manifold.kind == "torus" else (1.0, 0.5)
        for a, s in enumerate(self.shape):
            mode = np.cos(freq * np.pi * (np.arange(s) + offset) / s)
            mode = mode.reshape([s if b == a else 1 for b in range(n)])
            best = max(best, quotient(np.broadcast_to(mode, self.shape).reshape(-1)))
        sym = self.symbol
        damp = 1.0 / (1.0 + sym / np.median(sym[sym > 0]))
        for k in range(48):
            h = rng.standard_normal(self.shape).reshape(-1)
            if k % 2 == 1:  # smooth the probe toward the low-frequency end
                h = self.spectral(h, damp ** (1 + k % 5))
            best = max(best, quotient(h))
        return best

    @cached_property
    def sobolev_constant(self) -> float:
        """beta: smallest observed (||d phi||_2^2 + ||phi||_2^2) / ||phi||_{2n/(n-2)}^2.

        Probes include the constant (value vol^{2/n}), concentrated bumps (the
        scale-free regime) and 48 random smooth fields (seed 0).  Needs
        n >= 3, else InputError.
        """
        n = self.dim
        if n <= 2:
            raise InputError("the Sobolev constant needs dimension n >= 3")
        p_crit = 2.0 * n / (n - 2.0)
        rng = derive_rng(0, "bconst")
        m = self.manifold
        center = (
            m.periods / 2.0 if m.kind == "torus" else m.extents.mean(axis=1)
        )
        d = d0_many(m, self.nodes(), center)

        def quotient(phi):
            denom = self.lp_norm(phi, p_crit) ** 2
            if denom == 0:
                return np.inf
            return (self.grad_lp_norm(phi, 2.0) ** 2 + self.lp_norm(phi, 2.0) ** 2) / denom

        best = quotient(np.ones(d.size))
        for s in np.geomspace(self.axis_spacing.max(), m.min_period / 3.0, 12):
            best = min(best, quotient(np.exp(-((d / s) ** 2))))
        sym = self.symbol
        damp = 1.0 / (1.0 + sym / np.median(sym[sym > 0]))
        for k in range(48):
            h = rng.standard_normal(self.shape).reshape(-1)
            phi = self.spectral(h, damp ** (1 + k % 4))
            best = min(best, quotient(phi - phi.min() + 0.1 * np.abs(phi).max()))
            best = min(best, quotient(phi))
        return float(best)


@dataclass
class GridOperator:
    """Schrödinger operator Delta - V on a grid geometry."""

    geom: GridGeometry
    V: np.ndarray

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float).reshape(-1)
        if self.V.size != int(np.prod(self.geom.shape)):
            raise InputError("potential size does not match the grid")
        if not np.all(np.isfinite(self.V)):
            raise InputError("potential must be finite")

    def as_sparse(self) -> csr_matrix:
        return (self.geom.laplacian - diags(self.V)).tocsr()


@dataclass
class SchrodingerSolve:
    lambda0: float
    phi: np.ndarray  # positive, max-normalized
    iterations: int


_MAX_ITER = 400  # most residual evaluations of one eigen solve


def lowest_eigenpair(op: GridOperator, tol: float = 1e-10,
                     v0: Optional[np.ndarray] = None) -> SchrodingerSolve:
    """Lowest eigenpair by block-1 LOBPCG preconditioned with (Delta + c)^{-1}.

    The iterate x starts as the unit positive constant vector (or the unit
    warm start v0).  Each step applies A = Delta - V (``GridOperator.as_sparse``)
    and takes the Rayleigh-Ritz pair of lowest value on an orthonormal basis
    of [x, w, p]: w is the preconditioned residual, p the last iterate minus
    its component along the one before (Knyazev, SIAM J. Sci. Comput. 23,
    2001).  The preconditioner needs no factorization: it is applied by
    ``GridGeometry.spectral`` as 1/(symbol + c) with
    c = max(1 - mean V, 1e-3) > 0, so it is positive definite, and for a
    constant V it is a shifted inverse of A itself.  The solve stops once
    ||A x - lambda x|| <= tol; ``iterations`` counts these residual
    evaluations.  No stop within ``_MAX_ITER`` of them, or a ground state
    that is not positive, raises NumericError, which quotes the residual
    history's tail.
    """
    A = op.as_sparse()
    geom = op.geom
    inv = 1.0 / (geom.symbol + max(1.0 - float(op.V.mean()), 1e-3))
    x = np.ones(A.shape[0]) if v0 is None else np.asarray(v0, dtype=float)
    x = x / np.linalg.norm(x)
    Ax = A @ x
    lam = float(x @ Ax)
    p = None
    history = []
    for _ in range(_MAX_ITER):
        r = Ax - lam * x
        history.append(float(np.linalg.norm(r)))
        if history[-1] <= tol:
            break
        basis = [x, geom.spectral(r, inv)] + ([] if p is None else [p])
        Q = np.linalg.qr(np.column_stack(basis))[0]
        AQ = A @ Q
        vals, vecs = np.linalg.eigh(Q.T @ AQ)
        x_new, Ax, lam = Q @ vecs[:, 0], AQ @ vecs[:, 0], float(vals[0])
        p = x_new - (x @ x_new) * x
        x = x_new
    else:
        raise NumericError(
            f"eigen iteration did not reach tol={tol} in {_MAX_ITER} iterations; "
            f"residual history tail {history[-5:]}"
        )
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    if x.min() <= 0:
        raise NumericError(
            "converged eigenvector is not positive; residual history "
            f"tail {history[-5:]}"
        )
    return SchrodingerSolve(lambda0=lam, phi=x / x.max(), iterations=len(history))


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


def gs_shift_c0(
    geom: GridGeometry,
    q: np.ndarray,
    x0,
    r0: float,
    tol: float = 1e-8,
    eig_tol: float = 1e-11,
) -> GsShiftResult:
    """Constant c0 with lowest eigenvalue of Delta + q + c0*1_{complement} zero.

    q must be supported in the ball B(x0, r0) whose volume satisfies
    vol <= (beta/2)^{n/2}, beta the grid's ``sobolev_constant``; the
    bracket is [-(2/vol(M)) int |q|, (2/beta) ||q||_{n/2}] and a failure to
    straddle zero reports both endpoint eigenvalues.
    """
    n = geom.dim
    q = np.asarray(q, dtype=float).reshape(-1)
    mask = geom.ball_mask(x0, r0)
    if np.any(np.abs(q[~mask]) > 1e-14):
        raise InputError("q has support outside B(x0, r0) on the grid")
    beta = geom.sobolev_constant
    ball_vol = float(mask.sum()) * geom.cell_volume
    if ball_vol > (beta / 2.0) ** (n / 2.0):
        raise InputError(
            f"vol(B(x0,r0)) = {ball_vol:.4g} exceeds (beta/2)^(n/2) = "
            f"{(beta / 2.0) ** (n / 2.0):.4g}"
        )
    vol_m = geom.manifold.volume
    q_l1 = float(np.sum(np.abs(q)) * geom.cell_volume)
    q_ln2 = geom.lp_norm(q, n / 2.0)
    c_lo = -2.0 * q_l1 / vol_m
    c_hi = 2.0 * q_ln2 / beta
    comp = (~mask).astype(float)
    evals = 0
    warm = {"v": None}

    def lam(c):
        nonlocal evals
        op = GridOperator(geom, -(q + c * comp))
        sol = lowest_eigenpair(op, tol=eig_tol, v0=warm["v"])
        warm["v"] = sol.phi
        evals += 1
        return sol.lambda0

    lam_lo = lam(c_lo)
    lam_hi = lam(c_hi)
    if lam_lo > tol or lam_hi < -tol:
        raise NumericError(
            f"bracket does not straddle zero: lambda0({c_lo:.4g}) = {lam_lo:.4g}, "
            f"lambda0({c_hi:.4g}) = {lam_hi:.4g}"
        )
    # Illinois false position: bracketed, superlinear on this smooth
    # monotone eigenvalue curve, and stopped as soon as |lambda0| <= tol.
    # scipy's bracketing root finders stop on the bracket width instead:
    # brentq with xtol = tol (as strict, since |d lambda0 / dc| <= 1) took
    # 888 eigen solves on the schrodinger experiment at seed 2026, this
    # loop 392, so it stays hand-written.
    lo, hi, f_lo, f_hi = c_lo, c_hi, lam_lo, lam_hi
    c_mid, lam_mid = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    for _ in range(100):
        if abs(lam_mid) <= tol:
            break
        denom = f_hi - f_lo
        c_try = 0.5 * (lo + hi) if denom == 0 else lo - f_lo * (hi - lo) / denom
        if not (lo < c_try < hi):
            c_try = 0.5 * (lo + hi)
        lam_try = lam(c_try)
        c_mid, lam_mid = c_try, lam_try
        if lam_try < 0:
            if f_lo < 0:
                f_hi *= 0.5  # Illinois damping of the stale endpoint
            lo, f_lo = c_try, lam_try
        else:
            if f_hi > 0:
                f_lo *= 0.5
            hi, f_hi = c_try, lam_try
    else:
        raise NumericError(f"shift root finding stalled; last lambda0 = {lam_mid:.3e}")
    return GsShiftResult(c0=float(c_mid), bracket=(c_lo, c_hi), evaluations=evals)


# ---------------------------------------------------------------------------
# log-gradient fixed point
# ---------------------------------------------------------------------------


def discrete_grad_square(geom: GridGeometry, v: np.ndarray) -> np.ndarray:
    """G(v) = Delta v - e^{-v} Delta e^v, the exponential-consistent discrete
    |dv|^2 (pointwise nonnegative)."""
    ev = np.exp(v)
    return geom.lap(v) - geom.lap(ev) / ev


@dataclass
class FixedPointResult:
    v: np.ndarray  # mean-zero log of the ground-state representative
    c: float  # the constant: Delta v - G(v) = V + c, eigenvalue of e^v
    iterations: int
    residual_n2: float  # ||Delta v - G(v) - V - c||_{n/2}
    dv_norm: float  # ||dv||_{L^n}
    v_norm_bound: float  # 2 A ||V||_{n/2}


def log_gradient_fixedpoint(op: GridOperator) -> FixedPointResult:
    """Picard iteration of S(v) = Delta^{-1} V + Delta^{-1} G(v) from v = 0,
    until the W^{1,n} step is at most 1e-11 (at most 400 iterations).

    Requires the smallness ||V||_{n/2} < 1/(8 A^2) with A the grid's
    ``grad_inv_constant``; iterates leaving the contraction ball
    ||dv||_n <= 1/(4A) abort with a numeric error.
    """
    geom = op.geom
    n = geom.dim
    A = geom.grad_inv_constant
    v_norm = geom.lp_norm(op.V, n / 2.0)
    threshold = 1.0 / (8.0 * A**2)
    if v_norm >= threshold:
        raise NumericError(
            f"||V||_{{n/2}} = {v_norm:.4g} is not below the contraction "
            f"threshold 1/(8 A^2) = {threshold:.4g} (A = {A:.4g})"
        )
    rho = 1.0 / (4.0 * A)
    v = np.zeros(op.V.size)
    gap = np.inf
    for it in range(1, 401):
        rhs = op.V + discrete_grad_square(geom, v)
        v_new = geom.lap_inverse(rhs)
        diff = v_new - v
        gap = geom.lp_norm(diff, float(n)) + geom.grad_lp_norm(diff, float(n))
        v = v_new
        dv = geom.grad_lp_norm(v, float(n))
        if dv > rho:
            raise NumericError(
                f"fixed-point iterate left the contraction ball: ||dv||_n = "
                f"{dv:.4g} > rho = {rho:.4g}"
            )
        if gap <= 1e-11:
            break
    else:
        raise NumericError(f"fixed point did not converge; last gap {gap:.3e}")
    g_final = discrete_grad_square(geom, v)
    c = -np.mean(op.V + g_final)
    residual = geom.lp_norm(geom.lap(v) - g_final - op.V - c, n / 2.0)
    return FixedPointResult(
        v=v,
        c=float(c),
        iterations=it,
        residual_n2=float(residual),
        dv_norm=float(geom.grad_lp_norm(v, float(n))),
        v_norm_bound=float(2.0 * A * v_norm),
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


def _center_orbits(geom: GridGeometry, V: np.ndarray, cover_shape: tuple):
    """(representative, steps) per cover center: the center's orbit
    representative (its lattice index zeroed on the invariant axes) and the
    grid steps, per axis, from the representative to the center.

    An axis is invariant when V is constant along it (``equal_slab_axes``,
    exact ==) and the center spacing along it is a whole number of grid
    steps; a translation along such axes maps the representative's local
    problem onto the center's.  With no invariant axis each center is its
    own representative."""
    shape = geom.shape
    axes = [a for a in equal_slab_axes(V.reshape(shape), geom.dim) if shape[a] % cover_shape[a] == 0]
    idx = np.indices(cover_shape).reshape(geom.dim, -1)
    steps = np.zeros_like(idx)
    for a in axes:
        steps[a] = idx[a] * (shape[a] // cover_shape[a])
    rep = idx.copy()
    rep[axes] = 0
    return np.ravel_multi_index(rep, cover_shape), steps.T


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
    seed: int = 0,
) -> DecompositionResult:
    """Split log(phi) = f + w, phi = ``lowest_eigenpair(op).phi``, through
    localized ground states.

    Finite cover by balls B(x_i, rho/2) with disjoint quarter-balls; each
    center gets a shifted local potential (eigenvalue-zeroed), a local
    ground state from the fixed point, and the pieces are glued with a
    C^2 partition of unity.  The reconstruction e^{f + w} = phi holds to
    round-off by construction; the report carries ||df||_{L^n},
    ||Delta f||_{n/2}, the sampled 1/2-Hölder seminorm of w and all
    thresholds.  phi is solved here at ``lowest_eigenpair``'s default tol,
    and every threshold reads the grid's ``sobolev_constant`` and
    ``grad_inv_constant`` (echoed as ``beta_est`` and ``a_est``), so the
    split is always of this operator's ground state on this grid.  Each
    local shift is solved to |lambda0| <= 1e-7 with eigen solves at tol
    1e-9.

    The shift and the fixed point run once per orbit of centers
    (``_center_orbits``): along the axes where V is constant, compared with
    exact ==, and the center spacing is a whole number of grid steps, every
    center's local problem is a grid translate of its representative's.
    Such a center takes the representative's c0 and its v rolled by the
    index offset, unless its own ball mask differs from the rolled
    representative mask, in which case it is solved directly.  A V that
    varies along every axis solves every center.
    """
    geom = op.geom
    n = geom.dim
    cover = _cover_centers(geom, rho)
    beta = geom.sobolev_constant
    centers = cover.points
    nodes = geom.nodes()
    dists = [d0_many(geom.manifold, nodes, c) for c in centers]
    masks = [d <= rho for d in dists]  # each is geom.ball_mask(c, rho)
    # smallness of V on cover balls (the per-ball hypothesis)
    sup_local = max(geom.lp_norm(op.V * mask, n / 2.0) for mask in masks)
    if sup_local > beta / 2.0:
        raise InputError(
            f"sup over cover balls of ||V||_{{n/2}} = {sup_local:.4g} exceeds "
            f"beta/2 = {beta / 2.0:.4g}"
        )
    phi = lowest_eigenpair(op).phi
    log_phi = np.log(phi)
    f = np.zeros_like(log_phi)
    w = np.zeros_like(log_phi)
    chi_sum = np.zeros_like(log_phi)
    chis, vs, vbars = [], [], []
    shift_cs = []
    reps, steps = _center_orbits(geom, op.V, cover.lattice_shape)

    def translate(u, k):
        return np.roll(u.reshape(geom.shape), tuple(k), axis=tuple(range(n))).reshape(-1)

    for c, d, mask, r, k in zip(centers, dists, masks, reps, steps):
        if k.any() and np.array_equal(mask, translate(masks[r], k)):
            # an exact grid translate of its representative's local problem
            c0, v = shift_cs[r], translate(vs[r], k)
        else:
            q_i = -op.V * mask  # local operator Delta - V 1_B + c 1_comp
            shift = gs_shift_c0(geom, q_i, c, rho, tol=1e-7, eig_tol=1e-9)
            comp = (~mask).astype(float)
            v_loc = op.V * mask - shift.c0 * comp
            fp = log_gradient_fixedpoint(GridOperator(geom, v_loc))
            c0, v = shift.c0, fp.v
        shift_cs.append(c0)
        vbar = float(np.mean(v[d <= 0.75 * rho]))
        chi = bump(d / (0.75 * rho))
        chis.append(chi)
        vs.append(v)
        vbars.append(vbar)
        chi_sum += chi
    if chi_sum.min() <= 0:
        raise InputError("partition of unity failed to cover the grid")
    for chi, v_i, vbar in zip(chis, vs, vbars):
        lam = chi / chi_sum
        f += lam * (v_i - vbar)
        w += lam * ((log_phi - v_i) + vbar)
    recon = float(np.max(np.abs(np.exp(f + w) - phi) / phi))
    rng = derive_rng(seed, "holder-w")
    npairs = min(20_000, phi.size**2)
    ii = rng.integers(0, phi.size, npairs)
    jj = rng.integers(0, phi.size, npairs)
    dd = d0_many(geom.manifold, nodes[ii], nodes[jj])
    ok = dd > 0
    holder_alpha = 0.5
    hold = float(np.max(np.abs(w[ii[ok]] - w[jj[ok]]) / dd[ok] ** holder_alpha))
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
