"""Weight-comparability diagnostics: reverse Hölder and A_p constants,
doubling, subset-ratio exponents, strong two-sided distance/mass ratios,
bi-Hölder fits, Hölder seminorms and isoperimetric sampling.

All ball averages inside one estimate share a single uniform sample pool per
ball, so every reported constant cancels a constant shift of f exactly (the
scale-invariance property asserted at 1e-10 in the tests).  Per-ball seeds
are derived from the sampler seed and the ball index, making the sup/inf
reductions independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import pi
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, IntegrationError, SamplingError
from .manifold import (
    BallSpec,
    Manifold,
    PointSet,
    _quasi_uniform_sphere,
    d0_many,
    sample_ball,
    sample_manifold,
    sphere_volume,
)
from .metric import DistanceMatrix
from .rng import derive_rng, derive_seed
from .weight import WeightField, mu_f_ball, total_mass


def default_eta(m: Manifold) -> float:
    """Radius cap for small-scale constants: quarter of the smallest
    period/extent, at most 1 (small-scale control transfers to all scales)."""
    return min(m.min_period / 4.0, 1.0)


@dataclass(frozen=True)
class BallSampler:
    """Centers x radii grid of sample balls, with the seed that derives
    every per-ball sample pool."""

    centers: PointSet
    radii: tuple
    seed: int = 0

    def __post_init__(self):
        if any(r <= 0 for r in self.radii):
            raise InputError("sampler radii must be positive")

    def balls(self):
        k = 0
        for r in self.radii:
            for c in self.centers.points:
                yield k, BallSpec(center=c, radius=float(r))
                k += 1

    @property
    def count(self) -> int:
        return len(self.centers) * len(self.radii)


def _ball_weight_samples(m, field, ball, budget, seed):
    pts, _, _ = sample_ball(m, ball, budget, seed)
    return np.exp(m.dim * field.eval_many(m, pts)), pts


# ---------------------------------------------------------------------------
# averaged-weight constants
# ---------------------------------------------------------------------------


def reverse_holder(
    m: Manifold, field: WeightField, q: float, sampler: BallSampler, budget: int = 20_000
) -> float:
    """sup over sampled balls of (avg w^q)^{1/q} / avg w."""
    if q <= 1:
        raise InputError("reverse Hölder exponent q must exceed 1")
    field.validate(m)
    best = 0.0
    for k, ball in sampler.balls():
        w, _ = _ball_weight_samples(m, field, ball, budget, derive_seed(sampler.seed, "rh", k))
        best = max(best, float(np.mean(w**q) ** (1.0 / q) / np.mean(w)))
    return best


def ap_product(
    m: Manifold, field: WeightField, p: float, sampler: BallSampler, budget: int = 20_000
) -> float:
    """sup over sampled balls of (avg w) (avg w^{-1/(p-1)})^{p-1}."""
    if p <= 1:
        raise InputError("A_p exponent p must exceed 1")
    field.validate(m)
    best = 0.0
    for k, ball in sampler.balls():
        w, _ = _ball_weight_samples(m, field, ball, budget, derive_seed(sampler.seed, "ap", k))
        best = max(best, float(np.mean(w) * np.mean(w ** (-1.0 / (p - 1))) ** (p - 1)))
    return best


@dataclass
class SubsetRatioResult:
    slope: float
    alpha_iv: float  # two-sided exponent: max(slope, 1/slope)
    constant: float  # envelope constant at the fitted exponent
    n_pairs: int
    n_excluded: int


def subset_ratio_exponent(
    m: Manifold,
    field: WeightField,
    sampler: BallSampler,
    subdivisions: int = 12,
    budget: int = 20_000,
) -> SubsetRatioResult:
    """Fit of log(w-mass ratio) against log(mu0 ratio) over subsets E of
    sampled balls (concentric shrinks plus random unions of quantile cells).

    Degenerate subsets (no mass) are excluded and counted.
    """
    if subdivisions < 8:
        raise InputError("subset_ratio_exponent needs subdivisions >= 8")
    field.validate(m)
    xs, ys = [], []
    excluded = 0
    for k, ball in sampler.balls():
        seed_k = derive_seed(sampler.seed, "iv", k)
        w, pts = _ball_weight_samples(m, field, ball, budget, seed_k)
        dists = d0_many(m, pts, ball.center)
        rng = derive_rng(sampler.seed, "ivsub", k)
        subsets = [dists <= tau * ball.radius for tau in (0.25, 0.4, 0.55, 0.7, 0.85)]
        # random unions of equal-count shells
        qbins = np.searchsorted(
            np.quantile(dists, np.linspace(0, 1, subdivisions + 1)[1:-1]), dists
        )
        for _ in range(subdivisions):
            pick = rng.random(subdivisions) < 0.5
            subsets.append(pick[qbins])
        for mask in subsets:
            cnt = int(mask.sum())
            if cnt == 0 or cnt == mask.size:
                excluded += 1
                continue
            mu_ratio = cnt / mask.size
            w_ratio = float(w[mask].sum() / w.sum())
            if w_ratio <= 0:
                excluded += 1
                continue
            xs.append(np.log(mu_ratio))
            ys.append(np.log(w_ratio))
    if len(xs) < 8:
        raise SamplingError(f"only {len(xs)} valid (E, B) pairs; need at least 8")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope = float(np.polyfit(xs, ys, 1)[0])
    alpha = max(slope, 1.0 / slope) if slope > 0 else float("inf")
    resid = ys - slope * xs
    constant = float(np.exp(np.max(np.abs(resid))))
    return SubsetRatioResult(
        slope=slope,
        alpha_iv=alpha,
        constant=constant,
        n_pairs=len(xs),
        n_excluded=excluded,
    )


def doubling_constant(
    m: Manifold, field: WeightField, sampler: BallSampler, budget: int = 20_000
) -> float:
    """sup over sampled (x, r) of mu_f(B(x, 2r)) / mu_f(B(x, r))."""
    field.validate(m)
    best = 0.0
    for k, ball in sampler.balls():
        inner, _ = mu_f_ball(m, field, ball, budget, derive_seed(sampler.seed, "dbl-in", k))
        outer, _ = mu_f_ball(
            m,
            field,
            BallSpec(center=ball.center, radius=2 * ball.radius),
            budget,
            derive_seed(sampler.seed, "dbl-out", k),
        )
        best = max(best, outer / inner)
    return best


# ---------------------------------------------------------------------------
# strong comparability and bi-Hölder fits
# ---------------------------------------------------------------------------


@dataclass
class StrongRatioResult:
    theta_strong: float  # ball-at-x convention of the two-sided comparison
    theta_strong_mid: float  # midpoint-ball convention, recorded alongside
    n_pairs: int


def strong_ratio(
    m: Manifold,
    field: WeightField,
    points: PointSet,
    dmat: DistanceMatrix,
    pairs: Sequence,
    eta: float,
    budget: int = 20_000,
    seed: int = 0,
) -> StrongRatioResult:
    """sup over pairs of max(rho, 1/rho), rho = d_f(x,y)/mu_f(B)^{1/n}.

    Both ball conventions are computed: B(x, d0(x,y)) (reported as
    theta_strong) and the midpoint ball B_xy of radius d0(x,y)/2.
    """
    from .manifold import midpoint as geo_midpoint

    field.validate(m)
    n = m.dim
    best_x, best_mid = 0.0, 0.0
    used = 0
    for k, (i, j) in enumerate(pairs):
        x = points.points[int(i)]
        y = points.points[int(j)]
        d0_xy = float(d0_many(m, x, y))
        if d0_xy <= 0 or d0_xy > eta:
            continue
        df = dmat.get(int(i), int(j))
        mass_x, _ = mu_f_ball(
            m, field, BallSpec(center=x, radius=d0_xy), budget, derive_seed(seed, "sr", k)
        )
        rho = df / mass_x ** (1.0 / n)
        best_x = max(best_x, rho, 1.0 / rho)
        mid = geo_midpoint(m, x, y)
        mass_m, _ = mu_f_ball(
            m,
            field,
            BallSpec(center=mid, radius=d0_xy / 2.0),
            budget,
            derive_seed(seed, "srm", k),
        )
        rho_m = df / mass_m ** (1.0 / n)
        best_mid = max(best_mid, rho_m, 1.0 / rho_m)
        used += 1
    if used == 0:
        raise InputError("no pairs with 0 < d0 <= eta present in the distance matrix")
    return StrongRatioResult(theta_strong=best_x, theta_strong_mid=best_mid, n_pairs=used)


def d0_matrix(m: Manifold, points: PointSet, sources=None) -> DistanceMatrix:
    """Base-distance matrix aligned with shortest_paths output."""
    n = len(points)
    sources = np.arange(n) if sources is None else np.asarray(sources, dtype=int)
    vals = np.stack(
        [d0_many(m, points.points, points.points[s]) for s in sources], axis=0
    )
    return DistanceMatrix(
        sources=sources, targets=np.arange(n), values=vals, provenance={"kind": "d0"}
    )


@dataclass
class BiHolderFit:
    slope: float
    alpha: float  # fitted slope clipped into (0, 1)
    constant: float  # smallest C validating both two-sided bounds at alpha
    alpha_low: float  # min(slope, 1/slope)
    alpha_high: float  # max(slope, 1/slope)
    n_pairs: int


def biholder_fit(dmat_f: DistanceMatrix, dmat_0: DistanceMatrix, mass_total: float) -> BiHolderFit:
    """Least-squares exponent between log d_f (mass-normalized) and log d0.

    Returns the fitted slope and the smallest constant C for which

        mass^{1/n}/C * d0^{1/alpha} <= d_f <= C mass^{1/n} d0^alpha

    holds over all represented pairs, at alpha = slope clipped into (0,1).
    The normalization divides d_f by mass_total^{1/n} with n inferred from
    the caller (the exponent fit itself is normalization-independent).
    """
    if dmat_f.values.shape != dmat_0.values.shape or not np.array_equal(
        dmat_f.sources, dmat_0.sources
    ):
        raise InputError("bi-Hölder fit needs matrices over the same index set")
    df = dmat_f.values.ravel()
    d0v = dmat_0.values.ravel()
    good = (df > 0) & (d0v > 0) & np.isfinite(df) & np.isfinite(d0v)
    if int(good.sum()) < 10:
        raise SamplingError("bi-Hölder fit needs at least 10 positive pairs")
    scale = mass_total ** (1.0 / dmat_f.provenance.get("dim", dmat_0.provenance.get("dim", 2)))
    y = np.log(df[good] / scale)
    x = np.log(d0v[good])
    slope, intercept = np.polyfit(x, y, 1)
    slope = float(slope)
    alpha = min(max(slope, 0.01), 0.99)
    dn = df[good] / scale
    c_up = np.max(dn / d0v[good] ** alpha)
    c_lo = np.max(d0v[good] ** (1.0 / alpha) / dn)
    constant = float(max(c_up, c_lo, 1.0))
    return BiHolderFit(
        slope=slope,
        alpha=alpha,
        constant=constant,
        alpha_low=float(min(slope, 1.0 / slope)),
        alpha_high=float(max(slope, 1.0 / slope)),
        n_pairs=int(good.sum()),
    )


def holder_seminorm(
    dmat: DistanceMatrix,
    d0mat: DistanceMatrix,
    alpha: float,
    quadruples: int = 4000,
    seed: int = 0,
) -> float:
    """sup over sampled quadruples of
    |d(x,y) - d(x',y')| / (d0(x,x')^alpha + d0(y,y')^alpha).

    Works on square matrices (sources == targets).  Besides uniform random
    quadruples, structured ones with y' = y and x' ranging over all other
    points are included, which is where the sup is typically attained.
    """
    if dmat.values.shape != d0mat.values.shape or not np.array_equal(
        dmat.sources, d0mat.sources
    ):
        raise InputError("matrices must be aligned")
    if not np.array_equal(dmat.sources, dmat.targets):
        raise InputError("holder_seminorm needs square matrices (sources == targets)")
    d = dmat.values
    d0v = d0mat.values
    S = dmat.sources.size
    rng = derive_rng(seed, "holder")
    best = 0.0
    dxx = d0v**alpha
    np.fill_diagonal(dxx, np.inf)  # exclude the degenerate x' = x, y' = y case
    for y in rng.choice(S, size=min(S, 48), replace=False):
        num = np.abs(d[:, y][:, None] - d[:, y][None, :])
        best = max(best, float(np.max(num / dxx)))
    a, b, y, yp = rng.integers(0, S, (4, quadruples))
    den = d0v[a, b] ** alpha + d0v[y, yp] ** alpha
    num = np.abs(d[a, y] - d[b, yp])
    ok = den > 0
    if np.any(ok):
        best = max(best, float(np.max(num[ok] / den[ok])))
    return best


# ---------------------------------------------------------------------------
# isoperimetry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned coordinate box (subset of a torus/box manifold)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo, hi = np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or not np.all(np.isfinite(hi - lo) & (hi > lo)):
            raise InputError(f"box domain needs finite hi > lo on every axis: {self.lo}, {self.hi}")


def _ball_boundary_quadrature(m: Manifold, field: WeightField, ball: BallSpec, nodes: int):
    """int_{boundary} e^{(n-1)f} dA0 for a coordinate ball on a torus/box."""
    n = m.dim
    c = np.asarray(ball.center, dtype=float)
    r = ball.radius
    if n == 2:
        theta = (np.arange(nodes) + 0.5) * (2 * pi / nodes)
        pts = c + r * np.column_stack([np.cos(theta), np.sin(theta)])
        area = 2 * pi * r
    else:
        dirs = _quasi_uniform_sphere(n - 1, nodes)
        pts = c + r * dirs
        area = sphere_volume(n - 1) * r ** (n - 1)
    pts = m.canonicalize(pts) if m.kind == "torus" else pts
    vals = np.exp((n - 1) * field.eval_many(m, pts))
    if not np.all(np.isfinite(vals)):
        raise IntegrationError("boundary quadrature hit non-finite weight values")
    return area * float(vals.mean())


def _box_boundary_quadrature(m: Manifold, field: WeightField, dom: BoxDomain, nodes_per_face: int):
    n = m.dim
    lo = np.asarray(dom.lo, dtype=float)
    hi = np.asarray(dom.hi, dtype=float)
    rng_like = np.linspace(0.0, 1.0, max(2, int(round(nodes_per_face ** (1.0 / max(n - 1, 1))))) + 1)
    mids = (rng_like[1:] + rng_like[:-1]) / 2
    total = 0.0
    for a in range(n):
        others = [b for b in range(n) if b != a]
        grids = np.meshgrid(*[mids for _ in others], indexing="ij")
        face_pts = np.zeros((grids[0].size, n)) if others else np.zeros((1, n))
        for gi, b in enumerate(others):
            face_pts[:, b] = lo[b] + grids[gi].ravel() * (hi[b] - lo[b])
        face_area = float(np.prod(hi[others] - lo[others])) if others else 1.0
        for side_val in (lo[a], hi[a]):
            pts = face_pts.copy()
            pts[:, a] = side_val
            pts = m.canonicalize(pts) if m.kind == "torus" else pts
            vals = np.exp((n - 1) * field.eval_many(m, pts))
            total += face_area * float(vals.mean())
    return total


def _box_mass(m: Manifold, field: WeightField, dom: BoxDomain, budget: int, seed: int):
    pts, w = sample_manifold(Manifold.box(np.column_stack([dom.lo, dom.hi])), budget, seed)
    return float(w @ np.exp(m.dim * field.eval_many(m, m.canonicalize(pts))))


@dataclass
class IsoperimetricResult:
    inf_ratio: float
    table: list  # (domain description, perimeter, mass, ratio)


def isoperimetric_ratio(
    m: Manifold,
    field: WeightField,
    domains: Sequence,
    budget: int = 40_000,
    seed: int = 0,
    boundary_nodes: int = 4096,
    mass_bound: Optional[float] = None,
) -> IsoperimetricResult:
    """inf over domains of perimeter / mass^{1-1/n} for the deformed metric.

    Perimeter is the boundary quadrature of e^{(n-1)f}; mass is mu_f of the
    domain.  Domains with more than half the total mass violate the
    precondition and are rejected.
    """
    field.validate(m)
    n = m.dim
    if mass_bound is None:
        mass_bound = 0.5 * total_mass(m, field, seed=derive_seed(seed, "tot"))[0]
    rows = []
    ratios = []
    for k, dom in enumerate(domains):
        s = derive_seed(seed, "iso", k)
        if isinstance(dom, BallSpec):
            perim = _ball_boundary_quadrature(m, field, dom, boundary_nodes)
            mass, _ = mu_f_ball(m, field, dom, budget, s)
            desc = f"ball(r={dom.radius:g})"
        elif isinstance(dom, BoxDomain):
            if m.kind == "torus" and np.any(np.subtract(dom.hi, dom.lo) >= m.periods):
                # a box as wide as a period overlaps itself: faces and mass count twice
                raise InputError(
                    f"box domain {dom.lo}..{dom.hi} is not narrower than the torus "
                    f"period {tuple(m.periods)} on every axis"
                )
            perim = _box_boundary_quadrature(m, field, dom, boundary_nodes)
            mass = _box_mass(m, field, dom, budget, s)
            desc = "box"
        else:
            raise InputError(f"unsupported isoperimetric domain {dom!r}")
        if mass > mass_bound * (1 + 1e-9):
            raise InputError(
                f"domain {desc} holds mass {mass:.4g} > half the total mass"
            )
        ratio = perim / mass ** (1.0 - 1.0 / n)
        rows.append((desc, perim, mass, ratio))
        ratios.append(ratio)
    return IsoperimetricResult(inf_ratio=float(np.min(ratios)), table=rows)


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------


@dataclass
class AInftyReport:
    q: float
    C_rh: float
    p: float
    C_ap: float
    theta_doubling: float
    alpha_iv: float
    eta: float
    theta_strong: Optional[float]
    theta_strong_mid: Optional[float]
    n_balls: int
    budget: int
    seed: int

    def to_dict(self):
        return asdict(self)


def ainfty_report(
    m: Manifold,
    field: WeightField,
    sampler: BallSampler,
    q: float = 2.0,
    p: float = 2.0,
    budget: int = 20_000,
    strong: Optional[dict] = None,
    subdivisions: int = 12,
) -> AInftyReport:
    """One-stop estimation of the comparability constants on one sampler.

    ``strong`` optionally carries dict(points=..., dmat=..., pairs=...,
    eta=...) to fill the two-sided distance/mass ratios.
    """
    eta = max(sampler.radii)
    c_rh = reverse_holder(m, field, q, sampler, budget)
    c_ap = ap_product(m, field, p, sampler, budget)
    half = BallSampler(
        centers=sampler.centers,
        radii=tuple(r / 2.0 for r in sampler.radii),
        seed=sampler.seed,
    )
    theta = doubling_constant(m, field, half, budget)
    ratio = subset_ratio_exponent(m, field, sampler, subdivisions, budget)
    th_s = th_m = None
    if strong is not None:
        sr = strong_ratio(
            m,
            field,
            strong["points"],
            strong["dmat"],
            strong["pairs"],
            strong.get("eta", eta),
            budget,
            seed=derive_seed(sampler.seed, "strong"),
        )
        th_s, th_m = sr.theta_strong, sr.theta_strong_mid
    return AInftyReport(
        q=q,
        C_rh=c_rh,
        p=p,
        C_ap=c_ap,
        theta_doubling=theta,
        alpha_iv=ratio.alpha_iv,
        eta=eta,
        theta_strong=th_s,
        theta_strong_mid=th_m,
        n_balls=sampler.count,
        budget=budget,
        seed=sampler.seed,
    )
