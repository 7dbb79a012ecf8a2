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
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import InputError, IntegrationError, SamplingError
from .manifold import (
    BallSpec,
    Manifold,
    PointSet,
    _quasi_uniform_sphere,
    d0_many,
    float_array,
    midpoint,
    positive_scalar,
    sample_ball,
    sphere_volume,
)
from .metric import DistanceMatrix, _node_indices
from .rng import derive_rng, derive_seed
from .weight import WeightField, _Lifted, _density, check_ball_budget, mu_f_ball, total_mass


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
        r = float_array(self.radii, "sampler radii")
        if r.ndim != 1 or r.size == 0 or len(self.centers) == 0:
            raise InputError(f"a ball sampler needs a list of at least one radius and one center, "
                             f"got radii {self.radii!r}")
        if not np.all((r > 0) & (r < np.inf)):
            raise InputError(f"sampler radii must be positive and finite, got {self.radii!r}")

    def balls(self):
        k = 0
        for r in self.radii:
            for c in self.centers.points:
                yield k, BallSpec(center=c, radius=float(r))
                k += 1

    @property
    def count(self) -> int:
        return len(self.centers) * len(self.radii)


def _ball_pools(m: Manifold, field: WeightField, sampler: BallSampler, budget: int, stream: str):
    """(k, ball, w, pts) for each sampled ball: pts its uniform sample pool,
    seeded by derive_seed(sampler.seed, stream, k), and w = e^{nf} on it.
    The field is validated once, before the first ball."""
    field.validate(m)
    density = _density(m, field)[0]
    for k, ball in sampler.balls():
        pts, _, _ = sample_ball(m, ball, budget, derive_seed(sampler.seed, stream, k))
        yield k, ball, density(pts), pts


# ---------------------------------------------------------------------------
# averaged-weight constants
# ---------------------------------------------------------------------------


_EXPONENTS = {"q": "reverse Hölder", "p": "A_p"}


def check_exponent(name: str, value: float) -> None:
    """InputError unless the reverse Hölder ("q") or A_p ("p") exponent is a
    number that exceeds 1."""
    if not isinstance(value, Real) or not 1 < value < np.inf:
        raise InputError(f"{_EXPONENTS[name]} exponent {name} must exceed 1 and be finite, got {value!r}")


def reverse_holder(
    m: Manifold, field: WeightField, q: float, sampler: BallSampler, budget: int = 20_000
) -> float:
    """sup over sampled balls of (avg w^q)^{1/q} / avg w."""
    check_exponent("q", q)
    best = 0.0
    for _, _, w, _ in _ball_pools(m, field, sampler, budget, "rh"):
        best = max(best, float(np.mean(w**q) ** (1.0 / q) / np.mean(w)))
    return best


def ap_product(
    m: Manifold, field: WeightField, p: float, sampler: BallSampler, budget: int = 20_000
) -> float:
    """sup over sampled balls of (avg w) (avg w^{-1/(p-1)})^{p-1}."""
    check_exponent("p", p)
    best = 0.0
    for _, _, w, _ in _ball_pools(m, field, sampler, budget, "ap"):
        best = max(best, float(np.mean(w) * np.mean(w ** (-1.0 / (p - 1))) ** (p - 1)))
    return best


_SUBDIVISIONS = 12  # equal-count shells per ball, and random unions of them


def subset_ratio_exponent(
    m: Manifold,
    field: WeightField,
    sampler: BallSampler,
    budget: int = 20_000,
) -> float:
    """Two-sided exponent alpha_iv = max(slope, 1/slope) of the fit of
    log(w-mass ratio) against log(mu0 ratio) over subsets E of sampled balls
    (concentric shrinks plus random unions of quantile cells); inf for a
    slope that is not positive.

    Degenerate subsets (no mass) are excluded.
    """
    xs, ys = [], []
    for k, ball, w, pts in _ball_pools(m, field, sampler, budget, "iv"):
        dists = d0_many(m, pts, ball.center)
        rng = derive_rng(sampler.seed, "ivsub", k)
        subsets = [dists <= tau * ball.radius for tau in (0.25, 0.4, 0.55, 0.7, 0.85)]
        # random unions of equal-count shells
        qbins = np.searchsorted(
            np.quantile(dists, np.linspace(0, 1, _SUBDIVISIONS + 1)[1:-1]), dists
        )
        for _ in range(_SUBDIVISIONS):
            pick = rng.random(_SUBDIVISIONS) < 0.5
            subsets.append(pick[qbins])
        for mask in subsets:
            cnt = int(mask.sum())
            if cnt == 0 or cnt == mask.size:
                continue
            mu_ratio = cnt / mask.size
            w_ratio = float(w[mask].sum() / w.sum())
            if w_ratio <= 0:
                continue
            xs.append(np.log(mu_ratio))
            ys.append(np.log(w_ratio))
    if len(xs) < 8:
        raise SamplingError(f"only {len(xs)} valid (E, B) pairs; need at least 8")
    slope = float(np.polyfit(xs, ys, 1)[0])
    return max(slope, 1.0 / slope) if slope > 0 else float("inf")


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


_STRONG_BUDGET = 20_000  # samples per ball mass of strong_ratio


def strong_ratio(
    m: Manifold,
    field: WeightField,
    points: PointSet,
    dmat: DistanceMatrix,
    pairs: Sequence,
    eta: float,
    seed: int = 0,
) -> StrongRatioResult:
    """sup over pairs of max(rho, 1/rho), rho = d_f(x,y)/mu_f(B)^{1/n}.

    Both ball conventions are computed: B(x, d0(x,y)) (reported as
    theta_strong) and the midpoint ball B_xy of radius d0(x,y)/2.  The
    pairs are (i, j) node indices in [0, len(points)), checked as
    shortest_paths checks its sources, else InputError.  One d0_many call
    gives every pair's d0 and one midpoint call the midpoints of the pairs
    with 0 < d0 <= eta; then, pair by pair, the ball at x and the midpoint
    ball take their masses, seeded by the pair's position k in ``pairs``.
    """
    field.validate(m)
    eta = positive_scalar(eta, "eta")
    n = m.dim
    try:
        ij = np.asarray(pairs)
    except ValueError:  # ragged
        ij = None
    if ij is None or ij.size and (ij.ndim != 2 or ij.shape[1] != 2):
        raise InputError("pairs must be a sequence of (i, j) node index pairs")
    i, j = _node_indices(ij.reshape(-1), len(points), "pair nodes").reshape(-1, 2).T
    d0 = d0_many(m, points.points[i], points.points[j])
    keep = np.flatnonzero((d0 > 0.0) & (d0 <= eta))
    if keep.size == 0:
        raise InputError("no pairs with 0 < d0 <= eta present in the distance matrix")
    dfs = [dmat.get(int(i[k]), int(j[k])) for k in keep]
    mids = midpoint(m, points.points[i[keep]], points.points[j[keep]])
    best_x, best_mid = 0.0, 0.0
    for k, df, mid in zip(keep, dfs, mids):
        d0_xy = float(d0[k])
        mass_x, _ = mu_f_ball(
            m, field, BallSpec(center=points.points[i[k]], radius=d0_xy), _STRONG_BUDGET,
            derive_seed(seed, "sr", k),
        )
        rho = df / mass_x ** (1.0 / n)
        best_x = max(best_x, rho, 1.0 / rho)
        mass_m, _ = mu_f_ball(
            m, field, BallSpec(center=mid, radius=d0_xy / 2.0), _STRONG_BUDGET,
            derive_seed(seed, "srm", k),
        )
        rho_m = df / mass_m ** (1.0 / n)
        best_mid = max(best_mid, rho_m, 1.0 / rho_m)
    return StrongRatioResult(theta_strong=best_x, theta_strong_mid=best_mid, n_pairs=int(keep.size))


def d0_matrix(m: Manifold, points: PointSet, sources=None) -> DistanceMatrix:
    """Base-distance matrix aligned with shortest_paths output, its sources
    checked as there."""
    n = len(points)
    sources = np.arange(n) if sources is None else _node_indices(sources, n, "sources")
    vals = d0_many(m, points.points[None], points.points[sources][:, None])
    return DistanceMatrix(sources=sources, targets=np.arange(n), values=vals)


def biholder_fit(dmat_f: DistanceMatrix, dmat_0: DistanceMatrix) -> float:
    """alpha_low = min(slope, 1/slope) of the least-squares fit of log d_f
    against log d0 over the pairs where both are positive and finite.

    A constant shift of f scales d_f, which moves only the fit's intercept,
    so alpha_low does not depend on it.
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
    slope = float(np.polyfit(np.log(d0v[good]), np.log(df[good]), 1)[0])
    return min(slope, 1.0 / slope)


# ---------------------------------------------------------------------------
# isoperimetry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned coordinate box (subset of a torus/box manifold)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo, hi = float_array(self.lo, "box domain corner"), float_array(self.hi, "box domain corner")
        if lo.ndim != 1 or lo.shape != hi.shape or not np.all(np.isfinite(hi - lo) & (hi > lo)):
            raise InputError(f"box domain needs finite hi > lo on every axis: {self.lo}, {self.hi}")


def _boundary_mean(m: Manifold, field: WeightField, pts: np.ndarray) -> float:
    """Mean of e^{(n-1)f} over boundary nodes; IntegrationError if any
    value is not finite."""
    vals = np.exp((m.dim - 1) * field.eval_many(m, m.canonicalize(pts)))
    if not np.all(np.isfinite(vals)):
        raise IntegrationError("boundary quadrature hit non-finite weight values")
    return float(vals.mean())


def _ball_boundary_quadrature(m: Manifold, field: WeightField, ball: BallSpec):
    """int_{boundary} e^{(n-1)f} dA0 for a coordinate ball on a torus/box."""
    n = m.dim
    c = np.asarray(ball.center, dtype=float)
    r = ball.radius
    pts = c + r * _quasi_uniform_sphere(n - 1, _ISO_NODES)
    return sphere_volume(n - 1) * r ** (n - 1) * _boundary_mean(m, field, pts)


def _box_boundary_quadrature(m: Manifold, field: WeightField, dom: BoxDomain):
    n = m.dim
    lo = np.asarray(dom.lo, dtype=float)
    hi = np.asarray(dom.hi, dtype=float)
    rng_like = np.linspace(0.0, 1.0, max(2, int(round(_ISO_NODES ** (1.0 / max(n - 1, 1))))) + 1)
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
            total += face_area * _boundary_mean(m, field, pts)
    return total


@dataclass
class IsoperimetricResult:
    inf_ratio: float
    table: list  # (domain description, perimeter, mass, ratio)


_ISO_BUDGET = 40_000  # samples per domain mass of isoperimetric_ratio
_ISO_NODES = 4096  # boundary nodes per ball (per face of a box) of its perimeters


def isoperimetric_ratio(
    m: Manifold,
    field: WeightField,
    domains: Sequence,
    seed: int = 0,
) -> IsoperimetricResult:
    """inf over domains of perimeter / mass^{1-1/n} for the deformed metric.

    Perimeter is the boundary quadrature of e^{(n-1)f} on ``_ISO_NODES``
    nodes (per face of a box); mass is mu_f of the domain, a box's the
    total_mass of the box read through m.  Domains with more than half the total mass
    violate the precondition and are rejected.  The boundary quadratures
    are coordinate-chart ones, so m must be a torus or a box.
    """
    if m.kind not in ("torus", "box"):
        raise InputError(f"isoperimetric_ratio needs a torus or a box, got a {m.kind}")
    if not isinstance(domains, Sequence) or len(domains) == 0:
        raise InputError(f"isoperimetric_ratio needs a list of at least one domain, got {domains!r}")
    field.validate(m)
    n = m.dim
    mass_bound = 0.5 * total_mass(m, field, seed=derive_seed(seed, "tot"))[0]
    rows = []
    ratios = []
    for k, dom in enumerate(domains):
        s = derive_seed(seed, "iso", k)
        if isinstance(dom, BallSpec):
            perim = _ball_boundary_quadrature(m, field, dom)
            mass, _ = mu_f_ball(m, field, dom, _ISO_BUDGET, s)
            desc = f"ball(r={dom.radius:g})"
        elif isinstance(dom, BoxDomain):
            if m.kind == "torus" and np.any(np.subtract(dom.hi, dom.lo) >= m.periods):
                # a box as wide as a period overlaps itself: faces and mass count twice
                raise InputError(
                    f"box domain {dom.lo}..{dom.hi} is not narrower than the torus "
                    f"period {tuple(m.periods)} on every axis"
                )
            perim = _box_boundary_quadrature(m, field, dom)
            box = Manifold.box(np.column_stack([dom.lo, dom.hi]))
            mass, _ = total_mass(box, _Lifted(m, field), _ISO_BUDGET, s)
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
    n_balls: int
    budget: int
    seed: int

    def to_dict(self):
        return asdict(self)


def ainfty_report(
    m: Manifold,
    field: WeightField,
    sampler: BallSampler,
    q: float,
    p: float,
    budget: int,
) -> AInftyReport:
    """One-stop estimation of the averaged-weight comparability constants
    on one sampler: reverse Hölder, A_p, doubling (at half the radii) and
    the subset-ratio exponent; q, p and budget are checked before sampling."""
    check_exponent("q", q)
    check_exponent("p", p)
    check_ball_budget(budget)
    eta = max(sampler.radii)
    c_rh = reverse_holder(m, field, q, sampler, budget)
    c_ap = ap_product(m, field, p, sampler, budget)
    half = BallSampler(
        centers=sampler.centers,
        radii=tuple(r / 2.0 for r in sampler.radii),
        seed=sampler.seed,
    )
    theta = doubling_constant(m, field, half, budget)
    alpha_iv = subset_ratio_exponent(m, field, sampler, budget=budget)
    return AInftyReport(
        q=q,
        C_rh=c_rh,
        p=p,
        C_ap=c_ap,
        theta_doubling=theta,
        alpha_iv=alpha_iv,
        eta=eta,
        n_balls=sampler.count,
        budget=budget,
        seed=sampler.seed,
    )
