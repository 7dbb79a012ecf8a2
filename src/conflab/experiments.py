"""Canonical experiments and report assembly.

Each experiment runs a pipeline of module operations at the configured scale,
emits artifacts (JSON report, CSV tables, distance matrices) under its output
directory, and returns pass/fail flags keyed by acceptance criterion ids.
Reports are bit-identical for identical specs: seeds are explicit, reductions
deterministic, and wall-clock timings go to a separate file that is excluded
from the determinism contract.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from math import pi, sqrt
from pathlib import Path
import numpy as np
from scipy.integrate import quad

from . import diagnostics as dg
from . import metric as mt
from . import schrodinger as sc
from . import weight as wt
from .curvature import alpha_n2, pinching_profile, scalar_curvature_many
from .errors import ConflabError, InputError, NumericError, ResourceError
from .manifold import BallSpec, Manifold, PointSet, lattice, whole_manifold_ball
from .rng import derive_rng, derive_seed

EXPERIMENT_NAMES = (
    "flat-identity",
    "sphere-bubble",
    "log-cusp",
    "burago",
    "schrodinger",
    "custom",
)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


@dataclass
class ExperimentSpec:
    name: str
    seed: int
    output_dir: str
    manifold: dict = dc_field(default_factory=dict)
    weight: dict = dc_field(default_factory=dict)
    graph: dict = dc_field(default_factory=dict)
    diagnostics: dict = dc_field(default_factory=dict)
    budgets: dict = dc_field(default_factory=dict)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentSpec":
        if "name" not in doc:
            raise InputError("experiment spec needs a 'name'")
        if doc["name"] not in EXPERIMENT_NAMES:
            raise InputError(
                f"unknown experiment {doc['name']!r}; expected one of {EXPERIMENT_NAMES}"
            )
        if "seed" not in doc:
            raise InputError("experiment spec needs an explicit integer 'seed'")
        unknown = set(doc) - {
            "name",
            "seed",
            "output_dir",
            "manifold",
            "weight",
            "graph",
            "diagnostics",
            "budgets",
        }
        if unknown:
            raise InputError(f"unknown spec fields: {sorted(unknown)}")
        spec = ExperimentSpec(
            name=doc["name"],
            seed=int(doc["seed"]),
            output_dir=doc.get("output_dir", "conflab-out"),
            manifold=doc.get("manifold", {}),
            weight=doc.get("weight", {}),
            graph=doc.get("graph", {}),
            diagnostics=doc.get("diagnostics", {}),
            budgets=doc.get("budgets", {}),
        )
        g = spec.graph
        if "spacing" in g and "eps" in g and g["eps"] < 3 * g["spacing"] - 1e-12:
            raise InputError(
                f"graph eps = {g['eps']} violates the constraint eps >= 3 * spacing "
                f"= {3 * g['spacing']}"
            )
        return spec

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "manifold": self.manifold,
            "weight": self.weight,
            "graph": self.graph,
            "diagnostics": self.diagnostics,
            "budgets": self.budgets,
        }


def build_manifold(desc: dict) -> Manifold:
    kind = desc.get("kind", "torus")
    if kind == "torus":
        dim = int(desc.get("dim", 2))
        return Manifold.torus(dim, desc.get("periods"))
    if kind == "box":
        return Manifold.box(desc["extents"])
    if kind == "sphere":
        return Manifold.sphere(int(desc.get("dim", 2)), float(desc.get("radius", 1.0)))
    raise InputError(f"unknown manifold kind {kind!r}")


def build_weight(desc: dict) -> wt.WeightField:
    kind = desc.get("kind", "constant")
    if kind == "constant":
        return wt.Constant(float(desc.get("value", 0.0)))
    if kind == "burago":
        return wt.BuragoTorus(int(desc.get("ell", 1)))
    if kind == "log-cusp":
        cap = desc.get("cap")
        return wt.LogCusp(
            tuple(desc["x0"]), float(desc.get("r0", 1.0)), None if cap is None else float(cap)
        )
    if kind == "sphere-bubble":
        return wt.SphereBubble(float(desc.get("lam", 1.0)), desc.get("pole"))
    if kind == "scaled":
        return wt.Scaled(build_weight(desc["base"]), float(desc["shift"]))
    if kind == "grid":
        grid = wt.read_grid(desc["path"])
        return wt.GridWeight(grid, int(desc.get("order", 1)))
    raise InputError(f"unknown weight kind {kind!r}")


# ---------------------------------------------------------------------------
# shared analysis operations
# ---------------------------------------------------------------------------


def converge_compare(matrices, labels=None) -> dict:
    """sup |d_k - d_{k+1}| over aligned entries, with a fitted decay rate."""
    if len(matrices) < 2:
        raise InputError("converge_compare needs at least two matrices")
    base = matrices[0]
    for dm in matrices[1:]:
        if dm.values.shape != base.values.shape or not np.array_equal(dm.sources, base.sources):
            raise InputError("converge_compare needs matrices over aligned index sets")
    sups = [
        float(np.max(np.abs(matrices[k].values - matrices[k + 1].values)))
        for k in range(len(matrices) - 1)
    ]
    ratios = [sups[k + 1] / sups[k] if sups[k] > 0 else 0.0 for k in range(len(sups) - 1)]
    rate = float(np.exp(np.mean(np.log([r for r in ratios if r > 0])))) if any(
        r > 0 for r in ratios
    ) else 0.0
    return {
        "labels": list(labels) if labels is not None else list(range(len(matrices))),
        "sup_diffs": sups,
        "ratios": ratios,
        "geometric_rate": rate,
    }


def weak_star_test(
    m: Manifold, fields, testfns, budget: int = 200_000, seed: int = 0
) -> list:
    """Table of int phi e^{nf} dmu0 per (field, test function).

    Test functions come from the built-in dictionary: "1", ("cos", k-vector),
    ("bump", x0, r).
    """
    from .manifold import sample_manifold, d0_many

    pts, w = sample_manifold(m, budget, seed)
    rows = []
    for fi, (flabel, field) in enumerate(fields):
        dens = np.exp(m.dim * field.eval_many(m, pts))
        for tf in testfns:
            if tf == "1" or tf == 1:
                vals = np.ones(budget)
                tlabel = "1"
            elif tf[0] == "cos":
                k = np.asarray(tf[1], dtype=float)
                vals = np.cos(pts @ k)
                tlabel = f"cos({','.join(f'{v:g}' for v in k)})"
            elif tf[0] == "bump":
                x0 = np.asarray(tf[1], dtype=float)
                r = float(tf[2])
                vals = sc.bump(d0_many(m, pts, x0) / r)
                tlabel = f"bump(r={r:g})"
            else:
                raise InputError(f"unknown test function {tf!r}")
            prod = vals * dens
            est = float(w.sum() * prod.mean())
            se = float(w.sum() * prod.std(ddof=1) / np.sqrt(budget))
            rows.append({"field": flabel, "testfn": tlabel, "value": est, "stderr": se})
    return rows


def _flag(flags: list, cid: str, ok: bool, value, threshold: str):
    flags.append(
        {
            "criterion": cid,
            "pass": bool(ok),
            "value": value if isinstance(value, str) else float(value),
            "threshold": threshold,
        }
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_flat_identity(spec: ExperimentSpec, outdir: Path):
    """d_f == d0 for the trivial weight, plus scaling exactness and the
    constant-weight diagnostics oracles (criteria 1, 2, 10, 11)."""
    g = spec.graph
    spacing = float(g.get("spacing", 0.05))
    eps = float(g.get("eps", 0.15))
    schedule = [float(e) for e in g.get("eps_schedule", (0.3, 0.15, 0.075))]
    n_pairs = int(g.get("pairs", 50))
    seed = spec.seed
    m = build_manifold(spec.manifold or {"kind": "torus", "dim": 2})
    zero = wt.Constant(0.0)
    flags = []
    report = {}

    pts = lattice(m, spacing, cover=True)
    graph = mt.build_graph(m, pts, eps, zero, mt.RiemannLine(int(g.get("K", 5))), seed=seed)
    rng = derive_rng(seed, "pairs")
    src = rng.choice(len(pts), size=min(10, len(pts)), replace=False)
    dmat = mt.shortest_paths(graph, src)
    pair_rows = []
    worst = 0.0
    from .manifold import d0_many

    for k in range(n_pairs):
        i = int(src[k % src.size])
        j = int(rng.integers(0, len(pts)))
        dd0 = float(d0_many(m, pts.points[i], pts.points[j]))
        if dd0 < 4 * spacing:
            continue
        df = dmat.get(i, j)
        rel = abs(df - dd0) / dd0
        worst = max(worst, rel)
        pair_rows.append((i, j, dd0, df, rel))
    _flag(flags, "C1-pairs", worst <= 0.03, worst, "max |d_f - d0|/d0 <= 3%")
    report["pair_table"] = [list(map(float, r)) for r in pair_rows]

    ref_pairs = [(pts.points[i], pts.points[j]) for i, j, *_ in pair_rows[: int(g.get("refine_pairs", 50))]]
    refined = mt.refine_distance(m, zero, ref_pairs, schedule, seed=seed)
    rel_ex = np.abs(refined.extrapolated - refined.pair_d0) / refined.pair_d0
    _flag(
        flags,
        "C1-extrapolated",
        float(rel_ex.max()) <= 0.005,
        float(rel_ex.max()),
        "extrapolated |d_f - d0|/d0 <= 0.5%",
    )
    report["refine"] = {
        "eps_schedule": refined.eps_schedule.tolist(),
        "observed_q": refined.observed_q.tolist(),
        "max_rel_error": float(rel_ex.max()),
    }

    # scaling exactness on a reduced instance (distances and diagnostics)
    shift = 0.7
    small = lattice(m, 0.12)
    g0 = mt.build_graph(m, small, 3 * small.spacing, zero, seed=seed)
    gs = g0.reweight(m, wt.Scaled(zero, shift), 256, seed)
    idx = derive_rng(seed, "scale").choice(len(small), 6, replace=False)
    d_a = mt.shortest_paths(g0, idx).values
    d_b = mt.shortest_paths(gs, idx).values
    off = d_a > 0
    dist_dev = float(np.max(np.abs(d_b[off] / d_a[off] / np.exp(shift) - 1.0)))
    _flag(flags, "C2-distances", dist_dev <= 1e-10, dist_dev, "e^c scaling to 1e-10")

    smp = dg.BallSampler(lattice(m, 2.5), (0.4, 0.8), seed=seed)
    devs = []
    base_field, shift_field = zero, wt.Scaled(zero, shift)
    for fn in (
        lambda f: dg.reverse_holder(m, f, 2.0, smp, 20_000),
        lambda f: dg.ap_product(m, f, 2.0, smp, 20_000),
        lambda f: dg.doubling_constant(m, f, smp, 20_000),
    ):
        devs.append(abs(fn(shift_field) / fn(base_field) - 1.0))
    near = d0_many(m, small.points, small.points[int(idx[0])])
    targets = np.nonzero((near > 0.25) & (near <= 0.9))[0][::7][:5]
    sr_pairs = [(int(idx[0]), int(j)) for j in targets]
    sr_a = dg.strong_ratio(m, base_field, small, mt.shortest_paths(g0, idx), sr_pairs,
                           eta=1.0, budget=20_000, seed=seed)
    sr_b = dg.strong_ratio(m, shift_field, small, mt.shortest_paths(gs, idx), sr_pairs,
                           eta=1.0, budget=20_000, seed=seed)
    devs.append(abs(sr_b.theta_strong / sr_a.theta_strong - 1.0))
    doms = [BallSpec(m.canonicalize(np.full(m.dim, 3.0)), r) for r in (0.4, 0.8)]
    iso_a = dg.isoperimetric_ratio(m, base_field, doms, seed=seed)
    iso_b = dg.isoperimetric_ratio(m, shift_field, doms, seed=seed)
    devs.append(abs(iso_b.inf_ratio / iso_a.inf_ratio - 1.0))
    _flag(
        flags,
        "C2-diagnostics",
        max(devs) <= 1e-10,
        max(devs),
        "diagnostics invariant under constant shift to 1e-10",
    )

    # constant-weight diagnostics oracles and flat isoperimetric discs
    c_rh = dg.reverse_holder(m, wt.Constant(0.4), 2.0, smp, 40_000)
    c_ap = dg.ap_product(m, wt.Constant(0.4), 2.0, smp, 40_000)
    dev = max(abs(c_rh - 1), abs(c_ap - 1))
    _flag(flags, "C11-constant", dev <= 0.02, dev, "constant-weight constants = 1 +- 2%")
    iso_flat = dg.isoperimetric_ratio(
        m, zero, [BallSpec(m.canonicalize(np.full(m.dim, 3.0)), r) for r in (0.3, 0.6, 1.0)], seed=seed
    )
    iso_dev = abs(iso_flat.inf_ratio / (2 * sqrt(pi)) - 1.0)
    _flag(flags, "C10-flat-discs", iso_dev <= 0.02, iso_dev, "flat disc ratio = 2 sqrt(pi) +- 2%")
    report["iso_flat"] = iso_flat.table

    dmat.write_csv(outdir / "flat_identity_distances.csv")
    return report, flags


def run_sphere_bubble(spec: ExperimentSpec, outdir: Path):
    """Dilation family on the sphere: constant curvature, conserved mass,
    curvature concentration toward the critical level (criteria 3, 4)."""
    m = build_manifold(spec.manifold or {"kind": "sphere", "dim": 3})
    lams = [float(v) for v in spec.weight.get("lams", (1.0, 2.0, 10.0, 100.0))]
    R0 = float(spec.diagnostics.get("R0", 0.5))
    n_samples = int(spec.budgets.get("curvature_samples", 1000))
    seed = spec.seed
    flags = []
    report = {"lams": lams}

    from .manifold import sample_manifold

    pts, _ = sample_manifold(m, n_samples, seed=derive_seed(seed, "scal"))
    worst_scal = 0.0
    mass_dev = 0.0
    target = m.dim * (m.dim - 1) / m.radius**2
    masses = []
    for lam in lams:
        f = wt.SphereBubble(lam)
        s = scalar_curvature_many(m, f, pts)
        worst_scal = max(worst_scal, float(np.max(np.abs(s / target - 1.0))))
        mass, _ = wt.total_mass(m, f)
        masses.append(mass)
    mass_dev = float(np.max(np.abs(np.asarray(masses) / m.volume - 1.0)))
    _flag(flags, "C3-curvature", worst_scal <= 1e-6, worst_scal, "|scal - n(n-1)|/n(n-1) <= 1e-6")
    _flag(flags, "C3-mass", mass_dev <= 0.01, mass_dev, "total mass conserved to 1%")
    report["masses"] = masses

    centers = lattice(m, float(spec.graph.get("center_spacing", 0.7)))
    south = np.zeros(m.dim + 1)
    south[-1] = -1.0
    centers = PointSet(
        points=np.vstack([centers.points, south[None, :]]), spacing=centers.spacing
    )
    sup_pos = []
    for lam in lams:
        rep = pinching_profile(m, wt.SphereBubble(lam), R0, centers, seed=seed)
        sup_pos.append(rep.sup_pos)
    alpha = alpha_n2(m.dim)
    final = sup_pos[-1] / alpha
    _flag(
        flags,
        "C4-concentration",
        0.95 <= final <= 1.01,
        final,
        "sup_pos at the largest dilation within [0.95, 1.01] of the critical level",
    )
    mono = bool(np.all(np.diff(sup_pos) > 0))
    _flag(flags, "C4-monotone", mono, "increasing" if mono else "not-monotone", "sup_pos increasing in lam")
    report["pinching_sup_pos"] = sup_pos
    report["alpha_n2"] = alpha
    (outdir / "bubble_pinching.csv").write_text(
        "lam,sup_pos,alpha_ratio\n"
        + "\n".join(f"{l},{s},{s / alpha}" for l, s in zip(lams, sup_pos))
    )
    return report, flags


def run_log_cusp(spec: ExperimentSpec, outdir: Path):
    """Capped cusp weights against the singular one: distance convergence and
    the uniform bi-Hölder witness (criterion 8)."""
    m = build_manifold(spec.manifold or {"kind": "torus", "dim": 2})
    wdesc = spec.weight
    x0 = tuple(wdesc.get("x0", (pi + 0.037, pi - 0.051)))
    r0 = float(wdesc.get("r0", 0.75))
    caps = [float(c) for c in wdesc.get("caps", (2.0, 4.0, 8.0))]
    spacing = float(spec.graph.get("spacing", 0.08))
    seed = spec.seed
    flags = []
    report = {"caps": caps, "r0": r0}

    pts = lattice(m, spacing)
    eps = 3 * pts.spacing
    rng = derive_rng(seed, "cusp-nodes")
    from .manifold import d0_many

    x0a = np.asarray(x0)
    idx = list(rng.choice(len(pts), 10, replace=False))
    for dx in (0.6, 1.0, 1.6):
        for sgn in (-1.0, 1.0):
            p = m.canonicalize(x0a + np.array([sgn * dx, 0.02]))
            idx.append(int(np.argmin(d0_many(m, pts.points, p))))
    idx = np.unique(np.asarray(idx))

    mats = []
    labels = caps + ["inf"]
    base_graph = None
    for cap in caps + [None]:
        f = wt.LogCusp(x0, r0, cap)
        if base_graph is None:
            base_graph = mt.build_graph(m, pts, eps, f, seed=seed)
            gcap = base_graph
        else:
            gcap = base_graph.reweight(m, f, 256, seed)
        mats.append(mt.shortest_paths(gcap, idx))
    d_inf = mats[-1]
    sup_diff = [float(np.max(np.abs(dm.values - d_inf.values))) for dm in mats[:-1]]
    decreasing = bool(np.all(np.diff(sup_diff) <= 1e-12))
    flat_diam = m.max_distance
    _flag(flags, "C8-monotone", decreasing, str(sup_diff), "sup |d_k - d_inf| decreasing in cap")
    _flag(
        flags,
        "C8-final",
        sup_diff[-1] <= 0.02 * flat_diam,
        sup_diff[-1] / flat_diam,
        "final gap <= 2% of the flat diameter",
    )
    report["sup_diff_vs_uncapped"] = sup_diff
    report["converge"] = converge_compare(mats, labels=[str(l) for l in labels])

    d0m = dg.d0_matrix(m, pts, idx)
    sq = [np.nonzero(idx == s)[0][0] for s in idx]
    alpha_lows = []
    for dm, cap in zip(mats, labels):
        sub = mt.DistanceMatrix(
            sources=idx, targets=idx, values=dm.values[:, idx], provenance={"dim": m.dim}
        )
        sub0 = mt.DistanceMatrix(
            sources=idx, targets=idx, values=d0m.values[:, idx], provenance={"dim": m.dim}
        )
        cap_field = wt.LogCusp(x0, r0, None if cap == "inf" else float(cap))
        mass, _ = wt.total_mass(m, cap_field, seed=derive_seed(seed, "mass"))
        fit = dg.biholder_fit(sub, sub0, mass)
        alpha_lows.append(fit.alpha_low)
    _flag(
        flags,
        "C8-biholder",
        min(alpha_lows) >= 0.5,
        min(alpha_lows),
        "bi-Hölder alpha_low >= 0.5 across caps",
    )
    report["alpha_lows"] = alpha_lows
    mats[-1].write_csv(outdir / "logcusp_distances_uncapped.csv")
    return report, flags


def run_burago(spec: ExperimentSpec, outdir: Path):
    """Oscillating torus family: stable norms, distance convergence in the
    frequency, uniform weight constants, isoperimetry (criteria 5, 6, 7, 10, 11)."""
    m = build_manifold(spec.manifold or {"kind": "torus", "dim": 2})
    seed = spec.seed
    flags = []
    report = {}
    P = float(m.periods[0])
    from .manifold import d0_many

    # stable norms at ell = 1
    sn_spacing = float(spec.graph.get("stable_spacing", 0.1))
    t_list = [P, 2 * P, 3 * P]
    bur1 = wt.BuragoTorus(1)
    t_sn = time.time()
    r_e2 = mt.stable_norm(m, bur1, [0.0, 1.0], t_list, spacing=sn_spacing)
    r_e1 = mt.stable_norm(m, bur1, [1.0, 0.0], t_list, spacing=sn_spacing)
    sn_seconds = time.time() - t_sn
    oracle_e1 = quad(lambda t: np.sqrt(1 - 0.5 * np.cos(t)), 0, 2 * pi)[0] / (2 * pi)
    dev_e2 = abs(r_e2.estimate * sqrt(2.0) - 1.0)
    dev_e1 = abs(r_e1.estimate / oracle_e1 - 1.0)
    _flag(flags, "C5-e2", dev_e2 <= 0.01, dev_e2, "stable norm e2 = 2^{-1/2} +- 1%")
    _flag(flags, "C5-e1", dev_e1 <= 0.01, dev_e1, "stable norm e1 = loop quadrature +- 1%")
    report["stable_norm"] = {
        "e2": r_e2.estimate,
        "e1": r_e1.estimate,
        "oracle_e1": oracle_e1,
        "corridor_check": (r_e2.corridor_check, r_e1.corridor_check),
    }
    report["_timing_stable_norm"] = sn_seconds
    # the valley line x1 = 0 persists at every frequency, so the valley-
    # direction norm is 2^{-1/2} for the whole sweep
    sweep = {}
    for ell in (1, 2, 4, 8):
        r = mt.stable_norm(
            m, wt.BuragoTorus(ell), [0.0, 1.0], [P, 2 * P], spacing=sn_spacing,
            check_corridor=False,
        )
        sweep[str(ell)] = r.estimate
    report["stable_norm_e2_by_ell"] = sweep

    # frequency convergence: d_ell for ell in {2, 4, 8}
    spacing = float(spec.graph.get("spacing", 0.06))
    pts = lattice(m, spacing)
    eps = 3 * pts.spacing
    rng = derive_rng(seed, "bur-nodes")
    idx = np.unique(rng.choice(len(pts), 12, replace=False))
    mats = []
    base = None
    for ell in (2, 4, 8):
        f = wt.BuragoTorus(ell)
        if base is None:
            base = mt.build_graph(m, pts, eps, f, seed=seed)
            gg = base
        else:
            gg = base.reweight(m, f, 256, seed)
        mats.append(mt.shortest_paths(gg, idx))
    comp = converge_compare(mats, labels=["2", "4", "8"])
    ratio = comp["ratios"][0] if comp["ratios"] else float("nan")
    _flag(flags, "C6-rate", ratio <= 0.65, ratio, "successive sup-difference ratio <= 0.65")
    report["frequency_convergence"] = comp

    budget_ws = int(spec.budgets.get("weak_star", 400_000))
    rows = weak_star_test(
        m,
        [(f"ell={l}", wt.BuragoTorus(l)) for l in (1, 2, 4)],
        ["1", ("cos", [1.0, 0.0])],
        budget=budget_ws,
        seed=seed,
    )
    report["weak_star"] = rows
    ok_ws = True
    for row in rows:
        if row["testfn"].startswith("cos"):
            targ = -(pi**2) if row["field"] == "ell=1" else 0.0
            ok_ws &= abs(row["value"] - targ) <= 3 * row["stderr"]
        else:
            ok_ws &= abs(row["value"] - m.volume) <= 3 * row["stderr"]
    _flag(flags, "C6-weak-star", ok_ws, "table", "weak-* integrals match within 3 sigma")

    # uniform A_p across frequencies: radii scaled with the oscillation
    budget_ball = int(spec.budgets.get("ball", 60_000))
    centers = lattice(m, 2.0)
    c_aps = []
    for ell in (1, 2, 4, 8):
        radii = (2 * pi / ell * 0.5, 2 * pi / ell, m.max_distance * (1 + 1e-9))
        smp = dg.BallSampler(centers, radii, seed=derive_seed(seed, "ap", ell))
        c_aps.append(dg.ap_product(m, wt.BuragoTorus(ell), 2.0, smp, budget_ball))
    spread_ap = (max(c_aps) - min(c_aps)) / min(c_aps)
    _flag(flags, "C7-ap", spread_ap <= 0.05, spread_ap, "C_ap(p=2) within 5% across ell")
    report["c_ap_by_ell"] = c_aps

    # strong ratios across ell = 1..16, at the family's own scale: pair
    # distances, the radius cap eta and the lattice resolution all shrink
    # like 1/ell, so every frequency is probed in the same relative
    # configuration (the substitution xi = ell * x1 maps them onto each
    # other) and the uniformity of the family becomes measurable
    base_spacing = float(spec.graph.get("strong_spacing", 0.3))
    base_dists = spec.graph.get("strong_distances", (2.4, 3.2, 4.0))
    ells = list(spec.graph.get("strong_ells", range(1, 17)))
    anchors = np.array([[0.0, 0.0], [pi / 2, 0.7], [pi, 1.9], [3 * pi / 2, 3.1]])
    angles = np.array([0.0, pi / 6, pi / 3, pi / 2, 3 * pi / 4])
    thetas = []
    for ell in ells:
        f = wt.BuragoTorus(ell)
        spts = lattice(m, base_spacing / ell)
        sg = mt.build_graph(m, spts, 3 * spts.spacing, f, seed=seed)
        src, pairs = [], []
        for a in anchors / ell:
            i = int(np.argmin(d0_many(m, spts.points, a)))
            src.append(i)
            for rr in base_dists:
                for ang in angles:
                    target = m.canonicalize(
                        spts.points[i] + rr / ell * np.array([np.cos(ang), np.sin(ang)])
                    )
                    pairs.append((i, int(np.argmin(d0_many(m, spts.points, target)))))
        sdm = mt.shortest_paths(sg, np.unique(src))
        sr = dg.strong_ratio(
            m, f, spts, sdm, pairs, eta=1.05 * max(base_dists) / ell,
            budget=int(spec.budgets.get("strong", 20_000)),
            seed=derive_seed(seed, "sr", ell),
        )
        thetas.append(sr.theta_strong)
    spread_th = (max(thetas) - min(thetas)) / min(thetas)
    _flag(flags, "C7-strong", spread_th <= 0.10, spread_th,
          "theta_strong within 10% across ell at matched scale")
    report["theta_strong_by_ell"] = thetas

    # diagnostics oracles on the full torus
    full = whole_manifold_ball(m)
    smp_full = dg.BallSampler(
        PointSet(points=np.asarray(full.center)[None, :], spacing=1.0),
        (full.radius,),
        seed=derive_seed(seed, "full"),
    )
    budget_full = int(spec.budgets.get("full_torus", 200_000))
    c_rh = dg.reverse_holder(m, bur1, 2.0, smp_full, budget_full)
    c_ap = dg.ap_product(m, bur1, 2.0, smp_full, budget_full)
    dev_rh = abs(c_rh / sqrt(1.125) - 1.0)
    dev_ap = abs(c_ap / (2.0 / sqrt(3.0)) - 1.0)
    _flag(flags, "C11-burago", max(dev_rh, dev_ap) <= 0.02, max(dev_rh, dev_ap),
          "full-torus reverse Hölder and A_p match closed forms +- 2%")
    report["oracles"] = {"C_rh": c_rh, "C_ap": c_ap}

    # isoperimetric discs for the oscillating weight
    doms = [BallSpec(m.canonicalize(np.full(m.dim, 3.0)), r) for r in (0.3, 0.6, 1.0)]
    iso = dg.isoperimetric_ratio(m, bur1, doms, seed=seed)
    envelope = 2 * sqrt(pi) * sqrt(0.5) / sqrt(1.5)
    ok_iso = iso.inf_ratio >= envelope and iso.inf_ratio >= 0.5 * 2 * sqrt(pi)
    _flag(flags, "C10-burago", ok_iso, iso.inf_ratio,
          f"disc ratios above the envelope bound {envelope:.4f} and 50% of flat")
    report["iso"] = iso.table
    mats[0].write_csv(outdir / "burago_distances_ell2.csv")
    (outdir / "burago_stable_norm.csv").write_text(
        "direction,ell,estimate\n"
        + f"e1,1,{r_e1.estimate}\n"
        + "".join(f"e2,{l},{v}\n" for l, v in sweep.items())
    )
    return report, flags


def run_schrodinger(spec: ExperimentSpec, outdir: Path):
    """Grid operator suite: eigenvalue laws, dense oracle, shift bracket,
    fixed point, decomposition (criterion 9)."""
    L = float(spec.manifold.get("periods", [2.2])[0]) if spec.manifold else 2.2
    m = Manifold.torus(3, [L, L, L])
    shape = tuple(spec.budgets.get("shape", (12, 12, 12)))
    seed = spec.seed
    geom = sc.GridGeometry(m, shape)
    x = geom.nodes()
    flags = []
    report = {"shape": list(shape), "period": L}

    s0 = sc.lowest_eigenpair(sc.GridOperator(geom, np.zeros(x.shape[0])))
    _flag(flags, "C9-zero", abs(s0.lambda0) <= 1e-10, abs(s0.lambda0), "lambda0(0) = 0 +- 1e-10")
    cshift = 0.41
    sc_const = sc.lowest_eigenpair(sc.GridOperator(geom, np.full(x.shape[0], cshift)))
    _flag(flags, "C9-shift", abs(sc_const.lambda0 + cshift) <= 1e-8,
          abs(sc_const.lambda0 + cshift), "lambda0(c) = -c +- 1e-8")

    V = 0.15 * np.cos(2 * pi * x[:, 0] / L)
    op = sc.GridOperator(geom, V)
    s = sc.lowest_eigenpair(op)
    dense = np.linalg.eigvalsh(op.as_sparse().toarray())[0]
    _flag(flags, "C9-dense", abs(s.lambda0 - dense) <= 1e-8, abs(s.lambda0 - dense),
          "iterative matches dense oracle +- 1e-8")

    beta = sc.estimate_sobolev_constant(geom)
    a_est = sc.estimate_grad_inv_constant(geom)
    report["beta_est"] = beta
    report["a_est"] = a_est
    from .manifold import d0_many

    c0 = np.asarray([L / 2] * 3)
    r0 = 0.8
    qq = 0.04 * np.exp(-(d0_many(m, x, c0) ** 2)) * geom.ball_mask(c0, r0)
    shift = sc.gs_shift_c0(geom, qq, c0, r0, beta_est=beta, tol=1e-8)
    # judged by a cold solve at c0, not the root finder's own last value
    outside = ~geom.ball_mask(c0, r0)
    cold = sc.lowest_eigenpair(sc.GridOperator(geom, -(qq + shift.c0 * outside)), tol=1e-11)
    ok_shift = (
        shift.bracket[0] - 1e-12 <= shift.c0 <= shift.bracket[1] + 1e-12
        and abs(cold.lambda0) <= 1e-8
    )
    _flag(flags, "C9-shift-c0", ok_shift, abs(cold.lambda0),
          "c0 inside the bracket with a cold |lambda0(c0)| <= 1e-8")
    report["gs_shift"] = {"c0": shift.c0, "bracket": list(shift.bracket)}

    Vs = 0.02 * np.cos(2 * pi * x[:, 0] / L) * np.cos(2 * pi * x[:, 1] / L)
    opf = sc.GridOperator(geom, Vs)
    fp = sc.log_gradient_fixedpoint(opf, a_est=a_est)
    eig = sc.lowest_eigenpair(opf, tol=1e-12)
    ratio = np.exp(fp.v) / eig.phi
    fp_ok = (
        fp.residual_n2 <= 1e-6
        and fp.dv_norm <= fp.v_norm_bound
        and float(ratio.max() / ratio.min() - 1.0) <= 1e-6
    )
    _flag(flags, "C9-fixed-point", fp_ok,
          float(ratio.max() / ratio.min() - 1.0),
          "residual <= 1e-6, gradient bound, e^v matches the eigen ground state to 1e-6")
    report["fixed_point"] = {
        "iterations": fp.iterations,
        "residual_n2": fp.residual_n2,
        "dv_norm": fp.dv_norm,
        "bound": fp.v_norm_bound,
        "c_vs_lambda0": abs(fp.c - eig.lambda0),
    }

    rho = float(spec.diagnostics.get("rho", 0.8))
    dshape = tuple(spec.budgets.get("decomp_shape", (10, 10, 10)))
    dgeom = sc.GridGeometry(m, dshape)
    dx = dgeom.nodes()
    Vd = 0.01 * np.cos(2 * pi * dx[:, 0] / L) * np.sin(2 * pi * dx[:, 1] / L)
    dop = sc.GridOperator(dgeom, Vd)
    dbeta = sc.estimate_sobolev_constant(dgeom)
    da = sc.estimate_grad_inv_constant(dgeom)
    dphi = sc.lowest_eigenpair(dop)
    dec = sc.decompose_ground_state(dop, rho, dphi.phi, beta_est=dbeta, a_est=da, seed=seed)
    _flag(flags, "C9-decomposition", dec.report["reconstruction_error"] <= 1e-8,
          dec.report["reconstruction_error"], "e^{f+w} = phi +- 1e-8")
    report["decomposition"] = {
        k: v for k, v in dec.report.items() if k != "shift_constants"
    }
    return report, flags


def run_custom(spec: ExperimentSpec, outdir: Path):
    """Free-form single pipeline: weight diagnostics on a user manifold."""
    m = build_manifold(spec.manifold)
    field = build_weight(spec.weight)
    seed = spec.seed
    eta = float(spec.diagnostics.get("eta", dg.default_eta(m)))
    centers = lattice(m, float(spec.graph.get("center_spacing", m.min_period / 3)))
    smp = dg.BallSampler(centers, (eta / 2, eta), seed=seed)
    rep = dg.ainfty_report(
        m,
        field,
        smp,
        q=float(spec.diagnostics.get("q", 2.0)),
        p=float(spec.diagnostics.get("p", 2.0)),
        budget=int(spec.budgets.get("ball", 20_000)),
    )
    mass, mass_se = wt.total_mass(m, field, int(spec.budgets.get("mass", 100_000)), seed)
    return {"ainfty": rep.to_dict(), "total_mass": mass, "total_mass_se": mass_se}, []


_RUNNERS = {
    "flat-identity": run_flat_identity,
    "sphere-bubble": run_sphere_bubble,
    "log-cusp": run_log_cusp,
    "burago": run_burago,
    "schrodinger": run_schrodinger,
    "custom": run_custom,
}


@dataclass
class RunReport:
    spec: dict
    stages: dict
    flags: list
    passed: bool
    timings: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "spec": self.spec,
                "stages": self.stages,
                "flags": self.flags,
                "passed": self.passed,
            },
            sort_keys=True,
            indent=2,
            default=_json_default,
        )


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def run(spec: ExperimentSpec) -> RunReport:
    """Run one experiment spec; write report.json, timings.json and artifacts.

    A stage error is recorded in the report (later stages are skipped) and
    re-raised so the caller sees the categorized exit code (3 for LinAlgError,
    4 for MemoryError).
    """
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    error = None
    try:
        try:
            report, flags = _RUNNERS[spec.name](spec, outdir)
        except (np.linalg.LinAlgError, MemoryError) as exc:
            kind = ResourceError if isinstance(exc, MemoryError) else NumericError
            raise kind(f"{type(exc).__name__}: {exc}") from exc
    except ConflabError as exc:
        report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        flags = []
        error = exc
    elapsed = time.time() - t0
    # wall-clock numbers go to a separate file so report.json stays
    # bit-identical across runs of the same spec
    timings = {"wall_seconds": elapsed}
    for key in [k for k in report if k.startswith("_timing")]:
        timings[key.removeprefix("_timing_")] = report.pop(key)
    passed = error is None and (all(f["pass"] for f in flags) if flags else True)
    rr = RunReport(spec=spec.to_dict(), stages=report, flags=flags, passed=passed)
    rr.timings = timings
    (outdir / "report.json").write_text(rr.to_json())
    (outdir / "timings.json").write_text(json.dumps(timings))
    if error is not None:
        raise error
    return rr
