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
from dataclasses import asdict, dataclass, field as dc_field, fields as dc_fields
from math import pi, sqrt
from pathlib import Path
from sys import float_info
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ellipe

from . import diagnostics as dg
from . import metric as mt
from . import schrodinger as sc
from . import weight as wt
from .curvature import alpha_n2, pinching_profile, scalar_curvature_many
from .errors import ConflabError, InputError, NumericError, ResourceError
from .manifold import (
    BallSpec,
    Manifold,
    PointSet,
    d0_many,
    float_array,
    grid_axes,
    lattice,
    sample_manifold,
    unit_ball_volume,
    whole_manifold_ball,
)
from .rng import derive_rng, derive_seed

# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


class SpecType(NamedTuple):
    """The type of a spec value: test(value) says whether a JSON value is
    one (a descriptor's test raises InputError naming the entry at fault),
    convert(value) gives the value a run uses, and what names the type in
    errors."""

    test: Callable
    convert: Callable
    what: str


def _is_number(v) -> bool:
    """An int or float (not a bool) that is a finite float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= float_info.max


def _list_of(item: SpecType, what: str) -> SpecType:
    """A non-empty list of items, converted to a tuple."""
    return SpecType(lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(item.test, v)),
                    lambda v: tuple(map(item.convert, v)), what)


def _or_null(t: SpecType) -> SpecType:
    """t, or null for the builder's default (a default of None)."""
    return SpecType(lambda v: v is None or t.test(v),
                    lambda v: None if v is None else t.convert(v), f"{t.what} or null")


INTEGER = SpecType(lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()), int, "an integer")
NUMBER = SpecType(_is_number, float, "a finite number")
NUMBERS = _list_of(NUMBER, "a non-empty list of finite numbers")
INTEGERS = _list_of(INTEGER, "a non-empty list of integers")
_PAIR = SpecType(lambda v: NUMBERS.test(v) and len(v) == 2, NUMBERS.convert, "a [lo, hi] pair")
EXTENTS = _list_of(_PAIR, "a list of [lo, hi] pairs of finite numbers")
STRING = SpecType(lambda v: isinstance(v, str), str, "a string")
OBJECT = SpecType(lambda v: isinstance(v, dict), dict, "an object")
WEIGHT = SpecType(lambda v: bool(_descriptor(v, _WEIGHTS, "weight")), dict, "a weight descriptor")


def setting_type(default) -> SpecType:
    """The type of a setting with this SETTINGS default: an integer for an
    int, a finite number for a float or None, and a non-empty list of
    integers or of finite numbers for a tuple of them."""
    if isinstance(default, tuple):
        return INTEGERS if isinstance(default[0], int) else NUMBERS
    return INTEGER if isinstance(default, int) else NUMBER


# experiment -> spec section -> key -> default: the experiments, in
# EXPERIMENT_NAMES order, and the settings a spec may give, each of
# setting_type(default).  A key not declared here is an InputError.
# None is a default worked out from the manifold (run_custom).  The manifold
# of every experiment, and the weight of custom, are descriptors whose keys
# depend on their kind (_MANIFOLDS, _WEIGHTS).
SETTINGS = {
    "flat-identity": {
        "graph": {
            "spacing": 0.05,
            "eps": 0.15,
            "eps_schedule": (0.3, 0.15, 0.075),
            "pairs": 50,
            "refine_pairs": 50,
        },
    },
    "sphere-bubble": {
        "weight": {"lams": (1.0, 2.0, 10.0, 100.0)},
        "diagnostics": {"R0": 0.5},
        "budgets": {"curvature_samples": 1000},
    },
    "log-cusp": {
        "weight": {"r0": 0.75, "caps": (2.0, 4.0, 8.0)},
        "graph": {"spacing": 0.08},
    },
    "burago": {
        "graph": {"spacing": 0.06},
    },
    "schrodinger": {
        "budgets": {"shape": (12, 12, 12), "decomp_shape": (10, 10, 10)},
    },
    "custom": {
        "graph": {"center_spacing": None},  # a third of the least period
        "diagnostics": {"eta": None, "q": 2.0, "p": 2.0},  # eta: dg.default_eta
        "budgets": {"ball": 20_000, "mass": 100_000},
    },
}
EXPERIMENT_NAMES = tuple(SETTINGS)

# descriptor kind -> (its builder, the type of each key it takes besides
# "kind", the keys it needs); a key left out takes the builder's default,
# and a descriptor without a kind is of the first kind
_MANIFOLDS = {
    "torus": (Manifold.torus, {"dim": INTEGER, "periods": _or_null(NUMBERS)}, ()),
    "box": (Manifold.box, {"extents": EXTENTS}, ("extents",)),
    "sphere": (Manifold.sphere, {"dim": INTEGER, "radius": NUMBER}, ()),
}
_WEIGHTS = {
    "constant": (wt.Constant, {"value": NUMBER}, ()),
    "burago": (wt.BuragoTorus, {"ell": INTEGER}, ()),
    "log-cusp": (wt.LogCusp, {"x0": NUMBERS, "r0": NUMBER, "cap": _or_null(NUMBER)}, ("x0",)),
    "sphere-bubble": (wt.SphereBubble, {"lam": NUMBER, "pole": _or_null(NUMBERS)}, ()),
    "scaled": (lambda base, shift: wt.Sum((build_weight(base), wt.Constant(shift))),
               {"base": WEIGHT, "shift": NUMBER}, ("base", "shift")),
    "grid": (lambda path, **rest: wt.GridWeight(wt.read_grid(path), **rest),
             {"path": STRING, "order": INTEGER}, ("path",)),
}


def _entries(entries, types: dict, needed, what: str) -> dict:
    """entries, each converted by its type in types; InputError naming the
    key unless entries is an object that gives every needed key, no key
    types lacks, and values that pass their types' tests."""
    if not isinstance(entries, dict):
        raise InputError(f"{what} must be an object, got {type(entries).__name__}")
    for key in needed:
        if key not in entries:
            raise InputError(f"{what} needs the key {key!r}")
    unknown = set(entries) - set(types)
    if unknown:
        raise InputError(f"unknown keys {sorted(unknown)} in {what}; it takes {sorted(types)}")
    for key, value in entries.items():
        if not types[key].test(value):
            raise InputError(f"{what} entry {key!r} must be {types[key].what}, got {value!r}")
    return {key: types[key].convert(value) for key, value in entries.items()}


def _descriptor(desc, kinds: dict, what: str):
    """(builder, converted entries) of a manifold or weight descriptor: an
    object of a known kind whose other entries pass _entries, else
    InputError."""
    if not isinstance(desc, dict):  # a scaled weight's base
        raise InputError(f"a {what} descriptor must be an object, got {type(desc).__name__}")
    kind = desc.get("kind", next(iter(kinds)))
    if not isinstance(kind, str) or kind not in kinds:
        raise InputError(f"unknown {what} kind {kind!r}")
    builder, types, needed = kinds[kind]
    entries = {key: value for key, value in desc.items() if key != "kind"}
    return builder, _entries(entries, types, needed, f"the {kind} {what}")


def build_manifold(desc: dict) -> Manifold:
    """The manifold of a descriptor; InputError for one from_dict rejects."""
    builder, entries = _descriptor(desc, _MANIFOLDS, "manifold")
    return builder(**entries)


def build_weight(desc: dict) -> wt.WeightField:
    """The weight of a descriptor; InputError for one from_dict rejects."""
    builder, entries = _descriptor(desc, _WEIGHTS, "weight")
    return builder(**entries)


# the type of each spec field, by its annotation in ExperimentSpec
_FIELD_TYPES = {"str": STRING, "int": INTEGER, "dict": OBJECT}


@dataclass
class ExperimentSpec:
    name: str
    seed: int
    output_dir: str = "conflab-out"
    manifold: dict = dc_field(default_factory=dict)
    weight: dict = dc_field(default_factory=dict)
    graph: dict = dc_field(default_factory=dict)
    diagnostics: dict = dc_field(default_factory=dict)
    budgets: dict = dc_field(default_factory=dict)

    @staticmethod
    def from_dict(doc) -> "ExperimentSpec":
        """The spec of a JSON document; InputError naming the entry at fault
        unless every field, setting and descriptor entry has its type."""
        types = {f.name: _FIELD_TYPES[f.type] for f in dc_fields(ExperimentSpec)}
        spec = ExperimentSpec(**_entries(doc, types, ("name", "seed"), "the experiment spec"))
        if spec.name not in EXPERIMENT_NAMES:
            raise InputError(f"unknown experiment {spec.name!r}; expected one of {EXPERIMENT_NAMES}")
        _descriptor(spec.manifold, _MANIFOLDS, "manifold")
        sections = ["graph", "diagnostics", "budgets"]
        if spec.name == "custom":
            _descriptor(spec.weight, _WEIGHTS, "weight")
        else:
            sections.append("weight")
        for section in sections:
            spec._section(section)
        return spec

    def to_dict(self) -> dict:
        return asdict(self)

    def _section(self, section: str) -> dict:
        """The settings the spec gives in section, converted by their types."""
        declared = SETTINGS[self.name].get(section, {})
        types = {key: setting_type(default) for key, default in declared.items()}
        return _entries(getattr(self, section), types, (), f"the {self.name} {section}")

    def settings(self) -> dict:
        """section -> key -> value: the spec's settings, converted, over its
        experiment's SETTINGS defaults."""
        return {
            section: dict(defaults, **self._section(section))
            for section, defaults in SETTINGS[self.name].items()
        }


# ---------------------------------------------------------------------------
# shared analysis operations
# ---------------------------------------------------------------------------


def converge_compare(matrices, labels) -> dict:
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
        "labels": list(labels),
        "sup_diffs": sups,
        "ratios": ratios,
        "geometric_rate": rate,
    }


def _test_function(m: Manifold, tf):
    """(label, phi) of a built-in test function, phi its values at points."""
    if tf == "1" or tf == 1:
        return "1", lambda pts: np.ones(len(pts))
    if isinstance(tf, (tuple, list)) and len(tf) == 2 and tf[0] == "cos":
        k = float_array(tf[1], "cos test function wave vector")
        if k.shape != (m.ambient_dim,):
            raise InputError(f"cos test function needs a {m.ambient_dim}-vector k, got shape {k.shape}")
        return f"cos({','.join(f'{v:g}' for v in k)})", lambda pts: np.cos(pts @ k)
    raise InputError(f"unknown test function {tf!r}")


# node count of the weak-star rule's finer lattice: (2k)^n at most this
WEAK_STAR_NODES = 2**16


def weak_star_test(m: Manifold, fields, testfns) -> list:
    """Table of int phi e^{nf} dmu0 per (field, test function), on a torus.

    Test functions come from the built-in dictionary: "1" and ("cos",
    k-vector), each checked before any evaluation.  Each integral is the
    periodic tensor rule: vol(M) times ``_mc_integral``'s mean (so its
    non-finite policy) of phi times the field's ``weight_many`` over the k^n
    and the (2k)^n lattice nodes, with
    (2k)^n <= WEAK_STAR_NODES, exact for trigonometric polynomials of
    degree below k along each axis.  A row reports the finer value as
    ``value`` and the rule's ``error`` |I_2k - I_k| + 1e-12 int |g|.
    """
    for _, field in fields:
        field.validate(m)
    if m.kind != "torus":
        raise InputError(f"weak_star_test integrates over tori only, got a {m.kind}")
    phis = [_test_function(m, tf) for tf in testfns]
    k = int(WEAK_STAR_NODES ** (1 / m.dim) + 1e-9) // 2
    grids = [PointSet.grid(*grid_axes(m, (j,) * m.dim)).points for j in (k, 2 * k)]
    tests = [[phi(pts) for pts in grids] for _, phi in phis]
    rows = []
    for flabel, field in fields:
        dens = [field.weight_many(m, pts) for pts in grids]
        for (tlabel, _), vals in zip(phis, tests):
            what = f"nodes of {tlabel} e^(nf) for {flabel}"
            g = [v * d for v, d in zip(vals, dens)]
            coarse, fine = (wt._mc_integral(v, m.volume, what, 0.0)[0] for v in g)
            size = wt._mc_integral(np.abs(g[1]), m.volume, what, 0.0)[0]
            rows.append({"field": flabel, "testfn": tlabel, "value": fine,
                         "error": abs(fine - coarse) + 1e-12 * size})
    return rows


def _family_distances(m: Manifold, pts: PointSet, eps: float, fields, sources) -> list:
    """shortest_paths from sources under each field of a family, on one
    eps-graph: built for the first field and reweighted for each other."""
    graph = mt.build_graph(m, pts, eps, fields[0])
    mats = [mt.shortest_paths(graph, sources)]
    for field in fields[1:]:
        mats.append(mt.shortest_paths(graph.reweight(field), sources))
    return mats


def _flag(flags: list, cid: str, ok: bool, value, threshold: str):
    flags.append(
        {
            "criterion": cid,
            "pass": bool(ok),
            "value": value if isinstance(value, str) else float(value),
            "threshold": threshold,
        }
    )


def _using(entry: str, call, *args, **kwargs):
    """call(*args, **kwargs), whose InputError names the spec entry it uses."""
    try:
        return call(*args, **kwargs)
    except InputError as exc:
        raise InputError(f"{entry}: {exc}") from exc


def _require_nodes(pts: PointSet, count: int, spacing: float) -> None:
    """InputError unless the lattice at ``spacing`` has the ``count`` nodes
    a run draws from it as distinct sources."""
    if len(pts) < count:
        raise InputError(f"graph entry 'spacing' = {spacing} gives {len(pts)} lattice nodes, "
                         f"fewer than the {count} sources the run draws")


def _require_surface(m: Manifold, name: str) -> None:
    """InputError unless m is 2-dimensional: the experiment's probes (snap
    offsets, stable-norm directions, oracles) are written for n = 2."""
    if m.dim != 2:
        raise InputError(f"the {name} experiment needs a 2-dimensional manifold, got dim = {m.dim}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_flat_identity(spec: ExperimentSpec, outdir: Path):
    """d_f == d0 for the trivial weight, plus scaling exactness and the
    constant-weight diagnostics oracles (criteria 1, 2, 10, 11)."""
    g = spec.settings()["graph"]
    spacing = g["spacing"]
    seed = spec.seed
    m = build_manifold(spec.manifold)
    zero = wt.Constant(0.0)
    flags = []
    report = {}

    pts = lattice(m, spacing, cover=True)
    graph = _using("graph entry 'eps'", mt.build_graph, m, pts, g["eps"], zero)
    rng = derive_rng(seed, "pairs")
    src = rng.choice(len(pts), size=min(10, len(pts)), replace=False)
    dmat = mt.shortest_paths(graph, src)
    pair_rows = []
    for k in range(g["pairs"]):
        i = int(src[k % src.size])
        j = int(rng.integers(0, len(pts)))
        dd0 = float(d0_many(m, pts.points[i], pts.points[j]))
        if dd0 < 4 * spacing:
            continue
        df = dmat.get(i, j)
        pair_rows.append((i, j, dd0, df, abs(df - dd0) / dd0))
    if not pair_rows:
        raise InputError(f"graph entry 'pairs' = {g['pairs']} leaves no pair with d0 >= 4 * spacing for C1")
    # the verdict is over every target with d0 >= 4 spacing of the solved
    # rows; on a torus each row is a lattice translate of one, so over all
    # such pairs
    d0 = dg.d0_matrix(m, pts, src).values
    far = d0 >= 4 * spacing
    worst = float(np.max(np.abs(dmat.values[far] - d0[far]) / d0[far]))
    del d0, far  # not held through refine_distance
    _flag(flags, "C1-pairs", worst <= 0.03, worst, "max |d_f - d0|/d0 <= 3%")
    report["pair_table"] = [list(map(float, r)) for r in pair_rows]

    if g["refine_pairs"] < 1:
        raise InputError(f"graph entry 'refine_pairs' = {g['refine_pairs']} leaves no pair to refine")
    ref_pairs = [(pts.points[i], pts.points[j]) for i, j, *_ in pair_rows[: g["refine_pairs"]]]
    refined = _using("graph entry 'eps_schedule'", mt.refine_distance,
                     m, zero, ref_pairs, g["eps_schedule"])
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

    # scaling exactness on a reduced instance (distances and diagnostics),
    # never finer than the main lattice
    shift = 0.7
    base_field, shift_field = zero, wt.Sum((zero, wt.Constant(shift)))
    small = lattice(m, max(0.12, spacing))
    idx = derive_rng(seed, "scale").choice(len(small), 6, replace=False)
    dm_a, dm_b = _family_distances(m, small, 3 * small.spacing, [base_field, shift_field], idx)
    d_a, d_b = dm_a.values, dm_b.values
    off = d_a > 0
    dist_dev = float(np.max(np.abs(d_b[off] / d_a[off] / np.exp(shift) - 1.0)))
    _flag(flags, "C2-distances", dist_dev <= 1e-10, dist_dev, "e^c scaling to 1e-10")

    smp = dg.BallSampler(lattice(m, 2.5), (0.4, 0.8), seed=seed)
    devs = []
    for fn in (
        lambda f: dg.reverse_holder(m, f, 2.0, smp, 20_000),
        lambda f: dg.ap_product(m, f, 2.0, smp, 20_000),
        lambda f: dg.doubling_constant(m, f, smp, 20_000),
    ):
        devs.append(abs(fn(shift_field) / fn(base_field) - 1.0))
    near = d0_many(m, small.points, small.points[int(idx[0])])
    targets = np.nonzero((near > 0.25) & (near <= 0.9))[0][::7][:5]
    sr_pairs = [(int(idx[0]), int(j)) for j in targets]
    sr_a = dg.strong_ratio(m, base_field, small, dm_a, sr_pairs, eta=1.0, seed=seed)
    sr_b = dg.strong_ratio(m, shift_field, small, dm_b, sr_pairs, eta=1.0, seed=seed)
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
    # a flat ball's perimeter over volume^{(n-1)/n}: n omega_n^{1/n}, 2 sqrt(pi) at n = 2
    n = m.dim
    iso_dev = abs(iso_flat.inf_ratio / (n * unit_ball_volume(n) ** (1 / n)) - 1.0)
    iso_law = "2 sqrt(pi)" if n == 2 else f"{n} omega_{n}^(1/{n})"
    _flag(flags, "C10-flat-discs", iso_dev <= 0.02, iso_dev, f"flat disc ratio = {iso_law} +- 2%")
    report["iso_flat"] = iso_flat.table

    dmat.write_csv(outdir / "flat_identity_distances.csv")
    return report, flags


def run_sphere_bubble(spec: ExperimentSpec, outdir: Path):
    """Dilation family on the sphere: constant curvature, conserved mass,
    curvature concentration toward the critical level (criteria 3, 4)."""
    m = build_manifold(spec.manifold or {"kind": "sphere", "dim": 3})
    cfg = spec.settings()
    lams = cfg["weight"]["lams"]
    seed = spec.seed
    flags = []
    report = {"lams": lams}

    pts, _ = _using("budgets entry 'curvature_samples'", sample_manifold, m,
                    cfg["budgets"]["curvature_samples"], seed=derive_seed(seed, "scal"))
    worst_scal = 0.0
    target = m.dim * (m.dim - 1) / m.radius**2
    masses = []
    bubbles = [_using("weight entry 'lams'", wt.SphereBubble, lam) for lam in lams]
    for f in bubbles:
        s = scalar_curvature_many(m, f, pts)
        worst_scal = max(worst_scal, float(np.max(np.abs(s / target - 1.0))))
        mass, _ = wt.total_mass(m, f)
        masses.append(mass)
    mass_dev = float(np.max(np.abs(np.asarray(masses) / m.volume - 1.0)))
    _flag(flags, "C3-curvature", worst_scal <= 1e-6, worst_scal, "|scal - n(n-1)|/n(n-1) <= 1e-6")
    _flag(flags, "C3-mass", mass_dev <= 0.01, mass_dev, "total mass conserved to 1%")
    report["masses"] = masses

    centers = lattice(m, 0.7)
    south = np.zeros(m.dim + 1)
    south[-1] = -1.0
    centers = PointSet(
        points=np.vstack([centers.points, south[None, :]]), spacing=centers.spacing
    )
    sup_pos = []
    for f in bubbles:
        rep = _using("diagnostics entry 'R0'", pinching_profile, m, f, cfg["diagnostics"]["R0"],
                     centers, seed=seed)
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
    m = build_manifold(spec.manifold)
    _require_surface(m, "log-cusp")
    cfg = spec.settings()
    x0 = (pi + 0.037, pi - 0.051)
    r0, caps = cfg["weight"]["r0"], cfg["weight"]["caps"]
    seed = spec.seed
    flags = []
    report = {"caps": caps, "r0": r0}
    uncapped = _using("weight entry 'r0'", wt.LogCusp, x0, r0)
    cusps = [_using("weight entry 'caps'", wt.LogCusp, x0, r0, cap) for cap in caps] + [uncapped]
    # before the lattice and the snap offsets, which assume a flat chart
    _using("manifold or weight entry 'r0'", uncapped.validate, m)

    pts = lattice(m, cfg["graph"]["spacing"])
    eps = 3 * pts.spacing
    rng = derive_rng(seed, "cusp-nodes")

    x0a = np.asarray(x0)
    _require_nodes(pts, 10, cfg["graph"]["spacing"])
    idx = list(rng.choice(len(pts), 10, replace=False))
    for dx in (0.6, 1.0, 1.6):
        for sgn in (-1.0, 1.0):
            p = m.canonicalize(x0a + np.array([sgn * dx, 0.02]))
            idx.append(pts.nearest(m, p))
    idx = np.unique(np.asarray(idx))

    labels = [*caps, "inf"]
    mats = _family_distances(m, pts, eps, cusps, idx)
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
    sub0 = mt.DistanceMatrix(sources=idx, targets=idx, values=d0m.values[:, idx])
    alpha_lows = [
        dg.biholder_fit(mt.DistanceMatrix(sources=idx, targets=idx, values=dm.values[:, idx]), sub0)
        for dm in mats
    ]
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
    m = build_manifold(spec.manifold)
    _require_surface(m, "burago")
    seed = spec.seed
    flags = []
    report = {}
    P = float(m.periods[0])

    # stable norms at ell = 1
    t_list = [P, 2 * P, 3 * P]
    bur1 = wt.BuragoTorus(1)
    t_sn = time.time()
    r_e2 = mt.stable_norm(m, bur1, [0.0, 1.0], t_list)
    r_e1 = mt.stable_norm(m, bur1, [1.0, 0.0], t_list)
    sn_seconds = time.time() - t_sn
    # the loop mean of e^f = sqrt(1 - cos(t)/2) over one period: with
    # 1 - cos(t)/2 = (3/2)(1 - (2/3)cos^2(t/2)) it is (2/pi) sqrt(3/2) E(2/3)
    oracle_e1 = float(2 / pi * sqrt(1.5) * ellipe(2 / 3))
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
        r = mt.stable_norm(m, wt.BuragoTorus(ell), [0.0, 1.0], [P, 2 * P], check_corridor=False)
        sweep[str(ell)] = r.estimate
    report["stable_norm_e2_by_ell"] = sweep

    # frequency convergence: d_ell for ell in {2, 4, 8}
    spacing = spec.settings()["graph"]["spacing"]
    pts = lattice(m, spacing)
    eps = 3 * pts.spacing
    # sources: every sixth node along x1 at x2 = 0.  Every field here is
    # constant along x2, so these rows give the 2-D stride-6 sublattice's
    # sup differences, with no seed
    s1, s2 = pts.lattice_shape
    src = np.arange(0, s1, 6) * s2
    mats = _family_distances(m, pts, eps, [wt.BuragoTorus(ell) for ell in (2, 4, 8)], src)
    comp = converge_compare(mats, labels=["2", "4", "8"])
    ratio = comp["ratios"][0]
    _flag(flags, "C6-rate", ratio <= 0.65, ratio, "successive sup-difference ratio <= 0.65")
    report["frequency_convergence"] = comp

    rows = weak_star_test(
        m,
        [(f"ell={l}", wt.BuragoTorus(l)) for l in (1, 2, 4)],
        ["1", ("cos", [1.0, 0.0])],
    )
    report["weak_star"] = rows
    ok_ws = True
    for row in rows:
        if row["testfn"].startswith("cos"):
            targ = -(pi**2) if row["field"] == "ell=1" else 0.0
            ok_ws &= abs(row["value"] - targ) <= 3 * row["error"]
        else:
            ok_ws &= abs(row["value"] - m.volume) <= 3 * row["error"]
    _flag(flags, "C6-weak-star", ok_ws, "table",
          "weak-* integrals match within 3 rule errors |I_2k - I_k| + 1e-12 int |g|")

    # uniform A_p across frequencies: radii scaled with the oscillation
    centers = lattice(m, 2.0)
    c_aps = []
    for ell in (1, 2, 4, 8):
        radii = (2 * pi / ell * 0.5, 2 * pi / ell, m.max_distance * (1 + 1e-9))
        smp = dg.BallSampler(centers, radii, seed=derive_seed(seed, "ap", ell))
        c_aps.append(dg.ap_product(m, wt.BuragoTorus(ell), 2.0, smp, 60_000))
    spread_ap = (max(c_aps) - min(c_aps)) / min(c_aps)
    _flag(flags, "C7-ap", spread_ap <= 0.05, spread_ap, "C_ap(p=2) within 5% across ell")
    report["c_ap_by_ell"] = c_aps

    # strong ratios across ell = 1..16, at the family's own scale: pair
    # distances, the radius cap eta and the lattice resolution all shrink
    # like 1/ell, so every frequency is probed in the same relative
    # configuration (the substitution xi = ell * x1 maps them onto each
    # other) and the uniformity of the family becomes measurable
    base_dists = (2.4, 3.2, 4.0)
    anchors = np.array([[0.0, 0.0], [pi / 2, 0.7], [pi, 1.9], [3 * pi / 2, 3.1]])
    angles = np.array([0.0, pi / 6, pi / 3, pi / 2, 3 * pi / 4])
    thetas = []
    for ell in range(1, 17):
        f = wt.BuragoTorus(ell)
        spts = lattice(m, 0.3 / ell)
        sg = mt.build_graph(m, spts, 3 * spts.spacing, f)
        src, pairs = [], []
        for a in anchors / ell:
            i = spts.nearest(m, a)
            src.append(i)
            for rr in base_dists:
                for ang in angles:
                    target = m.canonicalize(
                        spts.points[i] + rr / ell * np.array([np.cos(ang), np.sin(ang)])
                    )
                    pairs.append((i, spts.nearest(m, target)))
        sdm = mt.shortest_paths(sg, np.unique(src), np.unique([j for _, j in pairs]))
        sr = dg.strong_ratio(
            m, f, spts, sdm, pairs, eta=1.05 * max(base_dists) / ell,
            seed=derive_seed(seed, "sr", ell),
        )
        thetas.append(sr.theta_strong)
        del sg, sdm  # not held while the next frequency's graph is built
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
    c_rh = dg.reverse_holder(m, bur1, 2.0, smp_full, 200_000)
    c_ap = dg.ap_product(m, bur1, 2.0, smp_full, 200_000)
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


def _cubic_3_torus(desc: dict) -> Manifold:
    """The grid suite's manifold: the spec's, which must be a 3-torus with
    equal periods (2.2 where none are given), else InputError; a spec
    without a manifold gets the 2.2-periodic 3-torus."""
    desc = desc or {"kind": "torus", "dim": 3}
    m = build_manifold(desc)
    if m.kind == "torus" and "periods" not in desc:
        m = Manifold.torus(m.dim, [2.2] * m.dim)
    if m.kind != "torus" or m.dim != 3 or np.any(m.periods != m.periods[0]):
        raise InputError(f"the schrodinger experiment needs a 3-torus with equal periods, got {desc}")
    return m


def run_schrodinger(spec: ExperimentSpec, outdir: Path):
    """Grid operator suite: eigenvalue laws, a dense oracle on the axes where
    V varies, shift bracket, fixed point, decomposition (criterion 9)."""
    m = _cubic_3_torus(spec.manifold)
    L = float(m.periods[0])
    budgets = spec.settings()["budgets"]
    shape = budgets["shape"]
    geom = _using("budgets entry 'shape'", sc.GridGeometry, m, shape)
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
    dense = sc.dense_lowest_eigenvalue(op)
    _flag(flags, "C9-dense", abs(s.lambda0 - dense) <= 1e-8, abs(s.lambda0 - dense),
          "iterative matches dense oracle +- 1e-8")

    report["beta_est"] = geom.sobolev_constant
    report["a_est"] = geom.grad_inv_constant

    c0 = np.asarray([L / 2] * 3)
    r0 = 0.8
    qq = 0.04 * np.exp(-(d0_many(m, x, c0) ** 2)) * geom.ball_mask(c0, r0)
    shift = sc.gs_shift_c0(geom, qq, c0, r0, tol=1e-8)
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
    fp = sc.log_gradient_fixedpoint(opf)
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

    rho = 0.8
    dgeom = _using("budgets entry 'decomp_shape'", sc.GridGeometry, m, budgets["decomp_shape"])
    dx = dgeom.nodes()
    Vd = 0.01 * np.cos(2 * pi * dx[:, 0] / L) * np.sin(2 * pi * dx[:, 1] / L)
    dec = sc.decompose_ground_state(sc.GridOperator(dgeom, Vd), rho)
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
    field.validate(m)  # before the calls below, whose errors name settings
    seed = spec.seed
    cfg = spec.settings()
    diag, budgets = cfg["diagnostics"], cfg["budgets"]
    eta = dg.default_eta(m) if diag["eta"] is None else diag["eta"]
    spacing = cfg["graph"]["center_spacing"]
    centers = _using("graph entry 'center_spacing'", lattice, m,
                     m.min_period / 3 if spacing is None else spacing)
    smp = _using("diagnostics entry 'eta'", dg.BallSampler, centers, (eta / 2, eta), seed=seed)
    for key in ("q", "p"):
        _using(f"diagnostics entry {key!r}", dg.check_exponent, key, diag[key])
    _using("budgets entry 'ball'", wt.check_ball_budget, budgets["ball"])
    mass, mass_se = _using("budgets entry 'mass'", wt.total_mass, m, field, budgets["mass"], seed)
    rep = dg.ainfty_report(m, field, smp, q=diag["q"], p=diag["p"], budget=budgets["ball"])
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

    @staticmethod
    def failed(spec, exc: ConflabError) -> "RunReport":
        """The report of a run, or of a spec, that exc stopped: the error is
        its only stage."""
        error = {"type": type(exc).__name__, "message": str(exc)}
        return RunReport(spec=spec, stages={"error": error}, flags=[], passed=False)

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
        )

    def write(self, outdir: Path) -> None:
        """report.json in outdir, made if missing."""
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(self.to_json())


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
            stages, flags = _RUNNERS[spec.name](spec, outdir)
        except (np.linalg.LinAlgError, MemoryError) as exc:
            kind = ResourceError if isinstance(exc, MemoryError) else NumericError
            raise kind(f"{type(exc).__name__}: {exc}") from exc
        rr = RunReport(spec=spec.to_dict(), stages=stages, flags=flags,
                       passed=all(f["pass"] for f in flags))
    except ConflabError as exc:
        rr, error = RunReport.failed(spec.to_dict(), exc), exc
    # wall-clock numbers go to a separate file so report.json stays
    # bit-identical across runs of the same spec
    rr.timings = {"wall_seconds": time.time() - t0}
    for key in [k for k in rr.stages if k.startswith("_timing")]:
        rr.timings[key.removeprefix("_timing_")] = rr.stages.pop(key)
    rr.write(outdir)
    (outdir / "timings.json").write_text(json.dumps(rr.timings))
    if error is not None:
        raise error
    return rr
