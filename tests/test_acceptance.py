"""Acceptance gate: one test per numbered criterion, at the stated tolerances.

Each canonical experiment runs once per session at criterion scale; the tests
check the emitted flags (plus a few independent oracles computed here) and
print one PASS/FAIL line per criterion.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json

import numpy as np
import pytest
from scipy.integrate import quad

from conflab.curvature import alpha_n2
from conflab.experiments import ExperimentSpec, run
from conflab.manifold import Manifold, cap_volume


def _run(tmp_factory, doc):
    out = tmp_factory.mktemp(doc["name"])
    spec = ExperimentSpec.from_dict(dict(doc, output_dir=str(out)))
    report = run(spec)
    timings = json.loads((out / "timings.json").read_text())
    return report, timings


@pytest.fixture(scope="session")
def flat(tmp_path_factory):
    return _run(
        tmp_path_factory,
        {
            "name": "flat-identity",
            "seed": 2026,
            "graph": {
                "spacing": 0.05,
                "eps": 0.15,
                "eps_schedule": [0.3, 0.15, 0.075],
                "pairs": 50,
                "refine_pairs": 50,
            },
        },
    )


@pytest.fixture(scope="session")
def bubble(tmp_path_factory):
    return _run(
        tmp_path_factory,
        {
            "name": "sphere-bubble",
            "seed": 2026,
            "weight": {"lams": [1.0, 2.0, 10.0, 100.0]},
            "diagnostics": {"R0": 0.5},
            "budgets": {"curvature_samples": 1000},
        },
    )


@pytest.fixture(scope="session")
def cusp(tmp_path_factory):
    return _run(
        tmp_path_factory,
        {
            "name": "log-cusp",
            "seed": 2026,
            "weight": {"caps": [2.0, 4.0, 8.0], "r0": 0.75},
            "graph": {"spacing": 0.08},
        },
    )


@pytest.fixture(scope="session")
def burago(tmp_path_factory):
    return _run(
        tmp_path_factory,
        {
            "name": "burago",
            "seed": 2026,
            "graph": {"spacing": 0.06},
        },
    )


@pytest.fixture(scope="session")
def schrod(tmp_path_factory):
    return _run(
        tmp_path_factory,
        {
            "name": "schrodinger",
            "seed": 2026,
            "budgets": {"shape": [12, 12, 12], "decomp_shape": [10, 10, 10]},
        },
    )


def _check(num, label, report, criterion_ids, extra_ok=(), extra_desc=""):
    flags = {f["criterion"]: f for f in report.flags}
    lines = []
    ok = True
    for cid in criterion_ids:
        f = flags[cid]
        ok &= f["pass"]
        lines.append(f"{cid}: value={f['value']} vs {f['threshold']}")
    for name, good in extra_ok:
        ok &= bool(good)
        lines.append(f"{name}: {'ok' if good else 'violated'}")
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] criterion {num} ({label}): " + "; ".join(lines) + extra_desc)
    assert ok, f"criterion {num} failed: " + "; ".join(lines)


def test_criterion_01_flat_identity(flat):
    report, timings = flat
    runtime_ok = timings["wall_seconds"] <= 120.0
    _check(
        1,
        "flat identity: d_f = d0 within 3%, extrapolated within 0.5%, <= 2 min",
        report,
        ["C1-pairs", "C1-extrapolated"],
        extra_ok=[(f"runtime {timings['wall_seconds']:.1f}s <= 120s", runtime_ok)],
    )


def test_criterion_02_scaling_exactness(flat):
    report, _ = flat
    _check(
        2,
        "constant shifts scale distances by e^c and cancel in all diagnostics, 1e-10",
        report,
        ["C2-distances", "C2-diagnostics"],
    )


def test_criterion_03_bubble_curvature(bubble):
    report, _ = bubble
    _check(
        3,
        "dilation family keeps scal = n(n-1) to 1e-6 and total mass to 1%",
        report,
        ["C3-curvature", "C3-mass"],
    )


def test_criterion_04_curvature_concentration(bubble):
    report, _ = bubble
    # independent oracle: the dilation maps the target ball to another cap,
    # so its mass has the closed form vol(cap(2 atan(lam tan(R/2))))
    s3 = Manifold.sphere(3)
    lam, R = 100.0, 0.5
    oracle_mass = cap_volume(s3, 2.0 * np.arctan(lam * np.tan(R / 2.0)))
    oracle = 6.0 * oracle_mass ** (2.0 / 3.0)
    sup_pos = report.stages["pinching_sup_pos"][-1]
    oracle_ok = abs(sup_pos - oracle) <= 0.01 * alpha_n2(3)
    _check(
        4,
        "curvature concentrates to the critical level over the dilation sweep",
        report,
        ["C4-concentration", "C4-monotone"],
        extra_ok=[(f"cap-volume oracle |{sup_pos:.3f} - {oracle:.3f}| <= 1% alpha", oracle_ok)],
    )


def test_criterion_05_stable_norm(burago):
    report, timings = burago
    runtime_ok = timings.get("stable_norm", 0.0) <= 300.0
    sweep = report.stages["stable_norm_e2_by_ell"]
    sweep_ok = all(abs(v * np.sqrt(2.0) - 1.0) <= 0.01 for v in sweep.values())
    _check(
        5,
        "stable norms: valley direction 2^{-1/2}, crossing direction by quadrature, 1%",
        report,
        ["C5-e2", "C5-e1"],
        extra_ok=[
            (f"runtime {timings.get('stable_norm', 0):.1f}s <= 300s", runtime_ok),
            ("valley norm 2^{-1/2} across the frequency sweep", sweep_ok),
        ],
    )


def test_stable_norm_oracle_is_the_loop_quadrature(burago):
    # C5-e1's closed form (2/pi) sqrt(3/2) E(2/3) against the loop integral
    # of e^f = sqrt(1 - cos(t)/2) that it replaced
    report, _ = burago
    loop = quad(lambda t: np.sqrt(1 - 0.5 * np.cos(t)), 0, 2 * np.pi)[0] / (2 * np.pi)
    assert abs(report.stages["stable_norm"]["oracle_e1"] - loop) <= np.spacing(loop)


def test_criterion_06_frequency_convergence(burago):
    report, _ = burago
    _check(
        6,
        "frequency doubling shrinks sup distance gaps (ratio <= 0.65) and weak-* integrals match",
        report,
        ["C6-rate", "C6-weak-star"],
    )


def test_criterion_07_uniform_family(burago):
    report, _ = burago
    _check(
        7,
        "A_p constant within 5% and strong ratio within 10% across the frequency family",
        report,
        ["C7-ap", "C7-strong"],
    )


def test_criterion_08_log_cusp(cusp):
    report, _ = cusp
    _check(
        8,
        "capped cusps converge monotonically to the singular metric; bi-Hölder witness",
        report,
        ["C8-monotone", "C8-final", "C8-biholder"],
    )


def test_criterion_09_schrodinger(schrod):
    report, _ = schrod
    _check(
        9,
        "eigenvalue laws, dense oracle, zeroing shift, fixed point, decomposition",
        report,
        [
            "C9-zero",
            "C9-shift",
            "C9-dense",
            "C9-shift-c0",
            "C9-fixed-point",
            "C9-decomposition",
        ],
    )


def test_criterion_10_isoperimetry(flat, burago):
    flat_report, _ = flat
    burago_report, _ = burago
    flags = {f["criterion"]: f for f in flat_report.flags}
    f10 = flags["C10-flat-discs"]
    bflags = {f["criterion"]: f for f in burago_report.flags}
    b10 = bflags["C10-burago"]
    ok = f10["pass"] and b10["pass"]
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 10 (isoperimetric sampling): "
        f"flat={f10['value']} ({f10['threshold']}); burago={b10['value']} ({b10['threshold']})"
    )
    assert ok


def test_criterion_11_diagnostics_oracles(flat, burago):
    flat_report, _ = flat
    burago_report, _ = burago
    flags = {f["criterion"]: f for f in flat_report.flags}
    c = flags["C11-constant"]
    bflags = {f["criterion"]: f for f in burago_report.flags}
    b = bflags["C11-burago"]
    ok = c["pass"] and b["pass"]
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 11 (diagnostics oracles): "
        f"constant={c['value']} ({c['threshold']}); burago={b['value']} ({b['threshold']})"
    )
    assert ok
