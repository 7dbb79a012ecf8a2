import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import conflab
from conflab import experiments
from conflab.cli import WRAPPERS, build_parser, main
from conflab.errors import InputError, NumericError
from conflab.experiments import (
    EXPERIMENT_NAMES,
    SETTINGS,
    ExperimentSpec,
    _family_distances,
    build_manifold,
    build_weight,
    converge_compare,
    run,
    weak_star_test,
)
from conflab.diagnostics import d0_matrix
from conflab.manifold import Manifold, lattice
from conflab.metric import DistanceMatrix, build_graph, shortest_paths
from conflab.schrodinger import GridGeometry, GridOperator, lowest_eigenpair
from conflab.weight import (
    BuragoTorus,
    Constant,
    GridField,
    GridWeight,
    LogCusp,
    SphereBubble,
    Sum,
    total_mass,
)

SMALL_FLAT = {
    "name": "flat-identity",
    "seed": 7,
    "graph": {
        "spacing": 0.12,
        "eps": 0.36,
        "eps_schedule": [0.9, 0.54, 0.36],
        "pairs": 10,
        "refine_pairs": 6,
    },
}


def _write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_run_passes_and_writes_artifacts(tmp_path, capsys):
    doc = dict(SMALL_FLAT, output_dir=str(tmp_path / "out"))
    rc = main(["run", str(_write_spec(tmp_path, doc))])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert all(f["criterion"] for f in report["flags"])
    assert (tmp_path / "out" / "timings.json").exists()


def test_reports_bit_identical(tmp_path):
    doc = dict(SMALL_FLAT, output_dir=str(tmp_path / "a"))
    run(ExperimentSpec.from_dict(doc))
    doc2 = dict(SMALL_FLAT, output_dir=str(tmp_path / "b"))
    run(ExperimentSpec.from_dict(doc2))
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    # reports are bit-identical once the echoed output path is normalized
    assert a.replace(b"/a", b"/x") == b.replace(b"/b", b"/x")


# a coarse flat-identity spec whose every pair is cheap to solve
COARSE_FLAT = {
    "name": "flat-identity",
    "graph": {"spacing": 0.25, "eps": 0.75, "eps_schedule": [1.5, 1.0, 0.75], "pairs": 10, "refine_pairs": 3},
}


def _flag_value(report, criterion):
    (value,) = [f["value"] for f in report.flags if f["criterion"] == criterion]
    return value


def _run_at(tmp_path, doc, seed):
    return run(ExperimentSpec.from_dict(dict(doc, seed=seed, output_dir=str(tmp_path / f"{doc['name']}-{seed}"))))


def test_c1_pairs_is_the_max_over_every_pair(tmp_path):
    report = _run_at(tmp_path, COARSE_FLAT, 1)
    g = COARSE_FLAT["graph"]
    m = Manifold.torus(2)
    pts = lattice(m, g["spacing"], cover=True)
    d = shortest_paths(build_graph(m, pts, g["eps"], Constant(0.0)), None).values
    d0 = d0_matrix(m, pts).values
    far = d0 >= 4 * g["spacing"]
    brute = float(np.max(np.abs(d[far] - d0[far]) / d0[far]))
    assert _flag_value(report, "C1-pairs") == pytest.approx(brute, rel=1e-12, abs=0)


def test_exact_sups_do_not_depend_on_the_seed(tmp_path):
    # seeds whose sampled sups differed
    c1 = [_flag_value(_run_at(tmp_path, COARSE_FLAT, seed), "C1-pairs") for seed in (1, 4)]
    assert c1[0] == pytest.approx(c1[1], rel=1e-12, abs=0)
    schrod = {"name": "schrodinger", "budgets": {"shape": [8, 8, 8], "decomp_shape": [8, 8, 8]}}
    assert _run_at(tmp_path, schrod, 1).stages == _run_at(tmp_path, schrod, 2).stages


def test_malformed_spec_exit_code(tmp_path, capsys):
    doc = {"name": "flat-identity", "seed": 1, "graph": {"spacing": 0.1, "eps": 0.2},
           "output_dir": str(tmp_path / "out")}
    rc = main(["run", str(_write_spec(tmp_path, doc))])
    assert rc == 2
    assert "eps >= 3 * spacing" in capsys.readouterr().err


def test_missing_seed_rejected(tmp_path):
    with pytest.raises(InputError):
        ExperimentSpec.from_dict({"name": "flat-identity"})


def test_stage_error_recorded_and_exit_code(tmp_path, capsys):
    # a weight invalid for the manifold fails mid-run: the error lands in the
    # report, later stages are skipped, and the exit code is the category
    doc = {
        "name": "custom",
        "seed": 1,
        "output_dir": str(tmp_path / "bad"),
        "manifold": {"kind": "sphere", "dim": 2},
        "weight": {"kind": "burago", "ell": 1},
    }
    rc = main(["run", str(_write_spec(tmp_path, doc, "cust.json"))])
    assert rc == 2
    report = json.loads((tmp_path / "bad" / "report.json").read_text())
    assert report["passed"] is False
    assert report["stages"]["error"]["type"] == "InputError"
    assert "tori" in report["stages"]["error"]["message"]


def test_unknown_experiment_rejected():
    with pytest.raises(InputError):
        ExperimentSpec.from_dict({"name": "mystery", "seed": 0})


def test_unknown_field_rejected():
    with pytest.raises(InputError):
        ExperimentSpec.from_dict({"name": "burago", "seed": 0, "extra": 1})


def test_spec_field_that_is_not_an_object_rejected():
    with pytest.raises(InputError, match="'weight'"):
        ExperimentSpec.from_dict({"name": "custom", "seed": 0, "weight": 3})


def test_output_dir_env_override(tmp_path, monkeypatch, capsys):
    target = tmp_path / "env-out"
    monkeypatch.setenv("CONF_LAB_OUT", str(target))
    doc = dict(SMALL_FLAT)
    rc = main(["run", str(_write_spec(tmp_path, doc))])
    assert rc == 0
    assert (target / "report.json").exists()


def test_ainfty_subcommand(tmp_path, capsys):
    rc = main(
        [
            "ainfty",
            "--seed",
            "3",
            "--output-dir",
            str(tmp_path / "ai"),
            "--weight",
            '{"kind": "burago", "ell": 2}',
            "--budget",
            "5000",
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "ai" / "report.json").read_text())
    assert report["stages"]["ainfty"]["C_rh"] >= 0.9


def test_converge_compare_zeros(torus2):
    dm = DistanceMatrix(
        sources=np.array([0, 1]), targets=np.array([0, 1]), values=np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    comp = converge_compare([dm, dm, dm], labels=["a", "b", "c"])
    assert comp["sup_diffs"] == [0.0, 0.0]


def test_converge_compare_misaligned(torus2):
    a = DistanceMatrix(sources=np.array([0]), targets=np.array([0, 1]), values=np.zeros((1, 2)))
    b = DistanceMatrix(sources=np.array([1]), targets=np.array([0, 1]), values=np.zeros((1, 2)))
    with pytest.raises(InputError):
        converge_compare([a, b], labels=["a", "b"])


def test_burago_rate_on_the_source_line_is_the_sublattice_rate(torus2):
    # burago's C6-rate sources: every sixth node along x1 at x2 = 0.  Each
    # field is constant along x2, so a source's rows are translates of its
    # x1 column's, and the line reads the 2-D stride-6 sublattice bit for bit
    pts = lattice(torus2, 0.12)
    s1, s2 = pts.lattice_shape
    family = [BuragoTorus(ell) for ell in (2, 4, 8)]

    def rate(sources):
        mats = _family_distances(torus2, pts, 3 * pts.spacing, family, sources)
        return converge_compare(mats, ["2", "4", "8"])["ratios"][0]

    stride = np.arange(0, s1, 6) * s2
    line = rate(stride)
    assert line == rate((stride[:, None] + np.arange(0, s2, 6)).ravel())
    # the gap to the sup over every x1 column: none beyond rounding on this
    # 52^2 lattice, 2.3% at the acceptance spacing 0.06 (0.60886 against 0.62338)
    assert line == pytest.approx(0.55686, abs=1e-5)
    assert rate(np.arange(s1) * s2) == pytest.approx(line, rel=1e-14)


def _burago_line_integrals(ell, phi, area):
    """(int g, int |g|) of g = phi(x1) (1 - cos(ell x1)/2) over a torus of
    period 2 pi whose other axes span ``area``, by quad along x1."""
    g = lambda t: phi(t) * (1 - 0.5 * np.cos(ell * t))
    return tuple(area * quad(h, 0, 2 * np.pi, limit=200)[0] for h in (g, lambda t: abs(g(t))))


def test_weak_star_values(torus2):
    # e^{2f} = 1 - cos(ell x1)/2 times 1 or cos x1 is a trigonometric
    # polynomial, which the lattice rule integrates exactly
    for ell in (1, 2, 4, 8, 16):
        rows = weak_star_test(torus2, [(f"ell={ell}", BuragoTorus(ell))], ["1", ("cos", [1.0, 0.0])])
        for r, exact, phi in zip(rows, (4 * np.pi**2, -(np.pi**2) if ell == 1 else 0.0), (np.ones_like, np.cos)):
            _, size = _burago_line_integrals(ell, phi, 2 * np.pi)
            assert abs(r["value"] - exact) <= 1e-12 * size, (ell, r)
            assert abs(r["value"] - exact) <= 3 * r["error"], (ell, r)


def test_weak_star_values_on_a_3_torus(torus3):
    rows = weak_star_test(torus3, [("ell=2", BuragoTorus(2))], ["1", ("cos", [1.0, 0.0, 0.0])])
    for r, phi in zip(rows, (np.ones_like, np.cos)):
        ref, size = _burago_line_integrals(2, phi, (2 * np.pi) ** 2)
        assert abs(r["value"] - ref) <= 1e-12 * size
        assert abs(r["value"] - ref) <= 3 * r["error"]


def test_weak_star_error_is_honest_on_a_multilinear_grid(torus2, monkeypatch):
    # a multilinear field is only C^0 across its cells, whose edges (7 and 9
    # per period) fall between the rule's nodes: the rule converges like h^2
    field = GridWeight(GridField(torus2, np.random.default_rng(3).uniform(-0.5, 0.5, (7, 9))))
    testfns = ["1", ("cos", [1.0, 0.0]), ("cos", [1.0, 2.0])]
    rows = weak_star_test(torus2, [("grid", field)], testfns)
    monkeypatch.setattr(experiments, "WEAK_STAR_NODES", 4 * experiments.WEAK_STAR_NODES)
    finer = weak_star_test(torus2, [("grid", field)], testfns)
    for r, ref in zip(rows, finer):
        assert abs(r["value"] - ref["value"]) <= r["error"]
    mass, se = total_mass(torus2, field, 200_000, seed=1)
    assert abs(rows[0]["value"] - mass) <= 3 * np.hypot(se, rows[0]["error"])


def test_weak_star_validates_each_field(sphere2):
    with pytest.raises(InputError, match="tori"):
        weak_star_test(sphere2, [("ell=1", BuragoTorus(1))], ["1"])


@pytest.mark.parametrize(
    "doc, words",
    [
        ({"name": "flat-identity", "manifold": {"kind": "box", "dim": 2}}, "'extents'"),
        ({"name": "custom", "weight": {"kind": "log-cusp"}}, "'x0'"),
        ({"name": "custom", "weight": {"kind": "scaled", "shift": 0.5}}, "'base'"),
        ({"name": "custom", "weight": {"kind": "scaled", "base": {"kind": "burago"}}}, "'shift'"),
        ({"name": "custom", "weight": {"kind": "grid", "order": 3}}, "'path'"),
        ({"name": "custom", "weight": {"kind": "scaled", "base": 3, "shift": 0.5}}, "an object"),
        ({"name": "custom", "weight": 3}, "'weight'"),
        ({"name": "flat-identity", "graph": {"spacing": "abc"}}, "graph entry 'spacing'"),
        ({"name": "custom", "budgets": {"ball": [1.0, None]}}, "budgets entry 'ball'"),
        ({"name": "custom", "diagnostics": {"eta": float("inf")}}, "diagnostics entry 'eta'"),
        # a retired setting (a constant now), a typo in a descriptor or a
        # section, or a setting that is not a number: each rejected before
        # any work
        ({"name": "flat-identity", "graph": {"K": 5}}, "'K'"),
        ({"name": "sphere-bubble", "graph": {"center_spacing": 0.7}}, "'center_spacing'"),
        ({"name": "log-cusp", "weight": {"x0": [3.2, 3.1]}}, "'x0'"),
        ({"name": "burago", "graph": {"stable_spacing": 0.1}}, "'stable_spacing'"),
        ({"name": "burago", "graph": {"strong_spacing": 0.3}}, "'strong_spacing'"),
        ({"name": "burago", "graph": {"strong_distances": [2.4, 3.2, 4.0]}}, "'strong_distances'"),
        ({"name": "burago", "graph": {"strong_ells": [1, 2, 4]}}, "'strong_ells'"),
        ({"name": "burago", "budgets": {"weak_star": 400_000}}, "'weak_star'"),
        ({"name": "burago", "budgets": {"ball": 60_000}}, "'ball'"),
        ({"name": "burago", "budgets": {"strong": 20_000}}, "'strong'"),
        ({"name": "burago", "budgets": {"full_torus": 200_000}}, "'full_torus'"),
        ({"name": "schrodinger", "diagnostics": {"rho": 0.8}}, "'rho'"),
        ({"name": "flat-identity", "manifold": {"kind": "torus", "dims": 3}}, "'dims'"),
        ({"name": "custom", "weight": {"kind": "burago", "el": 2}}, "'el'"),
        ({"name": "burago", "graph": {"spcing": 0.06}}, "'spcing'"),
        ({"name": "sphere-bubble", "weight": {"lams": ["x"]}}, "weight entry 'lams'"),
        ({"name": "burago", "graph": {"spacing": 10**400}}, "graph entry 'spacing'"),  # no float
    ],
)
def test_missing_spec_key_is_an_input_error(tmp_path, capsys, doc, words):
    doc = dict(doc, seed=1, output_dir=str(tmp_path / "out"))
    assert main(["run", str(_write_spec(tmp_path, doc))]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["spec"] == doc
    assert report["stages"]["error"]["type"] == "InputError"
    assert words in report["stages"]["error"]["message"]


@pytest.mark.parametrize(
    "doc, entry, words",
    [
        ({"name": "custom", "budgets": {"ball": 500, "mass": 0}}, "budgets entry 'mass'", "sample count"),
        # one sample has no standard error: the mass read 40.24 +- 0.0, exact 39.48
        ({"name": "custom", "weight": {"kind": "burago"}, "budgets": {"mass": 1}}, "budgets entry 'mass'",
         "at least 2"),
        ({"name": "custom", "budgets": {"ball": 50}}, "budgets entry 'ball'", "budget must be >= 100"),
        ({"name": "custom", "graph": {"center_spacing": 0}}, "graph entry 'center_spacing'", "spacing"),
        ({"name": "custom", "diagnostics": {"eta": 0}}, "diagnostics entry 'eta'", "radii"),
        ({"name": "custom", "diagnostics": {"q": 1}}, "diagnostics entry 'q'", "q must exceed 1"),
        ({"name": "flat-identity", "graph": {"spacing": 0.12}}, "graph entry 'eps'", "eps >= 3 * spacing"),
        ({"name": "custom", "diagnostics": {"p": 1}}, "diagnostics entry 'p'", "p must exceed 1"),
        ({"name": "log-cusp", "graph": {"spacing": 3.0}}, "graph entry 'spacing'", "the 10 sources"),
        # the refinement lattice at spacing 9 / 3 snaps pair ends onto one node
        ({"name": "flat-identity", "graph": {"spacing": 0.1, "eps": 0.3, "eps_schedule": [12, 9]}},
         "graph entry 'eps_schedule'", "both ends on one node"),
        ({"name": "sphere-bubble", "weight": {"lams": [0, 2]}}, "weight entry 'lams'",
         "SphereBubble dilation lam must be positive"),
        ({"name": "sphere-bubble", "diagnostics": {"R0": 0}}, "diagnostics entry 'R0'",
         "pinching radius R0 must be positive"),
        ({"name": "log-cusp", "weight": {"r0": -1}}, "weight entry 'r0'", "LogCusp radius r0 must be positive"),
        ({"name": "log-cusp", "weight": {"caps": [-1, 2]}}, "weight entry 'caps'", "LogCusp cap must be positive"),
        ({"name": "log-cusp", "weight": {"r0": 2}}, "weight entry 'r0'", "half the min period"),
        # a 2-sphere passes the dimension check; the cusp rejects it before any work
        ({"name": "log-cusp", "manifold": {"kind": "sphere", "dim": 2}}, "manifold or weight entry 'r0'",
         "defined on tori and boxes only"),
    ],
    ids=["mass", "mass-one", "ball", "center_spacing", "eta", "q", "eps", "p", "log-cusp-spacing",
         "eps_schedule", "lams", "R0", "r0", "caps", "r0-period", "log-cusp-sphere"],
)
def test_setting_a_library_check_rejects_names_its_key(tmp_path, capsys, doc, entry, words):
    # well typed, so the spec is accepted; the check that stops the run is
    # the library's, and its message is prefixed with the setting it read
    doc = dict(doc, seed=1, output_dir=str(tmp_path / "out"))
    assert main(["run", str(_write_spec(tmp_path, doc))]) == 2
    error = json.loads((tmp_path / "out" / "report.json").read_text())["stages"]["error"]
    assert error["type"] == "InputError"
    assert entry in error["message"] and words in error["message"]


@pytest.mark.parametrize("doc", [3, ["name"], {"name": "custom", "seed": "abc"}], ids=["int", "list", "seed"])
def test_rejected_spec_writes_a_report_into_conf_lab_out(tmp_path, monkeypatch, capsys, doc):
    monkeypatch.setenv("CONF_LAB_OUT", str(tmp_path / "out"))
    assert main(["run", str(_write_spec(tmp_path, doc))]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    assert report["stages"]["error"]["type"] == "InputError"


@pytest.mark.parametrize("text", ["", '{"name": "custom",'], ids=["empty", "truncated"])
def test_malformed_json_spec_writes_a_report_into_conf_lab_out(tmp_path, monkeypatch, capsys, text):
    spec = tmp_path / "bad.json"
    spec.write_text(text)
    assert main(["run", str(spec)]) == 2  # nowhere to write a report
    assert "malformed JSON spec" in capsys.readouterr().err
    monkeypatch.setenv("CONF_LAB_OUT", str(tmp_path / "out"))
    assert main(["run", str(spec)]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    assert report["spec"] is None
    assert report["stages"]["error"]["type"] == "InputError"
    assert "malformed JSON spec" in report["stages"]["error"]["message"]


def test_malformed_json_flag_is_an_input_error(tmp_path, monkeypatch, capsys):
    # the report goes to --output-dir, or to CONF_LAB_OUT when it is set
    for out in ("out", "env-out"):
        if out == "env-out":
            monkeypatch.setenv("CONF_LAB_OUT", str(tmp_path / out))
        assert main(["ainfty", "--weight", "{bad", "--output-dir", str(tmp_path / "out")]) == 2
        assert "malformed JSON --weight" in capsys.readouterr().err
        report = json.loads((tmp_path / out / "report.json").read_text())
        assert report["passed"] is False
        assert report["spec"] is None
        assert report["stages"]["error"]["type"] == "InputError"
        assert "malformed JSON --weight" in report["stages"]["error"]["message"]


def test_each_wrapper_flag_names_a_declared_setting():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, (name, _, flags) in WRAPPERS.items():
        for dest in (a.dest for a in commands[command]._actions):
            if dest in ("help", "seed", "output_dir", "manifold"):
                continue  # spec fields, and the descriptor every experiment takes
            if flags[dest] == "weight":
                assert name == "custom" or "weight" in SETTINGS[name], (command, dest)
                continue
            section, key = flags[dest].split(".")
            assert key in SETTINGS[name].get(section, {}), (command, dest)


# wrapper command -> flag -> (a command-line value, what it parses to)
WRAPPER_FLAGS = {
    "dist": {"--spacing": ("0.1", 0.1), "--eps": ("0.3", 0.3),
             "--eps-schedule": ("0.9,0.54,0.3", [0.9, 0.54, 0.3])},
    "ainfty": {"--weight": ("{}", "{}"), "--q": ("2", 2.0), "--p": ("3", 3.0),
               "--eta": ("0.5", 0.5), "--budget": ("5000", 5000)},
    "curv": {"--weight": ("{}", "{}"), "--r0": ("1", 1.0)},
    "stablenorm": {"--spacing": ("0.06", 0.06)},
    "schrod": {},
}


@pytest.mark.parametrize("command", WRAPPER_FLAGS)
def test_wrapper_flags_parse_to_their_settings_types(command, capsys):
    common = {"--seed": ("3", 3), "--output-dir": ("o", "o"), "--manifold": ("{}", "{}")}
    flags = dict(common, **WRAPPER_FLAGS[command])
    subparser = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.option_strings[0] for a in subparser.choices[command]._actions} - {"-h"}
    assert options == set(flags)
    args = build_parser().parse_args([command] + [t for f, (text, _) in flags.items() for t in (f, text)])
    for flag, (_, want) in flags.items():
        got = getattr(args, flag[2:].replace("-", "_"))
        assert got == want and type(got) is type(want), flag
    if "--budget" in flags:  # an integer setting's flag takes no fraction
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--budget", "2.5"])


def _wrong_values(default):
    """Values of the wrong type for a setting with this SETTINGS default."""
    if isinstance(default, tuple):  # a scalar where a list belongs
        return [2.0, [], True] + ([[12, 2.5]] if isinstance(default[0], int) else [])
    scalar = 1.0 if default is None else default  # a list where a scalar belongs
    return [[scalar], [], True] + ([2.5] if isinstance(default, int) else [])


@pytest.mark.parametrize(
    "name, section, key, value",
    [
        pytest.param(name, section, key, value, id=f"{name}-{key}-{json.dumps(value)}")
        for name, sections in SETTINGS.items()
        for section, keys in sections.items()
        for key, default in keys.items()
        for value in _wrong_values(default)
    ],
)
def test_setting_of_the_wrong_type_is_an_input_error(tmp_path, capsys, name, section, key, value):
    doc = {"name": name, "seed": 1, "output_dir": str(tmp_path / "out"), section: {key: value}}
    assert main(["run", str(_write_spec(tmp_path, doc))]) == 2
    error = json.loads((tmp_path / "out" / "report.json").read_text())["stages"]["error"]
    assert error["type"] == "InputError"
    assert f"{section} entry {key!r}" in error["message"]


@pytest.mark.parametrize("seed", [7.5, "7", True])
def test_seed_that_is_not_an_integer_is_an_input_error(tmp_path, capsys, seed):
    doc = {"name": "burago", "seed": seed, "output_dir": str(tmp_path / "out")}
    assert main(["run", str(_write_spec(tmp_path, doc))]) == 2
    error = json.loads((tmp_path / "out" / "report.json").read_text())["stages"]["error"]
    assert error["type"] == "InputError"
    assert "entry 'seed'" in error["message"]


@pytest.mark.parametrize(
    "doc, settings, words",
    [
        # values of the right type that the run cannot use
        ({"name": "sphere-bubble"}, {"budgets": {"curvature_samples": 0}}, "'curvature_samples'"),
        ({"name": "schrodinger"}, {"budgets": {"shape": [12, 12]}}, "'shape'"),
        ({"name": "schrodinger"}, {"budgets": {"decomp_shape": [10, 10, 10, 10]}}, "'decomp_shape'"),
        (SMALL_FLAT, {"graph": dict(SMALL_FLAT["graph"], pairs=0)}, "'pairs'"),
        (SMALL_FLAT, {"graph": dict(SMALL_FLAT["graph"], refine_pairs=0)}, "'refine_pairs'"),
    ],
    ids=["no-curvature-sample", "2d-shape", "4d-decomp-shape", "no-pair", "no-refine-pair"],
)
def test_setting_the_run_cannot_use_is_an_input_error(tmp_path, capsys, doc, settings, words):
    doc = dict(doc, seed=1, output_dir=str(tmp_path / "out"), **settings)
    assert main(["run", str(_write_spec(tmp_path, doc))]) == 2
    error = json.loads((tmp_path / "out" / "report.json").read_text())["stages"]["error"]
    assert error["type"] == "InputError"
    assert words in error["message"]


@pytest.mark.parametrize(
    "build, desc, default",
    [
        (build_manifold, {}, Manifold.torus()),
        (build_manifold, {"kind": "torus"}, Manifold.torus()),
        (build_manifold, {"kind": "sphere"}, Manifold.sphere()),
        (build_weight, {}, Constant()),
        (build_weight, {"kind": "burago"}, BuragoTorus()),
        (build_weight, {"kind": "sphere-bubble"}, SphereBubble()),
        (build_weight, {"kind": "log-cusp", "x0": [3, 3]}, LogCusp((3.0, 3.0))),
        (build_weight, {"kind": "scaled", "base": {"kind": "burago"}, "shift": 1},
         Sum((BuragoTorus(), Constant(1.0)))),
    ],
)
def test_descriptor_of_only_its_kind_builds_the_constructor_default(build, desc, default):
    # repr, since a manifold holds arrays
    assert repr(build(desc)) == repr(default)


def test_readme_settings_table_matches_the_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Spec settings")[1].split("\n\n")[2]
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in table.splitlines()[2:]]
    declared = {(name, section, key): default for name, sections in SETTINGS.items()
                for section, keys in sections.items() for key, default in keys.items()}
    assert {tuple(row[:3]) for row in rows} == set(declared)
    for name, section, key, default in rows:
        if declared[name, section, key] is not None:
            assert json.loads(default) == pytest.approx(declared[name, section, key]), key


def _grid_spec(tmp_path, edit_manifest=None, payload=True):
    """A custom spec reading a grid weight whose manifest goes through
    edit_manifest (a function of the manifest object) before it is written."""
    from conflab.weight import Constant, grid_from_field, write_grid

    path = tmp_path / "grid.json"
    write_grid(grid_from_field(Manifold.torus(2), Constant(0.1), (8, 8)), path)
    if edit_manifest is not None:
        path.write_text(json.dumps(edit_manifest(json.loads(path.read_text()))))
    if not payload:
        path.with_suffix(".bin").unlink()
    return {"name": "custom", "seed": 1, "output_dir": str(tmp_path / "out"),
            "weight": {"kind": "grid", "path": str(path)}}


@pytest.mark.parametrize(
    "spec",
    [
        lambda tmp: dict(_grid_spec(tmp), weight={"kind": "grid", "path": str(tmp / "nope.json")}),
        lambda tmp: _grid_spec(tmp, payload=False),
        lambda tmp: _grid_spec(tmp, lambda doc: [doc]),
        lambda tmp: _grid_spec(tmp, lambda doc: dict(doc, manifold={})),
        lambda tmp: _grid_spec(tmp, lambda doc: dict(doc, manifold={"kind": "torus", "dim": 2})),
        lambda tmp: _grid_spec(tmp, lambda doc: dict(doc, manifold={"kind": "box", "dim": 2})),
        lambda tmp: _grid_spec(tmp, lambda doc: dict(doc, manifold={"kind": "torus", "periods": [6.0, 6.0]})),
    ],
    ids=["no-manifest", "no-payload", "not-an-object", "no-kind", "no-periods", "no-extents", "no-dim"],
)
def test_unreadable_grid_payload_is_a_format_error(tmp_path, capsys, spec):
    doc = spec(tmp_path)
    assert main(["run", str(_write_spec(tmp_path, doc))]) == 2
    error = json.loads((tmp_path / "out" / "report.json").read_text())["stages"]["error"]
    assert error["type"] == "FormatError"


@pytest.mark.parametrize(
    "spec, mass",
    [
        # the grid holds f = 0.1 on the 2-torus: mass e^{0.2} (2 pi)^2
        (_grid_spec, np.exp(0.2) * 4 * np.pi**2),
        # a dilation of S^2 conserves its area 4 pi
        (lambda tmp: {"name": "custom", "seed": 1, "output_dir": str(tmp / "out"),
                      "manifold": {"kind": "sphere", "dim": 2},
                      "weight": {"kind": "sphere-bubble", "lam": 2.0}}, 4 * np.pi),
    ],
    ids=["grid", "sphere-bubble"],
)
def test_custom_run_of_a_grid_or_sphere_bubble_weight(tmp_path, capsys, spec, mass):
    doc = dict(spec(tmp_path), budgets={"ball": 2000, "mass": 2000})
    assert main(["run", str(_write_spec(tmp_path, doc))]) == 0
    stages = json.loads((tmp_path / "out" / "report.json").read_text())["stages"]
    assert abs(stages["total_mass"] - mass) <= 4 * stages["total_mass_se"] + 1e-9 * mass
    assert set(stages["ainfty"]) >= {"C_rh", "C_ap"}


@pytest.mark.parametrize(
    "manifold, weight, words",
    [
        ({}, {"kind": "constant", "value": "x"}, "entry 'value'"),
        ({}, {"kind": "burago", "ell": "1"}, "entry 'ell'"),
        ({}, {"kind": "burago", "ell": 1.5}, "entry 'ell'"),
        ({}, {"kind": "log-cusp", "x0": [3.1, 3.1], "r0": None}, "entry 'r0'"),
        ({}, {"kind": "log-cusp", "x0": [3.1, 3.1], "cap": "big"}, "entry 'cap'"),
        ({}, {"kind": "log-cusp", "x0": "centre"}, "entry 'x0'"),
        ({"kind": "sphere"}, {"kind": "sphere-bubble", "lam": [2.0]}, "entry 'lam'"),
        ({"kind": "sphere"}, {"kind": "sphere-bubble", "pole": [0, 0, "n"]}, "entry 'pole'"),
        ({}, {"kind": "scaled", "base": {"kind": "constant"}, "shift": "0.5"}, "entry 'shift'"),
        ({}, {"kind": "scaled", "base": {"kind": "constant", "value": True}, "shift": 0.5}, "entry 'value'"),
        ({}, {"kind": "grid", "path": "g.json", "order": "3"}, "entry 'order'"),
        ({}, {"kind": "grid", "path": 3}, "entry 'path'"),
        ({"kind": "torus", "dim": "two"}, {}, "entry 'dim'"),
        ({"kind": "sphere", "radius": "1"}, {}, "entry 'radius'"),
        ({"kind": "torus", "periods": [6.0, None]}, {}, "entry 'periods'"),
        ({"kind": "box", "extents": [[0.0, 1.0], [0.0]]}, {}, "entry 'extents'"),
        # well typed, but the wrong length for the manifold
        ({}, {"kind": "log-cusp", "x0": [3.1, 3.1, 3.1]}, "x0 needs 2 coordinates"),
        ({"kind": "sphere"}, {"kind": "sphere-bubble", "pole": [0.0, 1.0]}, "pole needs 3"),
        # well typed and the right length, but not a point of the sphere
        ({"kind": "sphere"}, {"kind": "sphere-bubble", "pole": [0, 0, 2]}, "pole must be a unit vector"),
        ({"kind": "sphere"}, {"kind": "sphere-bubble", "pole": [0, 0, 0]}, "pole must be a unit vector"),
    ],
)
def test_descriptor_value_of_the_wrong_type_is_an_input_error(tmp_path, capsys, manifold, weight, words):
    doc = {"name": "custom", "seed": 1, "output_dir": str(tmp_path / "out"),
           "manifold": manifold, "weight": weight, "budgets": {"ball": 500, "mass": 500}}
    assert main(["run", str(_write_spec(tmp_path, doc))]) == 2
    error = json.loads((tmp_path / "out" / "report.json").read_text())["stages"]["error"]
    assert error["type"] == "InputError"
    assert words in error["message"]


def test_import_loads_no_unused_scipy_subpackage():
    # scipy.integrate (and the scipy.optimize it imports) has no caller in
    # the package; scipy.fft loads on the first box-grid DCT
    src = str(Path(conflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import conflab, sys; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "conflab.experiments" in loaded
    assert not {"scipy.integrate", "scipy.optimize", "scipy.fft"} & set(loaded)


def test_missing_or_unreadable_spec_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "cannot read spec file" in capsys.readouterr().err
    assert main(["run", str(tmp_path)]) == 2  # a directory, not a file
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    assert main(["run", str(tmp_path / "binary.json")]) == 2


@pytest.mark.parametrize(
    "raised, category, code",
    [(np.linalg.LinAlgError("Singular matrix"), "NumericError", 3), (MemoryError(), "ResourceError", 4)],
)
def test_numpy_failures_categorized(tmp_path, monkeypatch, capsys, raised, category, code):
    import conflab.experiments as ex

    def failing_runner(spec, outdir):
        raise raised

    monkeypatch.setitem(ex._RUNNERS, "flat-identity", failing_runner)
    doc = dict(SMALL_FLAT, output_dir=str(tmp_path / "out"))
    assert main(["run", str(_write_spec(tmp_path, doc))]) == code
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    assert report["stages"]["error"]["type"] == category


# coarse settings for a run of each experiment on a 3-torus
TORUS3_SPECS = {
    "flat-identity": {"graph": {"spacing": 0.5, "eps": 1.5, "eps_schedule": [2.5, 2.0, 1.5],
                                "pairs": 6, "refine_pairs": 3}},
    "sphere-bubble": {"budgets": {"curvature_samples": 50}},
    "log-cusp": {},
    "burago": {},
    "schrodinger": {"budgets": {"shape": [8, 8, 8], "decomp_shape": [8, 8, 8]}},
    "custom": {"weight": {"kind": "constant", "value": 0.1}, "budgets": {"ball": 500, "mass": 1000}},
}


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_every_experiment_on_a_3_torus_ends_in_a_categorised_exit(tmp_path, capsys, name):
    doc = dict(TORUS3_SPECS[name], name=name, seed=3, output_dir=str(tmp_path / "out"),
               manifold={"kind": "torus", "dim": 3})
    rc = main(["run", str(_write_spec(tmp_path, doc))])
    assert rc in (0, 1, 2)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is (rc == 0)
    if name in ("log-cusp", "burago"):
        # their probes are written for n = 2: rejected before any work
        assert rc == 2
        assert report["stages"]["error"]["type"] == "InputError"
        assert "2-dimensional" in report["stages"]["error"]["message"]
    if name == "flat-identity":
        # judged against the 3-ball constant 3 omega_3^{1/3}, not 2 sqrt(pi)
        (iso,) = [f for f in report["flags"] if f["criterion"] == "C10-flat-discs"]
        assert iso["pass"] and iso["value"] <= 1e-12


@pytest.mark.parametrize(
    "manifold",
    [{"kind": "sphere", "dim": 2}, {"kind": "torus", "dim": 2}, {"kind": "torus", "dim": 3, "periods": [2.2, 2.2, 3.0]}],
    ids=["sphere", "2-torus", "unequal-periods"],
)
def test_schrodinger_rejects_a_manifold_other_than_a_cubic_3_torus(tmp_path, capsys, manifold):
    doc = dict(TORUS3_SPECS["schrodinger"], name="schrodinger", seed=1,
               output_dir=str(tmp_path / "out"), manifold=manifold)
    assert main(["run", str(_write_spec(tmp_path, doc))]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    assert report["stages"]["error"]["type"] == "InputError"
    assert "3-torus with equal periods" in report["stages"]["error"]["message"]


def test_huge_constant_potential_has_constant_ground_state():
    # V = 1e20 swamps the Laplacian; the constant start vector is already exact
    geom = GridGeometry(Manifold.torus(2), (8, 8))
    s = lowest_eigenpair(GridOperator(geom, np.full(64, 1e20)))
    assert s.lambda0 == pytest.approx(-1e20, rel=1e-12)
    assert s.phi.min() > 0


@pytest.mark.parametrize(
    "call, words",
    [
        (lambda t2: build_manifold({"kind": "cone"}), "unknown manifold kind 'cone'"),
        (lambda t2: converge_compare([DistanceMatrix(np.array([0]), np.array([0]),
                                                     np.zeros((1, 1)))], labels=["a"]),
         "at least two matrices"),
        (lambda t2: weak_star_test(t2, [("ell=1", BuragoTorus(1))], ["bump"]),
         "unknown test function 'bump'"),
        (lambda t2: weak_star_test(t2, [("ell=1", BuragoTorus(1))], [2.0]),
         "unknown test function 2.0"),
        (lambda t2: weak_star_test(t2, [("ell=1", BuragoTorus(1))], [("cos",)]),
         r"unknown test function \('cos',\)"),
        (lambda t2: weak_star_test(t2, [("ell=1", BuragoTorus(1))], [("cos", "ab")]),
         "wave vector must be numbers"),
        (lambda t2: weak_star_test(t2, [("ell=1", BuragoTorus(1))], [("cos", [1.0, 0.0, 0.0])]),
         "needs a 2-vector k"),
        (lambda t2: weak_star_test(Manifold.sphere(2), [("zero", Constant(0.0))], ["1"]), "tori only"),
    ],
    ids=["cone-manifold", "one-matrix", "bump-test-function", "number-test-function",
         "cos-without-k-test-function", "cos-text-k-test-function", "cos-3-vector-test-function",
         "weak-star-off-a-torus"],
)
def test_experiments_reject_bad_inputs(torus2, call, words):
    with pytest.raises(InputError, match=words):
        call(torus2)


def test_ainfty_without_a_weight_runs_burago_with_ell_one(tmp_path):
    out = tmp_path / "ai"
    assert main(["ainfty", "--seed", "3", "--output-dir", str(out), "--budget", "2000"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["spec"]["weight"] == {"kind": "burago", "ell": 1}
