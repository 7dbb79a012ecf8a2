import json

import numpy as np
import pytest

from conflab.cli import main
from conflab.errors import InputError, NumericError
from conflab.experiments import ExperimentSpec, converge_compare, run, weak_star_test
from conflab.manifold import Manifold
from conflab.metric import DistanceMatrix
from conflab.schrodinger import GridGeometry, GridOperator, lowest_eigenpair
from conflab.weight import BuragoTorus

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


def test_malformed_spec_exit_code(tmp_path, capsys):
    doc = {"name": "flat-identity", "seed": 1, "graph": {"spacing": 0.1, "eps": 0.2}}
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
    comp = converge_compare([dm, dm, dm])
    assert comp["sup_diffs"] == [0.0, 0.0]


def test_converge_compare_misaligned(torus2):
    a = DistanceMatrix(sources=np.array([0]), targets=np.array([0, 1]), values=np.zeros((1, 2)))
    b = DistanceMatrix(sources=np.array([1]), targets=np.array([0, 1]), values=np.zeros((1, 2)))
    with pytest.raises(InputError):
        converge_compare([a, b])


def test_weak_star_values(torus2):
    rows = weak_star_test(
        torus2,
        [("ell=1", BuragoTorus(1)), ("ell=2", BuragoTorus(2))],
        ["1", ("cos", [1.0, 0.0]), ("bump", [3.0, 3.0], 0.5)],
        budget=300_000,
        seed=5,
    )
    by = {(r["field"], r["testfn"]): r for r in rows}
    r = by[("ell=1", "1")]
    assert abs(r["value"] - 4 * np.pi**2) <= 3 * r["stderr"]
    r = by[("ell=1", "cos(1,0)")]
    assert abs(r["value"] - (-np.pi**2)) <= 3 * r["stderr"]
    r = by[("ell=2", "cos(1,0)")]
    assert abs(r["value"]) <= 3 * r["stderr"]
    assert by[("ell=1", "bump(r=0.5)")]["value"] > 0


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


def test_huge_constant_potential_has_constant_ground_state():
    # V = 1e20 swamps the Laplacian; the constant start vector is already exact
    geom = GridGeometry(Manifold.torus(2), (8, 8))
    s = lowest_eigenpair(GridOperator(geom, np.full(64, 1e20)))
    assert s.lambda0 == pytest.approx(-1e20, rel=1e-12)
    assert s.phi.min() > 0
