"""Command line interface.

Subcommands: ``run <spec.json>`` plus thin wrappers (dist, ainfty, curv,
stablenorm, schrod) exposing the same spec fragments as kebab-cased flags.
Configuration is a single JSON document; the only environment override is
the output directory (CONF_LAB_OUT).  Exit codes: 0 pass, 2 validation,
3 numeric, 4 resource.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConflabError, InputError
from .experiments import ExperimentSpec, RunReport, run


def _json(text: str, what: str):
    """The JSON document in text; InputError naming what if it is malformed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON {what}: {exc}") from exc


def _read_spec(path: str):
    """The JSON document at path, with CONF_LAB_OUT as its output_dir when set."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read spec file {path}: {exc}") from exc
    doc = _json(text, f"spec {path}")
    if "CONF_LAB_OUT" in os.environ and isinstance(doc, dict):
        doc["output_dir"] = os.environ["CONF_LAB_OUT"]
    return doc


# spec section -> {wrapper flag (argparse dest): key in the section}
_FLAG_KEYS = {
    "graph": {"spacing": "spacing", "eps": "eps", "eps_schedule": "eps_schedule"},
    "diagnostics": {"r0": "R0", "eta": "eta", "q": "q", "p": "p"},
    "budgets": {"budget": "ball"},
}


def _doc_from_flags(args) -> dict:
    doc = {
        "name": _WRAPPER_EXPERIMENT[args.command],
        "seed": args.seed,
        "output_dir": os.environ.get("CONF_LAB_OUT", args.output_dir),
        "manifold": _json(args.manifold, "--manifold") if args.manifold else {},
        "weight": _json(args.weight, "--weight") if getattr(args, "weight", None) else {},
    }
    if args.command == "ainfty" and not doc["weight"]:
        doc["weight"] = {"kind": "burago", "ell": 1}
    for section, keys in _FLAG_KEYS.items():
        flags = {key: getattr(args, dest, None) for dest, key in keys.items()}
        doc[section] = {key: value for key, value in flags.items() if value is not None}
    return doc


def _parse(args) -> ExperimentSpec:
    """The spec of the command line: the spec file of ``run``, else the
    wrapper's flags.  A spec that cannot be read or parsed, or that
    ExperimentSpec.from_dict rejects, still gets a report.json naming the
    error, in CONF_LAB_OUT or else the output_dir the spec names (a
    wrapper's --output-dir when its flags do not parse), when either is a
    string."""
    doc = None
    try:
        doc = _read_spec(args.spec) if args.command == "run" else _doc_from_flags(args)
        return ExperimentSpec.from_dict(doc)
    except InputError as exc:
        out = os.environ.get(
            "CONF_LAB_OUT",
            doc.get("output_dir") if isinstance(doc, dict) else getattr(args, "output_dir", None),
        )
        if isinstance(out, str):
            RunReport.failed(doc, exc).write(Path(out))
        raise


def _float_list(text: str) -> list:
    return [float(e) for e in text.split(",")]


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output-dir", default="conflab-out")
    sp.add_argument("--manifold", help="JSON manifold descriptor", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conflab",
        description="conformal metric-measure laboratory: distances, weights, "
        "curvature pinching and Schrödinger diagnostics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an experiment spec (JSON document)")
    runp.add_argument("spec", help="path to the spec JSON")

    dist = sub.add_parser("dist", help="flat-identity distance experiment")
    _add_common(dist)
    dist.add_argument("--spacing", type=float, default=None)
    dist.add_argument("--eps", type=float, default=None)
    dist.add_argument("--eps-schedule", type=_float_list, default=None)

    ain = sub.add_parser("ainfty", help="weight comparability diagnostics")
    _add_common(ain)
    ain.add_argument("--weight", help="JSON weight descriptor", default=None)
    ain.add_argument("--q", type=float, default=None)
    ain.add_argument("--p", type=float, default=None)
    ain.add_argument("--eta", type=float, default=None)
    ain.add_argument("--budget", type=int, default=None)

    curv = sub.add_parser("curv", help="sphere-bubble curvature experiment")
    _add_common(curv)
    curv.add_argument(
        "--weight", help='JSON weight settings, e.g. {"lams": [1, 2, 10, 100]}', default=None
    )
    curv.add_argument("--r0", type=float, default=None)

    stab = sub.add_parser("stablenorm", help="oscillating-torus stable norms")
    _add_common(stab)
    stab.add_argument(
        "--spacing", type=float, default=None,
        help="graph.spacing: the lattice of the frequency-convergence graphs "
        "(not of the stable norms)",
    )

    schrod = sub.add_parser("schrod", help="Schrödinger grid suite")
    _add_common(schrod)
    return ap


_WRAPPER_EXPERIMENT = {
    "dist": "flat-identity",
    "ainfty": "custom",
    "curv": "sphere-bubble",
    "stablenorm": "burago",
    "schrod": "schrodinger",
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _parse(args)
        report = run(spec)
    except ConflabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    for flag in report.flags:
        state = "PASS" if flag["pass"] else "FAIL"
        print(f"[{state}] {flag['criterion']}: value={flag['value']} ({flag['threshold']})")
    print(f"report: {Path(spec.output_dir) / 'report.json'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
