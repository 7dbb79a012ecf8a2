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
from .experiments import SETTINGS, ExperimentSpec, RunReport, run, setting_type


def _json(text: str, what: str):
    """The JSON document in text; InputError naming what if it is malformed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON {what}: {exc}") from exc


def _read_spec(path: str):
    """The JSON document at path."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read spec file {path}: {exc}") from exc
    return _json(text, f"spec {path}")


# wrapper command -> (its experiment, help, {flag (argparse dest): the spec
# entry it sets}); a "section.key" entry is a setting in SETTINGS, and
# "weight" the spec's weight (custom's descriptor, else its settings), as JSON
WRAPPERS = {
    "dist": ("flat-identity", "flat-identity distance experiment",
             {"spacing": "graph.spacing", "eps": "graph.eps", "eps_schedule": "graph.eps_schedule"}),
    "ainfty": ("custom", "weight comparability diagnostics",
               {"weight": "weight", "q": "diagnostics.q", "p": "diagnostics.p",
                "eta": "diagnostics.eta", "budget": "budgets.ball"}),
    "curv": ("sphere-bubble", "sphere-bubble curvature experiment",
             {"weight": "weight", "r0": "diagnostics.R0"}),
    "stablenorm": ("burago", "oscillating-torus stable norms (--spacing: the lattice of the "
                   "frequency-convergence graphs)", {"spacing": "graph.spacing"}),
    "schrod": ("schrodinger", "Schrödinger grid suite", {}),
}


def _doc_from_flags(args) -> dict:
    name, _, flags = WRAPPERS[args.command]
    doc = {
        "name": name,
        "seed": args.seed,
        "output_dir": args.output_dir,
        "manifold": _json(args.manifold, "--manifold") if args.manifold else {},
    }
    for dest, entry in flags.items():
        value = getattr(args, dest)
        if value in (None, ""):
            continue
        if entry == "weight":
            doc["weight"] = _json(value, "--weight")
        else:
            section, key = entry.split(".")
            doc.setdefault(section, {})[key] = value
    if name == "custom" and not doc.get("weight"):
        doc["weight"] = {"kind": "burago", "ell": 1}
    return doc


def _parse(args) -> ExperimentSpec:
    """The spec of the command line: the spec file of ``run``, else the
    wrapper's flags, with CONF_LAB_OUT as its output_dir when set.  A spec
    that cannot be read or parsed, or that ExperimentSpec.from_dict
    rejects, still gets a report.json naming the error, in CONF_LAB_OUT,
    else the output_dir the spec names, else a wrapper's --output-dir (when
    its flags do not parse), when that is a string."""
    out = os.environ.get("CONF_LAB_OUT", getattr(args, "output_dir", None))
    doc = None
    try:
        doc = _read_spec(args.spec) if args.command == "run" else _doc_from_flags(args)
        if isinstance(doc, dict) and out is not None:  # a wrapper's doc already holds --output-dir
            doc["output_dir"] = out
        return ExperimentSpec.from_dict(doc)
    except InputError as exc:
        if isinstance(doc, dict):
            out = doc.get("output_dir")
        if isinstance(out, str):
            RunReport.failed(doc, exc).write(Path(out))
        raise


def _flag_type(default):
    """The argparse type of a wrapper flag for a setting with this default:
    the setting type's conversion, of each comma-separated entry for a list."""
    convert = setting_type(default).convert
    if not isinstance(default, tuple):
        return convert

    def comma_list(text: str) -> list:
        return list(convert(text.split(",")))

    return comma_list


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conflab",
        description="conformal metric-measure laboratory: distances, weights, "
        "curvature pinching and Schrödinger diagnostics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an experiment spec (JSON document)")
    runp.add_argument("spec", help="path to the spec JSON")

    for command, (name, help_text, flags) in WRAPPERS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output-dir", default="conflab-out")
        sp.add_argument("--manifold", help="JSON manifold descriptor", default=None)
        for dest, entry in flags.items():
            flag = "--" + dest.replace("_", "-")
            if entry == "weight":
                sp.add_argument(flag, help=f"JSON weight {'descriptor' if name == 'custom' else 'settings'}")
            else:
                section, key = entry.split(".")
                sp.add_argument(flag, type=_flag_type(SETTINGS[name][section][key]), help=f"sets {entry}")
    return ap


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
