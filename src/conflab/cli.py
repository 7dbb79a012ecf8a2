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
from .experiments import ExperimentSpec, run


def _load_spec(path: str) -> ExperimentSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read spec file {path}: {exc}") from exc
    if "CONF_LAB_OUT" in os.environ:
        doc["output_dir"] = os.environ["CONF_LAB_OUT"]
    return ExperimentSpec.from_dict(doc)


def _spec_from_flags(name: str, args) -> ExperimentSpec:
    doc = {
        "name": name,
        "seed": args.seed,
        "output_dir": os.environ.get("CONF_LAB_OUT", args.output_dir),
        "manifold": json.loads(args.manifold) if args.manifold else {},
        "weight": json.loads(args.weight) if args.weight else {},
        "graph": {},
        "diagnostics": {},
        "budgets": {},
    }
    if getattr(args, "spacing", None) is not None:
        doc["graph"]["spacing"] = args.spacing
    if getattr(args, "eps", None) is not None:
        doc["graph"]["eps"] = args.eps
    if getattr(args, "eps_schedule", None):
        doc["graph"]["eps_schedule"] = [float(e) for e in args.eps_schedule.split(",")]
    if getattr(args, "r0", None) is not None:
        doc["diagnostics"]["R0"] = args.r0
    if getattr(args, "eta", None) is not None:
        doc["diagnostics"]["eta"] = args.eta
    if getattr(args, "q", None) is not None:
        doc["diagnostics"]["q"] = args.q
    if getattr(args, "p", None) is not None:
        doc["diagnostics"]["p"] = args.p
    if getattr(args, "budget", None) is not None:
        doc["budgets"]["ball"] = args.budget
    return ExperimentSpec.from_dict(doc)


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output-dir", default="conflab-out")
    sp.add_argument("--manifold", help="JSON manifold descriptor", default=None)
    sp.add_argument("--weight", help="JSON weight descriptor", default=None)


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
    dist.add_argument("--eps-schedule", default=None)

    ain = sub.add_parser("ainfty", help="weight comparability diagnostics")
    _add_common(ain)
    ain.add_argument("--q", type=float, default=None)
    ain.add_argument("--p", type=float, default=None)
    ain.add_argument("--eta", type=float, default=None)
    ain.add_argument("--budget", type=int, default=None)

    curv = sub.add_parser("curv", help="sphere-bubble curvature experiment")
    _add_common(curv)
    curv.add_argument("--r0", type=float, default=None)

    stab = sub.add_parser("stablenorm", help="oscillating-torus stable norms")
    _add_common(stab)
    stab.add_argument("--spacing", type=float, default=None)

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
        if args.command == "run":
            spec = _load_spec(args.spec)
        else:
            name = _WRAPPER_EXPERIMENT[args.command]
            spec = _spec_from_flags(name, args)
            if args.command == "ainfty" and not spec.weight:
                spec.weight = {"kind": "burago", "ell": 1}
        report = run(spec)
    except ConflabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON spec: {exc}", file=sys.stderr)
        return 2
    for flag in report.flags:
        state = "PASS" if flag["pass"] else "FAIL"
        print(f"[{state}] {flag['criterion']}: value={flag['value']} ({flag['threshold']})")
    print(f"report: {Path(spec.output_dir) / 'report.json'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
