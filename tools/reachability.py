"""List the functions of src/conflab that no run reaches, the defaulted
parameters that no run sets, and the dataclass and NamedTuple fields that no
run reads.

Makes twelve runs through ``cli.main`` under one ``sys.setprofile`` hook:
the five canonical specs of tests/test_acceptance.py, a ``log-cusp`` spec
on a 4x4 lattice, whose eps-graph wraps the lattice and so comes from the
kd-tree, ``conflab ainfty`` on a sphere of radius 2 with a bubble and on
the unit sphere with a shifted constant weight, ``conflab dist`` with a
list-valued ``--eps-schedule``, ``custom`` specs on a cubic and on a
multilinear grid weight on a box, which the tool writes with
``grid_from_field``/``write_grid``, and a rejected ``custom`` spec, which
must end with exit code 2.  Then prints each function (methods and nested
functions too) whose code never ran and that ``KEPT`` does not name, as
``module.func``; each defaulted parameter of a function that ran which no
call bound to another value (not the default object itself, and not of its
type and equal to it) and that ``KEPT`` does not name, as
``module.func(param)``; each field of a dataclass or NamedTuple class
defined in src/conflab that no run read and that ``KEPT`` does not name, as
``module.Class.field``; and each ``KEPT`` entry that names none of these.
Exits 1 if it prints anything.  A field read counts however it is made: by
attribute, through a subclass, or by ``asdict``, ``replace`` and the
generated ``__eq__`` and ``__hash__``; only the tool's own comparisons of
values with defaults do not count.  Run from the repository root:

    python tools/reachability.py
"""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "conflab"

SPECS = [
    {"name": "flat-identity", "seed": 2026, "graph": {
        "spacing": 0.05, "eps": 0.15, "eps_schedule": [0.3, 0.15, 0.075],
        "pairs": 50, "refine_pairs": 50}},
    {"name": "sphere-bubble", "seed": 2026, "weight": {"lams": [1.0, 2.0, 10.0, 100.0]},
     "diagnostics": {"R0": 0.5}, "budgets": {"curvature_samples": 1000}},
    {"name": "log-cusp", "seed": 2026, "weight": {"caps": [2.0, 4.0, 8.0], "r0": 0.75},
     "graph": {"spacing": 0.08}},
    {"name": "log-cusp", "seed": 1, "graph": {"spacing": 1.6}},
    {"name": "burago", "seed": 2026, "graph": {"spacing": 0.06}},
    {"name": "schrodinger", "seed": 2026,
     "budgets": {"shape": [12, 12, 12], "decomp_shape": [10, 10, 10]}},
]

# functions no run reaches, defaulted parameters no run sets and fields no
# run reads, kept on purpose: qualified name (a class keeps its methods and
# fields, a function its nested functions), or name(parameter) -> why
ITEM4 = "exact curvature of torus and box fields (ROADMAP item 4's ||scal|| column)"
CHAIN = "the chain-ball estimator, a documented convention"
FD = "finite-difference curvature, the reference the exact derivatives are tested against"
TRACER = "a work count that perfbench's tracer reads (ROADMAP item 7 makes it a counter)"
PINNED = "its work sits inside a CI-gated perfbench call pin (ROADMAP item 1 drops it)"
SPLIT = "the split itself, which the orbit-reuse tests compare against a direct solve"
KEPT = {
    "curvature._fd_laplacian": FD,
    "curvature.scal_fd_many": FD,
    "curvature.lp_scal_norm.on_points": ITEM4,
    "curvature.PinchingReport.n_centers": TRACER,
    "curvature.PinchingReport.sup_abs": PINNED,
    "diagnostics.BoxDomain": "box domains of the isoperimetric sweep (ROADMAP item 5)",
    "diagnostics._box_boundary_quadrature": "box perimeters (ROADMAP item 5)",
    "diagnostics.StrongRatioResult.n_pairs": TRACER,
    "diagnostics.StrongRatioResult.theta_strong_mid": PINNED,
    "manifold.PointSet.cell_volume": "node masses of metric balls (ROADMAP item 17)",
    "metric.build_graph(estimator)": CHAIN,
    "metric.ChainBall": CHAIN,
    "metric._chain_weights": CHAIN,
    "metric.EpsGraph.edge_i": TRACER,
    "schrodinger.SchrodingerSolve.iterations": TRACER,
    "schrodinger.GsShiftResult.evaluations": TRACER,
    "schrodinger.DecompositionResult.f": SPLIT,
    "schrodinger.DecompositionResult.w": SPLIT,
    "weight.WeightField": "the field interface: defaults for fields that lack a feature",
    "weight.Constant.grad_lap_many": ITEM4,
    "weight.BuragoTorus.grad_lap_many": ITEM4,
    "weight.LogCusp.grad_lap_many": ITEM4,
    "weight.Sum.grad_lap_many": ITEM4,
}


# a constant sphere weight with a shift, the sum of two constants: its ball
# masses take the colatitude rule through Sum's radial_axis (its first
# summand's axis) and the summands' profiles
SHIFTED_CONSTANT = '{"kind": "scaled", "base": {"kind": "constant", "value": 0.1}, "shift": 0.2}'


def load() -> list:
    """Import every module of conflab, under the hook, so that code run at
    import counts too."""
    sys.path.insert(0, str(SRC.parent))
    return [importlib.import_module(f"conflab.{path.stem}") for path in sorted(SRC.glob("*.py"))
            if path.stem != "__init__"]


def run_all(out: Path) -> None:
    """Make the runs."""
    from conflab import cli
    from conflab.manifold import Manifold
    from conflab.weight import LogCusp, grid_from_field, write_grid

    box = Manifold.box([[0.0, 2.0], [0.0, 2.0]])
    write_grid(grid_from_field(box, LogCusp((1.0, 1.0), 0.4, 3.0), (33, 33)), out / "grid.json")
    grid = {"name": "custom", "seed": 1, "manifold": {"kind": "box", "extents": [[0, 2], [0, 2]]},
            "weight": {"kind": "grid", "path": str(out / "grid.json"), "order": 3},
            "budgets": {"ball": 2000, "mass": 2000}}
    linear = dict(grid, weight=dict(grid["weight"], order=1))
    rejected = {"name": "custom", "seed": 1, "weight": 3}
    argvs = [["ainfty", "--seed", "1", "--budget", "2000", "--output-dir", str(out / "ainfty"),
              "--manifold", '{"kind": "sphere", "radius": 2.0}',
              "--weight", '{"kind": "sphere-bubble", "lam": 2}'],
             ["ainfty", "--manifold", '{"kind": "sphere"}', "--weight", SHIFTED_CONSTANT,
              "--budget", "2000", "--output-dir", str(out / "ainfty-scaled")],
             ["dist", "--spacing", "0.1", "--eps", "0.3", "--eps-schedule", "0.9,0.54,0.3",
              "--output-dir", str(out / "dist")]]
    for k, doc in enumerate([*SPECS, grid, linear, rejected]):
        path = out / f"spec{k}.json"
        path.write_text(json.dumps(dict(doc, output_dir=str(out / f"{doc['name']}{k}"))))
        argvs.append(["run", str(path)])
    for argv in argvs:
        # the rejected spec, run last, must exit 2; 1 is a finished run with a failed flag
        codes = (2,) if argv is argvs[-1] else (0, 1)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if cli.main(argv) not in codes:
                raise SystemExit(f"conflab {' '.join(argv)} did not end with exit code {codes}")


def functions(path: Path):
    """(qualified name, first line, names of the defaulted parameters) of
    every def in path, decorators included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    a = child.args
                    positional = a.posonlyargs + a.args
                    defaulted = [p.arg for p in positional[len(positional) - len(a.defaults):]]
                    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                    yield name, min([child.lineno] + [d.lineno for d in child.decorator_list]), defaulted
                yield from walk(child, name)
    yield from walk(ast.parse(path.read_text()), path.stem)


def defaults_of(frame, name: str, params) -> dict:
    """{parameter: default} of the function running in frame, found by its
    qualified name in its module (no defaulted src function is nested)."""
    obj = frame.f_globals
    for part in frame.f_code.co_qualname.split("."):
        obj = (obj if isinstance(obj, dict) else vars(obj)).get(part)
    fn = getattr(obj, "__func__", obj)  # staticmethod, classmethod
    if getattr(fn, "__code__", None) is not frame.f_code:
        raise SystemExit(f"cannot find the function object of {name}")
    signature = inspect.signature(fn)
    return {p: signature.parameters[p].default for p in params}


class FieldReads:
    """(class, field) of each read of a field of a dataclass or NamedTuple
    class defined in the watched modules, recorded while ``watching`` them
    and not ``paused``.  A read through a subclass counts for each class in
    its MRO that has the field."""

    def __init__(self):
        self.fields = {}  # class -> names of its fields
        self.read = set()
        self.paused = False

    @contextlib.contextmanager
    def watching(self, modules):
        """Wrap the ``__getattribute__`` of every such class of modules, and
        restore it on exit."""
        for mod in modules:
            for cls in vars(mod).values():
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                if "__getattribute__" in vars(cls):  # it would be lost on restore
                    raise SystemExit(f"{cls.__qualname__} defines its own __getattribute__")
                if dataclasses.is_dataclass(cls):
                    self.fields[cls] = tuple(f.name for f in dataclasses.fields(cls))
                elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
                    self.fields[cls] = cls._fields
        fields, read = self.fields, self.read

        def __getattribute__(obj, name):
            if not self.paused:
                read.update((c, name) for c in type(obj).__mro__ if name in fields.get(c, ()))
            return object.__getattribute__(obj, name)

        for cls in fields:
            cls.__getattribute__ = __getattribute__
        try:
            yield
        finally:
            for cls in fields:
                del cls.__getattribute__

    def unread(self) -> list:
        """module.Class.field of every field that no read recorded."""
        return [f"{cls.__module__.removeprefix('conflab.')}.{cls.__qualname__}.{name}"
                for cls, names in self.fields.items() for name in names if (cls, name) not in self.read]


def is_default(value, default) -> bool:
    """Whether a call left a parameter at its default: the value is the
    default object itself, or of the same type and == to it."""
    if value is default:
        return True
    if type(value) is not type(default):
        return False
    try:
        return bool(value == default)
    except (TypeError, ValueError):  # no single truth value, as for arrays
        return False


def main() -> int:
    defs = {(str(path), line): (name, params) for path in sorted(SRC.glob("*.py"))
            for name, line, params in functions(path)}
    watched = {}  # code object -> (def key, {defaulted parameter: default})
    moved = defaultdict(set)  # def key -> defaulted parameters some call set to another value
    reads = FieldReads()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code not in watched:
            key = (str(Path(code.co_filename).resolve()), code.co_firstlineno)
            name, params = defs.get(key, (None, ()))
            watched[code] = key, defaults_of(frame, name, params) if params else {}
        key, defaults = watched[code]
        if defaults:
            values = frame.f_locals
            reads.paused = True  # comparing a value with a default reads no field for a run
            moved[key].update(p for p, d in defaults.items() if not is_default(values[p], d))
            reads.paused = False

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)
        try:
            with reads.watching(load()):
                run_all(Path(tmp))
        finally:
            sys.setprofile(None)
    ran = {key for key, _ in watched.values()}
    idle = [name for key, (name, _) in defs.items() if key not in ran]
    at_default = [f"{name}({p})" for key, (name, params) in defs.items() if key in ran
                  for p in params if p not in moved[key]]
    kept = lambda name, k: name == k or name.startswith(k + ".")
    kept_names = [k for k in KEPT if not k.endswith(")")]
    unread = reads.unread()
    unreached = [name for name in idle + unread if not any(kept(name, k) for k in kept_names)]
    constant = [name for name in at_default if name not in KEPT]
    stale = [k for k in kept_names if not any(kept(name, k) for name in idle + unread)]
    stale += [k for k in KEPT if k.endswith(")") and k not in at_default]
    for name in unreached + constant:
        print(name)
    for k in stale:
        print(f"KEPT entry {k} names no function that stayed idle, parameter that kept its default "
              f"or field that no run read")
    return 1 if unreached or constant or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
