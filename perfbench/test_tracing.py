"""Self-test of the layer tracing: exact counts, full coverage, transparency.

Each workload runs at the acceptance seed once untraced and twice traced,
through the benchmark's own workers, so a workload costs about three of its
runs (a few minutes in all):

    python3 -m pytest perfbench/test_tracing.py -k schrodinger
"""

import sys

import pytest

from run import ROOT, measure
from tracing import Tracer
from workloads import LAYERS

SEED = 2026

# calls measured at the acceptance seed
PINNED = {
    "schrodinger": {
        "schrodinger.splu": 1162,
        "schrodinger.lowest_eigenpair": 391,
        "schrodinger.gs_shift_c0": 126,
    },
    "sphere-bubble": {"weight.radial_ball_integral": 848},
    "burago": {
        "manifold.sample_ball": 2033,
        "weight.mu_f_ball": 1923,
        "metric.build_graph": 17,
    },
    "flat-identity": {"manifold.sample_ball": 207, "metric.build_graph": 5},
}


def _namespaces():
    """Identity of every name in every conflab module."""
    sys.path.insert(0, str(ROOT / "src"))
    import conflab  # noqa: F401  (loads every module)

    mods = [m for k, m in sys.modules.items() if k == "conflab" or k.startswith("conflab.")]
    return {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}


def test_tracer_rebinds_every_copy_and_restores_it():
    before = _namespaces()
    import conflab.curvature as cv
    import conflab.manifold as mf
    import conflab.metric as mt
    import conflab.schrodinger as sc

    splu, sample_ball, reweight = sc.splu, mf.sample_ball, mt.EpsGraph.reweight
    with Tracer():
        assert sc.splu is not splu
        assert mt.EpsGraph.reweight is not reweight
        # the copy made by ``from .manifold import sample_ball`` is rebound too
        assert cv.sample_ball is mf.sample_ball is not sample_ball
    assert _namespaces() == before
    assert mt.EpsGraph.reweight is reweight


def _counts(layers):
    """Everything a traced run records except the times."""
    return {
        name: {k: v for k, v in st.items() if not k.endswith("_s")}
        for name, st in layers.items()
    }


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_counts_repeat_and_tracing_is_transparent(workload):
    plain = measure(workload, SEED, 0, trace=False)
    first = measure(workload, SEED, 0, trace=True)
    second = measure(workload, SEED, 0, trace=True)
    for record in (plain, first, second):
        assert record["failed"] == 0, record["call"]
        assert all(record["seed_sensitive_flags"].values()), record["call"]
    digests = {r["call"]["report_sha256"] for r in (plain, first, second)}
    assert len(digests) == 1, digests
    assert _counts(first["layers"]) == _counts(second["layers"])
    for name, calls in PINNED[workload].items():
        assert first["layers"][name]["calls"] == calls, name
    missed = [name for name in LAYERS[workload] if first["layers"][name]["calls"] == 0]
    assert not missed, f"layers never called on {workload}: {missed}"
