"""The canonical experiments the benchmark runs, at the acceptance-test specs.

Each workload is one ``conflab.experiments.run(spec)`` call.  The specs are
those of the session fixtures in ``tests/test_acceptance.py``; only the seed
varies, and it comes from the command line.
"""

SPECS = {
    "flat-identity": {
        "graph": {
            "spacing": 0.05,
            "eps": 0.15,
            "eps_schedule": [0.3, 0.15, 0.075],
            "pairs": 50,
            "refine_pairs": 50,
        },
    },
    "burago": {
        "graph": {"spacing": 0.06},
    },
    "sphere-bubble": {
        "weight": {"lams": [1.0, 2.0, 10.0, 100.0]},
        "diagnostics": {"R0": 0.5},
        "budgets": {"curvature_samples": 1000},
    },
    "schrodinger": {
        "budgets": {"shape": [12, 12, 12], "decomp_shape": [10, 10, 10]},
    },
}

# acceptance flags each experiment must emit, all passing
FLAGS = {
    "flat-identity": (
        "C1-pairs", "C1-extrapolated", "C2-distances", "C2-diagnostics",
        "C11-constant", "C10-flat-discs",
    ),
    "burago": (
        "C5-e2", "C5-e1", "C6-rate", "C6-weak-star", "C7-ap", "C7-strong",
        "C11-burago", "C10-burago",
    ),
    "sphere-bubble": ("C3-curvature", "C3-mass", "C4-concentration", "C4-monotone"),
    "schrodinger": (
        "C9-zero", "C9-shift", "C9-dense", "C9-shift-c0", "C9-fixed-point",
        "C9-decomposition",
    ),
}

# flags whose verdict at one seed is a draw of the experiment's own
# randomness rather than a check of the code: at the acceptance spec
# ``C6-rate`` (a ratio of two maxima over 12 random nodes against 0.65) and
# ``C6-weak-star`` (six Monte Carlo integrals, each within 3 sigma) fail at
# about one seed in five, while seeds 2026 and 7 pass.  Each run must still
# emit them; whether they pass is recorded and printed but does not count
# as a failed operation, so the gate does not depend on the seed drawn.
SEED_SENSITIVE = {"burago": ("C6-rate", "C6-weak-star")}

# traced layers each workload must reach at least once; a layer missing
# here that the workload does reach is fine, one listed but never called
# means a rebinding was missed
LAYERS = {
    "flat-identity": (
        "experiments.run", "manifold.lattice", "manifold.geodesic_points",
        "manifold.sample_ball", "metric.build_graph", "metric.EpsGraph.reweight",
        "metric.shortest_paths", "metric.refine_distance", "weight.mu_f_ball",
        "diagnostics.strong_ratio", "diagnostics.reverse_holder",
        "diagnostics.ap_product", "diagnostics.doubling_constant",
        "diagnostics.isoperimetric_ratio",
    ),
    "burago": (
        "experiments.run", "experiments.weak_star_test", "manifold.lattice",
        "manifold.geodesic_points", "manifold.sample_ball", "manifold.sample_manifold",
        "metric.build_graph", "metric.EpsGraph.reweight", "metric.shortest_paths",
        "metric.stable_norm", "weight.mu_f_ball", "weight.total_mass",
        "diagnostics.strong_ratio", "diagnostics.reverse_holder",
        "diagnostics.ap_product", "diagnostics.isoperimetric_ratio",
    ),
    "sphere-bubble": (
        "experiments.run", "manifold.lattice", "manifold.sample_manifold",
        "weight.radial_ball_integral", "weight.total_mass",
        "curvature.pinching_profile", "curvature.lp_scal_norm",
        "curvature.scalar_curvature_many",
    ),
    "schrodinger": (
        "experiments.run", "schrodinger.lowest_eigenpair", "schrodinger.splu",
        "schrodinger.gs_shift_c0", "schrodinger.log_gradient_fixedpoint",
        "schrodinger.decompose_ground_state",
    ),
}


def spec_doc(workload: str, seed: int) -> dict:
    """The experiment spec document for one workload and seed.

    The output directory, relative to the checkout, is fixed per workload
    and seed, so every run of one seed, traced or not, must write a
    byte-identical report.json.
    """
    return dict(
        SPECS[workload], name=workload, seed=seed, output_dir=f".perfbench/out/{workload}-{seed}"
    )
