"""conflab: numerical laboratory for conformal metric-measure geometry.

Background geometries (flat tori, boxes, round spheres) carry log-conformal
factor fields f; the package computes the deformed measures e^{nf} dmu0 and
distances, scalar-curvature pinching functionals, the comparability
diagnostics of Muckenhoupt type, and grid Schrödinger machinery (lowest
eigenpairs, eigenvalue-zeroing shifts, log-gradient fixed points, ground
state decompositions), together with five canonical experiments.
"""

from .manifold import BallSpec, Manifold, PointSet, lattice, sample_ball
from .weight import (
    BuragoTorus,
    Constant,
    GridField,
    GridWeight,
    LogCusp,
    SphereBubble,
    Sum,
    mu_f_ball,
    total_mass,
)
from .curvature import alpha_n2, lp_scal_norm, pinching_profile, scalar_curvature_many
from .metric import (
    ChainBall,
    DistanceMatrix,
    EpsGraph,
    RiemannLine,
    build_graph,
    refine_distance,
    shortest_paths,
    stable_norm,
)
from .diagnostics import (
    AInftyReport,
    BallSampler,
    ainfty_report,
    ap_product,
    biholder_fit,
    doubling_constant,
    isoperimetric_ratio,
    reverse_holder,
    strong_ratio,
    subset_ratio_exponent,
)
from .schrodinger import (
    GridGeometry,
    GridOperator,
    decompose_ground_state,
    gs_shift_c0,
    log_gradient_fixedpoint,
    lowest_eigenpair,
)
from .experiments import ExperimentSpec, converge_compare, run, weak_star_test

__version__ = "0.1.0"
