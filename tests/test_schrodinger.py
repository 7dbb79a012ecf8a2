import warnings

import numpy as np
import pytest
from scipy.sparse import diags

from conflab.errors import InputError, NumericError
from conflab.manifold import Manifold, d0_many, equal_slab_axes, lattice_orbits
from conflab.schrodinger import (
    GridGeometry,
    GridOperator,
    _SHIFT_EIG_TOL,
    _apply,
    _eigenpairs,
    _fixed_points,
    _shifts,
    decompose_ground_state,
    dense_lowest_eigenvalue,
    discrete_grad_square,
    gs_shift_c0,
    log_gradient_fixedpoint,
    lowest_eigenpair,
)

L = 2.2


def _assembled(op):
    """Delta - V as a sparse matrix, built here so that the oracles do not
    go through the solver's own operator product ``_apply``."""
    return (op.geom.laplacian - diags(op.V)).tocsr()


@pytest.fixture(scope="module")
def geom():
    return GridGeometry(Manifold.torus(3, [L, L, L]), (12, 12, 12))


@pytest.fixture(scope="module")
def nodes(geom):
    return geom.nodes()


def test_laplacian_symmetry(geom, rng):
    n = int(np.prod(geom.shape))
    a, b = rng.standard_normal((2, n))
    lhs = np.sum(geom.lap(a) * b) * geom.cell_volume
    rhs = np.sum(a * geom.lap(b)) * geom.cell_volume
    assert abs(lhs - rhs) <= 1e-12


def test_laplacian_kills_constants(geom):
    n = int(np.prod(geom.shape))
    assert np.abs(geom.lap(np.ones(n))).max() <= 1e-12


def test_laplacian_fourier_mode_matches_fft_symbol():
    # anisotropic grid and periods: ties the Kronecker axis order to the FFT
    periods = np.array([2.2, 1.7, 3.0])
    g = GridGeometry(Manifold.torus(3, periods), (12, 8, 10))
    k = (1, 2, 3)
    mode = np.cos(2 * np.pi * g.nodes() @ (np.array(k) / periods))
    assert np.abs(g.lap(mode) - g.symbol[k] * mode).max() <= 1e-11


BOX = Manifold.box([[0.0, 1.0], [0.0, 2.0], [0.0, 1.5]])


@pytest.mark.parametrize(
    "m, shape",
    [(BOX, (12, 9, 10)), (Manifold.torus(3, [2.2, 1.7, 3.0]), (12, 12, 12))],
    ids=["box", "torus"],
)
def test_spectral_symbol_reproduces_stencil(m, shape, rng):
    g = GridGeometry(m, shape)
    u = rng.standard_normal((int(np.prod(shape)), 2))
    lap = g.laplacian @ u
    assert np.abs(g.spectral(u, g.symbol) - lap).max() <= 1e-12 * np.abs(lap).max()
    assert np.abs(g.spectral(u[:, 0], g.symbol) - lap[:, 0]).max() <= 1e-12 * np.abs(lap).max()


def test_box_lap_inverse_is_mean_zero_solution(rng):
    g = GridGeometry(BOX, (12, 9, 10))
    rhs = rng.standard_normal(int(np.prod(g.shape)))
    u = g.lap_inverse(rhs)
    assert abs(u.mean()) <= 1e-10
    assert np.abs(g.lap(u) - (rhs - rhs.mean())).max() <= 1e-10


def test_box_dense_oracle():
    g = GridGeometry(BOX, (8, 9, 10))
    x = g.nodes()
    op = GridOperator(g, 0.4 * np.cos(3.0 * x[:, 0]) + 0.2 * x[:, 1] * x[:, 2])
    s = lowest_eigenpair(op)
    dense = np.linalg.eigvalsh(_assembled(op).toarray())[0]
    assert abs(s.lambda0 - dense) <= 1e-8
    assert s.phi.min() > 0


@pytest.mark.parametrize("m", [BOX, Manifold.torus(3, [2.2, 1.7, 3.0])], ids=["box", "torus"])
@pytest.mark.parametrize("varies", [(0,), (1, 2), (0, 1, 2), ()], ids=["x1", "x2x3", "all", "none"])
def test_reduced_dense_oracle_matches_the_full_matrix(m, varies):
    # the dropped axes' second differences have lowest eigenvalue 0
    g = GridGeometry(m, (8, 9, 10))
    x = g.nodes()
    V = np.full(x.shape[0], 0.3) + sum(0.2 * np.cos(3.0 * x[:, a] + a) for a in varies)
    op = GridOperator(g, V)
    full = np.linalg.eigvalsh(_assembled(op).toarray())[0]
    assert abs(dense_lowest_eigenvalue(op) - full) <= 1e-11


def test_box_neumann_corner_row(rng):
    box = Manifold.box([[0.0, 1.0], [0.0, 2.0], [0.0, 1.5]])
    g = GridGeometry(box, (8, 9, 10))
    u = rng.standard_normal(g.shape)
    h = g.axis_spacing
    corner = sum((u[0, 0, 0] - u[tuple(np.eye(3, dtype=int)[a])]) / h[a] ** 2 for a in range(3))
    assert g.lap(u)[0] == pytest.approx(corner, rel=1e-14)


@pytest.mark.parametrize("m", [BOX, Manifold.torus(3, [2.2, 1.7, 3.0])], ids=["box", "torus"])
def test_grad_forward_matches_hand_written_differences(m, rng):
    g = GridGeometry(m, (8, 9, 10))
    u = rng.standard_normal(g.shape)
    got = g.grad_forward(u.ravel())
    for a, h in enumerate(g.axis_spacing):
        want = np.zeros(g.shape)
        for idx in np.ndindex(*g.shape):
            nxt = list(idx)
            nxt[a] += 1
            if nxt[a] == g.shape[a]:
                if m.kind == "box":
                    continue  # no node past the last one: the difference is 0
                nxt[a] = 0
            want[idx] = (u[tuple(nxt)] - u[idx]) / h
        assert got[a].tobytes() == want.ravel().tobytes()


def test_grid_size_guard():
    with pytest.raises(InputError):
        GridGeometry(Manifold.torus(3, [L, L, L]), (6, 12, 12))


@pytest.mark.parametrize("shape", [(12, 12), (12, 12, 12, 12), 12])
def test_grid_shape_needs_one_entry_per_axis(shape):
    # a shape of the wrong length used to end in a numpy broadcast error,
    # and a scalar in a TypeError
    with pytest.raises(InputError, match="needs 3 entries"):
        GridGeometry(Manifold.torus(3, [L, L, L]), shape)


@pytest.mark.parametrize("shape", [("a", 8, 8), (8.5, 8, 8)], ids=["text", "fraction"])
def test_grid_shape_needs_integer_entries(shape):
    # text used to end in a raw TypeError, and a fraction was accepted
    with pytest.raises(InputError, match="integer >= 8 per axis"):
        GridGeometry(Manifold.torus(3), shape)


def test_zero_potential(geom):
    n = int(np.prod(geom.shape))
    s = lowest_eigenpair(GridOperator(geom, np.zeros(n)))
    assert abs(s.lambda0) <= 1e-10
    assert s.phi.max() - s.phi.min() <= 1e-10
    assert s.phi.min() > 0


def test_constant_potential_shift(geom):
    n = int(np.prod(geom.shape))
    s = lowest_eigenpair(GridOperator(geom, np.full(n, 0.37)))
    assert abs(s.lambda0 + 0.37) <= 1e-8


def test_shift_law(geom, nodes):
    V = 0.1 * np.cos(2 * np.pi * nodes[:, 0] / L)
    l0 = lowest_eigenpair(GridOperator(geom, V)).lambda0
    l1 = lowest_eigenpair(GridOperator(geom, V + 0.5)).lambda0
    assert abs(l1 - (l0 - 0.5)) <= 1e-9


def _residual(op, s):
    """Relative eigen residual ||A phi - lambda phi|| / ||phi|| of a solve."""
    return np.linalg.norm(_assembled(op) @ s.phi - s.lambda0 * s.phi) / np.linalg.norm(s.phi)


def test_dense_oracle(geom, nodes):
    V = 0.15 * np.cos(2 * np.pi * nodes[:, 0] / L)
    op = GridOperator(geom, V)
    s = lowest_eigenpair(op)
    dense = np.linalg.eigvalsh(_assembled(op).toarray())[0]
    assert abs(s.lambda0 - dense) <= 1e-8
    assert _residual(op, s) <= 1e-10
    assert s.phi.min() > 0


def test_dense_oracle_2d_16():
    # separable small cosine on a 16^2 periodic grid against dense LAPACK
    t2 = Manifold.torus(2)
    g2 = GridGeometry(t2, (16, 16))
    x = g2.nodes()
    op = GridOperator(g2, 0.2 * np.cos(x[:, 0]))
    s = lowest_eigenpair(op)
    dense = np.linalg.eigvalsh(_assembled(op).toarray())[0]
    assert abs(s.lambda0 - dense) <= 1e-8


def test_spike_potential_no_factorization(geom, monkeypatch):
    import conflab.schrodinger as sc

    def no_lu(a):
        raise AssertionError("lowest_eigenpair factorized a matrix")

    monkeypatch.setattr(sc, "splu", no_lu)
    V = np.zeros(int(np.prod(geom.shape)))
    V[777] = 100.0
    op = GridOperator(geom, V)
    s = lowest_eigenpair(op)
    dense = np.linalg.eigvalsh(_assembled(op).toarray())[0]
    assert abs(s.lambda0 - dense) <= 1e-8
    assert s.phi.min() > 0
    assert _residual(op, s) <= 1e-10


def test_lowest_eigenpair_assembles_no_matrix(geom, nodes, monkeypatch):
    import conflab.schrodinger as sc

    op = GridOperator(geom, 0.15 * np.cos(2 * np.pi * nodes[:, 0] / L))
    near = GridOperator(geom, 1.01 * op.V)
    dense = [np.linalg.eigvalsh(_assembled(o).toarray())[0] for o in (op, near)]
    geom.laplacian  # the stencil itself is built once per grid, before the patch

    def no_assembly(*args, **kwargs):
        raise AssertionError("lowest_eigenpair assembled a matrix")

    monkeypatch.setattr(sc, "diags", no_assembly)
    monkeypatch.setattr(sc, "csr_matrix", no_assembly)
    cold = lowest_eigenpair(op)
    warm = _eigenpairs(geom, [near.V], [cold.phi], 1e-10)[0]
    assert warm.iterations > 1  # the warm solve took steps, not only its first residual
    assert abs(cold.lambda0 - dense[0]) <= 1e-8
    assert abs(warm.lambda0 - dense[1]) <= 1e-8


def test_eigen_tolerance_miss_is_numeric_error(geom, nodes):
    op = GridOperator(geom, 0.15 * np.cos(2 * np.pi * nodes[:, 0] / L))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            lowest_eigenpair(op, tol=1e-16)


SOLVER_GRIDS = {
    "torus2": (Manifold.torus(2), (12, 10)),
    "torus3": (Manifold.torus(3, [2 * np.pi, 2 * np.pi, 5.0]), (8, 8, 10)),
    "box2": (Manifold.box([[0.0, 3.0], [0.0, 2.5]]), (12, 10)),
    "box3": (Manifold.box([[0.0, 3.0], [0.0, 2.5], [-1.0, 1.0]]), (8, 10, 8)),
}


APPLY_GRIDS = {**SOLVER_GRIDS, "torus3-12": (Manifold.torus(3, [L, L, L]), (12, 12, 12))}


@pytest.mark.parametrize("kind", sorted(APPLY_GRIDS))
def test_apply_matches_the_assembled_operator(kind, rng):
    # two problems with their own potentials, on vectors and on (N, 3) blocks
    geom = GridGeometry(*APPLY_GRIDS[kind])
    n = int(np.prod(geom.shape))
    ops = [GridOperator(geom, rng.standard_normal(n)) for _ in range(2)]
    for shape in ((n,), (n, 3)):
        xs = [rng.standard_normal(shape) for _ in ops]
        for got, op, x in zip(_apply(geom, [op.V for op in ops], xs), ops, xs):
            want = _assembled(op) @ x
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(got).max()


def _smooth_potential(geom, amplitude, rng):
    """White noise damped by (1 + symbol)^{-1}, scaled to max |V| = amplitude."""
    h = geom.spectral(rng.standard_normal(geom.symbol.size), 1.0 / (1.0 + geom.symbol))
    return amplitude * h / np.abs(h).max()


@pytest.mark.parametrize(
    "seed, amplitude", [(1, 1e-2), (2, 0.3), (3, 3.0), (0, 30.0), (4, 30.0), (5, 30.0)]
)
@pytest.mark.parametrize("kind", sorted(SOLVER_GRIDS))
def test_lowest_eigenpair_on_random_potentials(kind, seed, amplitude):
    geom = GridGeometry(*SOLVER_GRIDS[kind])
    rng = np.random.default_rng(seed)
    V = _smooth_potential(geom, amplitude, rng)
    op = GridOperator(geom, V)
    s = lowest_eigenpair(op)
    dense = np.linalg.eigvalsh(_assembled(op).toarray())[0]
    assert abs(s.lambda0 - dense) <= 1e-10 * max(abs(dense), 1.0)
    assert _residual(op, s) <= 1e-10
    assert s.phi.min() > 0
    # a warm start from the ground state of a nearby potential
    near = GridOperator(geom, V + 1e-3 * _smooth_potential(geom, amplitude, rng))
    cold = lowest_eigenpair(near)
    warm = _eigenpairs(geom, [near.V], [s.phi], 1e-10)[0]
    assert warm.iterations < cold.iterations
    assert warm.lambda0 == pytest.approx(cold.lambda0, rel=1e-10, abs=1e-10)


def test_grad_inv_constant_probes_the_lowest_mode():
    # on the 2 pi-torus cos(x_1) is one of the probes, up to round-off; A is a
    # lower bound from such axis modes, not the sup (cos x_1 + cos x_2 is higher)
    values = []
    for s in (8, 12, 16):
        g = GridGeometry(Manifold.torus(3), (s, s, s))
        h = np.cos(g.nodes()[:, 0])
        mode = g.grad_lp_norm(g.lap_inverse(h), 3.0) / g.lp_norm(h, 1.5)
        assert g.grad_inv_constant >= mode * (1.0 - 1e-12)
        values.append(g.grad_inv_constant)
    assert values[2] == pytest.approx(values[1], rel=0.02)


@pytest.mark.parametrize("s, a_est, beta_est", [
    (12, 0.17948434419164835, 4.840000000000001),
    (10, 0.17890793061137206, 4.840000000000002),
])
def test_functional_constants_of_the_acceptance_grids(s, a_est, beta_est):
    # the schrodinger experiment's two grids; its reports carry these floats,
    # so any change to the probes must show up here
    g = GridGeometry(Manifold.torus(3, [L, L, L]), (s, s, s))
    assert g.grad_inv_constant == a_est
    assert g.sobolev_constant == beta_est


def test_box_neumann_constants():
    box = Manifold.box([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    geom = GridGeometry(box, (8, 8, 8))
    n = 512
    assert np.abs(geom.lap(np.ones(n))).max() <= 1e-12
    s = lowest_eigenpair(GridOperator(geom, np.zeros(n)))
    assert abs(s.lambda0) <= 1e-10


def test_gs_shift_signs_and_bracket(geom, nodes):
    c0 = np.full(3, L / 2)
    r0 = 0.8
    mask = geom.ball_mask(c0, r0)
    bump = 0.05 * np.exp(-d0_many(geom.manifold, nodes, c0) ** 2) * mask
    res = gs_shift_c0(geom, bump, c0, r0, tol=1e-8)
    assert res.c0 < 0
    assert res.bracket[0] <= res.c0 <= res.bracket[1]
    # a cold solve at c0, as the C9-shift-c0 criterion judges it
    cold = lowest_eigenpair(GridOperator(geom, -(bump + res.c0 * ~mask)), tol=1e-11)
    assert abs(cold.lambda0) <= 1e-10
    res_neg = gs_shift_c0(geom, -bump, c0, r0, tol=1e-8)
    assert res_neg.c0 > 0
    cold = lowest_eigenpair(GridOperator(geom, bump - res_neg.c0 * ~mask), tol=1e-11)
    assert abs(cold.lambda0) <= 1e-10
    zero = gs_shift_c0(geom, np.zeros_like(bump), c0, r0, tol=1e-8)
    assert abs(zero.c0) <= 1e-8


def _centred_bump(geom, r0):
    """exp(-d^2) on the ball B(centre, r0) of the torus of period L, and
    the ball's mask."""
    c0 = np.full(geom.dim, L / 2)
    mask = geom.ball_mask(c0, r0)
    return np.exp(-d0_many(geom.manifold, geom.nodes(), c0) ** 2) * mask, mask


@pytest.mark.parametrize("amp", [0.05, -0.05, 2.0])
@pytest.mark.parametrize("r0", [0.5, 0.7])
def test_gs_shift_matches_the_dense_root(r0, amp):
    from scipy.linalg import eigvalsh
    from scipy.optimize import brentq

    g8 = GridGeometry(Manifold.torus(3, [L, L, L]), (8, 8, 8))
    bump, mask = _centred_bump(g8, r0)
    q = amp * bump
    res = gs_shift_c0(g8, q, np.full(3, L / 2), r0, tol=1e-10)
    lap = g8.laplacian.toarray()

    def lam(c):
        return eigvalsh(lap + np.diag(q + c * ~mask), subset_by_index=[0, 0])[0]

    oracle = brentq(lam, *res.bracket, xtol=1e-14)
    assert abs(res.c0 - oracle) <= 1e-11
    assert res.evaluations <= 4


@pytest.mark.parametrize("sign", ["positive", "mixed", "negative"])
def test_gs_shift_rises_monotonically_to_its_root(geom, nodes, monkeypatch, sign):
    import conflab.schrodinger as sc

    r0 = 0.8
    bump, _ = _centred_bump(geom, r0)
    q = 0.05 * {"positive": bump, "negative": -bump,
                "mixed": bump * np.cos(2 * np.pi * nodes[:, 0] / L)}[sign]
    seen = []

    def recorded(*args, **kwargs):
        sols = _eigenpairs(*args, **kwargs)
        seen.extend(sol.lambda0 for sol in sols)
        return sols

    monkeypatch.setattr(sc, "_eigenpairs", recorded)
    res = gs_shift_c0(geom, q, np.full(3, L / 2), r0, tol=1e-8)
    assert len(seen) == res.evaluations >= 2
    assert all(lam < 0 for lam in seen[:-1])


def test_gs_shift_bracket_that_misses_the_root_is_numeric_error():
    g12 = GridGeometry(Manifold.torus(3, [L, L, L]), (12, 12, 12))
    # a Sobolev constant this large puts c_hi (about 1.2e-4) below the
    # root of -bump (about 0.0092)
    g12.__dict__["sobolev_constant"] = 1e3
    bump, _ = _centred_bump(g12, 0.8)
    with pytest.raises(NumericError, match="bracket does not straddle zero"):
        gs_shift_c0(g12, -0.05 * bump, np.full(3, L / 2), 0.8, tol=1e-8)


def test_gs_shift_support_guard(geom, nodes):
    c0 = np.full(3, L / 2)
    q = np.full(nodes.shape[0], 0.01)  # supported everywhere
    with pytest.raises(InputError):
        gs_shift_c0(geom, q, c0, 0.5, tol=1e-8)


def test_eigen_batch_is_each_problem_bit_for_bit(geom, nodes):
    x = nodes
    Vs = [
        0.15 * np.cos(2 * np.pi * x[:, 0] / L),
        np.zeros(x.shape[0]),
        3.0 * np.exp(-d0_many(geom.manifold, x, np.full(3, L / 2)) ** 2),
    ]
    alone = [lowest_eigenpair(GridOperator(geom, V)) for V in Vs]
    assert len({s.iterations for s in alone}) == 3  # the members stop at different steps
    # a warm start from a nearby ground state, solved alone
    warm_V, warm_x0 = 1.01 * Vs[0], alone[0].phi
    warm = _eigenpairs(geom, [warm_V], [warm_x0], 1e-10)[0]
    for members in ([0], [0, 1], [2, 0, 1]):
        for warmed in (False, True):
            V = [Vs[j] for j in members] + [warm_V] * warmed
            x0 = [np.ones(x.shape[0]) for _ in members] + [warm_x0] * warmed
            got = _eigenpairs(geom, V, x0, 1e-10)
            for sol, want in zip(got, [alone[j] for j in members] + [warm] * warmed):
                assert np.array_equal(sol.phi, want.phi)
                assert sol.lambda0 == want.lambda0
                assert sol.iterations == want.iterations


def _shift_problems(geom, amps):
    """The bump potentials amp * exp(-d^2) on B(centre, 0.8) and their masks."""
    bump, mask = _centred_bump(geom, 0.8)
    return [amp * bump for amp in amps], [mask] * len(amps)


def _same_shift(got, want):
    return (got.c0 == want.c0 and got.bracket == want.bracket
            and got.evaluations == want.evaluations)


def test_shift_batch_is_each_problem_bit_for_bit(geom, nodes):
    q, masks = _shift_problems(geom, [0.0, 0.05, -0.5, 2.0])
    centre = np.full(3, L / 2)
    alone = [gs_shift_c0(geom, qj, centre, 0.8, tol=1e-8) for qj in q]
    assert len({s.evaluations for s in alone}) >= 3  # different Newton step counts
    for members in ([1], [0, 1], [3, 2, 0, 1]):
        got = _shifts(geom, [q[j] for j in members], [masks[j] for j in members],
                      1e-8, _SHIFT_EIG_TOL)
        assert all(_same_shift(s, alone[j]) for s, j in zip(got, members))


def test_shift_batch_of_the_decomposition_centres(decomposition):
    # the fixture's 25 directly solved centres: one per x3-column of the cover
    from conflab.schrodinger import _cover_centers

    dgeom, op, dec = decomposition
    cover = _cover_centers(dgeom, 0.8)
    reps = np.unique(lattice_orbits(cover.lattice_shape, [2], np.arange(len(cover)))[0])
    assert reps.size == 25
    masks = dgeom.distances(cover.points[reps]) <= 0.8
    q = [-op.V * mask for mask in masks]
    got = _shifts(dgeom, q, masks, 1e-7, _SHIFT_EIG_TOL)
    for s, qj, i in zip(got, q, reps):
        assert _same_shift(s, gs_shift_c0(dgeom, qj, cover.points[i], 0.8, tol=1e-7))


@pytest.mark.parametrize("bad", ["support", "bracket"])
def test_shift_batch_rejects_one_bad_member(nodes, bad):
    g12 = GridGeometry(Manifold.torus(3, [L, L, L]), (12, 12, 12))
    centre = np.full(3, L / 2)
    q, masks = _shift_problems(g12, [0.05, -0.05])
    if bad == "support":
        q[1] = np.full(nodes.shape[0], 0.01)
    else:
        # as in the bracket test: c_hi falls below the root of -bump only
        g12.__dict__["sobolev_constant"] = 1e3
    with pytest.raises((InputError, NumericError)) as solo:
        gs_shift_c0(g12, q[1], centre, 0.8, tol=1e-8)
    with pytest.raises(solo.type) as batch:
        _shifts(g12, q, masks, 1e-8, _SHIFT_EIG_TOL)
    assert str(batch.value) == str(solo.value)


def test_discrete_grad_square_nonnegative(geom, rng):
    v = 0.1 * rng.standard_normal(int(np.prod(geom.shape)))
    assert discrete_grad_square(geom, v).min() >= -1e-14


def test_fixed_point_zero_potential(geom):
    n = int(np.prod(geom.shape))
    fp = log_gradient_fixedpoint(GridOperator(geom, np.zeros(n)))
    assert np.abs(fp.v).max() <= 1e-12
    assert abs(fp.c) <= 1e-12


def test_fixed_point_small_cosine(geom, nodes):
    V = 0.02 * np.cos(2 * np.pi * nodes[:, 0] / L) * np.cos(2 * np.pi * nodes[:, 1] / L)
    op = GridOperator(geom, V)
    fp = log_gradient_fixedpoint(op)
    assert fp.residual_n2 <= 1e-6
    assert fp.dv_norm <= fp.v_norm_bound
    eig = lowest_eigenpair(op, tol=1e-12)
    assert abs(fp.c - eig.lambda0) <= 1e-9
    ratio = np.exp(fp.v) / eig.phi
    assert ratio.max() / ratio.min() - 1.0 <= 1e-6


def test_fixed_point_iterates_monotone(geom, nodes):
    # contraction regime: successive gaps shrink geometrically
    V = 0.02 * np.sin(2 * np.pi * nodes[:, 2] / L)
    op = GridOperator(geom, V)
    gaps = []
    v = np.zeros(V.size)
    for _ in range(6):
        rhs = op.V + discrete_grad_square(geom, v)
        v_new = geom.lap_inverse(rhs)
        gaps.append(geom.lp_norm(v_new - v, 3.0) + geom.grad_lp_norm(v_new - v, 3.0))
        v = v_new
    assert all(gaps[k + 1] <= gaps[k] for k in range(len(gaps) - 1))


def test_fixed_point_threshold_violation(geom, nodes):
    V = 80.0 * np.cos(2 * np.pi * nodes[:, 0] / L)
    with pytest.raises(NumericError):
        log_gradient_fixedpoint(GridOperator(geom, V))


def _spike(geom, share):
    """A one-node potential at ``share`` of the contraction threshold
    1/(8 A^2): far rougher than the axis modes that estimate A."""
    V = np.zeros(int(np.prod(geom.shape)))
    V[0] = 1.0
    return V * share / (8.0 * geom.grad_inv_constant**2 * geom.lp_norm(V, 1.5))


def test_fixed_point_batch_is_each_problem_bit_for_bit(geom, nodes):
    x = nodes
    Vs = [
        0.02 * np.cos(2 * np.pi * x[:, 0] / L) * np.cos(2 * np.pi * x[:, 1] / L),
        0.06 * np.cos(2 * np.pi * x[:, 2] / L),
        _spike(geom, 0.5),
    ]
    alone = [log_gradient_fixedpoint(GridOperator(geom, V)) for V in Vs]
    assert len({fp.iterations for fp in alone}) == 3  # the members stop at different steps
    for members in ([0], [0, 1], [2, 0, 1]):
        v, iterations, dv = _fixed_points(geom, np.column_stack([Vs[j] for j in members]))
        for col, j in enumerate(members):
            assert np.array_equal(v[:, col], alone[j].v)
            assert iterations[col] == alone[j].iterations
            assert dv[col] == alone[j].dv_norm


@pytest.mark.parametrize(
    "share, words", [(1.5, "contraction threshold"), (0.9, "left the contraction ball")],
    ids=["over-threshold", "leaves-ball"],
)
def test_fixed_point_batch_rejects_one_bad_member(geom, nodes, share, words):
    good = 0.02 * np.sin(2 * np.pi * nodes[:, 2] / L)
    with pytest.raises(NumericError, match=words):
        _fixed_points(geom, np.column_stack([good, _spike(geom, share)]))


@pytest.fixture(scope="module")
def decomposition():
    dgeom = GridGeometry(Manifold.torus(3, [L, L, L]), (10, 10, 10))
    dx = dgeom.nodes()
    V = 0.01 * np.cos(2 * np.pi * dx[:, 0] / L) * np.sin(2 * np.pi * dx[:, 1] / L)
    op = GridOperator(dgeom, V)
    return dgeom, op, decompose_ground_state(op, 0.8)


def test_decomposition_reconstruction(decomposition):
    dgeom, op, dec = decomposition
    phi = lowest_eigenpair(op).phi
    assert dec.report["reconstruction_error"] <= 1e-8
    assert np.max(np.abs(np.exp(dec.f + dec.w) - phi)) <= 1e-8


def test_decomposition_holder_seminorm_is_over_every_pair(decomposition):
    dgeom, op, dec = decomposition
    x = dgeom.nodes()
    d0 = d0_many(dgeom.manifold, x[:, None], x[None])
    off = d0 > 0
    brute = float(np.max(np.abs(dec.w[:, None] - dec.w[None])[off] / d0[off] ** 0.5))
    assert dec.report["holder_seminorm_w"] == pytest.approx(brute, rel=1e-12, abs=0)


def test_functional_constants_are_computed_once_per_grid(decomposition):
    dgeom, op, dec = decomposition
    for name, key in (("sobolev_constant", "beta_est"), ("grad_inv_constant", "a_est")):
        cached = dgeom.__dict__[name]  # set by the decomposition's thresholds
        assert getattr(dgeom, name) is cached
        assert dec.report[key] == cached


def test_sobolev_constant_needs_dimension_three():
    geom2 = GridGeometry(Manifold.torus(2), (8, 8))
    with pytest.raises(InputError, match="n >= 3"):
        geom2.sobolev_constant
    c0 = np.full(2, np.pi)
    q = 0.01 * geom2.ball_mask(c0, 1.0)
    with pytest.raises(InputError, match="n >= 3"):
        gs_shift_c0(geom2, q, c0, 1.0, tol=1e-8)


def test_decomposition_trivial(decomposition):
    dgeom, *_ = decomposition
    n = int(np.prod(dgeom.shape))
    op0 = GridOperator(dgeom, np.zeros(n))
    dec = decompose_ground_state(op0, 0.8)
    assert np.abs(dec.f).max() <= 1e-10
    assert np.abs(dec.w - dec.w[0]).max() <= 1e-10


def test_decomposition_norm_scaling(decomposition):
    dgeom, op, dec = decomposition
    norms = {1.0: dec.report["df_ln"]}
    for t in (0.5, 0.25):
        dt = decompose_ground_state(GridOperator(dgeom, t * op.V), 0.8)
        norms[t] = dt.report["df_ln"]
    for t in (0.5, 0.25):
        assert abs(norms[t] / (t * norms[1.0]) - 1.0) <= 0.2


def _counted_decomposition(monkeypatch, dgeom, V):
    """The decomposition of Delta - V and the numbers of shift problems and
    of fixed-point problems it solves."""
    import conflab.schrodinger as sc

    calls = problems = 0

    def counted(geom, q, masks, tol, eig_tol):
        nonlocal calls
        calls += len(q)
        return _shifts(geom, q, masks, tol, eig_tol)

    def counted_fixed_points(geom, V):
        nonlocal problems
        problems += V.shape[1]
        return _fixed_points(geom, V)

    monkeypatch.setattr(sc, "_shifts", counted)
    monkeypatch.setattr(sc, "_fixed_points", counted_fixed_points)
    return decompose_ground_state(GridOperator(dgeom, V), 0.8), calls, problems


def test_decomposition_solves_one_center_per_orbit(decomposition, monkeypatch):
    # the fixture's V is constant along x3 and the 5^3 cover centers sit two
    # grid steps apart, so each x3-column of 5 centers is one orbit
    dgeom, op, dec = decomposition
    x3 = dgeom.nodes()[:, 2]
    same, calls, problems = _counted_decomposition(monkeypatch, dgeom, op.V)
    assert calls == problems == 25
    # a variation along x3 far below every tolerance leaves no invariant axis
    bent = op.V + 1e-13 * np.cos(2 * np.pi * x3 / L)
    direct, calls, problems = _counted_decomposition(monkeypatch, dgeom, bent)
    assert calls == problems == 125
    assert np.abs(same.f - direct.f).max() <= 1e-10
    assert np.abs(same.w - direct.w).max() <= 1e-10
    _, calls, problems = _counted_decomposition(monkeypatch, dgeom, np.zeros_like(op.V))
    assert calls == problems == 1


def test_decomposition_translated_shift_zeroes_its_local_eigenvalue(decomposition):
    from conflab.schrodinger import _cover_centers

    dgeom, op, dec = decomposition
    cover = _cover_centers(dgeom, 0.8)
    shape, cover_shape = dgeom.shape, cover.lattice_shape
    axes = [a for a in equal_slab_axes(op.V.reshape(shape), 3) if shape[a] % cover_shape[a] == 0]
    reps, steps = lattice_orbits(cover_shape, axes, np.arange(len(cover)))
    i = 1  # center (0, 0, 1): two grid steps along x3 from center 0
    assert reps[i] == 0 and tuple(steps[i] * (np.asarray(shape) // cover_shape)) == (0, 0, 2)
    mask = dgeom.ball_mask(cover.points[i], 0.8)
    c0 = dec.report["shift_constants"][i]
    cold = lowest_eigenpair(GridOperator(dgeom, op.V * mask - c0 * ~mask), tol=1e-11)
    assert abs(cold.lambda0) <= 1e-7


def test_decomposition_rho_guard(decomposition):
    dgeom, op, dec = decomposition
    with pytest.raises(InputError):
        decompose_ground_state(op, 5.0)


def _box_operator():
    box = GridGeometry(Manifold.box([[0.0, L], [0.0, L], [0.0, L]]), (8, 8, 8))
    return GridOperator(box, np.zeros(8**3))


@pytest.mark.parametrize(
    "call, words",
    [
        (lambda g: GridGeometry(Manifold.sphere(3), (8, 8, 8)), "tori and boxes only"),
        (lambda g: GridOperator(g, np.zeros(10)), "does not match the grid"),
        (lambda g: GridOperator(g, np.full(12**3, np.nan)), "must be finite"),
        (lambda g: decompose_ground_state(_box_operator(), 0.8), "torus grids"),
        (lambda g: GridOperator(g, ["a"] * 12**3), "potential must be numbers"),
        (lambda g: gs_shift_c0(g, np.zeros(12**3), [1.0, 1.0], 0.5, 1e-8), "rows of 3 coordinates"),
        (lambda g: decompose_ground_state(GridOperator(g, np.zeros(12**3)), "a"), "decomposition radius rho"),
        (lambda g: decompose_ground_state(GridOperator(g, np.zeros(12**3)), np.nan), "decomposition radius rho"),
        (lambda g: decompose_ground_state(GridOperator(g, np.zeros(12**3)), -0.8), "decomposition radius rho"),
        (lambda g: gs_shift_c0(g, np.zeros(12**3), [1.0, 1.0, 1.0], "a", 1e-8), "shift ball radius r0"),
        (lambda g: gs_shift_c0(g, np.zeros(12**3), [1.0, 1.0, 1.0], -0.5, 1e-8), "shift ball radius r0"),
        (lambda g: g.ball_mask([1.0, 1.0, 1.0], "a"), "ball radius"),
    ],
    ids=["sphere-grid", "potential-size", "nan-potential", "box-decomposition", "text-potential",
         "shift-2-vector-center", "text-rho", "nan-rho", "negative-rho", "text-shift-radius",
         "negative-shift-radius", "text-mask-radius"],
)
def test_schrodinger_rejects_bad_inputs(geom, call, words):
    with pytest.raises(InputError, match=words):
        call(geom)
