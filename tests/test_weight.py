import numpy as np
import pytest
from scipy.integrate import quad

from conflab.errors import FormatError, InputError
from conflab.manifold import (
    BallSpec,
    Manifold,
    cap_volume,
    sample_ball,
    sample_manifold,
    whole_manifold_ball,
)
from conflab.weight import (
    BuragoTorus,
    Constant,
    GridField,
    GridWeight,
    LogCusp,
    Scaled,
    SphereBubble,
    Sum,
    eval_f,
    eval_f_many,
    grid_from_field,
    integrability_profile,
    mu_f_ball,
    read_grid,
    read_grid_csv,
    total_mass,
    write_grid,
    write_grid_csv,
)

S_POLE3 = np.array([0.0, 0.0, 0.0, -1.0])


def test_burago_weight_value(torus2):
    # e^{nf} = 1 - cos(0)/2 = 1/2 on the ridge
    f = eval_f(torus2, BuragoTorus(1), (0.0, 1.7))
    assert np.exp(2 * f) == pytest.approx(0.5, rel=1e-14)


def test_constant_field(torus2):
    assert eval_f(torus2, Constant(0.0), (1.0, 2.0)) == 0.0


def test_bubble_identity_at_lam_one(sphere3, rng):
    pts, _ = sample_manifold(sphere3, 50, seed=1)
    assert np.abs(eval_f_many(sphere3, SphereBubble(1.0), pts)).max() == 0.0


def test_bubble_pole_value(sphere3):
    # continuous extension by -ln(lam) at the projection pole
    pole = np.array([0.0, 0.0, 0.0, 1.0])
    assert eval_f(sphere3, SphereBubble(7.0), pole) == pytest.approx(-np.log(7.0), abs=1e-9)
    assert eval_f(sphere3, SphereBubble(7.0), S_POLE3) == pytest.approx(np.log(7.0), abs=1e-12)


def test_manifold_mismatch(torus2, sphere3):
    with pytest.raises(InputError):
        eval_f(sphere3, BuragoTorus(1), S_POLE3)
    with pytest.raises(InputError):
        eval_f(torus2, SphereBubble(2.0), (0.0, 0.0))


def test_mu_f_ball_constant(torus2):
    b = BallSpec(np.array([1.0, 1.0]), 0.5)
    v, se = mu_f_ball(torus2, Constant(0.0), b, budget=2000, seed=3)
    assert v == pytest.approx(np.pi * 0.25, rel=1e-12)  # constant integrand: exact
    c = 0.8
    v2, _ = mu_f_ball(torus2, Constant(c), b, budget=2000, seed=3)
    assert v2 == pytest.approx(np.exp(2 * c) * v, rel=1e-12)


def test_mu_f_ball_rejects_a_non_finite_center(torus2):
    # the torus wrap sends nan to 0: this ball used to get the mass pi / 4
    with pytest.raises(InputError):
        mu_f_ball(torus2, Constant(0.0), BallSpec(np.array([np.nan, 1.0]), 0.5), 2000, 3)


def test_grid_nodes_are_read_only(torus2):
    g = grid_from_field(torus2, BuragoTorus(1), (8, 6))
    before = g.nodes().copy()
    for arr in (g.nodes(), g.axis_spacing):
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr.flags.writeable = True
    assert np.array_equal(g.nodes(), before)


def test_mu_f_ball_burago_full_torus(torus2):
    v, se = mu_f_ball(torus2, BuragoTorus(1), whole_manifold_ball(torus2), budget=200_000, seed=5)
    assert abs(v - 4 * np.pi**2) <= 3 * se


def test_total_mass_trivial_and_burago(torus2):
    v, se = total_mass(torus2, Constant(0.0), budget=50_000, seed=1)
    assert v == pytest.approx(4 * np.pi**2, rel=1e-12)
    v, se = total_mass(torus2, BuragoTorus(3), budget=200_000, seed=2)
    assert abs(v - 4 * np.pi**2) <= 3 * se


def test_bubble_mass_conserved(sphere3):
    for lam in (1.0, 2.0, 10.0, 100.0):
        v, _ = total_mass(sphere3, SphereBubble(lam))
        assert v == pytest.approx(2 * np.pi**2, rel=1e-2)


def _unit(n, angle):
    """Point of S^n at the given angle from the south pole, the bubble axis."""
    x = np.zeros(n + 1)
    x[0], x[-1] = np.sin(angle), -np.cos(angle)
    return x


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bubble_total_mass_exact(n):
    m = Manifold.sphere(n)
    for lam in (0.01, 1.0, 100.0, 1e4):
        v, err = total_mass(m, SphereBubble(lam))
        assert abs(v / m.volume - 1) <= 1e-12
        assert err == 1e-9 * v


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bubble_axis_ball_is_a_cap(n):
    # the dilation maps B(-pole, R) onto the cap of radius 2 atan(lam tan(R/2))
    m = Manifold.sphere(n)
    for lam in (0.01, 0.5, 10.0, 1000.0):
        for R in (0.01, 0.5, 2.0, 3.0):
            v, err = mu_f_ball(m, SphereBubble(lam), BallSpec(_unit(n, 0.0), R))
            oracle = cap_volume(m, 2.0 * np.arctan(lam * np.tan(R / 2.0)))
            assert abs(v / oracle - 1) <= 1e-10
            assert err == 1e-9 * v


@pytest.mark.parametrize("m", [Manifold.sphere(2), Manifold.sphere(3, 2.0), Manifold.sphere(4)])
def test_identity_bubble_ball_masses_are_caps(m):
    # every center, including balls reaching past the antipode of the axis
    for rb in (0.05, 1.0, 2.5, 3.1, np.pi):
        cap = cap_volume(m, rb * m.radius)
        for gamma in np.linspace(0.0, np.pi, 9):
            b = BallSpec(_unit(m.dim, gamma), rb * m.radius)
            v, _ = mu_f_ball(m, SphereBubble(1.0), b)
            assert abs(v / cap - 1) <= 1e-12, (rb, gamma)


def test_bubble_dirac_development(sphere3):
    fracs = []
    for lam in (1.0, 2.0, 10.0, 100.0):
        v, _ = mu_f_ball(sphere3, SphereBubble(lam), BallSpec(S_POLE3, 0.5))
        fracs.append(v / (2 * np.pi**2))
    assert np.all(np.diff(fracs) > 0)
    assert fracs[-1] > 0.99


def test_scaled_pointwise_and_measure(torus2, rng):
    base = BuragoTorus(2)
    shifted = Scaled(base, 0.9)
    pts = rng.random((50, 2)) * 2 * np.pi
    assert np.allclose(
        eval_f_many(torus2, shifted, pts), eval_f_many(torus2, base, pts) + 0.9, atol=1e-14
    )
    b = BallSpec(np.array([2.0, 3.0]), 0.7)
    v1, _ = mu_f_ball(torus2, base, b, budget=4000, seed=7)
    v2, _ = mu_f_ball(torus2, shifted, b, budget=4000, seed=7)
    assert v2 / v1 == pytest.approx(np.exp(2 * 0.9), rel=1e-12)


def test_mu_f_ball_stderr_scaling(torus2):
    b = BallSpec(np.array([1.0, 1.0]), 0.8)
    _, se1 = mu_f_ball(torus2, BuragoTorus(1), b, budget=2000, seed=11)
    _, se2 = mu_f_ball(torus2, BuragoTorus(1), b, budget=20_000, seed=11)
    ratio = se1 / se2
    assert np.sqrt(10.0) / 2 <= ratio <= 2 * np.sqrt(10.0)


def test_integrability_constant(torus2):
    rows = integrability_profile(torus2, Constant(0.0), [1.0, -2.0, 3.5], budget=2000, seed=1)
    for _, v, _ in rows:
        assert v == pytest.approx(4 * np.pi**2, rel=1e-12)


def test_integrability_burago_negative_power(torus2):
    # mean of (1 - cos(x)/2)^{-1} over a period is 2/sqrt(3)
    rows = integrability_profile(torus2, BuragoTorus(1), [-2.0], budget=400_000, seed=6)
    _, v, se = rows[0]
    assert abs(v / (4 * np.pi**2) - 2 / np.sqrt(3)) <= 3 * se / (4 * np.pi**2)


def test_logcusp_radial_oracle(torus2):
    # 1-D radial quadrature of the cusp mass vs the Monte Carlo estimate
    lc = LogCusp((np.pi, np.pi), 0.75)
    x2 = np.full(1, np.pi)

    def prof(s):
        return eval_f_many(torus2, lc, np.column_stack([np.pi + np.atleast_1d(s), x2]))[0]

    bump, _ = quad(lambda s: (np.exp(2 * prof(s)) - 1) * 2 * np.pi * s, 0, 1.5, limit=200)
    oracle = 4 * np.pi**2 + bump
    got, se = total_mass(torus2, lc, 400_000, seed=8)
    assert abs(got - oracle) <= 3 * se


def test_logcusp_profile_decreasing_in_r0(torus2):
    # the n-th power integral decreases with the cusp radius
    vals = []
    for r0 in (0.9, 0.6, 0.3):
        rows = integrability_profile(
            torus2, LogCusp((np.pi, np.pi), r0), [2.0], budget=200_000, seed=9
        )
        vals.append(rows[0][1])
    assert vals[0] > vals[1] > vals[2]


def test_logcusp_cap_monotone(torus2):
    x = np.column_stack([np.pi + np.array([0.003, 0.05, 0.3]), np.full(3, np.pi)])
    prev = None
    for cap in (2.0, 4.0, 8.0, None):
        vals = eval_f_many(torus2, LogCusp((np.pi, np.pi), 0.75, cap), x)
        if prev is not None:
            assert np.all(vals >= prev - 1e-14)
        prev = vals
    assert np.isinf(eval_f(torus2, LogCusp((np.pi, np.pi), 0.75), (np.pi, np.pi)))
    assert eval_f(torus2, LogCusp((np.pi, np.pi), 0.75, 3.0), (np.pi, np.pi)) == pytest.approx(3.0)


def test_logcusp_blend_is_c2(torus2):
    # numeric second differences stay bounded through both junctions
    lc = LogCusp((0.0, 0.0), 0.75)
    for d_star in (0.75 / np.e, 1.5):
        ds = d_star + np.linspace(-0.02, 0.02, 41)
        x = np.column_stack([ds, np.zeros_like(ds)])
        f = eval_f_many(torus2, lc, x)
        h = ds[1] - ds[0]
        second = np.diff(f, 2) / h**2
        assert np.all(np.isfinite(second))
        assert np.abs(np.diff(second)).max() <= 0.5  # no jump at the junction


def test_sum_field(torus2, rng):
    s = Sum((BuragoTorus(1), Constant(0.3)))
    pts = rng.random((20, 2)) * 2 * np.pi
    expect = eval_f_many(torus2, BuragoTorus(1), pts) + 0.3
    assert np.allclose(eval_f_many(torus2, s, pts), expect, atol=1e-14)


def test_grid_io_roundtrip(tmp_path, torus2):
    g = grid_from_field(torus2, BuragoTorus(1), (16, 24))
    path = tmp_path / "grid.json"
    write_grid(g, path)
    g2 = read_grid(path)
    assert np.array_equal(g.values, g2.values)
    assert g2.manifold.kind == "torus"


def test_grid_io_truncated_payload(tmp_path, torus2):
    g = grid_from_field(torus2, Constant(0.1), (8, 8))
    path = tmp_path / "grid.json"
    write_grid(g, path)
    payload = path.with_suffix(".bin")
    payload.write_bytes(payload.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_grid(path)


def test_grid_io_unknown_field_name(tmp_path, torus2):
    import json

    g = grid_from_field(torus2, Constant(0.1), (8, 8))
    path = tmp_path / "grid.json"
    write_grid(g, path)
    doc = json.loads(path.read_text())
    doc["field"] = "weight"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as exc:
        read_grid(path)
    assert "logf" in str(exc.value)


def test_grid_csv_roundtrip(tmp_path, torus2):
    g = grid_from_field(torus2, BuragoTorus(2), (12, 12))
    path = tmp_path / "grid.csv"
    write_grid_csv(g, path)
    g2 = read_grid_csv(path, torus2, (12, 12))
    assert np.allclose(g.values, g2.values, atol=1e-12)


def test_grid_interpolation_accuracy(torus2, rng):
    g = grid_from_field(torus2, BuragoTorus(1), (64, 64))
    pts = rng.random((500, 2)) * 2 * np.pi
    truth = eval_f_many(torus2, BuragoTorus(1), pts)
    lin = eval_f_many(torus2, GridWeight(g, 1), pts)
    cub = eval_f_many(torus2, GridWeight(g, 3), pts)
    assert np.abs(lin - truth).max() < 1e-3
    assert np.abs(cub - truth).max() < 1e-5


def test_cubic_grid_reproduces_quadratics_up_to_box_faces(rng):
    box = Manifold.box([[0.0, 1.0], [-1.0, 2.0]])
    quadratic = lambda p: 1.0 + p[:, 0] - 2.0 * p[:, 1] + 3.0 * p[:, 0] * p[:, 1] - p[:, 1] ** 2
    shape = (9, 13)
    nodes = GridField(manifold=box, shape=shape, values=np.zeros(shape)).nodes()
    g = GridField(manifold=box, shape=shape, values=quadratic(nodes).reshape(shape))
    near_faces = np.array(
        [[0.0, 0.0], [0.03, -1.0], [1.0, 1.97], [0.5, 2.0], [-1e-3, 0.4], [1.001, -1.001]]
    )
    pts = np.vstack([near_faces, rng.random((50, 2)) * [1.0, 3.0] - [0.0, 1.0]])
    cub = GridWeight(g, 3).eval_many(box, pts)
    assert np.abs(cub - quadratic(pts)).max() <= 1e-12


def _row_major_gather(vals, idx_list, torus):
    """The per-axis index loop GridWeight._gather had before ravel_multi_index."""
    flat = np.zeros(idx_list[0].shape, dtype=int)
    for a, size in enumerate(vals.shape):
        ia = np.mod(idx_list[a], size) if torus else np.clip(idx_list[a], 0, size - 1)
        flat = flat * size + ia
    return vals.ravel()[flat]


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("kind", ["torus", "box"])
def test_gather_is_the_row_major_loop(kind, order, rng):
    m = Manifold.torus(3, [1.0, 2.0, 3.0]) if kind == "torus" else Manifold.box([[0, 1]] * 3)
    w = GridWeight(GridField(m, (5, 7, 4), rng.normal(size=(5, 7, 4))), order)
    idx = list(rng.integers(-30, 30, size=(3, 200)))
    vals, pad = (w._ghosted, 2) if (kind, order) == ("box", 3) else (w.grid.values, 0)
    want = _row_major_gather(vals, [i + pad for i in idx], kind == "torus")
    assert w._gather(idx).tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [1, 3])
def test_grid_weight_reads_a_tiny_negative_as_zero(order, rng):
    # np.mod(-1e-17, 2.2) rounds up to 2.2, which over h = 2.2 / 7 fell just
    # short of node 7 = node 0 and interpolated from the far side of the cell
    m = Manifold.torus(2, [2.2, 2.2])
    w = GridWeight(GridField(m, (7, 7), rng.normal(size=(7, 7))), order)
    at = w.eval_many(m, np.array([[-1e-17, 0.3], [0.0, 0.3]]))
    assert at[0].tobytes() == at[1].tobytes()


def test_grid_on_sphere_rejected(sphere2):
    with pytest.raises(InputError):
        GridField(manifold=sphere2, shape=(8, 8), values=np.zeros((8, 8)))


def test_grid_io_unknown_manifest_key(tmp_path, torus2):
    import json

    from conflab.weight import WeightField, grid_from_field

    g = grid_from_field(torus2, Constant(0.1), (8, 8))
    path = tmp_path / "grid.json"
    write_grid(g, path)
    doc = json.loads(path.read_text())
    doc["surprise"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as exc:
        read_grid(path)
    assert "expected" in str(exc.value)


class _HalfInfinite(__import__("conflab.weight", fromlist=["WeightField"]).WeightField):
    """Test helper: infinite on half the torus, far beyond the 0.1% allowance."""

    def eval_many(self, m, x):
        return np.where(x[:, 0] < np.pi, np.inf, 0.0)


@pytest.mark.parametrize(
    "mass",
    [
        lambda m, f: mu_f_ball(m, f, whole_manifold_ball(m), budget=2000, seed=1),
        lambda m, f: total_mass(m, f, budget=2000, seed=1),
        lambda m, f: integrability_profile(m, f, [1.0], budget=2000, seed=1),
    ],
    ids=["mu_f_ball", "total_mass", "integrability_profile"],
)
def test_mu_f_ball_nonfinite_excess(torus2, mass):
    from conflab.errors import IntegrationError

    with pytest.raises(IntegrationError):
        mass(torus2, _HalfInfinite())


def test_burago_needs_whole_turns_across_the_seam():
    m = Manifold.torus(2, [3.0, 3.0])
    f = BuragoTorus(1)
    # on this torus the field jumps across the seam x1 = 3 ~ 0
    seam = f.eval_many(m, np.array([[0.0, 1.0], [np.nextafter(3.0, 0.0), 1.0]]))
    assert seam[0] == pytest.approx(-0.347, abs=1e-3) and seam[1] == pytest.approx(0.201, abs=1e-3)
    with pytest.raises(InputError, match="integer"):
        f.validate(m)
    BuragoTorus(2).validate(Manifold.torus(2, [np.pi, 3.0]))
    BuragoTorus(1).validate(Manifold.torus(2, [4 * np.pi, 3.0]))


def test_mu_f_ball_cut_ball_error_bar(torus2):
    box = Manifold.box([[0.0, 1.0], [0.0, 1.0]])
    v, se = mu_f_ball(box, Constant(0.0), BallSpec(np.array([0.1, 0.0]), 0.1))
    assert se > 0
    assert abs(v - np.pi * 0.01 / 2) <= 3 * se
    # closed-form volumes add no error: the sample error alone, as before
    for m, f, b in (
        (box, Constant(0.0), BallSpec(np.array([0.5, 0.5]), 0.1)),
        (torus2, BuragoTorus(1), BallSpec(np.ones(2), 0.8)),
    ):
        _, se = mu_f_ball(m, f, b, budget=2000, seed=4)
        pts, w, vol_se = sample_ball(m, b, 2000, 4)
        vals = np.exp(2 * eval_f_many(m, f, pts))
        assert vol_se == 0.0
        assert se == float(w.sum()) * float(vals.std(ddof=1)) / np.sqrt(vals.size)
