import numpy as np
import pytest

from conflab.diagnostics import (
    BallSampler,
    BoxDomain,
    StrongRatioResult,
    ainfty_report,
    ap_product,
    biholder_fit,
    d0_matrix,
    default_eta,
    doubling_constant,
    isoperimetric_ratio,
    reverse_holder,
    strong_ratio,
    subset_ratio_exponent,
)
from conflab.errors import InputError, SamplingError
from conflab.manifold import (
    BallSpec,
    Manifold,
    PointSet,
    cap_volume,
    d0_many,
    lattice,
    midpoint,
    whole_manifold_ball,
)
from conflab.metric import DistanceMatrix, build_graph, shortest_paths
from conflab.rng import derive_seed
from conflab.weight import BuragoTorus, Constant, GridField, GridWeight, Sum, mu_f_ball


def full_torus_sampler(m, seed=3):
    ball = whole_manifold_ball(m)
    centers = PointSet(points=np.asarray(ball.center)[None, :], spacing=1.0)
    return BallSampler(centers=centers, radii=(ball.radius,), seed=seed)


@pytest.fixture(scope="module")
def small_sampler():
    t2 = Manifold.torus(2)
    return BallSampler(centers=lattice(t2, 2.5), radii=(0.4, 0.8), seed=5)


def test_reverse_holder_constant(torus2, small_sampler):
    got = reverse_holder(torus2, Constant(1.3), 2.0, small_sampler, budget=20_000)
    assert got == pytest.approx(1.0, rel=0.02)


def test_reverse_holder_burago_closed_form(torus2):
    got = reverse_holder(torus2, BuragoTorus(1), 2.0, full_torus_sampler(torus2), budget=200_000)
    assert got == pytest.approx(np.sqrt(1.125), rel=0.02)


def test_reverse_holder_step_grid(torus2):
    # half the nodes at weight 1, half at weight 10
    vals = np.zeros((128, 128))
    vals[:64, :] = 0.0
    vals[64:, :] = np.log(10.0) / 2
    gw = GridWeight(GridField(manifold=torus2, values=vals), 1)
    got = reverse_holder(torus2, gw, 2.0, full_torus_sampler(torus2), budget=200_000)
    assert got == pytest.approx(np.sqrt(50.5) / 5.5, rel=0.02)


def test_ap_product_constant_and_burago(torus2, small_sampler):
    assert ap_product(torus2, Constant(-0.7), 2.0, small_sampler, 20_000) == pytest.approx(
        1.0, rel=0.02
    )
    got = ap_product(torus2, BuragoTorus(1), 2.0, full_torus_sampler(torus2), budget=200_000)
    assert got == pytest.approx(2.0 / np.sqrt(3.0), rel=0.02)


def test_ap_family_scale_invariance(torus2):
    # with radii matched to the oscillation, the constants are ell-independent
    centers = lattice(torus2, 2.0)
    vals = []
    for ell in (1, 2, 4, 8):
        radii = (np.pi / ell, 2 * np.pi / ell, torus2.max_distance * (1 + 1e-9))
        smp = BallSampler(centers, radii, seed=7)
        vals.append(ap_product(torus2, BuragoTorus(ell), 2.0, smp, 40_000))
    assert (max(vals) - min(vals)) / min(vals) <= 0.05


def test_rh_monotone_in_q_and_ap_monotone_in_p(torus2):
    smp = full_torus_sampler(torus2)
    rh = [reverse_holder(torus2, BuragoTorus(1), q, smp, 50_000) for q in (1.5, 2.0, 3.0)]
    assert rh[0] <= rh[1] <= rh[2]
    ap = [ap_product(torus2, BuragoTorus(1), p, smp, 50_000) for p in (1.5, 2.0, 3.0)]
    assert ap[0] >= ap[1] >= ap[2]


def test_scale_invariance_exact(torus2, small_sampler):
    base = BuragoTorus(1)
    shifted = Sum((base, Constant(0.9)))
    for fn in (
        lambda f: reverse_holder(torus2, f, 2.0, small_sampler, 10_000),
        lambda f: ap_product(torus2, f, 2.0, small_sampler, 10_000),
        lambda f: doubling_constant(torus2, f, small_sampler, 10_000),
    ):
        assert abs(fn(shifted) / fn(base) - 1.0) <= 1e-10


def test_doubling_flat(torus2, torus3):
    smp2 = BallSampler(lattice(torus2, 3.0), (0.3,), seed=1)
    assert doubling_constant(torus2, Constant(0.0), smp2, 50_000) == pytest.approx(4.0, rel=0.03)
    smp3 = BallSampler(lattice(torus3, 4.0), (0.3,), seed=1)
    assert doubling_constant(torus3, Constant(0.5), smp3, 80_000) == pytest.approx(8.0, rel=0.03)


def test_doubling_burago_envelope(torus2):
    smp = BallSampler(lattice(torus2, 1.5), (0.3, 0.5), seed=2)
    got = doubling_constant(torus2, BuragoTorus(8), smp, 40_000)
    assert got <= 12.0 * 1.03  # 2^n times the weight-ratio envelope 3


def test_subset_ratio_constant(torus2, small_sampler):
    # alpha_iv = max(slope, 1/slope) >= 1, and 1 for a flat weight
    alpha_iv = subset_ratio_exponent(torus2, Constant(0.0), small_sampler, budget=20_000)
    assert 1.0 <= alpha_iv <= 1.05


def test_subset_ratio_burago(torus2, small_sampler):
    # a finite alpha_iv <= 1.5 puts the slope in [1/1.5, 1.5]
    alpha_iv = subset_ratio_exponent(torus2, BuragoTorus(1), small_sampler, budget=20_000)
    assert 1.0 <= alpha_iv <= 1.5


@pytest.fixture(scope="module")
def flat_graph():
    t2 = Manifold.torus(2)
    pts = lattice(t2, 0.12)
    g = build_graph(t2, pts, 3 * pts.spacing, Constant(0.0))
    rng = np.random.default_rng(1)
    src = np.unique(rng.choice(len(pts), 10, replace=False))
    dm = shortest_paths(g, src)
    pairs = []
    for i in src:
        for j in rng.choice(len(pts), 4, replace=False):
            pairs.append((int(i), int(j)))
    return t2, pts, g, dm, pairs


def test_strong_ratio_flat_value(flat_graph):
    t2, pts, g, dm, pairs = flat_graph
    sr = strong_ratio(t2, Constant(0.0), pts, dm, pairs, eta=1.0, seed=2)
    assert sr.theta_strong == pytest.approx(np.sqrt(np.pi), rel=0.03)


def test_strong_ratio_scale_invariant(flat_graph):
    t2, pts, g, dm, pairs = flat_graph
    gs = g.reweight(Constant(0.8))
    dms = shortest_paths(gs, dm.sources)
    a = strong_ratio(t2, Constant(0.0), pts, dm, pairs, eta=1.0, seed=2)
    b = strong_ratio(t2, Constant(0.8), pts, dms, pairs, eta=1.0, seed=2)
    assert abs(b.theta_strong / a.theta_strong - 1.0) <= 1e-10


def test_strong_ratio_on_a_bounded_matrix(flat_graph):
    t2, pts, g, dm, pairs = flat_graph
    field = BuragoTorus(2)
    gb = g.reweight(field)
    full = shortest_paths(gb, dm.sources)
    bounded = shortest_paths(gb, dm.sources, sorted({j for _, j in pairs}))
    assert bounded.values.shape[1] < full.values.shape[1]
    a = strong_ratio(t2, field, pts, full, pairs, eta=2.0, seed=4)
    b = strong_ratio(t2, field, pts, bounded, pairs, eta=2.0, seed=4)
    assert a == b


def test_strong_ratio_missing_pairs(flat_graph):
    t2, pts, g, dm, pairs = flat_graph
    missing = next(i for i in range(len(pts)) if i not in set(int(s) for s in dm.sources))
    with pytest.raises(InputError):
        strong_ratio(t2, Constant(0.0), pts, dm, [(missing, missing + 1)], eta=1.0)


@pytest.mark.parametrize(
    "pairs",
    [[(0, 174)], [(0, 1.7)], [(-1, 3)], [(0, 1), (2, 169)], [(0, 1, 2)], [[(0, 1)]],
     [(0, 1), (2,)]],
    ids=["past-the-last-node", "fractional", "negative", "second-pair", "triple", "nested",
         "ragged"],
)
def test_strong_ratio_rejects_bad_pairs(pairs):
    # 169 nodes; d0_matrix holds every column, so only the pair check can act
    t2 = Manifold.torus(2)
    pts = lattice(t2, 0.5)
    assert len(pts) == 169
    with pytest.raises(InputError):
        strong_ratio(t2, Constant(0.0), pts, d0_matrix(t2, pts), pairs, eta=1.0)


def _strong_ratio_per_pair(m, field, points, dmat, pairs, eta, seed):
    """strong_ratio as it was before its one-pass pair geometry: d0 and the
    midpoint pair by pair."""
    n, best_x, best_mid, used = m.dim, 0.0, 0.0, 0
    for k, (i, j) in enumerate(pairs):
        x, y = points.points[int(i)], points.points[int(j)]
        d0_xy = float(d0_many(m, x, y))
        if d0_xy <= 0 or d0_xy > eta:
            continue
        df = dmat.get(int(i), int(j))
        mass_x, _ = mu_f_ball(m, field, BallSpec(x, d0_xy), 20_000, derive_seed(seed, "sr", k))
        rho = df / mass_x ** (1.0 / n)
        best_x = max(best_x, rho, 1.0 / rho)
        mass_m, _ = mu_f_ball(m, field, BallSpec(midpoint(m, x, y), d0_xy / 2.0), 20_000,
                              derive_seed(seed, "srm", k))
        rho_m = df / mass_m ** (1.0 / n)
        best_mid = max(best_mid, rho_m, 1.0 / rho_m)
        used += 1
    return StrongRatioResult(theta_strong=best_x, theta_strong_mid=best_mid, n_pairs=used)


def test_strong_ratio_is_the_per_pair_loop(flat_graph):
    t2, pts, g, dm, pairs = flat_graph
    field = BuragoTorus(2)
    dmf = shortest_paths(g.reweight(field), dm.sources)
    want = _strong_ratio_per_pair(t2, field, pts, dmf, pairs, 1.0, 5)
    assert 0 < want.n_pairs < len(pairs)  # some pairs lie beyond eta
    assert strong_ratio(t2, field, pts, dmf, pairs, eta=1.0, seed=5) == want


def test_lemma_comparison_bound(flat_graph):
    # d_f(x,y)^n <= B mu_f(B(x, d0(x,y))) with one finite B over all pairs
    t2, pts, g, dm, pairs = flat_graph
    sr = strong_ratio(t2, BuragoTorus(1), pts, shortest_paths(
        g.reweight(BuragoTorus(1)), dm.sources
    ), pairs, eta=1.0, seed=4)
    assert np.isfinite(sr.theta_strong)
    assert sr.theta_strong >= 1.0


@pytest.fixture(scope="module")
def square_mats():
    t2 = Manifold.torus(2)
    pts = lattice(t2, 0.3)
    g = build_graph(t2, pts, 3 * pts.spacing, Constant(0.0))
    dm = shortest_paths(g, None)
    d0m = d0_matrix(t2, pts)
    return t2, pts, dm, d0m


@pytest.mark.parametrize("sources", [[10**6], [-1], [1.5], [[0, 1]]], ids=["past-n", "negative", "float", "2-d"])
def test_d0_matrix_checks_its_sources_as_shortest_paths_does(torus2, sources):
    # an index past the nodes used to escape as an IndexError
    pts = lattice(torus2, 0.3)
    with pytest.raises(InputError, match="sources must"):
        d0_matrix(torus2, pts, sources)


def test_d0_matrix_with_no_sources_is_empty(torus2):
    pts = lattice(torus2, 0.3)
    d0m = d0_matrix(torus2, pts, [])
    assert d0m.values.shape == (0, len(pts))
    assert d0m.sources.size == 0


def test_biholder_identity(square_mats):
    t2, pts, dm, d0m = square_mats
    assert biholder_fit(dm, d0m) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("n, spacing, stride", [(2, 0.3, 1), (3, 0.7, 17)], ids=["2", "3"])
def test_biholder_shift_absorbed(n, spacing, stride):
    # f -> f + c scales d_f by e^c, which moves only the fit's intercept
    m = Manifold.torus(n)
    pts = lattice(m, spacing)
    src = np.arange(0, len(pts), stride)
    dm = shortest_paths(build_graph(m, pts, 3 * pts.spacing, Constant(0.0)), src)
    d0m = d0_matrix(m, pts, src)
    dm_c = DistanceMatrix(sources=dm.sources, targets=dm.targets, values=np.exp(0.6) * dm.values)
    assert biholder_fit(dm_c, d0m) == pytest.approx(biholder_fit(dm, d0m), abs=1e-12)


def test_biholder_needs_pairs(square_mats):
    t2, pts, dm, d0m = square_mats
    tiny = DistanceMatrix(sources=np.array([0]), targets=np.array([0]),
                          values=np.zeros((1, 1)))
    with pytest.raises(SamplingError):
        biholder_fit(tiny, tiny)


def test_lipschitz_envelope_burago(torus2):
    pts = lattice(torus2, 0.25)
    d0m = d0_matrix(torus2, pts)
    far = d0m.values > 0
    worst = 0.0
    for ell in (1, 2, 4):
        g = build_graph(torus2, pts, 3 * pts.spacing, BuragoTorus(ell))
        dm = shortest_paths(g, None)
        worst = max(worst, float(np.max(dm.values[far] / d0m.values[far])))
    # Lipschitz envelope: max e^f = (3/2)^{1/2}, plus graph overshoot
    assert worst <= np.sqrt(1.5) * 1.03


def test_isoperimetric_flat_and_scaled(torus2):
    doms = [BallSpec(np.array([3.0, 3.0]), r) for r in (0.3, 0.6, 1.0)]
    iso = isoperimetric_ratio(torus2, Constant(0.0), doms, seed=6)
    assert iso.inf_ratio == pytest.approx(2 * np.sqrt(np.pi), rel=0.02)
    iso_b = isoperimetric_ratio(torus2, BuragoTorus(1), doms, seed=6)
    iso_s = isoperimetric_ratio(torus2, Sum((BuragoTorus(1), Constant(1.1))), doms, seed=6)
    assert abs(iso_s.inf_ratio / iso_b.inf_ratio - 1.0) <= 1e-10
    envelope = 2 * np.sqrt(np.pi) * np.sqrt(0.5 / 1.5)
    assert iso_b.inf_ratio >= envelope


def test_isoperimetric_box_domain(torus2):
    # f = c on a w x h rectangle: mass w h e^{2c} and perimeter 2 (w + h) e^c,
    # on the torus, across its seam x1 = 2 pi, and on a box manifold
    c = 0.3
    box = Manifold.box([[0.0, 4.0], [-1.0, 3.0]])
    for m, lo in ((torus2, (1.0, 1.0)), (torus2, (5.5, 1.0)), (box, (0.5, -0.5))):
        dom = BoxDomain(lo=lo, hi=(lo[0] + 1.2, lo[1] + 1.6))
        iso = isoperimetric_ratio(m, Constant(c), [dom], seed=1)
        (_, perim, mass, ratio), = iso.table
        assert mass == pytest.approx(1.2 * 1.6 * np.exp(2 * c), rel=1e-12, abs=0)
        assert perim == pytest.approx(2 * (1.2 + 1.6) * np.exp(c), rel=1e-12, abs=0)
        assert iso.inf_ratio == ratio == pytest.approx(2 * 2.8 / np.sqrt(1.92), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "lo, hi",
    [
        ((2.0, 2.0), (1.0, 1.0)),
        ((1.0, 2.0), (2.0, 1.0)),
        ((1.0, 1.0), (1.0, 2.0)),
        ((1.0, 1.0), (np.inf, 2.0)),
    ],
    ids=["inverted", "crossed", "flat", "infinite"],
)
def test_box_domain_needs_hi_above_lo(lo, hi):
    with pytest.raises(InputError):
        BoxDomain(lo=lo, hi=hi)


def test_isoperimetric_box_domain_must_fit_in_a_period(torus2):
    # [0, 10] x [0, 1] wraps the 2pi axis: it covers a strip of perimeter
    # 4 pi and area 2 pi, but its faces and draws would count the overlap twice
    with pytest.raises(InputError, match="period"):
        isoperimetric_ratio(
            torus2, Constant(0.0), [BoxDomain((0.0, 0.0), (10.0, 1.0))], seed=1
        )


def test_isoperimetric_mass_precondition(torus2):
    big = BallSpec(np.array([3.0, 3.0]), 3.0)
    with pytest.raises(InputError):
        isoperimetric_ratio(torus2, Constant(0.0), [big], seed=1)


def test_ainfty_report_assembly(torus2, small_sampler):
    rep = ainfty_report(torus2, BuragoTorus(1), small_sampler, q=2.0, p=2.0, budget=10_000)
    doc = rep.to_dict()
    assert doc["C_rh"] >= 1.0 - 0.02
    assert doc["C_ap"] >= 1.0 - 0.02
    assert doc["theta_doubling"] >= 1.0
    assert np.isfinite(doc["alpha_iv"])
    assert doc["eta"] == 0.8


def test_ainfty_report_of_a_shifted_constant_on_the_sphere(sphere2):
    # the sampler of run_custom; w is constant, so every ball's averages
    # cancel, and each doubling ratio is one of cap volumes (colatitude rule)
    eta = default_eta(sphere2)
    smp = BallSampler(lattice(sphere2, sphere2.min_period / 3), (eta / 2, eta), seed=0)
    rep = ainfty_report(sphere2, Sum((Constant(0.1), Constant(0.2))), smp, q=2.0, p=2.0, budget=2000)
    assert rep.C_rh == pytest.approx(1.0, rel=0, abs=1e-12)
    assert rep.C_ap == pytest.approx(1.0, rel=0, abs=1e-12)
    want = max(cap_volume(sphere2, r) / cap_volume(sphere2, r / 2) for r in smp.radii)
    assert rep.theta_doubling == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "setting, words",
    [({"q": 1.0}, "q must exceed 1"), ({"p": 1.0}, "p must exceed 1"), ({"budget": 50}, ">= 100")],
    ids=["q", "p", "budget"],
)
def test_ainfty_report_checks_settings_before_sampling(torus2, small_sampler, monkeypatch, setting, words):
    import conflab.diagnostics as dg

    def refuse(*args, **kwargs):
        raise AssertionError("a ball was sampled before the settings were checked")

    monkeypatch.setattr(dg, "sample_ball", refuse)
    settings = {"q": 2.0, "p": 2.0, "budget": 20_000} | setting
    with pytest.raises(InputError, match=words):
        ainfty_report(torus2, BuragoTorus(1), small_sampler, **settings)


def test_default_eta(torus2, sphere2):
    assert default_eta(torus2) == 1.0
    assert default_eta(sphere2) == pytest.approx(np.pi / 4)


@pytest.mark.parametrize(
    "call, words",
    [
        (lambda t2, dm, d0m: biholder_fit(dm, DistanceMatrix(
            d0m.sources[:-1], d0m.targets, d0m.values[:-1])), "same index set"),
        (lambda t2, dm, d0m: isoperimetric_ratio(t2, Constant(0.0), ["disc"], seed=1),
         "unsupported isoperimetric domain"),
        (lambda t2, dm, d0m: isoperimetric_ratio(t2, Constant(0.0), [], seed=1),
         "at least one domain"),
        (lambda t2, dm, d0m: BallSampler(lattice(t2, 2.5), ()), "at least one radius"),
        (lambda t2, dm, d0m: BallSampler(lattice(t2, 2.5), (np.nan,)), "positive and finite"),
        (lambda t2, dm, d0m: BallSampler(lattice(t2, 2.5), (0.4, np.inf)), "positive and finite"),
        (lambda t2, dm, d0m: reverse_holder(t2, Constant(0.0), 2.0,
                                            BallSampler(lattice(t2, 2.5), (0.4,)), np.nan),
         "sample count must be >= 1 and an integer"),
        (lambda t2, dm, d0m: BallSampler(PointSet(points=np.zeros((0, 2)), spacing=1.0), (0.4,)),
         "one center"),
        (lambda t2, dm, d0m: reverse_holder(t2, Constant(0.0), np.nan,
                                            BallSampler(lattice(t2, 2.5), (0.4,)), 200),
         "q must exceed 1 and be finite"),
        (lambda t2, dm, d0m: ap_product(t2, Constant(0.0), np.inf,
                                        BallSampler(lattice(t2, 2.5), (0.4,)), 200),
         "p must exceed 1 and be finite"),
        (lambda t2, dm, d0m: isoperimetric_ratio(
            Manifold.sphere(2), Constant(0.0), [BallSpec(np.array([0.0, 0.0, 1.0]), 0.5)]),
         "needs a torus or a box"),
        (lambda t2, dm, d0m: isoperimetric_ratio(
            Manifold.sphere(2), Constant(0.0), [BoxDomain((0.1, 0.1), (0.5, 0.5))]),
         "needs a torus or a box"),
        (lambda t2, dm, d0m: BallSampler(lattice(t2, 2.5), 0.5), "a list of at least one radius"),
        (lambda t2, dm, d0m: BoxDomain(("a",), ("b",)), "box domain corner must be numbers"),
        (lambda t2, dm, d0m: isoperimetric_ratio(t2, Constant(0.0), None), "list of at least one domain"),
        # the ball is checked before its perimeter is taken
        (lambda t2, dm, d0m: isoperimetric_ratio(t2, Constant(0.0), [BallSpec(np.zeros(3), 0.5)]),
         "ambient dimension 2"),
        (lambda t2, dm, d0m: strong_ratio(t2, Constant(0.0), lattice(t2, 0.3), dm, [(0, 1)], eta=1.0,
                                          seed="x"), "seed must be an integer"),
        (lambda t2, dm, d0m: reverse_holder(t2, Constant(0.0), 2.0,
                                            BallSampler(lattice(t2, 2.5), (0.4,), seed="x"), 200),
         "seed must be an integer"),
        (lambda t2, dm, d0m: strong_ratio(t2, Constant(0.0), lattice(t2, 0.3), dm, [(0, 1)], eta="x"),
         "eta must be numbers"),
        (lambda t2, dm, d0m: ap_product(t2, Constant(0.0), "2", BallSampler(lattice(t2, 2.5), (0.4,)), 200),
         "p must exceed 1 and be finite, got '2'"),
        (lambda t2, dm, d0m: reverse_holder(t2, Constant(0.0), None,
                                            BallSampler(lattice(t2, 2.5), (0.4,)), 200),
         "q must exceed 1 and be finite, got None"),
    ],
    ids=["biholder-misaligned", "isoperimetric-non-domain", "isoperimetric-no-domain",
         "sampler-no-radius", "sampler-nan-radius", "sampler-inf-radius", "reverse-holder-nan-budget",
         "sampler-no-center", "reverse-holder-nan-q", "ap-inf-p",
         "isoperimetric-sphere-ball", "isoperimetric-sphere-box", "sampler-scalar-radius",
         "box-domain-text", "isoperimetric-none", "isoperimetric-ball-center-3-on-2-torus", "strong-ratio-text-seed", "sampler-text-seed",
         "strong-ratio-text-eta", "ap-text-p", "reverse-holder-none-q"],
)
def test_diagnostics_rejects_bad_inputs(square_mats, call, words):
    t2, pts, dm, d0m = square_mats
    with pytest.raises(InputError, match=words):
        call(t2, dm, d0m)
