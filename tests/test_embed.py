import math

import numpy as np
import pytest

from eigenband import basis as bs
from eigenband import embed as em
from eigenband import manifold as mf
from eigenband import spectrum as sp

SPHERE = mf.sphere2()
TORUS = mf.flat_torus((2.0 * math.pi, 1.5 * math.pi))


def _pairs(model, count, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return ([mf.uniform_sample(model, rng) for _ in range(count)],
            [mf.uniform_sample(model, rng) for _ in range(count)])


def test_make_embedding_consistent():
    emb = em.make_embedding(SPHERE, 9.0)
    assert emb.band.k_lambda == pytest.approx(sp.k_lambda(emb.band.m_lambda))
    assert emb.model == SPHERE
    with pytest.raises(ValueError):
        em.make_embedding(SPHERE, -1.0)
    # lam=0 on the sphere leaves an empty band, which has no embedding
    with pytest.raises(ValueError, match="empty"):
        em.make_embedding(SPHERE, 0.0)


@pytest.mark.parametrize("model,lam", [(SPHERE, 9.0), (SPHERE, 40.0), (TORUS, 5.0)])
def test_kernel_fast_matches_naive(model, lam):
    emb = em.make_embedding(model, lam)
    X, Y = _pairs(model, 25, 31)
    for x, y in zip(X, Y):
        fast = em.band_kernel(emb, x, y)
        naive = em.band_kernel(emb, x, y, method="naive")
        assert fast == pytest.approx(naive, abs=1e-12)


def test_kernel_diagonal_is_dimension_over_volume():
    for model, lam in ((SPHERE, 12.0), (TORUS, 5.0)):
        emb = em.make_embedding(model, lam)
        X, _ = _pairs(model, 8, 17)
        target = emb.band.m_lambda / model.volume
        for x in X:
            assert em.band_kernel(emb, x, x) == pytest.approx(target, rel=1e-12)


def test_cumulative_kernel_sphere_count():
    # diagonal of the full projector up to lam equals N(lam)/vol
    x = mf.make_point(SPHERE, (0.2, -0.4, 0.89))
    val = em.cumulative_kernel(SPHERE, 10.0, x, x)
    assert val == pytest.approx(99.0 / (4.0 * math.pi), rel=1e-12)
    naive = em.cumulative_kernel(SPHERE, 10.0, x, x, method="naive")
    assert val == pytest.approx(naive, rel=1e-12)


def test_cumulative_kernel_torus_two_routes():
    x = mf.make_point(TORUS, (0.3, 1.1))
    y = mf.make_point(TORUS, (2.0, 0.4))
    fast = em.cumulative_kernel(TORUS, 6.0, x, y)
    naive = em.cumulative_kernel(TORUS, 6.0, x, y, method="naive")
    assert fast == pytest.approx(naive, abs=1e-12)


@pytest.mark.parametrize("model,lam", [(SPHERE, 9.0), (TORUS, 5.0)])
def test_distance_two_routes(model, lam):
    emb = em.make_embedding(model, lam)
    band = emb.band
    X, Y = _pairs(model, 50, 23)
    XC = np.stack([p.coords for p in X])
    YC = np.stack([p.coords for p in Y])
    VX = bs.mode_matrix(model, band.modes, XC)
    VY = bs.mode_matrix(model, band.modes, YC)
    coord = np.linalg.norm(VX - VY, axis=1) / band.k_lambda
    kernel = em.CanonicalDistance(emb).rows(XC, YC)
    assert np.max(np.abs(coord - kernel)) < 1e-12
    for x, y, want in zip(X[:10], Y[:10], coord[:10]):
        assert em.dist_lambda(emb, x, y) == pytest.approx(want, abs=1e-12)


def test_distance_pseudo_metric_properties():
    emb = em.make_embedding(SPHERE, 12.0)
    X, Y = _pairs(SPHERE, 12, 41)
    Z, _ = _pairs(SPHERE, 12, 43)
    for x, y, z in zip(X, Y, Z):
        assert em.dist_lambda(emb, x, x) == pytest.approx(0.0, abs=1e-13)
        assert em.dist_lambda(emb, x, y) == pytest.approx(
            em.dist_lambda(emb, y, x), abs=1e-14)
        # embedding into Euclidean space: triangle inequality
        assert em.dist_lambda(emb, x, z) <= (em.dist_lambda(emb, x, y)
                                             + em.dist_lambda(emb, y, z) + 1e-12)


def test_embed_norm_is_constant():
    for model, lam in ((SPHERE, 9.0), (TORUS, 5.0)):
        emb = em.make_embedding(model, lam)
        target = math.sqrt(emb.band.m_lambda / model.volume) / emb.band.k_lambda
        X, _ = _pairs(model, 6, 51)
        for x in X:
            assert np.linalg.norm(em.phi(emb, x)) == pytest.approx(target, rel=1e-12)


def test_canonical_distance_rows():
    for model, lam in ((SPHERE, 9.0), (TORUS, 5.0)):
        emb = em.make_embedding(model, lam)
        dist = em.CanonicalDistance(emb)
        assert dist.name == "d_lambda"
        X, Y = _pairs(model, 10, 61)
        C = np.stack([p.coords for p in Y])
        rows = dist.rows(X[0].coords, C)
        for j, y in enumerate(Y):
            assert rows[j] == pytest.approx(em.dist_lambda(emb, X[0], y), abs=1e-12)
        paired = dist.rows(np.stack([p.coords for p in X]), C)
        for x, y, got in zip(X, Y, paired):
            assert got == pytest.approx(em.dist_lambda(emb, x, y), abs=1e-12)
        F, row, near = dist.feature_rows(C)
        assert (near is None) == (model.kind != mf.SPHERE2)
        assert np.array_equal(F, bs.mode_matrix(model, emb.band.modes, C))
        for j in (0, 7):
            # compared squared: the square root magnifies rounding near zero
            assert np.allclose(row(F[j], F) ** 2, dist.rows(C[j], C) ** 2, rtol=0,
                               atol=1e-12)
            # the feature row rounds as the kernel-to-distance map does
            assert np.array_equal(row(F[j], F), em._dist_from_kernels(
                dist._diag, dist._diag, F @ F[j], dist._k))


@pytest.mark.parametrize("model,lam", [(SPHERE, 9.0), (SPHERE, 60.0), (TORUS, 5.0)])
def test_pullback_metric_routes_agree(model, lam):
    emb = em.make_embedding(model, lam)
    X, _ = _pairs(model, 4, 71)
    for x in X:
        g = em.pullback_metric(emb, x, method="gradient").matrix
        g_fd = em.pullback_metric(emb, x, method="kernel_fd").matrix
        scale = float(np.max(np.abs(g)))
        assert np.max(np.abs(g - g_fd)) / scale < 1e-5
        assert np.allclose(g, g.T, atol=1e-12)


@pytest.mark.parametrize("model,lam", [(SPHERE, 60.0), (TORUS, 5.0),
                                       (mf.flat_torus((3.0, 4.0, 5.0)), 6.0)])
def test_kernel_fd_matches_pointwise_differences(model, lam):
    # the four-point mixed difference, one kernel pair at a time
    emb = em.make_embedding(model, lam)
    h = em.FD_STEP_SCALE / sp.mean_frequency(emb.band)
    n, k2 = model.dim, emb.band.k_lambda ** 2
    X, _ = _pairs(model, 3, 73)
    for x in X:
        def at(u):
            return em.band_kernel(emb, x, mf.exp_map(model, x, u))

        want = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                ea, eb = h * np.eye(n)[a], h * np.eye(n)[b]
                want[a, b] = -(at(ea + eb) - at(ea - eb) - at(eb - ea) + at(-ea - eb)) \
                    / (4.0 * h * h * k2)
        got = em.pullback_metric(emb, x, method="kernel_fd").matrix
        assert np.allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())


def test_pullback_metric_sphere_isotropic():
    emb = em.make_embedding(SPHERE, 60.0)
    lam_bar = sp.mean_frequency(emb.band)
    oracle = lam_bar ** 2 / (2.0 * SPHERE.volume)
    X, _ = _pairs(SPHERE, 5, 73)
    for x in X:
        g = em.pullback_metric(emb, x).matrix
        c = float(np.trace(g)) / 2.0
        assert np.max(np.abs(g - c * np.eye(2))) / c < 1e-9
        assert 0.95 <= c / oracle <= 1.05


@pytest.mark.parametrize("lam", [5.0, 40.0, 60.0])
def test_sphere_metric_constant_is_the_pullback_multiple(lam):
    emb = em.make_embedding(SPHERE, lam)
    c = em.sphere_metric_constant(emb)
    X, _ = _pairs(SPHERE, 3, 79)
    for x in X:
        g = em.pullback_metric(emb, x).matrix
        assert np.allclose(g, c * np.eye(2), rtol=0, atol=1e-9 * c)


def test_pullback_metric_torus_trace_identity():
    emb = em.make_embedding(TORUS, 5.0)
    band = emb.band
    target = sum(m.mu ** 2 for m in band.modes) / (TORUS.volume * band.k_lambda ** 2)
    g = em.pullback_metric(emb, mf.make_point(TORUS, (0.4, 2.2))).matrix
    assert float(np.trace(g)) == pytest.approx(target, rel=1e-12)


def test_path_length_torus_axis():
    emb = em.make_embedding(TORUS, 5.0)
    x = mf.make_point(TORUS, (0.3, 0.7))
    seg = 0.8
    y = mf.make_point(TORUS, (0.3 + seg, 0.7))
    g = em.pullback_metric(emb, x).matrix
    expected = math.sqrt(g[0, 0]) * seg
    path = mf.geodesic_waypoints(TORUS, x, y, 64)
    # flat metric is translation invariant so the polyline is exact
    assert em.path_length_glambda(emb, path) == pytest.approx(expected, rel=1e-8)


def test_distance_bounded_by_path_length():
    emb = em.make_embedding(SPHERE, 9.0)
    X, Y = _pairs(SPHERE, 10, 83)
    for x, y in zip(X, Y):
        d = em.dist_lambda(emb, x, y)
        length = em.path_length_glambda(emb, mf.geodesic_waypoints(SPHERE, x, y, 128))
        assert d <= length * (1.0 + 1e-6)


def test_lipschitz_scan_bounds_fresh_pairs():
    emb = em.make_embedding(SPHERE, 9.0)
    scan = em.lipschitz_scan(emb, 2000, np.random.Generator(np.random.Philox(5)))
    assert 0.1 < scan < 1.0
    rng = np.random.Generator(np.random.Philox(6))
    X = np.stack([mf.uniform_sample(SPHERE, rng).coords for _ in range(2000)])
    Y = np.stack([mf.uniform_sample(SPHERE, rng).coords for _ in range(2000)])
    dl = em.CanonicalDistance(emb).rows(X, Y)
    dg = mf.geodesic_rows(SPHERE, X, Y)
    keep = dg > 1e-12
    assert float(np.max(dl[keep] / (9.0 * dg[keep]))) <= scan


@pytest.mark.parametrize("lam", [30.0, 60.0])
def test_lipschitz_scan_reaches_analytic_constant(lam):
    # at short range dist_lambda = sqrt(c) d_g with c the pullback metric
    # multiple, c = sum_l l(l+1)(2l+1)/(4 pi) / (2 k^2) by the addition theorem
    emb = em.make_embedding(SPHERE, lam)
    degrees = {m.label[0] for m in emb.band.modes}
    c = sum(l * (l + 1) * (2 * l + 1) / (4.0 * math.pi) for l in degrees) \
        / (2.0 * emb.band.k_lambda ** 2)
    scan = em.lipschitz_scan(emb, 2000, np.random.Generator(np.random.Philox(8)))
    assert scan == pytest.approx(math.sqrt(c) / lam, rel=1e-5)


def test_distance_profile_reference_and_validation():
    emb = em.make_embedding(SPHERE, 60.0)
    lam_bar = sp.mean_frequency(emb.band)
    r = np.linspace(0.0, 8.0 / lam_bar, 81)
    pts = em.distance_profile(emb, r)
    assert pts[0].measured == pytest.approx(0.0, abs=1e-12)
    scale = 2.0 / SPHERE.volume
    sup = max(abs(p.measured ** 2 - p.reference ** 2) for p in pts)
    assert sup < 0.05 * scale
    with pytest.raises(ValueError):
        em.distance_profile(emb, [-0.1])
    with pytest.raises(ValueError):
        em.distance_profile(emb, [SPHERE.injectivity_radius + 0.1])


@pytest.mark.parametrize("sides,lam", [((2.0 * math.pi, 1.5 * math.pi), 12.0),
                                       ((3.0, 4.0, 5.0), 6.0)])
def test_distance_profile_on_torus(sides, lam):
    # the profile walks from the origin along one fixed direction
    model = mf.flat_torus(sides)
    emb = em.make_embedding(model, lam)
    r = np.linspace(0.0, model.injectivity_radius, 9)
    pts = em.distance_profile(emb, r)
    assert pts[0].measured == 0.0
    u = np.array(em._GENERIC_DIR[:model.dim])
    u /= np.linalg.norm(u)
    origin = mf.make_point(model, np.zeros(model.dim))
    for p in pts:
        y = mf.make_point(model, p.r * u)
        assert p.measured == pytest.approx(em.dist_lambda(emb, origin, y), abs=1e-12)
    with pytest.raises(ValueError):
        em.distance_profile(emb, [model.injectivity_radius + 0.1])


def test_diameter_sphere_degree_one():
    # l=1 band: antipodal points embed at Euclidean distance
    # sqrt(2 m / (vol k^2)) * sqrt(2) with m=3, the exact maximum
    emb = em.make_embedding(SPHERE, 1.0)
    assert {m.label[0] for m in emb.band.modes} == {1}
    k = emb.band.k_lambda
    expected = 2.0 * math.sqrt(3.0 / (4.0 * math.pi)) / k
    assert em.diameter_estimate(emb, 800) == pytest.approx(expected, rel=1e-6)


def test_diameter_matches_realized_pair():
    # returned value is attained by an actual point pair up to refinement
    emb = em.make_embedding(SPHERE, 10.0)
    d = em.diameter_estimate(emb, 1500)
    assert 0.1 < d <= 2.0 / math.sqrt(4.0 * math.pi) + 0.05


@pytest.mark.parametrize("sides,lam,size", [
    ((2.0 * math.pi, 2.0 * math.pi), 40.0, 4000),
    ((2.0 * math.pi, 1.5 * math.pi), 12.0, 3000),
    ((2.0 * math.pi,), 30.0, 300),
    ((3.0, 4.0, 5.0), 6.0, 8000),
])
def test_torus_diameter_matches_cosine_sweep(sides, lam, size):
    # E(0, y) summed term by term over every node of the grid
    model = mf.flat_torus(sides)
    emb = em.make_embedding(model, lam)
    grid = mf.grid_coords(model, size)
    W = 2.0 * math.pi * sp.band_terms(model, lam, lam + 1.0) / np.array(sides)
    E = (2.0 / model.volume) * np.cos(grid @ W.T).sum(axis=1)
    k = emb.band.k_lambda
    want = math.sqrt(max(0.0, 2.0 * (emb.band.m_lambda / model.volume - E.min()))) / k
    assert em.diameter_estimate(emb, size) == pytest.approx(want, rel=1e-12)
