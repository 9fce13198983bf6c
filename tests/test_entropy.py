import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import eigenband
from eigenband import basis as bs
from eigenband import embed as em
from eigenband import entropy as en
from eigenband import manifold as mf

SPHERE = mf.sphere2()
TORUS = mf.flat_torus((2.0 * math.pi, 2.0 * math.pi))


def _brute_min_cover(points, distance, eps):
    n = len(points)
    C = np.stack([p.coords for p in points])
    D = np.stack([distance.rows(c, C) for c in C])
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if np.all(D[list(centers)].min(axis=0) <= eps):
                return k
    raise AssertionError("unreachable")


def test_greedy_net_sandwich_small_substrates():
    # optimal(eps) <= greedy(eps) <= optimal(eps/2), exhaustively checked
    rng = np.random.Generator(np.random.Philox(13))
    dg = mf.GeodesicDistance(TORUS)
    for trial in range(4):
        pts = [mf.uniform_sample(TORUS, rng) for _ in range(10)]
        for eps in (0.8, 1.5, 2.5):
            net = en.greedy_net(pts, dg, eps)
            low = _brute_min_cover(pts, dg, eps)
            high = _brute_min_cover(pts, dg, eps / 2.0)
            assert low <= len(net.centers) <= high
            assert net.covered_check <= eps


def test_greedy_net_invariants():
    pts = mf.quasi_uniform_grid(SPHERE, 300)
    dg = mf.GeodesicDistance(SPHERE)
    for eps in (0.4, 0.9, 1.7):
        net = en.greedy_net(pts, dg, eps)
        assert net.covered_check <= eps
        C = net.centers
        for i in range(len(C)):
            for j in range(i + 1, len(C)):
                assert mf.geodesic_distance(SPHERE, C[i], C[j]) > eps


def test_greedy_net_trivial_cases():
    pts = mf.quasi_uniform_grid(SPHERE, 200)
    dg = mf.GeodesicDistance(SPHERE)
    assert len(en.greedy_net(pts, dg, math.pi + 0.01).centers) == 1
    net = en.greedy_net(pts, dg, math.pi / 2.0)
    assert len(net.centers) in (2, 3, 4)
    again = en.greedy_net(net.centers, dg, math.pi / 2.0)
    assert len(again.centers) == len(net.centers)
    with pytest.raises(ValueError):
        en.greedy_net(pts, dg, 0.0)
    with pytest.raises(ValueError):
        en.greedy_net([], dg, 1.0)
    # a nan stop radius would never stop the traversal
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            en.greedy_net(pts, dg, bad)


class _NanAt(mf.GeodesicDistance):
    """The geodesic, but nan from or to the point at coordinates bad."""

    def __init__(self, model, bad):
        super().__init__(model)
        self.bad = bad

    def rows(self, X, Y):
        d = super().rows(X, Y)
        d[np.all(Y == self.bad, axis=-1)] = math.nan
        if np.array_equal(X, self.bad):
            d[...] = math.nan
        return d


def test_nan_distance_raises():
    pts = mf.quasi_uniform_grid(SPHERE, 50)
    d = _NanAt(SPHERE, pts[7].coords)
    with pytest.raises(ValueError, match="nan"):
        en.greedy_net(pts, d, 0.5)
    with pytest.raises(ValueError, match="nan"):
        en.covering_curve(pts, d, [1.0, 0.5])


def test_plain_function_is_no_distance():
    # a distance is its name and rows: the traversal walks nothing else
    pts = mf.quasi_uniform_grid(SPHERE, 60)

    def d(a, b):
        return mf.geodesic_distance(SPHERE, a, b)

    with pytest.raises(AttributeError, match="rows"):
        en.greedy_net(pts, d, 1.2)


def test_nameless_distance_fails_before_its_traversal():
    # an object with rows but no name is no distance: covering_curve reads
    # the name first, so no row is computed
    calls = []

    class Nameless:
        def rows(self, X, Y):
            calls.append(len(Y))
            return mf.GeodesicDistance(SPHERE).rows(X, Y)

    pts = mf.quasi_uniform_grid(SPHERE, 60)
    with pytest.raises(AttributeError, match="name"):
        en.covering_curve(pts, Nameless(), [1.0, 0.5])
    assert calls == []


def test_covering_curve_matches_pointwise_greedy():
    pts = mf.quasi_uniform_grid(SPHERE, 400)
    dg = mf.GeodesicDistance(SPHERE)
    eps = [1.5, 1.0, 0.7, 0.5, 0.35]
    curve = en.covering_curve(pts, dg, eps)
    assert curve.distance_id == "d_g"
    for e, nhat in curve.entries:
        assert nhat == len(en.greedy_net(pts, dg, e).centers)
    sizes = [n for _, n in curve.entries]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert abs(curve.diameter - math.pi) < 0.05
    # single ball at and above the diameter
    wide = en.covering_curve(pts, dg, [curve.diameter + 0.01])
    assert wide.entries[0][1] == 1


def test_covering_curve_validation():
    pts = mf.quasi_uniform_grid(SPHERE, 50)
    dg = mf.GeodesicDistance(SPHERE)
    with pytest.raises(ValueError):
        en.covering_curve(pts, dg, [])
    with pytest.raises(ValueError):
        en.covering_curve(pts, dg, [0.5, 1.0])
    with pytest.raises(ValueError):
        en.covering_curve(pts, dg, [1.0, -0.5])
    for bad in ([math.nan], [math.inf], [1.0, math.nan, 0.5]):
        with pytest.raises(ValueError):
            en.covering_curve(pts, dg, bad)


class _KernelRows:
    """A distance's rows(x, C) route alone, without its feature rows."""

    def __init__(self, distance):
        self.name = distance.name
        self.rows = distance.rows


def _jittered_grid(model, count, seed):
    """quasi_uniform_grid moved off its symmetries, so that no two distances
    tie exactly; an exact tie may be broken differently by two routes'
    rounding."""
    rng = np.random.default_rng(seed)
    C = np.stack([p.coords for p in mf.quasi_uniform_grid(model, count)])
    C = C + 0.01 * rng.standard_normal(C.shape)
    if model.kind == mf.SPHERE2:
        C /= np.linalg.norm(C, axis=1, keepdims=True)
    else:
        C = np.mod(C, np.array(model.side_lengths))
    return [mf.make_point(model, c) for c in C]


@pytest.mark.parametrize("model,lam,fractions", [
    (SPHERE, 9.0, (0.5, 0.35, 0.25)),
    (SPHERE, 40.0, (0.9, 0.75, 0.6)),
    (TORUS, 6.0, (0.7, 0.55, 0.45)),
])
def test_substrate_rows_match_kernel_rows(model, lam, fractions):
    # feature-matrix rows against the addition-theorem rows: same traversal
    pts = _jittered_grid(model, 2000, 29)
    C = np.stack([p.coords for p in pts])
    emb = em.make_embedding(model, lam)
    dist = em.CanonicalDistance(emb)
    ref = _KernelRows(dist)
    eps = [f * em.diameter_estimate(emb, 4000) for f in fractions]
    order, radii, _, _ = en._farthest_point_order(*en._walk(dist, C), eps[-1])
    ref_order, ref_radii, _, _ = en._farthest_point_order(*en._walk(ref, C), eps[-1])
    assert len(order) > 50
    assert order == ref_order
    assert np.allclose(radii[1:], ref_radii[1:], rtol=0, atol=1e-12)
    curve = en.covering_curve(pts, dist, eps)
    ref_curve = en.covering_curve(pts, ref, eps)
    # the sphere's feature route computes only the rows its cap cut lets
    # an insertion reach; the kernel rows cover every live point
    assert replace(curve, row_entries=0) == replace(ref_curve, row_entries=0)
    if model.kind == mf.SPHERE2:
        assert curve.row_entries < ref_curve.row_entries
    else:
        assert curve.row_entries == ref_curve.row_entries
    net = en.greedy_net(pts, dist, eps[1])
    ref_net = en.greedy_net(pts, ref, eps[1])
    assert [id(c) for c in net.centers] == [id(c) for c in ref_net.centers]
    assert net.covered_check == pytest.approx(ref_net.covered_check, abs=1e-12)


def _full_substrate_order(row, stop_radius):
    """Farthest-point traversal with every row over the whole substrate: the
    reference that the live-set traversal must reproduce. Also returns the
    exact final covering radius."""
    dmin = row(0).copy()
    order, radii = [0], [math.inf]
    while True:
        j = int(np.argmax(dmin))
        r = float(dmin[j])
        if r <= stop_radius:
            return order, radii, float(dmin.max())
        order.append(j)
        radii.append(r)
        np.minimum(dmin, row(j), out=dmin)


def _route(kind, model, lam=6.0):
    """A distance of one row route and full_rows: C -> (j -> the parent's
    row from substrate point j to all of C)."""
    if kind == "feature":
        dist = em.CanonicalDistance(em.make_embedding(model, lam))

        def full_rows(C):
            F = bs.mode_matrix(model, dist.embedding.band.modes, C)
            return lambda j: em._dist_from_kernels(dist._diag, dist._diag, F @ F[j],
                                                   dist._k)

        return dist, full_rows
    return mf.GeodesicDistance(model), lambda C: lambda j: mf.geodesic_rows(model, C[j], C)


@pytest.mark.parametrize("kind,model,lam,count,fractions", [
    ("feature", SPHERE, 9.0, 2000, (0.5, 0.25)),
    ("feature", SPHERE, 40.0, 2000, (0.75, 0.6)),
    ("feature", TORUS, 6.0, 2000, (0.7, 0.45)),
    ("geodesic", SPHERE, None, 2000, (0.3, 0.08)),
    ("geodesic", TORUS, None, 2000, (0.3, 0.08)),
])
def test_live_set_traversal_matches_full_substrate(kind, model, lam, count, fractions):
    distance, full_rows = _route(kind, model, lam)
    pts = _jittered_grid(model, count, 31)
    C = np.stack([p.coords for p in pts])
    reach = float(full_rows(C)(0).max())
    for eps in (f * reach for f in fractions):
        order, radii, covered, row_entries = en._farthest_point_order(
            *en._walk(distance, C), eps)
        ref_order, ref_radii, ref_covered = _full_substrate_order(full_rows(C), eps)
        assert len(order) > 10
        assert order == ref_order
        assert np.allclose(radii[1:], ref_radii[1:], rtol=0, atol=1e-15)
        assert ref_covered - 1e-15 <= covered <= eps
        # the live set shrinks: fewer entries than one full row per insertion
        assert count <= row_entries < count * len(order)


@pytest.mark.parametrize("kind", ["feature", "geodesic"])
@pytest.mark.parametrize("model", [SPHERE, TORUS])
def test_live_set_empties_on_degenerate_substrates(kind, model):
    # the live set can empty before the stop test; argmax of an empty array
    # would raise
    distance, _ = _route(kind, model)
    grid = mf.quasi_uniform_grid(model, 40)
    for pts, eps in (([grid[3]], 0.1), ([grid[5]] * 7, 0.1), (grid, 100.0)):
        C = np.stack([p.coords for p in pts])
        order, radii, covered, row_entries = en._farthest_point_order(
            *en._walk(distance, C), eps)
        assert order == [0] and radii == [math.inf]
        assert 0.0 <= covered <= eps
        assert row_entries == len(pts)
        net = en.greedy_net(pts, distance, eps)
        assert net.centers == [pts[0]] and net.covered_check == covered
        curve = en.covering_curve(pts, distance, [eps])
        assert curve.entries == ((eps, 1),) and curve.row_entries == len(pts)


@pytest.mark.parametrize("model,lam", [(SPHERE, 9.0), (SPHERE, 20.0), (TORUS, 6.0)])
def test_covered_check_bounds_covering_radius(model, lam):
    # the brute-force covering radius of the centers <= covered_check <= eps
    pts = _jittered_grid(model, 400, 37)
    C = np.stack([p.coords for p in pts])
    for distance in (mf.GeodesicDistance(model),
                     em.CanonicalDistance(em.make_embedding(model, lam))):
        reach = float(distance.rows(C[0], C).max())
        for eps in (0.6 * reach, 0.35 * reach):
            net = en.greedy_net(pts, distance, eps)
            nearest = np.min([distance.rows(c.coords, C) for c in net.centers], axis=0)
            # compared squared: the square root magnifies rounding near zero
            assert nearest.max() ** 2 <= net.covered_check ** 2 + 1e-12
            assert net.covered_check <= eps


def test_feature_traversal_compacts_in_place():
    # settled rows leave Phi by a block copy in place, not a second Phi
    import tracemalloc

    emb = em.make_embedding(SPHERE, 40.0)
    C = mf.uniform_sample_rows(SPHERE, np.random.default_rng(83), 5000)
    F, rows, near = em.CanonicalDistance(emb).feature_rows(C)
    eps = 0.6 * float(rows(F[0], F).max())
    full = F.copy()
    ref_order, ref_radii, _ = _full_substrate_order(lambda j: rows(full[j], full), eps)
    tracemalloc.start()
    order, radii, _, row_entries = en._farthest_point_order(F, rows, (C, near), eps)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < F.nbytes / 4
    assert order == ref_order
    assert np.allclose(radii[1:], ref_radii[1:], rtol=0, atol=1e-15)
    # the live set did shrink
    assert len(F) <= row_entries < len(F) * len(order)


def _first_trough(f):
    """The first local minimum of f after its first local maximum."""
    up = int(np.argmax(np.diff(f) < 0))
    return float(f[up + int(np.argmax(np.diff(f[up:]) > 0))])


@pytest.mark.parametrize("lam", [5.0, 9.0, 20.0, 40.0])
def test_sphere_cap_cut_is_sound(lam):
    # every angle outside the cap, on a grid 16x finer than the cut table and
    # at random pairs, is at distance >= r
    emb = em.make_embedding(SPHERE, lam)
    dist = em.CanonicalDistance(emb)
    near = em._sphere_cap_cut(emb)
    steps = em._CUT_STEPS_PER_LAMBDA * math.ceil(lam)
    theta = np.linspace(0.0, math.pi, 16 * steps + 1)
    # grid[0] is the pole, the center of the meridian's cap
    grid = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=1)
    f_grid = dist.rows(np.array([0.0, 0.0, 1.0]), grid)
    rng = np.random.default_rng(89)
    C = mf.uniform_sample_rows(SPHERE, rng, 4000)
    F, rows, _ = dist.feature_rows(C)
    sampled = [(C, j, rows(F[j], F)) for j in range(4)]
    trough = _first_trough(f_grid)
    top = float(sampled[0][2].max())
    for r in np.linspace(top, 0.9 * trough, 300):
        for U, k, f in [(grid, 0, f_grid)] + sampled:
            cap = near(U, k, r)
            if r < trough:
                assert cap is not None
            if cap is None:
                continue
            outside = np.ones(len(U), dtype=bool)
            outside[cap] = False
            assert np.all(f[outside] >= r)


@pytest.mark.parametrize("lam,fractions", [
    (9.0, (0.5, 0.35)),
    (20.0, (0.75, 0.65)),
    (40.0, (0.75, 0.65)),
])
def test_cap_traversal_matches_full_substrate(lam, fractions):
    dist = em.CanonicalDistance(em.make_embedding(SPHERE, lam))
    C = np.stack([p.coords for p in _jittered_grid(SPHERE, 2000, 31)])
    F, rows, _ = dist.feature_rows(C)
    reach = float(rows(F[0], F).max())
    for eps in (f * reach for f in fractions):
        X, rows, cap = en._walk(dist, C)
        assert cap is not None
        order, radii, covered, row_entries = en._farthest_point_order(X, rows, cap, eps)
        ref_order, ref_radii, ref_covered = _full_substrate_order(
            lambda j: rows(F[j], F), eps)
        assert len(order) > 10
        assert order == ref_order
        assert np.allclose(radii[1:], ref_radii[1:], rtol=0, atol=1e-15)
        assert ref_covered - 1e-15 <= covered <= eps
        assert row_entries < en._farthest_point_order(F.copy(), rows, None, eps)[3]


@pytest.mark.parametrize("lam", [20.0, 40.0])
def test_cap_traversal_on_antipodal_pairs(lam):
    # on even l, d_lambda(x, -x) = 0 and d_lambda(c, x) = d_lambda(c, -x), so
    # twins tie exactly and the last bit of their rows picks one. A BLAS
    # product may round a row by where it sits in the matrix, and a cap
    # gathers rows into new places; rows that round each row alone give the
    # full-substrate order exactly, and the product rows give it up to
    # swapping twins
    dist = em.CanonicalDistance(em.make_embedding(SPHERE, lam))
    half = np.stack([p.coords for p in _jittered_grid(SPHERE, 1000, 43)])
    C = np.concatenate([half, -half])
    F, rows, _ = dist.feature_rows(C)

    def own_rows(f, G):
        return em._dist_from_kernels(dist._diag, dist._diag, np.einsum("ij,j->i", G, f),
                                     dist._k)

    reach = float(rows(F[0], F).max())
    for eps in (0.75 * reach, 0.65 * reach):
        X, _, cap = en._walk(dist, C)
        order, radii, covered, _ = en._farthest_point_order(X, own_rows, cap, eps)
        ref_order, ref_radii, ref_covered = _full_substrate_order(
            lambda j: own_rows(F[j], F), eps)
        assert len(order) > 10
        assert order == ref_order and radii == ref_radii and covered >= ref_covered
        order, radii, covered, _ = en._farthest_point_order(*en._walk(dist, C), eps)
        ref_order, ref_radii, ref_covered = _full_substrate_order(lambda j: rows(F[j], F),
                                                                  eps)
        assert [i % len(half) for i in order] == [i % len(half) for i in ref_order]
        assert np.allclose(radii[1:], ref_radii[1:], rtol=0, atol=1e-15)
        assert ref_covered - 1e-15 <= covered <= eps


def test_cap_traversal_computes_a_fraction_of_the_rows():
    # a silent fallback to full rows on the benchmark's lambda 40 curve fails
    emb = em.make_embedding(SPHERE, 40.0)
    dist = em.CanonicalDistance(emb)
    C = np.stack([p.coords for p in mf.quasi_uniform_grid(SPHERE, 12000)])
    eps = 0.65 * em.diameter_estimate(emb, 4000)
    X, rows, cap = en._walk(dist, C)
    order, radii, _, row_entries = en._farthest_point_order(X, rows, cap, eps)
    F, _, _ = dist.feature_rows(C)
    full_order, full_radii, _, full_entries = en._farthest_point_order(F, rows, None, eps)
    assert order == full_order
    assert np.allclose(radii[1:], full_radii[1:], rtol=0, atol=1e-15)
    assert row_entries < full_entries / 4


class _GeodesicCaps(mf.GeodesicDistance):
    """The sphere geodesic with a cap of its own: a center reaches below r
    only the points at cosine above cos r."""

    def feature_rows(self, C):
        def near(U, k, r):
            return np.flatnonzero(U @ U[k] > math.cos(r))

        return C.copy(), self.rows, near


def test_cap_traversal_takes_any_near_function():
    # the traversal holds no geometry: a geodesic cap walks as the geodesic
    # full rows do, computing fewer of them
    pts = _jittered_grid(SPHERE, 2000, 53)
    C = np.stack([p.coords for p in pts])
    capped, dg = _GeodesicCaps(SPHERE), mf.GeodesicDistance(SPHERE)
    eps = [0.3, 0.15, 0.08]
    order, radii, covered, row_entries = en._farthest_point_order(
        *en._walk(capped, C), eps[-1])
    ref_order, ref_radii, ref_covered, ref_entries = en._farthest_point_order(
        *en._walk(dg, C), eps[-1])
    assert len(order) > 100
    assert order == ref_order
    assert np.allclose(radii[1:], ref_radii[1:], rtol=0, atol=1e-15)
    assert covered == pytest.approx(ref_covered, abs=1e-15)
    assert row_entries < ref_entries
    for e in eps:
        net, ref_net = en.greedy_net(pts, capped, e), en.greedy_net(pts, dg, e)
        assert [id(c) for c in net.centers] == [id(c) for c in ref_net.centers]
        assert net.covered_check == pytest.approx(ref_net.covered_check, abs=1e-15)
    curve, ref_curve = en.covering_curve(pts, capped, eps), en.covering_curve(pts, dg, eps)
    assert replace(curve, row_entries=0) == replace(ref_curve, row_entries=0)
    assert curve.row_entries < ref_curve.row_entries


def test_cap_traversal_rejects_a_nan_coordinate():
    dist = em.CanonicalDistance(em.make_embedding(SPHERE, 20.0))
    C = np.stack([p.coords for p in _jittered_grid(SPHERE, 500, 47)])
    C[7, 1] = math.nan
    X, rows, cap = en._walk(dist, C)
    assert cap is not None
    with pytest.raises(ValueError, match="nan"):
        en._farthest_point_order(X, rows, cap, 0.1)


def test_covering_curve_walks_a_copy_of_the_coordinates():
    # compacting the coordinates the diameter probe reads would move its rows
    pts = _jittered_grid(SPHERE, 2000, 41)
    before = np.stack([p.coords for p in pts])
    dg = mf.GeodesicDistance(SPHERE)
    eps = 0.1
    curve = en.covering_curve(pts, dg, [eps])
    assert np.array_equal(np.stack([p.coords for p in pts]), before)
    centers = en.greedy_net(pts, dg, eps).centers
    assert curve.row_entries < len(pts) * len(centers)
    probe = np.stack([c.coords for c in centers[:64]])
    assert curve.diameter == max(float(dg.rows(c, probe).max()) for c in probe)


def test_center_is_never_inserted_again():
    # a center's distance to itself is a rounding residue of about 1e-8 on the
    # feature and geodesic routes; a traversal that kept it would insert the
    # same centers forever below it
    src = str(Path(eigenband.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from eigenband import embed, entropy, manifold\n"
            "s = manifold.sphere2()\n"
            "pts = manifold.quasi_uniform_grid(s, 30)\n"
            "for d in (embed.CanonicalDistance(embed.make_embedding(s, 9.0)),\n"
            "          manifold.GeodesicDistance(s)):\n"
            "    print(len(entropy.greedy_net(pts, d, 1e-12).centers),\n"
            "          entropy.covering_curve(pts, d, [1e-12]).entries[0][1])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["30"] * 4


@pytest.mark.parametrize("kind", ["feature", "geodesic"])
def test_one_insertion_curve_has_a_diameter(kind):
    # one center leaves no pair to probe: the diameter is its row's maximum
    distance, full_rows = _route(kind, SPHERE, 9.0)
    pts = mf.quasi_uniform_grid(SPHERE, 30)
    C = np.stack([p.coords for p in pts])
    reach = float(full_rows(C)(0).max())
    curve = en.covering_curve(pts, distance, [5.0])
    assert curve.entries == ((5.0, 1),)
    assert curve.diameter == reach > 0
    assert en.dudley_report(curve).half_diameter == reach / 2


def test_dimension_recovery_geodesic():
    pts = mf.quasi_uniform_grid(SPHERE, 12000)
    dg = mf.GeodesicDistance(SPHERE)
    eps = list(np.geomspace(0.5, 0.05, 12))
    curve = en.covering_curve(pts, dg, eps)
    slope = en.fit_exponent(curve, n_max=len(pts) // 4)
    assert abs(slope - 2.0) <= 0.3


def test_band_distance_curve_frequency_scaling():
    # net sizes at fixed epsilon grow like the frequency squared
    pts = mf.quasi_uniform_grid(SPHERE, 12000)
    sizes = {}
    for lam in (20.0, 40.0):
        emb = em.make_embedding(SPHERE, lam)
        curve = en.covering_curve(pts, em.CanonicalDistance(emb), [0.25])
        sizes[lam] = curve.entries[0][1]
    ratio = sizes[40.0] / sizes[20.0]
    assert 2.0 <= ratio <= 8.0


def test_fit_exponent_degenerate():
    curve = en.CoveringCurve(entries=((0.5, 1), (0.25, 1)), distance_id="x",
                             diameter=1.0)
    assert math.isnan(en.fit_exponent(curve))


def test_dudley_bound_synthetic_oracle():
    # N(eps) = eps^-2 with D = 1/2 integrates in closed form to 1%
    eps = np.geomspace(0.5, 1e-4, 80)
    entries = tuple((float(e), float(e ** -2.0)) for e in eps)
    curve = en.CoveringCurve(entries=entries, distance_id="synthetic", diameter=1.0)
    got = en.dudley_report(curve).bound
    oracle = 8 * math.sqrt(2) * quad(
        lambda e: math.sqrt(2 * math.log(1 / e)), 0, 0.5,
        epsabs=1e-13, epsrel=1e-13)[0]
    assert got == pytest.approx(oracle, rel=0.01)
    rep = en.dudley_report(curve)
    assert rep.tail_exponent == pytest.approx(2.0, abs=1e-9)
    assert rep.half_diameter == 0.5


@pytest.mark.parametrize("c,p,eps_max,eps_min", [
    (1.0, 2.0, 0.5, 1e-4),    # tail from u0 = ln(1e4)
    (3.0, 2.0, 0.4, 0.05),    # u0 = ln(sqrt(3) / 0.05)
    (2.0, 1.0, 1.9, 1.8),     # u0 = ln(2 / 1.8), near 0.1
    (5.0, 3.0, 0.3, 1e-12),   # u0 near 28
])
def test_dudley_bound_matches_gammaincc_reference(c, p, eps_max, eps_min):
    # power-law curves N(eps) = c eps^-p with half diameter eps_max: the bound
    # is the trapezoid plus the tail through scipy's regularized gammaincc
    from scipy.special import gammaincc
    eps = np.geomspace(eps_max, eps_min, 40)
    curve = en.CoveringCurve(entries=tuple((float(e), c * e ** -p) for e in eps),
                             distance_id="synthetic", diameter=2.0 * eps_max)
    x = eps[::-1]
    scale = c ** (1.0 / p)
    tail = math.sqrt(p) * scale * (math.sqrt(math.pi) / 2.0) \
        * float(gammaincc(1.5, math.log(scale / x[0])))
    ref = en.DUDLEY_CONSTANT * (np.trapezoid(np.sqrt(np.log(c * x ** -p)), x) + tail)
    assert en.dudley_report(curve).bound == pytest.approx(ref, rel=1e-13)


def test_dudley_degenerate_and_fallback():
    flat = en.CoveringCurve(entries=((0.5, 1), (0.25, 1)), distance_id="x",
                            diameter=1.0)
    assert en.dudley_report(flat).bound == 0.0
    one = en.CoveringCurve(entries=((0.25, 9),), distance_id="x", diameter=1.0)
    v = en.dudley_report(one).bound
    assert v > 0 and math.isfinite(v)
    with pytest.raises(ValueError):
        en.dudley_report(en.CoveringCurve(entries=(), distance_id="x", diameter=1.0))


def test_dudley_tail_closed_form():
    # tail formula equals the numeric integral of the fitted power law
    c, n_exp, eps0 = 3.0, 2.0, 0.05
    scale = c ** (1.0 / n_exp)
    from scipy.special import gammaincc
    closed = math.sqrt(n_exp) * scale * (math.sqrt(math.pi) / 2.0) \
        * float(gammaincc(1.5, math.log(scale / eps0)))
    numeric = quad(lambda e: math.sqrt(math.log(c / e ** n_exp)), 0, eps0,
                   epsabs=1e-13, epsrel=1e-13)[0]
    assert closed == pytest.approx(numeric, rel=1e-9)


def test_lp_covering_bound_values_and_window():
    assert en.lp_covering_bound(SPHERE, 1.0) == pytest.approx(8.0 * math.pi)
    assert en.lp_covering_bound(TORUS, 1.0) == pytest.approx(8.0 * math.pi ** 2)
    for bad in (0.0, -0.3, math.pi + 0.1):
        with pytest.raises(ValueError):
            en.lp_covering_bound(SPHERE, bad)
    # torus window is capped by the injectivity radius
    with pytest.raises(ValueError):
        en.lp_covering_bound(TORUS, TORUS.injectivity_radius + 0.01)


def test_geodesic_net_below_lp_bound():
    pts = mf.quasi_uniform_grid(SPHERE, 4000)
    dg = mf.GeodesicDistance(SPHERE)
    for r in (0.5, 1.0):
        n = len(en.greedy_net(pts, dg, r).centers)
        assert n <= en.lp_covering_bound(SPHERE, r)


def test_erfcx_matches_scipy():
    from scipy.special import erfcx
    # both sides of the switch to the asymptotic series at 8
    xs = np.concatenate([np.geomspace(1e-8, 1e4, 4000), np.geomspace(1e4, 1e160, 200),
                         [8.0 * (1 - 1e-15), 8.0]])
    got = np.array([en._erfcx(float(x)) for x in xs])
    assert np.max(np.abs(got / erfcx(xs) - 1.0)) < 1e-14


CLAIM_A = (5e-324, 1e-300, 1e-8, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 10.0,
           1e6, 1e300)


@pytest.mark.parametrize("a", CLAIM_A)
def test_claim_integral_matches_scipy_closed_form(a):
    from scipy.special import erfcx
    ref = 1.0 + 0.5 * math.sqrt(a * math.pi) * float(erfcx(1.0 / math.sqrt(a)))
    assert en.claim_integral(a) == pytest.approx(ref, rel=1e-15)


def test_claim_integral_rejects_overflowing_a():
    # a * pi overflows from about 5.7e307 on
    assert math.isfinite(en.claim_integral(1e307))
    with pytest.raises(ValueError, match="a\\*pi finite"):
        en.claim_integral(1e308)


def test_claim_integral_bounds():
    for a in (0.01, 0.05, 0.1, 0.2, 0.5):
        val = en.claim_integral(a)
        assert abs(val - 1.0) <= a / 2.0
    assert en.claim_integral(1e-6) == pytest.approx(1.0, abs=1e-6)
    assert 1.0 < en.claim_integral(0.1) <= 1.05
    with pytest.raises(ValueError):
        en.claim_integral(0.0)
    with pytest.raises(ValueError):
        en.claim_integral(-0.2)


def test_gaussian_tail_estimate():
    # int_x^inf exp(-y^2/2) dy <= exp(-x^2/2) / x
    for x in (1.0, 2.0, 4.0, 8.0):
        tail = quad(lambda y: math.exp(-y * y / 2.0), x, math.inf)[0]
        assert tail <= math.exp(-x * x / 2.0) / x


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(eigenband.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_does_not_load_scipy():
    # numpy is the package's only runtime dependency
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    # the sphere lambda 200 distance profile reaches J_0 arguments up to ~630
    profile = ("from eigenband import embed, manifold; "
               "e = embed.make_embedding(manifold.sphere2(), 200.0); "
               "embed.distance_profile(e, [0.0, 0.5, 3.14159]); ")
    entropy = ("from eigenband import entropy as en; "
               "en.claim_integral(0.1); "
               "en.dudley_report(en.CoveringCurve(entries=((0.5, 4), (0.1, 60), (0.05, 250)), "
               "distance_id='x', diameter=1.0)); ")
    for body in ("", profile, entropy):
        out = _fresh_python("import sys, eigenband; " + body + report)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes every scipy import raise ImportError
    for argv in (["claim"],
                 ["dudley", "--lambda", "9", "--samples", "4", "--substrate", "2000"]):
        out = _fresh_python("import sys; sys.modules['scipy'] = None; "
                            "from eigenband import cli; "
                            f"sys.exit(cli.main({argv + ['--out', str(tmp_path)]!r}))")
        assert out.returncode == 0, out.stderr
