import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenband import manifold as mf

SPHERE = mf.sphere2()
TORUS = mf.flat_torus((2.0 * math.pi, 1.5 * math.pi))


def test_weyl_constants_n2():
    w = mf.weyl_constants(SPHERE)
    assert w.omega_n == pytest.approx(math.pi)
    assert w.alpha_n == pytest.approx(1.0 / (4.0 * math.pi))
    assert w.sphere_area == pytest.approx(2.0 * math.pi)
    assert mf.weyl_constants(TORUS).alpha_n == pytest.approx(1.0 / (4.0 * math.pi))


def test_model_fields():
    assert SPHERE.dim == 2 and SPHERE.volume == pytest.approx(4 * math.pi)
    assert SPHERE.injectivity_radius == pytest.approx(math.pi)
    assert SPHERE.curvature_sup == 1.0
    assert TORUS.volume == pytest.approx(2 * math.pi * 1.5 * math.pi)
    assert TORUS.injectivity_radius == pytest.approx(0.75 * math.pi)
    assert TORUS.curvature_sup == 0.0


def test_make_point_canonicalizes():
    p = mf.make_point(SPHERE, (1.0, 0.0, 0.0))
    assert np.allclose(p.coords, [1, 0, 0])
    q = mf.make_point(SPHERE, (2.0, 2.0, 2.0))
    assert np.linalg.norm(q.coords) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mf.make_point(SPHERE, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        mf.make_point(TORUS, (1.0,))
    with pytest.raises(ValueError):
        mf.check_point(SPHERE, mf.Point(np.array([0.5, 0.0, 0.0])))
    # torus coords wrap into the fundamental cell
    q = mf.make_point(TORUS, (2.0 * math.pi + 0.3, -0.2))
    assert q.coords[0] == pytest.approx(0.3)
    assert q.coords[1] == pytest.approx(1.5 * math.pi - 0.2)


def test_sphere_distances_known():
    n = mf.make_point(SPHERE, (0, 0, 1))
    s = mf.make_point(SPHERE, (0, 0, -1))
    e = mf.make_point(SPHERE, (1, 0, 0))
    assert mf.geodesic_distance(SPHERE, n, s) == pytest.approx(math.pi)
    assert mf.geodesic_distance(SPHERE, n, e) == pytest.approx(math.pi / 2)
    assert mf.geodesic_distance(SPHERE, n, n) == 0.0


def test_torus_distance_min_image():
    a = mf.make_point(TORUS, (0.1, 0.1))
    b = mf.make_point(TORUS, (2.0 * math.pi - 0.1, 0.1))
    assert mf.geodesic_distance(TORUS, a, b) == pytest.approx(0.2)
    c = mf.make_point(TORUS, (0.1 + math.pi, 0.1))
    assert mf.geodesic_distance(TORUS, a, c) == pytest.approx(math.pi)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_distance_rows_match_scalar(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    for model in (SPHERE, TORUS):
        d = mf.GeodesicDistance(model)
        x = mf.uniform_sample(model, rng)
        C = np.stack([mf.uniform_sample(model, rng).coords for _ in range(8)])
        rows = d.rows(x.coords, C)
        direct = [mf.geodesic_distance(model, x, mf.Point(c)) for c in C]
        assert np.allclose(rows, direct, atol=1e-12)
        X = np.stack([mf.uniform_sample(model, rng).coords for _ in range(8)])
        paired = d.rows(X, C)
        direct = [mf.geodesic_distance(model, mf.Point(a), mf.Point(c))
                  for a, c in zip(X, C)]
        assert np.allclose(paired, direct, atol=1e-12)


def test_uniform_sample_on_model():
    rng = np.random.Generator(np.random.Philox(7))
    pts = np.stack([mf.uniform_sample(SPHERE, rng).coords for _ in range(500)])
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(pts.mean(axis=0))) < 0.12
    tp = np.stack([mf.uniform_sample(TORUS, rng).coords for _ in range(200)])
    assert tp[:, 0].min() >= 0 and tp[:, 0].max() < 2 * math.pi
    assert tp[:, 1].min() >= 0 and tp[:, 1].max() < 1.5 * math.pi


def _draws(model, stream, count):
    """count draws written out one at a time: on the sphere a standard normal
    3-vector, drawn again while its norm is below 1e-12, over its norm; on a
    torus dim uniforms on [0, 1) times the side lengths."""
    rows = []
    for _ in range(count):
        if model.kind == mf.SPHERE2:
            v = stream.standard_normal(3)
            while float(np.linalg.norm(v)) < 1e-12:
                v = stream.standard_normal(3)
            rows.append(v / np.linalg.norm(v))
        else:
            rows.append(stream.uniform(0.0, 1.0, model.dim) * np.array(model.side_lengths))
    return np.array(rows)


@pytest.mark.parametrize("model", [SPHERE, TORUS, mf.flat_torus((2.5,)),
                                   mf.flat_torus((1.0, 2.0, 3.7))],
                         ids=["sphere", "torus", "torus1", "torus3"])
@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("count", [1, 1000])
def test_uniform_sample_rows_are_successive_draws(model, seed, count):
    def stream():
        return np.random.Generator(np.random.Philox(seed))

    want = _draws(model, stream(), count)
    rows = mf.uniform_sample_rows(model, stream(), count)
    rng = stream()
    loop = np.stack([mf.uniform_sample(model, rng).coords for _ in range(count)])
    assert np.array_equal(rows, want)
    assert np.array_equal(loop, want)


def test_quasi_uniform_grid():
    for model, hint in ((SPHERE, 500), (TORUS, 300)):
        pts = mf.quasi_uniform_grid(model, hint)
        assert len(pts) >= hint
        for p in pts[:10]:
            mf.check_point(model, p)
    # sphere grid is reasonably well spread: nearest neighbor not tiny
    pts = mf.quasi_uniform_grid(SPHERE, 400)
    C = np.stack([p.coords for p in pts])
    g = C @ C.T
    np.fill_diagonal(g, -1.0)
    closest = math.acos(min(1.0, g.max()))
    assert closest > 0.3 * math.sqrt(4 * math.pi / len(pts))


def test_tangent_frame_orthonormal():
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(20):
        x = mf.uniform_sample(SPHERE, rng)
        F = mf.tangent_frame(SPHERE, x)
        assert F.shape == (2, 3)
        assert np.allclose(F @ F.T, np.eye(2), atol=1e-12)
        assert np.allclose(F @ x.coords, 0.0, atol=1e-12)
    assert np.allclose(mf.tangent_frame(TORUS, mf.make_point(TORUS, (1, 1))),
                       np.eye(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_exp_log_round_trip(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    for model in (SPHERE, TORUS):
        x = mf.uniform_sample(model, rng)
        v = rng.standard_normal(2)
        v *= rng.uniform(0.0, 0.9) * model.injectivity_radius / np.linalg.norm(v)
        y = mf.exp_map(model, x, v)
        assert np.allclose(mf.log_map(model, x, y), v, atol=1e-9)
        assert mf.geodesic_distance(model, x, y) == pytest.approx(
            float(np.linalg.norm(v)), abs=1e-9)


def test_exp_map_rows_match_pointwise():
    rng = np.random.Generator(np.random.Philox(5))
    for model in (SPHERE, TORUS):
        X = np.stack([mf.uniform_sample(model, rng).coords for _ in range(30)])
        V = rng.standard_normal((30, 2))
        V[0] = 0.0
        want = np.stack([mf.exp_map(model, mf.Point(x), v).coords for x, v in zip(X, V)])
        np.testing.assert_allclose(mf.exp_map_rows(model, X, V), want, rtol=0, atol=1e-15)
        frames = np.stack([mf.tangent_frame(model, mf.Point(x)) for x in X])
        np.testing.assert_allclose(mf.tangent_frame_rows(model, X), frames, rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            mf.exp_map(model, mf.Point(X[1]), np.ones(3 if model is TORUS else 1))


def test_log_map_antipode_raises():
    n = mf.make_point(SPHERE, (0, 0, 1))
    with pytest.raises(ValueError):
        mf.log_map(SPHERE, n, mf.make_point(SPHERE, (0, 0, -1)))


def test_geodesic_waypoints():
    rng = np.random.Generator(np.random.Philox(11))
    for model in (SPHERE, TORUS):
        x = mf.uniform_sample(model, rng)
        y = mf.uniform_sample(model, rng)
        path = mf.geodesic_waypoints(model, x, y, 16)
        assert len(path) == 17
        assert np.allclose(path[0].coords, x.coords, atol=1e-12)
        assert np.allclose(path[-1].coords, y.coords, atol=1e-12)
        total = sum(mf.geodesic_distance(model, a, b)
                    for a, b in zip(path, path[1:]))
        assert total == pytest.approx(mf.geodesic_distance(model, x, y), abs=1e-9)
