import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

try:
    from scipy.special import sph_harm_y

    def _complex_harmonic(l, m, theta, phi):
        return sph_harm_y(l, m, theta, phi)
except ImportError:  # older scipy
    from scipy.special import sph_harm

    def _complex_harmonic(l, m, theta, phi):
        return sph_harm(m, l, phi, theta)

import eigenband
from eigenband import basis as bs
from eigenband import embed as em
from eigenband import manifold as mf
from eigenband import spectrum as sp

SPHERE = mf.sphere2()
TORUS = mf.flat_torus((2.0 * math.pi, 1.5 * math.pi))


def _scipy_real_harmonic(l, m, theta, phi):
    # real combination of scipy's complex harmonics (Condon-Shortley included
    # there, cancelled here)
    if m == 0:
        return float(_complex_harmonic(l, 0, theta, phi).real)
    y = _complex_harmonic(l, abs(m), theta, phi)
    s = math.sqrt(2.0) * (-1.0) ** abs(m)
    return s * (y.real if m > 0 else y.imag)


def test_sphere_values_match_scipy():
    rng = np.random.Generator(np.random.Philox(2))
    band = sp.enumerate_band(SPHERE, 5.0)
    l = band.modes[0].label[0]
    coords = np.stack([mf.uniform_sample(SPHERE, rng).coords for _ in range(40)])
    V = bs.mode_matrix(SPHERE, band.modes, coords)
    theta = np.arccos(np.clip(coords[:, 2], -1, 1))
    phi = np.arctan2(coords[:, 1], coords[:, 0])
    for j, mode in enumerate(band.modes):
        ref = [_scipy_real_harmonic(l, mode.label[1], t, p)
               for t, p in zip(theta, phi)]
        assert np.allclose(V[:, j], ref, atol=1e-13), mode.label


def test_value_addition_theorem():
    # sum_m Y_lm(x)^2 = (2l+1)/(4 pi), x-independent
    rng = np.random.Generator(np.random.Philox(9))
    for lam in (9.0, 60.0, 200.0):
        band = sp.enumerate_band(SPHERE, lam)
        l = band.modes[0].label[0]
        coords = np.stack([mf.uniform_sample(SPHERE, rng).coords for _ in range(20)])
        V = bs.mode_matrix(SPHERE, band.modes, coords)
        target = (2 * l + 1) / (4 * math.pi)
        assert np.allclose((V ** 2).sum(axis=1), target, rtol=1e-11)


def _per_order_values(modes, coords):
    """The sphere mode matrix one order at a time: the diagonal seed by its
    running product, then basis._order_climb, then the azimuthal
    factor, in the operation order of the value route before the all-orders
    climb."""
    t, s, phi = bs._sphere_angles(coords)
    out = np.empty((len(coords), len(modes)))
    rows = {}
    for j, mode in enumerate(modes):
        l, m = mode.label
        if (l, abs(m)) not in rows:
            diag = np.full(len(coords), bs._INV_SQRT_4PI)
            for i in range(1, abs(m) + 1):
                diag = diag * math.sqrt((2 * i + 1) / (2.0 * i)) * s
            rows[l, abs(m)] = bs._order_climb(l, abs(m), t, diag)[0]
        row = rows[l, abs(m)]
        if m == 0:
            out[:, j] = row
        else:
            out[:, j] = math.sqrt(2.0) * row * (np.cos if m > 0 else np.sin)(abs(m) * phi)
    return out


def _mixed_points(count, rng):
    """Both poles, then equiangular ring nodes (j + 1/2) pi / N at scattered
    azimuths, then uniform random points: count rows."""
    rings = max(1, count // 3)
    theta = (np.arange(rings) + 0.5) * (math.pi / rings)
    phi = rng.uniform(0.0, 2.0 * math.pi, rings)
    ring = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=1)
    rand = rng.standard_normal((count, 3))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    return np.concatenate([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], ring, rand])[:count]


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0, 9.0, 20.0, 40.0, 63.0, 80.0, 320.0, 640.0])
def test_sphere_values_equal_per_order_route(lam):
    # the all-orders climb repeats each order's arithmetic, so it is bit-identical;
    # counts straddle the climb's point block, and the mode order is shuffled
    rng = np.random.default_rng(int(lam * 10))
    band = sp.enumerate_band(SPHERE, lam)
    modes = [band.modes[i] for i in rng.permutation(band.m_lambda)]
    block = bs._climb_block(max(m.label[0] for m in modes))
    coords = _mixed_points(block + 1, rng)
    ref = _per_order_values(modes, coords)
    for count in sorted({1, block - 1, block, block + 1} - {0}):
        assert np.array_equal(bs.mode_matrix(SPHERE, modes, coords[:count]), ref[:count])


def test_sphere_values_equal_per_order_route_across_degrees():
    # degrees 0..3 in one call, interleaved, with a repeated mode
    labels = [(l, m) for l in range(4) for m in range(-l, l + 1)]
    rng = np.random.default_rng(3)
    modes = [sp.Mode(mu=0.0, label=labels[i]) for i in rng.permutation(len(labels))]
    modes.append(modes[0])
    coords = _mixed_points(50, rng)
    assert np.array_equal(bs.mode_matrix(SPHERE, modes, coords), _per_order_values(modes, coords))


@pytest.mark.parametrize("lam", [9.0, 40.0, 80.0])
def test_sphere_values_match_normalized_legendre(lam):
    # scipy's normalized Legendre values, at azimuth 0 where a cos column is
    # sqrt(2) Pbar_l^m; points built from theta, the angle scipy takes
    band = sp.enumerate_band(SPHERE, lam)
    theta = (np.arange(97) + 0.5) * (math.pi / 97)
    t = np.cos(theta)
    coords = np.stack([np.sqrt(1.0 - t * t), np.zeros_like(t), t], axis=1)
    V = bs.mode_matrix(SPHERE, band.modes, coords)
    for j, mode in enumerate(band.modes):
        l, m = mode.label
        if m < 0:
            continue
        ref = np.array([_scipy_real_harmonic(l, m, a, 0.0) for a in theta])
        assert np.max(np.abs(V[:, j] - ref)) <= 1e-12 * np.max(np.abs(ref)), mode.label


def test_sphere_values_working_set():
    # the climb takes its points in blocks: beyond the output, a 12000-point
    # lambda 40 matrix needs well under 2 MiB (an unblocked climb needs about 19 MiB)
    band = sp.enumerate_band(SPHERE, 40.0)
    coords = np.stack([p.coords for p in mf.quasi_uniform_grid(SPHERE, 12000)])
    tracemalloc.start()
    try:
        V = bs.mode_matrix(SPHERE, band.modes, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - V.nbytes < 2 * 2 ** 20


def test_climb_coefficients_working_set():
    # the step columns a and b are built in place: at degree 640 the build
    # takes at most one array of their length beyond the two it keeps (the
    # tril_indices route took three)
    tracemalloc.start()
    try:
        coefficients = bs._climb_coefficients(640)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(coefficients[2]) == 639
    assert peak - kept < 1.2 * (8 * 640 * 639 // 2)


def test_torus_values_by_formula():
    band = sp.enumerate_band(TORUS, 5.0)
    rng = np.random.Generator(np.random.Philox(4))
    coords = np.stack([mf.uniform_sample(TORUS, rng).coords for _ in range(30)])
    V = bs.mode_matrix(TORUS, band.modes, coords)
    amp = math.sqrt(2.0 / TORUS.volume)
    for j, mode in enumerate(band.modes):
        k, flavor = mode.label
        w = 2.0 * math.pi * np.array(k) / np.array(TORUS.side_lengths)
        phase = coords @ w
        ref = amp * (np.cos(phase) if flavor == "cos" else np.sin(phase))
        assert np.allclose(V[:, j], ref, atol=1e-13)


@pytest.mark.parametrize("sides,lam", [
    ((2.0 * math.pi, 3.7), 12.0), ((2.0 * math.pi, 2.0 * math.pi), 40.0),
    ((2.0, 2.5, 3.0), 8.0),
])
def test_torus_rows_do_not_depend_on_the_batch(sides, lam):
    model = mf.flat_torus(sides)
    band = sp.enumerate_band(model, lam)
    rng = np.random.Generator(np.random.Philox(8))
    coords = rng.uniform(0.0, 1.0, (40, model.dim)) * np.array(sides)
    V = bs.mode_matrix(model, band.modes, coords)
    G = bs.gradient_matrix(model, band.modes, coords)
    for i in range(len(coords)):
        assert np.array_equal(bs.mode_matrix(model, band.modes, coords[i:i + 1]), V[i:i + 1])
        assert np.array_equal(bs.gradient_matrix(model, band.modes, coords[i:i + 1]), G[i:i + 1])


def _full_half_lattice_values(model, modes, A, counts):
    """torus_grid_values with the complex inverse FFTs over every column of
    the Hermitian half lattice, not only the band's, the amplitude folded
    into the lattice's coefficients."""
    size = math.prod(counts)
    half = (*counts[:-1], counts[-1] // 2 + 1)
    labels = [mode.label for mode in modes]
    K = np.array([k for k, _ in labels], dtype=np.intp).reshape(-1, len(counts))
    sites = np.concatenate([K, -K]) % np.array(counts)
    amplitude = size * math.sqrt(2.0 / model.volume)
    C = A.T * (np.array([0.5 if flavor == "cos" else -0.5j for _, flavor in labels])
               * amplitude)
    keep = sites[:, -1] < half[-1]
    lattice = np.zeros((A.shape[1], *half), dtype=complex)
    np.add.at(lattice.reshape(len(lattice), -1),
              (slice(None), np.ravel_multi_index(tuple(sites[keep].T), half)),
              np.concatenate([C, C.conj()], axis=1)[:, keep])
    for axis in range(1, len(counts)):
        np.fft.ifft(lattice, axis=axis, out=lattice)
    return np.fft.irfft(lattice, n=counts[-1], axis=-1).reshape(-1, size)


@pytest.mark.parametrize("sides,lam,counts", [
    ((2.0 * math.pi,), 30.0, (97,)),
    ((2.0 * math.pi, 2.0 * math.pi), 12.0, (40, 40)),
    ((2.0 * math.pi, 1.5 * math.pi), 9.0, (31, 24)),
    # fewer nodes than frequencies on an axis: the lattice wraps
    ((2.0 * math.pi, 1.5 * math.pi), 9.0, (7, 5)),
    ((3.0, 4.0, 5.0), 6.0, (9, 12, 14)),
    # even count: k = 31 sits on the Nyquist site, where -k lands too
    ((2.0 * math.pi,), 30.0, (62,)),
    # modes on the last axis's zero and Nyquist planes, and k = -k mod counts
    ((2.0 * math.pi, 2.0 * math.pi), 10.0, (9, 22)),
    ((3.0, 4.0, 5.0), 6.0, (4, 6, 8)),
    # odd last-axis counts, a coarse one, and a single node on the last axis
    ((2.0 * math.pi, 1.5 * math.pi), 9.0, (6, 7)),
    ((2.0 * math.pi, 2.0 * math.pi), 5.0, (5, 1)),
])
def test_torus_grid_values_match_mode_matrix(sides, lam, counts):
    model = mf.flat_torus(sides)
    band = sp.enumerate_band(model, lam)
    A = np.random.Generator(np.random.Philox(6)).standard_normal((band.m_lambda, 3))
    ref = (bs.mode_matrix(model, band.modes, mf.product_grid(model, counts)) @ A).T
    V = bs.torus_grid_values(model, band.modes, A, counts)
    assert V.shape == (3, math.prod(counts))
    assert np.allclose(V, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    # transforming only the band's last-axis columns changes no bit
    assert np.array_equal(V, _full_half_lattice_values(model, band.modes, A, counts))


def test_torus_grid_values_empty_modes():
    model = mf.flat_torus((2.0 * math.pi, 3.0))
    A = np.zeros((0, 3))
    ref = (bs.mode_matrix(model, [], mf.product_grid(model, (4, 5))) @ A).T
    V = bs.torus_grid_values(model, [], A, (4, 5))
    assert V.shape == (3, 20)
    assert np.array_equal(V, ref)
    assert np.array_equal(V, _full_half_lattice_values(model, [], A, (4, 5)))


@pytest.mark.parametrize("sides,lam,grid_size", [
    ((2.0 * math.pi, 2.0 * math.pi), 40.0, 250000),
    ((2.0 * math.pi, 1.5 * math.pi), 9.0, 2000),
    ((3.0, 4.0, 5.0), 6.0, 5000),
    ((2.0 * math.pi,), 30.0, 500),
])
def test_torus_diameter_equals_full_half_lattice_route(sides, lam, grid_size, monkeypatch):
    emb = em.make_embedding(mf.flat_torus(sides), lam)
    got = em.diameter_estimate(emb, grid_size)
    monkeypatch.setattr(bs, "torus_grid_values", _full_half_lattice_values)
    assert got == em.diameter_estimate(emb, grid_size)


def _fd_gradient(model, modes, x, h=1e-6):
    n = model.dim
    out = np.zeros((len(modes), n))
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        vp = bs.mode_matrix(model, modes, mf.exp_map(model, x, e).coords[None, :])[0]
        vm = bs.mode_matrix(model, modes, mf.exp_map(model, x, -e).coords[None, :])[0]
        out[:, a] = (vp - vm) / (2 * h)
    return out


@pytest.mark.parametrize("model,lam", [(SPHERE, 9.0), (SPHERE, 40.0), (TORUS, 5.0)])
def test_gradients_match_finite_differences(model, lam):
    band = sp.enumerate_band(model, lam)
    rng = np.random.Generator(np.random.Philox(12))
    for _ in range(6):
        x = mf.uniform_sample(model, rng)
        G = bs.gradient_matrix(model, band.modes, x.coords)[0]
        F = _fd_gradient(model, band.modes, x)
        scale = max(1.0, float(np.max(np.abs(G))))
        assert np.max(np.abs(G - F)) / scale < 1e-7


def _per_mode_gradients(modes, x):
    """Sphere gradient_matrix one mode at a time: each order's diagonal seed
    at sin^(m-1) by its running product, basis._order_climb, the
    d/dtheta and over-sine rows, the azimuthal factors and the ambient
    frame, in the operation order of the per-mode assembly before the label
    arrays, then the tangent frame."""
    t, s, phi = bs._sphere_angles(x.coords[None, :])
    cphi, sphi = np.cos(phi), np.sin(phi)
    e_theta = np.stack([t * cphi, t * sphi, -s], axis=1)
    e_phi = np.stack([-sphi, cphi, np.zeros_like(phi)], axis=1)

    def over_sine(l, m):
        diag = np.full(1, bs._INV_SQRT_4PI * math.sqrt(3.0 / 2.0))
        for i in range(2, m + 1):
            diag = diag * math.sqrt((2 * i + 1) / (2.0 * i)) * s
        return bs._order_climb(l, m, t, diag)

    out = np.zeros((len(modes), 3))
    for j, mode in enumerate(modes):
        l, m = mode.label
        a = abs(m)
        if m == 0:
            dph = np.zeros(1)
            dth = -math.sqrt(l * (l + 1.0)) * (over_sine(l, 1)[0] * s) if l else np.zeros(1)
        else:
            r_l, r_lm1 = over_sine(l, a)
            c = math.sqrt((l * l - a * a) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) if l > a else 0.0
            dtheta = l * t * r_l - c * r_lm1
            if m > 0:
                dth = math.sqrt(2.0) * dtheta * np.cos(a * phi)
                dph = -math.sqrt(2.0) * a * r_l * np.sin(a * phi)
            else:
                dth = math.sqrt(2.0) * dtheta * np.sin(a * phi)
                dph = math.sqrt(2.0) * a * r_l * np.cos(a * phi)
        out[j] = (dth[:, None] * e_theta + dph[:, None] * e_phi)[0]
    return out @ mf.tangent_frame(SPHERE, x).T


def _assert_rows_equal_per_mode_route(modes, coords):
    # every row of one batched call, against the route one point at a time
    points = [mf.make_point(SPHERE, c) for c in coords]
    G = bs.gradient_matrix(SPHERE, modes, np.array([x.coords for x in points]))
    assert G.shape == (len(points), len(modes), 2)
    for row, x in zip(G, points):
        assert np.array_equal(row, _per_mode_gradients(modes, x))


# a point 1e-7 from the north pole, where 1 - t^2 loses precision
NEAR_POLE = (math.sin(1e-7), 0.0, math.cos(1e-7))


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 9.0, 40.0, 80.0])
def test_sphere_gradients_equal_per_mode_route(lam):
    # poles, ring nodes and random points in one call, with the mode order shuffled
    rng = np.random.default_rng(int(lam * 10) + 1)
    band = sp.enumerate_band(SPHERE, lam)
    modes = [band.modes[i] for i in rng.permutation(band.m_lambda)]
    _assert_rows_equal_per_mode_route(modes, np.vstack([_mixed_points(9, rng), NEAR_POLE]))


def test_sphere_gradients_equal_per_mode_route_across_degrees():
    # degrees 0..4 in one call, interleaved, with a repeated mode
    labels = [(l, m) for l in range(5) for m in range(-l, l + 1)]
    rng = np.random.default_rng(4)
    modes = [sp.Mode(mu=0.0, label=labels[i]) for i in rng.permutation(len(labels))]
    modes.append(modes[0])
    _assert_rows_equal_per_mode_route(modes, _mixed_points(9, rng))


@pytest.mark.parametrize("model", [SPHERE, TORUS])
def test_gradients_of_no_modes(model):
    x = mf.uniform_sample(model, np.random.default_rng(5))
    G = bs.gradient_matrix(model, [], x.coords)
    assert G.shape == (1, 0, model.dim)


def test_gradients_at_poles():
    band = sp.enumerate_band(SPHERE, 9.0)
    for z in (1.0, -1.0):
        pole = mf.make_point(SPHERE, (0.0, 0.0, z))
        G = bs.gradient_matrix(SPHERE, band.modes, pole.coords)[0]
        F = _fd_gradient(SPHERE, band.modes, pole, h=1e-5)
        assert np.all(np.isfinite(G))
        scale = max(1.0, float(np.max(np.abs(G))))
        assert np.max(np.abs(G - F)) / scale < 1e-6
    # near-pole, where naive 1 - t^2 loses precision
    G = bs.gradient_matrix(SPHERE, band.modes, NEAR_POLE)
    assert np.all(np.isfinite(G))


def test_gradient_addition_theorem():
    # sum_m |grad Y_lm|^2 = l(l+1) (2l+1)/(4 pi)
    band = sp.enumerate_band(SPHERE, 8.0)
    l = band.modes[0].label[0]
    rng = np.random.Generator(np.random.Philox(21))
    target = l * (l + 1) * (2 * l + 1) / (4 * math.pi)
    for _ in range(8):
        x = mf.uniform_sample(SPHERE, rng)
        G = bs.gradient_matrix(SPHERE, band.modes, x.coords)
        assert float((G ** 2).sum()) == pytest.approx(target, rel=1e-9)


def test_torus_gradient_formula():
    band = sp.enumerate_band(TORUS, 4.0)
    x = mf.make_point(TORUS, (0.7, 2.1))
    G = bs.gradient_matrix(TORUS, band.modes, x.coords)[0]
    amp = math.sqrt(2.0 / TORUS.volume)
    for j, mode in enumerate(band.modes):
        k, flavor = mode.label
        w = 2.0 * math.pi * np.array(k) / np.array(TORUS.side_lengths)
        phase = float(x.coords @ w)
        ref = (-amp * math.sin(phase) * w if flavor == "cos"
               else amp * math.cos(phase) * w)
        assert np.allclose(G[j], ref, atol=1e-12)


def test_quadrature_weights_sum_to_volume():
    nodes, weights = bs.quadrature_rule(SPHERE, 20)
    assert float(np.sum(weights)) == pytest.approx(SPHERE.volume, rel=1e-12)
    nodes_t, weights_t = bs.quadrature_rule(TORUS, 16)
    assert float(np.sum(weights_t)) == pytest.approx(TORUS.volume, rel=1e-12)


@pytest.mark.parametrize("model,lam,q,tol", [
    (SPHERE, 12.0, 20, 1e-12),
    (TORUS, 5.0, 24, 1e-12),
])
def test_band_orthonormality(model, lam, q, tol):
    band = sp.enumerate_band(model, lam)
    assert bs.orthonormality_check(model, band, q) < tol


def test_basis_does_not_import_numpy_ma():
    # numpy.ma costs about 1 MiB of memory; nothing on these routes needs it
    src = str(Path(eigenband.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = """import sys
import numpy as np
import eigenband
from eigenband import basis, manifold, spectrum, waves
for model in (manifold.sphere2(), manifold.flat_torus((6.0, 5.0))):
    band = spectrum.enumerate_band(model, 6.0)
    x = manifold.uniform_sample(model, np.random.default_rng(0))
    basis.mode_matrix(model, band.modes, x.coords[None, :])
    basis.gradient_matrix(model, band.modes, x.coords)
    waves.expected_sup(model, 6.0, 2, 4.0, seed=1)
print('numpy.ma' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
