import math

import numpy as np
import pytest

from eigenband import basis as bs
from eigenband import embed as em
from eigenband import manifold as mf
from eigenband import spectrum as sp
from eigenband import waves as wv

SPHERE = mf.sphere2()
TORUS = mf.flat_torus((2.0 * math.pi, 2.0 * math.pi))


def test_sample_wave_deterministic():
    band = sp.enumerate_band(SPHERE, 9.0)
    a = wv.sample_wave(band, seed=4, sample_index=7)
    b = wv.sample_wave(band, seed=4, sample_index=7)
    assert np.array_equal(a.coefficients, b.coefficients)
    c = wv.sample_wave(band, seed=4, sample_index=8)
    d = wv.sample_wave(band, seed=5, sample_index=7)
    assert not np.array_equal(a.coefficients, c.coefficients)
    assert not np.array_equal(a.coefficients, d.coefficients)
    assert a.seed_info == (4, 7)


def test_coefficient_scale():
    band = sp.enumerate_band(SPHERE, 20.0)
    draws = np.concatenate([wv.sample_wave(band, 1, i).coefficients
                            for i in range(100)])
    v = float(np.var(draws)) * band.k_lambda ** 2
    assert 0.93 <= v <= 1.07


def test_wave_l2_norm_near_one():
    # quadrature L2 norm: E ||phi||_2^2 = m / k^2, which is close to 1
    band = sp.enumerate_band(SPHERE, 12.0)
    nodes, weights = bs.quadrature_rule(SPHERE, 16)
    V = bs.mode_matrix(SPHERE, band.modes, nodes)
    sq = []
    for i in range(60):
        w = wv.sample_wave(band, 2, i)
        vals = V @ w.coefficients
        sq.append(float(weights @ vals ** 2))
    mean_sq = float(np.mean(sq))
    assert mean_sq == pytest.approx(band.m_lambda / band.k_lambda ** 2, rel=0.2)
    assert 0.8 <= mean_sq <= 1.2


def test_eval_wave_matches_dot():
    band = sp.enumerate_band(TORUS, 5.0)
    w = wv.sample_wave(band, 3, 0)
    x = mf.make_point(TORUS, (0.4, 1.9))
    row = bs.mode_matrix(TORUS, band.modes, x.coords[None, :])[0]
    assert wv.eval_wave(w, x) == pytest.approx(float(row @ w.coefficients), abs=1e-14)


def test_single_mode_sup_exact():
    # one cos mode: sup |a| sqrt(2/vol), attained on the grid at the origin
    band = sp.enumerate_band(TORUS, 5.0)
    w = wv.sample_wave(band, 11, 0)
    coeffs = np.zeros_like(w.coefficients)
    coeffs[0] = 0.7
    wave = wv.RandomWave(band=band, coefficients=coeffs, seed_info=(11, 0))
    expected = 0.7 * math.sqrt(2.0 / TORUS.volume)
    assert wv.sup_norm(wave, 4.0) == pytest.approx(expected, rel=1e-12)


def test_sup_norm_monotone_in_density():
    band = sp.enumerate_band(SPHERE, 15.0)
    w = wv.sample_wave(band, 6, 2)
    s = [wv.sup_norm(w, d) for d in (4.0, 8.0, 16.0)]
    assert s[0] <= s[1] <= s[2]
    # refinement is already close at moderate density
    assert s[2] - s[1] <= 0.01 * s[2]


def test_sup_norm_below_coefficient_bound():
    band = sp.enumerate_band(SPHERE, 12.0)
    w = wv.sample_wave(band, 8, 1)
    # |phi(x)| <= ||a|| sqrt(m/vol) pointwise by Cauchy-Schwarz
    bound = float(np.linalg.norm(w.coefficients)) * math.sqrt(
        band.m_lambda / SPHERE.volume)
    assert wv.sup_norm(w, 8.0) <= bound + 1e-12


def test_expected_sup_worker_independent():
    a = wv.expected_sup(SPHERE, 12.0, 10, 6.0, seed=3, workers=1)
    b = wv.expected_sup(SPHERE, 12.0, 10, 6.0, seed=3, workers=4)
    assert a.mean == b.mean
    assert a.std_error == b.std_error
    assert a.grid_points == b.grid_points


def test_expected_sup_statistics():
    est = wv.expected_sup(TORUS, 9.0, 12, 6.0, seed=5)
    assert est.samples == 12
    assert est.mean > 0 and est.std_error > 0
    signed = wv.expected_sup(TORUS, 9.0, 12, 6.0, seed=5, statistic="max")
    assert signed.mean <= est.mean + 1e-12
    with pytest.raises(ValueError):
        wv.expected_sup(TORUS, 9.0, 12, 6.0, seed=5, statistic="median")


def test_batch_matches_individual():
    band = sp.enumerate_band(SPHERE, 12.0)
    waves = [wv.sample_wave(band, 9, i) for i in range(5)]
    singles = [wv.sup_norm(w, 6.0) for w in waves]
    est = wv.expected_sup(SPHERE, 12.0, 5, 6.0, seed=9)
    assert est.mean == pytest.approx(float(np.mean(singles)), abs=1e-10)


def test_sup_norm_bound_values():
    b = wv.sup_norm_bound(SPHERE, 40.0)
    expected = 16.0 * math.sqrt(4.0 / (4.0 * math.pi)) * math.sqrt(math.log(40.0))
    assert b.general == pytest.approx(expected, rel=1e-14)
    assert b.aperiodic == pytest.approx(b.general / math.sqrt(2.0), rel=1e-14)
    with pytest.raises(ValueError):
        wv.sup_norm_bound(SPHERE, 1.0)


def test_mean_sup_below_bound():
    est = wv.expected_sup(SPHERE, 20.0, 20, 6.0, seed=12)
    assert est.mean <= wv.sup_norm_bound(SPHERE, 20.0).general


def _brute_force_sups(levels, A, use_abs):
    # every level scanned by mode_matrix @ coefficients, refined as the engine does
    sups = []
    for si in range(A.shape[1]):
        best = -np.inf
        for C, h in zip(levels.coords, levels.spacings):
            v = bs.mode_matrix(levels.model, levels.band.modes, C) @ A[:, si]
            if use_abs:
                v = np.abs(v)
            j = int(v.argmax())
            best = max(best, float(v[j]),
                       levels._refined_max(C[j], float(v[j]), h, A[:, si], use_abs))
        sups.append(best)
    return np.array(sups)


@pytest.mark.parametrize("sides,lam,density", [
    ((2.0 * math.pi, 3.7), 12.0, 6.0),
    ((2.0 * math.pi,), 30.0, 8.0),
    ((2.0, 2.5, 3.0), 3.0, 6.0),
])
@pytest.mark.parametrize("use_abs", [True, False])
def test_torus_fft_scan_matches_mode_matrix_scan(sides, lam, density, use_abs):
    model = mf.flat_torus(sides)
    band = sp.enumerate_band(model, lam)
    A = np.stack([wv.sample_wave(band, 21, i).coefficients for i in range(6)], axis=1)
    levels = wv._SupLevels(band, density)
    got = levels.batch_sups(A, use_abs=use_abs)
    want = _brute_force_sups(levels, A, use_abs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_torus_sup_norm_monotone_in_density():
    model = mf.flat_torus((2.0 * math.pi, 3.7))
    band = sp.enumerate_band(model, 15.0)
    w = wv.sample_wave(band, 6, 3)
    s = [wv.sup_norm(w, d) for d in (4.0, 8.0, 16.0, 32.0)]
    assert s == sorted(s)


def test_torus_wave_blocks_do_not_change_sups(monkeypatch):
    band = sp.enumerate_band(TORUS, 9.0)
    A = np.stack([wv.sample_wave(band, 4, i).coefficients for i in range(7)], axis=1)
    levels = wv._SupLevels(band, 8.0)
    largest = max(len(C) for C in levels.coords)
    monkeypatch.setattr(wv, "_CHUNK", 7 * largest)
    single = levels.batch_sups(A)
    # two waves per block on the finest level, more on the coarser ones
    monkeypatch.setattr(wv, "_CHUNK", 2 * largest)
    blocked = levels.batch_sups(A)
    assert np.array_equal(blocked, single)
