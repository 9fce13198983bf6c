import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenband import manifold as mf
from eigenband import spectrum as sp

SPHERE = mf.sphere2()
TORUS = mf.flat_torus((2.0 * math.pi, 2.0 * math.pi))


def test_k_lambda_small_values():
    assert sp.k_lambda(1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    assert sp.k_lambda(2) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)
    assert sp.k_lambda(3) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-14)


def test_k_lambda_squared_tracks_dimension():
    # k^2/m -> 1 from below as the band grows
    prev = 0.0
    for m in (1, 2, 5, 10, 50, 200, 1000):
        q = sp.k_lambda(m) ** 2 / m
        assert q < 1.0
        assert q > prev
        prev = q
    assert sp.k_lambda(1000) ** 2 / 1000 > 0.999


def test_k_lambda_domain():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            sp.k_lambda(bad)


def test_sphere_band_single_degree():
    band = sp.enumerate_band(SPHERE, 9.0)
    degrees = {m.label[0] for m in band.modes}
    assert degrees == {9}
    assert band.m_lambda == 19
    assert all(m.mu == pytest.approx(math.sqrt(90.0)) for m in band.modes)
    orders = sorted(m.label[1] for m in band.modes)
    assert orders == list(range(-9, 10))


def test_sphere_band_mu_window():
    # the window (lam, lam+1] holds every mode frequency
    for lam in (1.0, 7.3, 19.5, 60.0):
        band = sp.enumerate_band(SPHERE, lam)
        for m in band.modes:
            assert lam < m.mu <= lam + 1.0


def _torus_lattice_brute(model, lo, hi):
    # exhaustive scan of the dual lattice annulus lo < |w| <= hi
    L = model.side_lengths
    kmax = int(hi * max(L) / (2 * math.pi)) + 2
    count = 0
    for a in range(-kmax, kmax + 1):
        for b in range(-kmax, kmax + 1):
            mu = math.hypot(2 * math.pi * a / L[0], 2 * math.pi * b / L[1])
            if lo < mu <= hi:
                count += 1
    return count


def test_torus_band_matches_brute_force():
    for lam in (3.0, 5.0, 11.5):
        band = sp.enumerate_band(TORUS, lam)
        assert band.m_lambda == _torus_lattice_brute(TORUS, lam, lam + 1.0)
        for m in band.modes:
            assert lam < m.mu <= lam + 1.0
    rect = mf.flat_torus((2.0 * math.pi, 1.1 * math.pi))
    band = sp.enumerate_band(rect, 6.0)
    assert band.m_lambda == _torus_lattice_brute(rect, 6.0, 7.0)


def test_torus_modes_pair_cos_sin():
    band = sp.enumerate_band(TORUS, 5.0)
    flavors = {}
    for m in band.modes:
        key = m.label[0]
        flavors.setdefault(key, set()).add(m.label[1])
    for key, fl in flavors.items():
        assert fl == {"cos", "sin"}, key


def test_eigenvalue_count_sphere():
    # degrees 1..9 fit under lam=10: sum of (2l+1) = 99
    assert sp.eigenvalue_count(SPHERE, 10.0) == 99
    assert sp.eigenvalue_count(SPHERE, 1.5) == 3
    assert sp.eigenvalue_count(SPHERE, 1.0) == 0


def test_eigenvalue_count_torus_brute():
    for lam in (4.0, 9.0, 20.0):
        assert sp.eigenvalue_count(TORUS, lam) == _torus_lattice_brute(TORUS, 0.0, lam)


def test_band_ids_and_model():
    band = sp.enumerate_band(SPHERE, 12.0)
    ids = [m.id for m in band.modes]
    assert ids == sorted(set(ids))
    assert band.model == SPHERE
    assert band.k_lambda == pytest.approx(sp.k_lambda(band.m_lambda))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1.0, max_value=40.0))
def test_band_dimension_positive_and_windowed(lam):
    # sphere frequencies sqrt(l(l+1)) are more than 1 apart, so some bands
    # are empty: a band is nonempty exactly when a degree lies in its window
    band = sp.enumerate_band(SPHERE, lam)
    degree_in_window = any(lam < math.sqrt(l * (l + 1)) <= lam + 1.0
                           for l in range(math.ceil(lam) + 2))
    assert (band.m_lambda >= 1) == degree_in_window
    assert band.m_lambda == len(band.modes)
    assert all(lam < m.mu <= lam + 1.0 for m in band.modes)


def test_weyl_deviation_shrinks():
    d20 = abs(sp.weyl_count_deviation(SPHERE, 20.0))
    d80 = abs(sp.weyl_count_deviation(SPHERE, 80.0))
    assert d80 < d20 < 0.1


def test_mean_frequency():
    band = sp.enumerate_band(SPHERE, 9.0)
    assert sp.mean_frequency(band) == pytest.approx(math.sqrt(90.0))
    t = sp.enumerate_band(TORUS, 5.0)
    mus = [m.mu for m in t.modes]
    assert sp.mean_frequency(t) == pytest.approx(float(np.mean(mus)))
