import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_legendre, j0

from eigenband import specfun as sf


def _legendre(l, t):
    """P_l(t): legendre_weighted_sum with one unit weight."""
    weights = np.zeros(l + 1)
    weights[l] = 1.0
    return sf.legendre_weighted_sum(weights, t)


def test_legendre_values_frozen():
    # sympy Rodrigues formula oracles
    assert _legendre(5, 0.3) == pytest.approx(0.34538625, abs=1e-14)
    assert _legendre(8, -0.62) == pytest.approx(0.256824319600567, abs=1e-13)
    assert _legendre(0, 0.7) == 1.0
    assert _legendre(1, -0.4) == -0.4


@given(st.integers(min_value=0, max_value=60),
       st.floats(min_value=-1.0, max_value=1.0))
def test_legendre_matches_scipy(l, t):
    assert _legendre(l, t) == pytest.approx(float(eval_legendre(l, t)), abs=1e-11)


def test_legendre_endpoints():
    for l in (0, 1, 2, 7, 40):
        assert _legendre(l, 1.0) == pytest.approx(1.0, abs=1e-13)
        assert _legendre(l, -1.0) == pytest.approx((-1.0) ** l, abs=1e-13)


def test_legendre_array_input():
    t = np.linspace(-1, 1, 17)
    vals = _legendre(6, t)
    assert vals.shape == t.shape
    assert vals[0] == pytest.approx(_legendre(6, -1.0))


def test_legendre_weighted_sum_matches_direct():
    rng = np.random.default_rng(5)
    w = rng.standard_normal(25)
    t = np.linspace(-1, 1, 31)
    direct = sum(w[l] * _legendre(l, t) for l in range(25))
    assert np.max(np.abs(sf.legendre_weighted_sum(w, t) - direct)) < 1e-12


def test_legendre_weighted_sum_validates():
    with pytest.raises(ValueError):
        sf.legendre_weighted_sum([], 0.3)
    with pytest.raises(ValueError):
        sf.legendre_weighted_sum([1.0, 2.0], 1.5)


def test_assoc_legendre_frozen():
    # sympy Rodrigues formula, fully normalized, no Condon-Shortley
    assert sf.assoc_legendre_normalized(5, 3, 0.3) == pytest.approx(
        -0.05705860367830125, abs=1e-14)
    assert sf.assoc_legendre_normalized(12, 7, -0.514) == pytest.approx(
        0.2873287067332078, abs=1e-13)


def test_assoc_legendre_m0_reduces_to_legendre():
    t = np.linspace(-1, 1, 9)
    for l in (0, 3, 11):
        scale = math.sqrt((2 * l + 1) / (4 * math.pi))
        assert np.allclose(sf.assoc_legendre_normalized(l, 0, t),
                           scale * _legendre(l, t), atol=1e-13)


def test_assoc_legendre_norm_integral():
    # 2 pi int_{-1}^{1} Pbar^2 dt = 1 for each (l, m)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    for l, m in ((3, 2), (10, 0), (25, 25), (40, 17)):
        vals = sf.assoc_legendre_normalized(l, m, nodes)
        assert 2 * math.pi * float(weights @ vals ** 2) == pytest.approx(1.0, abs=1e-12)


def test_assoc_legendre_domain():
    with pytest.raises(ValueError):
        sf.assoc_legendre_normalized(3, 4, 0.0)
    with pytest.raises(ValueError):
        sf.assoc_legendre_normalized(3, -1, 0.0)


def test_radial_profile_n2_is_j0():
    # up to lam_bar pi at lambda 200, the largest argument the profile study uses
    r = np.linspace(0.0, 630.0, 20001)
    assert np.max(np.abs(sf.radial_profile(2, r) - j0(r))) < 1e-13
    # first positive zero, Newton-refined scipy value
    z = 2.404825557695773
    assert sf.radial_profile(2, z) == pytest.approx(0.0, abs=1e-12)


def test_radial_profile_n1_n3():
    r = np.linspace(0.0, 20.0, 101)
    assert np.allclose(sf.radial_profile(1, r), np.cos(r), atol=1e-12)
    expected = np.ones_like(r)
    expected[1:] = np.sin(r[1:]) / r[1:]
    assert np.allclose(sf.radial_profile(3, r), expected, atol=1e-12)
    for n in (1, 2, 3):
        assert sf.radial_profile(n, 0.0) == 1.0


def test_radial_profile_domain():
    with pytest.raises(ValueError):
        sf.radial_profile(4, 1.0)
    with pytest.raises(ValueError):
        sf.radial_profile(2, -0.5)
