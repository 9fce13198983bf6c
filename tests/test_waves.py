import dataclasses
import itertools
import math
import pickle
import tracemalloc

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
    s = [wv.sup_norm(w, d) for d in (4.0, 8.0, 16.0, 32.0)]
    assert s == sorted(s)
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


def _sups(levels, A, use_abs=True):
    # scan, then refine: the sups and grid peaks of the columns of A
    return levels.batch_sups(A, levels.scan(A), use_abs)


def test_batch_matches_individual():
    band = sp.enumerate_band(SPHERE, 12.0)
    waves = [wv.sample_wave(band, 9, i) for i in range(5)]
    singles = [wv.sup_norm(w, 6.0) for w in waves]
    A = np.stack([w.coefficients for w in waves], axis=1)
    sups, _ = _sups(wv._SupLevels(band, 6.0), A)
    assert np.array_equal(sups, singles)
    est = wv.expected_sup(SPHERE, 12.0, 5, 6.0, seed=9)
    assert est.mean == float(np.mean(singles))


def test_sup_norm_bound_values():
    b = wv.sup_norm_bound(SPHERE, 40.0)
    expected = 16.0 * math.sqrt(4.0 / (4.0 * math.pi)) * math.sqrt(math.log(40.0))
    assert b.general == pytest.approx(expected, rel=1e-14)
    assert b.aperiodic == pytest.approx(b.general / math.sqrt(2.0), rel=1e-14)
    for bad in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            wv.sup_norm_bound(SPHERE, bad)


def test_grid_density_validated():
    wave = wv.sample_wave(sp.enumerate_band(TORUS, 9.0), 5, 0)
    for bad in (3.9, math.nan, math.inf):
        with pytest.raises(ValueError):
            wv.expected_sup(TORUS, 9.0, 4, bad, seed=5)
        with pytest.raises(ValueError):
            wv.sup_norm(wave, bad)


def test_mean_sup_below_bound():
    est = wv.expected_sup(SPHERE, 20.0, 20, 6.0, seed=12)
    assert est.mean <= wv.sup_norm_bound(SPHERE, 20.0).general


def _reference_refined(model, modes, center, f0, h, coeffs, use_abs):
    # the engine's quadratic step, one wave at a time through the public maps
    def values(pts):
        v = bs.mode_matrix(model, modes, np.stack(pts)) @ coeffs
        return np.abs(v) if use_abs else v

    p = mf.Point(center)
    n = model.dim
    fm = values([mf.exp_map(model, p, s * h * np.eye(n)[i]).coords
                 for i in range(n) for s in (1.0, -1.0)])
    best = float(fm.max())
    t = np.zeros(n)
    for i in range(n):
        fp, fn = fm[2 * i], fm[2 * i + 1]
        den = fp + fn - 2.0 * f0
        if den < 0.0:
            t[i] = float(np.clip(0.5 * h * (fn - fp) / den, -h, h))
    if np.any(t != 0.0):
        cands = [t] + ([t * np.eye(n)[i] for i in range(n)] if n > 1 else [])
        best = max(best, float(values([mf.exp_map(model, p, c).coords
                                       for c in cands]).max()))
    return best


def _level_grids(levels):
    return [levels.nodes(li, np.arange(size)) for li, size in enumerate(levels.sizes)]


def _brute_force_sups(levels, A, use_abs):
    # every level scanned in full by mode_matrix @ coefficients, then refined
    # per wave; also each level's grid peak and its flat index (levels x waves)
    model, modes = levels.model, levels.band.modes
    sups = []
    peaks = np.empty((len(levels.sizes), A.shape[1]))
    at = np.empty(peaks.shape, dtype=np.intp)
    for si in range(A.shape[1]):
        best = -np.inf
        for li, (C, h) in enumerate(zip(_level_grids(levels), levels.spacings)):
            v = bs.mode_matrix(model, modes, C) @ A[:, si]
            if use_abs:
                v = np.abs(v)
            j = int(v.argmax())
            peaks[li, si], at[li, si] = v[j], j
            best = max(best, float(v[j]),
                       _reference_refined(model, modes, C[j], float(v[j]), h,
                                          A[:, si], use_abs))
        sups.append(best)
    return np.array(sups), peaks, at


def _scan_matches_mode_matrix_scan(model, lam, density, use_abs):
    band = sp.enumerate_band(model, lam)
    A = np.stack([wv.sample_wave(band, 21, i).coefficients for i in range(6)], axis=1)
    levels = wv._SupLevels(band, density)
    scan = levels.scan(A)
    got, peaks = levels.batch_sups(A, scan, use_abs)
    want, want_peaks, want_at = _brute_force_sups(levels, A, use_abs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(peaks, want_peaks, rtol=1e-12, atol=0.0)
    assert peaks.shape == (len(levels.sizes), A.shape[1])
    assert np.all(got >= peaks.max(axis=0))
    return levels, scan, want_at


def _antipode(rings, index):
    # ring N - 1 - j, azimuth k + N of the ring grid with N rings
    j, k = np.divmod(index, 2 * rings)
    return (rings - 1 - j) * 2 * rings + (k + rings) % (2 * rings)


@pytest.mark.parametrize("sides,lam,density", [
    ((2.0 * math.pi, 3.7), 12.0, 6.0),
    ((2.0 * math.pi,), 30.0, 8.0),
    ((2.0, 2.5, 3.0), 3.0, 6.0),
])
@pytest.mark.parametrize("use_abs", [True, False])
def test_torus_fft_scan_matches_mode_matrix_scan(sides, lam, density, use_abs):
    _scan_matches_mode_matrix_scan(mf.flat_torus(sides), lam, density, use_abs)


# degrees 11, 20, 3 and 21; 45 rings on the single level of lambda 20 and 20.6
@pytest.mark.parametrize("lam,density", [(12.0, 6.0), (20.0, 4.0), (2.5, 6.0), (20.6, 4.0)])
@pytest.mark.parametrize("use_abs", [True, False])
def test_sphere_ring_scan_matches_mode_matrix_scan(lam, density, use_abs):
    levels, scan, want_at = _scan_matches_mode_matrix_scan(SPHERE, lam, density, use_abs)
    if not use_abs:
        # the scan covers the northern rings and unfolds the south: the max
        # sits at the full grid's argmax or at its antipode
        for li, ((rings,), (at, _)) in enumerate(zip(levels.shapes, scan)):
            assert np.all((at[0] == want_at[li]) | (at[0] == _antipode(rings, want_at[li])))


def _is_5_smooth(n):
    # trial division: no prime factor above 5
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n) <= 5


def test_smooth_counts_brute_force():
    for n in range(1, 2001):
        want = next(m for m in itertools.count(n) if _is_5_smooth(m))
        assert wv._smooth(n) == want


def test_sphere_ring_grid_is_equiangular():
    band = sp.enumerate_band(SPHERE, 20.0)
    levels = wv._SupLevels(band, 8.0)
    for (rings,), C, h in zip(levels.shapes, _level_grids(levels), levels.spacings):
        # the least 5-smooth count of at least ceil(pi / h) rings
        least = math.ceil(math.pi / h)
        assert rings == next(n for n in itertools.count(least) if _is_5_smooth(n))
        assert max(l for l, _ in (m.label for m in band.modes)) < rings
        theta = np.arccos(C[::2 * rings, 2])
        np.testing.assert_allclose(theta, (np.arange(rings) + 0.5) * math.pi / rings,
                                   rtol=0, atol=1e-12)
        assert len(C) == 2 * rings * rings


@pytest.mark.parametrize("model,lam", [
    (SPHERE, 20.0), (mf.flat_torus((2.0 * math.pi,)), 30.0),
    (mf.flat_torus((2.0 * math.pi, 3.7)), 12.0), (mf.flat_torus((2.0, 2.5, 3.0)), 3.0),
])
def test_level_nodes_match_grids(model, lam):
    levels = wv._SupLevels(sp.enumerate_band(model, lam), 16.0)
    for li, (shape, size) in enumerate(zip(levels.shapes, levels.sizes)):
        if model.kind == mf.SPHERE2:
            rings, = shape
            theta = (np.arange(rings) + 0.5) * (math.pi / rings)
            T, F = np.meshgrid(theta, np.arange(2 * rings) * (math.pi / rings),
                               indexing="ij")
            grid = np.stack([np.sin(T) * np.cos(F), np.sin(T) * np.sin(F), np.cos(T)],
                            axis=-1).reshape(-1, 3)
        else:
            grid = mf.product_grid(model, shape)
        assert np.array_equal(levels.nodes(li, np.arange(size)), grid)
        # a wave peak's node alone is the same row
        assert np.array_equal(levels.nodes(li, np.array([size - 1, 0])), grid[[-1, 0]])


def test_torus_levels_keep_no_grids():
    band = sp.enumerate_band(TORUS, 40.0)
    A = np.stack([wv.sample_wave(band, 8, i).coefficients for i in range(12)], axis=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        levels = wv._SupLevels(band, 10.0)
        kept = tracemalloc.get_traced_memory()[0] - before
        # the caller keeps the scan's extrema, four numbers per wave and level
        scan = levels.scan(A)
        levels.batch_sups(A, scan)
        kept_after_scan = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert levels.grid_points > 400_000
    assert kept < 1 << 20
    assert kept_after_scan < 1 << 20
    for at, vals in scan:
        assert at.shape == vals.shape == (2, 12)


@pytest.mark.parametrize("model,lam", [(SPHERE, 12.0), (SPHERE, 13.0), (TORUS, 9.0)])
def test_levels_keep_no_state(model, lam):
    # nothing in a level object changes after __init__: not the scan, not
    # either statistic's refinement, not another matrix's scan
    band = sp.enumerate_band(model, lam)
    levels = wv._SupLevels(band, 8.0)
    state = pickle.dumps(vars(levels))
    for seed in (1, 2):
        A = np.stack([wv.sample_wave(band, seed, i).coefficients for i in range(3)], axis=1)
        scan = levels.scan(A)
        for use_abs in (True, False):
            levels.batch_sups(A, scan, use_abs)
    assert pickle.dumps(vars(levels)) == state


@pytest.mark.parametrize("model,lam", [(SPHERE, 160.0), (TORUS, 40.0)])
def test_level_scan_transient_is_bounded_by_the_chunk(model, lam):
    # a scan's padded block (_CHUNK complex entries) and values block
    # (2 _CHUNK reals) are 32 _CHUNK bytes, whatever lambda or density is;
    # the rest is irfft's own work and, on the torus, one half lattice of
    # 648 x 42 entries. Whole-level spectra and row blocks sized by the used
    # columns took 288 (sphere) and 110 (torus) _CHUNK bytes here.
    band = sp.enumerate_band(model, lam)
    A = np.stack([wv.sample_wave(band, 3, i).coefficients for i in range(2)], axis=1)
    levels = wv._SupLevels(band, 10.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        levels.scan(A)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 48 * wv._CHUNK


def test_sphere_levels_keep_real_tables():
    # one real (northern rings x (l + 1)) table per level; complex tables of
    # every mode on every ring would keep about eight times as much
    band = sp.enumerate_band(SPHERE, 80.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        levels = wv._SupLevels(band, 10.0)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    l = band.modes[0].label[0]
    # on the northern rings only, ceil(N / 2) of N
    assert kept < sum((n + 1) // 2 * (l + 1) * 8 for n, in levels.shapes) + (64 << 10)


def _complex_table_spectrum(levels):
    """Level spectra by complex per-mode tables: each mode's column at azimuth
    0 times its weight, 2 or 1 for cos and -i for sin, sorted stably by |m|
    and summed into the full azimuthal spectrum (rings + 1 columns) by
    np.add.reduceat; on the rings the level scans, the northern ceil(N / 2)."""
    labels = [mode.label for mode in levels.band.modes]
    orders = np.array([abs(m) for _, m in labels])
    order_sort = np.argsort(orders, kind="stable")
    present, starts = np.unique(orders[order_sort], return_index=True)
    cos_of = [labels.index((l, abs(m))) for l, m in labels]
    weight = (np.where(orders == 0, 2.0, 1.0)
              * np.array([1.0 if m >= 0 else -1j for _, m in labels]))[order_sort]
    tables = [bs.mode_matrix(levels.model, levels.band.modes,
                             wv._ring_nodes(n, 2 * n * np.arange((n + 1) // 2)))
              [:, cos_of][:, order_sort] * (n * weight) for n, in levels.shapes]

    def spectrum(li, Ab):
        rings, = levels.shapes[li]
        terms = tables[li][None, :, :] * Ab[order_sort].T[:, None, :]
        spec = np.zeros((Ab.shape[1], (rings + 1) // 2, rings + 1), dtype=complex)
        spec[:, :, present] = np.add.reduceat(terms, starts, axis=2)

        def write(out, r):
            # the full spectrum is the padded row of 2 rings azimuths
            out[...] = spec[:, r:r + out.shape[1]]

        return spec.shape[1], write

    return spectrum


@pytest.mark.parametrize("lam", [2.5, 12.0, 40.0, 80.0])
@pytest.mark.parametrize("use_abs", [True, False])
def test_sphere_ring_scan_equals_complex_table_route(lam, use_abs, monkeypatch):
    band = sp.enumerate_band(SPHERE, lam)
    A = np.stack([wv.sample_wave(band, 13, i).coefficients for i in range(7)], axis=1)
    levels = wv._SupLevels(band, 10.0)
    # two waves per block on the top level
    monkeypatch.setattr(wv, "_CHUNK", 2 * max(levels.sizes))
    sups, peaks = _sups(levels, A, use_abs)
    oracle, called = _complex_table_spectrum(levels), []
    monkeypatch.setattr(levels, "_spectrum",
                        lambda li, Ab: called.append(li) or oracle(li, Ab))
    want_sups, want_peaks = _sups(levels, A, use_abs)
    # every level's spectra came from the oracle
    assert sorted(set(called)) == list(range(len(levels.sizes)))
    assert np.array_equal(sups, want_sups)
    assert np.array_equal(peaks, want_peaks)


def test_torus_sup_norm_monotone_in_density():
    model = mf.flat_torus((2.0 * math.pi, 3.7))
    band = sp.enumerate_band(model, 15.0)
    w = wv.sample_wave(band, 6, 3)
    s = [wv.sup_norm(w, d) for d in (4.0, 8.0, 16.0, 32.0)]
    assert s == sorted(s)


def _wave_blocks_do_not_change_sups(model, lam, monkeypatch):
    band = sp.enumerate_band(model, lam)
    A = np.stack([wv.sample_wave(band, 4, i).coefficients for i in range(7)], axis=1)
    levels = wv._SupLevels(band, 8.0)
    largest = max(levels.sizes)
    monkeypatch.setattr(wv, "_CHUNK", 7 * largest)
    single, _ = _sups(levels, A)
    # two waves per block on the finest level, more on the coarser ones
    monkeypatch.setattr(wv, "_CHUNK", 2 * largest)
    blocked, _ = _sups(levels, A)
    assert np.array_equal(blocked, single)


def test_torus_wave_blocks_do_not_change_sups(monkeypatch):
    _wave_blocks_do_not_change_sups(TORUS, 9.0, monkeypatch)


def test_sphere_wave_blocks_do_not_change_sups(monkeypatch):
    _wave_blocks_do_not_change_sups(SPHERE, 9.0, monkeypatch)


def test_expected_sup_ladder_telemetry():
    for model in (SPHERE, TORUS):
        est = wv.expected_sup(model, 12.0, 8, 10.0, seed=2)
        # densities 4, 8 and 16
        assert len(est.level_peaks) == 3
        assert sum(est.level_sizes) == est.grid_points
        assert 0.0 <= est.refine_gain
        assert max(est.level_peaks) + est.refine_gain <= est.mean + 1e-12


def _cold_sup(model, lam, n_samples, seed, statistic, density=6.0):
    wv._LEVEL_CACHE.clear()
    return wv.expected_sup(model, lam, n_samples, density, seed=seed, statistic=statistic)


def _counting_level_scans(monkeypatch):
    # counts the level scans of every later call: one spectrum per block of
    # waves, each recorded as [its rows that the scan has not yet written]
    calls = []
    spectrum = wv._SupLevels._spectrum

    def counted(self, li, Ab):
        n_rows, write = spectrum(self, li, Ab)
        unwritten = [n_rows]
        calls.append(unwritten)

        def counted_write(out, r):
            unwritten[0] -= out.shape[1]
            write(out, r)

        return n_rows, counted_write

    monkeypatch.setattr(wv._SupLevels, "_spectrum", counted)
    return calls


@pytest.mark.parametrize("model,lam", [(SPHERE, 12.0), (TORUS, 9.0)])
@pytest.mark.parametrize("first,second", [("max", "abs"), ("abs", "max")])
def test_second_statistic_reuses_the_level_scan(model, lam, first, second, monkeypatch):
    cold = [_cold_sup(model, lam, 8, 5, stat) for stat in (first, second)]
    scans = _counting_level_scans(monkeypatch)
    wv._LEVEL_CACHE.clear()
    warm, scanned = [], []
    for stat in (first, second):
        del scans[:]
        warm.append(wv.expected_sup(model, lam, 8, 6.0, seed=5, statistic=stat))
        scanned.append(len(scans))
        # the scan wrote every row through the counted spectra
        assert all(unwritten == [0] for unwritten in scans)
    assert scanned == [2, 0]
    for got, want in zip(warm, cold):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert warm[0].level_sizes == warm[1].level_sizes


@pytest.mark.parametrize("model,lam", [(SPHERE, 12.0), (TORUS, 9.0)])
def test_other_waves_are_scanned_again(model, lam, monkeypatch):
    wave = wv.sample_wave(sp.enumerate_band(model, lam), 5, 0)
    want = {"seed": _cold_sup(model, lam, 8, 6, "abs"),
            "samples": _cold_sup(model, lam, 9, 5, "abs"),
            "density": _cold_sup(model, lam, 8, 5, "abs", density=8.0),
            "between": _cold_sup(model, lam, 8, 5, "abs")}
    wv._LEVEL_CACHE.clear()
    want_single = wv.sup_norm(wave, 6.0)
    scans = _counting_level_scans(monkeypatch)
    wv._LEVEL_CACHE.clear()
    got = {}
    for key, (seed, n_samples, density) in {"seed": (6, 8, 6.0), "samples": (5, 9, 6.0),
                                            "density": (5, 8, 8.0)}.items():
        wv.expected_sup(model, lam, 8, 6.0, seed=5, statistic="max")
        del scans[:]
        got[key] = wv.expected_sup(model, lam, n_samples, density, seed=seed,
                                   statistic="abs")
        assert len(scans) > 0
        assert all(unwritten == [0] for unwritten in scans)
        # the cache holds the last call's scan alone
        assert len(wv._LEVEL_CACHE) == 1
    # sup_norm between the two statistics scans its own levels and leaves
    # the cached scan in place, so the second statistic reuses it
    wv.expected_sup(model, lam, 8, 6.0, seed=5, statistic="max")
    del scans[:]
    assert wv.sup_norm(wave, 6.0) == want_single
    assert len(scans) > 0
    del scans[:]
    got["between"] = wv.expected_sup(model, lam, 8, 6.0, seed=5, statistic="abs")
    assert scans == []
    for key, est in got.items():
        assert dataclasses.asdict(est) == dataclasses.asdict(want[key])


@pytest.mark.parametrize("model,lam", [(SPHERE, 13.0), (TORUS, 9.0)])
def test_sup_norm_leaves_the_level_cache_alone(model, lam):
    wave = wv.sample_wave(sp.enumerate_band(model, lam), 9, 3)
    wv._LEVEL_CACHE.clear()
    single = wv.sup_norm(wave, 6.0)
    assert wv._LEVEL_CACHE == {}
    est = wv.expected_sup(model, lam, 5, 6.0, seed=9)
    (key, entry), = wv._LEVEL_CACHE.items()
    assert key == (model, lam, 6.0, 9, 5)
    assert wv.sup_norm(wave, 6.0) == single
    (key_after, entry_after), = wv._LEVEL_CACHE.items()
    assert key_after == key and entry_after is entry
    # the wave's sup inside expected_sup, from the cached scan
    levels, A, scan = entry
    sups, _ = levels.batch_sups(A, scan, use_abs=True)
    assert sups[3] == single
    assert est.mean == float(sups.mean())


@pytest.mark.parametrize("coefficient", [0.7, -0.7])
def test_abs_peak_tie_takes_the_lower_index(coefficient, monkeypatch):
    # one sin mode whose grid max is exactly minus its min: the |wave| peak
    # is where np.abs(V).argmax() puts it, at the max or at the min
    band = sp.enumerate_band(TORUS, 5.0)
    A = np.zeros((band.m_lambda, 1))
    A[[m.label for m in band.modes].index(((0, 6), "sin"))] = coefficient
    levels = wv._SupLevels(band, 4.0)
    V = bs.torus_grid_values(TORUS, band.modes, A, levels.shapes[0])[0]
    assert V.max() == -V.min()
    peaks = []
    nodes = levels.nodes
    monkeypatch.setattr(levels, "nodes", lambda li, index: peaks.append(index) or
                        nodes(li, index))
    _, level_peaks = _sups(levels, A, use_abs=True)
    assert peaks[0][0] == np.abs(V).argmax() == min(V.argmax(), V.argmin())
    assert level_peaks[0, 0] == np.abs(V).max()
    _sups(levels, A, use_abs=False)
    assert peaks[1][0] == V.argmax()


def test_sphere_sup_norm_monotone_in_density():
    # every level's ring count is rounded up here: 41 -> 45, 82 -> 90, ...
    band = sp.enumerate_band(SPHERE, 20.0)
    for i in range(3):
        w = wv.sample_wave(band, 6, i)
        s = [wv.sup_norm(w, d) for d in (4.0, 8.0, 16.0, 32.0)]
        assert s == sorted(s)


@pytest.mark.parametrize("model,lam", [
    (SPHERE, 12.0), (SPHERE, 40.0), (mf.flat_torus((2.0 * math.pi,)), 30.0),
    (mf.flat_torus((2.0 * math.pi, 3.7)), 12.0), (mf.flat_torus((2.0, 2.5, 3.0)), 3.0),
])
@pytest.mark.parametrize("use_abs", [True, False])
def test_batched_refinement_equals_per_level_loop(model, lam, use_abs, monkeypatch):
    band = sp.enumerate_band(model, lam)
    levels = wv._SupLevels(band, 16.0)
    calls = []
    refined = levels._refined
    monkeypatch.setattr(levels, "_refined",
                        lambda *args: calls.append(args) or refined(*args))
    for n_waves in (1, 9):
        A = np.stack([wv.sample_wave(band, 17, i).coefficients for i in range(n_waves)],
                     axis=1)
        del calls[:]
        sups, peaks = _sups(levels, A, use_abs)
        (P, f0, h, A_, _), = calls
        assert A_ is A
        batched = refined(P, f0, h, A, use_abs)
        # each level alone, with its own spacing, as one call per level
        per_level = []
        for li, spacing in enumerate(levels.spacings):
            rows = slice(li * n_waves, (li + 1) * n_waves)
            assert np.all(h[rows] == spacing)
            per_level.append(refined(P[rows], f0[rows], np.full(n_waves, spacing), A,
                                     use_abs))
        assert np.array_equal(batched, np.concatenate(per_level))
        assert np.array_equal(sups, np.maximum(peaks.max(axis=0),
                                               np.max(per_level, axis=0)))


def _single_sin_mode(band, label, coefficient):
    A = np.zeros((band.m_lambda, 1))
    A[[m.label for m in band.modes].index(label)] = coefficient
    return A


@pytest.mark.parametrize("model,lam,A", [
    # a 1-torus level is a single row, so it has no row blocks
    (SPHERE, 12.0, None), (SPHERE, 40.0, None), (TORUS, 9.0, None),
    (mf.flat_torus((2.0 * math.pi, 3.7)), 12.0, None),
    (mf.flat_torus((2.0, 2.5, 3.0)), 3.0, None),
    # one sin mode, constant along the first axis: its max and min tie across
    # every row block, and |max| ties |min|
    (TORUS, 5.0, _single_sin_mode(sp.enumerate_band(TORUS, 5.0), ((0, 6), "sin"), 0.7)),
    (TORUS, 5.0, _single_sin_mode(sp.enumerate_band(TORUS, 5.0), ((0, 6), "sin"), -0.7)),
])
@pytest.mark.parametrize("use_abs", [True, False])
def test_row_blocks_equal_the_whole_level_scan(model, lam, A, use_abs, monkeypatch):
    band = sp.enumerate_band(model, lam)
    if A is None:
        A = np.stack([wv.sample_wave(band, 3, i).coefficients for i in range(5)], axis=1)
    levels = wv._SupLevels(band, 8.0)
    monkeypatch.setattr(wv, "_CHUNK", 1 << 40)
    whole_scan = levels.scan(A)
    whole = levels.batch_sups(A, whole_scan, use_abs)
    spectrum = levels._spectrum
    # a level's padded half row: of 2 N azimuths on a sphere of N rings, of
    # the last axis on a torus; the finest level's is the longest
    row_lens = [2 * shape[0] if model.kind == mf.SPHERE2 else shape[-1]
                for shape in levels.shapes]
    padded = row_lens[-1] // 2 + 1
    assert padded == max(n // 2 + 1 for n in row_lens)
    for rows_per_block in (1, 3, 7):
        # one wave per block, rows_per_block rows of the finest level per
        # block, and as many or more of each coarser level
        monkeypatch.setattr(wv, "_CHUNK", rows_per_block * padded)
        assert all(wv._CHUNK <= size for size in levels.sizes)
        blocks = []

        def spied(li, Ab):
            n_rows, write = spectrum(li, Ab)
            return n_rows, lambda out, r: blocks.append((li, out.shape[:2])) or write(out, r)

        monkeypatch.setattr(levels, "_spectrum", spied)
        scan = levels.scan(A)
        got = levels.batch_sups(A, scan, use_abs)
        finest = [shape for li, shape in blocks if li == len(row_lens) - 1]
        assert max(finest) == (1, rows_per_block)
        assert np.array_equal(got[0], whole[0])
        assert np.array_equal(got[1], whole[1])
        for (at, vals), (want_at, want_vals) in zip(scan, whole_scan):
            assert np.array_equal(at, want_at)
            assert np.array_equal(vals, want_vals)


def test_batched_refinement_with_a_level_that_does_not_move(monkeypatch):
    # level 0's points sit on a zero line of cos(6 y), where |wave| is least
    # across and flat along: no parabola opens downward, so no row of level 0
    # reaches the candidate call
    band = sp.enumerate_band(TORUS, 5.0)
    A = np.zeros((band.m_lambda, 2))
    A[[m.label for m in band.modes].index(((0, 6), "cos")), :] = [0.7, -0.4]
    levels = wv._SupLevels(band, 8.0)
    y0 = 2.0 * math.pi / 24.0
    P = np.array([[0.0, y0], [1.0, y0], [0.3, 0.2], [1.1, 0.05]])
    f0 = np.abs(bs.mode_matrix(TORUS, band.modes, P) @ A)[[0, 1, 2, 3], [0, 1, 0, 1]]
    h = np.repeat(levels.spacings, 2)
    calls = []
    values_at = levels._values_at
    monkeypatch.setattr(levels, "_values_at", lambda P, V, C, use_abs: calls.append(
        (P, C)) or values_at(P, V, C, use_abs))
    batched = levels._refined(P, f0, h, A, True)
    (P0, C0), (P1, C1) = calls
    assert np.array_equal(P0, P) and np.array_equal(C0, np.tile(A.T, (2, 1)))
    # every candidate row is a level-1 peak with its own wave's coefficients
    peak_rows = np.array([np.flatnonzero((P == p).all(axis=1))[0] for p in P1])
    assert peak_rows.size and np.all(peak_rows >= 2)
    assert np.array_equal(C1, A.T[peak_rows % 2])
    per_level = [levels._refined(P[rows], f0[rows], h[rows], A, True)
                 for rows in (slice(0, 2), slice(2, 4))]
    assert np.array_equal(batched, np.concatenate(per_level))


@pytest.mark.parametrize("model,lam", [
    (SPHERE, 12.0), (SPHERE, 40.0), (SPHERE, 80.0), (mf.flat_torus((30.0,)), 12.0),
    (mf.flat_torus((2.0 * math.pi, 3.7)), 12.0), (mf.flat_torus((2.0, 2.5, 3.0)), 3.0),
])
@pytest.mark.parametrize("use_abs", [True, False])
def test_a_wave_sup_does_not_depend_on_its_batch(model, lam, use_abs):
    band = sp.enumerate_band(model, lam)
    levels = wv._SupLevels(band, 16.0)
    coeffs = [wv.sample_wave(band, 17, i).coefficients for i in range(9)]
    sups, peaks = _sups(levels, np.stack(coeffs, axis=1), use_abs)
    # as expected_sup and sup_norm build their coefficient matrices
    for cols in [slice(0, 8)] + [slice(i, i + 1) for i in range(9)]:
        part_sups, part_peaks = _sups(levels, np.stack(coeffs[cols], axis=1), use_abs)
        assert np.array_equal(part_sups, sups[cols])
        assert np.array_equal(part_peaks, peaks[:, cols])
