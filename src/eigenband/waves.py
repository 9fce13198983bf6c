"""Gaussian random waves on a band and their sup norms.

A wave is a random combination of the band eigenfunctions with i.i.d.
N(0, 1/k^2) coefficients from a counter-based stream, so any (seed, index)
pair regenerates the identical wave on any machine and in any order.

Sup norms are estimated on a ladder of quasi-uniform grids (densities 4,
8, ... up to the requested points-per-wavelength) with a quadratic
refinement step around each level's argmax. Running every ladder level,
and keeping every level's refinement candidates, makes the estimate
monotone nondecreasing in the requested density.

On the torus each level is a product grid of c points per axis, where a
mode of frequency 2 pi k / L has phase 2 pi k.j / c at node j, so a level's
values are one inverse FFT of the coefficients placed at k mod c (exact
for any c). On the sphere each level is a Fibonacci grid scanned by
multiplying mode matrices, cached while they fit in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis as bs
from . import manifold as mf
from .manifold import SPHERE2, ManifoldModel, Point
from .spectrum import Band, enumerate_band, mean_frequency

__all__ = [
    "RandomWave",
    "SupNormEstimate",
    "SupBound",
    "sample_wave",
    "eval_wave",
    "sup_norm",
    "expected_sup",
    "sup_norm_bound",
]

LADDER_BASE = 4
# grid points per unit area exceed (FIB_OVERSAMPLE/spacing)^2 on the sphere
FIB_OVERSAMPLE = 1.15


@dataclass(frozen=True)
class RandomWave:
    band: Band
    coefficients: np.ndarray
    seed_info: tuple


@dataclass(frozen=True)
class SupNormEstimate:
    mean: float
    std_error: float
    samples: int
    grid_points: int
    lam: float


@dataclass(frozen=True)
class SupBound:
    general: float
    aperiodic: float


def sample_wave(band: Band, seed: int, sample_index: int) -> RandomWave:
    """Draw wave number sample_index of the stream keyed by seed."""
    if band.m_lambda == 0:
        raise ValueError(f"band at lambda={band.lam} is empty")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(sample_index,))
    gen = np.random.Generator(np.random.Philox(ss))
    coeffs = gen.standard_normal(band.m_lambda) / band.k_lambda
    return RandomWave(band=band, coefficients=coeffs,
                      seed_info=(seed, sample_index))


def eval_wave(wave: RandomWave, x: Point) -> float:
    band = wave.band
    xc = mf.check_point(band.model, x)
    row = bs.mode_matrix(band.model, band.modes, xc[None, :])[0]
    return float(row @ wave.coefficients)


def sup_norm_bound(model: ManifoldModel, lam: float) -> SupBound:
    """Sup-norm bound 16 sqrt(2n/vol) sqrt(ln lambda), and its aperiodic variant."""
    if lam <= 1.0:
        raise ValueError(f"bound needs lambda > 1, got {lam}")
    general = 16.0 * math.sqrt(2.0 * model.dim / model.volume) * math.sqrt(math.log(lam))
    return SupBound(general=general, aperiodic=general / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# sup-norm engine


def _ladder(density: float) -> list[float]:
    if density < LADDER_BASE:
        raise ValueError(f"grid density must be >= {LADDER_BASE}, got {density}")
    levels = [float(LADDER_BASE)]
    while levels[-1] < density:
        levels.append(levels[-1] * 2.0)
    return levels


def _torus_counts(model: ManifoldModel, spacing: float) -> tuple[int, ...]:
    return tuple(max(1, math.ceil(L / spacing)) for L in model.side_lengths)


def _grid_for_spacing(model: ManifoldModel, spacing: float) -> np.ndarray:
    if model.kind == SPHERE2:
        count = max(16, math.ceil(4.0 * math.pi * (FIB_OVERSAMPLE / spacing) ** 2))
        return mf.grid_coords(model, count)
    return mf.product_grid(model, _torus_counts(model, spacing))


# sphere: grid points per mode-matrix chunk; torus: lattice entries per
# block of waves in one inverse FFT
_CHUNK = 1 << 16
# sphere chunk matrices stay resident across waves only below this entry count
_CACHE_LIMIT = 40_000_000


class _SupLevels:
    """Grids for one band and the scan of each level.

    Torus levels are synthesised by inverse FFT; sphere levels multiply
    mode matrices, cached when they fit in memory.
    """

    def __init__(self, band: Band, density: float):
        self.band = band
        self.model = band.model
        lam_bar = mean_frequency(band)
        self.spacings = [(2.0 * math.pi / lam_bar) / d for d in _ladder(density)]
        self.coords = [_grid_for_spacing(self.model, s) for s in self.spacings]
        self.grid_points = sum(len(C) for C in self.coords)
        self._cache = None
        if (self.model.kind == SPHERE2
                and self.grid_points * band.m_lambda <= _CACHE_LIMIT):
            self._cache = [self._built_chunks(C) for C in self.coords]

    def _built_chunks(self, C: np.ndarray) -> list[np.ndarray]:
        return [bs.mode_matrix(self.model, self.band.modes, C[i:i + _CHUNK])
                for i in range(0, len(C), _CHUNK)]

    def _level_chunks(self, li: int):
        C = self.coords[li]
        if self._cache is not None:
            for i, M in enumerate(self._cache[li]):
                yield C[i * _CHUNK:(i + 1) * _CHUNK], M
        else:
            for i in range(0, len(C), _CHUNK):
                ch = C[i:i + _CHUNK]
                yield ch, bs.mode_matrix(self.model, self.band.modes, ch)

    def _values_at(self, pts: np.ndarray, coeffs: np.ndarray, use_abs: bool) -> np.ndarray:
        vals = bs.mode_matrix(self.model, self.band.modes, pts) @ coeffs
        return np.abs(vals) if use_abs else vals

    def _refined_max(self, center: np.ndarray, f0: float, h: float,
                     coeffs: np.ndarray, use_abs: bool) -> float:
        model = self.model
        p = mf.make_point(model, center)
        n = model.dim
        moved = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            moved.append(mf.exp_map(model, p, e).coords)
            moved.append(mf.exp_map(model, p, -e).coords)
        fm = self._values_at(np.stack(moved), coeffs, use_abs)
        best = float(fm.max())
        t = np.zeros(n)
        for i in range(n):
            fp, fn = fm[2 * i], fm[2 * i + 1]
            den = fp + fn - 2.0 * f0
            if den < 0.0:
                t[i] = float(np.clip(0.5 * h * (fn - fp) / den, -h, h))
        if np.any(t != 0.0):
            cands = [t]
            if n > 1:
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = t[i]
                    cands.append(e)
            pts = np.stack([mf.exp_map(model, p, c).coords for c in cands])
            best = max(best, float(self._values_at(pts, coeffs, use_abs).max()))
        return best

    def _matrix_level_peaks(self, li: int, A: np.ndarray, use_abs: bool):
        n_waves = A.shape[1]
        lvl_val = np.full(n_waves, -np.inf)
        lvl_pt = np.zeros((n_waves, self.coords[li].shape[1]))
        for ch, M in self._level_chunks(li):
            V = M @ A
            if use_abs:
                np.abs(V, out=V)
            j = V.argmax(axis=0)
            v = V[j, np.arange(n_waves)]
            upd = v > lvl_val
            lvl_val[upd] = v[upd]
            lvl_pt[upd] = ch[j[upd]]
        return lvl_val, lvl_pt

    def _fft_level_peaks(self, li: int, A: np.ndarray, use_abs: bool):
        counts = _torus_counts(self.model, self.spacings[li])
        size = math.prod(counts)
        labels = [mode.label for mode in self.band.modes]
        K = np.array([k for k, _ in labels])
        at = np.ravel_multi_index(tuple((K % np.array(counts)).T), counts)
        # a cos(theta) + b sin(theta) = Re((a - i b) e^{i theta})
        Z = A.T * np.array([1.0 if flavor == "cos" else -1j for _, flavor in labels])
        scale = size * math.sqrt(2.0 / self.model.volume)
        axes = tuple(range(1, len(counts) + 1))
        n_waves = A.shape[1]
        lvl_val = np.empty(n_waves)
        j = np.empty(n_waves, dtype=np.intp)
        block = max(1, _CHUNK // size)
        for b in range(0, n_waves, block):
            zb = Z[b:b + block]
            lattice = np.zeros((len(zb), size), dtype=complex)
            np.add.at(lattice, (slice(None), at), zb)
            V = np.fft.ifftn(lattice.reshape(len(zb), *counts), axes=axes).real
            V = V.reshape(len(zb), size) * scale
            if use_abs:
                np.abs(V, out=V)
            j[b:b + block] = V.argmax(axis=1)
            lvl_val[b:b + block] = V[np.arange(len(zb)), j[b:b + block]]
        return lvl_val, self.coords[li][j]

    def batch_sups(self, A: np.ndarray, use_abs: bool = True) -> np.ndarray:
        """Sups for coefficient columns of A; grid scan batched, refinement per wave."""
        n_waves = A.shape[1]
        level_peaks = (self._matrix_level_peaks if self.model.kind == SPHERE2
                       else self._fft_level_peaks)
        total = np.full(n_waves, -np.inf)
        # (value, point, spacing) of each level's peak, per wave
        peaks = [[] for _ in range(n_waves)]
        for li in range(len(self.coords)):
            lvl_val, lvl_pt = level_peaks(li, A, use_abs)
            np.maximum(total, lvl_val, out=total)
            for si in range(n_waves):
                peaks[si].append((float(lvl_val[si]), lvl_pt[si], self.spacings[li]))

        def refine(si: int) -> float:
            best = total[si]
            for f0, pt, h in peaks[si]:
                best = max(best, self._refined_max(pt, f0, h, A[:, si], use_abs))
            return float(best)

        return np.fromiter((refine(si) for si in range(n_waves)), dtype=float,
                           count=n_waves)


def _levels_for(band: Band, density: float) -> _SupLevels:
    # tiny keyed cache; bands are frozen and hashable
    key = (band, float(density))
    hit = _LEVEL_CACHE.get(key)
    if hit is None:
        hit = _SupLevels(band, density)
        _LEVEL_CACHE[key] = hit
        while len(_LEVEL_CACHE) > 4:
            _LEVEL_CACHE.pop(next(iter(_LEVEL_CACHE)))
    return hit


_LEVEL_CACHE: dict = {}


def sup_norm(wave: RandomWave, grid_density: float) -> float:
    """Max of |wave| over the grid ladder, refined around each level's peak.

    grid spacing at the requested density is at most (2 pi / lam_bar) /
    grid_density; the result never decreases when grid_density grows.
    """
    levels = _levels_for(wave.band, grid_density)
    return float(levels.batch_sups(wave.coefficients[:, None], use_abs=True)[0])


def expected_sup(model: ManifoldModel, lam: float, n_samples: int,
                 grid_density: float, seed: int, workers: int | None = None,
                 statistic: str = "abs") -> SupNormEstimate:
    """Monte Carlo mean and standard error of the wave sup norm.

    statistic "abs" estimates E sup|wave| (the sup norm); "max" estimates
    E sup wave without the absolute value. Waves are keyed by sample index,
    and the reduction runs in index order. workers is accepted for
    compatibility and has no effect: every wave is scanned and refined in
    this thread.
    """
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples}")
    if statistic not in ("abs", "max"):
        raise ValueError(f"unknown statistic {statistic!r}")
    band = enumerate_band(model, lam)
    if band.m_lambda == 0:
        raise ValueError(f"band at lambda={lam} is empty")
    levels = _levels_for(band, grid_density)
    A = np.stack([sample_wave(band, seed, i).coefficients
                  for i in range(n_samples)], axis=1)
    sups = levels.batch_sups(A, use_abs=statistic == "abs")
    return SupNormEstimate(mean=float(sups.mean()),
                           std_error=float(sups.std(ddof=1) / math.sqrt(n_samples)),
                           samples=n_samples,
                           grid_points=levels.grid_points,
                           lam=lam)
