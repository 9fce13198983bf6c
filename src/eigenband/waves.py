"""Gaussian random waves on a band and their sup norms.

A wave is a random combination of the band eigenfunctions with i.i.d.
N(0, 1/k^2) coefficients from a counter-based stream, so any (seed, index)
pair regenerates the identical wave on any machine and in any order.

Sup norms are estimated on a ladder of grids (densities 4, 8, ... up to
the requested points-per-wavelength) with a quadratic refinement step
around each level's argmax, made for every wave and every level at once:
one stencil call and one candidate call. Running every ladder level, and
keeping every level's refinement candidates, makes the estimate monotone
nondecreasing in the requested density.

A wave's sup depends only on the wave, not on the batch it is refined in:
each refinement row sums its own mode_matrix row times its own wave's
coefficients, so sup_norm(wave) equals its sup inside expected_sup.

A level's point count per axis is the least 5-smooth number (no prime
factor above 5) at or above what its spacing asks for, so that every
inverse FFT has a fast length. The count depends only on the level's
spacing, so the monotonicity above still holds.

Each level's values are inverse FFTs. On the torus a level is a product
grid of c points per axis, and basis.torus_half_spectrum (shared with the
torus diameter scan through basis.torus_grid_values) gives the Hermitian
half lattice holding the coefficients at +-k mod c, exact for any c, after
the complex inverse FFTs over every axis but the last; the last axis's
real inverse FFT then gives the values row by row. On the sphere a level
is N equiangular rings theta_j = (j + 1/2) pi / N with 2N azimuths pi k / N
each. A sphere band holds one degree l, and along a ring a wave is a
trigonometric polynomial in phi of order at most l < N: order m's column
of the level's real (rings x (l + 1)) table of normalized Legendre values,
times the cos coefficient and times minus the sin coefficient, gives the
real and imaginary parts of its azimuthal spectrum at m, and one row-wise
irfft gives the level exactly. Each model folds its amplitude into its
spectrum, the torus into the half lattice's coefficients and the sphere into
its ring table, so a row of either is one plain irfft of its used columns
padded with zeros. Both models keep only the spectrum's used columns (up to
the band's largest order or last-axis |k|) and scan a level in blocks of
rows, each at most _CHUNK entries of the zero-padded half spectrum, so the
padded block and its values block are bounded whatever lambda is. A sphere
block's spectrum is written straight from its rows of the ring table, and
no whole-level spectrum exists. The torus keeps one more array per block of
waves, its half lattice after the inverse FFTs over every axis but the last:
rows x used columns, about size / d entries on a level of d points per
wavelength; bounding it would need another transform order. No level keeps
its grid: a wave's peak node is computed from its flat index.

The ring grid is closed under x -> -x (ring N - 1 - j is ring j reflected,
azimuth k + N is azimuth k plus pi) and Y(-x) = (-1)^l Y(x), so a sphere
level tabulates and scans its northern ceil(N / 2) rings only. At even l
their extrema are the sphere's; at odd l the max is max(max_N, -min_N) and
the min min(min_N, -max_N), a folded extremum at its northern node's antipode.

One scan of a level records each wave's max and min with their flat
indices, and both statistics take their grid peaks from it: sup wave is
the max, sup |wave| the extremum of larger magnitude. A tie keeps the
lower flat index, and the northern node against its folded twin. Level
objects keep no scans. The module's one piece of state, _LEVEL_CACHE, holds
expected_sup's last level object, coefficient matrix and scan under that
call's arguments, so a second statistic of the same waves scans no grid
again; any other call empties it first, and sup_norm never touches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis as bs
from . import manifold as mf
from .manifold import SPHERE2, ManifoldModel
from .spectrum import Band, enumerate_band, mean_frequency

__all__ = [
    "RandomWave",
    "SupNormEstimate",
    "SupBound",
    "sample_wave",
    "sup_norm",
    "expected_sup",
    "sup_norm_bound",
]

LADDER_BASE = 4


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
    # mean over the waves of each ladder level's grid peak, coarsest first
    level_peaks: tuple[float, ...]
    # mean over the waves of the refined sup minus the best grid peak
    refine_gain: float
    # grid points of each ladder level (the whole grid the scan covers, both
    # hemispheres of a sphere level), coarsest first; they sum to grid_points
    level_sizes: tuple[int, ...]


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


def sup_norm_bound(model: ManifoldModel, lam: float) -> SupBound:
    """Sup-norm bound 16 sqrt(2n/vol) sqrt(ln lambda), and its aperiodic variant."""
    if not 1.0 < lam < math.inf:
        raise ValueError(f"bound needs finite lambda > 1, got {lam}")
    general = 16.0 * math.sqrt(2.0 * model.dim / model.volume) * math.sqrt(math.log(lam))
    return SupBound(general=general, aperiodic=general / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# sup-norm engine


def _ladder(density: float) -> list[float]:
    if not LADDER_BASE <= density < math.inf:
        raise ValueError(f"grid density must be finite and >= {LADDER_BASE}, got {density}")
    levels = [float(LADDER_BASE)]
    while levels[-1] < density:
        levels.append(levels[-1] * 2.0)
    return levels


def _smooth(n: int) -> int:
    """The least 5-smooth number (no prime factor above 5) >= n."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _ring_nodes(rings: int, index) -> np.ndarray:
    """Nodes at the flat (ring j, azimuth k) C-order index of the grid with
    colatitudes (j + 1/2) pi / rings and azimuths pi k / rings, k < 2 rings."""
    j, k = np.divmod(index, 2 * rings)
    T, F = (j + 0.5) * (math.pi / rings), k * (math.pi / rings)
    return np.stack([np.sin(T) * np.cos(F), np.sin(T) * np.sin(F), np.cos(T)], axis=-1)


# A level's inverse FFT runs in blocks: of waves, up to _CHUNK grid entries
# per block, and within one wave of rows, up to _CHUNK entries of the
# zero-padded half spectrum (rows x (row length // 2 + 1)) per block, at
# least one row. So the padded block holds at most about _CHUNK complex
# entries and the values block about 2 _CHUNK reals at any lambda (the torus
# half lattice beside them is the module docstring's exception). The
# refinement takes its mode_matrix values in blocks of stencil rows, up to
# _CHUNK entries (points x modes).
_CHUNK = 1 << 16


class _SupLevels:
    """Grid shapes for one band and the scan of each level.

    A level's values come from its amplitude-carrying spectrum, one irfft per row:
    northern sphere rings from one real (rings x (l + 1)) table of the band's
    single degree l, unfolded as the module docstring says (a tie keeps the
    northern node; sizes count the whole grid), and torus last-axis rows
    from basis.torus_half_spectrum, with the modes' labels parsed once here.
    A spectrum keeps only its used columns.
    No attribute changes after __init__: scan returns the extrema, and
    batch_sups refines from the scan it is given.
    """

    def __init__(self, band: Band, density: float):
        self.band = band
        self.model = band.model
        lam_bar = mean_frequency(band)
        self.spacings = [(2.0 * math.pi / lam_bar) / d for d in _ladder(density)]
        if self.model.kind == SPHERE2:
            # a band (lam, lam + 1] holds one degree l, with orders m = -l..l in turn
            self._degree = l = band.modes[0].label[0]
            # N >= ceil(lam_bar d / 2) >= 2 lam_bar > l: no order reaches the Nyquist bin N
            self.shapes = [(_smooth(math.ceil(math.pi / s)),) for s in self.spacings]
            self.sizes = [2 * n * n for n, in self.shapes]
            # at azimuth 0 (each ring's first point) the cos mode of order m is
            # sqrt(2) Pbar_l^m(theta), or Pbar_l^0 for m = 0; irfft halves the
            # m > 0 bins and divides by 2 rings
            weight = np.where(np.arange(l + 1) == 0, 2.0, 1.0)
            # northern rings only; _level_extrema unfolds the south by parity
            self._tables = []
            for n, in self.shapes:
                table = bs.mode_matrix(self.model, band.modes[l:],
                                       _ring_nodes(n, 2 * n * np.arange((n + 1) // 2)))
                table *= n * weight
                self._tables.append(table)
        else:
            self.shapes = [tuple(_smooth(max(1, math.ceil(L / s)))
                                 for L in self.model.side_lengths)
                           for s in self.spacings]
            self.sizes = [math.prod(c) for c in self.shapes]
            self._labels = bs.torus_labels(self.model, band.modes)
        self.grid_points = sum(self.sizes)

    def nodes(self, li: int, index) -> np.ndarray:
        """Coordinates of level li's grid nodes at the flat C-order index;
        no level stores its grid."""
        if self.model.kind == SPHERE2:
            return _ring_nodes(self.shapes[li][0], index)
        return mf.product_grid_nodes(self.model, self.shapes[li], index)

    def _spectrum(self, li: int, Ab: np.ndarray):
        """Level li's spectrum of the coefficient columns Ab, its amplitude
        folded in, as (rows, write): write(out, r) puts rows r, r + 1, ...
        of each column's complex spectrum into out (columns x block rows x
        padded row), its used columns only, and leaves the rest of out as
        it is.

        A sphere block is written straight from its rows of the ring table;
        the torus writes from its half lattice, one per call.
        """
        if self.model.kind == SPHERE2:
            l, table = self._degree, self._tables[li]
            # a_m cos + a_-m sin = Re((a_m - i a_-m) e^{i m phi})
            cos, sin = Ab[l:].T[:, None, :], -Ab[l - 1::-1].T[:, None, :]

            def write(out, r):
                rows = table[r:r + out.shape[1]]
                np.multiply(rows, cos, out=out.real[..., :l + 1])
                np.multiply(rows[:, 1:], sin, out=out.imag[..., 1:l + 1])

            return len(table), write
        spec = bs.torus_half_spectrum(self.model, *self._labels, Ab, self.shapes[li])

        def write(out, r):
            out[..., :spec.shape[2]] = spec[:, r:r + out.shape[1]]

        return spec.shape[1], write

    def _level_extrema(self, li: int, A: np.ndarray):
        """Flat index (2 x waves) and value (2 x waves) of each wave's max
        (row 0) and min (row 1) on level li.

        Blocks of rows come in flat-index order, and a later block takes
        over only on a strict > (max) or < (min), so a tie keeps the lower
        index, as one argmax over the rows scanned would; a sphere level
        then unfolds its northern extrema to the whole sphere. One zero-padded
        spectrum block and one values block serve the whole level: reused,
        they cost no fresh pages per block (a fresh values array per wave
        put 3 MiB on the peak resident size of the lambda 40 torus ladder).
        """
        n_waves = A.shape[1]
        at = np.empty((2, n_waves), dtype=np.intp)
        vals = np.empty((2, n_waves))
        block = max(1, _CHUNK // self.sizes[li])
        sphere = self.model.kind == SPHERE2
        row_len = 2 * self.shapes[li][0] if sphere else self.shapes[li][-1]
        step = max(1, _CHUNK // (row_len // 2 + 1))
        half = None
        for b in range(0, n_waves, block):
            waves = slice(b, b + block)
            n_rows, write = self._spectrum(li, A[:, waves])
            n_block = min(block, n_waves - b)
            if half is None:
                shape = (n_block, min(step, n_rows))
                half = np.zeros((*shape, row_len // 2 + 1), dtype=complex)
                values = np.empty((*shape, row_len))
            for r in range(0, n_rows, step):
                buf = half[:n_block, :min(step, n_rows - r)]
                write(buf, r)
                if r + step >= n_rows:
                    del write  # spent: its spectrum need not outlive the last block's values
                V = np.fft.irfft(buf, n=row_len, axis=-1,
                                 out=values[:len(buf), :buf.shape[1]]).reshape(len(buf), -1)
                cols = np.arange(len(V))
                for i, (arg, beats) in enumerate(((V.argmax, np.greater),
                                                  (V.argmin, np.less))):
                    j = arg(axis=1)
                    v = V[cols, j]
                    best_at, best = at[i, waves], vals[i, waves]
                    take = beats(v, best) | (r == 0)
                    best_at[take] = j[take] + r * row_len
                    best[take] = v[take]
        if sphere and self._degree % 2:
            # the south's max is minus the north's min, at its antipode (ring
            # N - 1 - j, azimuth k + N), and vice versa; a tie keeps the north
            n = self.shapes[li][0]
            j, k = np.divmod(at[::-1], 2 * n)
            flip, sign = -vals[::-1], np.array([[1.0], [-1.0]])
            take = sign * flip > sign * vals
            at = np.where(take, (n - 1 - j) * 2 * n + (k + n) % (2 * n), at)
            vals = np.where(take, flip, vals)
        return at, vals

    def scan(self, A: np.ndarray) -> list:
        """Every level's extrema (four numbers per wave) for the columns of A."""
        return [self._level_extrema(li, A) for li in range(len(self.sizes))]

    def _values_at(self, P: np.ndarray, V: np.ndarray, C: np.ndarray,
                   use_abs: bool) -> np.ndarray:
        """Each row's wave, with coefficients C[r], at exp_map(P[r], V[r, s])
        for every stencil step s: (rows, steps); a row's values depend on it alone."""
        n_rows, n_steps, n = V.shape
        pts = mf.exp_map_rows(self.model, np.repeat(P, n_steps, axis=0), V.reshape(-1, n))
        vals = np.empty((n_rows, n_steps))
        block = max(1, _CHUNK // (n_steps * C.shape[1]))
        for r in range(0, n_rows, block):
            M = bs.mode_matrix(self.model, self.band.modes,
                               pts[r * n_steps:(r + block) * n_steps])
            M = M.reshape(-1, n_steps, C.shape[1])
            vals[r:r + block] = np.multiply(M, C[r:r + block, None, :], out=M).sum(axis=2)
        return np.abs(vals) if use_abs else vals

    def _refined(self, P: np.ndarray, f0: np.ndarray, h: np.ndarray, A: np.ndarray,
                 use_abs: bool) -> np.ndarray:
        """Best value per row on a +-h[r] stencil around the peak P[r] (value
        f0[r]) and at the vertex of the per-axis parabola through it.

        Row r is the peak of wave r % waves on level r // waves: one stencil
        call and one candidate call refine every level's peaks.
        """
        n = self.model.dim
        C = np.tile(A.T, (len(P) // A.shape[1], 1))
        h = h[:, None]
        steps = h[:, :, None] * np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
        fm = self._values_at(P, steps, C, use_abs)
        best = fm.max(axis=1)
        fp, fn = fm[:, 0::2], fm[:, 1::2]
        den = fp + fn - 2.0 * f0[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(den < 0.0, np.clip(0.5 * h * (fn - fp) / den, -h, h), 0.0)
        moving = np.flatnonzero(np.any(t != 0.0, axis=1))
        if moving.size:
            # the full step, and each axis's step alone
            cands = t[moving, None, :]
            if n > 1:
                cands = np.concatenate([cands, cands * np.eye(n)], axis=1)
            vals = self._values_at(P[moving], cands, C[moving], use_abs)
            best[moving] = np.maximum(best[moving], vals.max(axis=1))
        return best

    def batch_sups(self, A: np.ndarray, scan: list, use_abs: bool = True):
        """Sups for the coefficient columns of A, and each level's grid peaks
        (levels x waves), from scan, the list self.scan(A) returned; the
        refinement is batched over the waves and the levels.

        The grid peak is the max, or with use_abs the extremum of larger
        magnitude, the lower flat index on a tie.
        """
        n_waves = A.shape[1]
        cols = np.arange(n_waves)
        peaks, points = [], []
        for li, (at, vals) in enumerate(scan):
            row = 0
            if use_abs:
                vals = np.abs(vals)
                row = ((vals[1] > vals[0])
                       | ((vals[1] == vals[0]) & (at[1] < at[0]))).astype(np.intp)
            peaks.append(vals[row, cols])
            points.append(self.nodes(li, at[row, cols]))
        peaks = np.array(peaks)
        refined = self._refined(np.concatenate(points), peaks.ravel(),
                                np.repeat(self.spacings, n_waves), A, use_abs)
        sups = np.maximum(peaks.max(axis=0), refined.reshape(peaks.shape).max(axis=0))
        return sups, peaks


# expected_sup's last (level object, coefficient matrix, scan), keyed on its
# (model, lam, grid_density, seed, n_samples); at most one entry
_LEVEL_CACHE: dict = {}


def sup_norm(wave: RandomWave, grid_density: float) -> float:
    """Max of |wave| over the grid ladder, refined around each level's peak.

    grid spacing at the requested density is at most (2 pi / lam_bar) /
    grid_density; the result never decreases when grid_density grows. It
    builds its own levels and leaves _LEVEL_CACHE as it is.
    """
    levels = _SupLevels(wave.band, grid_density)
    A = wave.coefficients[:, None]
    sups, _ = levels.batch_sups(A, levels.scan(A), use_abs=True)
    return float(sups[0])


def expected_sup(model: ManifoldModel, lam: float, n_samples: int,
                 grid_density: float, seed: int, workers: int | None = None,
                 statistic: str = "abs") -> SupNormEstimate:
    """Monte Carlo mean and standard error of the wave sup norm.

    statistic "abs" estimates E sup|wave| (the sup norm); "max" estimates
    E sup wave without the absolute value. Waves are keyed by sample index,
    and the reduction runs in index order. workers is accepted for
    compatibility and has no effect: every wave is scanned and refined in
    this thread. A call with the last call's arguments, statistic and
    workers aside, takes that call's level scan from _LEVEL_CACHE and runs
    only its own refinement; any other call empties the cache first.
    """
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples}")
    if statistic not in ("abs", "max"):
        raise ValueError(f"unknown statistic {statistic!r}")
    key = (model, float(lam), float(grid_density), seed, n_samples)
    if key not in _LEVEL_CACHE:
        _LEVEL_CACHE.clear()
        band = enumerate_band(model, lam)
        if band.m_lambda == 0:
            raise ValueError(f"band at lambda={lam} is empty")
        levels = _SupLevels(band, grid_density)
        A = np.stack([sample_wave(band, seed, i).coefficients
                      for i in range(n_samples)], axis=1)
        _LEVEL_CACHE[key] = levels, A, levels.scan(A)
    levels, A, scan = _LEVEL_CACHE[key]
    sups, peaks = levels.batch_sups(A, scan, use_abs=statistic == "abs")
    return SupNormEstimate(mean=float(sups.mean()),
                           std_error=float(sups.std(ddof=1) / math.sqrt(n_samples)),
                           samples=n_samples, grid_points=levels.grid_points, lam=lam,
                           level_peaks=tuple(float(v) for v in peaks.mean(axis=1)),
                           refine_gain=float((sups - peaks.max(axis=0)).mean()),
                           level_sizes=tuple(levels.sizes))
