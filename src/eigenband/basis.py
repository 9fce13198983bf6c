"""The orthonormal eigenfunctions and their gradients at coordinate rows.

Real basis throughout: cos/sin pairs on the torus, real spherical harmonics
on the sphere (no Condon-Shortley phase). Gradients are returned in each
row's orthonormal frame of manifold.tangent_frame_rows. A row's values and
gradients are the same bits in any batch: torus phases k.x add one axis at
a time, and each sphere row meets its frame in a matrix product of its own.

Sphere values climb the normalized Legendre recurrence for all orders of a
degree at once, O(l) array steps per degree over blocks of points, with the
arithmetic of specfun.assoc_legendre_upward for each order, so they equal
that one-order route bit for bit. Sphere gradients still climb one order at
a time through it.
"""

from __future__ import annotations

import math

import numpy as np

from . import manifold as mf
from .manifold import SPHERE2, ManifoldModel
from .specfun import INV_SQRT_4PI, assoc_legendre_upward
from .spectrum import Band, torus_frequencies

__all__ = [
    "mode_matrix",
    "torus_grid_values",
    "torus_labels",
    "torus_half_spectrum",
    "gradient_matrix",
    "orthonormality_check",
]

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# normalized associated Legendre rows, vectorized over points


# The value climb takes the points in blocks, and its working set is about
# five (orders x points) buffers: at most _CLIMB_ENTRIES entries each up to
# degree 127, so a 12000-point degree-40 matrix allocates about 1 MiB beyond
# its output. A block keeps at least _CLIMB_POINTS points, since numpy's
# broadcast products pay a fixed cost per row: at degree 640, blocks of 25
# points took 1.3 times as long as blocks of 128.
_CLIMB_ENTRIES = 1 << 14
_CLIMB_POINTS = 128


def _climb_block(l: int) -> int:
    """Points per block of the degree-l value climb."""
    return max(_CLIMB_POINTS, _CLIMB_ENTRIES // (l + 1))


def _climb_coefficients(l: int):
    """The factors of specfun.assoc_legendre_upward and of its diagonal seed,
    for all orders of degree l at once.

    Returns the diagonal factors sqrt((2m+1)/(2m)) for m = 1..l, the first
    step's sqrt(2m+3) for m = 0..l-1, and for each step k = 2..l the columns
    a_km, b_km over the orders m < k - 1. Every factor is the square root of
    a ratio of exact integers, so each equals the per-order scalar bit for bit.
    """
    m = np.arange(1, l + 1)
    diagonal = np.sqrt((2 * m + 1) / (2.0 * m))[:, None]
    first = np.sqrt(2 * m + 1.0)[:, None]
    # the steps' columns lie end to end, step k's k - 1 orders from lo[k - 2];
    # k, m and every sum and product of them are exact integers as floats, so
    # the one-order expressions keep their bits, and the build takes at most
    # one array of that length beyond the two it keeps
    k = np.arange(2.0, l + 1)
    sizes = np.arange(1, l)
    lo = [(k - 2) * (k - 1) // 2 for k in range(2, l + 2)]
    # m: a ramp that restarts at 0 on every step, then m * m in place
    m2 = np.ones(l * (l - 1) // 2)
    m2[lo[1:-1]] = 1.0 - sizes[:-1]
    m2[:1] = 0.0
    np.cumsum(m2, out=m2)
    m2 *= m2
    b = np.repeat((k - 1.0) ** 2, sizes)
    b -= m2
    np.divide(b, np.repeat(4.0 * (k - 1.0) ** 2 - 1.0, sizes), out=b)
    a = np.subtract(np.repeat(k * k, sizes), m2, out=m2)
    np.divide(np.repeat(4.0 * k * k - 1.0, sizes), a, out=a)
    a, b = np.sqrt(a, out=a)[:, None], np.sqrt(b, out=b)[:, None]
    steps = [(a[i:j], b[i:j]) for i, j in zip(lo, lo[1:])]
    return diagonal, first, steps


def _degree_value_rows(l: int, t: np.ndarray, s: np.ndarray, coefficients) -> np.ndarray:
    """Fully normalized Pbar_l^m(t) for m = 0..l, as the rows of one array.

    All orders climb at once. The diagonals are one running product down
    the chain 1/sqrt(4 pi), f_1, s, f_2, s, ..., so each is (diag f_m) s as in
    the per-order seed. Step k writes buffer -k mod 3: it moves the orders
    m < k - 1 to degree k by a_km (t p - b_km p_prev) from the two buffers
    before it. Order m enters before any step reads it: its diagonal in
    buffer -m mod 3 and its first step sqrt(2m+3) t diag in buffer
    -(m+1) mod 3, rows that no earlier step writes. Each order so sees
    specfun.assoc_legendre_upward's arithmetic in its operation order, and
    the rows equal that route's bit for bit, in O(l) steps.
    """
    diagonal, first, steps = coefficients
    chain = np.empty((2 * l + 1, t.size))
    chain[0] = INV_SQRT_4PI
    chain[1::2] = diagonal
    chain[2::2] = s
    diag = np.multiply.accumulate(chain, axis=0, out=chain)[::2]
    bufs = np.empty((3, l + 1, t.size))
    for r in range(3):
        bufs[-r % 3, r::3] = diag[r::3]
        start = bufs[(-r - 1) % 3, r:l:3]
        np.multiply(first[r::3], t, out=start)
        start *= diag[r:l:3]
    del chain, diag
    # t on every row: a same-shape product is faster than a broadcast one
    tt = np.broadcast_to(t, bufs.shape[1:]).copy()
    for k, (a, b) in enumerate(steps, start=2):
        n = k - 1
        p, p_prev, nxt = bufs[(1 - k) % 3, :n], bufs[(2 - k) % 3, :n], bufs[-k % 3, :n]
        np.multiply(p, tt[:n], out=nxt)
        p_prev *= b
        nxt -= p_prev
        nxt *= a
    return bufs[-l % 3]


def _degree_gradient_rows(l: int, t: np.ndarray, s: np.ndarray):
    """d/dtheta Pbar_l^m and Pbar_l^m / sin theta for m = 0..l, as the rows
    of two (l+1, n) arrays.

    The over-sine rows use the ratio recurrence seeded at sin^(m-1), so both
    rows stay finite at the poles; the m = 0 over-sine row is zero.
    """
    dtheta = np.zeros((l + 1, t.size))
    over_s = np.zeros((l + 1, t.size))
    diag = np.full(t.size, INV_SQRT_4PI * math.sqrt(3.0 / 2.0))
    for m in range(1, l + 1):
        if m > 1:
            diag = diag * math.sqrt((2 * m + 1) / (2.0 * m)) * s
        r_l, r_lm1 = assoc_legendre_upward(l, m, t, diag)
        c = math.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) if l > m else 0.0
        dtheta[m] = l * t * r_l - c * r_lm1
        over_s[m] = r_l
    if l:
        # m = 0 from the m = 1 value row: d/dtheta Pbar_l^0 = -sqrt(l(l+1)) Pbar_l^1
        dtheta[0] = -math.sqrt(l * (l + 1.0)) * (over_s[1] * s)
    return dtheta, over_s


def _sphere_angles(coords: np.ndarray):
    t = np.clip(coords[:, 2], -1.0, 1.0)
    phi = np.arctan2(coords[:, 1], coords[:, 0])
    # hypot avoids the 1 - t^2 cancellation near the poles
    s = np.minimum(1.0, np.hypot(coords[:, 0], coords[:, 1]))
    return t, s, phi


def _sphere_labels(modes):
    """Degree, signed order and |m| of every sphere mode, as integer arrays."""
    L, M = np.array([mode.label for mode in modes], dtype=np.intp).reshape(-1, 2).T
    return L, M, np.abs(M)


def _sphere_value_matrix(modes, coords: np.ndarray) -> np.ndarray:
    # per degree and block of points: the Legendre rows by |m| times their
    # scale, cos(|m| phi) on the cos rows and sin(|m| phi) on the sin rows
    # (m = 0 is a cos row, and cos 0 = 1), then one scatter into out
    t, s, phi = _sphere_angles(coords)
    L, M, A = _sphere_labels(modes)
    out = np.empty((len(coords), len(modes)))
    for l in dict.fromkeys(L.tolist()):
        cos_cols = np.flatnonzero((L == l) & (M >= 0))
        J = np.concatenate([cos_cols, np.flatnonzero((L == l) & (M < 0))])
        n_cos, Aj = cos_cols.size, A[J]
        scale = np.where(Aj == 0, 1.0, _SQRT2)[:, None]
        coefficients = _climb_coefficients(l)
        step = _climb_block(l)
        for lo in range(0, len(t), step):
            block = slice(lo, lo + step)
            V = _degree_value_rows(l, t[block], s[block], coefficients)[Aj] * scale
            V[:n_cos] *= np.cos(Aj[:n_cos, None] * phi[block])
            V[n_cos:] *= np.sin(Aj[n_cos:, None] * phi[block])
            out[block, J] = V.T
            del V  # so it does not outlive its block into the next climb
    return out


def torus_labels(model: ManifoldModel, modes) -> tuple[np.ndarray, np.ndarray]:
    """Lattice vectors (modes x dim) and a cos mask of the torus modes."""
    K = np.array([mode.label[0] for mode in modes], dtype=np.intp).reshape(-1, model.dim)
    is_cos = np.array([mode.label[1] == "cos" for mode in modes], dtype=bool)
    return K, is_cos


def _torus_phases(model: ManifoldModel, modes, coords: np.ndarray):
    """W (modes x dim), cos mask and phases k.x (points x modes) of the torus
    modes at the coordinate rows, added one axis at a time: a BLAS product's
    rounding would depend on its row count."""
    K, is_cos = torus_labels(model, modes)
    W = torus_frequencies(model, K)
    phase = coords[:, :1] * W[:, 0]
    for i in range(1, model.dim):
        phase += coords[:, i:i + 1] * W[:, i]
    return W, is_cos, phase


def _torus_value_matrix(model: ManifoldModel, modes, coords: np.ndarray) -> np.ndarray:
    _, is_cos, phase = _torus_phases(model, modes, coords)
    phase[:, is_cos] = np.cos(phase[:, is_cos])
    phase[:, ~is_cos] = np.sin(phase[:, ~is_cos])
    phase *= math.sqrt(2.0 / model.volume)
    return phase


def mode_matrix(model: ManifoldModel, modes, coords: np.ndarray) -> np.ndarray:
    """Values of every mode at every coordinate row: (n_points, n_modes)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if len(modes) == 0:
        return np.zeros((len(coords), 0))
    if model.kind == SPHERE2:
        return _sphere_value_matrix(modes, coords)
    return _torus_value_matrix(model, modes, coords)


def torus_half_spectrum(model: ManifoldModel, K: np.ndarray, is_cos: np.ndarray,
                        A: np.ndarray, counts) -> np.ndarray:
    """The used columns of the Hermitian half lattice of the coefficient
    columns of A (modes x columns) on the torus product grid with counts[i]
    nodes on axis i, after the complex inverse FFTs over every axis but the
    last: (columns, prod(counts[:-1]), width), its rows in C order. K and
    is_cos are the modes' torus_labels, parsed once by a caller that builds
    many spectra of the same modes.

    A mode of frequency 2 pi k / L has phase 2 pi k.j / c at node j, and
    a cos + b sin = (a - i b)/2 e^{i theta} + (a + i b)/2 e^{-i theta}, so the
    values are one real inverse FFT of the Hermitian lattice with those halves
    at k and -k mod counts, exact for any counts. The inverse FFTs divide by
    prod(counts), so the halves carry the amplitude prod(counts) sqrt(2 / vol)
    of the grid values. Of the half below counts[-1] // 2 + 1 on the last
    axis, both halves can land on its zero and Nyquist planes, where they are
    summed. Every site of that half lies in the columns up to the band's
    largest |k| on the last axis, so only those width columns are built and
    transformed: the rest are zeros, whose transform is zeros.
    """
    counts = tuple(counts)
    width = min(int(np.abs(K[:, -1]).max(initial=0)) + 1, counts[-1] // 2 + 1)
    used = (*counts[:-1], width)
    sites = np.concatenate([K, -K]) % np.array(counts)
    amplitude = math.prod(counts) * math.sqrt(2.0 / model.volume)
    C = A.T * (np.where(is_cos, 0.5, -0.5j) * amplitude)
    keep = sites[:, -1] < width
    spectrum = np.zeros((A.shape[1], *used), dtype=complex)
    np.add.at(spectrum.reshape(len(spectrum), -1),
              (slice(None), np.ravel_multi_index(tuple(sites[keep].T), used)),
              np.concatenate([C, C.conj()], axis=1)[:, keep])
    # irfftn's own steps, with the complex ones in place
    for axis in range(1, len(counts)):
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
    return spectrum.reshape(len(spectrum), -1, width)


def torus_grid_values(model: ManifoldModel, modes, A: np.ndarray, counts) -> np.ndarray:
    """Values of the coefficient columns of A (modes x columns) on the torus
    product grid with counts[i] nodes on axis i: (columns, points), points
    in the C order of manifold.product_grid; one real inverse FFT of the rows
    of torus_half_spectrum, which irfft pads with zeros, exact for any counts."""
    spectrum = torus_half_spectrum(model, *torus_labels(model, modes), A, counts)
    return np.fft.irfft(spectrum, n=counts[-1], axis=-1).reshape(len(spectrum), -1)


def _sphere_gradient_ambient(modes, coords: np.ndarray) -> np.ndarray:
    """Ambient-3-vector gradients, shape (n_points, n_modes, 3)."""
    t, s, phi = _sphere_angles(coords)
    cphi, sphi = np.cos(phi), np.sin(phi)
    e_theta = np.stack([t * cphi, t * sphi, -s], axis=1)
    e_phi = np.stack([-sphi, cphi, np.zeros_like(phi)], axis=1)
    L, M, A = _sphere_labels(modes)
    dtheta = np.empty((len(coords), len(modes)))
    over_s = np.empty_like(dtheta)
    for l in dict.fromkeys(L.tolist()):
        J = np.flatnonzero(L == l)
        d, o = _degree_gradient_rows(l, t, s)
        dtheta[:, J], over_s[:, J] = d[A[J]].T, o[A[J]].T
    # m = 0 keeps d/dtheta alone: its scale and cos 0 are 1, and its
    # phi-component factor is 0
    mphi = phi[:, None] * A
    cos, sin = np.cos(mphi), np.sin(mphi)
    is_sin = M < 0
    dth = np.where(A == 0, 1.0, _SQRT2) * dtheta * np.where(is_sin, sin, cos)
    dph = np.where(M > 0, -_SQRT2, _SQRT2) * A * over_s * np.where(is_sin, cos, sin)
    return dth[:, :, None] * e_theta[:, None, :] + dph[:, :, None] * e_phi[:, None, :]


def gradient_matrix(model: ManifoldModel, modes, coords: np.ndarray) -> np.ndarray:
    """Gradients of every mode at every coordinate row, in that row's
    manifold.tangent_frame_rows frame: (n_points, n_modes, dim)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if model.kind == SPHERE2:
        frames = mf.tangent_frame_rows(model, coords)
        return np.matmul(_sphere_gradient_ambient(modes, coords), frames.transpose(0, 2, 1))
    W, is_cos, phase = _torus_phases(model, modes, coords)
    scale = np.where(is_cos, -np.sin(phase), np.cos(phase))
    return math.sqrt(2.0 / model.volume) * scale[:, :, None] * W


# ---------------------------------------------------------------------------
# quadrature


def _sphere_quadrature(n_theta: int, n_phi: int):
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    phis = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    t = np.repeat(nodes, n_phi)
    phi = np.tile(phis, n_theta)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    coords = np.stack([s * np.cos(phi), s * np.sin(phi), t], axis=1)
    w = np.repeat(weights, n_phi) * (2.0 * math.pi / n_phi)
    return coords, w


def _torus_quadrature(model: ManifoldModel, n_axis: int):
    coords = mf.product_grid(model, (n_axis,) * model.dim)
    w = np.full(len(coords), model.volume / len(coords))
    return coords, w


def quadrature_rule(model: ManifoldModel, size: int):
    """Product rule integrating the volume measure: (coords, weights).

    Sphere: size Gauss-Legendre nodes in cos(theta) x 2*size uniform
    azimuths. Torus: size points per axis (trapezoid, exact below Nyquist).
    """
    if size < 1:
        raise ValueError(f"quadrature size must be >= 1, got {size}")
    if model.kind == SPHERE2:
        return _sphere_quadrature(size, 2 * size)
    return _torus_quadrature(model, size)


def orthonormality_check(model: ManifoldModel, band: Band, quadrature_size: int) -> float:
    """Max entrywise |Gram - I| of the band basis under the product rule."""
    if band.m_lambda == 0:
        raise ValueError("empty band")
    coords, w = quadrature_rule(model, quadrature_size)
    Y = mode_matrix(model, band.modes, coords)
    gram = Y.T @ (Y * w[:, None])
    return float(np.abs(gram - np.eye(band.m_lambda)).max())
