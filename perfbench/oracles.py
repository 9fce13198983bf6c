"""Independent computations the benchmark checks eigenband's outputs against.

Nothing in this module imports eigenband. Values come from
scipy.special (spherical harmonics, Legendre polynomials, J0), numpy FFTs,
brute-force lattice sums and scipy.optimize. Mode labels and wave
coefficients are the only things taken from the program, as inputs.

Each check_* function returns (ok, detail) and never raises on a wrong
value, so a planted error shows up as ok == False.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, spatial, special

SQRT2 = math.sqrt(2.0)
# relative slack for comparisons of the same quantity computed two ways
REL_EXACT = 1e-9


# ---------------------------------------------------------------------------
# sphere


def sphere_angles(coords: np.ndarray):
    """(polar, azimuth) of unit 3-vectors."""
    theta = np.arccos(np.clip(coords[:, 2], -1.0, 1.0))
    phi = np.arctan2(coords[:, 1], coords[:, 0])
    return theta, phi


def _real_harmonic_factors(labels):
    """Degrees, orders |m|, and signed weights turning scipy's complex
    harmonics into the real basis without the Condon-Shortley phase."""
    l = np.array([lab[0] for lab in labels])
    m = np.array([lab[1] for lab in labels])
    am = np.abs(m)
    weight = np.where(m == 0, 1.0, SQRT2 * (-1.0) ** am)
    return l, m, am, weight


def sphere_mode_values(labels, coords: np.ndarray) -> np.ndarray:
    """Real orthonormal spherical harmonics at unit vectors: (points, modes)."""
    l, m, am, weight = _real_harmonic_factors(labels)
    theta, phi = sphere_angles(np.atleast_2d(coords))
    Y = special.sph_harm_y(l[None, :], am[None, :], theta[:, None], phi[:, None])
    return weight * np.where(m < 0, Y.imag, Y.real)


def sphere_ring_values(labels, C: np.ndarray, n_theta: int):
    """Waves (columns of C) on an n_theta x 2 n_theta (polar, azimuth) grid.

    The polar part is evaluated once per ring and the azimuthal sum is a
    matrix product. Returns (values (waves, points), theta, phi) with the
    points in ring-major order.
    """
    l, m, am, weight = _real_harmonic_factors(labels)
    n_phi = 2 * n_theta
    theta = (np.arange(n_theta) + 0.5) * (math.pi / n_theta)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    top = int(am.max())
    A = np.zeros((C.shape[1], n_theta, top + 1))
    B = np.zeros_like(A)
    for j in range(len(labels)):
        ring = weight[j] * special.sph_harm_y(int(l[j]), int(am[j]), theta, 0.0).real
        target = B if m[j] < 0 else A
        target[:, :, am[j]] += C[j][:, None] * ring[None, :]
    orders = np.arange(top + 1)[:, None]
    return A @ np.cos(orders * phi) + B @ np.sin(orders * phi), theta, phi


def sphere_wave_fn(labels, coeffs: np.ndarray):
    """Point evaluator f((theta, phi)) of one sphere wave."""
    l, m, am, weight = _real_harmonic_factors(labels)
    wc = weight * coeffs
    neg = m < 0
    groups = [(l == d, np.arange(d + 1), am[l == d]) for d in np.unique(l)]

    def f(x):
        P = np.empty(len(l))
        for sel, orders, idx in groups:
            P[sel] = np.ravel(special.sph_legendre_p(orders[-1], orders, x[0]))[idx]
        trig = np.where(neg, np.sin(am * x[1]), np.cos(am * x[1]))
        return float((P * trig) @ wc)

    return f


def legendre_kernel(degrees, t) -> np.ndarray:
    """Band kernel sum_l (2l+1)/(4 pi) P_l(t) by scipy's Legendre values."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for l in degrees:
        out += (2 * l + 1) / (4.0 * math.pi) * special.eval_legendre(l, t)
    return out


def sphere_band_labels(lam: float):
    """Sphere band (lam, lam + 1] by a direct scan of degrees."""
    labels = []
    l = 1
    while math.sqrt(l * (l + 1.0)) <= lam + 1.0:
        if math.sqrt(l * (l + 1.0)) > lam:
            labels += [(l, m) for m in range(-l, l + 1)]
        l += 1
    return labels


def k_lambda(m: int) -> float:
    """sqrt(2) Gamma((m+1)/2) / Gamma(m/2) from scipy's log-gamma."""
    return SQRT2 * math.exp(special.gammaln((m + 1) / 2.0) - special.gammaln(m / 2.0))


def sphere_distance(degrees, cos_angle, k: float) -> np.ndarray:
    """Canonical band distance from the addition theorem."""
    e0 = legendre_kernel(degrees, np.array(1.0))
    e = legendre_kernel(degrees, cos_angle)
    return np.sqrt(np.maximum(0.0, 2.0 * (e0 - e))) / k


def sphere_diameter(degrees, k: float) -> float:
    """Largest canonical distance: dense angle scan, then bounded refinement."""
    lmax = max(degrees)
    thetas = np.linspace(0.0, math.pi, 40 * lmax + 1)
    d = sphere_distance(degrees, np.cos(thetas), k)
    j = int(d.argmax())
    lo, hi = thetas[max(0, j - 1)], thetas[min(len(thetas) - 1, j + 1)]
    res = optimize.minimize_scalar(
        lambda th: -float(sphere_distance(degrees, np.cos(th), k)),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-13})
    return max(float(d[j]), -float(res.fun))


def sphere_metric_constant(degrees, k: float) -> float:
    """Pullback metric multiple c from the addition theorem:
    sum_m |grad Y_lm|^2 = l(l+1)(2l+1)/(4 pi), shared by two tangent directions."""
    return sum(l * (l + 1) * (2 * l + 1) / (4.0 * math.pi) for l in degrees) / (2.0 * k * k)


def sphere_cumulative_kernel(lam: float, cos_angle) -> np.ndarray:
    """Sum of the sphere's band kernels over degrees 1..l with l(l+1) <= lam^2."""
    top = max(l for l in range(int(lam) + 1) if l * (l + 1) <= lam * lam)
    return legendre_kernel(range(1, top + 1), np.clip(cos_angle, -1.0, 1.0))


# ---------------------------------------------------------------------------
# flat 2-torus


def torus_band_lattice(sides, lo: float, hi: float) -> np.ndarray:
    """Every lattice vector k with lo < |2 pi k / L| <= hi, by brute force."""
    L = np.asarray(sides, dtype=float)
    kmax = [int(math.ceil(hi * s / (2.0 * math.pi))) + 1 for s in L]
    a, b = np.meshgrid(np.arange(-kmax[0], kmax[0] + 1),
                       np.arange(-kmax[1], kmax[1] + 1), indexing="ij")
    k = np.stack([a.ravel(), b.ravel()], axis=1)
    mu = np.hypot(*(2.0 * math.pi * k / L).T)
    return k[(mu > lo) & (mu <= hi)]


def torus_cumulative_kernel(sides, lam: float, delta: np.ndarray) -> np.ndarray:
    """(1/vol) sum over nonzero lattice vectors with |omega| <= lam of
    cos(omega . delta), for the rows of delta = x - y."""
    L = np.asarray(sides, dtype=float)
    W = 2.0 * math.pi * torus_band_lattice(sides, 0.0, lam) / L
    return np.cos(delta @ W.T).sum(axis=1) / float(np.prod(L))


def torus_grid_values(sides, labels, C: np.ndarray, n: int) -> np.ndarray:
    """Waves (columns of C) on the n x n grid x = (L_a i / n), by inverse FFT
    of the coefficient lattice: (waves, n, n)."""
    vol = float(np.prod(sides))
    amp = math.sqrt(2.0 / vol)
    F = np.zeros((C.shape[1], n, n), dtype=complex)
    for j, (k, flavor) in enumerate(labels):
        c = amp * C[j]
        # cos = (e+ + e-)/2, sin = (e+ - e-)/(2i)
        plus, minus = (c / 2.0, c / 2.0) if flavor == "cos" else (c / 2j, -c / 2j)
        F[:, k[0] % n, k[1] % n] += plus
        F[:, -k[0] % n, -k[1] % n] += minus
    return np.fft.ifft2(F, axes=(1, 2)).real * (n * n)


def torus_grid_points(sides, n: int) -> np.ndarray:
    a, b = np.meshgrid(np.arange(n) * (sides[0] / n), np.arange(n) * (sides[1] / n),
                       indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1)


def torus_wave_fn(sides, labels, coeffs: np.ndarray):
    """Point evaluator f(x) of one torus wave, summed mode by mode."""
    L = np.asarray(sides, dtype=float)
    W = np.array([2.0 * math.pi * np.array(k) / L for k, _ in labels])
    is_cos = np.array([flavor == "cos" for _, flavor in labels])
    amp = math.sqrt(2.0 / float(np.prod(L)))

    def f(x):
        ph = W @ np.asarray(x)
        return amp * float(np.where(is_cos, np.cos(ph), np.sin(ph)) @ coeffs)

    return f


def torus_kernel_grid(sides, lam: float, n: int) -> np.ndarray:
    """Band kernel E(0, x) on the n x n grid, by inverse FFT of the band lattice."""
    k = torus_band_lattice(sides, lam, lam + 1.0)
    F = np.zeros((n, n))
    np.add.at(F, (k[:, 0] % n, k[:, 1] % n), 1.0)
    return np.fft.ifft2(F).real.ravel() * (n * n) / float(np.prod(sides))


# ---------------------------------------------------------------------------
# true sups: dense evaluation, then local optimisation from every grid peak
# that could hide the maximum


def _grid_peaks(a: np.ndarray, wrap_rows: bool) -> np.ndarray:
    """Mask of points no lower than their 8 grid neighbours; columns wrap."""
    peak = np.ones(a.shape, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                nb = np.roll(a, (dr, dc), axis=(0, 1))
                if dr and not wrap_rows:
                    nb[0 if dr == 1 else -1, :] = -np.inf
                peak &= a >= nb
    return peak


def true_sup(grid_vals: np.ndarray, axis0: np.ndarray, axis1: np.ndarray, fn,
             use_abs: bool, wrap_rows: bool, window: float = 0.08,
             max_starts: int = 16) -> float:
    """Sup of fn (or |fn|) from its values on the product grid axis0 x axis1.

    Runs Nelder-Mead from every grid peak within `window` (relative) of the
    grid maximum, highest first, at most max_starts of them. The grid must
    be fine enough that the peak holding the sup is within the window.
    """
    a = np.abs(grid_vals) if use_abs else grid_vals
    flat = a.ravel()
    best = float(flat.max())
    idx = np.flatnonzero(_grid_peaks(a, wrap_rows).ravel() & (flat >= (1.0 - window) * best))
    idx = idx[np.argsort(-flat[idx])][:max_starts]
    step = float(min(axis0[1] - axis0[0], axis1[1] - axis1[0]))
    for i in idx:
        x0 = np.array([axis0[i // a.shape[1]], axis1[i % a.shape[1]]])
        sign = 1.0 if (not use_abs or grid_vals.ravel()[i] >= 0) else -1.0
        simplex = np.stack([x0, x0 + [step, 0.0], x0 + [0.0, step]])
        res = optimize.minimize(lambda x: -sign * fn(x), x0, method="Nelder-Mead",
                                options={"initial_simplex": simplex, "xatol": 1e-9,
                                         "fatol": 1e-14, "maxiter": 2000})
        best = max(best, -float(res.fun))
    return best


# ---------------------------------------------------------------------------
# checks: each returns (ok, detail)


def check_close(name: str, got, want, tol: float):
    """max |got - want| <= tol."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False, f"{name}: shape {got.shape} != {want.shape}"
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    ok = bool(np.isfinite(dev) and dev <= tol)
    return ok, f"{name}: max deviation {dev:.2e} (tol {tol:.1e})"


def check_sup(name: str, estimate: float, true: float, ceiling: float, rel_tol: float):
    """Estimate at or below the true sup, within rel_tol of it, below the ceiling."""
    below = estimate <= true * (1.0 + REL_EXACT)
    near = estimate >= true * (1.0 - rel_tol)
    capped = estimate <= ceiling
    gap = 1.0 - estimate / true
    return bool(below and near and capped), (
        f"{name}: estimate {estimate:.6f}, true {true:.6f} (gap {gap:.1e}, "
        f"tol {rel_tol:.0e}), Cauchy-Schwarz ceiling {ceiling:.4f}")


def check_net(name: str, features: np.ndarray, center_idx, eps: float, expected_size: int):
    """An eps-net in feature space: covering, separated, and of the expected size."""
    centers = features[np.asarray(center_idx)]
    sq = ((features ** 2).sum(1)[:, None] + (centers ** 2).sum(1)[None, :]
          - 2.0 * features @ centers.T)
    cover = float(np.sqrt(np.maximum(0.0, sq).min(axis=1)).max())
    csq = (centers ** 2).sum(1)
    pair = np.sqrt(np.maximum(0.0, csq[:, None] + csq[None, :] - 2.0 * centers @ centers.T))
    np.fill_diagonal(pair, np.inf)
    sep = float(pair.min()) if len(centers) > 1 else math.inf
    slack = REL_EXACT * eps
    ok = cover <= eps + slack and sep > eps - slack and len(centers) == expected_size
    return bool(ok), (f"{name}: {len(centers)} centres (curve says {expected_size}), "
                      f"cover radius {cover:.6f}, min separation {sep:.6f}, eps {eps:.6f}")


def check_geodesic_net(name: str, coords: np.ndarray, center_idx, r: float):
    """Sphere net at geodesic radius r, by chord distances in a k-d tree."""
    chord = 2.0 * math.sin(r / 2.0)
    tree = spatial.cKDTree(coords[np.asarray(center_idx)])
    cover, _ = tree.query(coords)
    close = tree.query_pairs(chord * (1.0 - REL_EXACT))
    ok = float(cover.max()) <= chord * (1.0 + REL_EXACT) and not close
    return bool(ok), (f"{name}: {len(center_idx)} centres, cover chord "
                      f"{float(cover.max()):.6f} <= {chord:.6f}, close pairs {len(close)}")
