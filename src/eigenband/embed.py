"""Band embeddings and everything induced by them.

The embedding of a band is x -> (1/k) (phi_1(x), ..., phi_m(x)). This module
computes that map, the band and cumulative projector kernels, the canonical
distance pulled back from the ambient Euclidean metric, the pullback metric
tensor, polyline lengths in that metric, and the scans (Lipschitz ratio,
radial distance profile, diameter) the experiments are built on, and the
sphere caps that let a farthest-point traversal skip rows. An empty band
has no embedding: make_embedding refuses it, and nothing here checks again.

Kernel fast paths exploit the addition theorem on the sphere and translation
invariance on the torus; the naive mode sums stay available as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import basis as bs
from . import manifold as mf
from .manifold import SPHERE2, ManifoldModel, Point
from .spectrum import (Band, band_modes, band_terms, enumerate_band, mean_frequency,
                       torus_frequencies)
from .specfun import legendre_weighted_sum, radial_profile

__all__ = [
    "Embedding",
    "MetricTensor",
    "ProfilePoint",
    "CanonicalDistance",
    "make_embedding",
    "phi",
    "band_kernel",
    "cumulative_kernel",
    "dist_lambda",
    "pullback_metric",
    "path_length_glambda",
    "lipschitz_scan",
    "distance_profile",
    "diameter_estimate",
    "sphere_metric_constant",
]

# kernel-difference step for the second-derivative route, in units of 1/lambda
FD_STEP_SCALE = 3e-3
# sphere cap cut table: steps over [0, pi] per unit of lambda (even), which
# keeps the Lipschitz slack sqrt(c) h / 2 of a step near 2e-3 at every lambda
_CUT_STEPS_PER_LAMBDA = 500
# subtracted from every step's bound: covers the rounding of feature rows,
# of the table's own rows and of the substrate cosines
_CUT_ROUNDING = 1e-9
# zooms of the sphere diameter's search for the kernel minimum
_MIN_ZOOMS = 6


@dataclass(frozen=True)
class Embedding:
    """A band and its model; terms feeds the addition-theorem kernel."""

    band: Band
    model: ManifoldModel
    terms: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class MetricTensor:
    matrix: np.ndarray
    frame: np.ndarray


class ProfilePoint(NamedTuple):
    r: float
    measured: float
    reference: float


def make_embedding(model: ManifoldModel, lam: float) -> Embedding:
    """The embedding of the band (lam, lam+1]; ValueError if it is empty."""
    band = enumerate_band(model, lam)
    if band.m_lambda == 0:
        raise ValueError(f"band at lambda={band.lam} is empty")
    return Embedding(band=band, model=model,
                     terms=_kernel_terms(model, band.lam, band.lam + 1.0))


# ---------------------------------------------------------------------------
# kernels


def _kernel_terms(model: ManifoldModel, lo: float, hi: float) -> np.ndarray:
    """Sphere: Legendre weights (2l+1)/(4 pi) by degree, zero outside (lo, hi].
    Torus: one frequency row 2 pi k / L per cos/sin pair."""
    K = band_terms(model, lo, hi)
    if model.kind == SPHERE2:
        w = np.zeros(int(K.max(initial=0)) + 1)
        w[K] = (2 * K + 1) / (4.0 * math.pi)
        return w
    return torus_frequencies(model, K)


def _kernel(model: ManifoldModel, terms: np.ndarray, X: np.ndarray,
            Y: np.ndarray) -> np.ndarray:
    """Projector kernel by the addition theorem (sphere) or translation invariance
    (torus): one point X against the rows of Y, or two stacks row by row."""
    if model.kind == SPHERE2:
        return legendre_weighted_sum(terms, mf.sphere_cosines(X, Y))
    phase = (Y - X) @ terms.T
    np.cos(phase, out=phase)
    return (2.0 / model.volume) * phase.sum(axis=-1)


def _pole_kernel(embedding: Embedding, theta: np.ndarray) -> np.ndarray:
    """Sphere kernel between the north pole and the meridian points at angles
    theta: their cosines are cos(theta) exactly, as _kernel would take them."""
    return legendre_weighted_sum(embedding.terms, np.cos(theta))


def _mode_sum(model: ManifoldModel, modes, xc: np.ndarray, yc: np.ndarray) -> float:
    """sum_j phi_j(x) phi_j(y) over modes: the mode_matrix rows at x and y, dotted."""
    vals = bs.mode_matrix(model, modes, np.stack([xc, yc]))
    return float(vals[0] @ vals[1])


def band_kernel(embedding: Embedding, x: Point, y: Point, method: str = "fast") -> float:
    """Band projector kernel E(x, y) = sum over the band of phi_j(x) phi_j(y)."""
    model = embedding.model
    xc = mf.check_point(model, x)
    yc = mf.check_point(model, y)
    if method == "fast":
        return float(_kernel(model, embedding.terms, xc, yc[None, :])[0])
    if method == "naive":
        return _mode_sum(model, embedding.band.modes, xc, yc)
    raise ValueError(f"unknown kernel method {method!r}")


def cumulative_kernel(model: ManifoldModel, lam: float, x: Point, y: Point,
                      method: str = "fast") -> float:
    """Projector kernel over every nonzero eigenvalue up to lam."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    xc = mf.check_point(model, x)
    yc = mf.check_point(model, y)
    if method == "fast":
        return float(_kernel(model, _kernel_terms(model, 0.0, lam), xc, yc[None, :])[0])
    if method == "naive":
        return _mode_sum(model, band_modes(model, 0.0, lam), xc, yc)
    raise ValueError(f"unknown kernel method {method!r}")


# ---------------------------------------------------------------------------
# embedding map and canonical distance


def phi(embedding: Embedding, x: Point) -> np.ndarray:
    """Components of the normalized embedding at x, in band mode order."""
    band = embedding.band
    xc = mf.check_point(embedding.model, x)
    return bs.mode_matrix(embedding.model, band.modes, xc[None, :])[0] / band.k_lambda


def _dist_from_kernels(exx, eyy, exy, k: float):
    return np.sqrt(np.maximum(0.0, exx + eyy - 2.0 * exy)) / k


def _row_distance(embedding: Embedding, xc: np.ndarray, yc: np.ndarray) -> float:
    """dist_lambda between two coordinate rows, from three kernel values."""
    exx, eyy, exy = (float(_kernel(embedding.model, embedding.terms, a, b[None, :])[0])
                     for a, b in ((xc, xc), (yc, yc), (xc, yc)))
    return float(_dist_from_kernels(exx, eyy, exy, embedding.band.k_lambda))


def dist_lambda(embedding: Embedding, x: Point, y: Point) -> float:
    """Canonical distance: Euclidean distance between the embedded points."""
    return _row_distance(embedding, *(mf.check_point(embedding.model, p) for p in (x, y)))


class CanonicalDistance:
    """dist_lambda for net builders: rows by the addition theorem, and a
    feature route for the farthest-point traversal of a whole substrate."""

    name = "d_lambda"

    def __init__(self, embedding: Embedding):
        self.embedding = embedding
        band = embedding.band
        # both models are homogeneous so the diagonal is constant
        self._diag = band.m_lambda / embedding.model.volume
        self._k = band.k_lambda

    def rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Distances from one point X to the rows of Y, or row by row."""
        exy = _kernel(self.embedding.model, self.embedding.terms, X, Y)
        return _dist_from_kernels(self._diag, self._diag, exy, self._k)

    def feature_rows(self, C: np.ndarray):
        """The feature matrix Phi(C), rows(f, F), the distances from the
        feature row f to the rows of F, and near (_sphere_cap_cut on the
        sphere, None on the torus), for farthest-point traversal.

        A row takes its kernel values from one matrix-vector product F @ f
        in place of the addition theorem.
        """
        diag, k = self._diag, self._k

        def rows(f: np.ndarray, F: np.ndarray) -> np.ndarray:
            return _dist_from_kernels(diag, diag, F @ f, k)

        model = self.embedding.model
        near = _sphere_cap_cut(self.embedding) if model.kind == SPHERE2 else None
        return bs.mode_matrix(model, self.embedding.band.modes, C), rows, near


def sphere_metric_constant(embedding: Embedding) -> float:
    """The multiple c of the round metric that the sphere band pulls back:
    sum_m |grad Y_lm|^2 = l(l+1)(2l+1)/(4 pi), shared by two tangent
    directions and scaled by 1/k^2."""
    w = embedding.terms
    l = np.arange(w.size)
    return float(w @ (l * (l + 1.0))) / (2.0 * embedding.band.k_lambda ** 2)


def _sphere_cap_cut(embedding: Embedding):
    """near(U, k, r) -> None or the indices of the rows of U (unit vectors)
    at an angle to U[k] below a or above b, where a <= pi/2 <= b and every
    pair of sphere points at an angle in [a, b] is at d_lambda >= r.

    On the sphere d_lambda = f(theta) of the angle theta. f is tabulated at
    _CUT_STEPS_PER_LAMBDA * ceil(lambda) equal steps h over [0, pi]. Since
    |f(t1) - f(t2)| <= d_lambda(y1, y2) <= sqrt(c) |t1 - t2|, with c from
    sphere_metric_constant, f >= (f_i + f_{i+1}) / 2 - sqrt(c) h / 2 on each
    step; less _CUT_ROUNDING, that is the step's bound. Suffix minima of the
    bounds over [0, pi/2] give a, prefix minima over [pi/2, pi] give b, by
    two searchsorted calls. None when neither side holds a step.
    """
    band = embedding.band
    half = _CUT_STEPS_PER_LAMBDA // 2 * math.ceil(band.lam)
    h = math.pi / (2 * half)
    diag = band.m_lambda / embedding.model.volume
    f = _dist_from_kernels(diag, diag, _pole_kernel(embedding, h * np.arange(2 * half + 1)),
                           band.k_lambda)
    slack = 0.5 * math.sqrt(sphere_metric_constant(embedding)) * h
    bound = 0.5 * (f[:-1] + f[1:]) - slack - _CUT_ROUNDING
    # nondecreasing: the bound of every step from i up to pi/2, and (reversed)
    # of every step from pi/2 up to half + i
    below = np.minimum.accumulate(bound[:half][::-1])[::-1]
    above = np.minimum.accumulate(bound[half:])[::-1]

    def near(U: np.ndarray, k: int, r: float):
        a = int(below.searchsorted(r))
        b = 2 * half - int(above.searchsorted(r))
        if a == half == b:
            return None
        cosines = U @ U[k]
        return np.flatnonzero((cosines > math.cos(a * h)) | (cosines < math.cos(b * h)))

    return near


# ---------------------------------------------------------------------------
# pullback metric


def pullback_metric(embedding: Embedding, x: Point, method: str = "gradient") -> MetricTensor:
    """Metric pulled back through the embedding, in the tangent frame at x.

    method "gradient" sums grad phi_j outer products; "kernel_fd" reads the
    same tensor off mixed second differences of the kernel and exists as an
    independent cross-check.
    """
    band = embedding.band
    model = embedding.model
    xc = mf.check_point(model, x)
    frame = mf.tangent_frame(model, x)
    k2 = band.k_lambda ** 2
    if method == "gradient":
        G = bs.gradient_matrix(model, band.modes, xc[None, :])[0]
        mat = (G.T @ G) / k2
    elif method == "kernel_fd":
        # g_ab = -(1/k^2) d^2/du_a du_b E(x, exp_x(u)) at u = 0, by the
        # four-point mixed difference, all a <= b in one kernel call
        h = FD_STEP_SCALE / mean_frequency(band)
        n = model.dim
        E = h * np.eye(n)
        upper = np.triu_indices(n)
        steps = np.concatenate([np.stack([E[a] + E[b], E[a] - E[b], E[b] - E[a], -E[a] - E[b]])
                                for a, b in zip(*upper)])
        Y = mf.exp_map_rows(model, np.broadcast_to(xc, (len(steps), len(xc))), steps)
        vals = _kernel(model, embedding.terms, xc, Y).reshape(-1, 4)
        mat = np.empty((n, n))
        mat[upper] = -(vals[:, 0] - vals[:, 1] - vals[:, 2] + vals[:, 3]) / (4.0 * h * h * k2)
        mat.T[upper] = mat[upper]
    else:
        raise ValueError(f"unknown pullback method {method!r}")
    mat = 0.5 * (mat + mat.T)
    return MetricTensor(matrix=mat, frame=frame)


def path_length_glambda(embedding: Embedding, waypoints) -> float:
    """Length of the polyline in the pullback metric, segment metrics at midpoints."""
    if len(waypoints) < 2:
        raise ValueError("need at least 2 waypoints")
    model = embedding.model
    total = 0.0
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        pc = mf.check_point(model, p)
        qc = mf.check_point(model, q)
        if model.kind == SPHERE2:
            mid_raw = pc + qc
            nm = float(np.linalg.norm(mid_raw))
            if nm < 1e-9:
                raise ValueError("antipodal segment; refine the waypoints")
            mid = mf.make_point(model, mid_raw / nm)
            dx = mf.log_map(model, mid, q) - mf.log_map(model, mid, p)
        else:
            dx = mf.log_map(model, p, q)
            mid = mf.make_point(model, pc + 0.5 * dx)
        g = pullback_metric(embedding, mid).matrix
        total += math.sqrt(max(0.0, float(dx @ g @ dx)))
    return total


# ---------------------------------------------------------------------------
# scans


def lipschitz_scan(embedding: Embedding, pair_count: int, rng: np.random.Generator) -> float:
    """max over sampled pairs of dist_lambda / (lambda * dist_g).

    Half the pairs are uniform; the other half pins y at geodesic radius
    log-uniform in [1e-3/lambda, 10/lambda] from x, where the ratio peaks.
    Closer pairs measure rounding in arccos and the kernel cancellation.
    """
    band = embedding.band
    lam = band.lam
    if lam <= 0:
        raise ValueError("lipschitz ratio needs lambda > 0")
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    model = embedding.model
    n_near = pair_count // 2
    n_far = pair_count - n_near
    X = mf.uniform_sample_rows(model, rng, pair_count)
    Y = np.empty_like(X)
    Y[:n_far] = mf.uniform_sample_rows(model, rng, n_far)
    r_hi = min(10.0 / lam, 0.999 * model.injectivity_radius)
    r_lo = 1e-3 / lam
    radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=n_near))
    dirs = rng.normal(size=(n_near, model.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    Y[n_far:] = mf.exp_map_rows(model, X[n_far:], radii[:, None] * dirs)
    dg = mf.geodesic_rows(model, X, Y)
    dl = CanonicalDistance(embedding).rows(X, Y)
    keep = dg > 0
    return float((dl[keep] / (lam * dg[keep])).max())


_GENERIC_DIR = (1.0, 0.6180339887498949, 0.3819660112501051)


def distance_profile(embedding: Embedding, r_values) -> list[ProfilePoint]:
    """Measured dist_lambda against the universal radial reference profile.

    The reference is sqrt((2/vol)(1 - Lambda_n(lam_bar r))); it is a shape to
    compare against, not an asserted equality.
    """
    band = embedding.band
    model = embedding.model
    r = np.array(r_values, dtype=float).reshape(-1)
    for bad in r[(r < 0) | (r > model.injectivity_radius + 1e-12)]:
        raise ValueError(f"r={bad} outside [0, injectivity radius]")
    if model.kind == SPHERE2:
        x0 = np.array([0.0, 0.0, 1.0])
        Y = np.stack([np.sin(r), np.zeros_like(r), np.cos(r)], axis=1)
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    else:
        u = np.array(_GENERIC_DIR[:model.dim])
        u /= np.linalg.norm(u)
        x0 = np.zeros(model.dim)
        Y = np.mod(r[:, None] * u, np.array(model.side_lengths))
    # the same routine for all three kernels, so r = 0 gives exactly 0
    exx = _kernel(model, embedding.terms, x0, x0[None, :])
    eyy = _kernel(model, embedding.terms, Y, Y)
    exy = _kernel(model, embedding.terms, x0, Y)
    measured = _dist_from_kernels(exx, eyy, exy, band.k_lambda)
    ref = math.sqrt(2.0 / model.volume) * np.sqrt(np.maximum(
        0.0, 1.0 - radial_profile(model.dim, mean_frequency(band) * r)))
    return [ProfilePoint(r=float(a), measured=float(b), reference=float(c))
            for a, b, c in zip(r, measured, ref)]


def _kernel_min_theta(embedding: Embedding, thetas: np.ndarray) -> float:
    """Angle of the sphere kernel's minimum: scan thetas, then zoom a
    65-point grid around the smallest value, _MIN_ZOOMS times."""
    for _ in range(_MIN_ZOOMS + 1):
        vals = _pole_kernel(embedding, thetas)
        j = int(vals.argmin())
        lo = thetas[max(0, j - 1)]
        hi = thetas[min(len(thetas) - 1, j + 1)]
        thetas = np.linspace(lo, hi, 65)
    return 0.5 * (lo + hi)


def diameter_estimate(embedding: Embedding, grid_size: int) -> float:
    """Largest dist_lambda over a quasi-uniform grid of about grid_size points.

    Sphere bands: dist_lambda depends only on the geodesic angle, so the
    scan runs over [0, pi] directly with local grid refinement. Torus: the
    pairwise minimal-image displacements of a product grid form the same
    grid, so the farthest pair sits at the minimum of E(0, .) over the grid.
    E(0, .) is the wave whose coefficients are the modes' values at the
    origin, so one inverse FFT (basis.torus_grid_values) gives it on the
    whole grid; the distance is then taken at its argmin node.
    """
    band = embedding.band
    model = embedding.model
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if model.kind == SPHERE2:
        theta = _kernel_min_theta(embedding, np.linspace(0.0, math.pi, max(grid_size, 64)))
        y = np.array([math.sin(theta), 0.0, math.cos(theta)])
        # the unit vector make_point builds, so this is dist_lambda at that Point
        return _row_distance(embedding, np.array([0.0, 0.0, 1.0]), y / np.linalg.norm(y))
    counts = mf.torus_axis_counts(model, grid_size)
    origin = np.zeros(model.dim)
    phi0 = bs.mode_matrix(model, band.modes, origin[None, :]).T
    E = bs.torus_grid_values(model, band.modes, phi0, counts)[0]
    far = mf.product_grid_nodes(model, counts, int(E.argmin()))
    return _row_distance(embedding, origin, far)
