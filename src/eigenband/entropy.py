"""Covering numbers, the entropy integral, and the small-integral identity.

Nets come from farthest-point traversal, which yields covering-number
upper bounds; that is the direction the entropy integral needs. One
traversal of the substrate produces the whole covering curve, because the
insertion order never depends on epsilon. The traversal walks one array it
owns, one row per substrate point, and asks rows(x, X) for the distances
from row x to every row of X. A point whose nearest-center distance has
fallen to the stop radius can never be inserted or be the farthest point
again, since that distance only shrinks and the traversal stops once the
largest one is at the stop radius. Once such settled points are half of
the live set, their rows are compacted out of the array in place, and later
rows cover only the points still live.

A distance is its name, its rows(x, X) and, optionally, feature_rows(C):
that is the traversal's whole contract with it. A distance that offers
feature_rows (CanonicalDistance) supplies the feature matrix of the
substrate and rows over feature vectors; any other distance walks a copy
of the coordinates with its rows. feature_rows also gives near, None or a
function: near(U, k, r) names the rows of the substrate coordinates U that
a center at row k can bring nearer than r. An insertion at radius r can
only lower the distances below r, so it computes rows just for those
points, unless they are over half of the live set. The geometry behind
rows and near, such as the sphere's caps, is embed's.

scipy is imported inside the two functions that need it, so importing the
package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import weyl_constants

__all__ = [
    "Net",
    "CoveringCurve",
    "DudleyReport",
    "greedy_net",
    "covering_curve",
    "fit_exponent",
    "dudley_report",
    "lp_covering_bound",
    "claim_integral",
]

# pairs whose max underlies the reported curve diameter
_DIAM_PROBE = 64
# rows per gather, when compacting or taking a cap's rows: bounds the temporary copy
_BLOCK = 512
# smallest curve entries used for the tail power-law fit
_TAIL_FIT_POINTS = 4

DUDLEY_CONSTANT = 8.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class Net:
    centers: list
    radius: float
    covered_check: float


@dataclass(frozen=True)
class CoveringCurve:
    entries: tuple
    distance_id: str
    diameter: float
    # distances the traversal computed (0 for a curve built by hand)
    row_entries: int = 0


@dataclass(frozen=True)
class DudleyReport:
    """Entropy integral value plus the internals of its tail extrapolation.

    tail_scale is the distance at which the fitted power law drops to one
    ball; scale_ratio = tail_scale / half_diameter and inverse_log_scale =
    1/ln(scale_ratio) are the dimensionless quantities the sup-norm chain
    is phrased in (nan when degenerate).
    """

    bound: float
    half_diameter: float
    tail_scale: float
    tail_exponent: float
    scale_ratio: float
    inverse_log_scale: float


def _walk(distance, C: np.ndarray):
    """The array a traversal of the substrate C walks, its rows function, and
    its cap: None, or a copy of C with the distance's near function."""
    feature_rows = getattr(distance, "feature_rows", None)
    if feature_rows is not None:
        F, rows, near = feature_rows(C)
        return F, rows, None if near is None else (C.copy(), near)
    return C.copy(), distance.rows, None


def _compact(X: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the rows X[keep] (keep ascending) to the front of X, in place."""
    # keep[i] >= i, so a forward copy in blocks never reads a row it has
    # already overwritten
    for start in range(0, keep.size, _BLOCK):
        block = keep[start:start + _BLOCK]
        X[start:start + block.size] = X[block]
    return X[:keep.size]


def _farthest_point_order(X: np.ndarray, rows, cap, stop_radius: float):
    """Insertion order and radii until the next insertion would be <= stop_radius.

    X holds one row per substrate point and is overwritten: settled points
    (nearest-center distance <= stop_radius) are compacted out of it once
    they are half of the live set. The live rows stay in substrate order,
    so argmax ties still go to the lowest substrate index. A center's own
    distance is set to 0, not left at the rounding residue of its row, so
    no center is inserted again. Also returns the largest nearest-center
    distance recorded, each point's as of its last update, and the number
    of distance entries computed. A nan distance raises ValueError, since
    no radius would ever stop the traversal.

    cap is None or (U, near): U holds the substrate's coordinates, row for
    row with X, and is compacted with it; near(U, k, r) is None or the
    ascending indices of the rows of U that a center at row k can bring
    nearer than r. An insertion at radius r can only lower the distances
    below r, so it computes rows for just those points, gathered in blocks
    of _BLOCK rows. When they are over half of the live points, or near
    gives None, the row covers them all.
    """
    dmin = rows(X[0], X)
    dmin[0] = 0.0
    live = np.arange(dmin.size)
    order = [0]
    radii = [math.inf]
    covered = 0.0
    entries = dmin.size
    while True:
        settled = dmin <= stop_radius
        dropped = int(np.count_nonzero(settled))
        if 2 * dropped >= dmin.size:
            covered = max(covered, float(dmin[settled].max()))
            keep = np.flatnonzero(~settled)
            live, dmin = live[keep], dmin[keep]
            if not dmin.size:
                break
            X = _compact(X, keep)
            if cap is not None:
                cap = _compact(cap[0], keep), cap[1]
        # emptying the live set is the stop: it empties once every live
        # distance is <= stop_radius, so the argmax exceeds it or is nan
        k = int(np.argmax(dmin))
        r = float(dmin[k])
        if math.isnan(r):
            raise ValueError(f"distance to substrate point {live[k]} is nan")
        order.append(int(live[k]))
        radii.append(r)
        near = None if cap is None else cap[1](cap[0], k, r)
        if near is None or 2 * near.size > dmin.size:
            np.minimum(dmin, rows(X[k], X), out=dmin)
            entries += dmin.size
        else:
            for start in range(0, near.size, _BLOCK):
                block = near[start:start + _BLOCK]
                dmin[block] = np.minimum(dmin[block], rows(X[k], X[block]))
            entries += near.size
        dmin[k] = 0.0
    return order, radii, covered, entries


def greedy_net(points, distance, epsilon: float) -> Net:
    """Farthest-point net: add the farthest substrate point while > epsilon.

    Ties go to the lowest substrate index. covered_check is the largest
    nearest-center distance the traversal recorded: exact for the points
    still live at the end, and as of the moment it left the live set for
    any other point. It bounds the net's covering radius of the substrate
    from above and is <= epsilon by construction.
    """
    if len(points) == 0:
        raise ValueError("substrate is empty")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    C = np.array([p.coords for p in points])
    order, _, covered, _ = _farthest_point_order(*_walk(distance, C), epsilon)
    return Net(centers=[points[i] for i in order], radius=epsilon, covered_check=covered)


def covering_curve(substrate, distance, epsilon_list) -> CoveringCurve:
    """Net sizes at every epsilon from one farthest-point traversal.

    The traversal order is epsilon-independent, so the net at each epsilon
    is the prefix of insertions whose radii exceed it; this reproduces
    greedy_net at every listed epsilon while visiting the substrate once.
    """
    eps = [float(e) for e in epsilon_list]
    if not eps:
        raise ValueError("epsilon list is empty")
    if not all(0 < e < math.inf for e in eps):
        raise ValueError("epsilon values must be positive and finite")
    if any(a < b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon values must be sorted descending")
    if len(substrate) == 0:
        raise ValueError("substrate is empty")
    name = distance.name  # a distance without one fails before its traversal
    C = np.array([p.coords for p in substrate])
    order, radii, covered, row_entries = _farthest_point_order(*_walk(distance, C),
                                                                min(eps))
    inserted = np.array(radii[1:])
    entries = tuple((e, 1 + int((inserted > e).sum())) for e in eps)
    if len(order) == 1:
        # one center leaves no pair to probe; covered is then its row's maximum
        diam = covered
    else:
        probe = order[:_DIAM_PROBE]
        diam = max(float(distance.rows(C[i], C[probe]).max()) for i in probe)
    return CoveringCurve(entries=entries, distance_id=name,
                         diameter=diam, row_entries=row_entries)


def fit_exponent(curve: CoveringCurve, n_min: int = 16, n_max: int | None = None) -> float:
    """Log-log slope of net size against 1/epsilon over the scaling window.

    Entries with fewer than n_min centers sit in the few-ball regime and
    entries above n_max are resolution-limited by the substrate (pass
    substrate_size // 4 or so); both are excluded from the fit. nan when
    fewer than two entries survive.
    """
    pts = [(e, n) for e, n in curve.entries
           if n >= n_min and (n_max is None or n <= n_max)]
    if len(pts) < 2 or len({n for _, n in pts}) < 2:
        return math.nan
    le = np.log([1.0 / e for e, _ in pts])
    ln = np.log([float(n) for _, n in pts])
    return float(np.polyfit(le, ln, 1)[0])


def _tail_fit(eps: np.ndarray, counts: np.ndarray):
    """Power-law c * eps^-exponent through the smallest useful entries."""
    mask = counts > 1
    if mask.sum() < 2:
        return None
    e = eps[mask][:_TAIL_FIT_POINTS]
    n = counts[mask][:_TAIL_FIT_POINTS]
    if len(set(n.tolist())) < 2:
        return None
    slope, intercept = np.polyfit(np.log(e), np.log(n), 1)
    exponent = -float(slope)
    if exponent < 0.1:
        return None
    return math.exp(float(intercept)), exponent


def dudley_report(curve: CoveringCurve) -> DudleyReport:
    """8 sqrt(2) * integral of sqrt(ln N(eps)) over (0, half diameter].

    Trapezoid over the tabulated entries; below the finest epsilon the
    fitted power law closes the integrable sqrt-log singularity in closed
    form via the upper incomplete gamma function.
    """
    from scipy.special import gammaincc

    if not curve.entries:
        raise ValueError("covering curve is empty")
    half_d = curve.diameter / 2.0
    eps = np.array([e for e, _ in curve.entries], dtype=float)
    counts = np.array([n for _, n in curve.entries], dtype=float)
    idx = np.argsort(eps)
    eps, counts = eps[idx], counts[idx]
    if counts.max() <= 1 or half_d <= 0:
        return DudleyReport(bound=0.0, half_diameter=half_d, tail_scale=math.nan,
                            tail_exponent=math.nan, scale_ratio=math.nan,
                            inverse_log_scale=math.nan)
    inside = eps <= half_d
    xs = eps[inside]
    fs = np.sqrt(np.log(counts[inside]))
    if xs.size == 0 or xs[-1] < half_d:
        above = counts[~inside]
        edge = float(above[0]) if above.size else float(counts[inside][-1])
        xs = np.append(xs, half_d)
        fs = np.append(fs, math.sqrt(math.log(edge)))
    trap = float(np.trapezoid(fs, xs)) if xs.size > 1 else 0.0

    eps0 = float(xs[0])
    fit = _tail_fit(eps, counts)
    tail_scale = tail_exp = math.nan
    if fit is not None:
        c, exponent = fit
        scale = c ** (1.0 / exponent)
        u0 = math.log(scale / eps0)
        if u0 > 0:
            tail = math.sqrt(exponent) * scale * (math.sqrt(math.pi) / 2.0) \
                * float(gammaincc(1.5, u0))
            tail_scale, tail_exp = scale, exponent
        else:
            fit = None
    if fit is None:
        # no usable fit: freeze the count at the finest epsilon
        tail = eps0 * float(fs[0])
    ratio = tail_scale / half_d if math.isfinite(tail_scale) else math.nan
    inv_log = 1.0 / math.log(ratio) if math.isfinite(ratio) and ratio > 1.0 else math.nan
    return DudleyReport(bound=DUDLEY_CONSTANT * (trap + tail), half_diameter=half_d,
                        tail_scale=tail_scale, tail_exponent=tail_exp,
                        scale_ratio=ratio, inverse_log_scale=inv_log)


def lp_covering_bound(model, r: float) -> float:
    """Closed-form ball-covering bound vol * (2n/s_{n-1}) * pi^(n-1) * r^-n."""
    if model.curvature_sup > 0:
        curve_limit = math.pi / math.sqrt(model.curvature_sup)
    else:
        curve_limit = math.inf
    r_max = min(model.injectivity_radius, curve_limit, 2.0 * math.pi)
    if not 0 < r < r_max:
        raise ValueError(f"radius {r} outside the validity window (0, {r_max})")
    n = model.dim
    s = weyl_constants(model).sphere_area
    return model.volume * (2.0 * n / s) * math.pi ** (n - 1) * r ** (-n)


def claim_integral(a: float) -> float:
    """I(a) = integral over (0,1] of sqrt(1 - a ln x) dx, two ways.

    Adaptive quadrature after u = -ln x against the closed form
    1 + sqrt(a pi)/2 * erfcx(1/sqrt(a)); asserts they agree to 1e-8.
    """
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    from scipy.integrate import quad
    from scipy.special import erfcx

    by_quad, err = quad(lambda u: math.sqrt(1.0 + a * u) * math.exp(-u),
                        0.0, math.inf, epsabs=1e-12, epsrel=1e-12)
    closed = 1.0 + 0.5 * math.sqrt(a * math.pi) * float(erfcx(1.0 / math.sqrt(a)))
    if abs(by_quad - closed) > 1e-8:
        raise AssertionError(
            f"integral routes disagree at a={a}: {by_quad} vs {closed}")
    return closed
