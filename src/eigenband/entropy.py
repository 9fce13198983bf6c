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
# fewest centers of a curve entry in fit_exponent's scaling window
_FIT_MIN_CENTERS = 16

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
    """Entropy integral value and its tail's fitted exponent (nan without a fit)."""

    bound: float
    half_diameter: float
    tail_exponent: float


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


def fit_exponent(curve: CoveringCurve, n_max: int | None = None) -> float:
    """Log-log slope of net size against 1/epsilon over the scaling window.

    Entries with fewer than _FIT_MIN_CENTERS centers sit in the few-ball
    regime and entries above n_max are resolution-limited by the substrate
    (pass substrate_size // 4 or so); both are excluded from the fit. nan
    when fewer than two entries survive.
    """
    pts = [(e, n) for e, n in curve.entries
           if n >= _FIT_MIN_CENTERS and (n_max is None or n <= n_max)]
    if len(pts) < 2 or len({n for _, n in pts}) < 2:
        return math.nan
    le = np.log([1.0 / e for e, _ in pts])
    ln = np.log([float(n) for _, n in pts])
    return float(np.polyfit(le, ln, 1)[0])


def _tail_fit(eps: np.ndarray, counts: np.ndarray, eps0: float):
    """(scale, exponent) of the power law (scale / eps)^exponent through the
    smallest useful entries, or None unless it gives over one ball at eps0."""
    mask = counts > 1
    e = eps[mask][:_TAIL_FIT_POINTS]
    n = counts[mask][:_TAIL_FIT_POINTS]
    if len(set(n.tolist())) < 2:  # also when fewer than two entries pass the mask
        return None
    slope, intercept = np.polyfit(np.log(e), np.log(n), 1)
    exponent = -float(slope)
    if exponent < 0.1:
        return None
    scale = math.exp(float(intercept)) ** (1.0 / exponent)
    return (scale, exponent) if scale / eps0 > 1.0 else None


def dudley_report(curve: CoveringCurve) -> DudleyReport:
    """8 sqrt(2) * integral of sqrt(ln N(eps)) over (0, half diameter].

    Trapezoid over the tabulated entries; below the finest epsilon the
    fitted power law closes the integrable sqrt-log singularity in closed
    form via the regularized upper incomplete gamma function
    Q(3/2, u) = erfc(sqrt u) + 2 sqrt(u/pi) e^-u.
    """
    if not curve.entries:
        raise ValueError("covering curve is empty")
    half_d = curve.diameter / 2.0
    eps = np.array([e for e, _ in curve.entries], dtype=float)
    counts = np.array([n for _, n in curve.entries], dtype=float)
    idx = np.argsort(eps)
    eps, counts = eps[idx], counts[idx]
    if counts.max() <= 1 or half_d <= 0:
        return DudleyReport(bound=0.0, half_diameter=half_d, tail_exponent=math.nan)
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
    fit = _tail_fit(eps, counts, eps0)
    if fit is None:
        # no usable fit: freeze the count at the finest epsilon
        tail, tail_exp = eps0 * float(fs[0]), math.nan
    else:
        scale, tail_exp = fit
        u0 = math.log(scale / eps0)
        q = math.erfc(math.sqrt(u0)) + 2.0 * math.sqrt(u0 / math.pi) * math.exp(-u0)
        tail = math.sqrt(tail_exp) * scale * (math.sqrt(math.pi) / 2.0) * q
    return DudleyReport(bound=DUDLEY_CONSTANT * (trap + tail), half_diameter=half_d,
                        tail_exponent=tail_exp)


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


def _erfcx(x: float) -> float:
    """exp(x^2) erfc(x) for x > 0, from 8 on by 20 terms of its asymptotic series."""
    if x < 8.0:
        # exp(x^2) takes back the rounding of x*x, found exactly from halves of x (Dekker)
        xx = x * x
        head = x * 134217729.0 - (x * 134217729.0 - x)
        tail = x - head
        low = ((head * head - xx) + 2.0 * head * tail) + tail * tail
        return math.exp(xx) * (1.0 + low) * math.erfc(x)
    q = 0.5 / (x * x)
    term = total = 1.0
    for n in range(1, 20):
        term *= -(2 * n - 1) * q
        total += term
    return total / (x * math.sqrt(math.pi))


def claim_integral(a: float) -> float:
    """I(a) = integral over (0,1] of sqrt(1 - a ln x) dx, two ways.

    The exp-sinh rule of Takahasi & Mori (1974), u = -ln x = exp(pi/2 sinh t)
    with step 1/16 over t in [-4, 4], is checked against the closed form
    1 + sqrt(a pi)/2 * erfcx(1/sqrt(a)) to 1e-8 of max(1, sqrt(a)), which
    is returned. hypot(1, sqrt(a) sqrt(u)) = sqrt(1 + a u) never overflows.
    """
    if not 0 < a * math.pi < math.inf:
        raise ValueError(f"a must be positive with a*pi finite, got {a}")
    t = np.arange(-64, 65) / 16.0
    u = np.exp(0.5 * math.pi * np.sinh(t))
    weights = u * np.exp(-u) * (0.5 * math.pi / 16.0) * np.cosh(t)
    by_rule = float(weights @ np.hypot(1.0, math.sqrt(a) * np.sqrt(u)))
    closed = 1.0 + 0.5 * math.sqrt(a * math.pi) * _erfcx(1.0 / math.sqrt(a))
    if abs(by_rule - closed) > 1e-8 * max(1.0, math.sqrt(a)):
        raise AssertionError(
            f"integral routes disagree at a={a}: {by_rule} vs {closed}")
    return closed
