"""Double precision special functions used everywhere else.

Weighted sums of Legendre polynomials, and the radial kernel profiles
Lambda_n with Lambda_n(0) = 1. Both functions are pure and take scalars or
ndarrays. The associated Legendre values of the sphere basis climb their
own recurrence in basis.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "legendre_weighted_sum",
    "radial_profile",
]


def _check_t(t):
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < -1.0) or np.any(arr > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    return arr


def legendre_weighted_sum(weights, t):
    """sum_l weights[l] * P_l(t) in one upward pass.

    weights indexes degrees 0..L; t scalar or ndarray in [-1, 1]. The
    recurrence runs in three rotating buffers, in the operation order of
    ((2k+1) t p - k p_prev) / (k+1); zero weights add nothing and are skipped.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a nonempty 1-d array")
    arr = _check_t(t)
    p_prev = np.ones_like(arr)
    acc = weights[0] * p_prev
    if weights.size > 1:
        p = arr.copy()
        acc = acc + weights[1] * p
        nxt = np.empty_like(arr)
        for k in range(1, weights.size - 1):
            np.multiply(arr, 2 * k + 1, out=nxt)
            nxt *= p
            p_prev *= k
            nxt -= p_prev
            nxt /= k + 1
            p_prev, p, nxt = p, nxt, p_prev
            if weights[k + 1] != 0.0:
                acc += weights[k + 1] * p
    return float(acc) if arr.ndim == 0 else acc


def _bessel_j0(x):
    """J_0(x) = (1/pi) int_0^pi cos(x sin t) dt by the midpoint rule.

    The integrand has period pi, so the rule on n nodes errs by
    2 sum_q (-1)^q J_{2qn}(x); with n = 32 + ceil(max x) those terms are
    below rounding. Nodes are added one at a time, so memory stays O(len(x)).
    """
    n = 32 + math.ceil(x.max(initial=0.0))
    total = np.zeros_like(x)
    for j in range(n):
        total += np.cos(x * math.sin((j + 0.5) * math.pi / n))
    return total / n


def radial_profile(n: int, r):
    """Normalized radial kernel profile Lambda_n(r) with Lambda_n(0) = 1.

    n=1: cos r. n=2: J_0(r) from Bessel's integral. n=3: sin(r)/r.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"radial_profile supports n in {{1, 2, 3}}, got {n}")
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("radius must be finite and nonnegative")
    shaped = np.atleast_1d(arr).astype(float)
    if n == 1:
        out = np.cos(shaped)
    elif n == 2:
        out = _bessel_j0(shaped)
    else:
        out = np.sinc(shaped / math.pi)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
