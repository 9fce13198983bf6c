"""Band enumeration and eigenvalue counting.

A band collects the Laplace modes with frequency mu in (lambda, lambda+1].
The interval convention is half-open exactly: mu = lambda excluded,
mu = lambda + 1 included. The zero mode is excluded everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import FLAT_TORUS, SPHERE2, ManifoldModel

__all__ = [
    "Mode",
    "Band",
    "k_lambda",
    "torus_frequencies",
    "band_terms",
    "enumerate_band",
    "eigenvalue_count",
    "mean_frequency",
]


@dataclass(frozen=True)
class Mode:
    """One real eigenfunction label.

    Sphere label: (l, m) with m in -l..l. Torus label: (k, flavor) with k a
    lattice tuple from the fixed half-space (first nonzero component
    positive) and flavor "cos" or "sin".
    """

    mu: float
    label: tuple


@dataclass(frozen=True)
class Band:
    lam: float
    modes: tuple[Mode, ...]
    m_lambda: int
    k_lambda: float
    model: ManifoldModel


def k_lambda(m: int) -> float:
    """sqrt(2) Gamma((m+1)/2) / Gamma(m/2), evaluated through math.lgamma."""
    if m != int(m) or m < 1:
        raise ValueError(f"band dimension must be an integer >= 1, got {m}")
    m = int(m)
    return math.sqrt(2.0) * math.exp(math.lgamma((m + 1) / 2.0) - math.lgamma(m / 2.0))


def _sphere_degree_ceiling(lam: float) -> int:
    """Largest l with sqrt(l(l+1)) <= lam (0 if none)."""
    if lam < math.sqrt(2.0):
        return 0
    l = int((math.sqrt(1.0 + 4.0 * lam * lam) - 1.0) // 2)
    while (l + 1) * (l + 2) <= lam * lam:
        l += 1
    while l >= 1 and l * (l + 1) > lam * lam:
        l -= 1
    return l


def _torus_lattice(model: ManifoldModel, lo: float, hi: float) -> np.ndarray:
    """All nonzero lattice vectors k with lo < |2 pi k / L| <= hi.

    Only the shell is enumerated: for each prefix (k_1..k_{n-1}) inside the
    ball of radius hi, the last axis runs over the |k_n| interval that the
    shell bounds give, widened by one on each side, and the frequency test
    decides.
    """
    lo = max(lo, 0.0)
    *head, last = model.side_lengths
    axes = [np.arange(-k, k + 1) for k in
            (int(math.ceil(hi * L / (2.0 * math.pi))) for L in head)]
    prefix = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1) \
        if head else np.zeros((1, 0), dtype=int)
    # the frequency of (prefix, 0), a floor on that of every (prefix, k_n)
    p = _torus_mu(model, np.pad(prefix, ((0, 0), (0, 1))))
    prefix, p = prefix[p <= hi], p[p <= hi]
    per_unit = last / (2.0 * math.pi)
    k_lo = np.ceil(np.sqrt(np.maximum(0.0, lo * lo - p * p)) * per_unit) - 1
    k_hi = np.floor(np.sqrt(np.maximum(0.0, hi * hi - p * p)) * per_unit) + 1
    k_lo = np.maximum(k_lo, 0).astype(int)
    lengths = np.maximum(k_hi.astype(int) - k_lo + 1, 0)
    row = np.repeat(np.arange(len(prefix)), lengths)
    kn = k_lo[row] + np.arange(len(row)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # both signs of every nonzero |k_n|
    row = np.concatenate([row, row[kn > 0]])
    k = np.column_stack([prefix[row], np.concatenate([kn, -kn[kn > 0]])])
    mu = _torus_mu(model, k)
    return k[(mu > lo) & (mu <= hi)]


def torus_frequencies(model: ManifoldModel, k: np.ndarray) -> np.ndarray:
    """The torus lattice frequencies 2 pi k / L of the rows of k."""
    return 2.0 * math.pi * k / np.array(model.side_lengths)


def _torus_mu(model: ManifoldModel, k: np.ndarray) -> np.ndarray:
    freq = torus_frequencies(model, k)
    return np.sqrt(np.sum(freq * freq, axis=-1))


def _half_space(k: np.ndarray) -> np.ndarray:
    """Mask selecting one representative of each +-k pair."""
    mask = np.zeros(len(k), dtype=bool)
    undecided = np.ones(len(k), dtype=bool)
    for axis in range(k.shape[1]):
        col = k[:, axis]
        mask |= undecided & (col > 0)
        undecided &= col == 0
    return mask


def band_terms(model: ManifoldModel, lo: float, hi: float) -> np.ndarray:
    """The spectrum's terms with frequency mu in (lo, hi].

    Sphere: the degrees l, ascending. Torus: one lattice vector k per +-k
    pair, from the half-space whose first nonzero component is positive,
    as rows in lexicographic order.
    """
    if model.kind == SPHERE2:
        first = max(1, _sphere_degree_ceiling(lo) - 1)
        last = _sphere_degree_ceiling(hi) + 1
        return np.array([l for l in range(first, last + 1)
                         if lo < math.sqrt(l * (l + 1.0)) <= hi], dtype=int)
    if model.kind == FLAT_TORUS:
        lattice = _torus_lattice(model, lo, hi)
        reps = lattice[_half_space(lattice)]
        return reps[np.lexsort(reps.T[::-1])]
    raise ValueError(f"unknown manifold kind {model.kind!r}")


def enumerate_band(model: ManifoldModel, lam: float) -> Band:
    """All modes with mu in (lam, lam+1], in a deterministic order."""
    if not (lam >= 0):
        raise ValueError(f"band parameter must be >= 0, got {lam}")
    terms = band_terms(model, lam, lam + 1.0)
    modes: list[Mode] = []
    if model.kind == SPHERE2:
        for l in terms.tolist():
            mu = math.sqrt(l * (l + 1.0))
            for m in range(-l, l + 1):
                modes.append(Mode(mu=mu, label=(l, m)))
    else:
        for k, mu in zip(terms.tolist(), _torus_mu(model, terms).tolist()):
            for flavor in ("cos", "sin"):
                modes.append(Mode(mu=mu, label=(tuple(k), flavor)))
    mcount = len(modes)
    return Band(lam=float(lam), modes=tuple(modes), m_lambda=mcount,
                k_lambda=k_lambda(mcount) if mcount else float("nan"),
                model=model)


def eigenvalue_count(model: ManifoldModel, lam: float) -> int:
    """N(lam): modes with mu in (0, lam], counted with multiplicity."""
    if not (lam >= 0):
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if model.kind == SPHERE2:
        l = _sphere_degree_ceiling(lam)
        return l * (l + 2)
    return len(_torus_lattice(model, 0.0, lam))


def mean_frequency(band: Band) -> float:
    """Mean frequency of the band's modes, the lambda-bar of radial profiles."""
    if band.m_lambda == 0:
        raise ValueError("empty band has no mean frequency")
    return float(np.mean([mode.mu for mode in band.modes]))
