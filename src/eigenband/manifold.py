"""Geometry providers: the round unit 2-sphere and flat rectangular tori.

Sphere points are unit 3-vectors (no chart singularities); torus points are
n-vectors reduced mod the side lengths. Gradients elsewhere are expressed in
the per-point orthonormal tangent frame returned by tangent_frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPHERE2 = "sphere2"
FLAT_TORUS = "flat_torus"

__all__ = [
    "SPHERE2",
    "FLAT_TORUS",
    "WeylConstants",
    "Point",
    "ManifoldModel",
    "sphere2",
    "flat_torus",
    "make_point",
    "check_point",
    "weyl_constants",
    "sphere_cosines",
    "geodesic_rows",
    "geodesic_distance",
    "GeodesicDistance",
    "uniform_sample",
    "uniform_sample_rows",
    "quasi_uniform_grid",
    "grid_coords",
    "product_grid",
    "product_grid_nodes",
    "torus_axis_counts",
    "tangent_frame",
    "tangent_frame_rows",
    "exp_map",
    "exp_map_rows",
    "log_map",
    "geodesic_waypoints",
]


@dataclass(frozen=True)
class WeylConstants:
    """omega_n, alpha_n = omega_n/(2 pi)^n, and s_{n-1} for dimension n."""

    omega_n: float
    alpha_n: float
    sphere_area: float


@dataclass(frozen=True, eq=False)
class Point:
    """Canonical coordinates: unit 3-vector (sphere) or reduced n-vector (torus)."""

    coords: np.ndarray


@dataclass(frozen=True)
class ManifoldModel:
    kind: str
    dim: int
    side_lengths: tuple[float, ...]
    volume: float
    injectivity_radius: float
    curvature_sup: float


def sphere2() -> ManifoldModel:
    """The round unit sphere S^2."""
    return ManifoldModel(kind=SPHERE2, dim=2, side_lengths=(),
                         volume=4.0 * math.pi, injectivity_radius=math.pi,
                         curvature_sup=1.0)


def flat_torus(side_lengths) -> ManifoldModel:
    """Flat torus R^n / (L_1 Z x ... x L_n Z), n in {1, 2, 3}."""
    sides = tuple(float(L) for L in side_lengths)
    if not 1 <= len(sides) <= 3:
        raise ValueError(f"torus dimension must be 1..3, got {len(sides)}")
    if any(not math.isfinite(L) or L <= 0 for L in sides):
        raise ValueError(f"side lengths must be positive, got {sides}")
    vol = math.prod(sides)
    return ManifoldModel(kind=FLAT_TORUS, dim=len(sides), side_lengths=sides,
                         volume=vol, injectivity_radius=min(sides) / 2.0,
                         curvature_sup=0.0)


def weyl_constants(model: ManifoldModel) -> WeylConstants:
    n = model.dim
    omega = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return WeylConstants(omega_n=omega, alpha_n=omega / (2.0 * math.pi) ** n,
                         sphere_area=n * omega)


def make_point(model: ManifoldModel, coords) -> Point:
    """Canonicalize raw coordinates into a Point of the model."""
    c = np.asarray(coords, dtype=float).reshape(-1)
    if model.kind == SPHERE2:
        if c.shape != (3,):
            raise ValueError(f"sphere point needs 3 coordinates, got {c.shape}")
        nrm = float(np.linalg.norm(c))
        if not nrm > 0:
            raise ValueError("cannot normalize the zero vector to the sphere")
        return Point(c / nrm)
    if c.shape != (model.dim,):
        raise ValueError(f"torus point needs {model.dim} coordinates, got {c.shape}")
    L = np.array(model.side_lengths)
    return Point(np.mod(c, L))


def check_point(model: ManifoldModel, x: Point) -> np.ndarray:
    """Validate a point against the model; returns its coords."""
    c = np.asarray(x.coords, dtype=float)
    if model.kind == SPHERE2:
        if c.shape != (3,) or abs(float(np.linalg.norm(c)) - 1.0) > 1e-9:
            raise ValueError("not a unit 3-vector sphere point")
    else:
        if c.shape != (model.dim,):
            raise ValueError(f"point dimension {c.shape} does not match torus dim {model.dim}")
        L = np.array(model.side_lengths)
        if np.any(c < -1e-12) or np.any(c >= L + 1e-12):
            raise ValueError("torus coordinates outside the fundamental domain")
    return c


def _torus_delta(model: ManifoldModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal-image displacement a - b, per axis in [-L/2, L/2]."""
    L = np.array(model.side_lengths)
    d = np.mod(a - b, L)
    return np.where(d > 0.5 * L, d - L, d)


def sphere_cosines(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Inner products of unit vectors clipped to [-1, 1]: one point X against
    the rows of Y, or two stacks row by row. One point takes a matrix-vector
    product; on a 12k-point substrate a row-wise sum is over 10x slower."""
    dots = Y @ X if X.ndim == 1 else np.sum(X * Y, axis=1)
    return np.clip(dots, -1.0, 1.0)


def geodesic_rows(model: ManifoldModel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Geodesic distances between coordinate rows, shaped as sphere_cosines."""
    if model.kind == SPHERE2:
        return np.arccos(sphere_cosines(X, Y))
    d = _torus_delta(model, X, Y)
    return np.sqrt(np.sum(d * d, axis=-1))


def geodesic_distance(model: ManifoldModel, x: Point, y: Point) -> float:
    xc, yc = check_point(model, x), check_point(model, y)
    return float(geodesic_rows(model, xc, yc[None, :])[0])


class GeodesicDistance:
    """Geodesic distance for net builders: geodesic_rows of the model."""

    name = "d_g"

    def __init__(self, model: ManifoldModel):
        self.model = model

    def rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return geodesic_rows(self.model, X, Y)


def uniform_sample(model: ManifoldModel, stream: np.random.Generator) -> Point:
    """One draw from the normalized Riemannian volume measure."""
    return Point(uniform_sample_rows(model, stream, 1)[0])


def uniform_sample_rows(model: ManifoldModel, stream: np.random.Generator,
                        count: int) -> np.ndarray:
    """count successive uniform_sample draws from stream, as coordinate rows."""
    if model.kind != SPHERE2:
        return stream.uniform(0.0, 1.0, size=(count, model.dim)) * np.array(model.side_lengths)
    rows = np.empty((count, 3))
    for row in rows:
        v = stream.standard_normal(3)
        while float(np.linalg.norm(v)) < 1e-12:
            v = stream.standard_normal(3)
        row[:] = v / np.linalg.norm(v)
    return rows


def _fibonacci_coords(count: int) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def torus_axis_counts(model: ManifoldModel, count_hint: int) -> list[int]:
    """Per-axis node counts of the torus grid_coords grid: proportional to
    the side lengths, with product at least count_hint."""
    h = (model.volume / count_hint) ** (1.0 / model.dim)
    counts = [max(1, math.ceil(L / h - 1e-9)) for L in model.side_lengths]
    while math.prod(counts) < count_hint:
        counts[int(np.argmax(model.side_lengths))] += 1
    return counts


def grid_coords(model: ManifoldModel, count_hint: int) -> np.ndarray:
    """Coordinate matrix of the quasi-uniform grid (rows are points)."""
    if count_hint < 1:
        raise ValueError(f"count_hint must be >= 1, got {count_hint}")
    if model.kind == SPHERE2:
        return _fibonacci_coords(count_hint)
    return product_grid(model, torus_axis_counts(model, count_hint))


def product_grid(model: ManifoldModel, counts) -> np.ndarray:
    """Torus grid with counts[i] equispaced nodes on axis i, rows in C order."""
    return product_grid_nodes(model, counts, np.arange(math.prod(counts)))


def product_grid_nodes(model: ManifoldModel, counts, index) -> np.ndarray:
    """Coordinates of the product_grid nodes at the flat C-order index."""
    spacing = np.array(model.side_lengths) / np.array(counts)
    return np.stack(np.unravel_index(index, tuple(counts)), axis=-1) * spacing


def quasi_uniform_grid(model: ManifoldModel, count_hint: int) -> list[Point]:
    """Fibonacci spiral on the sphere (exactly count_hint points); product
    grid on the torus with per-axis counts proportional to L_i, total >=
    count_hint."""
    return [Point(c) for c in grid_coords(model, count_hint)]


def tangent_frame(model: ManifoldModel, x: Point) -> np.ndarray:
    """Rows are an orthonormal basis of T_x M in ambient coordinates.

    Sphere: deterministic frame from the coordinate axis least aligned
    with x. Torus: the standard basis.
    """
    return tangent_frame_rows(model, check_point(model, x)[None, :])[0]


def tangent_frame_rows(model: ManifoldModel, X: np.ndarray) -> np.ndarray:
    """tangent_frame of every coordinate row of X: (points, dim, ambient)."""
    if model.kind != SPHERE2:
        return np.tile(np.eye(model.dim), (len(X), 1, 1))
    rows = np.arange(len(X))
    k = np.argmin(np.abs(X), axis=1)
    e1 = -X[rows, k][:, None] * X
    e1[rows, k] += 1.0
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return np.stack([e1, np.cross(X, e1)], axis=1)


def exp_map(model: ManifoldModel, x: Point, v: np.ndarray) -> Point:
    """Geodesic exponential; v has components in the tangent_frame rows."""
    xc = check_point(model, x)
    v = np.asarray(v, dtype=float)
    if v.shape != (model.dim,):
        raise ValueError(f"tangent vector needs {model.dim} components, got {v.shape}")
    return Point(exp_map_rows(model, xc[None, :], v[None, :])[0])


def exp_map_rows(model: ManifoldModel, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """exp_map from each coordinate row of X along the matching row of V."""
    if model.kind != SPHERE2:
        return np.mod(X + V, np.array(model.side_lengths))
    W = np.einsum("pi,pia->pa", V, tangent_frame_rows(model, X))
    r = np.linalg.norm(W, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        moved = np.cos(r) * X + np.sin(r) * (W / r)
    return np.where(r < 1e-300, X, moved)


def log_map(model: ManifoldModel, x: Point, y: Point) -> np.ndarray:
    """Inverse of exp_map at x; components in the tangent_frame rows.

    Sphere: undefined at the antipode (raises within 1e-9 of it).
    """
    xc = check_point(model, x)
    yc = check_point(model, y)
    if model.kind != SPHERE2:
        return _torus_delta(model, yc, xc)
    c = float(np.clip(xc @ yc, -1.0, 1.0))
    theta = math.acos(c)
    if theta > math.pi - 1e-9:
        raise ValueError("log_map undefined near the antipode")
    w = yc - c * xc
    nw = float(np.linalg.norm(w))
    if nw < 1e-300:
        return np.zeros(2)
    return tangent_frame(model, x) @ (w * (theta / nw))


def geodesic_waypoints(model: ManifoldModel, x: Point, y: Point, segments: int) -> list[Point]:
    """segments+1 points along the minimizing geodesic from x to y.

    Sphere: slerp (rejects near-antipodal endpoints, where the minimizer
    is not unique). Torus: straight line through the minimal image.
    """
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    xc = check_point(model, x)
    yc = check_point(model, y)
    ts = np.linspace(0.0, 1.0, segments + 1)
    if model.kind == SPHERE2:
        c = float(np.clip(xc @ yc, -1.0, 1.0))
        theta = math.acos(c)
        if theta > math.pi - 1e-9:
            raise ValueError("geodesic not unique near the antipode")
        if theta < 1e-300:
            return [Point(xc.copy()) for _ in ts]
        s = math.sin(theta)
        return [make_point(model, (math.sin((1.0 - t) * theta) * xc
                                   + math.sin(t * theta) * yc) / s) for t in ts]
    delta = _torus_delta(model, yc, xc)
    return [make_point(model, xc + t * delta) for t in ts]
