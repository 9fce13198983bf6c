"""End-to-end verification suite.

Each criterion is a self-contained study with a fixed seed, an explicit
tolerance, and a runtime budget. run_all executes them in order; the
CLI's verify subcommand and the test suite both call into this module so
there is exactly one definition of "the package works".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import basis as bs
from . import embed as em
from . import entropy as en
from . import manifold as mf
from . import spectrum as sp
from . import waves as wv

__all__ = ["CriterionResult", "run_all", "run_criterion", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    passed: bool
    detail: str
    seconds: float
    budget_s: float


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _sample_points(model, count, rng):
    return [mf.uniform_sample(model, rng) for _ in range(count)]


def _crit_1():
    """Kernel diagonal and eigenvalue count follow the n-th power growth law."""
    sphere = mf.sphere2()
    lam = 60.0
    pred = lam ** 2 / (4.0 * math.pi)
    rng = _rng(101)
    worst = 0.0
    for x in _sample_points(sphere, 10, rng):
        dev = abs(em.cumulative_kernel(sphere, lam, x, x) / pred - 1.0)
        worst = max(worst, dev)
    torus = mf.flat_torus((2.0 * math.pi, 2.0 * math.pi))
    count = sp.eigenvalue_count(torus, 50.0)
    count_dev = abs(count / (math.pi * 50.0 ** 2) - 1.0)
    ok = worst <= 0.01 and count_dev <= 0.02
    return ok, (f"sphere kernel diag dev {worst:.2e} (tol 1e-2), "
                f"torus count dev {count_dev:.2e} (tol 2e-2)")


def _crit_2():
    """Coordinate and kernel evaluations of the band distance coincide."""
    rng = _rng(102)
    worst = 0.0
    where = ""
    for model in (mf.sphere2(), mf.flat_torus((2.0 * math.pi, 1.5 * math.pi))):
        for lam in (9.0, 40.0):
            emb = em.make_embedding(model, lam)
            band = emb.band
            X = np.stack([mf.uniform_sample(model, rng).coords for _ in range(1000)])
            Y = np.stack([mf.uniform_sample(model, rng).coords for _ in range(1000)])
            VX = bs.mode_matrix(model, band.modes, X)
            VY = bs.mode_matrix(model, band.modes, Y)
            coord = np.linalg.norm(VX - VY, axis=1) / band.k_lambda
            kernel = em.CanonicalDistance(emb).rows(X, Y)
            dev = float(np.max(np.abs(coord - kernel)))
            if dev > worst:
                worst, where = dev, f"{model.kind} lam={lam:g}"
    return worst <= 1e-10, f"max |coordinate - kernel| = {worst:.2e} at {where} (tol 1e-10)"


def _crit_3():
    """Large-degree distance profile matches the Bessel reference curve."""
    sphere = mf.sphere2()
    emb = em.make_embedding(sphere, 200.0)
    degrees = {m.label[0] for m in emb.band.modes}
    assert degrees == {200}, degrees
    lam_bar = sp.mean_frequency(emb.band)
    r = np.linspace(0.0, 10.0 / lam_bar, 201)
    pts = em.distance_profile(emb, r)
    scale = 2.0 / sphere.volume
    sup = max(abs(p.measured ** 2 - p.reference ** 2) for p in pts)
    tol = 0.02 * scale
    return sup <= tol, f"sup |measured^2 - reference^2| = {sup:.2e} (tol {tol:.2e})"


def _crit_4():
    """Distance-over-geodesic ratio scan is stable and bounds fresh pairs."""
    sphere = mf.sphere2()
    scans = {}
    fresh_ok = True
    detail = []
    for i, lam in enumerate((30.0, 60.0)):
        emb = em.make_embedding(sphere, lam)
        scans[lam] = em.lipschitz_scan(emb, 4000, _rng(400 + i))
        rng = _rng(410 + i)
        X = np.stack([mf.uniform_sample(sphere, rng).coords for _ in range(10000)])
        Y = np.stack([mf.uniform_sample(sphere, rng).coords for _ in range(10000)])
        dl = em.CanonicalDistance(emb).rows(X, Y)
        dg = mf.geodesic_rows(sphere, X, Y)
        keep = dg > 1e-12
        fresh = float(np.max(dl[keep] / (lam * dg[keep])))
        fresh_ok = fresh_ok and fresh <= scans[lam]
        detail.append(f"lam={lam:g}: scan {scans[lam]:.4f}, fresh {fresh:.4f}")
    lo, hi = min(scans.values()), max(scans.values())
    stable = hi / lo - 1.0 <= 0.25
    return stable and fresh_ok, "; ".join(detail) + f"; spread {hi / lo - 1.0:.3f} (tol 0.25)"


def _crit_5():
    """Pullback metric is a near-isometric multiple of the round metric."""
    sphere = mf.sphere2()
    emb = em.make_embedding(sphere, 60.0)
    lam_bar = sp.mean_frequency(emb.band)
    oracle = lam_bar ** 2 / (2.0 * sphere.volume)
    rng = _rng(105)
    ratios, devs = [], []
    for x in _sample_points(sphere, 10, rng):
        g = em.pullback_metric(emb, x, method="gradient").matrix
        g_fd = em.pullback_metric(emb, x, method="kernel_fd").matrix
        c = float(np.trace(g)) / 2.0
        ratios.append(c / oracle)
        devs.append(float(np.max(np.abs(g_fd - g))) / abs(c))
    ok = all(0.95 <= r <= 1.05 for r in ratios) and max(devs) <= 1e-5
    return ok, (f"c/oracle in [{min(ratios):.5f}, {max(ratios):.5f}] "
                f"(window [0.95, 1.05]), max route dev {max(devs):.2e} (tol 1e-5)")


def _crit_6():
    """Antipodal pairs: even band collapses, odd band hits the closed form."""
    sphere = mf.sphere2()
    rng = _rng(106)
    worst_even = worst_odd = 0.0
    for lam, parity in ((10.0, "even"), (11.0, "odd")):
        emb = em.make_embedding(sphere, lam)
        l = emb.band.modes[0].label[0]
        assert {m.label[0] for m in emb.band.modes} == {l}
        analytic = 2.0 * math.sqrt((2 * l + 1) / (4.0 * math.pi)) / emb.band.k_lambda
        for x in _sample_points(sphere, 10, rng):
            d = em.dist_lambda(emb, x, mf.Point(-x.coords))
            if parity == "even":
                worst_even = max(worst_even, d)
            else:
                worst_odd = max(worst_odd, abs(d - analytic))
    ok = worst_even <= 1e-10 and worst_odd <= 1e-10
    return ok, (f"even-band antipodal distance {worst_even:.2e}, "
                f"odd-band closed-form deviation {worst_odd:.2e} (tol 1e-10)")


def _crit_7():
    """Embedded diameter lands in the flat-limit window on both models."""
    sphere = mf.sphere2()
    details = []
    ok = True
    hi = 2.0 / math.sqrt(sphere.volume) + 0.05
    for lam in (20.0, 40.0):
        emb = em.make_embedding(sphere, lam)
        d = em.diameter_estimate(emb, 4000)
        ok = ok and 0.1 < d <= hi
        details.append(f"sphere lam={lam:g}: {d:.5f} (window (0.1, {hi:.4f}])")
    torus = mf.flat_torus((2.0 * math.pi, 2.0 * math.pi))
    emb = em.make_embedding(torus, 40.0)
    d = em.diameter_estimate(emb, 250000)
    ref = math.sqrt(2.0) / math.sqrt(torus.volume)
    rel = abs(d / ref - 1.0)
    ok = ok and rel <= 0.15
    details.append(f"torus lam=40: {d:.5f} vs flat reference {ref:.5f}, "
                   f"rel dev {rel:.3f} (tol 0.15)")
    return ok, "; ".join(details)


def _crit_8():
    """Geodesic nets respect the closed-form bound; band nets recover dim."""
    sphere = mf.sphere2()
    substrate = mf.quasi_uniform_grid(sphere, 12000)
    dg = mf.GeodesicDistance(sphere)
    details = []
    ok = True
    for r in (0.2, 0.5, 1.0):
        n = len(en.greedy_net(substrate, dg, r).centers)
        bound = en.lp_covering_bound(sphere, r)
        ok = ok and n <= bound
        details.append(f"N_g({r:g})={n} <= {bound:.1f}")
    emb = em.make_embedding(sphere, 9.0)
    diam = em.diameter_estimate(emb, 4000)
    eps = list(np.geomspace(diam / 2.0, diam / 20.0, 12))
    curve = en.covering_curve(substrate, em.CanonicalDistance(emb), eps)
    slope = en.fit_exponent(curve, n_max=len(substrate) // 4)
    ok = ok and abs(slope - 2.0) <= 0.3
    details.append(f"band-net slope {slope:.3f} (window 2 +- 0.3)")
    return ok, "; ".join(details)


def _crit_9():
    """Expected wave sup sits below the entropy integral and closed bound."""
    sphere = mf.sphere2()
    lam = 40.0
    emb = em.make_embedding(sphere, lam)
    substrate = mf.quasi_uniform_grid(sphere, 12000)
    diam = em.diameter_estimate(emb, 4000)
    eps = list(np.geomspace(diam / 2.0, 0.2, 8))
    curve = en.covering_curve(substrate, em.CanonicalDistance(emb), eps)
    bound = en.dudley_bound(curve)
    signed = wv.expected_sup(sphere, lam, 200, 8.0, seed=109, statistic="max")
    absolute = wv.expected_sup(sphere, lam, 200, 8.0, seed=109, statistic="abs")
    closed = wv.sup_norm_bound(sphere, lam).general
    joint = 3.0 * math.hypot(2.0 * signed.std_error, absolute.std_error)
    ok = (signed.mean <= bound and signed.mean <= closed
          and absolute.mean <= 2.0 * signed.mean + joint)
    return ok, (f"E[sup] {signed.mean:.4f} <= entropy integral {bound:.4f} "
                f"and <= closed form {closed:.4f}; E|sup| {absolute.mean:.4f} "
                f"<= {2.0 * signed.mean + joint:.4f}")


def _crit_10():
    """Sup-norm growth is sqrt-log flat and far below the closed bound."""
    sphere = mf.sphere2()
    ratios = {}
    details = []
    coeff = 16.0 / math.sqrt(math.pi)
    ok = True
    for lam in (20.0, 40.0, 80.0):
        est = wv.expected_sup(sphere, lam, 200, 10.0, seed=110)
        ratio = est.mean / math.sqrt(math.log(lam))
        ratios[lam] = ratio
        ok = ok and ratio <= coeff / 3.0
        details.append(f"lam={lam:g}: ratio {ratio:.4f}")
    spread = max(ratios.values()) / min(ratios.values()) - 1.0
    ok = ok and spread <= 0.30
    return ok, ("; ".join(details)
                + f"; bound coeff {coeff:.3f} (need 3x margin), spread {spread:.3f} (tol 0.30)")


def _crit_11():
    """Small-parameter integral identity holds with the stated slack."""
    worst = 0.0
    for a in (0.01, 0.05, 0.1, 0.2, 0.5):
        val = en.claim_integral(a)
        worst = max(worst, abs(val - 1.0) - a / 2.0)
    return worst <= 0.0, f"max(|I(a)-1| - a/2) = {worst:.2e} (needs <= 0)"


def _crit_12():
    """Sampled wave increments reproduce the canonical distance."""
    torus = mf.flat_torus((2.0 * math.pi, 2.0 * math.pi))
    lam = 20.0
    emb = em.make_embedding(torus, lam)
    band = emb.band
    n_waves = 2000
    A = np.stack([wv.sample_wave(band, 112, i).coefficients
                  for i in range(n_waves)], axis=1)
    rng = _rng(112)
    X = np.stack([mf.uniform_sample(torus, rng).coords for _ in range(20)])
    Y = np.stack([mf.uniform_sample(torus, rng).coords for _ in range(20)])
    VX = bs.mode_matrix(torus, band.modes, X) @ A
    VY = bs.mode_matrix(torus, band.modes, Y) @ A
    D = (VX - VY) ** 2
    worst_z = 0.0
    for i in range(20):
        mean_d = float(np.mean(D[i]))
        se_mean = float(np.std(D[i], ddof=1)) / math.sqrt(n_waves)
        d_hat = math.sqrt(mean_d)
        se_d = se_mean / (2.0 * d_hat) if d_hat > 0 else math.inf
        target = em.dist_lambda(emb, mf.Point(X[i]), mf.Point(Y[i]))
        worst_z = max(worst_z, abs(d_hat - target) / se_d)
    return worst_z <= 3.0, f"max |z| over 20 pairs = {worst_z:.2f} (tol 3)"


CRITERIA = (
    (1, "kernel diagonal growth law", 10.0, _crit_1),
    (2, "two-route distance identity", 30.0, _crit_2),
    (3, "large-degree Bessel profile", 60.0, _crit_3),
    (4, "ratio scan stability", 60.0, _crit_4),
    (5, "near-isometric pullback metric", 60.0, _crit_5),
    (6, "antipodal band parity", 30.0, _crit_6),
    (7, "embedded diameter window", 120.0, _crit_7),
    (8, "covering bounds and dimension recovery", 120.0, _crit_8),
    (9, "expected sup below entropy integral", 300.0, _crit_9),
    (10, "sqrt-log flat sup growth", 600.0, _crit_10),
    (11, "small-parameter integral identity", 1.0, _crit_11),
    (12, "wave increments match canonical distance", 120.0, _crit_12),
)


def run_criterion(index: int) -> CriterionResult:
    for idx, title, budget, fn in CRITERIA:
        if idx == index:
            t0 = time.perf_counter()
            passed, detail = fn()
            return CriterionResult(index=idx, title=title, passed=passed,
                                   detail=detail,
                                   seconds=time.perf_counter() - t0,
                                   budget_s=budget)
    raise ValueError(f"no criterion {index}")


def run_all(only=None) -> list[CriterionResult]:
    wanted = set(only) if only is not None else {i for i, *_ in CRITERIA}
    return [run_criterion(i) for i, *_ in CRITERIA if i in wanted]
