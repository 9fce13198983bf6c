"""End-to-end verification suite.

Each criterion is a study with a fixed seed, an explicit tolerance, and
a runtime budget. Criteria 1, 3-5 and 7-11 are CLI studies at a fixed
config: they call ``cli.run`` and read their verdict and numbers from the
report's rows, summary and flags, so each study has one implementation.
Criteria 2, 6 and 12 have no CLI study and compute here. run_all
executes them in order; the CLI's verify subcommand and the test suite
both call into this module so there is exactly one definition of "the
package works".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import basis as bs
from . import cli
from . import embed as em
from . import manifold as mf
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


def _study(subcommand: str, **config):
    """The CLI study's report and its rows as dicts keyed by the CSV header."""
    report, header, rows = cli.run(subcommand, cli.ExperimentConfig(**config))
    return report, [dict(zip(header, row)) for row in rows]


def _crit_1():
    """Kernel diagonal and eigenvalue count follow the n-th power growth law."""
    _, rows = _study("weyl", lam=60.0, samples=10)
    worst = max(abs(r["deviation"]) for r in rows if r["quantity"] != "count")
    _, rows = _study("weyl", kind="torus", lam=50.0, samples=1)
    count_dev = abs(next(r["deviation"] for r in rows if r["quantity"] == "count"))
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
            X = mf.uniform_sample_rows(model, rng, 1000)
            Y = mf.uniform_sample_rows(model, rng, 1000)
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
    report, _ = _study("profile", lam=200.0)
    s = report.summary
    return (all(report.flags.values()),
            f"sup |measured^2 - reference^2| = {s['sup_sq_deviation']:.2e} "
            f"(tol {s['tolerance']:.2e})")


def _crit_4():
    """Distance-over-geodesic ratio scan is stable and bounds fresh pairs."""
    report, rows = _study("lipschitz", lams=(30.0, 60.0), pairs=10000, seed=104)
    scans = [r["scan_max_ratio"] for r in rows]
    spread = max(scans) / min(scans) - 1.0
    ok = all(report.flags.values()) and spread <= 0.25
    return ok, ("; ".join(f"lam={r['lam']:g}: scan {r['scan_max_ratio']:.4f}, "
                          f"fresh {r['fresh_max_ratio']:.4f}" for r in rows)
                + f"; spread {spread:.3f} (tol 0.25)")


def _crit_5():
    """Pullback metric is a near-isometric multiple of the round metric."""
    report, _ = _study("isometry", lam=60.0, samples=10, seed=105)
    s = report.summary
    return all(report.flags.values()), (
        f"c/oracle in [{s['ratio_min']:.5f}, {s['ratio_max']:.5f}] "
        f"(window [0.95, 1.05]), max route dev {s['max_path_dev']:.2e} (tol 1e-5)")


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
        for _ in range(10):
            x = mf.uniform_sample(sphere, rng)
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
    sphere, sphere_rows = _study("diameter", lams=(20.0, 40.0))
    torus, torus_rows = _study("diameter", kind="torus", lam=40.0, substrate=250000)
    details = [f"sphere lam={r['lam']:g}: {r['diameter']:.5f} (window (0.1, 0.6142])"
               for r in sphere_rows]
    r = torus_rows[0]
    details.append(f"torus lam=40: {r['diameter']:.5f} vs flat reference "
                   f"{r['flat_reference']:.5f}, rel dev {abs(r['rel_deviation']):.3f} "
                   f"(tol 0.15)")
    return all(sphere.flags.values()) and all(torus.flags.values()), "; ".join(details)


def _crit_8():
    """Geodesic nets respect the closed-form bound; band nets recover dim."""
    report, rows = _study("covering", lam=9.0, substrate=12000)
    details = [f"N_g({r['epsilon']:g})={r['net_size']} <= {r['lp_bound']:.1f}"
               for r in rows if r["distance"] == "d_g"]
    details.append(f"band-net slope {report.summary['dlambda_slope']:.3f} "
                   f"(window 2 +- 0.3)")
    return all(report.flags.values()), "; ".join(details)


def _crit_9():
    """Expected wave sup sits below the entropy integral and closed bound."""
    report, _ = _study("dudley", lam=40.0, substrate=12000, eps_min=0.2,
                       eps_count=8, samples=200, grid_density=8.0, seed=109)
    s = report.summary
    return all(report.flags.values()), (
        f"E[sup] {s['mean_sup_signed']:.4f} <= entropy integral "
        f"{s['dudley_bound']:.4f} and <= closed form {s['sup_bound_general']:.4f}; "
        f"E|sup| {s['mean_sup_abs']:.4f} <= {s['abs_limit']:.4f}")


def _crit_10():
    """Sup-norm growth is sqrt-log flat and far below the closed bound."""
    _, rows = _study("supnorm", lams=(20.0, 40.0, 80.0), samples=200,
                     grid_density=10.0, seed=110)
    ratios = [r["ratio_vs_sqrt_log"] for r in rows]
    coeff = 16.0 / math.sqrt(math.pi)
    spread = max(ratios) / min(ratios) - 1.0
    ok = max(ratios) <= coeff / 3.0 and spread <= 0.30
    return ok, ("; ".join(f"lam={r['lam']:g}: ratio {r['ratio_vs_sqrt_log']:.4f}"
                          for r in rows)
                + f"; bound coeff {coeff:.3f} (need 3x margin), spread {spread:.3f} (tol 0.30)")


def _crit_11():
    """Small-parameter integral identity holds with the stated slack."""
    report, rows = _study("claim")
    worst = max(0.0, *(r["abs_minus_one"] - r["half_a"] for r in rows))
    return all(report.flags.values()), f"max(|I(a)-1| - a/2) = {worst:.2e} (needs <= 0)"


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
    X = mf.uniform_sample_rows(torus, rng, 20)
    Y = mf.uniform_sample_rows(torus, rng, 20)
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


def run_all() -> list[CriterionResult]:
    return [run_criterion(i) for i, *_ in CRITERIA]
