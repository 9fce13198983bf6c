"""Experiment driver.

Each subcommand reruns one numerical study end to end and drops a CSV
table plus a JSON summary into the output directory. Given the same
config and seed the CSV bytes are identical run to run; wall-clock time
lives only in the JSON. The workers setting is accepted for compatibility
and has no effect.

Exit codes: 0 ok, 2 bad config or usage, 3 verify found a failing
criterion, 4 could not write output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import embed as em
from . import entropy as en
from . import manifold as mf
from . import spectrum as sp
from . import waves as wv

__all__ = ["ExperimentConfig", "Report", "run", "emit_report", "main"]

SUBCOMMANDS = ("weyl", "band", "lipschitz", "profile", "isometry", "supnorm",
               "dudley", "diameter", "covering", "claim", "verify")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_IO = 4


@dataclass
class ExperimentConfig:
    kind: str = "sphere2"
    side_lengths: tuple = (2.0 * math.pi, 2.0 * math.pi)
    lam: float = 10.0
    lams: tuple = ()
    seed: int = 0
    samples: int = 50
    pairs: int = 1000
    grid_density: float = 6.0
    substrate: int = 4000
    eps_max: float = 0.0
    eps_min: float = 0.0
    eps_count: int = 12
    a_values: tuple = (0.01, 0.05, 0.1, 0.2, 0.5)
    out: str = "runs"
    workers: int = 0


@dataclass
class Report:
    experiment: str
    config: dict
    csv_path: str
    summary: dict
    flags: dict
    wall_clock_s: float


class ConfigError(ValueError):
    pass


def _load_config(path, overrides: dict) -> ExperimentConfig:
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold one JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    cfg = ExperimentConfig(**{k: v for k, v in raw.items() if k in known})
    cfg.side_lengths = tuple(float(s) for s in cfg.side_lengths)
    cfg.lams = tuple(float(l) for l in cfg.lams)
    cfg.a_values = tuple(float(a) for a in cfg.a_values)
    if cfg.kind not in ("sphere2", "torus"):
        raise ConfigError(f"unknown manifold kind {cfg.kind!r}")
    if cfg.lam <= 0 or any(l <= 0 for l in cfg.lams):
        raise ConfigError("lambda values must be positive")
    for name in ("samples", "pairs", "substrate", "eps_count"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    if cfg.grid_density < 1:
        raise ConfigError("grid_density must be >= 1")
    if cfg.workers < 0:
        raise ConfigError("workers must be >= 0 (0 = auto)")
    return cfg


def _model(cfg: ExperimentConfig):
    if cfg.kind == "sphere2":
        return mf.sphere2()
    return mf.flat_torus(cfg.side_lengths)


def _lams(cfg: ExperimentConfig):
    return list(cfg.lams) if cfg.lams else [cfg.lam]


def _rng(cfg: ExperimentConfig, slot: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(slot,))
    return np.random.Generator(np.random.Philox(seq))


def _run_weyl(cfg: ExperimentConfig):
    model = _model(cfg)
    alpha = mf.weyl_constants(model).alpha_n
    rows = []
    worst = 0.0
    for lam in _lams(cfg):
        count = sp.eigenvalue_count(model, lam)
        pred = alpha * lam ** model.dim * model.volume
        dev = count / pred - 1.0
        rows.append((cfg.kind, lam, "count", count, pred, dev))
        worst = max(worst, abs(dev))
        rng = _rng(cfg, 1)
        diag_pred = pred / model.volume
        for i in range(cfg.samples):
            x = mf.uniform_sample(model, rng)
            e = em.cumulative_kernel(model, lam, x, x)
            rows.append((cfg.kind, lam, f"kernel_diag_{i}", e, diag_pred,
                         e / diag_pred - 1.0))
            worst = max(worst, abs(e / diag_pred - 1.0))
    header = ("model", "lam", "quantity", "value", "prediction", "deviation")
    return header, rows, {"max_abs_deviation": worst}, {}


def _run_band(cfg: ExperimentConfig):
    model = _model(cfg)
    rows = []
    for lam in _lams(cfg):
        band = sp.enumerate_band(model, lam)
        m = band.m_lambda
        rows.append((cfg.kind, lam, m, band.k_lambda,
                     band.k_lambda ** 2 / m if m else math.nan))
    header = ("model", "lam", "dim", "k_lambda", "k_sq_over_dim")
    return header, rows, {}, {}


def _run_lipschitz(cfg: ExperimentConfig):
    model = _model(cfg)
    rows = []
    flags = {}
    for li, lam in enumerate(_lams(cfg)):
        emb = em.make_embedding(model, lam)
        scan = em.lipschitz_scan(emb, cfg.pairs, _rng(cfg, 10 + 2 * li))
        rng = _rng(cfg, 11 + 2 * li)
        fresh = 0.0
        for _ in range(cfg.pairs):
            x = mf.uniform_sample(model, rng)
            y = mf.uniform_sample(model, rng)
            dg = mf.geodesic_distance(model, x, y)
            if dg < 1e-12:
                continue
            fresh = max(fresh, em.dist_lambda(emb, x, y) / (lam * dg))
        rows.append((cfg.kind, lam, scan, fresh))
        flags[f"fresh_below_scan_lam{lam:g}"] = bool(fresh <= scan)
    header = ("model", "lam", "scan_max_ratio", "fresh_max_ratio")
    return header, rows, {}, flags


def _run_profile(cfg: ExperimentConfig):
    model = _model(cfg)
    lam = cfg.lam
    emb = em.make_embedding(model, lam)
    lam_bar = sp.mean_frequency(emb.band)
    r_hi = min(10.0 / lam_bar, model.injectivity_radius)
    r_values = np.linspace(0.0, r_hi, 201)
    pts = em.distance_profile(emb, r_values)
    rows = [(r, lam_bar * r, p.measured, p.reference) for r, p in zip(r_values, pts)]
    scale = 2.0 / model.volume
    sup = max(abs(p.measured ** 2 - p.reference ** 2) for p in pts)
    tol = 0.02 * scale
    header = ("r", "scaled_r", "measured", "reference")
    return header, rows, {"sup_sq_deviation": sup, "tolerance": tol}, \
        {"profile_within_tolerance": bool(sup <= tol)}


def _run_isometry(cfg: ExperimentConfig):
    model = _model(cfg)
    lam = cfg.lam
    emb = em.make_embedding(model, lam)
    lam_bar = sp.mean_frequency(emb.band)
    oracle = lam_bar ** 2 / (2.0 * model.volume)
    rng = _rng(cfg, 20)
    rows = []
    ratios = []
    devs = []
    for i in range(cfg.samples):
        x = mf.uniform_sample(model, rng)
        g = em.pullback_metric(emb, x, method="gradient").matrix
        g_fd = em.pullback_metric(emb, x, method="kernel_fd").matrix
        c = float(np.trace(g)) / model.dim
        rel = float(np.max(np.abs(g_fd - g))) / abs(c)
        off = float(np.max(np.abs(g - c * np.eye(model.dim)))) / abs(c)
        rows.append((i, c, c / oracle, off, rel))
        ratios.append(c / oracle)
        devs.append(rel)
    header = ("point", "c_estimate", "c_over_oracle", "anisotropy", "path_rel_dev")
    flags = {"ratio_in_window": bool(all(0.95 <= r <= 1.05 for r in ratios)),
             "paths_agree_1e5": bool(max(devs) <= 1e-5)}
    return header, rows, {"ratio_min": min(ratios), "ratio_max": max(ratios),
                          "max_path_dev": max(devs)}, flags


def _run_supnorm(cfg: ExperimentConfig):
    model = _model(cfg)
    rows = []
    summary = {}
    flags = {}
    for lam in _lams(cfg):
        est = wv.expected_sup(model, lam, cfg.samples, cfg.grid_density,
                              cfg.seed)
        bound = wv.sup_norm_bound(model, lam)
        ratio = est.mean / math.sqrt(math.log(lam)) if lam > 1 else math.nan
        rows.append((cfg.kind, lam, est.mean, est.std_error, est.samples,
                     est.grid_points, bound.general, bound.aperiodic, ratio))
        summary[f"lam{lam:g}"] = {"mean": est.mean, "std_error": est.std_error,
                                  "sup_bound_general": bound.general,
                                  "sup_bound_aperiodic": bound.aperiodic}
        flags[f"below_sup_bound_lam{lam:g}"] = bool(est.mean <= bound.general)
    header = ("model", "lam", "mean_sup", "std_error", "samples", "grid_points",
              "sup_bound_general", "sup_bound_aperiodic", "ratio_vs_sqrt_log")
    return header, rows, summary, flags


def _run_dudley(cfg: ExperimentConfig):
    model = _model(cfg)
    lam = cfg.lam
    emb = em.make_embedding(model, lam)
    dist = em.CanonicalDistance(emb)
    substrate = mf.quasi_uniform_grid(model, cfg.substrate)
    eps_max = cfg.eps_max or em.diameter_estimate(emb, 4000) / 2.0
    eps_min = cfg.eps_min or eps_max / 24.0
    eps = list(np.geomspace(eps_max, eps_min, cfg.eps_count))
    curve = en.covering_curve(substrate, dist, eps)
    report = en.dudley_report(curve)
    signed = wv.expected_sup(model, lam, cfg.samples, cfg.grid_density,
                             cfg.seed, statistic="max")
    absolute = wv.expected_sup(model, lam, cfg.samples, cfg.grid_density,
                               cfg.seed, statistic="abs")
    bound = wv.sup_norm_bound(model, lam)
    rows = [(e, n) for e, n in curve.entries]
    header = ("epsilon", "net_size")
    joint_se = 3.0 * math.hypot(2.0 * signed.std_error, absolute.std_error)
    summary = {"dudley_bound": report.bound, "half_diameter": report.half_diameter,
               "tail_exponent": report.tail_exponent,
               "mean_sup_signed": signed.mean, "se_signed": signed.std_error,
               "mean_sup_abs": absolute.mean, "se_abs": absolute.std_error,
               "sup_bound_general": bound.general}
    flags = {"sup_below_dudley": bool(signed.mean <= report.bound),
             "sup_below_closed_form": bool(signed.mean <= bound.general),
             "abs_below_twice_signed": bool(
                 absolute.mean <= 2.0 * signed.mean + joint_se)}
    return header, rows, summary, flags


def _run_diameter(cfg: ExperimentConfig):
    model = _model(cfg)
    rows = []
    flags = {}
    reference = math.sqrt(2.0) / math.sqrt(model.volume)
    for lam in _lams(cfg):
        emb = em.make_embedding(model, lam)
        est = em.diameter_estimate(emb, cfg.substrate)
        rows.append((cfg.kind, lam, est, reference, est / reference - 1.0))
        if cfg.kind == "sphere2":
            hi = 2.0 / math.sqrt(model.volume) + 0.05
            flags[f"in_window_lam{lam:g}"] = bool(0.1 < est <= hi)
        else:
            flags[f"within_15pct_lam{lam:g}"] = bool(abs(est / reference - 1.0) <= 0.15)
    header = ("model", "lam", "diameter", "flat_reference", "rel_deviation")
    return header, rows, {"reference": reference}, flags


def _run_covering(cfg: ExperimentConfig):
    model = _model(cfg)
    substrate = mf.quasi_uniform_grid(model, cfg.substrate)
    dg = mf.GeodesicDistance(model)
    rows = []
    flags = {}
    for r in (0.2, 0.5, 1.0):
        net = en.greedy_net(substrate, dg, r)
        lp = en.lp_covering_bound(model, r)
        rows.append(("d_g", r, len(net.centers), lp))
        flags[f"lp_holds_r{r:g}"] = bool(len(net.centers) <= lp)
    emb = em.make_embedding(model, cfg.lam)
    dist = em.CanonicalDistance(emb)
    eps_max = cfg.eps_max or em.diameter_estimate(emb, 4000) / 2.0
    eps_min = cfg.eps_min or eps_max / 10.0
    eps = list(np.geomspace(eps_max, eps_min, cfg.eps_count))
    curve = en.covering_curve(substrate, dist, eps)
    for e, n in curve.entries:
        rows.append((curve.distance_id, e, n, math.nan))
    slope = en.fit_exponent(curve, n_max=len(substrate) // 4)
    flags["slope_matches_dim"] = bool(abs(slope - model.dim) <= 0.3)
    header = ("distance", "epsilon", "net_size", "lp_bound")
    return header, rows, {"dlambda_slope": slope}, flags


def _run_claim(cfg: ExperimentConfig):
    rows = []
    flags = {}
    for a in cfg.a_values:
        val = en.claim_integral(a)
        rows.append((a, val, abs(val - 1.0), a / 2.0))
        flags[f"bound_holds_a{a:g}"] = bool(abs(val - 1.0) <= a / 2.0)
    header = ("a", "integral", "abs_minus_one", "half_a")
    return header, rows, {}, flags


def _run_verify(cfg: ExperimentConfig):
    from . import acceptance

    results = acceptance.run_all()
    rows = [(r.index, r.title, "pass" if r.passed else "FAIL", r.detail)
            for r in results]
    flags = {f"criterion_{r.index}": r.passed for r in results}
    header = ("index", "title", "status", "detail")
    return header, rows, {"passed": sum(r.passed for r in results),
                          "total": len(results),
                          "seconds": {str(r.index): r.seconds for r in results}}, flags


_RUNNERS = {
    "weyl": _run_weyl,
    "band": _run_band,
    "lipschitz": _run_lipschitz,
    "profile": _run_profile,
    "isometry": _run_isometry,
    "supnorm": _run_supnorm,
    "dudley": _run_dudley,
    "diameter": _run_diameter,
    "covering": _run_covering,
    "claim": _run_claim,
    "verify": _run_verify,
}


def run(subcommand: str, cfg: ExperimentConfig):
    """Execute one subcommand; returns (Report, header, rows)."""
    if subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    t0 = time.perf_counter()
    header, rows, summary, flags = _RUNNERS[subcommand](cfg)
    report = Report(experiment=subcommand, config=dataclasses.asdict(cfg),
                    csv_path="", summary=summary, flags=flags,
                    wall_clock_s=time.perf_counter() - t0)
    return report, header, rows


def _cell(v):
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return v


def _out_paths(out_dir: str, subcommand: str):
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = os.path.join(out_dir, f"{subcommand}-{stamp}")
    k = 0
    while os.path.exists(f"{base}.csv") or os.path.exists(f"{base}.json"):
        k += 1
        base = os.path.join(out_dir, f"{subcommand}-{stamp}-{k}")
    return f"{base}.csv", f"{base}.json"


def emit_report(report: Report, header, rows) -> Report:
    """Write the CSV table and JSON summary; fills report.csv_path."""
    out_dir = report.config["out"]
    os.makedirs(out_dir, exist_ok=True)
    csv_path, json_path = _out_paths(out_dir, report.experiment)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    report.csv_path = csv_path
    payload = dataclasses.asdict(report)
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_cell)
        fh.write("\n")
    return report


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eigenband",
                                description="band-embedding experiment driver")
    p.add_argument("subcommand", choices=SUBCOMMANDS)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--kind", default=None, choices=("sphere2", "torus"))
    p.add_argument("--side-lengths", default=None,
                   help="comma-separated torus side lengths")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambdas", default=None, help="comma-separated lambda list")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--grid-density", type=float, default=None)
    p.add_argument("--substrate", type=int, default=None)
    p.add_argument("--eps-max", type=float, default=None)
    p.add_argument("--eps-min", type=float, default=None)
    p.add_argument("--eps-count", type=int, default=None)
    p.add_argument("--a-values", default=None, help="comma-separated a list")
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    overrides = {
        "kind": args.kind,
        "lam": args.lam,
        "seed": args.seed,
        "samples": args.samples,
        "pairs": args.pairs,
        "grid_density": args.grid_density,
        "substrate": args.substrate,
        "eps_max": args.eps_max,
        "eps_min": args.eps_min,
        "eps_count": args.eps_count,
        "out": args.out,
        "workers": args.workers,
    }
    if args.side_lengths is not None:
        overrides["side_lengths"] = [float(s) for s in args.side_lengths.split(",")]
    if args.lambdas is not None:
        overrides["lams"] = [float(s) for s in args.lambdas.split(",")]
    if args.a_values is not None:
        overrides["a_values"] = [float(s) for s in args.a_values.split(",")]
    try:
        cfg = _load_config(args.config, overrides)
        report, header, rows = run(args.subcommand, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        emit_report(report, header, rows)
    except OSError as exc:
        print(f"error writing output: {exc}", file=sys.stderr)
        return EXIT_IO
    for name, ok in report.flags.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"wrote {report.csv_path}")
    if args.subcommand == "verify" and not all(report.flags.values()):
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
