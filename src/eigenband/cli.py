"""Experiment driver.

Each subcommand reruns one numerical study end to end and drops a CSV
table plus a JSON summary into the output directory. Given the same
config and seed the CSV bytes are identical run to run; wall-clock time
lives only in the JSON. Every config value must have its field's type
(a string, a number, an integer, or a list of numbers); anything else,
like an unknown key, is a config error.

Exit codes: 0 ok, 2 bad config or usage, 3 verify found a failing
criterion, 4 could not write output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import embed as em
from . import entropy as en
from . import manifold as mf
from . import spectrum as sp
from . import waves as wv

__all__ = ["ExperimentConfig", "Report", "run", "emit_report", "main"]

# these read cfg.lam alone, so a lams list would be silently dropped
_ONE_LAMBDA = ("profile", "isometry", "dudley", "covering")

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


def _is_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _typed(field: dataclasses.Field, value):
    """value as the type of the field's default, else ConfigError."""
    default = field.default
    if isinstance(default, str) and isinstance(value, str):
        return value
    if (isinstance(default, tuple) and isinstance(value, (list, tuple))
            and all(map(_is_number, value))):
        return tuple(float(v) for v in value)
    if isinstance(default, float) and _is_number(value):
        return float(value)
    if isinstance(default, int) and _is_number(value) and value == int(value):
        return int(value)
    want = {str: "a string", tuple: "a list of finite numbers",
            float: "a finite number", int: "an integer"}[type(default)]
    raise ConfigError(f"{field.name} must be {want}, got {value!r}")


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
    fields = dataclasses.fields(ExperimentConfig)
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    if "lam" in raw and "lams" in raw:
        # the studies read lams when it is set, so lam would be silently dropped
        raise ConfigError("set one of lambda and lambdas, not both")
    cfg = ExperimentConfig(**{f.name: _typed(f, raw[f.name])
                              for f in fields if f.name in raw})
    if cfg.kind not in ("sphere2", "torus"):
        raise ConfigError(f"unknown manifold kind {cfg.kind!r}")
    if cfg.lam <= 0 or any(l <= 0 for l in cfg.lams):
        raise ConfigError("lambda values must be positive")
    for name in ("samples", "pairs", "substrate", "eps_count"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    if cfg.grid_density < wv.LADDER_BASE:
        raise ConfigError(f"grid_density must be >= {wv.LADDER_BASE}")
    if cfg.eps_max < 0 or cfg.eps_min < 0:
        raise ConfigError("eps_max and eps_min must be >= 0 (0 picks the default)")
    if 0 < cfg.eps_max <= cfg.eps_min:
        raise ConfigError("eps_min must be below eps_max")
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
    # every lambda's embedding first: an empty band ends the run before any scan
    embs = [em.make_embedding(model, lam) for lam in _lams(cfg)]
    rows = []
    flags = {}
    for li, (lam, emb) in enumerate(zip(_lams(cfg), embs)):
        scan = em.lipschitz_scan(emb, cfg.pairs, _rng(cfg, 10 + 2 * li))
        rng = _rng(cfg, 11 + 2 * li)
        # each pair's x, then its y
        P = mf.uniform_sample_rows(model, rng, 2 * cfg.pairs)
        X, Y = P[0::2], P[1::2]
        dg = mf.geodesic_rows(model, X, Y)
        keep = dg >= 1e-12
        dl = em.CanonicalDistance(emb).rows(X[keep], Y[keep])
        fresh = float(np.max(dl / (lam * dg[keep]), initial=0.0))
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


def _loglog_fit(lams, means) -> dict:
    """OLS slope of log E sup against log log lambda over the lambda > e,
    with its standard error (nan below 3 points; the slope, below 2)."""
    pts = [(math.log(math.log(lam)), math.log(m)) for lam, m in zip(lams, means)
           if lam > math.e]
    fit = {"lambdas": [lam for lam in lams if lam > math.e],
           "slope": math.nan, "std_error": math.nan}
    if len(pts) >= 2:
        x, y = np.array(pts).T
        dx = x - x.mean()
        fit["slope"] = slope = float(dx @ (y - y.mean()) / (dx @ dx))
        if len(pts) >= 3:
            resid = y - y.mean() - slope * dx
            fit["std_error"] = math.sqrt(resid @ resid / (len(pts) - 2) / (dx @ dx))
    return fit


def _peak_rss_mib() -> float | None:
    """The process's resident high-water mark so far, in MiB; None where the
    platform has no getrusage."""
    if resource is None:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # KiB on Linux, bytes on macOS
    return rss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _run_supnorm(cfg: ExperimentConfig):
    model = _model(cfg)
    # every lambda's bound first: a bad lambda ends the run before any sup
    bounds = [(lam, wv.sup_norm_bound(model, lam)) for lam in _lams(cfg)]
    rows = []
    summary = {}
    flags = {}
    for lam, bound in bounds:
        t0 = time.perf_counter()
        est = wv.expected_sup(model, lam, cfg.samples, cfg.grid_density, cfg.seed)
        seconds = time.perf_counter() - t0
        ratio = est.mean / math.sqrt(math.log(lam))
        rows.append((cfg.kind, lam, est.mean, est.std_error, est.samples,
                     est.grid_points, bound.general, bound.aperiodic, ratio))
        summary[f"lam{lam:g}"] = {"mean": est.mean, "std_error": est.std_error,
                                  "sup_bound_general": bound.general,
                                  "sup_bound_aperiodic": bound.aperiodic,
                                  "level_peaks": list(est.level_peaks),
                                  "level_sizes": list(est.level_sizes),
                                  "refine_gain": est.refine_gain,
                                  "seconds": seconds,
                                  "peak_rss_mib": _peak_rss_mib()}
        flags[f"below_sup_bound_lam{lam:g}"] = bool(est.mean <= bound.general)
    summary["loglog_fit"] = _loglog_fit([r[1] for r in rows], [r[2] for r in rows])
    header = ("model", "lam", "mean_sup", "std_error", "samples", "grid_points",
              "sup_bound_general", "sup_bound_aperiodic", "ratio_vs_sqrt_log")
    return header, rows, summary, flags


def _band_radii(cfg: ExperimentConfig, model, eps_ratio: float):
    """The band embedding at cfg.lam and eps_count radii from eps_max (default: half
    its diameter) to eps_min (default: eps_max / eps_ratio), which must be below it."""
    emb = em.make_embedding(model, cfg.lam)
    eps_max = cfg.eps_max or em.diameter_estimate(emb, 4000) / 2.0
    eps_min = cfg.eps_min or eps_max / eps_ratio
    if eps_min >= eps_max:
        raise ConfigError(f"eps_min {eps_min:g} must be below eps_max {eps_max:g}")
    return emb, list(np.geomspace(eps_max, eps_min, cfg.eps_count))


def _traversal_counts(curve) -> dict:
    """Centers the traversal inserted (the largest net) and distances it computed."""
    return {"insertions": max(n for _, n in curve.entries),
            "row_entries": curve.row_entries}


def _run_dudley(cfg: ExperimentConfig):
    model = _model(cfg)
    lam = cfg.lam
    # the bound and the radii first: a bad lambda or epsilon ends the run before any sup
    bound = wv.sup_norm_bound(model, lam)
    emb, eps = _band_radii(cfg, model, 24.0)
    t0 = time.perf_counter()
    signed, absolute = (wv.expected_sup(model, lam, cfg.samples, cfg.grid_density, cfg.seed,
                                        statistic=statistic) for statistic in ("max", "abs"))
    t1 = time.perf_counter()
    curve = en.covering_curve(mf.quasi_uniform_grid(model, cfg.substrate),
                              em.CanonicalDistance(emb), eps)
    t2 = time.perf_counter()
    report = en.dudley_report(curve)
    rows = [(e, n) for e, n in curve.entries]
    header = ("epsilon", "net_size")
    abs_limit = 2.0 * signed.mean + 3.0 * math.hypot(2.0 * signed.std_error,
                                                     absolute.std_error)
    summary = {"dudley_bound": report.bound, "half_diameter": report.half_diameter,
               "tail_exponent": report.tail_exponent, **_traversal_counts(curve),
               "mean_sup_signed": signed.mean, "se_signed": signed.std_error,
               "mean_sup_abs": absolute.mean, "se_abs": absolute.std_error,
               "abs_limit": abs_limit,
               "sup_bound_general": bound.general,
               "level_sizes": list(signed.level_sizes),
               "level_peaks_signed": list(signed.level_peaks),
               "refine_gain_signed": signed.refine_gain,
               "level_peaks_abs": list(absolute.level_peaks),
               "refine_gain_abs": absolute.refine_gain,
               "sup_seconds": t1 - t0, "curve_seconds": t2 - t1,
               "peak_rss_mib": _peak_rss_mib()}
    flags = {"sup_below_dudley": bool(signed.mean <= report.bound),
             "sup_below_closed_form": bool(signed.mean <= bound.general),
             "abs_below_twice_signed": bool(absolute.mean <= abs_limit)}
    return header, rows, summary, flags


def _run_diameter(cfg: ExperimentConfig):
    model = _model(cfg)
    rows = []
    flags = {}
    reference = math.sqrt(2.0) / math.sqrt(model.volume)
    # every lambda's embedding first: an empty band ends the run before any scan
    embs = [em.make_embedding(model, lam) for lam in _lams(cfg)]
    for lam, emb in zip(_lams(cfg), embs):
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
    # the band curve first, so that an empty band exits before any net
    emb, eps = _band_radii(cfg, model, 10.0)
    curve = en.covering_curve(substrate, em.CanonicalDistance(emb), eps)
    # the geodesic nets are prefixes of one traversal; rows list the smallest radius first
    geodesic = en.covering_curve(substrate, mf.GeodesicDistance(model), (1.0, 0.5, 0.2))
    rows = []
    flags = {}
    for r, n in reversed(geodesic.entries):
        lp = en.lp_covering_bound(model, r)
        rows.append(("d_g", r, n, lp))
        flags[f"lp_holds_r{r:g}"] = bool(n <= lp)
    for e, n in curve.entries:
        rows.append((curve.distance_id, e, n, math.nan))
    slope = en.fit_exponent(curve, n_max=len(substrate) // 4)
    flags["slope_matches_dim"] = bool(abs(slope - model.dim) <= 0.3)
    header = ("distance", "epsilon", "net_size", "lp_bound")
    return header, rows, {"dlambda_slope": slope, **_traversal_counts(curve)}, flags


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
    if cfg.lams and subcommand in _ONE_LAMBDA:
        raise ConfigError(f"{subcommand} runs at one lambda: use --lambda, not --lambdas")
    keys = [f"{lam:g}" for lam in cfg.lams]
    if len(set(keys)) < len(keys):
        # the JSON summary and flags key each lambda by this form
        raise ConfigError(f"lambda list {','.join(keys)} repeats a value")
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


def _create_outputs(out_dir: str, subcommand: str):
    """Open a new CSV and JSON pair exclusively, adding -k on a name clash."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    for k in itertools.count():
        base = os.path.join(out_dir, f"{subcommand}-{stamp}" + (f"-{k}" if k else ""))
        try:
            csv_fh = open(f"{base}.csv", "x", newline="")
        except FileExistsError:
            continue
        try:
            return csv_fh, open(f"{base}.json", "x")
        except FileExistsError:
            csv_fh.close()
            os.remove(csv_fh.name)


def emit_report(report: Report, header, rows) -> Report:
    """Write the CSV table and JSON summary; fills report.csv_path."""
    out_dir = report.config["out"]
    os.makedirs(out_dir, exist_ok=True)
    csv_fh, json_fh = _create_outputs(out_dir, report.experiment)
    with csv_fh, json_fh:
        writer = csv.writer(csv_fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        report.csv_path = csv_fh.name
        json.dump(dataclasses.asdict(report), json_fh, indent=2, sort_keys=True,
                  default=_cell)
        json_fh.write("\n")
    return report


def _numbers(text: str) -> list:
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _parser() -> argparse.ArgumentParser:
    """One flag per ExperimentConfig field, typed by the field's default."""
    p = argparse.ArgumentParser(prog="eigenband",
                                description="band-embedding experiment driver")
    p.add_argument("subcommand", choices=_RUNNERS)
    p.add_argument("--config", default=None, help="JSON config file")
    for f in dataclasses.fields(ExperimentConfig):
        name = {"lam": "lambda", "lams": "lambdas"}.get(f.name, f.name).replace("_", "-")
        listed = isinstance(f.default, tuple)
        p.add_argument(f"--{name}", dest=f.name, default=None,
                       type=_numbers if listed else type(f.default),
                       help="comma-separated numbers" if listed else None)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    overrides = {f.name: getattr(args, f.name)
                 for f in dataclasses.fields(ExperimentConfig)}
    try:
        cfg = _load_config(args.config, overrides)
        report, header, rows = run(args.subcommand, cfg)
    except (ValueError, MemoryError) as exc:  # MemoryError: a band too large to enumerate
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
