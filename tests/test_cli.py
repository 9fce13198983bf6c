import csv
import dataclasses
import io
import json
import math

import pytest

from eigenband import acceptance
from eigenband import cli
from eigenband import embed as em
from eigenband import entropy as en
from eigenband import manifold as mf
from eigenband import waves as wv


def _run(argv):
    return cli.main(argv)


def _newest(tmp_path, suffix, prefix=""):
    files = sorted(tmp_path.glob(f"{prefix}*{suffix}"))
    assert files, f"no {suffix} outputs in {tmp_path}"
    return files[-1]


def test_weyl_csv_deterministic(tmp_path):
    argv = ["weyl", "--lambda", "10", "--samples", "5", "--seed", "3",
            "--out", str(tmp_path)]
    assert _run(list(argv)) == 0
    first = _newest(tmp_path, ".csv").read_bytes()
    assert _run(list(argv)) == 0
    outs = sorted(tmp_path.glob("*.csv"))
    assert len(outs) == 2
    assert outs[0].read_bytes() == outs[1].read_bytes() == first


def test_supnorm_csv_identical_across_runs(tmp_path):
    base = ["supnorm", "--lambda", "8", "--samples", "6", "--seed", "11",
            "--grid-density", "4"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert _run(base + ["--out", str(a)]) == 0
    assert _run(base + ["--out", str(b)]) == 0
    assert _newest(a, ".csv").read_bytes() == _newest(b, ".csv").read_bytes()


@pytest.mark.parametrize("kind,lams", [("sphere2", (9.0, 20.0)), ("torus", (7.0,))])
def test_lipschitz_fresh_ratio_matches_pairwise_loop(kind, lams):
    cfg = cli.ExperimentConfig(kind=kind, lams=lams, pairs=300, seed=5)
    _, _, rows = cli.run("lipschitz", cfg)
    model = cli._model(cfg)
    for li, (lam, row) in enumerate(zip(lams, rows)):
        # the pair-by-pair route: dist_lambda from three kernel values per pair
        emb, rng, fresh = em.make_embedding(model, lam), cli._rng(cfg, 11 + 2 * li), 0.0
        for _ in range(cfg.pairs):
            x, y = mf.uniform_sample(model, rng), mf.uniform_sample(model, rng)
            dg = mf.geodesic_distance(model, x, y)
            if dg >= 1e-12:
                fresh = max(fresh, em.dist_lambda(emb, x, y) / (lam * dg))
        assert row[3] == pytest.approx(fresh, rel=1e-12, abs=0.0)


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 5.0, "samples": 4, "seed": 9}))
    assert _run(["band", "--config", str(cfg), "--lambda", "7",
                 "--out", str(tmp_path)]) == 0
    report = json.loads(_newest(tmp_path, ".json", "band-").read_text())
    assert report["config"]["lam"] == 7.0
    assert report["config"]["samples"] == 4


def test_exit_codes_config_errors(tmp_path):
    assert _run(["no-such-mode"]) == cli.EXIT_CONFIG
    assert _run(["band", "--lambda", "-3", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"lam": 5.0, "unknown_key": 1}))
    assert _run(["band", "--config", str(cfg), "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    cfg.write_text("{not json")
    assert _run(["band", "--config", str(cfg), "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG


@pytest.mark.parametrize("flags", [["--side-lengths", "a,b"],
                                   ["--lambdas", "1,x"],
                                   ["--a-values", "q"]])
def test_malformed_list_flag_exits_config(tmp_path, capsys, flags):
    assert _run(["band", "--out", str(tmp_path)] + flags) == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("values", [{"samples": "5"}, {"lams": 5}, {"lam": None},
                                    {"samples": 2.5}, {"workers": 2}])
def test_mistyped_config_value_exits_config(tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert _run(["band", "--config", str(cfg), "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("subcommand", ["profile", "isometry", "dudley", "covering"])
def test_one_lambda_study_rejects_lambda_list(tmp_path, capsys, subcommand):
    assert _run([subcommand, "--lambdas", "200", "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    assert "--lambda" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_config_values_take_their_field_types(tmp_path):
    cfg = tmp_path / "cfg.json"
    # lam and lams in turn: a config may not set both
    cfg.write_text(json.dumps({"lam": 5, "samples": 4.0}))
    assert _run(["band", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 0
    config = json.loads(_newest(tmp_path / "one", ".json", "band-").read_text())["config"]
    assert config["lam"] == 5.0 and isinstance(config["lam"], float)
    assert config["samples"] == 4 and isinstance(config["samples"], int)
    cfg.write_text(json.dumps({"lams": [3, 4]}))
    assert _run(["band", "--config", str(cfg), "--out", str(tmp_path / "list")]) == 0
    config = json.loads(_newest(tmp_path / "list", ".json", "band-").read_text())["config"]
    assert config["lams"] == [3.0, 4.0]


@pytest.mark.parametrize("values,flags", [
    ({}, ["--lambda", "20", "--lambdas", "1,9"]),
    ({"lam": 20, "lams": [1, 9]}, []),
    ({"lam": 20}, ["--lambdas", "1,9"]),
])
def test_lambda_with_lambda_list_exits_config(tmp_path, capsys, values, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert _run(["band", "--config", str(cfg), *flags, "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    assert "not both" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_exit_code_io_error():
    assert _run(["band", "--lambda", "5", "--out", "/proc/nope"]) == cli.EXIT_IO


def test_exit_code_verify_failure(tmp_path, monkeypatch):
    fake = acceptance.CriterionResult(index=1, title="t", passed=False,
                                      detail="forced", seconds=0.0, budget_s=1.0)
    monkeypatch.setattr(acceptance, "run_all", lambda: [fake])
    assert _run(["verify", "--out", str(tmp_path)]) == cli.EXIT_VERIFY


def test_run_rejects_unknown_subcommand():
    with pytest.raises(cli.ConfigError):
        cli.run("nope", cli.ExperimentConfig())


@pytest.mark.parametrize("subcommand", ["covering", "dudley"])
def test_band_curve_reports_traversal_counts(subcommand):
    cfg = cli.ExperimentConfig(lam=6.0, substrate=600, eps_count=5, samples=3,
                               grid_density=4.0, seed=3)
    report, _, rows = cli.run(subcommand, cfg)
    if subcommand == "covering":
        sizes = [n for distance, _, n, _ in rows if distance == "d_lambda"]
    else:
        sizes = [n for _, n in rows]
        # where dudley's time and memory went: both sups, then the curve
        for key in ("sup_seconds", "curve_seconds", "peak_rss_mib"):
            assert report.summary[key] >= 0.0
    insertions = report.summary["insertions"]
    assert insertions == max(sizes) > 1
    # one row over the live set per center, the first over the whole substrate
    assert 600 < report.summary["row_entries"] < 600 * insertions


def test_report_json_fields(tmp_path):
    assert _run(["supnorm", "--lambda", "6", "--samples", "5", "--seed", "2",
                 "--grid-density", "4", "--out", str(tmp_path)]) == 0
    report = json.loads(_newest(tmp_path, ".json").read_text())
    assert report["experiment"] == "supnorm"
    per_lam = report["summary"]["lam6"]
    for key in ("mean", "std_error", "sup_bound_general", "sup_bound_aperiodic"):
        assert key in per_lam
    assert report["flags"]["below_sup_bound_lam6"] is True
    assert report["wall_clock_s"] >= 0.0
    assert report["csv_path"].endswith(".csv")


def test_emit_report_csv_quoting(tmp_path):
    rep = cli.Report(experiment="weyl", config={"out": str(tmp_path)},
                     csv_path="", summary={}, flags={}, wall_clock_s=0.0)
    rows = [("a,b", 'say "hi"', 1.5), ("plain", "x", 2)]
    rep = cli.emit_report(rep, ("name", "note", "value"), rows)
    with open(rep.csv_path, newline="") as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["name", "note", "value"]
    assert back[1] == ["a,b", 'say "hi"', "1.5"]
    assert back[2] == ["plain", "x", "2"]


def test_emit_report_empty_rows(tmp_path):
    rep = cli.Report(experiment="band", config={"out": str(tmp_path)},
                     csv_path="", summary={}, flags={}, wall_clock_s=0.0)
    rep = cli.emit_report(rep, ("only",), [])
    with open(rep.csv_path, newline="") as fh:
        back = list(csv.reader(fh))
    assert back == [["only"]]


def test_float_cells_round_trip(tmp_path):
    assert _run(["weyl", "--lambda", "10", "--samples", "3", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    text = _newest(tmp_path, ".csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    i = header.index("deviation")
    for row in rows[1:]:
        v = float(row[i])
        assert row[i] == repr(v)


def test_claim_subcommand_flags(tmp_path):
    assert _run(["claim", "--out", str(tmp_path)]) == 0
    report = json.loads(_newest(tmp_path, ".json").read_text())
    assert all(report["flags"].values())


def test_weyl_known_row(tmp_path):
    assert _run(["weyl", "--lambda", "10", "--samples", "1", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    text = _newest(tmp_path, ".csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    lookup = dict(zip(rows[0], rows[1]))
    assert lookup["model"] == "sphere2"
    assert lookup["quantity"] == "count"
    assert float(lookup["value"]) == 99.0
    assert float(lookup["prediction"]) == pytest.approx(100.0)


def test_verify_csv_has_no_timings(tmp_path, monkeypatch):
    def fake_results(seconds):
        return [acceptance.CriterionResult(index=i, title=f"t{i}", passed=True,
                                           detail="ok", seconds=seconds * i,
                                           budget_s=10.0)
                for i in (1, 2)]
    for run_idx, seconds in enumerate((0.25, 1.5)):
        monkeypatch.setattr(acceptance, "run_all",
                            lambda s=seconds: fake_results(s))
        assert _run(["verify", "--out", str(tmp_path / str(run_idx))]) == 0
    csvs = [_newest(tmp_path / str(i), ".csv").read_bytes() for i in (0, 1)]
    assert csvs[0] == csvs[1]
    assert b"seconds" not in csvs[0]
    report = json.loads(_newest(tmp_path / "1", ".json").read_text())
    assert report["summary"]["seconds"] == {"1": 1.5, "2": 3.0}


def test_emit_report_never_reuses_a_name(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    taken = tmp_path / "band-20260101-000000.csv"
    taken.write_text("keep\n")
    paths = []
    for _ in range(2):
        rep = cli.Report(experiment="band", config={"out": str(tmp_path)},
                         csv_path="", summary={}, flags={}, wall_clock_s=0.0)
        paths.append(cli.emit_report(rep, ("only",), [(1,)]).csv_path)
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(set(csvs)) == 3 and taken in csvs
    assert sorted(map(str, csvs)) == sorted(paths + [str(taken)])
    assert len(list(tmp_path.glob("*.json"))) == 2
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("subcommand", ["weyl", "band", "lipschitz", "supnorm", "diameter"])
@pytest.mark.parametrize("lams", ["20,20", "3,20,20.0000001"])
def test_repeated_lambda_key_exits_config(tmp_path, capsys, subcommand, lams):
    # the JSON summary keys each lambda by f"{lam:g}": a repeat would keep one
    assert _run([subcommand, "--lambdas", lams, "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repeats" in err and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def test_supnorm_summary_fits_the_loglog_slope(tmp_path):
    assert _run(["supnorm", "--lambdas", "2,6,9,12", "--samples", "4", "--seed", "2",
                 "--grid-density", "4", "--out", str(tmp_path)]) == 0
    summary = json.loads(_newest(tmp_path, ".json").read_text())["summary"]
    with open(_newest(tmp_path, ".csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["model", "lam", "mean_sup", "std_error", "samples",
                             "grid_points", "sup_bound_general", "sup_bound_aperiodic",
                             "ratio_vs_sqrt_log"]
    fit = summary["loglog_fit"]
    # lambda 2 is below e, so three points
    assert fit["lambdas"] == [6.0, 9.0, 12.0]
    x = [math.log(math.log(float(r["lam"]))) for r in rows[1:]]
    y = [math.log(float(r["mean_sup"])) for r in rows[1:]]
    from scipy.stats import linregress

    want = linregress(x, y)
    assert fit["slope"] == pytest.approx(want.slope, rel=1e-9)
    assert fit["std_error"] == pytest.approx(want.stderr, rel=1e-9)
    for lam in ("2", "6", "9", "12"):
        assert summary[f"lam{lam}"]["seconds"] >= 0.0
    # the process's high-water mark after each lambda, so it never falls
    rss = [summary[f"lam{lam}"]["peak_rss_mib"] for lam in ("2", "6", "9", "12")]
    assert 0.0 < rss[0] and rss == sorted(rss)
    two = cli._loglog_fit([3.0, 9.0], [1.0, 1.2])
    rise = math.log(math.log(9.0) / math.log(3.0))
    assert two["slope"] == pytest.approx(math.log(1.2) / rise)
    assert math.isnan(two["std_error"])
    assert math.isnan(cli._loglog_fit([9.0], [1.0])["slope"])


def test_every_study_csv_identical_across_runs(tmp_path):
    small = ["--lambda", "6", "--samples", "3", "--pairs", "50", "--grid-density", "4",
             "--substrate", "300", "--eps-count", "4", "--seed", "3"]
    for subcommand in [s for s in cli._RUNNERS if s != "verify"]:
        outs = [tmp_path / subcommand / side for side in ("a", "b")]
        for out in outs:
            assert _run([subcommand, *small, "--out", str(out)]) == 0
        a, b = (_newest(out, ".csv").read_bytes() for out in outs)
        assert a == b, subcommand


def test_flags_mirror_config_fields(tmp_path):
    actions = [a for a in cli._parser()._actions if a.option_strings]
    flags = {a.option_strings[0]: a.dest for a in actions}
    assert flags.pop("-h") == "help" and flags.pop("--config") == "config"
    assert list(flags) == ["--kind", "--side-lengths", "--lambda", "--lambdas", "--seed",
                           "--samples", "--pairs", "--grid-density", "--substrate",
                           "--eps-max", "--eps-min", "--eps-count", "--a-values", "--out"]
    assert list(flags.values()) == [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
    assert _run(["band", "--workers", "2", "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def _forbid(monkeypatch, module, name):
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(name)
        raise AssertionError(f"{name} ran on a rejected setting")

    monkeypatch.setattr(module, name, forbidden)
    return calls


@pytest.mark.parametrize("bad", [["--samples", "1"], ["--grid-density", "2"],
                                 ["--lambda", "1"]])
def test_bad_sup_setting_exits_before_dudley_curve(tmp_path, capsys, monkeypatch, bad):
    calls = _forbid(monkeypatch, en, "covering_curve")
    argv = ["dudley", "--lambda", "40", "--substrate", "12000", "--eps-min", "0.2",
            "--eps-count", "8", *bad, "--out", str(tmp_path)]
    assert _run(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert calls == []


@pytest.mark.parametrize("bad", [["--eps-min", "-0.1"], ["--eps-max", "-1"],
                                 ["--eps-max", "0.2", "--eps-min", "0.5"],
                                 ["--eps-max", "0.5", "--eps-min", "0.5"]])
def test_bad_epsilon_exits_before_any_sup(tmp_path, capsys, monkeypatch, bad):
    calls = _forbid(monkeypatch, wv, "expected_sup")
    assert _run(["dudley", "--lambda", "80", "--samples", "400", *bad,
                 "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "eps_m" in capsys.readouterr().err
    assert calls == []
    assert not list(tmp_path.glob("*.csv"))


def test_default_eps_max_below_eps_min_exits_before_any_sup(tmp_path, capsys, monkeypatch):
    # eps_max defaults to half the band diameter (about 0.24 at lambda 40)
    calls = _forbid(monkeypatch, wv, "expected_sup")
    assert _run(["dudley", "--lambda", "40", "--samples", "20", "--eps-min", "5",
                 "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eps_min 5" in err and "eps_max" in err
    assert calls == []


def test_band_too_large_to_enumerate_exits_config(tmp_path, capsys):
    # the torus lattice's first array would be 2e15 integers, more than any
    # address space holds, so numpy refuses it without allocating
    assert _run(["band", "--kind", "torus", "--lambda", "1e15",
                 "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.glob("*.csv"))


def test_empty_band_exits_before_geodesic_nets(tmp_path, capsys, monkeypatch):
    calls = _forbid(monkeypatch, mf.GeodesicDistance, "rows")
    assert _run(["covering", "--lambda", "0.1", "--substrate", "2000",
                 "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "is empty" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("argv,scan", [
    (["lipschitz", "--lambdas", "60,0.1"], "lipschitz_scan"),
    (["diameter", "--lambdas", "40,0.1"], "diameter_estimate"),
])
def test_empty_band_in_list_exits_before_any_scan(tmp_path, capsys, monkeypatch, argv, scan):
    calls = _forbid(monkeypatch, em, scan)
    assert _run([*argv, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "band at lambda=0.1 is empty" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("subcommand", ["profile", "isometry"])
def test_empty_band_exits_config(tmp_path, capsys, subcommand):
    assert _run([subcommand, "--lambda", "0.1", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "band at lambda=0.1 is empty" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_bad_lambda_in_list_exits_before_any_sup(tmp_path, capsys, monkeypatch):
    calls = _forbid(monkeypatch, wv, "expected_sup")
    assert _run(["supnorm", "--lambdas", "80,0.9", "--samples", "200",
                 "--grid-density", "10", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert calls == []


def test_grid_density_below_ladder_base_exits_config(tmp_path, capsys):
    assert _run(["band", "--grid-density", "2", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert str(wv.LADDER_BASE) in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
