import csv
import io
import json
import math

import pytest

from eigenband import acceptance
from eigenband import cli


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


def test_supnorm_workers_do_not_change_csv(tmp_path):
    base = ["supnorm", "--lambda", "8", "--samples", "6", "--seed", "11",
            "--grid-density", "4"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert _run(base + ["--workers", "1", "--out", str(a)]) == 0
    assert _run(base + ["--workers", "4", "--out", str(b)]) == 0
    assert _newest(a, ".csv").read_bytes() == _newest(b, ".csv").read_bytes()


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


def test_exit_code_io_error():
    assert _run(["band", "--lambda", "5", "--out", "/proc/nope"]) == cli.EXIT_IO


def test_exit_code_verify_failure(tmp_path, monkeypatch):
    fake = acceptance.CriterionResult(index=1, title="t", passed=False,
                                      detail="forced", seconds=0.0, budget_s=1.0)
    monkeypatch.setattr(acceptance, "run_all", lambda only=None: [fake])
    assert _run(["verify", "--out", str(tmp_path)]) == cli.EXIT_VERIFY


def test_run_rejects_unknown_subcommand():
    with pytest.raises(cli.ConfigError):
        cli.run("nope", cli.ExperimentConfig())


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
                            lambda only=None, s=seconds: fake_results(s))
        assert _run(["verify", "--out", str(tmp_path / str(run_idx))]) == 0
    csvs = [_newest(tmp_path / str(i), ".csv").read_bytes() for i in (0, 1)]
    assert csvs[0] == csvs[1]
    assert b"seconds" not in csvs[0]
    report = json.loads(_newest(tmp_path / "1", ".json").read_text())
    assert report["summary"]["seconds"] == {"1": 1.5, "2": 3.0}
