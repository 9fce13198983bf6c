"""Smoke tests for the study scripts, so they cannot rot unseen."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diameter_study_runs(capsys):
    study = _load("diameter_study")
    assert study.main(["--sizes", "1000,4000", "--offset-grid", "101"]) == 0
    out = capsys.readouterr().out
    assert "kernel-min route (grid 101^2)" in out
    assert "kernel min / diagonal" in out


# end-to-end metrics as BENCHMARK.json declares them
END_TO_END = [{"name": "study_s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
              {"name": "setup_s", "better": "lower", "bound": 0.25}]


def _canned_stdout(study_s, peak_rss_mb, failed=0):
    # what perfbench/run.py prints: check lines first, the result line last
    result = {"correct": failed == 0, "attempted": 30, "failed": failed,
              "metrics": {"study_s": {"value": study_s, "unit": "s"},
                          "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}}
    return "perfbench note\n" + json.dumps(result) + "\n"


def test_bench_summary_on_canned_runs():
    bench = _load("bench")
    canned = [("parent", 1, 0.20, 60.0), ("change", 1, 0.10, 50.0),
              ("change", 2, 0.12, 50.0), ("parent", 2, 0.18, 62.0),
              ("parent", 3, 0.22, 61.0), ("change", 3, 0.25, 49.0),
              ("parent", 4, 0.19, 60.0), ("change", 4, 0.11, 60.0)]
    runs = [{"workload": "w", "seed": seed, "side": side,
             **bench.parse_run(_canned_stdout(study, rss, failed=int(seed == 4)))}
            for side, seed, study, rss in canned]
    assert runs[0]["metrics"] == {"study_s": 0.20, "peak_rss_mb": 60.0}
    summary = bench.summarize(runs, END_TO_END)["w"]
    parent, change = summary["sides"]["parent"]["study_s"], summary["sides"]["change"]["study_s"]
    # inclusive quartiles of 0.18, 0.19, 0.20, 0.22 and of 0.10, 0.11, 0.12, 0.25
    assert parent["median"] == pytest.approx(0.195) and parent["runs"] == 4
    assert (parent["q1"], parent["q3"]) == pytest.approx((0.1875, 0.205))
    assert (change["median"], change["q1"], change["q3"]) == pytest.approx((0.115, 0.1075, 0.1525))
    assert summary["pairs"]["study_s"] == {"pairs": 4, "change_won": 3, "ties": 0}
    assert summary["pairs"]["peak_rss_mb"] == {"pairs": 4, "change_won": 3, "ties": 1}
    assert "setup_s" not in summary["pairs"] and "setup_s" not in summary["sides"]["change"]
    assert summary["failed_ops"] == {"parent": 1, "change": 1}
    # parent spreads 9% and 2% of their medians, inside the bounds
    assert summary["verdicts"]["study_s"] == {
        "relative_change": pytest.approx(0.115 / 0.195 - 1.0), "bound": 0.25,
        "verdict": "better"}
    assert summary["verdicts"]["peak_rss_mb"]["verdict"] == "better"
    assert "setup_s" not in summary["verdicts"]
    cases = [
        ([60.0, 60.5, 61.0, 60.2], [61.5, 62.0, 61.8, 62.3], "within bound"),
        ([60.0, 60.5, 61.0, 60.2], [64.0, 63.5, 64.2, 63.9], "worse"),
        # a parent spread of 10% of the median, wider than the bound
        ([57.0, 60.0, 63.0, 66.0], [62.0, 64.0, 66.0, 68.0], "unresolved"),
        # as wide, but every change run reads better than every parent run
        ([57.0, 60.0, 63.0, 66.0], [50.0, 51.0, 52.0, 53.0], "better"),
        ([57.0, 60.0, 63.0, 66.0], [70.0, 72.0, 74.0, 76.0], "worse"),
    ]
    for parent_rss, change_rss, want in cases:
        runs = [{"workload": "w", "seed": seed, "side": side,
                 **bench.parse_run(_canned_stdout(0.2, rss))}
                for side, values in (("parent", parent_rss), ("change", change_rss))
                for seed, rss in enumerate(values)]
        got = bench.summarize(runs, END_TO_END)["w"]["verdicts"]
        assert got["peak_rss_mb"]["verdict"] == want, (parent_rss, change_rss)
        assert got["study_s"]["verdict"] == "within bound"
    # a metric that should rise: the same medians read the other way
    higher = [{"name": "peak_rss_mb", "better": "higher", "bound": 0.05}]
    assert bench.summarize(runs, higher)["w"]["verdicts"]["peak_rss_mb"]["verdict"] == "better"


def test_bench_summary_fits_peak_rss_against_rounds():
    bench = _load("bench")
    # parent: 48.5 MiB plus 0.6 MiB a round; change: one run failed, one has no round count
    canned = [("parent", 1, 20, 60.5), ("parent", 2, 30, 66.5), ("parent", 3, 25, 63.5),
              ("change", 1, 20, 50.0), ("change", 2, 40, 52.0), ("change", 3, None, 99.0)]
    runs = [{"workload": "w", "seed": seed, "side": side, "rounds": rounds,
             **bench.parse_run(_canned_stdout(0.2, rss))}
            for side, seed, rounds, rss in canned]
    runs.append({"workload": "w", "seed": 4, "side": "change", "correct": False,
                 "attempted": 0, "failed": 1, "metrics": {}})
    fits = bench.summarize(runs, END_TO_END)["w"]["rss_per_round"]
    assert fits["parent"] == {"mib_per_round": pytest.approx(0.6),
                              "intercept_mib": pytest.approx(48.5), "runs": 3}
    assert fits["change"] == {"mib_per_round": pytest.approx(0.1),
                              "intercept_mib": pytest.approx(48.0), "runs": 2}
    # one round count cannot give a slope
    one = [r for r in runs if r["side"] == "parent"][:1] * 2
    assert bench.summarize(one, END_TO_END)["w"]["rss_per_round"] == {"parent": None}


def test_bench_timed_out_run_is_a_failed_operation(monkeypatch):
    bench = _load("bench")

    def hang(cmd, **kwargs):
        raise bench.subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(bench.subprocess, "run", hang)
    run = bench._run(SCRIPTS.parent, "w", 1, 10)
    assert run == {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    runs = [{"workload": "w", "seed": 1, "side": "change", **run}]
    assert bench.summarize(runs, END_TO_END)["w"]["failed_ops"] == {"change": 1}


def test_bench_run_records_its_round_count(monkeypatch):
    # perfbench/run.py prints its check lines and the round times on stderr
    bench = _load("bench")
    stderr = ("ok   all 37 rounds returned identical outputs\n"
              "ok   waves._LEVEL_CACHE emptied before 37 of 37 rounds\n"
              "rounds 37: 0.2701 0.2655 0.2690\n")
    assert bench.parse_rounds(stderr) == 37
    assert bench.parse_rounds("ok   all 37 rounds returned identical outputs\n") is None
    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, **kw:
                        bench.subprocess.CompletedProcess(cmd, 0, _canned_stdout(0.27, 61.5),
                                                          stderr))
    run = bench._run(SCRIPTS.parent, "geometry-scans", 51, 10)
    assert run["rounds"] == 37 and run["metrics"] == {"study_s": 0.27, "peak_rss_mb": 61.5}


def test_bench_verify_reads_report_despite_failing_exit(monkeypatch):
    # verify exits 3 while a criterion fails; the seconds come from its JSON
    bench = _load("bench")
    report = {"experiment": "verify", "wall_clock_s": 31.5,
              "flags": {"criterion_7": False, "criterion_8": True},
              "summary": {"passed": 1, "total": 2, "seconds": {"7": 0.02, "8": 3.25}}}
    calls = []

    def fake_verify(cmd, **kwargs):
        calls.append((cmd, kwargs))
        out = Path(cmd[cmd.index("--out") + 1])
        (out / "verify-20260101-000000.json").write_text(json.dumps(report))
        return bench.subprocess.CompletedProcess(cmd, 3, "FAIL  criterion_7\n", "")

    monkeypatch.setattr(bench.subprocess, "run", fake_verify)
    got = bench._verify(SCRIPTS.parent)
    assert got == {"exit": 3, "seconds": {"7": 0.02, "8": 3.25}, "passed": 1, "total": 2,
                   "flags": {"criterion_7": False, "criterion_8": True}, "wall_clock_s": 31.5}
    (cmd, kwargs), = calls
    assert cmd[1:4] == ["-m", "eigenband", "verify"]
    assert kwargs["env"]["PYTHONPATH"] == str(SCRIPTS.parent / "src")
    assert kwargs["env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_bench_verify_without_report_records_exit(monkeypatch):
    bench = _load("bench")
    monkeypatch.setattr(bench.subprocess, "run", lambda cmd, **kw:
                        bench.subprocess.CompletedProcess(cmd, 1, "", "Traceback\n"))
    assert bench._verify(SCRIPTS.parent) == {"exit": 1}


def test_bench_traced_run_reads_per_layer_metrics(monkeypatch):
    bench = _load("bench")
    result = {"correct": True, "attempted": 12, "failed": 0,
              "metrics": {"basis.grid_s": {"value": 0.05, "unit": "s"},
                          "basis.stencil_s": {"value": 0.02, "unit": "s"}}}
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(cmd)
        return bench.subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    run = bench._run(SCRIPTS.parent, "sup-sphere", 51, 10, trace=1)
    assert run["metrics"] == {"basis.grid_s": 0.05, "basis.stencil_s": 0.02}
    assert seen[0][seen[0].index("--trace") + 1] == "1"


def test_bench_tier1_run_records_wall_time_and_counts(monkeypatch):
    bench = _load("bench")
    assert bench.parse_pytest_counts("....\n1 failed, 277 passed in 34.40s\n") == {
        "failed": 1, "passed": 277}
    assert bench.parse_pytest_counts("") == {}
    calls = []

    def fake_pytest(cmd, **kwargs):
        calls.append((cmd, kwargs))
        out = "FAILED tests/test_a.py::test_x\n1 failed, 3 passed, 2 errors in 9.1s\n"
        return bench.subprocess.CompletedProcess(cmd, 1, out, "")

    monkeypatch.setattr(bench.subprocess, "run", fake_pytest)
    got = bench._tier1(SCRIPTS.parent)
    assert got["exit"] == 1 and got["wall_s"] >= 0
    assert got["counts"] == {"failed": 1, "passed": 3, "errors": 2}
    assert got["failed_tests"] == ["tests/test_a.py::test_x"]
    (cmd, kwargs), = calls
    assert cmd[1:3] == ["-m", "pytest"] and "--continue-on-collection-errors" in cmd
    assert kwargs["cwd"] == SCRIPTS.parent
    assert kwargs["env"]["PYTHONPATH"] == str(SCRIPTS.parent / "src")


def test_bench_outputs_digest_each_jobs_csv(monkeypatch):
    # scripts/run_all.py writes one CSV and one JSON per job; only CSVs count
    bench = _load("bench")
    files = {"weyl-20260101-000000.csv": "a,b\n1,2\n",
             "weyl-20260101-000000.json": "{}\n",
             "band-20260101-000001.csv": "x\n",
             # two jobs of one subcommand, in one second: the second takes -1
             "supnorm-20260101-000009.csv": "sphere\n",
             "supnorm-20260101-000009-1.csv": "torus\n",
             "diameter-20260101-000010.csv": "sphere\n",
             "diameter-20260101-000011.csv": "torus\n"}
    calls = []

    def fake_run_all(cmd, **kwargs):
        calls.append((cmd, kwargs))
        out = Path(cmd[cmd.index("--out") + 1])
        for name, text in files.items():
            (out / name).write_text(text)
        return bench.subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run_all)
    got = bench._outputs(SCRIPTS.parent)
    sha = {text: bench.hashlib.sha256(text.encode()).hexdigest()
           for text in ("a,b\n1,2\n", "x\n", "sphere\n", "torus\n")}
    assert got == {"exit": 0, "csv_sha256": {
        "weyl": sha["a,b\n1,2\n"], "band": sha["x\n"],
        "supnorm": sha["sphere\n"], "supnorm.2": sha["torus\n"],
        "diameter": sha["sphere\n"], "diameter.2": sha["torus\n"]}}
    (cmd, kwargs), = calls
    assert cmd[1] == "scripts/run_all.py" and cmd[cmd.index("--seed") + 1] == "0"
    assert kwargs["cwd"] == SCRIPTS.parent
    assert kwargs["env"]["PYTHONPATH"] == str(SCRIPTS.parent / "src")
    assert kwargs["env"]["OPENBLAS_NUM_THREADS"] == "1"
    changed = {"exit": 0, "csv_sha256": {**got["csv_sha256"], "claim": "0f",
                                         "supnorm.2": "0e"}}
    del changed["csv_sha256"]["band"]
    assert bench.differing_outputs(got, got) == []
    assert bench.differing_outputs(got, changed) == ["band", "claim", "supnorm.2"]


def _write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_bench_report_records_each_sides_source_lines(tmp_path, monkeypatch):
    bench = _load("bench")
    change = tmp_path / "change"
    # only *.py files under src/ count, in every package
    _write_tree(change, {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/sub/b.py": "z = 3\n",
                         "src/pkg/notes.txt": "not code\n", "scripts/c.py": "w = 4\n",
                         "BENCHMARK.json": json.dumps({
                             "command": ["python3", "perfbench/run.py"], "run_seconds": 1,
                             "workloads": [{"name": "w"}], "end_to_end": END_TO_END})})
    parent_files = {"src/pkg/a.py": "x = 1\n"}
    assert bench.src_lines(change) == 3
    monkeypatch.setattr(bench, "ROOT", change)
    monkeypatch.setattr(bench, "_git", lambda *args: "0123abc")
    monkeypatch.setattr(bench, "_extract", lambda rev, dest: _write_tree(dest, parent_files))
    monkeypatch.setattr(bench, "_run", lambda root, workload, seed, seconds, trace=0: {
        "correct": True, "attempted": 1, "failed": 0, "metrics": {"study_s": 0.1}})
    monkeypatch.setattr(bench, "_verify", lambda root: {"exit": 0})
    monkeypatch.setattr(bench, "_tier1", lambda root: {"exit": 0})
    digests = {change: {"weyl": "aa", "band": "bb"}}
    monkeypatch.setattr(bench, "_outputs", lambda root: {
        "exit": 0, "csv_sha256": digests.get(root, {"weyl": "aa", "band": "cc"})})
    assert bench.main(["--pr", "7", "--parent", "HEAD", "--seeds", "1"]) == 0
    report = json.loads((change / "BENCH_7.json").read_text())
    assert report["src_lines"] == {"change": 3, "parent": 1}
    assert report["outputs"]["change"]["csv_sha256"] == {"weyl": "aa", "band": "bb"}
    assert report["outputs"]["parent"]["csv_sha256"] == {"weyl": "aa", "band": "cc"}
    assert report["outputs"]["differ"] == ["band"]
