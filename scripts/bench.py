#!/usr/bin/env python3
"""Paired end-to-end benchmark runs of this checkout against a parent revision.

Run from anywhere inside the repository:

    python3 scripts/bench.py --pr <n> --parent HEAD~1

Every workload of BENCHMARK.json runs for its `run_seconds` on each seed.
Each (workload, seed) runs `perfbench/run.py --trace 0` as a subprocess on
the "change" side (this checkout, as it stands on disk) and, with --parent
REV, on the "parent" side (REV's committed files, extracted by `git archive`
into a temporary directory that is deleted afterwards). A seed is one pair,
and the side that runs first alternates from seed to seed. A run that exits
non-zero or times out is recorded as one failed operation. Each side then
makes one `--trace 1` run per workload on the first seed, for the per-layer
metrics, one `eigenband verify` run, for the seconds of each acceptance
criterion (read from its JSON report: verify exits 3 while a criterion
fails), one tier-1 run (`python -m pytest -q
--continue-on-collection-errors` on its own sources), for its wall time,
its counts of passed and failed tests and the node ids of the failed ones,
and one `scripts/run_all.py --seed 0` run, for the sha256 of each job's
CSV. The result is BENCH_<pr>.json at the repository root: the environment,
every run's metrics and round count (`peak_rss_mb` grows with the rounds
a run keeps), each side's traced metrics, criterion seconds, tier-1
run, CSV digests and source size (lines of every `*.py` under `src/`, as
`wc -l` counts them), the jobs whose CSVs differ between the sides and,
per workload, each side's median and quartiles of every end-to-end metric
and its least-squares slope (MiB per round) and intercept of `peak_rss_mb`
against the round count, the number of pairs in which the change read
better, and a verdict on the change's median against the metric's bound.

Left out: the traced, verify and tier-1 runs are single runs, not paired
medians, so they show where time went rather than prove a gain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The result line of one perfbench run: correct, attempted, failed and
    {metric: value}."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def parse_rounds(stderr: str) -> int | None:
    """The round count from the `rounds N:` line that perfbench/run.py
    prints on stderr, None when there is no such line."""
    found = re.findall(r"^rounds (\d+):", stderr, flags=re.MULTILINE)
    return int(found[-1]) if found else None


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The relative change of the medians, and its verdict against bound:
    "unresolved" when the parent's quartile spread over its median exceeds
    bound and the two sides' runs overlap, else "worse" when the change's
    median is worse by more than bound, else "better" or "within bound"."""
    p = _quartiles(parent)
    rel = (statistics.median(change) - p["median"]) / p["median"]
    worse_by = rel if better == "lower" else -rel
    spread = (p["q3"] - p["q1"]) / p["median"]
    overlap = min(change) <= max(parent) and min(parent) <= max(change)
    if spread > bound and overlap:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "better" if worse_by < 0 else "within bound"
    return {"relative_change": rel, "bound": bound, "verdict": word}


def rss_per_round(runs: list[dict]) -> dict | None:
    """Least-squares slope (MiB per round) and intercept (MiB) of the runs'
    peak_rss_mb against their round counts, None below two distinct counts."""
    pts = [(r["rounds"], r["metrics"]["peak_rss_mb"]) for r in runs
           if r.get("rounds") is not None and "peak_rss_mb" in r["metrics"]]
    if len({x for x, _ in pts}) < 2:
        return None
    slope, intercept = statistics.linear_regression(*zip(*pts))
    return {"mib_per_round": slope, "intercept_mib": intercept, "runs": len(pts)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each side's median and quartiles of every metric of
    end_to_end (BENCHMARK.json's entries), the failed operations, each
    side's fit of peak_rss_mb against the round count (rss_per_round), for
    each metric how many seeds' pairs the change won (read lower) and tied,
    and the verdict on the change's median against the metric's bound."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {side: {r["seed"]: r["metrics"] for r in mine if r["side"] == side}
                   for side in SIDES}
        values = {side: {spec["name"]: [r["metrics"][spec["name"]] for r in mine
                                        if r["side"] == side and spec["name"] in r["metrics"]]
                         for spec in end_to_end}
                  for side in SIDES}
        entry: dict = {"failed_ops": {}, "sides": {}, "rss_per_round": {}, "pairs": {},
                       "verdicts": {}}
        for side in SIDES:
            rows = [r for r in mine if r["side"] == side]
            if not rows:
                continue
            entry["failed_ops"][side] = sum(r["failed"] for r in rows)
            entry["sides"][side] = {m: _quartiles(v) for m, v in values[side].items() if v}
            entry["rss_per_round"][side] = rss_per_round(rows)
        for spec in end_to_end:
            m = spec["name"]
            diffs = [by_seed["parent"][s][m] - by_seed["change"][s][m]
                     for s in by_seed["change"]
                     if m in by_seed["change"][s] and m in by_seed["parent"].get(s, {})]
            if diffs:
                entry["pairs"][m] = {"pairs": len(diffs),
                                     "change_won": sum(d > 0 for d in diffs),
                                     "ties": sum(d == 0 for d in diffs)}
            if values["parent"][m] and values["change"][m]:
                entry["verdicts"][m] = verdict(values["parent"][m], values["change"][m],
                                               spec["better"], spec["bound"])
        out[workload] = entry
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "cpu_count": os.cpu_count(), "platform": platform.platform()}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _extract(rev: str, dest: Path) -> None:
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench: git archive {rev} failed")


def _one_blas_thread(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _verify(root: Path) -> dict:
    """One `eigenband verify` run on root's sources, with one BLAS thread as
    in perfbench/run.py: the seconds and verdict of every criterion, read
    from its JSON report whatever the exit code."""
    env = _one_blas_thread(root)
    with tempfile.TemporaryDirectory(prefix="bench-verify-") as out:
        try:
            proc = subprocess.run([sys.executable, "-m", "eigenband", "verify", "--out", out],
                                  cwd=root, env=env, capture_output=True, text=True,
                                  timeout=3600)
        except subprocess.TimeoutExpired:
            print("bench: verify timed out", file=sys.stderr)
            return {"exit": None}
        reports = sorted(Path(out).glob("verify-*.json"))
        if not reports:
            sys.stderr.write(proc.stderr)
            return {"exit": proc.returncode}
        report = json.loads(reports[0].read_text())
    summary = report["summary"]
    return {"exit": proc.returncode,
            "seconds": {k: float(v) for k, v in summary["seconds"].items()},
            "passed": summary["passed"], "total": summary["total"],
            "flags": report["flags"], "wall_clock_s": report["wall_clock_s"]}


def parse_pytest_counts(stdout: str) -> dict:
    """{outcome: count} from the last line of `pytest -q`, such as
    "1 failed, 277 passed in 34.40s"."""
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    return {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", last.split(" in ")[0])}


def _tier1(root: Path) -> dict:
    """One tier-1 run on root's sources, with one BLAS thread and no pytest
    cache: its exit code, wall time, {outcome: count} and the node ids of
    its failed tests."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=_one_blas_thread(root), capture_output=True,
                              text=True, timeout=3600)
    except subprocess.TimeoutExpired:
        print("bench: tier-1 timed out", file=sys.stderr)
        return {"exit": None}
    return {"exit": proc.returncode, "wall_s": time.perf_counter() - t0,
            "counts": parse_pytest_counts(proc.stdout),
            # `pytest -q` may end a "FAILED <id>" line with " - <message>"
            "failed_tests": [line[len("FAILED "):].split(" - ")[0]
                             for line in proc.stdout.splitlines() if line.startswith("FAILED ")]}


def job_keys(names: list[str]) -> dict[str, str]:
    """A key for each CSV name `<subcommand>-<date>-<time>[-<k>].csv` that
    eigenband writes: the subcommand for its first job, then `.2`, `.3`, ...
    for its later ones, in the order the names were written."""
    def written(name: str):
        stem = name[:-len(".csv")].split("-")
        return stem[1:3], int(stem[3]) if len(stem) > 3 else 0

    keys: dict[str, str] = {}
    seen: dict[str, int] = {}
    for name in sorted(names, key=written):
        job = name.split("-")[0]
        seen[job] = seen.get(job, 0) + 1
        keys[name] = job if seen[job] == 1 else f"{job}.{seen[job]}"
    return keys


def _outputs(root: Path) -> dict:
    """One `scripts/run_all.py --seed 0` run on root's sources, with one BLAS
    thread: its exit code and the sha256 of each job's CSV, keyed as
    job_keys says."""
    with tempfile.TemporaryDirectory(prefix="bench-outputs-") as out:
        try:
            proc = subprocess.run([sys.executable, "scripts/run_all.py", "--out", out,
                                   "--seed", "0"], cwd=root, env=_one_blas_thread(root),
                                  capture_output=True, text=True, timeout=3600)
        except subprocess.TimeoutExpired:
            print("bench: run_all timed out", file=sys.stderr)
            return {"exit": None, "csv_sha256": {}}
        paths = {path.name: path for path in Path(out).glob("*.csv")}
        digests = {key: hashlib.sha256(paths[name].read_bytes()).hexdigest()
                   for name, key in job_keys(list(paths)).items()}
    return {"exit": proc.returncode, "csv_sha256": digests}


def differing_outputs(parent: dict, change: dict) -> list[str]:
    """The jobs whose CSV digests differ between two _outputs records, or
    that only one side wrote."""
    a, b = parent["csv_sha256"], change["csv_sha256"]
    return sorted(job for job in a.keys() | b.keys() if a.get(job) != b.get(job))


def src_lines(root: Path) -> int:
    """Lines of every *.py file in the src directory of a checkout, as `wc -l` counts."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src").rglob("*.py"))


def _run(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    failed = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=30 * seconds + 600)
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} seed {seed} timed out", file=sys.stderr)
        return failed
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return failed
    return {**parse_run(proc.stdout), "rounds": parse_rounds(proc.stderr)}


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    ap.add_argument("--parent", help="git revision to pair every run with")
    ap.add_argument("--seeds", default="51-60", help="lo-hi or a comma list")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        roots = {"change": ROOT}
        if args.parent:
            _extract(args.parent, Path(tmp))
            roots["parent"] = Path(tmp)
        runs = []
        for workload in (w["name"] for w in spec["workloads"]):
            for i, seed in enumerate(seeds):
                order = [s for s in SIDES if s in roots]
                if i % 2:
                    order.reverse()
                for side in order:
                    t0 = time.perf_counter()
                    run = _run(roots[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": side == order[0], **run})
                    print(f"{workload} seed {seed} {side}: {run['metrics']} "
                          f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
        traced = {side: {} for side in roots}
        criteria, tier1, outputs = {}, {}, {}
        for side in roots:
            for workload in (w["name"] for w in spec["workloads"]):
                traced[side][workload] = _run(roots[side], workload, seeds[0], seconds, trace=1)
                print(f"{workload} traced {side}: {traced[side][workload]['failed']} failed",
                      file=sys.stderr)
            criteria[side] = _verify(roots[side])
            print(f"verify {side}: {criteria[side].get('seconds')}", file=sys.stderr)
            tier1[side] = _tier1(roots[side])
            print(f"tier-1 {side}: {tier1[side]}", file=sys.stderr)
            outputs[side] = _outputs(roots[side])
            print(f"outputs {side}: exit {outputs[side]['exit']}", file=sys.stderr)
        sizes = {side: src_lines(root) for side, root in roots.items()}
    if "parent" in outputs:
        outputs["differ"] = differing_outputs(outputs["parent"], outputs["change"])

    report = {"pr": args.pr, "environment": environment(),
              "settings": {"command": spec["command"], "seconds": seconds,
                           "seeds": seeds, "trace": 0, "traced_seed": seeds[0]},
              "revisions": {"change": _git("rev-parse", "HEAD")
                            + (" + uncommitted changes" if _git("status", "--porcelain") else ""),
                            **({"parent": _git("rev-parse", args.parent)} if args.parent else {})},
              "summary": summarize(runs, spec["end_to_end"]), "runs": runs,
              "traced": traced, "criteria": criteria, "tier1": tier1, "outputs": outputs,
              "src_lines": sizes}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
