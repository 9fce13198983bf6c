#!/usr/bin/env python3
"""Benchmark of eigenband's sup-norm, covering-net and embedding-geometry studies.

Run from the repository root:

    python3 perfbench/run.py --workload sup-sphere --seed 1 --seconds 10 --trace 0

The run builds the workload's inputs from --seed, then repeats whole rounds
of the workload's timed calls until --seconds have passed, checks the last
round's outputs against independent computations, and prints one JSON
object as the last line of standard output. --trace 0 reports the end-to-end
metrics; --trace 1 wraps eigenband's public functions and reports the
per-layer metrics instead, writing the spans under perfbench/runs/.
"""

from __future__ import annotations

import time

RUN_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: steadier than two on a shared 2-core machine, and the
# GEMMs here are small enough that a second thread buys little
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is timed this many times per run: once here, and in fresh processes
# half before the study and half after it, so the median spans the whole run
SETUP_SAMPLES = 7


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up seconds and exit")
    return ap.parse_args(argv)


def _import_program():
    """Import eigenband from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "eigenband" / "__init__.py").is_file():
        sys.exit(f"perfbench: no eigenband sources under {src}")
    sys.path.insert(0, str(src))
    import eigenband

    if Path(eigenband.__file__).resolve().parent != (src / "eigenband").resolve():
        sys.exit(f"perfbench: imported eigenband from {eigenband.__file__}, not {src}")


def _clear_program_caches() -> bool:
    """Empty the sup-norm level cache, so that every round starts cold.

    False when the cache is not where this benchmark expects it: then rounds
    after the first could reuse cached mode matrices, and a run reports that
    as a failed check rather than as a faster study.
    """
    from eigenband import waves

    cache = getattr(waves, "_LEVEL_CACHE", None)
    if not isinstance(cache, dict):
        return False
    cache.clear()
    gc.collect()
    return True


def _setup_in_fresh_processes(args, count: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - RUN_START
    if args.setup_only:
        print(repr(setup_s))
        return 0

    attempted = failed = 0
    op_times: dict[str, list[float]] = {}

    def op(label, fn, *a, **kw):
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*a, **kw)
        except Exception:
            failed += 1
            print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        op_times.setdefault(label, []).append(time.perf_counter() - t0)
        return result

    setups = [setup_s]
    if not args.trace:
        setups += _setup_in_fresh_processes(args, (SETUP_SAMPLES - 1) // 2)

    round_times, summaries, cleared = [], [], []
    study_start = time.perf_counter()
    while not round_times or time.perf_counter() - study_start < args.seconds:
        cleared.append(_clear_program_caches())
        if tracer:
            tracer.phase = len(round_times)
        t0 = time.perf_counter()
        outputs = workload.run_round(inputs, op)
        round_times.append(time.perf_counter() - t0)
        summaries.append(repr(outputs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.phase = "checks"
    checks = [(len(set(summaries)) == 1,
               f"all {len(summaries)} rounds returned identical outputs"),
              (all(cleared), f"waves._LEVEL_CACHE emptied before {sum(cleared)} of "
                             f"{len(cleared)} rounds")]
    checks += workload.checks(inputs, outputs)
    for ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {detail}", file=sys.stderr)
    attempted += len(checks)
    failed += sum(not ok for ok, _ in checks)

    if tracer:
        metrics = tracer.per_layer(op_times, round_times)
        runs = HERE / "runs"
        runs.mkdir(exist_ok=True)
        tracer.dump(runs / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        setups += _setup_in_fresh_processes(args, SETUP_SAMPLES - len(setups))
        metrics = {"study_s": (statistics.median(round_times), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
    print(f"rounds {len(round_times)}: " + " ".join(f"{t:.4f}" for t in round_times),
          file=sys.stderr)
    print(json.dumps({"correct": all(ok for ok, _ in checks), "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
