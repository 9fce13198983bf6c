#!/usr/bin/env python3
"""Drive every experiment subcommand once and collect outputs under runs/.

Intended as a smoke run at modest scale, not the acceptance gate; use
`eigenband verify` (or --include-verify here) for the full criteria.
"""

import argparse
import sys

from eigenband import cli

JOBS = [
    ("weyl", ["--lambdas", "10,60", "--samples", "10"]),
    ("band", ["--lambdas", "1,9,20,40"]),
    ("lipschitz", ["--lambdas", "30,60", "--pairs", "2000"]),
    ("profile", ["--lambda", "60"]),
    ("isometry", ["--lambda", "60", "--samples", "10"]),
    ("supnorm", ["--lambdas", "20,40,80,160", "--samples", "60"]),
    ("dudley", ["--lambda", "40", "--samples", "60", "--substrate", "8000"]),
    ("diameter", ["--kind", "sphere2", "--lambdas", "20,40"]),
    ("supnorm", ["--kind", "torus", "--lambdas", "20,40"]),
    ("dudley", ["--kind", "torus", "--lambda", "10", "--samples", "60"]),
    ("diameter", ["--kind", "torus", "--lambdas", "20,40", "--substrate", "250000"]),
    ("covering", ["--lambda", "9", "--substrate", "8000"]),
    ("claim", []),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--include-verify", action="store_true",
                    help="also run the acceptance criteria (minutes)")
    args = ap.parse_args(argv)

    jobs = list(JOBS)
    if args.include_verify:
        jobs.append(("verify", []))

    failures = []
    for name, extra in jobs:
        argv_job = [name, "--out", args.out, "--seed", str(args.seed)] + extra
        print(f"== eigenband {' '.join(argv_job)}")
        code = cli.main(argv_job)
        if code != 0:
            failures.append((name, code))
    for name, code in failures:
        print(f"FAILED {name}: exit {code}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
