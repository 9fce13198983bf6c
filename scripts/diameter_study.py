#!/usr/bin/env python3
"""Convergence study for the embedded diameter of a flat torus band.

The farthest-point estimate over a finite substrate climbs toward the
true diameter as the substrate is refined, while the naive flat
reference sqrt(2)/sqrt(vol) assumes the band kernel decays to zero at
the farthest pair. On the torus the kernel minimum is markedly
negative, so the true diameter sits well above the flat reference.
This script shows both: grid refinement on one axis, an exhaustive
kernel minimum over offset space as the resolution-independent limit.
"""

import argparse
import math
import sys

from eigenband import embed as em
from eigenband import manifold as mf


def kernel_min_route(emb, grid=401):
    """Diameter via the translation-invariant kernel minimum.

    On the torus E(x, y) depends only on the offset x - y, so the
    farthest pair realizes min_delta E(delta) exactly. The kernel is
    even in each offset component, so the full product grid with
    2 (grid - 1) nodes per axis holds the quarter-domain offset grid of
    grid^2 points at the same spacing; diameter_estimate scans it by one
    inverse FFT. c_min = min E * vol / m follows from
    d^2 = 2 (m/vol) (1 - c_min) / k^2.
    """
    band, model = emb.band, emb.model
    d = em.diameter_estimate(emb, (2 * (grid - 1)) ** 2)
    c_min = 1.0 - (d * band.k_lambda) ** 2 * model.volume / (2.0 * band.m_lambda)
    return d, c_min


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=40.0)
    ap.add_argument("--sizes", default="1000,4000,16000,64000,250000")
    ap.add_argument("--offset-grid", type=int, default=401)
    args = ap.parse_args(argv)

    model = mf.flat_torus((2.0 * math.pi, 2.0 * math.pi))
    emb = em.make_embedding(model, args.lam)
    flat_ref = math.sqrt(2.0) / math.sqrt(model.volume)

    print(f"torus {model.side_lengths}, lambda = {args.lam:g}, "
          f"band dim = {emb.band.m_lambda}")
    print(f"flat reference sqrt(2/vol)      : {flat_ref:.5f}")
    limit, c_min = kernel_min_route(emb, args.offset_grid)
    print(f"kernel-min route (grid {args.offset_grid}^2): {limit:.5f}   "
          f"(kernel min / diagonal = {c_min:+.4f})")
    print(f"rel deviation from flat ref     : {limit / flat_ref - 1.0:+.4f}")
    print()
    print(f"{'substrate':>10} {'diameter':>10} {'vs flat':>9} {'vs limit':>9}")
    for n in (int(s) for s in args.sizes.split(",")):
        d = em.diameter_estimate(emb, n)
        print(f"{n:>10d} {d:>10.5f} {d / flat_ref - 1.0:>+9.4f} "
              f"{d / limit - 1.0:>+9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
