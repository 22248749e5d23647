#!/usr/bin/env python3
"""Discrete-monitoring bias study for the boundary profile estimator.

Estimates f_H(t, q) at one boundary distance on `--levels` grids of
base_steps x 2^j steps and prints each level's value, the successive
differences, and, from three levels on, the empirical bias order of the
last three, to inform the extrapolation-order choice.

Each level is an independent one-level `r_estimate` call on its own stream
(level j on substream(j)), not the estimators' coupled march, which scores
two levels off one fine path: the differences carry both levels' full
Monte Carlo noise.

    PYTHONPATH=src python scripts/bias_ladder.py --alpha 1.5 --levels 4
"""

import argparse

import numpy as np

from relheat.geometry import HalfSpace
from relheat.sampler import RngStream
from relheat.specfun import ProcessParams
from relheat.tracelab import r_estimate


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--m", type=float, default=0.0)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--t", type=float, default=1.0)
    ap.add_argument("--q", type=float, default=0.05)
    ap.add_argument("--n-paths", type=int, default=150_000)
    ap.add_argument("--levels", type=int, default=5)
    ap.add_argument("--base-steps", type=int, default=16)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    params = ProcessParams(alpha=args.alpha, m=args.m, d=args.d)
    half = HalfSpace(d=args.d)
    x = np.zeros(args.d)
    x[0] = args.q
    rng = RngStream(args.seed, 0)

    values = []
    for level in range(args.levels):
        steps = args.base_steps * 2**level
        est = r_estimate(
            args.t, x, half, args.n_paths, args.t / steps, rng.substream(level), params
        )
        values.append(est)
        print(f"steps={steps:5d}: f = {est.value:.6f} +- {est.stderr:.6f}")

    print("\nladder differences (finer minus coarser):")
    for a, b in zip(values[:-1], values[1:]):
        print(f"  {b.value - a.value:+.6f}")
    if len(values) >= 3:
        d1 = values[-2].value - values[-3].value
        d2 = values[-1].value - values[-2].value
        if d1 != 0 and d2 / d1 > 0:
            order = -np.log2(d2 / d1)
            print(f"empirical bias order from the last three levels: {order:.2f}")


if __name__ == "__main__":
    main()
