#!/usr/bin/env python3
"""Discrete-monitoring bias study for the boundary profile estimator.

Estimates f_H(t, q) at one boundary distance on `--levels` grids of
base_steps x 2^j steps and prints each level's value, the successive
differences, from three levels on the empirical bias order of the last
three, and the Richardson value of the two finest levels, to inform the
extrapolation-order choice.

The levels are coupled: one march on the finest grid, drawn on
rng.substream(0), scores every level, level j reading every
2^(levels - 1 - j)-th step (as the estimators' ladder does), so the
differences share each path's noise.

    PYTHONPATH=src python scripts/bias_ladder.py --alpha 1.5 --levels 4
"""

import argparse
import math

import numpy as np

from relheat.geometry import HalfSpace
from relheat.sampler import RngStream
from relheat.specfun import ProcessParams
from relheat.tracelab import _from_moments, _r_moments


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
    if args.levels < 1 or args.base_steps < 1:
        ap.error("--levels and --base-steps must be >= 1")

    params = ProcessParams(alpha=args.alpha, m=args.m, d=args.d)
    x = np.zeros(args.d)
    x[0] = args.q
    n_steps = args.base_steps * 2 ** (args.levels - 1)
    grid = (args.t, n_steps, args.t / n_steps, args.levels)
    request = (grid, x, args.n_paths, RngStream(args.seed, 0).substream(0))
    ((moments, _),) = _r_moments([request], HalfSpace(d=args.d), params, workers=1)
    n, means, m2 = moments

    values = means[:-1]
    for level, (value, level_m2) in enumerate(zip(values, m2)):
        steps = args.base_steps * 2**level
        print(f"steps={steps:5d}: f = {value:.6f} +- {math.sqrt(level_m2 / (n - 1) / n):.6f}")

    print("\nladder differences (finer minus coarser):")
    for a, b in zip(values[:-1], values[1:]):
        print(f"  {b - a:+.6f}")
    if len(values) >= 3:
        d1 = values[-2] - values[-3]
        d2 = values[-1] - values[-2]
        if d1 != 0 and d2 / d1 > 0:
            order = -np.log2(d2 / d1)
            print(f"empirical bias order from the last three levels: {order:.2f}")
    if len(values) >= 2:
        est = _from_moments(moments, grid, {})
        print(f"Richardson value of the two finest levels: {est.value:.6f} +- {est.stderr:.6f}")


if __name__ == "__main__":
    main()
