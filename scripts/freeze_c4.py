#!/usr/bin/env python3
"""High-precision estimate of the stable half-space boundary constant C4.

Writes the frozen reference (value, stderr, settings) used as a regression
fixture and shown by the `constants` subcommand.  Rerun only to regenerate
the fixture; at its defaults (8M paths, each scoring both ladder levels
of one march) it takes about 2 min on one core of a 2-core Xeon.

Each entry names the bit generator that drew it.  The shipped entry was
drawn on Philox streams; `RngStream` now builds SFC64 streams, so seed 777
no longer redraws that sample, and a rerun draws a new, equally valid one.
"""

import argparse
import json
import os

from relheat.sampler import RngStream
from relheat.specfun import ProcessParams
from relheat.tracelab import c4_const


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-paths", type=int, default=8_000_000)
    ap.add_argument("--steps", type=int, default=128)
    ap.add_argument("--seed", type=int, default=777)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "src", "relheat", "data", "c4_reference.json"))
    args = ap.parse_args()

    params = ProcessParams(alpha=args.alpha, m=0.0, d=args.d)
    rng = RngStream(args.seed, 0)
    est = c4_const(args.n_paths, 1.0 / args.steps, rng, params)
    entry = {
        "d": args.d,
        "alpha": args.alpha,
        "value": est.value,
        "stderr": est.stderr,
        "n_paths": args.n_paths,
        "steps": args.steps,
        "seed": args.seed,
        "extrapolated": True,
        "generator": type(rng.generator().bit_generator).__name__,
    }
    path = os.path.abspath(args.out)
    data = {"entries": []}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data["entries"] = [
        e for e in data["entries"] if not (e["d"] == args.d and e["alpha"] == args.alpha)
    ] + [entry]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    print(f"C4(d={args.d}, alpha={args.alpha}) = {est.value:.6f} +- {est.stderr:.6f}")
    print(f"{est.meta['records_per_path']:.1f} records per path at the fine level; written to {path}")


if __name__ == "__main__":
    main()
