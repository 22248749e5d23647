"""One benchmark round in a fresh interpreter.

    python3 perfbench/round.py WORKLOAD SEED ROUND T0 TRACE WORKDIR

Run from the root of a relheat checkout.  T0 is the parent's
`time.monotonic()` just before it started this process, so `setup_s`
covers interpreter start, imports and input construction up to the first
estimator call.  With TRACE=1 the tracer is installed before that call and
its spans are written to WORKDIR/trace.json.  The last line of standard
output is one JSON object with this round's figures and estimates.
"""

import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict


def main(argv):
    workload, seed, round_index = argv[0], int(argv[1]), int(argv[2])
    t0, trace, workdir = float(argv[3]), argv[4] == "1", argv[5]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.prepare(seed, round_index, workdir)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - t0
    try:
        ops = wl.run(inputs)
    except Exception:  # the round's operations count as failed
        traceback.print_exc()
        ops = None
    report = {
        "setup_s": setup_s,
        "attempted": wl.ops_per_round,
        "failed": wl.ops_per_round if ops is None else 0,
        # for the pool workload RUSAGE_CHILDREN is its largest worker
        "peak_rss_mb": max(
            resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024.0,
    }
    if ops is not None:
        value, stderr = wl.headline(ops)
        report.update(
            wall_s=sum(op.wall_s for op in ops),
            n_samples=sum(op.n_samples for op in ops),
            relvar=(stderr / value) ** 2,
            ops=[asdict(op) for op in ops],
        )
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(workdir, "trace.json"))
        from tracer import layer_metrics

        report["layers"] = layer_metrics(tracer.spans, tracer.counts)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
