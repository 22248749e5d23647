"""relheat benchmark: one workload, whole rounds for a fixed time, medians.

    python3 perfbench/run.py --workload trace_ball --seed 1 --seconds 30 --trace 0

Run from the root of a relheat checkout (it needs `src/relheat`).  Each
round is a fresh interpreter (`perfbench/round.py`) that imports relheat,
builds the workload's inputs from (seed, round index) and makes the
estimator calls, so every round pays the cold caches a user pays.  Rounds
repeat until `--seconds` have passed.  The rounds' estimates are then
averaged and checked (see workloads.py).

With `--trace 0` the last line of standard output carries the end-to-end
metrics, the medians over rounds.  With `--trace 1` each round runs twice,
untraced then traced, on the same inputs; the line carries the per-layer
metrics of the traced rounds and the tracing overhead (traced minus
untraced `wall_s`), and a traced round must reproduce its untraced twin's
estimates exactly.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Op, pool_rounds  # noqa: E402

# every run, its last round included, must end well inside 180 s
ROUND_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_round(root, workload, seed, round_index, trace, workdir, timeout):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "round.py"), workload, str(seed), str(round_index),
           repr(time.monotonic()), "1" if trace else "0", workdir]
    # a session of its own, so that the round's pool workers go with it
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, start_new_session=True)
    previous = signal.signal(signal.SIGTERM, lambda *_: (_kill_group(proc.pid), sys.exit(143)))
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{workload} round exceeded {timeout:.0f} s")
    finally:
        _kill_group(proc.pid)
        signal.signal(signal.SIGTERM, previous)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round exited with {proc.returncode}")
    report = json.loads(lines[-1])
    print(f"{workload} seed {seed} round {round_index}{' traced' if trace else ''}: "
          f"setup {report['setup_s']:.3f} s, wall {report.get('wall_s', float('nan')):.3f} s",
          file=sys.stderr)
    return report


def end_to_end(rounds):
    done = [r for r in rounds if "wall_s" in r]
    if not done:
        raise BenchError("no round completed its operations")
    med = statistics.median
    return {
        "setup_s": (med(r["setup_s"] for r in rounds), "s"),
        "wall_s": (med(r["wall_s"] for r in done), "s"),
        "paths_per_s": (med(r["n_samples"] / r["wall_s"] for r in done), "1/s"),
        "relvar_time_s": (med(r["relvar"] * r["wall_s"] for r in done), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(plain, traced, units):
    done = [r for r in plain if "wall_s" in r]
    traced_done = [r for r in traced if "wall_s" in r]
    if not done or not traced_done:
        raise BenchError("no round completed its operations")
    med = statistics.median
    out = {name: (med(r["layers"][name] for r in traced), units[name]) for name in traced[0]["layers"]}
    wall = med(r["wall_s"] for r in done)
    overhead = med(r["wall_s"] for r in traced_done) - wall
    out["trace.overhead_s"] = (overhead, units["trace.overhead_s"])
    out["trace.overhead_share"] = (overhead / wall, units["trace.overhead_share"])
    return out


def _estimates(report):
    return [(op["value"], op["stderr"], op["n_samples"]) for op in report.get("ops", [])]


def problems_of(workload, root, plain, traced):
    """Checks on the mean of the rounds' estimates, plus: tracing must not
    change what a round computes."""
    done = [[Op(**op) for op in r["ops"]] for r in plain if "ops" in r]
    problems = WORKLOADS[workload].check(pool_rounds(done), root) if done else []
    for untraced, r in zip(plain, traced):
        if "ops" in r and "ops" in untraced and _estimates(r) != _estimates(untraced):
            problems.append("a traced round's estimates differ from its untraced twin's")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "relheat", "__init__.py")):
        print("error: run from the root of a relheat checkout (no src/relheat here)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    workdir = os.path.join(HERE, "runs", args.workload)
    start = time.monotonic()
    plain, traced = [], []
    try:
        while True:
            k = len(plain)
            plain.append(run_round(root, args.workload, args.seed, k, False, workdir,
                                   ROUND_DEADLINE_S - (time.monotonic() - start)))
            if args.trace:
                traced.append(run_round(root, args.workload, args.seed, k, True, workdir,
                                        ROUND_DEADLINE_S - (time.monotonic() - start)))
            if time.monotonic() - start >= args.seconds:
                break
        metrics = per_layer(plain, traced, units) if args.trace else end_to_end(plain)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = problems_of(args.workload, root, plain, traced)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = plain + traced
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
