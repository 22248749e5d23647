"""The benchmark's workloads: inputs made from the seed, the estimator calls,
and the checks on their outputs.

Each workload is one round of work.  `prepare(seed, round_index, workdir)`
imports relheat and builds the round's inputs, `run(inputs)` makes the
estimator calls and returns one `Op` per call, and `check(ops, root)`
returns a list of problems, empty when every output is right.  A run's
rounds are independent replicates: each draws its own random stream from
(seed, round index), and the checks see the mean of the rounds' estimates.
The checks compare against closed forms, the frozen C4 reference, a Fourier
quadrature written here, or an exact scaling identity of the process;
never against stored outputs.

Estimators are called through their module attribute (`tracelab.z_trace`,
`cli.main`) so that the tracer's wrappers, when installed, see the call.
"""

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field

from scipy.integrate import quad

Z_SIGMA = 3.0


@dataclass
class Op:
    """One estimator call: its headline numbers and how long it took."""

    name: str
    value: float
    stderr: float
    n_samples: int
    wall_s: float
    extra: dict = field(default_factory=dict)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def mean_estimate(pairs):
    """Mean of independent (value, stderr) estimates of equal budget, with
    its standard error.  Equal weights: weighting by the estimated stderr
    would favour replicates whose heavy-tailed scores happened to be small."""
    k = len(pairs)
    return sum(v for v, _ in pairs) / k, math.sqrt(sum(se**2 for _, se in pairs)) / k


def pool_rounds(rounds):
    """Per-operation mean over the rounds' Op lists."""
    pooled = []
    for ops in zip(*rounds):
        value, stderr = mean_estimate([(op.value, op.stderr) for op in ops])
        pooled.append(Op(ops[0].name, value, stderr, sum(op.n_samples for op in ops),
                         sum(op.wall_s for op in ops), dict(ops[0].extra)))
    return pooled


def reference_c4(root, d=2, alpha=1.0):
    """The frozen (value, stderr) of C4 shipped with relheat."""
    path = os.path.join(root, "src", "relheat", "data", "c4_reference.json")
    with open(path) as fh:
        for entry in json.load(fh)["entries"]:
            if entry["d"] == d and abs(entry["alpha"] - alpha) < 1e-12:
                return entry["value"], entry["stderr"]
    raise LookupError(f"no frozen C4 for d={d}, alpha={alpha}")


# ---------------------------------------------------------------------------
# trace_ball: z_trace on the unit disc, alpha=1, m=1, t=0.02, extrapolated
# ---------------------------------------------------------------------------

class TraceBall:
    name = "trace_ball"
    ops_per_round = 1
    # criterion 5's shape (t, m, domain, steps, extrapolation) at 1/9 of its
    # n_x * n_paths budget, so one round takes a few seconds
    T, M, R, STEPS = 0.02, 1.0, 1.0, 64
    N_X, N_PATHS = 1000, 100

    def prepare(self, seed, round_index, workdir):
        from relheat import Ball, ProcessParams, RngStream

        return {
            "params": ProcessParams(alpha=1.0, m=self.M, d=2),
            "ball": Ball(center=(0.0, 0.0), radius=self.R, d=2),
            "rng": RngStream(seed, 5).substream(round_index),
        }

    def run(self, inputs):
        from relheat import tracelab

        est, wall = timed(
            tracelab.z_trace,
            self.T, inputs["ball"], self.N_X, self.N_PATHS, self.T / self.STEPS,
            inputs["rng"], inputs["params"], extrapolate=True,
        )
        return [Op("z_trace", est.value, est.stderr, est.n_samples, wall,
                   {"first_term": est.meta["first_term"]})]

    def headline(self, ops):
        return ops[0].value, ops[0].stderr

    def check(self, ops, root):
        (z,) = ops
        return check_trace_ball(z.value, z.stderr, z.extra["first_term"],
                                self.T, self.M, self.R, reference_c4(root)[0])


def check_trace_ball(value, stderr, first_term, t, m, radius, c4):
    """Small-time limit, two-term estimate and exact first term on a disc
    (d=2, alpha=1), in the normalised units t^{d/alpha} e^{-mt} Z."""
    problems = []
    area, perimeter = math.pi * radius**2, 2.0 * math.pi * radius
    norm = t**2 * math.exp(-m * t)
    zn, se = norm * value, norm * stderr
    # C1 = omega_2 Gamma(2) / ((2 pi)^2 alpha) = 1/(2 pi); for alpha=1 the
    # Fourier integral of e^{-t(sqrt(m^2+|xi|^2)-m)} gives
    # C1(t) = e^{-mt} (1 + mt) / (2 pi) in closed form
    c1 = 1.0 / (2.0 * math.pi)
    c1_t = math.exp(-m * t) * (1.0 + m * t) / (2.0 * math.pi)
    exact_first = c1_t * math.exp(m * t) * area / t**2
    if abs(first_term - exact_first) > 1e-7 * exact_first:
        problems.append(f"first term {first_term!r} != closed form {exact_first!r}")
    band = max(Z_SIGMA * se, 0.05 * c1 * area)
    if abs(zn - c1 * area) > band:
        problems.append(f"t^2 e^-mt Z = {zn:.5f} outside {c1 * area:.5f} +- {band:.5f}")
    two_term = c1_t * area - c4 * perimeter * t * math.exp(-m * t)
    tol = Z_SIGMA * se + remainder_bound(t, area, radius)
    if abs(zn - two_term) > tol:
        problems.append(
            f"t^2 e^-mt Z = {zn:.5f} differs from two-term {two_term:.5f} by more than {tol:.5f}"
        )
    return problems


def remainder_bound(t, area, radius, c3=1.0):
    """The theorem's remainder C3 |D| t^{2/alpha} / R^2 for alpha=1, in
    normalised units; perfbench/README.md explains the choice c3 = 1."""
    return c3 * area * t**2 / radius**2


# ---------------------------------------------------------------------------
# c4_halfspace: C2(0.25) and C4 on the half-space, alpha=1, m=0
# ---------------------------------------------------------------------------

class C4Halfspace:
    name = "c4_halfspace"
    ops_per_round = 2
    # criterion 8's mass-zero cross-check, on the frozen reference's grid
    # (steps=128), where the residual monitoring bias cancels against it
    T, STEPS, N_PATHS = 0.25, 128, 30_000

    def prepare(self, seed, round_index, workdir):
        from relheat import ProcessParams, RngStream

        return {
            "params": ProcessParams(alpha=1.0, m=0.0, d=2),
            "rng": RngStream(seed, 10).substream(round_index),
        }

    def run(self, inputs):
        from relheat import tracelab

        params, rng = inputs["params"], inputs["rng"]
        c2, wall_c2 = timed(
            tracelab.c2_of_t,
            self.T, self.N_PATHS, self.T / self.STEPS, rng.substream(0), params,
        )
        c4, wall_c4 = timed(
            tracelab.c4_const,
            self.N_PATHS, 1.0 / self.STEPS, rng.substream(1), params,
        )
        return [
            Op("c2_of_t", c2.value, c2.stderr, c2.n_samples, wall_c2),
            Op("c4_const", c4.value, c4.stderr, c4.n_samples, wall_c4),
        ]

    def headline(self, ops):
        """C4, estimated twice: by C2(T) rescaled and by c4_const."""
        c2, c4 = ops
        scale = self.T  # t^{(d-1)/alpha} with d=2, alpha=1
        return mean_estimate([(c2.value * scale, c2.stderr * scale), (c4.value, c4.stderr)])

    def check(self, ops, root):
        c2, c4 = ops
        ref, ref_se = reference_c4(root)
        return check_c4(c2.value, c2.stderr, c4.value, c4.stderr, ref, ref_se, self.T)


def check_c4(c2, c2_se, c4, c4_se, ref, ref_se, t, d=2, alpha=1.0):
    """m=0 self-similarity C2(t) t^{(d-1)/alpha} = C4, and C4 against the
    frozen reference, each within Z_SIGMA joint standard errors."""
    problems = []
    scale = t ** ((d - 1.0) / alpha)
    joint = math.hypot(c2_se * scale, c4_se)
    if abs(c2 * scale - c4) > Z_SIGMA * joint:
        problems.append(f"C2({t}) t^(d-1) = {c2 * scale:.6f} vs C4 = {c4:.6f}: joint se {joint:.2g}")
    joint_ref = math.hypot(c4_se, ref_se)
    if abs(c4 - ref) > Z_SIGMA * joint_ref:
        problems.append(f"C4 = {c4:.6f} vs frozen {ref:.6f}: joint se {joint_ref:.2g}")
    return problems


# ---------------------------------------------------------------------------
# trace_alpha15_pool: two `relheat trace` runs, alpha=1.5, two workers
# ---------------------------------------------------------------------------

class TraceAlpha15Pool:
    name = "trace_alpha15_pool"
    ops_per_round = 2
    ALPHA, T, M, LAM = 1.5, 0.05, 1.0, 2.0
    # small enough that a round (two cold runs, each building theta_0.75 and
    # its kernel tables) stays near 20 s; 64-point chunks give every large
    # stratum several chunks, so the pool is used
    N_X, N_PATHS, STEPS, CHUNK_POINTS, WORKERS = 600, 50, 8, 64, 2

    def cases(self):
        """(radius, t, m) of the two runs: B_1 at (t, m) and B_lam at
        (lam^alpha t, lam^-alpha m)."""
        s = self.LAM**self.ALPHA
        return [(1.0, self.T, self.M), (self.LAM, s * self.T, self.M / s)]

    def prepare(self, seed, round_index, workdir):
        from relheat import cli  # noqa: F401  (its import belongs to set-up)

        cfg = os.path.join(workdir, "pool.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"chunk_points = {self.CHUNK_POINTS}\n")
        argvs = []
        for i, (radius, t, m) in enumerate(self.cases()):
            argvs.append([
                "trace", "--config", cfg, "--alpha", repr(self.ALPHA), "--m", repr(m),
                "--domain", f"ball:R0={radius:g}", "--t-grid", repr(t),
                "--n-x", str(self.N_X), "--n-paths", str(self.N_PATHS),
                "--steps", str(self.STEPS), "--workers", str(self.WORKERS),
                "--seed", str(2 * (1000 * seed + round_index) + i),
                "--out", os.path.join(workdir, f"run{i}"),
            ])
        return {"argvs": argvs}

    def run(self, inputs):
        from relheat import cli

        ops = []
        for argv in inputs["argvs"]:
            code, wall = timed(cli.main, argv)
            if code != 0:
                raise RuntimeError(f"relheat {' '.join(argv)} exited with {code}")
            row = read_trace_artifact(os.path.join(argv[argv.index("--out") + 1], "trace.csv"))
            ops.append(Op("cli.trace", float(row["value"]), float(row["stderr"]),
                          int(row["n_samples"]), wall,
                          {"first_term": float(row["meta_first_term"])}))
        return ops

    def headline(self, ops):
        """Z_{B_1}(T), estimated twice: directly and through the scaled ball."""
        return mean_estimate([(op.value, op.stderr) for op in ops])

    def check(self, ops, root):
        return check_scaling(ops, self.cases(), self.ALPHA)


def read_trace_artifact(path):
    """The single data row of a `trace.csv` artifact."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one row, got {len(rows)}")
    return rows[0]


def free_kernel_at_zero(t, m, alpha):
    """p(t, 0) for d=2 by Fourier inversion,
    (2 pi)^{-1} int_0^inf r e^{-t((m^{2/alpha} + r^2)^{alpha/2} - m)} dr."""
    def integrand(r):
        return r * math.exp(-t * ((m ** (2.0 / alpha) + r * r) ** (alpha / 2.0) - m))

    value, _ = quad(integrand, 0.0, math.inf, limit=400, epsabs=0.0, epsrel=1e-12)
    return value / (2.0 * math.pi)


def check_scaling(ops, cases, alpha):
    """Z^m_{B_1}(t) = Z^{m lam^-alpha}_{B_lam}(lam^alpha t) within Z_SIGMA joint
    standard errors; each Z in (0, first term), with the first term checked
    against a Fourier quadrature of the free kernel."""
    problems = []
    for op, (radius, t, m) in zip(ops, cases):
        first = free_kernel_at_zero(t, m, alpha) * math.pi * radius**2
        if abs(op.extra["first_term"] - first) > 1e-6 * first:
            problems.append(f"R={radius:g}: first term {op.extra['first_term']!r} != quadrature {first!r}")
        if not 0.0 < op.value < first:
            problems.append(f"R={radius:g}: Z = {op.value:.5f} outside (0, {first:.5f})")
    a, b = ops
    joint = math.hypot(a.stderr, b.stderr)
    if abs(a.value - b.value) > Z_SIGMA * joint:
        problems.append(f"scaling: Z = {a.value:.5f} vs {b.value:.5f}, joint se {joint:.3g}")
    return problems


WORKLOADS = {w.name: w for w in (TraceBall(), C4Halfspace(), TraceAlpha15Pool())}
