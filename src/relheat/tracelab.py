"""Monte Carlo estimators for the killed semigroup and its heat trace.

The central object is r_D(t,x,x) = E^x[ p(t - tau, X_tau, x); tau < t ],
the boundary correction to the free kernel.  Paths are monitored on a
grid of step dt; the first grid index outside the domain defines the exit,
with the exit time placed mid-step to halve the timing bias.  The
remaining discrete-monitoring bias is handled by a dt-halving ladder with
Richardson extrapolation; the extrapolated value is the reported one and
the ladder difference is the reported bias budget.

r_D at a point, the half-space profile f_H(t, q) and the strata of int_D
r_D are one expectation at different start points.  Each estimator call
hands `_march` one group of chunks per point request or per (ladder
level, stratum); a chunk is the unit of a random stream, paths from given
start points on one generator.  `_march` packs the chunks of one
(t, n_steps, dt) grid into batches of at most one full chunk's rows (and
with several workers, of at most the grid's rows over the workers), and
the one march task, `_march_batch`, marches a batch in lockstep as one
array (`_run_exits`) and scores it chunk by chunk.  Each chunk's
generator makes the draws of a march of that chunk alone, so every output
is bit for bit that of marching the chunks one by one.  All batches run
through one `_execute`, after one `_warm` of the kernel tables when
alpha != 1 (alpha = 1 scores exits in closed form).

Spatial integrals over a bounded domain use stratified sampling on
boundary layers of width ~t^{1/alpha} (refined near the boundary), each
stratum weighted by its exact volume, with sample allocation proportional
to volume times the interior-decay envelope min(t/delta^{d+alpha}, t^{-d/alpha}).
"""

import functools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetError, ParameterError, TailFitError
from .geometry import Domain, HalfSpace, row_norms
from .kernels import (
    build_table,
    build_tables,
    c1_of_t,
    cauchy_density,
    free_density,
    table_eval,
)
from .sampler import PathGrid, RngStream, _rows_per_block, sample_leg_blocks, sample_tempered_blocks
from .specfun import ProcessParams

__all__ = [
    "TraceEstimate",
    "HalfspaceProfile",
    "ResidualReport",
    "RyznarReport",
    "Budgets",
    "first_exit",
    "r_estimate",
    "halfspace_profile",
    "c2_of_t",
    "c4_const",
    "z_trace",
    "first_term",
    "residual_scan",
    "lambda1_estimate",
    "ryznar_check",
    "default_strata",
]

RICHARDSON_ORDER = 1.0
CHUNK_PATHS = 100_000  # most paths of one r_D chunk, and of one march batch
MAX_LAYERS = 24  # most stratum edges of `default_strata`'s boundary layers


@dataclass(frozen=True)
class TraceEstimate:
    """A Monte Carlo result: value, standard error, and provenance."""

    value: float
    stderr: float
    n_samples: int
    dt: float
    t: float
    meta: dict = field(default_factory=dict)

    def ci(self, z: float = 3.0):
        return (self.value - z * self.stderr, self.value + z * self.stderr)

    def to_record(self) -> dict:
        rec = {
            "value": self.value,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "dt": self.dt,
            "t": self.t,
        }
        rec.update({f"meta_{k}": v for k, v in self.meta.items() if _is_scalar(v)})
        return rec


def _is_scalar(v):
    return isinstance(v, (int, float, str, bool))


@dataclass(frozen=True)
class HalfspaceProfile:
    """Estimates of f_H(t, q) = r_H(t, (q,0,...), (q,0,...)) on a q grid."""

    t: float
    q_grid: np.ndarray
    f_values: tuple

    def to_rows(self):
        return [
            {"t": self.t, "q": float(q), **est.to_record()}
            for q, est in zip(self.q_grid, self.f_values)
        ]


@dataclass(frozen=True)
class ResidualReport:
    """Two-term trace estimate residuals over a t grid.

    rho(t) = |Z - first + second| * R^2 * t^{(d-2)/alpha} * e^{-2mt} / |D|
    normalizes the residual by the proven envelope; c3_fitted = max rho.

    rho_blowup_exponent is the weighted log-log slope of rho against 1/t
    over the points where rho is resolved above twice its standard error:
    rho ~ t^{-gamma} as t drops gives exponent gamma, so values above ~0.5
    signal the residual outgrowing its envelope.  When fewer than two
    points resolve rho, no trend is measurable and the exponent is 0.
    """

    t_grid: tuple
    rows: tuple
    c3_fitted: float
    rho_blowup_exponent: float
    rho_blowup_se: float
    n_resolved: int

    def to_rows(self):
        return [dict(r) for r in self.rows]


@dataclass(frozen=True)
class RyznarReport:
    """Mass-comparison checks r_D <= e^{2mt} r0_D and the killed-kernel variant."""

    rows: tuple
    n_violations: int


@dataclass(frozen=True)
class Budgets:
    """Sample budgets for the composite estimators.

    `chunk_points` is the most start points of a `z_trace` chunk.  A chunk
    is the unit of a random stream (its points and paths come from one
    substream, whatever the worker count), and chunk_points x n_paths is
    the most rows marched at once: smaller chunks of one grid march
    together up to that many rows.
    """

    n_paths: int = 2000
    n_x: int = 4000
    steps: int = 64            # grid steps per horizon: dt = t/steps
    extrapolate: bool = True
    profile_n_paths: int = 20000
    chunk_points: int = 512
    workers: int = 1


# ---------------------------------------------------------------------------
# Exit engine
# ---------------------------------------------------------------------------

def _snap_steps(t: float, dt: float):
    if dt <= 0.0 or dt > t:
        raise ParameterError(f"need 0 < dt <= t, got dt={dt}, t={t}")
    n_steps = max(1, int(round(t / dt)))
    return n_steps, t / n_steps


def _run_exits(starts, gens, sizes, domain, t, n_steps, dt, params):
    """March paths from the rows of `starts` until exit or horizon, in
    chunks: chunk c is the next sizes[c] rows, drawn by gens[c].

    Returns each chunk's (exited, exit_step, exit_dist): boolean mask,
    first grid index outside the domain, and |X_exit - start|.  `pos` holds
    the alive rows only, in path order (`idx`, their paths).  Each chunk's
    generator makes the draws of a march of that chunk alone, and the
    arithmetic is row by row, so every draw and every sum falls bit for bit
    as in a march of each chunk alone, updating all its rows in place.
    """
    ends = np.cumsum(sizes)
    counts = sizes  # alive rows of each chunk
    n = len(starts)
    pos = np.array(starts, dtype=float)
    idx = np.arange(n)
    exited = np.zeros(n, dtype=bool)
    exit_step = np.zeros(n, dtype=np.int64)
    exit_dist = np.zeros(n)
    for k in range(1, n_steps + 1):
        if len(idx) == 0:
            break
        u, _ = sample_tempered_blocks(dt, params, gens, counts)
        pos += sample_leg_blocks(u, params.d, gens, counts)
        inside = domain.contains(pos)
        if not inside.all():
            # compress copies the rows of a 2-d array several times
            # faster than boolean indexing does
            gone = ~inside
            out = idx[gone]
            exited[out] = True
            exit_step[out] = k
            exit_dist[out] = row_norms(pos.compress(gone, axis=0) - starts[out])
            pos, idx = pos.compress(inside, axis=0), idx[inside]
            counts = _rows_per_block(idx, ends)
    return [(exited[b - size:b], exit_step[b - size:b], exit_dist[b - size:b])
            for size, b in zip(sizes, ends)]


def _kernel_at_exits(exited, exit_step, exit_dist, t, dt, params):
    """p(t - tau, |X_tau - x|) with the mid-step convention tau = (k - 1/2) dt.

    At alpha = 1 every exit is scored in one call to the closed-form kernel;
    other alpha read the kernel table of each exit step.
    """
    vals = np.zeros(len(exited))
    if not exited.any():
        return vals
    steps = exit_step[exited]
    dists = exit_dist[exited]
    if params.alpha == 1.0:
        vals[exited] = cauchy_density(t - (steps - 0.5) * dt, dists, params)
        return vals
    out = np.empty(len(steps))
    for k in np.unique(steps):
        s = t - (k - 0.5) * dt
        table = build_table(params.m * s, params)
        mask = steps == k
        out[mask] = table_eval(table, s, dists[mask], params)
    vals[exited] = out
    return vals


def _march_batch(params, domain, t, n_steps, dt, chunks):
    """The one march task: chunks (points, n_paths, gen), `n_paths` paths
    from each of `points` on `gen`, marched together on the (n_steps, dt)
    grid and scored chunk by chunk at their exits.

    Returns each chunk's per-point mean and M2 (sum of squared deviations
    from the mean) of the scores, and its exit count; a chunk's (points x
    paths) score matrix stays in the task.  Scoring stays per chunk: the
    far field and numpy's pairwise sums may round differently at another
    array length.
    """
    starts = np.concatenate([np.repeat(points, n_paths, axis=0) for points, n_paths, _ in chunks])
    marched = _run_exits(starts, [gen for _, _, gen in chunks],
                         [len(points) * n_paths for points, n_paths, _ in chunks],
                         domain, t, n_steps, dt, params)
    results = []
    for (_, n_paths, _), (exited, exit_step, exit_dist) in zip(chunks, marched):
        scores = _kernel_at_exits(exited, exit_step, exit_dist, t, dt, params).reshape(-1, n_paths)
        means = scores.mean(axis=1)
        results.append((means, ((scores - means[:, None]) ** 2).sum(axis=1), int(exited.sum())))
    return results


def _batches(chunks, max_rows, workers):
    """Indices of `chunks` (t, n_steps, dt, points, n_paths, gen) in march
    batches: each grid's chunks in order, as many consecutive ones as hold
    at most a cap of rows together, and a larger chunk alone.  The cap is
    `max_rows`, or a grid's rows over `workers` if that is less, so that a
    grid of enough chunks keeps every worker busy."""
    by_grid = {}
    for i, (t, n_steps, dt, points, n_paths, _) in enumerate(chunks):
        by_grid.setdefault((t, n_steps, dt), []).append((i, len(points) * n_paths))
    batches = []
    for members in by_grid.values():
        cap = min(max_rows, -(-sum(n for _, n in members) // workers))
        rows = cap
        for i, n in members:
            if rows + n > cap:
                batches.append([])
                rows = 0
            batches[-1].append(i)
            rows += n
    return batches


def _march(groups, domain, params, workers, max_rows):
    """Run groups of chunk requests (t, n_steps, dt, points, n_paths, gen);
    results come back grouped the same way.

    The chunks of one grid march in batches of at most `max_rows` rows, or
    fewer so that there are enough batches for the workers (`_batches`),
    each batch one task of one `_execute`, after one `_warm` of the kernel
    tables (none at alpha = 1, scored in closed form).  The caller makes
    each generator; pickled, it goes on exactly.
    """
    _check_count("workers", workers)
    chunks = [c for group in groups for c in group]
    if params.alpha != 1.0:
        _warm(dict.fromkeys(c[:3] for c in chunks), params)
    batches = _batches(chunks, max_rows, workers)
    tasks = [(params, domain, *chunks[b[0]][:3], [chunks[i][3:] for i in b]) for b in batches]
    done = _execute(_march_batch, tasks, workers)
    by_index = dict(zip([i for b in batches for i in b], [r for out in done for r in out]))
    results = (by_index[i] for i in range(len(chunks)))
    return [[next(results) for _ in group] for group in groups]


def _merge_moments(a, b):
    """Merge two samples' (n, mean, M2), M2 the sum of squared deviations
    from the mean (Chan, Golub & LeVeque 1979).

    Unlike E[x^2] - E[x]^2, the merged M2 keeps its digits when the mean is
    large against the spread.  The mean is the count-weighted one.
    """
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, (n_a * mean_a + n_b * mean_b) / n, m2_a + m2_b + delta * delta * n_a * n_b / n


def _moments(est: TraceEstimate):
    """(n, mean, M2) of a sample-mean estimate, from its stderr."""
    n = est.n_samples
    return n, est.value, est.stderr**2 * n * (n - 1)


def _from_moments(moments, dt, t, meta) -> TraceEstimate:
    """The sample-mean estimate of a sample's (n, mean, M2)."""
    n, mean, m2 = moments
    return TraceEstimate(
        value=mean, stderr=math.sqrt(m2 / (n - 1) / n), n_samples=n, dt=dt, t=t, meta=meta
    )


def _warm(grids, params):
    """Build every kernel table a march on the (t, n_steps, dt) grids can use.

    Called before `_execute`, so the tables, and the theta_beta values on
    the log-z lattice they need, are in the process a pool forks and its
    workers build none.
    The products m * (t - (k - 1/2) dt) are those `_kernel_at_exits` asks
    for; at m = 0 they are all one product, and this is a single lookup.
    """
    mts = dict.fromkeys(
        params.m * (t - (k - 0.5) * dt) for t, n_steps, dt in grids for k in range(1, n_steps + 1)
    )
    build_tables(mts, params)


def _execute(fn, arglists, workers):
    """fn over `arglists`, results in order: serially, or in one pool of at
    most one worker per task (a fork pool starts all its workers at once)."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(arglists) <= 1:
        return [fn(*args) for args in arglists]
    with ProcessPoolExecutor(max_workers=min(workers, len(arglists))) as pool:
        return list(pool.map(fn, *zip(*arglists)))


def _check_count(name, value):
    """A sample count or chunk size must be an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")


def _chunk_sizes(total, chunk):
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


# ---------------------------------------------------------------------------
# Point estimators
# ---------------------------------------------------------------------------

def first_exit(path: PathGrid, domain: Domain):
    """First grid index outside the domain and the position there.

    Discrete monitoring: sub-step excursions are invisible, which biases
    exit times upward; estimators compensate with the dt ladder.
    """
    if not domain.contains(path.positions[0]):
        raise ParameterError("path start must lie inside the domain")
    inside = domain.contains(path.positions)
    out_idx = np.nonzero(~inside[1:])[0]
    if len(out_idx) == 0:
        return None, None
    k = int(out_idx[0]) + 1
    return k, path.positions[k]


def _r_estimates(requests, domain, params, *, workers=1):
    """r_D(t, x, x) for each request (t, x, n_paths, dt, rng), in one march.

    A request's paths run in chunks of at most `CHUNK_PATHS` on the streams
    rng.substream(c), and their (n, mean, M2) are merged chunk by chunk;
    at most `CHUNK_PATHS` paths march at once.
    """
    groups = []
    for t, x, n_paths, dt, rng in requests:
        _check_count("n_paths", n_paths)
        if n_paths < 100:
            raise BudgetError(f"n_paths={n_paths} below 100; stderr would be meaningless")
        x = np.asarray(x, dtype=float)
        if not domain.contains(x):
            raise ParameterError("x must lie inside the domain")
        n_steps, dt_eff = _snap_steps(t, dt)
        groups.append([
            (t, n_steps, dt_eff, x[None], m, rng.substream(c).generator())
            for c, m in enumerate(_chunk_sizes(n_paths, CHUNK_PATHS))
        ])
    estimates = []
    for group, results in zip(groups, _march(groups, domain, params, workers, CHUNK_PATHS)):
        t, _, dt_eff, points = group[0][:4]
        moments = functools.reduce(
            _merge_moments,
            ((c[4], float(mean[0]), float(m2[0])) for c, (mean, m2, _) in zip(group, results)),
        )
        meta = {"estimator": "r_D", "exit_fraction": sum(e for _, _, e in results) / moments[0],
                "x_delta": float(domain.delta(points[0]))}
        estimates.append(_from_moments(moments, dt_eff, t, meta))
    return estimates


def r_estimate(
    t: float,
    x,
    domain: Domain,
    n_paths: int,
    dt: float,
    rng: RngStream,
    params: ProcessParams,
    *,
    workers: int = 1,
) -> TraceEstimate:
    """Monte Carlo estimate of r_D(t, x, x)."""
    return _r_estimates([(t, x, n_paths, dt, rng)], domain, params, workers=workers)[0]


def _ladder(dt, rng, extrapolate):
    """The monitoring levels (dt, stream): dt on rng.substream(0) and, when
    extrapolating, the fine level dt/2 on rng.substream(1)."""
    return [(dt, rng.substream(0)), (dt / 2.0, rng.substream(1))][: 1 + extrapolate]


def _extrapolate(coarse, fine):
    """Richardson value of a quantity measured at dt (coarse) and dt/2 (fine)."""
    return fine + (fine - coarse) / (2.0**RICHARDSON_ORDER - 1.0)


def _richardson(coarse: TraceEstimate, fine: TraceEstimate = None) -> TraceEstimate:
    """Extrapolate a dt-halving pair; the reported bias budget is the
    ladder correction itself.  A single level is reported as it is."""
    if fine is None:
        return coarse
    f = 2.0**RICHARDSON_ORDER - 1.0
    stderr = math.sqrt(((1.0 + 1.0 / f) * fine.stderr) ** 2 + (coarse.stderr / f) ** 2)
    meta = dict(fine.meta)
    meta.update(
        {
            "extrapolated": True,
            "richardson_order": RICHARDSON_ORDER,
            "bias_budget": abs(fine.value - coarse.value) / f,
            "value_coarse": coarse.value,
            "value_fine": fine.value,
        }
    )
    return TraceEstimate(
        value=_extrapolate(coarse.value, fine.value),
        stderr=stderr,
        n_samples=coarse.n_samples + fine.n_samples,
        dt=fine.dt,
        t=fine.t,
        meta=meta,
    )


def _r_extrapolated(points, domain, n_paths, params, *, extrapolate=True, workers=1):
    """Estimates of r_D(t, x, x) at each point (t, x, dt, rng) through the
    ladder of its dt and rng, Richardson-extrapolated when `extrapolate`;
    every point and level marches in one batch."""
    requests = [
        (t, x, n_paths, dt_l, sub)
        for t, x, dt, rng in points
        for dt_l, sub in _ladder(dt, rng, extrapolate)
    ]
    ests = _r_estimates(requests, domain, params, workers=workers)
    n_levels = 1 + extrapolate
    return [_richardson(*ests[i:i + n_levels]) for i in range(0, len(ests), n_levels)]


def r_estimate_extrapolated(t, x, domain, n_paths, dt, rng, params, *, workers=1) -> TraceEstimate:
    return _r_extrapolated([(t, x, dt, rng)], domain, n_paths, params, workers=workers)[0]


def _axis_point(q, d):
    """The point (q, 0, ..., 0), at distance q from the half-space boundary."""
    x = np.zeros(d)
    x[0] = q
    return x


def halfspace_profile(
    t: float,
    q_grid,
    n_paths: int,
    dt: float,
    rng: RngStream,
    params: ProcessParams,
    *,
    extrapolate: bool = False,
    workers: int = 1,
) -> HalfspaceProfile:
    """Profile f_H(t, q) over a grid of boundary distances q.

    Node i is the point (q_i, 0, ..., 0) on the dt-ladder of rng.substream(i)
    (one level unless extrapolating), so level k draws from
    rng.substream(i).substream(k); every node and level marches in one pool.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    if (q_grid <= 0).any():
        raise ParameterError("q grid must be positive")
    points = [(t, _axis_point(q, params.d), dt, rng.substream(i)) for i, q in enumerate(q_grid)]
    f_values = _r_extrapolated(points, HalfSpace(d=params.d), n_paths, params,
                               extrapolate=extrapolate, workers=workers)
    return HalfspaceProfile(t=t, q_grid=q_grid, f_values=tuple(f_values))


def _default_q_grid(t: float, params: ProcessParams):
    """34 geometric nodes resolving the cusp of f_H at q -> 0, out to the tail cutoff.

    The profile drops from p(t,0) on the scale of a small fraction of the
    boundary layer width h = t^{1/alpha}; 25 nodes start at h/128 so the
    trapezoid bias stays well below the Monte Carlo noise, 9 reach max(5h, 3).
    """
    h = t ** (1.0 / params.alpha)
    core = np.geomspace(h / 128.0, 4.0 * h, 25)
    outer = np.geomspace(4.0 * h * 1.35, max(5.0 * h, 3.0), 9)
    return np.unique(np.concatenate([core, outer]))


def c2_of_t(
    t: float,
    n_paths: int,
    dt: float,
    rng: RngStream,
    params: ProcessParams,
    *,
    extrapolate: bool = True,
    workers: int = 1,
) -> TraceEstimate:
    """Surface-term coefficient C2(t) = int_0^infty f_H(t, q) dq.

    Trapezoid over the profile grid, anchored at f_H(t, 0+) = p(t, 0),
    plus a power-law tail correction fitted on the last decade of q.

    `n_paths` is the total path budget over all grid nodes: a uniform pilot
    pass measures per-node variances, the remainder goes where quadrature
    weight times standard deviation is largest (Neyman allocation).  Each
    pass marches all nodes and ladder levels at once.
    """
    half = HalfSpace(d=params.d)
    q_grid = _default_q_grid(t, params)
    n_nodes = len(q_grid)

    weights_q = np.zeros(n_nodes + 1)
    dq = np.diff(np.concatenate([[0.0], q_grid]))
    weights_q[:-1] += 0.5 * dq
    weights_q[1:] += 0.5 * dq
    node_w = weights_q[1:]  # trapezoid weight of each MC node

    n_pilot = max(500, int(0.15 * n_paths / n_nodes))
    remaining = max(n_paths - n_pilot * n_nodes, 0)
    xs = [_axis_point(q, params.d) for q in q_grid]
    levels = _ladder(dt, rng, extrapolate)

    def run(budget, pass_index):
        # node i of level k draws from the level's stream at substream(i, pass_index)
        requests = [
            (t, xs[i], n, levels[k][0], levels[k][1].substream(i, pass_index))
            for (i, k), n in budget.items()
        ]
        return dict(zip(budget, _r_estimates(requests, half, params, workers=workers)))

    est = run({(i, k): n_pilot for i in range(n_nodes) for k in range(len(levels))}, 0)
    extra = {}
    for k in range(len(levels)):
        sigmas = np.array([est[i, k].stderr * math.sqrt(n_pilot) for i in range(n_nodes)])
        alloc = node_w * sigmas
        alloc = alloc / alloc.sum() * remaining if alloc.sum() > 0 else np.zeros(n_nodes)
        extra.update({(i, k): int(a) for i, a in enumerate(alloc) if int(a) >= 100})
    for cell, top in run(extra, 1).items():
        merged = _merge_moments(_moments(est[cell]), _moments(top))
        est[cell] = _from_moments(merged, est[cell].dt, t, est[cell].meta)
    profile_est = [_richardson(*[est[i, k] for k in range(len(levels))]) for i in range(n_nodes)]
    f = np.array([e.value for e in profile_est])
    se = np.array([e.stderr for e in profile_est])

    # product integration: exact on power-law panels, which matches both the
    # cusp of the profile at q -> 0 and its power tail
    p0 = free_density(t, 0.0, params)
    core = _power_panel_integral(q_grid, f, p0)
    grads = np.empty(len(f))
    for i in range(len(f)):
        bumped = f.copy()
        bumped[i] += max(se[i], 1e-300)
        grads[i] = _power_panel_integral(q_grid, bumped, p0) - core
    core_se = float(np.sqrt((grads**2).sum()))

    # tail: fit log f = a + s log q on the last decade, require s < -1
    q_max = q_grid[-1]
    sel = (q_grid >= q_max / 10.0) & (f > 0)
    if sel.sum() < 3:
        raise TailFitError("fewer than 3 usable profile nodes in the last decade")
    slope, slope_se, intercept = _loglog_fit(q_grid[sel], f[sel], se[sel])
    if slope >= -1.0:
        raise TailFitError(
            f"tail slope {slope:.2f} >= -1; the q-integral correction would diverge"
        )
    f_end = math.exp(intercept + slope * math.log(q_max))
    tail = f_end * q_max / (-slope - 1.0)
    tail_se = tail * math.sqrt(
        (se[sel][-1] / max(f[sel][-1], 1e-300)) ** 2
        + (slope_se / (-slope - 1.0)) ** 2
    )

    value = core + tail
    stderr = math.sqrt(core_se**2 + tail_se**2)
    meta = {
        "estimator": "C2",
        "q_max": float(q_max),
        "tail": tail,
        "tail_slope": slope,
        "tail_slope_se": slope_se,
        "core": core,
        "m": params.m,
    }
    n_tot = sum(e.n_samples for e in profile_est)
    return TraceEstimate(value=value, stderr=stderr, n_samples=n_tot, dt=dt, t=t, meta=meta)


def c4_const(
    n_paths: int,
    dt: float,
    rng: RngStream,
    params: ProcessParams,
    *,
    workers: int = 1,
) -> TraceEstimate:
    """Stable boundary constant C4 = C2(t=1) of the mass-zero process."""
    est = c2_of_t(1.0, n_paths, dt, rng, params.with_mass(0.0), workers=workers)
    return replace(est, meta={**est.meta, "estimator": "C4"})


def _power_panel_integral(q, f, p0):
    """Integral of the boundary profile on [0, q[-1]].

    Each interior panel is integrated as the power law through its endpoint
    values; the leading panel [0, q[0]] uses f = p0 - g(q) with g the power
    law through the first two drops below the exact anchor p0.  Panels with
    non-positive endpoints fall back to the trapezoid rule.
    """
    q = np.asarray(q, dtype=float)
    f = np.asarray(f, dtype=float)
    if len(q) < 2:
        raise ParameterError("profile integral needs at least two nodes")
    total = 0.0
    # leading panel from the anchor
    g1, g2 = p0 - f[0], p0 - f[1]
    if g1 > 0 and g2 > g1:
        gamma = math.log(g2 / g1) / math.log(q[1] / q[0])
        if gamma <= 0 or not math.isfinite(gamma):
            gamma = 1.0
        total += p0 * q[0] - g1 * q[0] / (gamma + 1.0)
    else:
        total += 0.5 * (p0 + max(f[0], 0.0)) * q[0]
    for i in range(len(q) - 1):
        q1, q2 = q[i], q[i + 1]
        f1, f2 = f[i], f[i + 1]
        if f1 > 0 and f2 > 0:
            s = math.log(f2 / f1) / math.log(q2 / q1)
            if abs(s + 1.0) < 1e-9:
                total += f1 * q1 * math.log(q2 / q1)
            elif math.isfinite(s):
                total += f1 * q1 * ((q2 / q1) ** (s + 1.0) - 1.0) / (s + 1.0)
            else:
                total += 0.5 * (f1 + f2) * (q2 - q1)
        else:
            total += 0.5 * (max(f1, 0.0) + max(f2, 0.0)) * (q2 - q1)
    return float(total)


def _weighted_line_fit(x, y, w):
    """Weighted least-squares line y = a + s x; returns (s, se of s, a),
    the se for weights that are inverse variances."""
    xb = (w * x).sum() / w.sum()
    yb = (w * y).sum() / w.sum()
    sxx = (w * (x - xb) ** 2).sum()
    slope = (w * (x - xb) * (y - yb)).sum() / sxx
    return slope, math.sqrt(1.0 / sxx), yb - slope * xb


def _loglog_fit(q, f, se):
    """Weighted linear fit of log f against log q; returns (slope, slope se, intercept)."""
    w = (np.maximum(f, 1e-300) / np.maximum(se, 1e-300)) ** 2  # var(log f) ~ (se/f)^2
    return _weighted_line_fit(np.log(q), np.log(f), np.minimum(w, 1e12))


# ---------------------------------------------------------------------------
# Spatial trace integral
# ---------------------------------------------------------------------------

def default_strata(domain: Domain, t: float, params: ProcessParams):
    """Stratum boundaries in delta_D: refined inside the first boundary layer
    of width t^{1/alpha}, unit layers out to R/2, then the core."""
    h = t ** (1.0 / params.alpha)
    r_half = domain.smoothness_radius / 2.0
    d_max = domain.delta_max
    edges = [0.0]
    if h < d_max / 4.0:
        edges += [h / 8.0, h / 4.0, h / 2.0, h]
        j = 2
        while h * j < min(r_half, d_max) and len(edges) < MAX_LAYERS:
            edges.append(h * j)
            j += 1 if j < 8 else j  # geometric past 8 layers keeps the count low
    else:
        edges += [d_max / 8.0, d_max / 4.0, d_max / 2.0]
    if r_half < d_max and (not edges or edges[-1] < r_half):
        edges.append(r_half)
    edges.append(d_max)
    edges = sorted(set(e for e in edges if 0.0 <= e <= d_max))
    return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _allocate(domain, strata, t, params, n_x):
    """Sample counts per stratum, at least 8: volume times interior-decay envelope."""
    weights = []
    for q_lo, q_hi in strata:
        vol = domain.layer_volume(q_lo, q_hi)
        mid = max(0.5 * (q_lo + q_hi), 1e-12)
        env = min(t / mid ** (params.d + params.alpha), t ** (-params.d / params.alpha))
        weights.append(vol * env)
    weights = np.asarray(weights)
    if weights.sum() <= 0:
        raise BudgetError("degenerate stratum weights")
    raw = weights / weights.sum() * n_x
    return [max(8, int(round(r))) for r in raw]


def first_term(t: float, domain: Domain, params: ProcessParams) -> float:
    """Free-kernel part of the trace: C1(t) e^{mt} |D| / t^{d/alpha}."""
    return (
        c1_of_t(t, params)
        * math.exp(params.m * t)
        * domain.volume()
        / t ** (params.d / params.alpha)
    )


def z_trace(
    t: float,
    domain: Domain,
    n_x: int,
    n_paths: int,
    dt: float,
    rng: RngStream,
    params: ProcessParams,
    *,
    extrapolate: bool = False,
    workers: int = 1,
    chunk_points: int = 512,
) -> TraceEstimate:
    """Heat trace Z_D(t) = first_term - int_D r_D(t,x,x) dx.

    The integral is a stratified sum: each stratum's mean of r_D at uniform
    points, times its exact volume.  Chunk c of stratum j, at most
    `chunk_points` points, draws its points and its paths from its level's
    stream at substream(j, c); the chunks of every stratum and ladder level
    march in one pool, at most chunk_points x n_paths rows at once.
    """
    if not getattr(domain, "bounded", False):
        raise ParameterError("z_trace requires a bounded domain")
    _check_count("n_paths", n_paths)
    _check_count("chunk_points", chunk_points)
    strata = default_strata(domain, t, params)
    ft = first_term(t, domain, params)
    levels = [(*_snap_steps(t, dt_l), sub) for dt_l, sub in _ladder(dt, rng, extrapolate)]
    layers = []
    for j, ((q_lo, q_hi), n_j) in enumerate(zip(strata, _allocate(domain, strata, t, params, n_x))):
        vol = domain.layer_volume(q_lo, q_hi)
        if vol <= 0.0:
            continue
        if n_j < 2:
            raise BudgetError(f"stratum {j} received {n_j} sample points")
        layers.append((j, q_lo, q_hi, vol, _chunk_sizes(n_j, chunk_points)))
    groups = []
    for n_steps, dt_eff, sub in levels:
        for j, q_lo, q_hi, _, sizes in layers:
            gens = [sub.substream(j, c).generator() for c in range(len(sizes))]
            groups.append([(t, n_steps, dt_eff, domain.sample_layer(q_lo, q_hi, g, m), n_paths, g)
                           for g, m in zip(gens, sizes)])
    per_stratum = iter(_march(groups, domain, params, workers, chunk_points * n_paths))
    n_points = sum(sum(layer[-1]) for layer in layers)
    per_level = []
    for _, dt_eff, _ in levels:
        interior = var = 0.0
        for (j, q_lo, q_hi, vol, sizes), results in zip(layers, per_stratum):
            values = np.concatenate([means for means, _, _ in results])
            sem = values.std(ddof=1) / math.sqrt(len(values))
            interior += vol * values.mean()
            var += (vol * sem) ** 2
        se = math.sqrt(var)
        meta = {
            "estimator": "Z_D",
            "first_term": ft,
            "interior": interior,
            "interior_se": se,
            "n_strata": len(strata),
        }
        per_level.append(
            TraceEstimate(value=ft - interior, stderr=se, n_samples=n_points * n_paths,
                          dt=dt_eff, t=t, meta=meta)
        )
    est = _richardson(*per_level)
    if extrapolate:
        # the first term is exact; extrapolate the interior part alongside
        coarse, fine = (e.meta["interior"] for e in per_level)
        est = replace(est, meta={**est.meta, "interior": _extrapolate(coarse, fine),
                                 "interior_se": est.stderr})
    return est


# ---------------------------------------------------------------------------
# Composite experiments
# ---------------------------------------------------------------------------

def residual_scan(
    t_grid,
    domain: Domain,
    budgets: Budgets,
    rng: RngStream,
    params: ProcessParams,
) -> ResidualReport:
    """Normalized two-term residuals rho(t) over a t grid.

    rho(t) <= C3 by the trace theorem; the fitted C3 is the grid maximum and
    the log-log slope of rho against t diagnoses blow-up as t decreases.
    """
    t_grid = sorted(float(t) for t in t_grid)
    r_smooth = domain.smoothness_radius
    for t in t_grid:
        if t ** (1.0 / params.alpha) > r_smooth / 2.0:
            raise ParameterError(
                f"t={t} outside the regime t^(1/alpha) <= R/2 (R={r_smooth})"
            )
    surface = domain.surface()
    volume = domain.volume()
    rows = []
    for i, t in enumerate(t_grid):
        dt = t / budgets.steps
        sub = rng.substream(i)
        c2 = c2_of_t(
            t,
            budgets.profile_n_paths,
            dt,
            sub.substream(0),
            params,
            extrapolate=budgets.extrapolate,
            workers=budgets.workers,
        )
        zed = z_trace(
            t,
            domain,
            budgets.n_x,
            budgets.n_paths,
            dt,
            sub.substream(1),
            params,
            extrapolate=budgets.extrapolate,
            workers=budgets.workers,
            chunk_points=budgets.chunk_points,
        )
        ft = zed.meta["first_term"]
        interior = zed.meta["interior"]
        second = c2.value * surface
        resid = abs(second - interior)
        resid_se = math.sqrt((c2.stderr * surface) ** 2 + zed.meta["interior_se"] ** 2)
        envelope = (
            math.exp(2.0 * params.m * t)
            * volume
            * t ** ((2.0 - params.d) / params.alpha)
            / r_smooth**2
        )
        rows.append(
            {
                "t": t,
                "dt": zed.dt,
                "z_value": zed.value,
                "z_stderr": zed.stderr,
                "first_term": ft,
                "second_term": second,
                "second_term_se": c2.stderr * surface,
                "interior": interior,
                "interior_se": zed.meta["interior_se"],
                "residual": resid,
                "residual_se": resid_se,
                "rho": resid / envelope,
                "rho_se": resid_se / envelope,
                "c2_value": c2.value,
                "c2_stderr": c2.stderr,
            }
        )
    rhos = np.array([r["rho"] for r in rows])
    ses = np.array([r["rho_se"] for r in rows])
    ts = np.array([r["t"] for r in rows])
    resolved = rhos > 2.0 * ses
    if resolved.sum() >= 2:
        slope, slope_se, _ = _loglog_fit(1.0 / ts[resolved], rhos[resolved], ses[resolved])
    else:
        slope, slope_se = 0.0, 0.0
    return ResidualReport(
        t_grid=tuple(t_grid),
        rows=tuple(rows),
        c3_fitted=float(rhos.max()),
        rho_blowup_exponent=float(slope),
        rho_blowup_se=float(slope_se),
        n_resolved=int(resolved.sum()),
    )


def lambda1_estimate(
    domain: Domain,
    t_grid_large,
    budgets: Budgets,
    rng: RngStream,
    params: ProcessParams,
) -> TraceEstimate:
    """Principal eigenvalue from the large-t slope of -log Z_D(t).

    Valid once a single mode dominates (Z below ~1.5); curvature of log Z
    beyond its standard error flags second-mode contamination.
    """
    t_grid = sorted(float(t) for t in t_grid_large)
    if len(t_grid) < 2:
        raise ParameterError("need at least two t values for a slope")
    zs = []
    for i, t in enumerate(t_grid):
        dt = t / budgets.steps
        est = z_trace(
            t,
            domain,
            budgets.n_x,
            budgets.n_paths,
            dt,
            rng.substream(i),
            params,
            extrapolate=budgets.extrapolate,
            workers=budgets.workers,
            chunk_points=budgets.chunk_points,
        )
        if est.value <= 0.0:
            raise BudgetError(
                f"Z estimate nonpositive at t={t} ({est.value:.3e} +- {est.stderr:.1e}); "
                "increase the sample budget"
            )
        zs.append(est)
    if any(e.value >= 1.5 for e in zs):
        raise ParameterError(
            "t grid outside the single-mode regime: Z_D(t) must be below 1.5"
        )
    ts = np.array(t_grid)
    y = -np.log(np.array([e.value for e in zs]))
    var_y = np.array([(e.stderr / e.value) ** 2 for e in zs])
    slope, slope_se, _ = _weighted_line_fit(ts, y, 1.0 / var_y)
    # quadratic term of an unweighted fit measures curvature of log Z
    curvature = float(np.polyfit(ts, y, 2)[0]) if len(ts) >= 3 else 0.0
    meta = {
        "estimator": "lambda1",
        "z_values": [e.value for e in zs],
        "z_stderrs": [e.stderr for e in zs],
        "curvature": curvature,
        "second_mode_flag": bool(len(ts) >= 3 and abs(curvature) > slope_se),
    }
    return TraceEstimate(
        value=float(slope),
        stderr=float(slope_se),
        n_samples=sum(e.n_samples for e in zs),
        dt=zs[0].dt,
        t=ts[-1],
        meta=meta,
    )


def ryznar_check(
    t: float,
    x_list,
    domain: Domain,
    budgets: Budgets,
    rng: RngStream,
    params: ProcessParams,
    *,
    z_sigma: float = 3.0,
) -> RyznarReport:
    """Mass-comparison inequalities at interior points.

    Checks r_D <= e^{2mt} r0_D and (p - r_D) <= e^{mt} (p0 - r0_D), where
    the 0 superscript is the mass-zero process, allowing z_sigma joint
    standard errors of Monte Carlo slack.  Point i runs on rng.substream(i, 0)
    at mass m and on rng.substream(i, 1) at mass 0; all points of one mass
    march in one batch.
    """
    stable = params.with_mass(0.0)
    dt = t / budgets.steps
    xs = [np.asarray(x, dtype=float) for x in x_list]
    ests = [
        _r_extrapolated([(t, x, dt, rng.substream(i, branch)) for i, x in enumerate(xs)], domain,
                        budgets.n_paths, p, workers=budgets.workers)
        for branch, p in ((0, params), (1, stable))
    ]
    rows = []
    n_bad = 0
    for x, est_m, est_0 in zip(xs, *ests):
        grow = math.exp(2.0 * params.m * t)
        joint = math.sqrt(est_m.stderr**2 + (grow * est_0.stderr) ** 2)
        r_violation = est_m.value - grow * est_0.value > z_sigma * joint
        p_m = free_density(t, 0.0, params)
        p_0 = free_density(t, 0.0, stable)
        lhs = p_m - est_m.value
        rhs = math.exp(params.m * t) * (p_0 - est_0.value)
        joint_p = math.sqrt(
            est_m.stderr**2 + (math.exp(params.m * t) * est_0.stderr) ** 2
        )
        p_violation = lhs - rhs > z_sigma * joint_p
        n_bad += int(r_violation) + int(p_violation)
        rows.append(
            {
                "x_delta": float(domain.delta(x)),
                "r_mass": est_m.value,
                "r_mass_se": est_m.stderr,
                "r_stable": est_0.value,
                "r_stable_se": est_0.stderr,
                "r_bound": grow * est_0.value,
                "r_violation": bool(r_violation),
                "killed_lhs": lhs,
                "killed_rhs": rhs,
                "killed_violation": bool(p_violation),
            }
        )
    return RyznarReport(rows=tuple(rows), n_violations=n_bad)
