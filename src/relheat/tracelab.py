"""Monte Carlo estimators for the killed semigroup and its heat trace.

The central object is r_D(t,x,x) = E^x[ p(t - tau, X_tau, x); tau < t ],
the boundary correction to the free kernel.  Paths are monitored on a
grid of step dt; the first grid index outside the domain defines the exit,
with the exit time placed mid-step to halve the timing bias.  The
remaining discrete-monitoring bias is handled by a dt-halving ladder with
Richardson extrapolation (`_ladder`).  Its levels come from one march on
the grid (t, n_steps, dt, levels) of the finest level, drawn on
rng.substream(0), and each level reads every stride-th march step
(`_levels`, one rule for both marches): the path at step 2j of dt/2 is a
path at step j of dt, exactly in law, so with two levels the coarse level
is the fine path read at its even steps.  Each path (each start point in
`z_trace`) scores every level; the reported value is the Richardson
combination 2F - C of the two finest (`_combined`), its stderr that of the
per-path combination, and their difference the reported bias budget.

r_D at a point, the half-space profile f_H(t, q) and the strata of int_D
r_D are one expectation at different start points.  Each estimator call
hands `_march` one group of chunks per point request or per stratum; a
chunk is the unit of a random stream, paths from given start points on
one generator.  `_march` packs the chunks of one grid into batches of at
most one full chunk's rows (and with several workers, of at most the
grid's rows over the workers), and the one march task, `_march_batch`,
marches a batch in lockstep as one array (`_exit_steps`) and scores its
exits on every ladder level (`_scored`).  Each chunk's
generator makes the draws of a march of that chunk alone, so every output
is bit for bit that of marching the chunks one by one.  All batches run
through one `_execute`, after one `_warm` of the kernel tables when
alpha != 1 (alpha = 1 scores exits in closed form).

The surface coefficient C2(t) = int_0^infty f_H(t, q) dq needs no depth
grid: the path from depth q is the path from the boundary shifted by q
along the normal, so one path scores every depth at once, at the steps
where its normal coordinate reaches a new minimum (`_record_steps`).  The
same march task runs these paths without a domain, killing none, and
scores a record as it scores an exit, weighted by the depths it covers.

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

from .errors import BudgetError, ParameterError
from .geometry import Domain, HalfSpace, row_norms
from .kernels import (
    build_table,
    build_tables,
    c1_of_t,
    cauchy_density,
    free_density,
    table_eval,
)
from .sampler import (
    PathGrid,
    RngStream,
    _rows_per_block,
    sample_leg_blocks,
    sample_tempered_blocks,
)
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
Z_SIGMA = 3.0  # the acceptance band: a statistical check allows Z_SIGMA standard errors
MIN_PATHS = 100  # fewest paths of an r_D estimate; below this its stderr means little
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

    def ci(self, z: float = Z_SIGMA):
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
    together up to that many rows.  Every count is an integer >= 1,
    checked here once for the estimators that divide by it, and
    `extrapolate` is a bool.
    """

    n_paths: int = 2000
    n_x: int = 4000
    steps: int = 64            # grid steps per horizon: dt = t/steps
    extrapolate: bool = True
    profile_n_paths: int = 20000
    chunk_points: int = 512
    workers: int = 1

    def __post_init__(self):
        for name in ("n_paths", "n_x", "steps", "profile_n_paths", "chunk_points", "workers"):
            _check_count(name, getattr(self, name))
        _check_flag("extrapolate", self.extrapolate)


# ---------------------------------------------------------------------------
# Exit engine
# ---------------------------------------------------------------------------

def _levels(grid):
    """The ladder levels of a march on `grid` = (t, n_steps, dt, levels),
    coarsest first, as (stride, n_steps, dt): level j reads every stride-th
    march step, stride 2^(levels - 1 - j), so the finest level is the march
    itself and, with two levels, level 0 reads its even steps."""
    _, n_steps, dt, levels = grid
    strides = [2 ** (levels - 1 - level) for level in range(levels)]
    return [(stride, n_steps // stride, dt * stride) for stride in strides]


def _exit_steps(starts, gens, sizes, domain, grid, params):
    """March paths from the rows of `starts` until exit or horizon, in
    chunks: chunk c is the next sizes[c] rows, drawn by gens[c].  Yield
    each step on which some row exits a ladder level (`_levels`).

    Each item is (level, k, rows, dist, None): the level, the first step k
    outside the domain on its grid, the exiting rows in path order, and
    |X_exit - start|; an exit carries no weight.  A row exits a level at
    the first step that level reads outside the domain.  Level 0 reads the
    fewest steps, so its exit is never earlier than a finer one: a row
    marches on to its level-0 exit and is dropped only then.  `pos` holds
    the alive rows only, in path order (`idx`, their paths), and each finer
    level an open mask of the alive rows yet to exit it.  Each chunk's
    generator makes the draws of a march of that chunk alone, and the
    arithmetic is row by row, so every draw and every item falls bit for
    bit as in a march of each chunk alone, updating all its rows in place.
    """
    _, n_steps, dt, _ = grid
    (stride0, _, _), *finer = _levels(grid)
    ends = np.cumsum(sizes)
    counts = sizes  # alive rows of each chunk
    pos = np.array(starts, dtype=float)
    idx = np.arange(len(starts))
    open_rows = [np.ones(len(starts), dtype=bool) for _ in finer]
    for k in range(1, n_steps + 1):
        if len(idx) == 0:
            break
        u, _ = sample_tempered_blocks(dt, params, gens, counts)
        pos += sample_leg_blocks(u, params.d, gens, counts)
        inside = domain.contains(pos)
        if inside.all():
            continue
        gone = ~inside
        for level, ((stride, _, _), still_open) in enumerate(zip(finer, open_rows), 1):
            if k % stride:
                continue
            first = gone & still_open
            if first.any():
                rows = idx[first]
                dist = row_norms(pos.compress(first, axis=0) - starts[rows])
                yield level, k // stride, rows, dist, None
            still_open &= inside
        if k % stride0:
            continue
        # compress copies the rows of a 2-d array several times faster than
        # boolean indexing does
        rows = idx[gone]
        yield 0, k // stride0, rows, row_norms(pos.compress(gone, axis=0) - starts[rows]), None
        pos, idx = pos.compress(inside, axis=0), idx[inside]
        open_rows = [still_open[inside] for still_open in open_rows]
        counts = _rows_per_block(idx, ends)


def _record_steps(gens, sizes, grid, params):
    """March paths from the boundary of the half-space H = {x_1 > 0} to the
    horizon, none killed, in chunks as `_exit_steps` does; yield each step
    on which some path sets a new minimum of its normal coordinate W_1 on a
    ladder level (`_levels`).

    Each item is (level, k, rows, dist, weight): the level, the step k on
    its grid, the record rows in path order, |W_k|, and the fall of their
    running minimum on that level, m_{k-1} - m_k, with m_k = W_1(k) after
    the step (m_0 = 0).  A path from depth q is this path shifted by q e_1,
    so it exits that level at step k exactly when -m_{k-1} < q <= -m_k, at
    distance |W_k| from its start: the weight integrates the exit score
    over every start depth.

    A path carries W_1, each level's running minimum and the operational
    time since its last record on any level, S_k - S_last.  The d - 1
    tangential coordinates are drawn at those record steps only, as
    T += N(0, 2 (S_k - S_last) I): given S that is exact in law.  Each
    chunk's generator makes the draws of a march of that chunk alone, row
    by row, so every item falls bit for bit as in a march of each chunk
    alone.
    """
    _, n_steps, dt, _ = grid
    strides = [stride for stride, _, _ in _levels(grid)]
    ends = np.cumsum(sizes)
    n = int(ends[-1])
    normal, since = np.zeros(n), np.zeros(n)
    lows = np.zeros((len(strides), n))
    tangent = np.zeros((n, params.d - 1))
    for k in range(1, n_steps + 1):
        u, _ = sample_tempered_blocks(dt, params, gens, sizes)
        normal += sample_leg_blocks(u, 1, gens, sizes)[:, 0]
        since += u
        read = [level for level, stride in enumerate(strides) if k % stride == 0]
        new = [normal < lows[level] for level in read]
        rows = np.flatnonzero(functools.reduce(np.logical_or, new))
        if len(rows) == 0:
            continue
        dist = np.abs(normal[rows])
        if params.d > 1:
            moved = tangent[rows] + sample_leg_blocks(since[rows], params.d - 1, gens,
                                                      _rows_per_block(rows, ends))
            tangent[rows] = moved
            since[rows] = 0.0
            dist = np.hypot(dist, row_norms(moved))
        for level, is_new in zip(read, new):
            hit = is_new[rows]
            level_rows = rows[hit]
            if len(level_rows) == 0:
                continue  # a coarse record need not be a fine one
            new_low = normal[level_rows]
            fall = lows[level, level_rows] - new_low
            lows[level, level_rows] = new_low
            yield level, k // strides[level], level_rows, dist[hit], fall


def _kernel_at(k, dists, per_chunk, t, dt, params):
    """p(t - tau, r) at step k, with the mid-step convention tau = (k - 1/2)
    dt, at each radius r of `dists`: the rows of consecutive chunks, chunk
    c holding per_chunk[c] of them.

    At alpha = 1 every radius is scored in one call to the closed-form
    kernel.  Other alpha read the step's kernel table chunk by chunk: a
    radius in the far field goes to `_profile_batch` on a lattice cut at
    the largest radius of its call, so one call over several chunks could
    round a chunk's scores otherwise.
    """
    s = t - (k - 0.5) * dt
    if params.alpha == 1.0:
        return cauchy_density(s, dists, params)
    table = build_table(params.m * s, params)
    ends = np.cumsum(per_chunk)
    return np.concatenate([table_eval(table, s, dists[b - n:b], params)
                           for n, b in zip(per_chunk, ends) if n])


def _scored(steps, sizes, grid, params):
    """Each chunk's per-path scores, one row per ladder level, and its count
    of events on the finest level, from the items (level, k, rows, dist,
    weight) of `steps` (`_exit_steps` or `_record_steps`) of a march in
    chunks of `sizes` rows on `grid`.

    An event adds weight x p(t - (k - 1/2) dt, dist) (`_kernel_at`, dt that
    of its level) to its row's score on its level, the weight 1 when None.
    A path scores its exit once per level, and 0 if it stays.  A record
    path's score on a level of step dt is its record sum

        sum_k (m_{k-1} - m_k) p(t - (k - 1/2) dt, |W_k|),

    whose mean is C2(t) = int_0^infty f_H(t, q) dq of the process monitored
    on that level.
    """
    ends = np.cumsum(sizes)
    levels = _levels(grid)
    scores = np.zeros((len(levels), int(ends[-1])))
    counts = np.zeros(len(sizes), dtype=np.int64)
    for level, k, rows, dist, weight in steps:
        per_chunk = _rows_per_block(rows, ends)
        score = _kernel_at(k, dist, per_chunk, grid[0], levels[level][2], params)
        scores[level, rows] += score if weight is None else weight * score
        if level == len(levels) - 1:
            counts += per_chunk
    return [(scores[:, b - size:b], int(count)) for size, b, count in zip(sizes, ends, counts)]


def _combined(levels):
    """The Richardson combination of a ladder's levels, coarsest first, as
    values or sample by sample: of its two finest, at dt (coarse) and dt/2
    (fine), fine + (fine - coarse) / (2^RICHARDSON_ORDER - 1); one level is
    its own."""
    if len(levels) == 1:
        return levels[0]
    coarse, fine = levels[-2:]
    return fine + (fine - coarse) / (2.0**RICHARDSON_ORDER - 1.0)


def _march_batch(params, domain, grid, chunks):
    """The one march task: chunks (points, n_paths, gen), `n_paths` paths
    from each of `points` on `gen`, marched together on `grid` (the finest
    ladder level, read at every stride-th step for each coarser one,
    `_levels`) and scored on every level (`_scored`) at their exits
    (`_exit_steps`).  With `domain` None no path is killed: the paths run
    from the boundary of the half-space and score their record sums
    (`_record_steps`), one point per chunk.

    Returns each chunk's per-point means and M2 (sums of squared deviations
    from the mean) of its score columns, and its exit (or record) count on
    the finest level.  The columns are the levels' scores, coarsest first,
    then their path-by-path combination (`_combined`), the sample whose
    stderr an estimate reports.  A chunk's (points x paths) score matrix
    stays in the task.  Scoring stays per chunk: the far field and numpy's
    pairwise sums may round differently at another array length.
    """
    gens = [gen for _, _, gen in chunks]
    sizes = [len(points) * n_paths for points, n_paths, _ in chunks]
    if domain is None:
        steps = _record_steps(gens, sizes, grid, params)
    else:
        starts = np.concatenate([np.repeat(points, n_paths, axis=0) for points, n_paths, _ in chunks])
        steps = _exit_steps(starts, gens, sizes, domain, grid, params)
    results = []
    for (_, n_paths, _), (scores, count) in zip(chunks, _scored(steps, sizes, grid, params)):
        per_level = [level_scores.reshape(-1, n_paths) for level_scores in scores]
        columns = [*per_level, _combined(per_level)]
        means = [column.mean(axis=1) for column in columns]
        m2 = [((column - mean[:, None]) ** 2).sum(axis=1) for column, mean in zip(columns, means)]
        results.append((np.array(means), np.array(m2), count))
    return results


def _batches(chunks, max_rows, workers):
    """Indices of `chunks` (grid, points, n_paths, gen) in march batches:
    each grid's chunks in order, as many consecutive ones as hold at most a
    cap of rows together, and a larger chunk alone.  The cap is `max_rows`,
    or a grid's rows over `workers` if that is less, so that a grid of
    enough chunks keeps every worker busy."""
    by_grid = {}
    for i, (grid, points, n_paths, _) in enumerate(chunks):
        by_grid.setdefault(grid, []).append((i, len(points) * n_paths))
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
    """Run groups of chunk requests (grid, points, n_paths, gen), each
    scoring every ladder level of its march grid (t, n_steps, dt, levels);
    results come back grouped the same way.

    The chunks of one grid march in batches of at most `max_rows` rows, or
    fewer so that there are enough batches for the workers (`_batches`),
    each batch one task of one `_execute`, after one `_warm` of the kernel
    tables (none at alpha = 1, scored in closed form).  The caller makes
    each generator; pickled, it goes on exactly.  With `domain` None the
    chunks are the record march of `c2_of_t` (`_march_batch`).
    """
    _check_count("workers", workers)
    chunks = [c for group in groups for c in group]
    if params.alpha != 1.0:
        _warm(dict.fromkeys(c[0] for c in chunks), params)
    batches = _batches(chunks, max_rows, workers)
    tasks = [(params, domain, chunks[b[0]][0], [chunks[i][1:] for i in b]) for b in batches]
    done = _execute(_march_batch, tasks, workers)
    by_index = dict(zip([i for b in batches for i in b], [r for out in done for r in out]))
    results = (by_index[i] for i in range(len(chunks)))
    return [[next(results) for _ in group] for group in groups]


def _merge_moments(a, b):
    """Merge two samples' (n, mean, M2), M2 the sum of squared deviations
    from the mean (Chan, Golub & LeVeque 1979); mean and M2 may be arrays,
    one entry per score column, merged column by column.

    Unlike E[x^2] - E[x]^2, the merged M2 keeps its digits when the mean is
    large against the spread.  The mean is the count-weighted one.
    """
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, (n_a * mean_a + n_b * mean_b) / n, m2_a + m2_b + delta * delta * n_a * n_b / n


def _from_moments(moments, grid, meta) -> TraceEstimate:
    """The estimate of a sample's (n, means, M2) over the score columns of
    `_march_batch`: the level means, with the sample stderr of the last
    column, their path-by-path combination."""
    n, means, m2 = moments
    stderr = math.sqrt(float(m2[-1]) / (n - 1) / n)
    return _estimate([float(v) for v in means[:-1]], stderr, n, grid, meta)


def _estimate(values, stderr, n_paths, grid, meta) -> TraceEstimate:
    """The estimate of a ladder's level values, coarsest first, each scored
    by `n_paths` samples, with the stderr of their sample-by-sample
    combination: one level as it is, more Richardson-extrapolated from the
    two finest (`_combined`), their ladder correction the reported bias
    budget.  `dt` is the march grid's, the finest level's; `n_samples` sums
    paths over levels."""
    if len(values) > 1:
        coarse, fine = values[-2:]
        meta = {
            **meta,
            "extrapolated": True,
            "richardson_order": RICHARDSON_ORDER,
            "bias_budget": abs(fine - coarse) / (2.0**RICHARDSON_ORDER - 1.0),
            "value_coarse": coarse,
            "value_fine": fine,
        }
    return TraceEstimate(value=_combined(values), stderr=stderr, n_samples=n_paths * len(values),
                         dt=grid[2], t=grid[0], meta=meta)


def _warm(grids, params):
    """Build every kernel table a march on the (t, n_steps, dt, levels)
    grids can use, on every ladder level of each.

    Called before `_execute`, so the tables, and the theta_beta values on
    the log-z lattice they need, are in the process a pool forks and its
    workers build none.
    The products m * (t - (k - 1/2) dt) on each level's grid are those
    `_kernel_at` asks for; at m = 0 they are all one product, and this is a
    single lookup.
    """
    mts = dict.fromkeys(
        params.m * (grid[0] - (k - 0.5) * dt_level)
        for grid in grids
        for _, n_level, dt_level in _levels(grid)
        for k in range(1, n_level + 1)
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


def _check_flag(name, value):
    """A switch must be a bool: the string "no" is truthy."""
    if not isinstance(value, bool):
        raise ParameterError(f"{name} must be True or False, got {value!r}")


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


def _r_moments(requests, domain, params, workers):
    """The (n, means, M2) of r_D(t, x, x)'s score columns (`_march_batch`:
    the ladder levels, then their path-by-path combination), and the exit
    count on the finest level, for each request (grid, x, n_paths, rng), in
    one march, each on its grid and stream rng (a march of `_ladder`).
    With `domain` None, of the half-space record sums of paths from the
    boundary point x (`_record_steps`), and the record count.

    A request's paths run in chunks of at most `CHUNK_PATHS` on the streams
    rng.substream(c), and their moments are merged chunk by chunk; at most
    `CHUNK_PATHS` paths march at once.
    """
    groups = []
    for grid, x, n_paths, rng in requests:
        _check_count("n_paths", n_paths)
        if n_paths < MIN_PATHS:
            raise BudgetError(f"n_paths={n_paths} below {MIN_PATHS}; stderr would be meaningless")
        x = np.asarray(x, dtype=float)
        if domain is not None and not domain.contains(x):
            raise ParameterError("x must lie inside the domain")
        groups.append([
            (grid, x[None], m, rng.substream(c).generator())
            for c, m in enumerate(_chunk_sizes(n_paths, CHUNK_PATHS))
        ])
    out = []
    for group, results in zip(groups, _march(groups, domain, params, workers, CHUNK_PATHS)):
        chunks = ((c[2], means[:, 0], m2[:, 0]) for c, (means, m2, _) in zip(group, results))
        out.append((functools.reduce(_merge_moments, chunks), sum(e for _, _, e in results)))
    return out


def _ladder(t, dt, rng, extrapolate):
    """The one march of the dt-ladder of (t, dt) on rng: (grid, stream),
    the march grid (t, n_steps, dt, levels) and rng.substream(0).

    Level 0 monitors at dt snapped to t/n, n = round(t/dt) >= 1.  With
    `extrapolate` there are two levels, and the march is the finest one,
    whose every stride-th step level 0 reads (`_levels`): 2n steps of dt/2.
    """
    if dt <= 0.0 or dt > t:
        raise ParameterError(f"need 0 < dt <= t, got dt={dt}, t={t}")
    levels = 2 if extrapolate else 1
    n = max(1, int(round(t / dt)))
    stride = _levels((t, n, t / n, levels))[0][0]  # march steps per step of level 0
    return (t, n * stride, t / n / stride, levels), rng.substream(0)


def _r_estimates(points, domain, n_paths, params, *, extrapolate, workers):
    """Estimates of r_D(t, x, x) at each point (t, x, dt, rng) from
    `n_paths` paths on the one march of the ladder of its dt and rng
    (`_ladder`), two levels Richardson-extrapolated when `extrapolate`;
    every point marches in one batch (`_r_moments`)."""
    marches = [_ladder(t, dt, rng, extrapolate) for t, _, dt, rng in points]
    requests = [(grid, x, n_paths, stream) for (_, x, _, _), (grid, stream) in zip(points, marches)]
    estimates = []
    for (grid, x, _, _), (moments, exits) in zip(
            requests, _r_moments(requests, domain, params, workers)):
        meta = {"estimator": "r_D", "exit_fraction": exits / moments[0],
                "x_delta": float(domain.delta(np.asarray(x, dtype=float)))}
        estimates.append(_from_moments(moments, grid, meta))
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
    """Monte Carlo estimate of r_D(t, x, x) on the one-level ladder of dt
    and rng (`_ladder`): its march draws on rng.substream(0)."""
    return _r_estimates([(t, x, dt, rng)], domain, n_paths, params, extrapolate=False,
                        workers=workers)[0]


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
    (one level unless extrapolating), so its one march draws from
    rng.substream(i).substream(0); every node marches in one pool.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    if q_grid.ndim != 1 or not len(q_grid) or not (q_grid > 0).all():
        raise ParameterError("q grid must be a non-empty 1-d grid of positive depths")
    points = [(t, _axis_point(q, params.d), dt, rng.substream(i)) for i, q in enumerate(q_grid)]
    f_values = _r_estimates(points, HalfSpace(d=params.d), n_paths, params,
                            extrapolate=extrapolate, workers=workers)
    return HalfspaceProfile(t=t, q_grid=q_grid, f_values=tuple(f_values))


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

    Each level of the dt-ladder is the sample mean of `n_paths` record sums
    (`_scored`): one path from the boundary integrates its exit score
    over every depth exactly, so there is no depth grid, no tail and no
    allocation.  Each path scores both levels of the one march (`_ladder`),
    in one pool; `records_per_path` is the mean number of record steps per
    path at the finest level.
    """
    grid, stream = _ladder(t, dt, rng, extrapolate)
    ((moments, records),) = _r_moments([(grid, np.zeros(params.d), n_paths, stream)], None,
                                       params, workers)
    meta = {"estimator": "C2", "m": params.m, "records_per_path": records / moments[0]}
    return _from_moments(moments, grid, meta)


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
    `chunk_points` points, draws its points and its paths from the ladder's
    one stream (`_ladder`) at substream(j, c); the chunks of every stratum
    march in one pool, at most chunk_points x n_paths rows at once, and
    every path scores both ladder levels.  The stderr is that of the
    per-point combination 2 f - c of the levels' path means, within each
    stratum.
    """
    if not getattr(domain, "bounded", False):
        raise ParameterError("z_trace requires a bounded domain")
    _check_count("n_x", n_x)
    _check_count("n_paths", n_paths)
    _check_count("chunk_points", chunk_points)
    strata = default_strata(domain, t, params)
    ft = first_term(t, domain, params)
    grid, sub = _ladder(t, dt, rng, extrapolate)
    layers = []
    for j, ((q_lo, q_hi), n_j) in enumerate(zip(strata, _allocate(domain, strata, t, params, n_x))):
        vol = domain.layer_volume(q_lo, q_hi)
        if vol <= 0.0:
            continue
        layers.append((j, q_lo, q_hi, vol, _chunk_sizes(n_j, chunk_points)))
    groups = []
    for j, q_lo, q_hi, _, sizes in layers:
        gens = [sub.substream(j, c).generator() for c in range(len(sizes))]
        groups.append([(grid, domain.sample_layer(q_lo, q_hi, g, m), n_paths, g)
                       for g, m in zip(gens, sizes)])
    per_stratum = _march(groups, domain, params, workers, chunk_points * n_paths)
    n_points = sum(sum(layer[-1]) for layer in layers)
    interior, var = [0.0] * grid[-1], 0.0  # one sum per ladder level
    for (_, _, _, vol, _), results in zip(layers, per_stratum):
        # per point: each level's path mean, then their combination
        means = np.concatenate([chunk_means for chunk_means, _, _ in results], axis=1)
        interior = [total + vol * level_means.mean() for total, level_means in zip(interior, means)]
        sem = means[-1].std(ddof=1) / math.sqrt(means.shape[1])
        var += (vol * sem) ** 2
    se = math.sqrt(var)
    meta = {
        "estimator": "Z_D",
        "first_term": ft,
        "interior": _combined(interior),  # the first term is exact
        "interior_se": se,
        "n_strata": len(strata),
    }
    return _estimate([ft - i for i in interior], se, n_points * n_paths, grid, meta)


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
    if not getattr(domain, "bounded", False):
        raise ParameterError("residual_scan requires a bounded domain")
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid:
        raise ParameterError("residual_scan needs at least one t")
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
    beyond `Z_SIGMA` of its standard error flags second-mode contamination.
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
    # the quadratic term of a weighted fit measures the curvature of log Z,
    # and the same fit gives its stderr
    curvature, curvature_se = 0.0, math.inf
    if len(ts) >= 3:
        coeffs, cov = np.polyfit(ts, y, 2, w=1.0 / np.sqrt(var_y), cov="unscaled")
        curvature, curvature_se = float(coeffs[0]), math.sqrt(cov[0, 0])
    meta = {
        "estimator": "lambda1",
        "z_values": [e.value for e in zs],
        "z_stderrs": [e.stderr for e in zs],
        "curvature": curvature,
        "second_mode_flag": bool(abs(curvature) > Z_SIGMA * curvature_se),
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
) -> RyznarReport:
    """Mass-comparison inequalities at interior points.

    Checks r_D <= e^{2mt} r0_D and (p - r_D) <= e^{mt} (p0 - r0_D), where
    the 0 superscript is the mass-zero process, allowing `Z_SIGMA` joint
    standard errors of Monte Carlo slack.  Point i runs on rng.substream(i, 0)
    at mass m and on rng.substream(i, 1) at mass 0; all points of one mass
    march in one batch.
    """
    xs = [np.asarray(x, dtype=float) for x in x_list]
    if not xs:
        raise ParameterError("ryznar_check needs at least one point")
    stable = params.with_mass(0.0)
    dt = t / budgets.steps
    ests = [
        _r_estimates([(t, x, dt, rng.substream(i, branch)) for i, x in enumerate(xs)], domain,
                     budgets.n_paths, p, extrapolate=budgets.extrapolate, workers=budgets.workers)
        for branch, p in ((0, params), (1, stable))
    ]
    grow = math.exp(2.0 * params.m * t)
    e_mt = math.exp(params.m * t)
    p_m = free_density(t, 0.0, params)
    p_0 = free_density(t, 0.0, stable)
    rows = []
    n_bad = 0
    for x, est_m, est_0 in zip(xs, *ests):
        joint = math.sqrt(est_m.stderr**2 + (grow * est_0.stderr) ** 2)
        r_violation = est_m.value - grow * est_0.value > Z_SIGMA * joint
        lhs = p_m - est_m.value
        rhs = e_mt * (p_0 - est_0.value)
        joint_p = math.sqrt(est_m.stderr**2 + (e_mt * est_0.stderr) ** 2)
        p_violation = lhs - rhs > Z_SIGMA * joint_p
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
