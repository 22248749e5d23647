"""Exact-in-distribution sampling of subordinator increments and paths.

Two step primitives draw one step of length dt.  `sample_step_blocks`
draws the clock u of a step (the relativistic subordinator T_beta(dt, m))
and the process increment x over it.  Stable proposals are
rejection-free, and the relativistic (tempered) subordinator is obtained
from them by exponential-tilting rejection with acceptance probability
e^{-m dt} per proposal.  Increments are Gaussian with per-coordinate
variance 2u conditional on the clock u, matching the Brownian convention
E e^{i xi . B_t} = e^{-t |xi|^2}.

At beta = 1/2 (alpha = 1) a proposal is drawn from two uniforms, one of
them as an exponential, and is the pair of the increment's first
coordinate and its clock: the coordinate is Cauchy, dt tan(pi (V - 1/2)),
and given it the clock is inverse gamma (Devroye, Non-Uniform Random
Variate Generation, 1986, ch. IV).  Tilting accepts or redraws the pair,
and only the other d - 1 coordinates need normals.  Every other beta
proposes by the angle/exponential (Kanter) transformation and draws all d
coordinates of the increment as normals.

`sample_increment_blocks` draws the increment alone.  At alpha = 1 in the
plane (d = 2) it needs no clock: by Archimedes' hat-box theorem
c = dt / sqrt(dt^2 + |x|^2) of the bivariate Cauchy step is Uniform(0, 1]
and independent of its uniform direction, and the mass tilts that law by
(1 + mS) e^{-mS}, S = dt / c, the K_{3/2} case of Ryznar's kernel.  A step
is three uniforms: c, its acceptance and the angle (`_plane_steps`).
Every other (alpha, d) draws the step of `sample_step_blocks` and drops
its clock.  The record march of the half-space reads the clock, as do the
subordinator samplers, so they keep the pair.

The marches draw for many chunks of paths at once, one generator per
chunk: the block samplers have each generator make its raw draws
(uniforms, exponentials, angles, normals) for its block of rows, exactly
the calls it makes alone, and run each transform once on all blocks.  The
one-generator samplers are their one-block case.  A march allocates the
work arrays of its steps once (`step_work`), and the primitives write
into their first columns.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StepTooLargeError
from .specfun import ProcessParams, kanter_factor

__all__ = [
    "RngStream",
    "PathGrid",
    "kanter_transform",
    "sample_stable_subordinator",
    "sample_step_blocks",
    "sample_increment_blocks",
    "step_work",
    "sample_tempered_subordinator",
    "sample_leg_blocks",
    "sample_brownian_leg",
    "sample_increment",
    "empirical_transform",
    "simulate_path",
]

ACCEPTANCE_FLOOR = 1e-3


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream.

    Identical (seed, stream_id) always reproduce the same draws; distinct
    stream ids give statistically independent streams.  Each stream is an
    SFC64 generator seeded from `SeedSequence(seed, spawn_key=_path)`, so
    independence rests on the seed sequence's hashing of distinct spawn
    keys; nothing downstream depends on the specific bit stream, and a
    generator pickles to a pool worker with its state.  `_path` is the
    spawn key, (stream_id,) followed by the substream indices, so streams
    that draw differently compare, hash and print differently.
    """

    seed: int
    stream_id: int = 0
    _path: tuple = None

    def __post_init__(self):
        if self._path is None:
            object.__setattr__(self, "_path", (self.stream_id,))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self._path)
        return np.random.Generator(np.random.SFC64(seq))

    def substream(self, *indices: int) -> "RngStream":
        """Child stream at a fixed coordinate path; used for deterministic
        work splitting across workers and strata."""
        key = self._path + tuple(int(i) for i in indices)
        return RngStream(seed=self.seed, stream_id=self.stream_id, _path=key)


@dataclass(frozen=True)
class PathGrid:
    """Time-discretized trajectory: positions[k] is the state at time k*dt."""

    start: np.ndarray
    dt: float
    horizon: float
    positions: np.ndarray

    def __post_init__(self):
        n_expected = int(math.floor(self.horizon / self.dt + 1e-12)) + 1
        if len(self.positions) != n_expected:
            raise ParameterError(
                f"positions has {len(self.positions)} entries, expected {n_expected}"
            )
        if not np.array_equal(self.positions[0], self.start):
            raise ParameterError("positions[0] must equal start")

    def __len__(self):
        return len(self.positions)


def kanter_transform(phi, w, dt: float, beta: float):
    """Map (phi, W) ~ Uniform(0,pi) x Exp(1) to a stable subordinator draw:

        T = dt^{1/beta} (A(phi)/W)^{(1-beta)/beta}

    with A the Zolotarev/Kanter angular factor.
    """
    a = kanter_factor(phi, beta)
    return dt ** (1.0 / beta) * (a / w) ** ((1.0 - beta) / beta)


def _rows_per_block(rows, ends):
    """How many of the sorted row indices `rows` lie in each block of
    consecutive rows, block c ending before row ends[c]."""
    cum = np.searchsorted(rows, ends).tolist()
    return [b - a for a, b in zip([0] + cum, cum)]


def _blocks(gens, counts):
    """(gens[c], slice of block c's rows) for each non-empty block c of
    consecutive rows, block c holding counts[c] rows."""
    lo = 0
    for gen, k in zip(gens, counts):
        if k:
            yield gen, slice(lo, lo + k)
            lo += k


def _proposals(dt: float, beta: float, gens, counts, out=None):
    """Stable proposals for consecutive blocks of rows, block c drawn by
    gens[c] as it would draw them alone: a tuple whose first array is the
    clock u, the transforms run once on all blocks.

    At beta = 1/2 a proposal is the pair (u, dt tau) from V ~ Uniform(0, 1)
    and then E ~ Exp(1): tau = tan(pi (V - 1/2)) is standard Cauchy, dt tau
    is the first coordinate of the step's increment, and given it the
    clock is inverse gamma, u = dt^2 (1 + tau^2) / (4 E); with `out`
    (`step_work`) u and dt tau are written to its rows 0 and 1, and row 2
    is scratch.  Every other beta draws the angles phi ~ Uniform(0, pi) and
    then W ~ Exp(1) of `kanter_transform`, in separate arrays, as the
    transform runs about 10% slower on the rows of one 2-d array.
    """
    n = int(sum(counts))
    if beta == 0.5:
        u, tau, scale = (np.empty(n) for _ in range(3)) if out is None else out[:3, :n]
        for gen, rows in _blocks(gens, counts):
            gen.random(out=tau[rows])
            gen.standard_exponential(out=u[rows])
        tau -= 0.5
        tau *= math.pi
        np.tan(tau, out=tau)
        np.multiply(tau, tau, out=scale)
        scale += 1.0
        scale *= 0.25 * dt * dt
        tau *= dt
        return np.divide(scale, u, out=u), tau  # dt^2 / 4 (1 + tau^2) / E, dt tau
    phi, w = np.empty(n), np.empty(n)
    for gen, rows in _blocks(gens, counts):
        phi[rows] = gen.uniform(0.0, math.pi, rows.stop - rows.start)
        gen.standard_exponential(out=w[rows])
    return (kanter_transform(phi, w, dt, beta),)


def _uniforms(gens, counts, out):
    """`out` filled with uniforms on [0, 1), gens[c] drawing block c's."""
    for gen, rows in _blocks(gens, counts):
        gen.random(out=out[rows])
    return out


def _rejected(u, tilt: float, gens, counts, work=None):
    """Indices of the proposals u that tilting rejects: gens[c] draws the
    acceptance uniforms of block c, and row i is rejected unless its
    uniform is below e^{-tilt u_i}.  `work`, two rows of len(u), holds the
    uniforms and the acceptance probabilities."""
    uniforms, p_accept = np.empty((2, len(u))) if work is None else work
    _uniforms(gens, counts, uniforms)
    np.multiply(u, -tilt, out=p_accept)
    return np.flatnonzero(uniforms >= np.exp(p_accept, out=p_accept))


def _check_step(dt: float, m: float):
    """A step needs dt > 0, and a tempering acceptance rate e^{-m dt} of at
    least `ACCEPTANCE_FLOOR`."""
    if dt <= 0.0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    expected_rate = math.exp(-m * dt)
    if expected_rate < ACCEPTANCE_FLOOR:
        raise StepTooLargeError(
            f"tempering acceptance e^(-m dt) = {expected_rate:.3e} below floor "
            f"{ACCEPTANCE_FLOOR:.1e}; reduce dt below {-math.log(ACCEPTANCE_FLOOR) / m:.3e}"
        )


def step_work(n: int):
    """Work arrays for steps of up to n rows, the `out` of
    `sample_step_blocks` and `sample_increment_blocks`: a step of k rows
    writes into their first k columns only, so a march whose rows only
    shrink allocates them once."""
    return np.empty((4, n))


def sample_step_blocks(dt: float, params: ProcessParams, d: int, gens, counts, out=None):
    """One step of length dt for consecutive blocks of rows: (u, x, number
    of proposals), u the clock T_beta(dt, m) and x the (rows, d) increment
    of the process over it; d = 0 draws the clock alone.

    Clocks come from stable proposals (`_proposals`) by tilting rejection:
    a proposal is accepted with probability e^{-m^{1/beta} u}, so the
    overall rate is e^{-m dt}, and when that rate falls below
    `ACCEPTANCE_FLOOR` the step is refused outright.  Round 1 proposes
    every row and keeps the proposals; each later round proposes again for
    the rows the previous round rejected, and only those rows are drawn and
    written.  At beta = 1/2 a proposal is the pair of the first coordinate
    dt tau and its clock, accepted or redrawn together, and coordinates
    2..d are sqrt(2u) G; at every other beta all d coordinates are
    sqrt(2u) G (`sample_leg_blocks`).  Generator gens[c] makes block c's
    draws: its counts[c] proposals, then (m > 0) their acceptance
    uniforms, then the same for its rejected rows until none is left, and
    then its normals G, the calls of a step of that block alone.  The
    transforms and the acceptance test run once per round on every block
    together.

    With `out` (`step_work`), round 1 at beta = 1/2 draws and tests in its
    rows, and for d <= 1 the u and x returned are views of them, valid
    until the next step that writes there; other beta allocate.
    """
    _check_step(dt, params.m)
    beta = params.beta
    work = out if beta == 0.5 else None
    proposed = _proposals(dt, beta, gens, counts, work)
    n_proposals = len(proposed[0])
    if params.m > 0.0:
        tilt = params.m ** (1.0 / beta)
        ends = np.cumsum(counts)
        scratch = None if work is None else work[2:, :n_proposals]
        rejected = _rejected(proposed[0], tilt, gens, counts, scratch)
        while len(rejected):
            per_block = _rows_per_block(rejected, ends)
            redrawn = _proposals(dt, beta, gens, per_block)
            for array, values in zip(proposed, redrawn):
                array[rejected] = values
            rejected = rejected[_rejected(redrawn[0], tilt, gens, per_block)]
            n_proposals += len(redrawn[0])
    u = proposed[0]
    if beta != 0.5:
        return u, sample_leg_blocks(u, d, gens, counts), n_proposals
    x = proposed[1][:, None]  # the first coordinates, as a column
    if d > 1:
        x = np.concatenate([x, sample_leg_blocks(u, d - 1, gens, counts)], axis=1)
    return u, x[:, :d], n_proposals


def _plane_rejected(v, m_dt: float, gens, counts, work):
    """Indices of the rows whose V the mass rejects: gens[c] draws the
    acceptance uniforms of block c, and row i is rejected unless its
    uniform is below (1 + mS) e^{-mS}, mS = m dt / (1 - V_i).  `work`,
    three rows of len(v), holds the uniforms and the scratch."""
    uniforms, m_s, p_accept = work
    _uniforms(gens, counts, uniforms)
    np.subtract(1.0, v, out=m_s)
    np.divide(-m_dt, m_s, out=m_s)  # -mS, exactly
    np.exp(m_s, out=p_accept)
    np.subtract(1.0, m_s, out=m_s)  # 1 + mS
    p_accept *= m_s
    return np.flatnonzero(uniforms >= p_accept)


def _plane_steps(dt: float, m: float, gens, counts, work):
    """The alpha = 1 steps of the plane (d = 2) for consecutive blocks of
    rows, from three uniforms a row: (x, number of proposals), x the
    (rows, 2) view of rows 0 and 1 of `work` (`step_work`).

    By Archimedes' hat-box theorem c = dt / sqrt(dt^2 + |x|^2) of the
    mass-zero step, bivariate Cauchy of scale dt, is Uniform(0, 1] and
    independent of its uniform direction.  So c = 1 - V for V ~ Uniform(0,
    1), and |x| = dt sqrt(V (2 - V)) / (1 - V).  The mass tilts the density
    by e^{m dt} (1 + mS) e^{-mS}, S = sqrt(dt^2 + |x|^2) = dt / c (the
    K_{3/2} case of Ryznar's kernel, Potential Anal. 17, 2002), so V is
    accepted with probability (1 + mS) e^{-mS}, at rate e^{-m dt}, and
    the rejected rows are redrawn.  The direction is ((1 - tau^2), 2 tau) /
    (1 + tau^2), tau = tan(pi (W - 1/2)) for W ~ Uniform(0, 1).  Generator
    gens[c] draws block c's V, then (m > 0) their acceptance uniforms, then
    the same for its rejected rows until none is left, and then its W, the
    calls of that block alone.
    """
    n = int(sum(counts))
    x, v, w = work[:2, :n], work[2, :n], work[3, :n]
    _uniforms(gens, counts, v)
    n_proposals = n
    if m > 0.0:
        ends = np.cumsum(counts)
        rejected = _plane_rejected(v, m * dt, gens, counts, (w, *x))
        while len(rejected):
            per_block = _rows_per_block(rejected, ends)
            redrawn = _uniforms(gens, per_block, np.empty(len(rejected)))
            v[rejected] = redrawn
            rejected = rejected[_plane_rejected(redrawn, m * dt, gens, per_block,
                                                np.empty((3, len(rejected))))]
            n_proposals += len(redrawn)
    _uniforms(gens, counts, w)
    x0, x1 = x
    np.subtract(2.0, v, out=x1)  # the radius, dt sqrt(V (2 - V)) / (1 - V)
    x1 *= v
    np.sqrt(x1, out=x1)
    x1 *= dt
    np.subtract(1.0, v, out=v)
    x1 /= v
    w -= 0.5  # tau
    w *= math.pi
    np.tan(w, out=w)
    np.multiply(w, w, out=x0)
    np.add(x0, 1.0, out=v)
    x1 /= v  # the radius over 1 + tau^2
    np.subtract(1.0, x0, out=x0)
    x0 *= x1
    w *= 2.0
    x1 *= w
    return x.T, n_proposals


def sample_increment_blocks(dt: float, params: ProcessParams, gens, counts, out=None):
    """The increments of one step of length dt for consecutive blocks of
    rows, without their clocks: (x, number of proposals), x (rows, d).

    At alpha = 1 in the plane (d = 2) a step is three uniforms a row
    (`_plane_steps`), and x is a view of rows 0 and 1 of `out`
    (`step_work`, made here when None), valid until the next step that
    writes there.  Every other (alpha, d) draws the step of
    `sample_step_blocks` and drops its clock.  On either route the
    tempering acceptance rate is e^{-m dt}, checked against
    `ACCEPTANCE_FLOOR`.
    """
    if params.alpha == 1.0 and params.d == 2:
        _check_step(dt, params.m)
        work = step_work(int(sum(counts))) if out is None else out
        return _plane_steps(dt, params.m, gens, counts, work)
    _, x, n_proposals = sample_step_blocks(dt, params, params.d, gens, counts, out)
    return x, n_proposals


def sample_stable_subordinator(dt: float, beta: float, rng: RngStream | np.random.Generator, size=None):
    """Draws of T_beta(dt), the subordinator with E e^{-lam T} = e^{-dt lam^beta}:
    the clocks of `sample_step_blocks` at m = 0, with one block and no leg.

    At beta = 1/2 this is the Levy law, drawn from (V, E) as the clock of a
    Cauchy step, dt^2 (1 + tan^2(pi (V - 1/2))) / (4 E); `kanter_transform`,
    which every other beta uses, draws the same law and is its test oracle.
    """
    if dt <= 0.0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    out, _, _ = sample_step_blocks(dt, ProcessParams(alpha=2.0 * beta), 0, [gen], [n])
    return float(out[0]) if size is None else out


def sample_tempered_subordinator(
    dt: float,
    params: ProcessParams,
    rng: RngStream | np.random.Generator,
    size=None,
    return_stats: bool = False,
):
    """Draws of the relativistic subordinator T_beta(dt, m) by tilting
    rejection: the clocks of `sample_step_blocks` with one block and no
    leg."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    out, _, n_proposals = sample_step_blocks(dt, params, 0, [gen], [n])
    result = float(out[0]) if size is None else out
    if return_stats:
        return result, n_proposals
    return result


def sample_leg_blocks(u, d: int, gens, counts):
    """Gaussian displacements over operational times u, per-coordinate
    variance 2u, for consecutive blocks of rows: gens[c] draws block c's
    (counts[c], d) normals in one call, and the scaling runs once."""
    g = np.empty((len(u), d))
    for gen, rows in _blocks(gens, counts):
        gen.standard_normal(out=g[rows])
    scale = 2.0 * u
    g *= np.sqrt(scale, out=scale)[:, None]
    return g


def sample_brownian_leg(u, d: int, gen: np.random.Generator):
    """Gaussian displacement over operational time u: per-coordinate variance 2u."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return sample_leg_blocks(u, d, [gen], [len(u)])


def sample_increment(dt: float, params: ProcessParams, rng: RngStream | np.random.Generator, size=None):
    """Increment of the relativistic process over a step of length dt: the
    increments of `sample_increment_blocks` with one block."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    x, _ = sample_increment_blocks(dt, params, [gen], [n])
    return x[0] if size is None else x


def empirical_transform(values, target: float):
    """Mean of a sample of transform values (e^{-lam T}, cos(xi X), ...) and
    its z-score against the exact `target`, with se = std(ddof=1) / sqrt(n)."""
    mean = values.mean()
    return mean, (mean - target) / (values.std(ddof=1) / math.sqrt(len(values)))


def simulate_path(start, horizon: float, dt: float, params: ProcessParams, rng: RngStream | np.random.Generator) -> PathGrid:
    """Compose independent increments into a trajectory on the time grid."""
    if dt <= 0.0 or horizon < dt:
        raise ParameterError(f"need horizon >= dt > 0, got horizon={horizon}, dt={dt}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    start = np.asarray(start, dtype=float)
    if start.shape != (params.d,):
        raise ParameterError(f"start must have shape ({params.d},), got {start.shape}")
    n_steps = int(math.floor(horizon / dt + 1e-12))
    steps = sample_increment(dt, params, gen, size=n_steps)
    positions = np.empty((n_steps + 1, params.d))
    positions[0] = start
    np.cumsum(steps, axis=0, out=positions[1:])
    positions[1:] += start
    return PathGrid(start=start, dt=dt, horizon=horizon, positions=positions)
