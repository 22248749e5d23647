"""Exact-in-distribution sampling of subordinator increments and paths.

Stable subordinator draws are rejection-free: at beta = 1/2 (alpha = 1)
the Levy draw T = dt^2 / (2 Z^2) from one standard normal Z, at every
other beta the angle/exponential (Kanter) transformation.  The
relativistic (tempered) subordinator is obtained from these proposals by
exponential-tilting rejection with acceptance probability e^{-m dt} per
proposal.  Process increments are Gaussian with per-coordinate variance
2u conditional on the subordinator value u, matching the Brownian
convention E e^{i xi . B_t} = e^{-t |xi|^2}.

The exit engine draws for many chunks of paths at once, one generator
per chunk: `sample_tempered_blocks` and `sample_leg_blocks` have each
generator make its raw draws (normals, angles, exponentials, uniforms)
for its block of rows, exactly the calls it makes alone, and run each
transform once on all blocks.  The one-generator samplers are their
one-block case.
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
    "sample_tempered_blocks",
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


def _stable_blocks(dt: float, beta: float, gens, counts):
    """Stable proposals T_beta(dt) for consecutive blocks of rows, block c
    drawn by gens[c] as it would draw them alone: the normals Z of the Levy
    draw dt^2 / (2 Z^2) at beta = 1/2, else the angles phi ~ Uniform(0, pi)
    and then W ~ Exp(1) of `kanter_transform`.  The transform runs once,
    on all blocks; phi and W go in separate arrays, as the transform runs
    about 10% slower on the rows of one 2-d array."""
    n = int(sum(counts))
    if beta == 0.5:
        z = np.empty(n)
        for gen, rows in _blocks(gens, counts):
            gen.standard_normal(out=z[rows])
        z *= z
        z *= 2.0  # 2 (z z), bit for bit (2 z) z
        return np.divide(dt * dt, z, out=z)  # dt^2 / (2 z^2), in place
    phi, w = np.empty(n), np.empty(n)
    for gen, rows in _blocks(gens, counts):
        phi[rows] = gen.uniform(0.0, math.pi, rows.stop - rows.start)
        gen.standard_exponential(out=w[rows])
    return kanter_transform(phi, w, dt, beta)


def sample_stable_subordinator(dt: float, beta: float, rng: RngStream | np.random.Generator, size=None):
    """Draws of T_beta(dt), the subordinator with E e^{-lam T} = e^{-dt lam^beta}.

    At beta = 1/2 this is the Levy law, drawn as dt^2 / (2 Z^2) with Z
    standard normal; `kanter_transform`, which every other beta uses, draws
    the same law and is its test oracle.
    """
    if dt <= 0.0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    out = _stable_blocks(dt, beta, [gen], [n])
    return float(out[0]) if size is None else out


def _rejected(u, tilt: float, gens, counts):
    """Indices of the proposals u that tilting rejects: gens[c] draws the
    acceptance uniforms of block c, and row i is rejected unless its
    uniform is below e^{-tilt u_i}."""
    uniforms = np.empty(len(u))
    for gen, rows in _blocks(gens, counts):
        gen.random(out=uniforms[rows])
    p_accept = np.multiply(u, -tilt)
    return np.flatnonzero(uniforms >= np.exp(p_accept, out=p_accept))


def sample_tempered_blocks(
    dt: float,
    params: ProcessParams,
    gens,
    counts,
):
    """Relativistic subordinator steps T_beta(dt, m) for consecutive blocks
    of rows, by tilting rejection; returns (draws, number of proposals).

    Proposals are stable draws accepted with probability e^{-m^{1/beta} u};
    the overall acceptance rate is e^{-m dt}.  When that rate falls below
    `ACCEPTANCE_FLOOR` the step is refused outright.  Round 1 proposes
    every row and keeps the proposals as the draws; each later round
    proposes again for the rows the previous round rejected, and only those
    rows are drawn and written.  Generator gens[c] makes block c's
    counts[c] draws: its proposals, then (m > 0) their acceptance uniforms,
    then the same for its rejected rows, until none is left, the calls of a
    march of that block alone.  The transforms and the acceptance test run
    once per round on every block together.
    """
    if dt <= 0.0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    expected_rate = math.exp(-params.m * dt)
    if expected_rate < ACCEPTANCE_FLOOR:
        raise StepTooLargeError(
            f"tempering acceptance e^(-m dt) = {expected_rate:.3e} below floor "
            f"{ACCEPTANCE_FLOOR:.1e}; reduce dt below {-math.log(ACCEPTANCE_FLOOR) / params.m:.3e}"
        )
    beta = params.beta
    n = int(sum(counts))
    if params.m == 0.0:
        return _stable_blocks(dt, beta, gens, counts), n
    tilt = params.m ** (1.0 / beta)
    ends = np.cumsum(counts)
    out = _stable_blocks(dt, beta, gens, counts)
    rejected = _rejected(out, tilt, gens, counts)
    n_proposals = n
    while len(rejected):
        per_block = _rows_per_block(rejected, ends)
        u = _stable_blocks(dt, beta, gens, per_block)
        out[rejected] = u
        rejected = rejected[_rejected(u, tilt, gens, per_block)]
        n_proposals += len(u)
    return out, n_proposals


def sample_tempered_subordinator(
    dt: float,
    params: ProcessParams,
    rng: RngStream | np.random.Generator,
    size=None,
    return_stats: bool = False,
):
    """Draws of the relativistic subordinator T_beta(dt, m) by tilting
    rejection: `sample_tempered_blocks` with one block."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    out, n_proposals = sample_tempered_blocks(dt, params, [gen], [n])
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
    """Increment of the relativistic process over a step of length dt."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = 1 if size is None else int(size)
    u = np.atleast_1d(sample_tempered_subordinator(dt, params, gen, size=n))
    x = sample_brownian_leg(u, params.d, gen)
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
