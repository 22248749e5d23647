import math
import pickle

import numpy as np
import pytest
from scipy.stats import ks_2samp

from relheat.errors import ParameterError, StepTooLargeError
from relheat.sampler import (
    PathGrid,
    RngStream,
    kanter_transform,
    sample_brownian_leg,
    sample_increment,
    sample_leg_blocks,
    sample_stable_subordinator,
    sample_tempered_blocks,
    sample_tempered_subordinator,
    simulate_path,
)
from relheat.specfun import ProcessParams


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).generator().standard_normal(16)
        b = RngStream(42, 3).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(16)
        b = RngStream(42, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_substream_deterministic_and_distinct(self):
        s = RngStream(7, 0)
        a = s.substream(1, 2).generator().standard_normal(8)
        b = s.substream(1, 2).generator().standard_normal(8)
        c = s.substream(2, 1).generator().standard_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pickled_generator_resumes_the_draws(self):
        # the march hands its generators to pool workers by pickling them
        gen = RngStream(5, 2).substream(3, 1).generator()
        gen.standard_normal(7)
        clone = pickle.loads(pickle.dumps(gen))
        assert type(clone.bit_generator) is type(gen.bit_generator)
        assert np.array_equal(clone.standard_normal(16), gen.standard_normal(16))
        assert np.array_equal(clone.random(16), gen.random(16))

    def test_equality_follows_the_draws(self):
        # streams that draw differently never compare, hash or print alike;
        # streams that draw alike compare equal however they were made
        one, two = RngStream(1, 0).substream(1), RngStream(1, 0).substream(2)
        assert not np.array_equal(one.generator().random(4), two.generator().random(4))
        assert one != two and len({one, two}) == 2 and repr(one) != repr(two)
        assert RngStream(1, 0) != one
        assert RngStream(1, 0).substream() == RngStream(1, 0)
        assert RngStream(1, 0).substream(1, 2) == one.substream(2)
        assert hash(RngStream(1, 0).substream(1, 2)) == hash(one.substream(2))


class TestKanterTransform:
    def test_forced_randomness(self):
        # phi = pi/2, W = 1, beta = 1/2: angular factor (sqrt2/2)^2 = 1/2,
        # T = (1/2 / 1)^{(1-b)/b} = 1/2
        assert kanter_transform(math.pi / 2, 1.0, 1.0, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_step_scaling_under_same_randomness(self):
        phi = np.array([0.3, 1.0, 2.5])
        w = np.array([0.5, 1.0, 2.0])
        for beta, dt in ((0.5, 0.3), (0.75, 2.0)):
            base = kanter_transform(phi, w, 1.0, beta)
            scaled = kanter_transform(phi, w, dt, beta)
            assert np.allclose(scaled, dt ** (1 / beta) * base, rtol=1e-12)


class TestStableSubordinator:
    @pytest.mark.parametrize("beta", [0.5, 0.75])
    def test_laplace_transform(self, beta, rng, within_se):
        n = 200_000
        draws = sample_stable_subordinator(0.7, beta, rng.substream(int(beta * 100)), size=n)
        assert (draws > 0).all()
        for lam in (0.5, 1.0, 2.0):
            emp = np.exp(-lam * draws)
            target = math.exp(-0.7 * lam**beta)
            within_se(emp.mean(), target, emp.std(ddof=1) / math.sqrt(n), z=4.0,
                      msg=f"beta={beta}, lam={lam}")

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ParameterError):
            sample_stable_subordinator(0.0, 0.5, rng)
        with pytest.raises(ParameterError):
            sample_stable_subordinator(1.0, 1.2, rng)


class TestTemperedSubordinator:
    def test_massless_equals_stable(self, rng):
        p = ProcessParams(alpha=1.0, m=0.0, d=2)
        a = sample_tempered_subordinator(0.5, p, rng.substream(0), size=1000)
        b = sample_stable_subordinator(0.5, 0.5, rng.substream(0), size=1000)
        assert np.array_equal(a, b)

    def test_acceptance_rate(self, rng, within_se):
        p = ProcessParams(alpha=1.0, m=1.0, d=2)
        n = 100_000
        draws, n_prop = sample_tempered_subordinator(
            0.1, p, rng.substream(1), size=n, return_stats=True
        )
        rate = n / n_prop
        target = math.exp(-0.1)
        within_se(rate, target, math.sqrt(target * (1 - target) / n_prop), z=4.0,
                  msg="acceptance rate")

    def test_mean_matches_transform_derivative(self, rng, within_se):
        # E T = dt beta m^{(beta-1)/beta}; at m=1 this is dt * beta
        p = ProcessParams(alpha=1.0, m=1.0, d=2)
        n = 200_000
        dt = 0.1
        draws = sample_tempered_subordinator(dt, p, rng.substream(2), size=n)
        within_se(draws.mean(), dt * p.beta, draws.std(ddof=1) / math.sqrt(n), z=4.0,
                  msg="tempered mean")

    def test_step_too_large(self, rng):
        p = ProcessParams(alpha=1.0, m=1.0, d=2)
        with pytest.raises(StepTooLargeError):
            sample_tempered_subordinator(8.0, p, rng)  # e^{-8} < 1e-3


class TestLevyDraws:
    """beta = 1/2 draws dt^2 / (2 Z^2) instead of the Kanter transform."""

    @pytest.mark.parametrize("m", [1.0, 20.0])
    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    def test_tempered_laplace_transform(self, m, dt, rng, within_se):
        # E e^{-lam T} = e^{-dt (sqrt(lam + m^2) - m)}, at lam on the scale
        # of the stable part (1/dt^2) and of the tempering (m^2)
        p = ProcessParams(alpha=1.0, m=m, d=2)
        n = 200_000
        draws = sample_tempered_subordinator(dt, p, rng.substream(40, int(m), int(1 / dt)), size=n)
        for lam in (0.5 / dt**2, 4.0 / dt**2, m * m):
            emp = np.exp(-lam * draws)
            target = math.exp(-dt * (math.sqrt(lam + m * m) - m))
            within_se(emp.mean(), target, emp.std(ddof=1) / math.sqrt(n), z=4.0,
                      msg=f"m={m}, dt={dt}, lam={lam}")

    def test_same_law_as_kanter_transform(self, rng):
        n, dt = 20_000, 0.1
        draws = sample_stable_subordinator(dt, 0.5, rng.substream(41), size=n)
        gen = rng.substream(42).generator()
        oracle = kanter_transform(gen.uniform(0.0, math.pi, n), gen.standard_exponential(n), dt, 0.5)
        assert ks_2samp(draws, oracle).pvalue > 1e-3


def tempered_reference(dt, params, gen, n):
    """Tilting rejection written out for one generator: n stable proposals,
    then their acceptance uniforms, then the same for the rejected rows.
    Returns the draws and the number of proposals."""
    beta = params.beta

    def stable(k):
        if beta == 0.5:
            z = gen.standard_normal(k)
            return dt * dt / (2.0 * z * z)
        return kanter_transform(gen.uniform(0.0, math.pi, k), gen.standard_exponential(k), dt, beta)

    if params.m == 0.0:
        return stable(n), n
    out, pending, n_proposals = np.empty(n), np.arange(n), 0
    while len(pending):
        u = stable(len(pending))
        accept = gen.random(len(pending)) < np.exp(-params.m ** (1.0 / beta) * u)
        out[pending[accept]] = u[accept]
        n_proposals += len(pending)
        pending = pending[~accept]
    return out, n_proposals


class TestBlocks:
    """Draws for blocks of rows, one generator per block, against each
    generator drawing alone."""

    @pytest.mark.parametrize("m", [0.0, 1.0, 20.0])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_blocks_equal_separate_draws(self, alpha, m):
        # m = 20 at dt = 0.1 accepts 14% of proposals: many rounds, in
        # which the blocks' pending counts differ and reach 0 at different
        # rounds; an empty block draws nothing
        params = ProcessParams(alpha=alpha, m=m, d=3)
        counts = [500, 0, 1, 37]
        gens = [np.random.default_rng(seed) for seed in range(len(counts))]
        u, n_proposals = sample_tempered_blocks(0.1, params, gens, counts)
        legs = sample_leg_blocks(u, 3, gens, counts)
        lo, want_proposals = 0, 0
        for seed, (gen, k) in enumerate(zip(gens, counts)):
            alone = np.random.default_rng(seed)
            want, proposals = tempered_reference(0.1, params, alone, k)
            want_proposals += proposals
            assert np.array_equal(u[lo:lo + k], want)
            leg = alone.standard_normal((k, 3)) * np.sqrt(2.0 * want)[:, None]
            assert np.array_equal(legs[lo:lo + k], leg)
            assert gen.bit_generator.state == alone.bit_generator.state
            lo += k
        assert n_proposals == want_proposals
        assert (n_proposals == sum(counts)) == (m == 0.0)

    def test_step_too_large(self, rng):
        # the march draws through the blocks, so they refuse such a step too
        p = ProcessParams(alpha=1.0, m=1.0, d=2)
        with pytest.raises(StepTooLargeError):
            sample_tempered_blocks(8.0, p, [rng.generator()], [10])


class TestIncrements:
    def test_mean_zero(self, rng, within_se):
        p = ProcessParams(alpha=1.0, m=1.0, d=2)
        n = 200_000
        x = sample_increment(0.1, p, rng.substream(3), size=n)
        assert x.shape == (n, 2)
        for j in range(2):
            within_se(x[:, j].mean(), 0.0, x[:, j].std(ddof=1) / math.sqrt(n), z=4.0)

    def test_cauchy_median(self, rng, within_se):
        # m=0, alpha=1: first coordinate is Cauchy with scale dt, so the
        # median of |x_1| equals dt
        p = ProcessParams(alpha=1.0, m=0.0, d=2)
        n = 200_000
        dt = 0.3
        x = sample_increment(dt, p, rng.substream(4), size=n)
        med = np.median(np.abs(x[:, 0]))
        med_se = math.pi * dt / (2 * math.sqrt(n))
        within_se(med, dt, med_se, z=4.0, msg="Cauchy median")

    def test_characteristic_function(self, rng, within_se):
        p = ProcessParams(alpha=0.5, m=1.0, d=2)
        n = 200_000
        dt = 0.1
        x = sample_increment(dt, p, rng.substream(5), size=n)
        for xi in (0.5, 2.0):
            emp = np.cos(xi * x[:, 0])
            target = math.exp(-dt * ((p.m ** (2 / p.alpha) + xi**2) ** (p.alpha / 2) - p.m))
            within_se(emp.mean(), target, emp.std(ddof=1) / math.sqrt(n), z=4.0,
                      msg=f"cf at xi={xi}")

    def test_brownian_leg_variance(self, rng, within_se):
        # the operational-time convention: per-coordinate variance 2u
        n = 200_000
        u = np.full(n, 0.7)
        g = sample_brownian_leg(u, 3, rng.substream(6).generator())
        for j in range(3):
            v = g[:, j].var(ddof=1)
            within_se(v, 2 * 0.7, v * math.sqrt(2.0 / n), z=4.0, msg="leg variance")


class TestSimulatePath:
    def test_grid_length(self, rng):
        p = ProcessParams(alpha=1.0, m=0.0, d=2)
        path = simulate_path(np.zeros(2), 0.5, 0.5, p, rng.substream(7))
        assert len(path) == 2
        path = simulate_path(np.zeros(2), 1.0, 0.25, p, rng.substream(8))
        assert len(path) == 5
        assert np.array_equal(path.positions[0], np.zeros(2))

    def test_deterministic(self, rng):
        p = ProcessParams(alpha=1.0, m=0.5, d=2)
        a = simulate_path(np.zeros(2), 1.0, 0.125, p, rng.substream(9))
        b = simulate_path(np.zeros(2), 1.0, 0.125, p, rng.substream(9))
        assert np.array_equal(a.positions, b.positions)

    def test_rejects_bad_grid(self, rng):
        p = ProcessParams(alpha=1.0, m=0.0, d=2)
        with pytest.raises(ParameterError):
            simulate_path(np.zeros(2), 0.1, 0.2, p, rng)
        with pytest.raises(ParameterError):
            simulate_path(np.zeros(3), 1.0, 0.5, p, rng)

    def test_grid_composition_law(self, rng, within_se):
        # the position after k steps has the law of one increment over k dt
        p = ProcessParams(alpha=1.0, m=0.0, d=2)
        dt, k, n = 0.1, 4, 3000
        ends = np.array([
            simulate_path(np.zeros(2), k * dt, dt, p, rng.substream(10, i)).positions[-1]
            for i in range(n)
        ])
        for xi in (0.5, 1.5):
            emp = np.cos(xi * ends[:, 0])
            target = math.exp(-k * dt * xi)
            within_se(emp.mean(), target, emp.std(ddof=1) / math.sqrt(n), z=4.0,
                      msg=f"4-step law at xi={xi}")

    def test_pathgrid_invariants(self):
        with pytest.raises(ParameterError):
            PathGrid(start=np.zeros(2), dt=0.5, horizon=1.0, positions=np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            PathGrid(start=np.ones(2), dt=0.5, horizon=1.0, positions=np.zeros((3, 2)))
