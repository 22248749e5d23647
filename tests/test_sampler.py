import math
import pickle

import numpy as np
import pytest
from scipy.stats import chi2_contingency, kstest, ks_2samp

from relheat.errors import ParameterError, StepTooLargeError
from relheat.sampler import (
    PathGrid,
    RngStream,
    kanter_transform,
    sample_brownian_leg,
    sample_increment,
    sample_increment_blocks,
    sample_stable_subordinator,
    sample_step_blocks,
    sample_tempered_subordinator,
    simulate_path,
    step_work,
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
    """beta = 1/2 draws the pair of a Cauchy step's first coordinate and
    its clock instead of the Kanter transform."""

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

    @pytest.mark.parametrize("m", [0.0, 1.0, 20.0])
    def test_joint_law_of_leg_and_clock(self, m, rng, within_se):
        # given its clock u the first coordinate is N(0, 2u), so
        # E cos(xi x_1) e^{-lam u} = E e^{-(lam + xi^2) u}
        #                          = e^{-dt (sqrt(lam + xi^2 + m^2) - m)},
        # at xi and sqrt(lam) on the scales of the step (1/dt) and the mass
        p = ProcessParams(alpha=1.0, m=m, d=2)
        n, dt = 200_000, 0.1
        u, x, _ = sample_step_blocks(dt, p, 1, [rng.substream(43, int(m)).generator()], [n])
        for xi, lam in ((5.0, 0.0), (0.0, 100.0), (5.0, 100.0), (20.0, 400.0), (2.0, m * m)):
            emp = np.cos(xi * x[:, 0]) * np.exp(-lam * u)
            target = math.exp(-dt * (math.sqrt(lam + xi * xi + m * m) - m))
            within_se(emp.mean(), target, emp.std(ddof=1) / math.sqrt(n), z=4.0,
                      msg=f"m={m}, xi={xi}, lam={lam}")

    def test_same_law_as_kanter_transform(self, rng):
        n, dt = 20_000, 0.1
        draws = sample_stable_subordinator(dt, 0.5, rng.substream(41), size=n)
        gen = rng.substream(42).generator()
        oracle = kanter_transform(gen.uniform(0.0, math.pi, n), gen.standard_exponential(n), dt, 0.5)
        assert ks_2samp(draws, oracle).pvalue > 1e-3


def step_reference(dt, params, d, gen, n):
    """One step of n rows written out for one generator: n stable
    proposals, then their acceptance uniforms, then the same for the
    rejected rows, then the normals of the leg.  At beta = 1/2 a proposal
    is the clock drawn from V ~ Uniform(0, 1) and then E ~ Exp(1) with the
    leg's first coordinate dt tan(pi (V - 1/2)), and coordinates 2..d are
    the normals.  Returns the clocks, the (n, d) legs and the number of
    proposals."""
    beta = params.beta

    def propose(k):
        if beta == 0.5:
            tau = np.tan(math.pi * (gen.random(k) - 0.5))
            return 0.25 * dt * dt * (1.0 + tau * tau) / gen.standard_exponential(k), dt * tau
        return kanter_transform(gen.uniform(0.0, math.pi, k), gen.standard_exponential(k), dt,
                                beta), np.empty(k)

    u, first, pending, n_proposals = np.empty(n), np.empty(n), np.arange(n), 0
    while len(pending):
        clock, x1 = propose(len(pending))
        accept = np.ones(len(pending), dtype=bool)
        if params.m > 0.0:
            accept = gen.random(len(pending)) < np.exp(-params.m ** (1.0 / beta) * clock)
        u[pending[accept]] = clock[accept]
        first[pending[accept]] = x1[accept]
        n_proposals += len(pending)
        pending = pending[~accept]
    if beta != 0.5:
        return u, gen.standard_normal((n, d)) * np.sqrt(2.0 * u)[:, None], n_proposals
    if d == 0:
        return u, np.empty((n, 0)), n_proposals
    legs = gen.standard_normal((n, d - 1)) * np.sqrt(2.0 * u)[:, None]
    return u, np.column_stack([first, legs]), n_proposals


class TestBlocks:
    """Steps for blocks of rows, one generator per block, against each
    generator drawing alone."""

    @pytest.mark.parametrize("m", [0.0, 1.0, 20.0])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_blocks_equal_separate_draws(self, alpha, m):
        # m = 20 at dt = 0.1 accepts 14% of proposals: many rounds, in
        # which the blocks' pending counts differ and reach 0 at different
        # rounds; an empty block draws nothing.  Leg dimension 0 is the
        # clock alone and 1 the record march's normal coordinate, drawn
        # into the first columns of a larger work array, reused
        params = ProcessParams(alpha=alpha, m=m, d=3)
        counts = [500, 0, 1, 37]
        work = step_work(sum(counts) + 10)
        for d, out in ((0, None), (1, None), (3, None), (1, work), (3, work), (1, work)):
            gens = [np.random.default_rng(seed) for seed in range(len(counts))]
            u, legs, n_proposals = sample_step_blocks(0.1, params, d, gens, counts, out)
            assert legs.shape == (sum(counts), d)
            lo, want_proposals = 0, 0
            for seed, (gen, k) in enumerate(zip(gens, counts)):
                alone = np.random.default_rng(seed)
                want, want_legs, proposals = step_reference(0.1, params, d, alone, k)
                want_proposals += proposals
                assert np.array_equal(u[lo:lo + k], want)
                assert np.array_equal(legs[lo:lo + k], want_legs)
                assert gen.bit_generator.state == alone.bit_generator.state
                lo += k
            assert n_proposals == want_proposals
            assert (n_proposals == sum(counts)) == (m == 0.0)

    def test_step_too_large(self, rng):
        # the march draws through the blocks, so they refuse such a step too
        p = ProcessParams(alpha=1.0, m=1.0, d=2)
        with pytest.raises(StepTooLargeError):
            sample_step_blocks(8.0, p, 2, [rng.generator()], [10])


def plane_reference(dt, m, gen, n):
    """n alpha = 1 steps in the plane written out for one generator: n
    uniforms V, then (m > 0) their acceptance uniforms, accepting V with
    probability (1 + y) e^{-y}, y = m dt / (1 - V), then the same for the
    rejected rows, then n uniforms W.  The step is dt sqrt(V (2 - V)) /
    (1 - V) ((1 - tau^2), 2 tau) / (1 + tau^2), tau = tan(pi (W - 1/2)).
    Returns the (n, 2) steps and the number of proposals."""
    v, pending, n_proposals = gen.random(n), np.arange(n), n
    while m > 0.0 and len(pending):
        y = m * dt / (1.0 - v[pending])
        rejected = pending[gen.random(len(pending)) >= np.exp(-y) * (1.0 + y)]
        v[rejected] = gen.random(len(rejected))
        n_proposals += len(rejected)
        pending = rejected
    tau = np.tan(math.pi * (gen.random(n) - 0.5))
    f = dt * np.sqrt(v * (2.0 - v)) / (1.0 - v) / (1.0 + tau * tau)
    return np.column_stack([f * (1.0 - tau * tau), f * (2.0 * tau)]), n_proposals


class TestPlaneSteps:
    """alpha = 1, d = 2: each step from three uniforms by the hat-box
    theorem, tilted by the mass (`sample_increment_blocks`)."""

    @pytest.mark.parametrize("m", [0.0, 1.0, 20.0])
    def test_hat_box_coordinate_law(self, m, rng):
        # c = dt / sqrt(dt^2 + |x|^2) has the exact CDF c exp(-m dt (1/c - 1)),
        # so its values there are Uniform(0, 1)
        n, dt = 200_000, 0.1
        x = sample_increment(dt, ProcessParams(alpha=1.0, m=m, d=2), rng.substream(44, int(m)),
                             size=n)
        c = dt / np.hypot(dt, np.hypot(x[:, 0], x[:, 1]))
        assert kstest(c * np.exp(-m * dt * (1.0 / c - 1.0)), "uniform").pvalue > 1e-3

    def test_angle_uniform_and_independent_of_radius(self, rng):
        n = 200_000
        x = sample_increment(0.1, ProcessParams(alpha=1.0, m=1.0, d=2), rng.substream(45), size=n)
        angle = np.arctan2(x[:, 1], x[:, 0]) / (2.0 * math.pi) + 0.5
        assert kstest(angle, "uniform").pvalue > 1e-3
        # a 4 x 4 table of radius quartile against angle quartile
        radius = np.hypot(x[:, 0], x[:, 1])
        rq = np.searchsorted(np.quantile(radius, [0.25, 0.5, 0.75]), radius)
        table = np.zeros((4, 4))
        np.add.at(table, (rq, np.minimum((4 * angle).astype(int), 3)), 1)
        assert chi2_contingency(table).pvalue > 1e-3

    @pytest.mark.parametrize("m", [0.0, 1.0, 20.0])
    def test_characteristic_function_off_axis(self, m, rng, within_se):
        # E cos(xi . x) = e^{-dt (sqrt(|xi|^2 + m^2) - m)} at xi off both axes
        n, dt = 200_000, 0.1
        x = sample_increment(dt, ProcessParams(alpha=1.0, m=m, d=2), rng.substream(46, int(m)),
                             size=n)
        for xi in ((3.0, 4.0), (15.0, -7.0)):
            emp = np.cos(x @ np.array(xi))
            target = math.exp(-dt * (math.sqrt(xi[0] ** 2 + xi[1] ** 2 + m * m) - m))
            within_se(emp.mean(), target, emp.std(ddof=1) / math.sqrt(n), z=4.0,
                      msg=f"m={m}, xi={xi}")

    @pytest.mark.parametrize("m", [0.0, 1.0, 20.0])
    def test_blocks_equal_separate_draws(self, m):
        # m = 20 at dt = 0.1 redraws in many rounds, in which the blocks'
        # pending counts differ; an empty block draws nothing.  The steps
        # land in the first columns of a larger work array, reused
        params = ProcessParams(alpha=1.0, m=m, d=2)
        counts = [500, 0, 1, 37]
        work = step_work(sum(counts) + 10)
        for out in (None, work, work):
            gens = [np.random.default_rng(seed) for seed in range(len(counts))]
            x, n_proposals = sample_increment_blocks(0.1, params, gens, counts, out)
            assert x.shape == (sum(counts), 2)
            lo, want_proposals = 0, 0
            for seed, (gen, k) in enumerate(zip(gens, counts)):
                alone = np.random.default_rng(seed)
                want, proposals = plane_reference(0.1, m, alone, k)
                want_proposals += proposals
                assert np.array_equal(x[lo:lo + k], want)
                assert gen.bit_generator.state == alone.bit_generator.state
                lo += k
            assert n_proposals == want_proposals
            assert (n_proposals == sum(counts)) == (m == 0.0)

    def test_acceptance_rate(self, rng, within_se):
        n, dt = 200_000, 0.1
        _, n_prop = sample_increment_blocks(dt, ProcessParams(alpha=1.0, m=1.0, d=2),
                                            [rng.substream(47).generator()], [n])
        target = math.exp(-dt)
        within_se(n / n_prop, target, math.sqrt(target * (1 - target) / n_prop), z=4.0,
                  msg="acceptance rate")

    def test_step_too_large(self, rng):
        p = ProcessParams(alpha=1.0, m=1.0, d=2)
        with pytest.raises(StepTooLargeError):
            sample_increment_blocks(8.0, p, [rng.generator()], [10])
        with pytest.raises(StepTooLargeError):
            sample_increment(8.0, p, rng)

    @pytest.mark.parametrize("alpha, d", [(1.0, 3), (1.0, 4), (1.5, 2)])
    def test_other_routes_drop_the_clock(self, alpha, d):
        # off the plane, or at alpha != 1, an increment is the leg of
        # `sample_step_blocks`, drawn alike
        params = ProcessParams(alpha=alpha, m=1.0, d=d)
        gens = [np.random.default_rng(seed) for seed in range(2)]
        x, n_proposals = sample_increment_blocks(0.1, params, gens, [300, 40], step_work(340))
        same = [np.random.default_rng(seed) for seed in range(2)]
        _, want, want_proposals = sample_step_blocks(0.1, params, d, same, [300, 40])
        assert np.array_equal(x, want) and n_proposals == want_proposals
        assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in same]


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
