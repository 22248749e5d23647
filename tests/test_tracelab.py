import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from relheat import kernels, tracelab
from relheat.cli import _reference_c4
from relheat.config import ExperimentConfig
from relheat.errors import BudgetError, ParameterError, TailFitError
from relheat.geometry import Annulus, Ball, HalfSpace
from relheat.kernels import build_table, free_density, table_eval
from relheat.sampler import (
    PathGrid,
    sample_brownian_leg,
    sample_tempered_subordinator,
    simulate_path,
)
from relheat.specfun import ProcessParams
from relheat.tracelab import (
    Budgets,
    TraceEstimate,
    c2_of_t,
    c4_const,
    default_strata,
    first_exit,
    first_term,
    halfspace_profile,
    lambda1_estimate,
    r_estimate,
    r_estimate_extrapolated,
    residual_scan,
    ryznar_check,
    z_trace,
)

# the frozen high-budget run (scripts/freeze_c4.py) that `relheat constants` shows
C4_REFERENCE = _reference_c4(ExperimentConfig(alpha=1.0, d=2))


def cached_in_worker(keys, beta):
    """Pool probe: which kernel tables and theta values on the tables'
    log-z lattice a worker starts with."""
    return (
        all(k in kernels._TABLE_CACHE for k in keys),
        len(kernels._LATTICE_THETA.get(round(beta, 12), ())) >= kernels.Z_NODES,
    )


def record_pools(monkeypatch, make):
    """Record the max_workers of every pool tracelab starts; `make` builds it."""
    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return make(max_workers=max_workers)

    monkeypatch.setattr(tracelab, "ProcessPoolExecutor", pool)
    return sizes


class SerialPool:
    """Stands in for ProcessPoolExecutor and starts no process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def make_path(positions, dt=0.1):
    positions = np.asarray(positions, dtype=float)
    horizon = dt * (len(positions) - 1)
    return PathGrid(start=positions[0], dt=dt, horizon=horizon, positions=positions)


class TestFirstExit:
    def test_no_exit(self, unit_ball):
        path = make_path([[0.0, 0.0], [0.1, 0.0], [0.0, 0.2]])
        step, pos = first_exit(path, unit_ball)
        assert step is None and pos is None

    def test_exit_at_step_three(self, unit_ball):
        path = make_path([[0.0, 0.0], [0.5, 0.0], [0.9, 0.0], [1.4, 0.0], [0.2, 0.0]])
        step, pos = first_exit(path, unit_ball)
        assert step == 3
        assert np.array_equal(pos, [1.4, 0.0])

    def test_returning_path_counts_first_crossing(self, unit_ball):
        path = make_path([[0.0, 0.0], [1.2, 0.0], [0.1, 0.0], [2.0, 0.0]])
        step, _ = first_exit(path, unit_ball)
        assert step == 1

    def test_start_outside_rejected(self, unit_ball):
        path = make_path([[2.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ParameterError):
            first_exit(path, unit_ball)

    def test_mean_exit_time_decreases_with_refinement(self, rng, within_se):
        # finer monitoring can only detect earlier exits
        p = ProcessParams(alpha=1.0, m=0.0, d=2)
        ball = Ball(center=(0.0, 0.0), radius=0.5, d=2)
        t, n = 0.5, 20_000
        means = []
        ses = []
        from relheat.tracelab import _run_exits, _snap_steps

        for j, steps in enumerate((8, 16, 32)):
            n_steps, dt = _snap_steps(t, t / steps)
            gen = rng.substream(20, j).generator()
            starts = np.zeros((n, 2))
            exited, exit_step, _ = _run_exits(starts, [gen], [n], ball, t, n_steps, dt, p)[0]
            tau = np.where(exited, (exit_step - 0.5) * dt, t)
            means.append(tau.mean())
            ses.append(tau.std(ddof=1) / math.sqrt(n))
        for a, b, sa, sb in zip(means[:-1], means[1:], ses[:-1], ses[1:]):
            assert b <= a + 3 * math.hypot(sa, sb)


def one_chunk_exits(starts, domain, t, n_steps, dt, params, gen):
    """`_run_exits` on `starts` as one chunk."""
    return tracelab._run_exits(starts, [gen], [len(starts)], domain, t, n_steps, dt, params)[0]


def gather_scatter_exits(starts, domain, t, n_steps, dt, params, gen):
    """Reference march: every step gathers the alive rows out of all n
    paths, adds the legs, scatters them back and gathers them again for
    membership.  `_run_exits` must return its arrays bit for bit."""
    n = len(starts)
    pos = np.array(starts, dtype=float, copy=True)
    alive = np.arange(n)
    exited = np.zeros(n, dtype=bool)
    exit_step = np.zeros(n, dtype=np.int64)
    exit_dist = np.zeros(n)
    for k in range(1, n_steps + 1):
        m = len(alive)
        if m == 0:
            break
        u = sample_tempered_subordinator(dt, params, gen, size=m)
        pos[alive] += sample_brownian_leg(u, params.d, gen)
        inside = domain.contains(pos[alive])
        out = ~inside
        if out.any():
            idx = alive[out]
            exited[idx] = True
            exit_step[idx] = k
            exit_dist[idx] = np.linalg.norm(pos[idx] - np.asarray(starts)[idx], axis=1)
        alive = alive[inside]
    return exited, exit_step, exit_dist


class TestRunExits:
    """The compacting march against the gather/scatter reference."""

    @staticmethod
    def both(starts, domain, n_steps, dt, params, seed=7):
        """(compacting, reference) results; each march also returns its
        generator's final state, so equal states mean equal draw counts."""
        runs = []
        for march in (one_chunk_exits, gather_scatter_exits):
            gen = np.random.default_rng(seed)
            runs.append((*march(starts, domain, n_steps * dt, n_steps, dt, params, gen),
                         gen.bit_generator.state))
        return runs

    def assert_same(self, *args, **kw):
        new, ref = self.both(*args, **kw)
        for a, b in zip(new[:3], ref[:3]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert new[3] == ref[3]
        return new[:3]

    @staticmethod
    def domain_and_points(shape, d):
        c = np.array([0.3, -0.2, 0.1][:d])
        e = np.eye(d)[0]
        if shape == "ball":
            return Ball(center=tuple(c), radius=1.0, d=d), [c + 0.2 * e, c - 0.8 * e]
        if shape == "annulus":
            return Annulus(center=tuple(c), r_in=0.5, r_out=1.5, d=d), [c + 1.0 * e, c - 0.6 * e]
        return HalfSpace(d=d), [0.1 * e, 0.5 * e + 0.3]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("m", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("shape", ["ball", "annulus", "halfspace"])
    def test_matches_gather_scatter_march(self, shape, alpha, m, d):
        domain, points = self.domain_and_points(shape, d)
        starts = np.repeat(points, 150, axis=0)
        params = ProcessParams(alpha=alpha, m=m, d=d)
        exited, exit_step, _ = self.assert_same(starts, domain, 16, 0.2 / 16, params)
        # paths exit on several steps and some survive, so rows are compacted
        # repeatedly and the march runs to the horizon
        assert 0 < exited.sum() < len(starts)
        assert len(np.unique(exit_step[exited])) > 3

    def test_single_path(self, relativistic2d, unit_ball):
        for seed in range(6):
            self.assert_same(np.zeros((1, 2)), unit_ball, 32, 0.01, relativistic2d, seed=seed)

    def test_every_path_exits_at_step_one(self, relativistic2d):
        tiny = Ball(center=(0.5, -0.5), radius=1e-9, d=2)
        starts = np.repeat([[0.5, -0.5]], 200, axis=0)
        exited, exit_step, _ = self.assert_same(starts, tiny, 8, 0.1, relativistic2d)
        assert exited.all() and (exit_step == 1).all()

    def test_no_path_exits(self, relativistic2d):
        huge = Ball(center=(0.5, -0.5), radius=1e9, d=2)
        starts = np.repeat([[0.0, 0.0], [1.0, 1.0]], 100, axis=0)
        exited, _, exit_dist = self.assert_same(starts, huge, 8, 0.01, relativistic2d)
        assert not exited.any() and not exit_dist.any()

    @staticmethod
    def batch_case(shape, d):
        """A domain and the starts of four chunks of unequal sizes: paths
        near the boundary that exit on many steps, one path from another
        point, a deep start no path leaves and a start outside, whose every
        path is out at step 1."""
        c = np.array([0.3, -0.2, 0.1][:d])
        e = np.eye(d)[0]
        if shape == "ball":
            domain, near, other, deep = Ball(center=tuple(c), radius=1e3, d=d), 999.9, -999.5, 0.0
        elif shape == "annulus":
            domain = Annulus(center=tuple(c), r_in=0.5, r_out=1e3, d=d)
            near, other, deep = 999.9, 0.6, 500.0
        else:
            domain, c, near, other, deep = HalfSpace(d=d), np.zeros(d), 0.1, 0.5, 1e3
        points = [(near, 170), (other, 1), (deep, 40), (-1e4, 25)]
        return domain, [np.repeat([c + q * e], n, axis=0) for q, n in points]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("m", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("shape", ["ball", "annulus", "halfspace"])
    def test_batch_equals_separate_marches(self, shape, alpha, m, d):
        # chunks marched together return the arrays of separate marches of
        # each chunk, and leave each generator where its own march does
        domain, starts = self.batch_case(shape, d)
        params = ProcessParams(alpha=alpha, m=m, d=d)
        n_steps, dt = 16, 0.2 / 16
        gens = [np.random.default_rng(seed) for seed in range(len(starts))]
        batch = tracelab._run_exits(np.concatenate(starts), gens, [len(s) for s in starts],
                                    domain, 0.2, n_steps, dt, params)
        for seed, (s, gen, got) in enumerate(zip(starts, gens, batch)):
            alone = np.random.default_rng(seed)
            want = gather_scatter_exits(s, domain, 0.2, n_steps, dt, params, alone)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert gen.bit_generator.state == alone.bit_generator.state
        (exited, exit_step, _), _, (deep, _, _), (out, out_step, _) = batch
        assert 0 < exited.sum() < len(exited) and len(np.unique(exit_step[exited])) > 3
        assert not deep.any()
        assert out.all() and (out_step == 1).all()


class TestREstimate:
    def test_whole_space_never_exits(self, rng, cauchy2d):
        free = Ball(center=(0.0, 0.0), radius=math.inf, d=2)
        est = r_estimate(0.5, np.zeros(2), free, 500, 0.05, rng.substream(0), cauchy2d)
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_budget_floor(self, rng, cauchy2d, unit_ball):
        with pytest.raises(BudgetError):
            r_estimate(0.5, np.zeros(2), unit_ball, 50, 0.05, rng, cauchy2d)

    @pytest.mark.parametrize("n_paths", [0, 500.5], ids=["paths_zero", "paths_float"])
    def test_bad_budget_raises_parameter_error(self, rng, cauchy2d, unit_ball, n_paths):
        with pytest.raises(ParameterError):
            r_estimate(0.5, np.zeros(2), unit_ball, n_paths, 0.05, rng, cauchy2d)

    def test_start_must_be_inside(self, rng, cauchy2d, unit_ball):
        with pytest.raises(ParameterError):
            r_estimate(0.5, np.array([2.0, 0.0]), unit_ball, 500, 0.05, rng, cauchy2d)

    def test_bounded_by_free_density_at_origin(self, rng, relativistic2d, unit_ball):
        t = 0.1
        est = r_estimate(
            t, np.array([0.8, 0.0]), unit_ball, 4000, t / 64, rng.substream(1), relativistic2d
        )
        assert est.value <= free_density(t, 0.0, relativistic2d) + 3 * est.stderr
        assert est.value > 0

    def test_deterministic_under_stream(self, rng, cauchy2d, unit_ball):
        a = r_estimate(0.2, np.zeros(2), unit_ball, 2000, 0.02, rng.substream(2), cauchy2d)
        b = r_estimate(0.2, np.zeros(2), unit_ball, 2000, 0.02, rng.substream(2), cauchy2d)
        assert a.value == b.value
        assert a.stderr == b.stderr

    def test_matches_naive_path_estimator(self, rng, cauchy2d, unit_ball, within_se):
        # independent route: full-grid paths + first_exit + table lookup
        t, dt, n = 0.3, 0.3 / 16, 4000
        x = np.array([0.6, 0.0])
        gen = rng.substream(3).generator()
        total = 0.0
        total2 = 0.0
        for _ in range(n):
            path = simulate_path(x, t, dt, cauchy2d, gen)
            step, pos = first_exit(path, unit_ball)
            v = 0.0
            if step is not None:
                s = t - (step - 0.5) * dt
                table = build_table(cauchy2d.m * s, cauchy2d)
                v = table_eval(table, s, float(np.linalg.norm(pos - x)), cauchy2d)
            total += v
            total2 += v * v
        naive_mean = total / n
        naive_se = math.sqrt(max(total2 / n - naive_mean**2, 0.0) / (n - 1))
        est = r_estimate(t, x, unit_ball, 20_000, dt, rng.substream(4), cauchy2d)
        within_se(est.value, naive_mean, math.hypot(est.stderr, naive_se), z=3.0,
                  msg="engine vs naive")

    def test_domain_monotonicity(self, rng, cauchy2d, within_se):
        # smaller domain, larger boundary correction
        small = Ball(center=(0.0, 0.0), radius=1.0, d=2)
        big = Ball(center=(0.0, 0.0), radius=2.0, d=2)
        t = 0.3
        x = np.array([0.7, 0.0])
        e_small = r_estimate(t, x, small, 20_000, t / 64, rng.substream(5), cauchy2d)
        e_big = r_estimate(t, x, big, 20_000, t / 64, rng.substream(6), cauchy2d)
        gap_se = math.hypot(e_small.stderr, e_big.stderr)
        assert e_small.value > e_big.value + 3 * gap_se

    def test_interior_decay(self, rng, cauchy2d, unit_ball):
        t = 0.05
        center = r_estimate(t, np.zeros(2), unit_ball, 20_000, t / 32, rng.substream(7), cauchy2d)
        edge = r_estimate(
            t, np.array([0.9, 0.0]), unit_ball, 20_000, t / 32, rng.substream(8), cauchy2d
        )
        assert edge.value - center.value > 3 * math.hypot(edge.stderr, center.stderr)

    def test_worker_count_does_not_change_results(self, monkeypatch, rng, relativistic2d,
                                                  unit_ball):
        # chunk-to-stream assignment is fixed by the budgets; the pool size
        # only parallelizes execution
        monkeypatch.setattr(tracelab, "CHUNK_PATHS", 1000)
        a = r_estimate(0.1, np.array([0.8, 0.0]), unit_ball, 3000, 0.1 / 16,
                       rng.substream(30), relativistic2d, workers=1)
        b = r_estimate(0.1, np.array([0.8, 0.0]), unit_ball, 3000, 0.1 / 16,
                       rng.substream(30), relativistic2d, workers=2)
        assert a.value == b.value
        assert a.stderr == b.stderr

    def test_pool_workers_inherit_warm_tables(self):
        # after _warm the parent holds every table the march can ask for
        # and theta_3/4's values on the lattice; forked workers must find
        # them instead of building them
        from relheat.tracelab import _execute, _warm

        params = ProcessParams(alpha=1.5, m=1.0, d=2)
        t, n_steps = 0.037, 12
        dt = t / n_steps
        keys = [
            kernels._table_key(params.m * (t - (k - 0.5) * dt), params)
            for k in range(1, n_steps + 1)
        ]
        _warm([(t, n_steps, dt)], params)
        seen = _execute(cached_in_worker, [(keys, params.beta)] * 2, workers=2)
        assert seen == [(True, True)] * 2

    @pytest.mark.parametrize(
        "workers,n_tasks,size", [(2, 5, 2), (8, 3, 3), (10**9, 4, 4), (1, 4, None), (3, 1, None)]
    )
    def test_pool_size_capped_by_tasks(self, monkeypatch, workers, n_tasks, size):
        # a fork pool starts all its workers at once: never more than tasks
        sizes = record_pools(monkeypatch, SerialPool)
        out = tracelab._execute(pow, [(k, 2) for k in range(n_tasks)], workers)
        assert out == [k * k for k in range(n_tasks)]
        assert sizes == ([] if size is None else [size])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, monkeypatch, workers):
        sizes = record_pools(monkeypatch, SerialPool)
        with pytest.raises(ParameterError):
            tracelab._execute(pow, [(2, 2)] * 3, workers)
        assert sizes == []

    def test_extrapolated_reports_bias_budget(self, rng, cauchy2d, unit_ball):
        est = r_estimate_extrapolated(
            0.2, np.array([0.8, 0.0]), unit_ball, 3000, 0.2 / 16, rng.substream(9), cauchy2d
        )
        assert est.meta["extrapolated"] is True
        assert est.meta["bias_budget"] >= 0.0
        assert est.dt == pytest.approx(0.2 / 32)

    def test_extrapolated_uses_one_pool(self, monkeypatch, rng, cauchy2d, unit_ball):
        starts = record_pools(monkeypatch, tracelab.ProcessPoolExecutor)
        est = r_estimate_extrapolated(0.2, np.array([0.8, 0.0]), unit_ball, 300, 0.2 / 8,
                                      rng.substream(34), cauchy2d, workers=2)
        assert starts == [2]
        assert est.n_samples == 600


class TestHalfspaceProfile:
    def test_profile_matches_r_estimate(self, rng, cauchy2d, within_se):
        half = HalfSpace(d=2)
        t, q = 0.5, 0.4
        prof = halfspace_profile(t, [q], 20_000, t / 64, rng.substream(10), cauchy2d)
        direct = r_estimate(
            t, np.array([q, 0.0]), half, 20_000, t / 64, rng.substream(11), cauchy2d
        )
        est = prof.f_values[0]
        within_se(est.value, direct.value, math.hypot(est.stderr, direct.stderr), z=3.0)

    @pytest.mark.parametrize("extrapolate", [False, True])
    def test_equals_separate_point_estimates(self, monkeypatch, rng, relativistic2d, extrapolate):
        # one march over all nodes gives each node the numbers of its own
        # point estimate on the same ladder (level k of node i on
        # substream(40, i, k)), at any worker count, in one pool
        half = HalfSpace(d=2)
        t, qs, n = 0.1, [0.02, 0.1, 0.3], 1500
        if extrapolate:
            direct = [r_estimate_extrapolated(t, np.array([q, 0.0]), half, n, t / 16,
                                              rng.substream(40, i), relativistic2d)
                      for i, q in enumerate(qs)]
        else:
            direct = [r_estimate(t, np.array([q, 0.0]), half, n, t / 16,
                                 rng.substream(40, i, 0), relativistic2d)
                      for i, q in enumerate(qs)]
        starts = record_pools(monkeypatch, tracelab.ProcessPoolExecutor)
        for workers in (1, 2):
            prof = halfspace_profile(t, qs, n, t / 16, rng.substream(40), relativistic2d,
                                     extrapolate=extrapolate, workers=workers)
            for a, b in zip(prof.f_values, direct):
                assert (a.value, a.stderr, a.n_samples, a.dt, a.meta) == (
                    b.value, b.stderr, b.n_samples, b.dt, b.meta)
        assert starts == [2]

    def test_rejects_nonpositive_q(self, rng, cauchy2d):
        with pytest.raises(ParameterError):
            halfspace_profile(0.5, [0.0, 0.5], 1000, 0.05, rng, cauchy2d)

    def test_bounded_by_free_density(self, rng, cauchy2d):
        t = 0.5
        prof = halfspace_profile(
            t, [0.1, 0.5, 1.5], 5000, t / 32, rng.substream(12), cauchy2d
        )
        p0 = free_density(t, 0.0, cauchy2d)
        for est in prof.f_values:
            assert est.value <= p0 + 3 * est.stderr

    def test_mass_comparison_on_profile(self, rng, cauchy2d, relativistic2d):
        # the massive profile sits below e^{2mt} times the massless one
        t, q, n = 0.1, 0.05, 12_000
        f_m = halfspace_profile(t, [q], n, t / 32, rng.substream(13), relativistic2d)
        f_0 = halfspace_profile(t, [q], n, t / 32, rng.substream(14), cauchy2d)
        grow = math.exp(2 * relativistic2d.m * t)
        a, b = f_m.f_values[0], f_0.f_values[0]
        joint = math.hypot(a.stderr, grow * b.stderr)
        assert a.value <= grow * b.value + 3 * joint

    def test_three_dimensional_estimator(self, rng):
        params = ProcessParams(alpha=1.0, m=0.5, d=3)
        ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0, d=3)
        t = 0.2
        est = r_estimate(
            t, np.array([0.7, 0.0, 0.0]), ball, 4000, t / 32, rng.substream(15), params
        )
        assert 0.0 < est.value <= free_density(t, 0.0, params) + 3 * est.stderr


class TestBoundaryCoefficient:
    def test_positive_with_meta(self, rng, cauchy2d):
        est = c2_of_t(0.5, 60_000, 0.5 / 32, rng.substream(13), cauchy2d, extrapolate=False)
        assert est.value > 0
        assert est.meta["tail_slope"] < -1
        assert est.meta["core"] > 0

    @pytest.mark.parametrize("extrapolate", [False, True])
    def test_worker_count_does_not_change_results(self, monkeypatch, rng, cauchy2d, extrapolate):
        # all nodes and levels run their pilots in one pool, their top-ups in
        # a second
        starts = record_pools(monkeypatch, tracelab.ProcessPoolExecutor)
        a, b = (
            c2_of_t(0.25, 24_000, 0.25 / 16, rng.substream(33), cauchy2d,
                    extrapolate=extrapolate, workers=workers)
            for workers in (1, 2)
        )
        assert starts == [2, 2]
        assert (a.value, a.stderr, a.n_samples, a.meta) == (b.value, b.stderr, b.n_samples, b.meta)

    def test_tail_fit_failure_on_flat_grid(self, monkeypatch, rng, relativistic2d):
        # nodes confined to the flat region near the boundary make the last
        # decade flat: the fitted slope cannot support a tail correction
        monkeypatch.setattr(tracelab, "_default_q_grid", lambda t, params: np.geomspace(1e-4, 1e-3, 8))
        with pytest.raises(TailFitError):
            c2_of_t(0.5, 8000, 0.5 / 16, rng.substream(14), relativistic2d, extrapolate=False)

    def test_c4_regression_against_frozen_run(self, rng, within_se):
        # same protocol as the frozen run (dt ladder from steps=128) so the
        # residual monitoring bias cancels in the comparison
        params = ProcessParams(alpha=1.0, m=0.0, d=2)
        est = c4_const(120_000, 1.0 / 128, rng.substream(15), params)
        within_se(
            est.value,
            C4_REFERENCE["value"],
            math.hypot(est.stderr, C4_REFERENCE["stderr"]),
            z=3.0,
            msg="C4 regression",
        )

    def test_c4_scale_invariance(self, rng, within_se):
        # at m=0, C2(t) = C4 t^{(1-d)/alpha}: C2 at t=1/2, rescaled, must
        # agree with the direct t=1 estimate; the monitoring grid scales with
        # t, so the bias cancels exactly between the two routes
        params = ProcessParams(alpha=1.0, m=0.0, d=2)
        a = c2_of_t(1.0, 120_000, 1.0 / 64, rng.substream(16), params, extrapolate=False)
        b = c2_of_t(0.5, 120_000, 0.5 / 64, rng.substream(17), params, extrapolate=False)
        scale = 0.5 ** ((params.d - 1.0) / params.alpha)
        within_se(a.value, b.value * scale, math.hypot(a.stderr, b.stderr * scale), z=3.0,
                  msg="C4 from t=1 vs t=1/2")


class TestTrace:
    def test_below_first_term(self, rng, relativistic2d, unit_ball):
        t = 0.1
        est = z_trace(
            t, unit_ball, 1500, 200, t / 48, rng.substream(18), relativistic2d
        )
        assert est.value <= first_term(t, unit_ball, relativistic2d)
        assert est.value > 0

    def test_decreasing_in_t(self, rng, cauchy2d, unit_ball):
        zs = []
        for j, t in enumerate((0.5, 1.0)):
            zs.append(
                z_trace(t, unit_ball, 1500, 200, t / 48, rng.substream(19, j), cauchy2d)
            )
        assert zs[0].value - zs[1].value > -3 * math.hypot(zs[0].stderr, zs[1].stderr)

    def test_requires_bounded_domain(self, rng, cauchy2d):
        with pytest.raises(ParameterError):
            z_trace(0.1, HalfSpace(d=2), 100, 100, 0.01, rng, cauchy2d)

    def test_deterministic(self, rng, relativistic2d, unit_ball):
        a = z_trace(0.1, unit_ball, 400, 120, 0.1 / 32, rng.substream(21), relativistic2d)
        b = z_trace(0.1, unit_ball, 400, 120, 0.1 / 32, rng.substream(21), relativistic2d)
        assert a.value == b.value

    def test_worker_count_does_not_change_results(self, rng, unit_ball):
        # alpha = 1.5: pooled strata score exits with the tables and theta_3/4
        # the parent built before forking
        params = ProcessParams(alpha=1.5, m=1.0, d=2)
        a, b = (
            z_trace(0.05, unit_ball, 300, 20, 0.05 / 8, rng.substream(31), params,
                    workers=workers, chunk_points=64)
            for workers in (1, 2)
        )
        assert a.value == b.value
        assert a.stderr == b.stderr

    @pytest.mark.parametrize("extrapolate", [False, True])
    def test_one_pool_per_march(self, monkeypatch, rng, unit_ball, extrapolate):
        # every stratum and both ladder levels of a z_trace call share one
        # pool (at 600 points three strata have several 64-point chunks)
        params = ProcessParams(alpha=1.5, m=1.0, d=2)
        starts = record_pools(monkeypatch, tracelab.ProcessPoolExecutor)
        a, b = (
            z_trace(0.05, unit_ball, 600, 20, 0.05 / 8, rng.substream(32), params,
                    extrapolate=extrapolate, workers=workers, chunk_points=64)
            for workers in (1, 2)
        )
        assert starts == [2]
        assert a.value == b.value
        assert a.stderr == b.stderr

    @pytest.mark.parametrize("workers", [2, 8])
    def test_batches_capped_at_one_chunk(self, monkeypatch, rng, unit_ball, workers):
        # at 300 points the strata hold 32, 32, 61, 116, 50, 8, 8 and 8:
        # small strata march together, never more than one full chunk's
        # 64 x 20 rows at once nor, packed, more than the grid's rows over
        # the workers, and the pool has one worker per batch at most
        params = ProcessParams(alpha=1.5, m=1.0, d=2)
        rows = []

        def recording(starts, gens, sizes, *args):
            rows.append(sizes)
            return run_exits(starts, gens, sizes, *args)

        run_exits = tracelab._run_exits
        monkeypatch.setattr(tracelab, "_run_exits", recording)
        sizes = record_pools(monkeypatch, SerialPool)
        est = z_trace(0.05, unit_ball, 300, 20, 0.05 / 8, rng.substream(36), params,
                      workers=workers, chunk_points=64)
        assert max(sum(r) for r in rows) <= 64 * 20
        assert all(sum(r) <= 315 * 20 / workers for r in rows if len(r) > 1)
        assert sum(map(sum, rows)) == est.n_samples == 315 * 20
        assert 1 < len(rows) < sum(map(len, rows))
        assert sizes == [min(workers, len(rows))]

    @pytest.mark.parametrize(
        "workers,batches",
        [(1, [[0, 1, 2, 3, 4, 5, 6, 7], [8]]), (2, [[0, 1, 2, 3], [4, 5, 6, 7], [8]]),
         (3, [[0, 1], [2, 3], [4, 5], [6, 7], [8]]), (100, [[i] for i in range(9)])],
    )
    def test_batches_split_for_workers(self, workers, batches):
        # eight 100-row chunks of one grid under a 10 000-row cap are one
        # batch for one worker, and at least one batch per worker for more;
        # a chunk of another grid is batched apart
        chunks = [(0.1, 8, 0.0125, np.zeros((10, 2)), 10, None)] * 8
        chunks.append((0.1, 16, 0.00625, np.zeros((1, 2)), 10, None))
        assert tracelab._batches(chunks, 10_000, workers) == batches

    @pytest.mark.parametrize(
        "kw", [dict(chunk_points=0), dict(chunk_points=-5), dict(chunk_points=2.5),
               dict(chunk_points=True), dict(n_paths=0), dict(n_paths=20.0)],
        ids=["chunk_zero", "chunk_negative", "chunk_float", "chunk_bool", "paths_zero",
             "paths_float"],
    )
    def test_bad_budget_raises_parameter_error(self, rng, unit_ball, kw):
        args = {"n_paths": 20, "chunk_points": 64, **kw}
        with pytest.raises(ParameterError):
            z_trace(0.05, unit_ball, 300, args.pop("n_paths"), 0.05 / 8, rng.substream(37),
                    ProcessParams(alpha=1.0, m=1.0, d=2), **args)

    @pytest.mark.parametrize("alpha,builds", [(1.0, False), (1.5, True)])
    def test_kernel_tables_only_off_alpha_one(self, monkeypatch, rng, unit_ball, alpha, builds):
        # alpha = 1 scores exits in closed form: no table, no far-field
        # quadrature; the one profile quadrature left is the first term's
        # C1(t), at rho = 0
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                if name == "_profile_batch":
                    calls.append((name, np.asarray(args[0]).tolist()))
                else:
                    calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((tracelab, "build_tables"), (tracelab, "build_table"),
                             (kernels, "_profile_batch")):
            monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        params = ProcessParams(alpha=alpha, m=1.0, d=2)
        est = z_trace(0.05, unit_ball, 200, 20, 0.05 / 8, rng.substream(35), params,
                      chunk_points=64)
        assert est.value > 0
        assert ("build_tables" in calls) == builds
        if not builds:
            assert calls == [("_profile_batch", [0.0])]

    def test_default_strata_cover_domain(self, cauchy2d, unit_ball):
        strata = default_strata(unit_ball, 0.02, cauchy2d)
        assert strata[0][0] == 0.0
        assert strata[-1][1] == unit_ball.delta_max
        for (a1, b1), (a2, _) in zip(strata[:-1], strata[1:]):
            assert b1 == a2
            assert b1 > a1


class TestResidualScan:
    def test_regime_precondition(self, rng, relativistic2d, unit_ball):
        with pytest.raises(ParameterError):
            residual_scan((0.6,), unit_ball, Budgets(), rng, relativistic2d)

    def test_report_structure(self, rng, relativistic2d, unit_ball):
        budgets = Budgets(n_paths=120, n_x=800, steps=32, extrapolate=False,
                          profile_n_paths=40_000)
        report = residual_scan((0.1, 0.2), unit_ball, budgets, rng.substream(22), relativistic2d)
        assert report.t_grid == (0.1, 0.2)
        for row in report.rows:
            assert row["rho"] >= 0.0
            assert row["rho_se"] > 0.0
            assert np.isfinite(row["z_value"])
            assert row["first_term"] > row["z_value"]
        assert report.c3_fitted >= max(r["rho"] for r in report.rows) - 1e-15
        assert np.isfinite(report.rho_blowup_exponent)


class TestLambda1:
    def test_positive_and_regime_checked(self, rng, cauchy2d):
        ball = Ball(center=(0.0, 0.0), radius=1.0, d=2)
        budgets = Budgets(n_paths=150, n_x=900, steps=32, extrapolate=False)
        est = lambda1_estimate(ball, (1.0, 1.5, 2.0), budgets, rng.substream(23), cauchy2d)
        assert est.value > 0
        assert est.stderr > 0
        assert "second_mode_flag" in est.meta

    def test_rejects_outside_single_mode_regime(self, rng, cauchy2d):
        big = Ball(center=(0.0, 0.0), radius=3.0, d=2)
        budgets = Budgets(n_paths=120, n_x=600, steps=16, extrapolate=False)
        with pytest.raises(ParameterError):
            lambda1_estimate(big, (0.5, 0.8), budgets, rng.substream(24), cauchy2d)

    def test_domain_monotonicity_and_scaling(self, rng, cauchy2d, within_se):
        # lambda1(B_1) ~ 2 lambda1(B_2) for alpha = 1 by stable scaling, and
        # the bigger ball has the smaller principal eigenvalue
        budgets = Budgets(n_paths=150, n_x=900, steps=32, extrapolate=False)
        small = Ball(center=(0.0, 0.0), radius=1.0, d=2)
        big = Ball(center=(0.0, 0.0), radius=2.0, d=2)
        l_small = lambda1_estimate(small, (1.0, 1.5, 2.0), budgets, rng.substream(25), cauchy2d)
        l_big = lambda1_estimate(big, (2.0, 3.0, 4.0), budgets, rng.substream(26), cauchy2d)
        assert l_small.value - l_big.value > 3 * math.hypot(l_small.stderr, l_big.stderr)
        within_se(l_big.value, l_small.value / 2,
                  math.hypot(l_big.stderr, l_small.stderr / 2), z=3.0,
                  msg="stable scaling of lambda1")


class TestRyznar:
    def test_massless_coincidence(self, rng, cauchy2d, unit_ball):
        budgets = Budgets(n_paths=4000, steps=32, extrapolate=True)
        rep = ryznar_check(
            0.1, [np.array([0.0, 0.0]), np.array([0.7, 0.0])], unit_ball,
            budgets, rng.substream(27), cauchy2d,
        )
        assert rep.n_violations == 0
        for row in rep.rows:
            joint = 3 * math.hypot(row["r_mass_se"], row["r_stable_se"])
            assert abs(row["r_mass"] - row["r_stable"]) <= joint

    def test_mass_comparison_inequality(self, rng, relativistic2d, unit_ball):
        budgets = Budgets(n_paths=4000, steps=32, extrapolate=True)
        rep = ryznar_check(
            0.1, [np.array([0.5, 0.0])], unit_ball, budgets, rng.substream(28),
            relativistic2d,
        )
        assert rep.n_violations == 0


    def test_one_march_per_mass(self, monkeypatch, rng, relativistic2d, unit_ball):
        # the points of each mass march as one batch, with the numbers of
        # separate per-point calls on the same substreams, at any worker count
        t, budgets = 0.1, Budgets(n_paths=300, steps=16)
        xs = [np.array([0.0, 0.0]), np.array([0.6, 0.0]), np.array([0.0, -0.8])]
        direct = [
            [r_estimate_extrapolated(t, x, unit_ball, 300, t / 16, rng.substream(29, i, branch), p)
             for branch, p in ((0, relativistic2d), (1, relativistic2d.with_mass(0.0)))]
            for i, x in enumerate(xs)
        ]
        sizes = record_pools(monkeypatch, SerialPool)
        reports = [
            ryznar_check(t, xs, unit_ball, replace(budgets, workers=workers), rng.substream(29),
                         relativistic2d)
            for workers in (1, 2)
        ]
        assert sizes == [2, 2]
        assert reports[0] == reports[1]
        for row, (est_m, est_0) in zip(reports[0].rows, direct):
            assert (row["r_mass"], row["r_mass_se"], row["r_stable"], row["r_stable_se"]) == (
                est_m.value, est_m.stderr, est_0.value, est_0.stderr)


class TestMomentMerge:
    @staticmethod
    def moments(chunk):
        mean = float(chunk.sum()) / len(chunk)
        return len(chunk), mean, float(((chunk - mean) ** 2).sum())

    # at offset 1e4 E[x^2] - E[x]^2 keeps 8 of 16 digits; at 1e8 none.  The
    # merged variance is limited by the chunk means themselves, which round
    # at ulp(offset)/2: about 1e-10 relative at 1e8
    @pytest.mark.parametrize("offset,rel", [(1e4, 1e-12), (1e8, 2e-9)])
    def test_offset_data_matches_two_pass_variance(self, offset, rel):
        x = offset + np.random.default_rng(3).standard_normal(10_000)
        chunks = np.array_split(x, [1000, 3500, 7000])
        n, mean, m2 = functools.reduce(tracelab._merge_moments, map(self.moments, chunks))
        assert n == len(x)
        assert mean == pytest.approx(x.mean(), rel=1e-15)
        assert m2 / (n - 1) == pytest.approx(np.var(x, ddof=1), rel=rel)
        s2 = sum(float((c**2).sum()) for c in chunks)
        naive = (s2 / n - mean**2) * n / (n - 1)
        assert naive != pytest.approx(np.var(x, ddof=1), rel=1e3 * rel)

    def test_pilot_and_top_up_merge_like_one_sample(self):
        # a sample-mean estimate round-trips through (n, mean, M2)
        x = 1e8 + np.random.default_rng(4).standard_normal(4000)
        parts = [
            TraceEstimate(value=c.mean(), stderr=c.std(ddof=1) / math.sqrt(len(c)),
                          n_samples=len(c), dt=0.1, t=1.0)
            for c in (x[:500], x[500:])
        ]
        n, mean, m2 = tracelab._merge_moments(*map(tracelab._moments, parts))
        assert n == len(x)
        assert m2 / (n - 1) == pytest.approx(np.var(x, ddof=1), rel=2e-9)


class TestTraceEstimate:
    def test_ci_and_record(self):
        est = TraceEstimate(value=1.0, stderr=0.1, n_samples=100, dt=0.01, t=0.5,
                            meta={"estimator": "r_D", "rows": [1, 2]})
        lo, hi = est.ci()
        assert (lo, hi) == (0.7, 1.3)
        rec = est.to_record()
        assert rec["value"] == 1.0
        assert rec["meta_estimator"] == "r_D"
        assert "meta_rows" not in rec
