import functools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from relheat import kernels, tracelab
from relheat.cli import _reference_c4
from relheat.config import ExperimentConfig
from relheat.errors import BudgetError, ParameterError
from relheat.geometry import Annulus, Ball, HalfSpace
from relheat.kernels import build_table, free_density, table_eval
from relheat.sampler import (
    PathGrid,
    RngStream,
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


def r_extrapolated(t, x, domain, n_paths, dt, rng, params, workers=1):
    """r_D(t, x, x) on the two-level ladder of dt and rng, as an
    extrapolating `halfspace_profile` or `ryznar_check` marks a point."""
    return tracelab._r_estimates([(t, x, dt, rng)], domain, n_paths, params, extrapolate=True,
                                 workers=workers)[0]


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
        for j, steps in enumerate((8, 16, 32)):
            (_, n_steps, dt, _), _ = tracelab._ladder(t, t / steps, rng, False)
            gen = rng.substream(20, j).generator()
            exited, exit_step, _ = one_chunk_exits(np.zeros((n, 2)), ball, n_steps, dt, p, gen)
            tau = np.where(exited, (exit_step - 0.5) * dt, t)
            means.append(tau.mean())
            ses.append(tau.std(ddof=1) / math.sqrt(n))
        for a, b, sa, sb in zip(means[:-1], means[1:], ses[:-1], ses[1:]):
            assert b <= a + 3 * math.hypot(sa, sb)


def exit_arrays(starts, gens, sizes, domain, grid, params):
    """Each chunk's (exited, exit_step, exit_dist), one row per ladder level
    of the march grid (t, n_steps, dt, levels), coarsest first, rebuilt from
    the exit events of `_exit_steps`: a mask, the exit step on the level's
    grid and |X_exit - start|."""
    n, levels = len(starts), grid[-1]
    exited = np.zeros((levels, n), dtype=bool)
    exit_step = np.zeros((levels, n), dtype=np.int64)
    exit_dist = np.zeros((levels, n))
    for level, k, rows, dist, weight in tracelab._exit_steps(starts, gens, sizes, domain, grid,
                                                             params):
        assert weight is None and not exited[level, rows].any()  # one exit per level
        exited[level, rows] = True
        exit_step[level, rows] = k
        exit_dist[level, rows] = dist
    ends = np.cumsum(sizes)
    return [(exited[:, b - size:b], exit_step[:, b - size:b], exit_dist[:, b - size:b])
            for size, b in zip(sizes, ends)]


def one_chunk_exits(starts, domain, n_steps, dt, params, gen):
    """The exit arrays of `starts` marched as one chunk, on one level."""
    grid = (n_steps * dt, n_steps, dt, 1)
    return tuple(a[0] for a in exit_arrays(starts, [gen], [len(starts)], domain, grid, params)[0])


def gather_scatter_exits(starts, domain, n_steps, dt, params, gen):
    """Reference march: every step gathers the alive rows out of all n
    paths, adds the legs, scatters them back and gathers them again for
    membership.  The exit events of `_exit_steps` must give its arrays bit
    for bit."""
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
            runs.append((*march(starts, domain, n_steps, dt, params, gen),
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
        batch = exit_arrays(np.concatenate(starts), gens, [len(s) for s in starts], domain,
                            (0.2, n_steps, dt, 1), params)
        for seed, (s, gen, got) in enumerate(zip(starts, gens, batch)):
            alone = np.random.default_rng(seed)
            want = gather_scatter_exits(s, domain, n_steps, dt, params, alone)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a[0], b)
            assert gen.bit_generator.state == alone.bit_generator.state
        (exited, exit_step, _), _, (deep, _, _), (out, out_step, _) = (
            [a[0] for a in chunk] for chunk in batch)
        assert 0 < exited.sum() < len(exited) and len(np.unique(exit_step[exited])) > 3
        assert not deep.any()
        assert out.all() and (out_step == 1).all()

    def test_far_field_is_scored_chunk_by_chunk(self):
        # alpha = 0.5 from the centre of the unit disc: every exit lies at
        # rho = r t^{-1/alpha} >= 400, past the kernel table, where the
        # far-field quadrature's lattice is cut at the largest radius of its
        # call; two chunks scored in one batch keep each chunk's scores bit
        # for bit, which one call over both chunks' radii would not
        params = ProcessParams(alpha=0.5, m=1.0, d=2)
        disc = Ball(center=(0.0, 0.0), radius=1.0, d=2)
        t, n_steps, sizes = 0.05, 8, [1500, 1000]
        grid = (t, n_steps, t / n_steps, 1)
        tracelab._warm([grid], params)

        def scored(seeds, sizes):
            gens = [np.random.default_rng(seed) for seed in seeds]
            steps = tracelab._exit_steps(np.zeros((sum(sizes), 2)), gens, sizes, disc, grid,
                                         params)
            return tracelab._scored(steps, sizes, grid, params)

        batch = scored([0, 1], sizes)
        for seed, size, (scores, count) in zip([0, 1], sizes, batch):
            ((want, want_count),) = scored([seed], [size])
            assert np.array_equal(scores, want) and count == want_count
            assert 0 < count == (scores[0] > 0).sum()  # every exit scores


class TestLadder:
    @pytest.mark.parametrize("dt", [0.0, -0.1, 0.6], ids=["zero", "negative", "above_t"])
    def test_bad_step_rejected(self, rng, dt):
        with pytest.raises(ParameterError):
            tracelab._ladder(0.5, dt, rng, False)

    @pytest.mark.parametrize("extrapolate,levels", [(False, 1), (True, 2)])
    def test_snaps_the_step_and_marches_the_finest_level(self, rng, extrapolate, levels):
        # dt = 0.3 snaps to t/3; with two levels the march is 6 steps of t/6
        assert tracelab._ladder(1.0, 0.3, rng, extrapolate) == (
            (1.0, 3 * levels, 1.0 / 3 / levels, levels), rng.substream(0))


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
        _warm([(t, n_steps, dt, 1)], params)
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
        est = r_extrapolated(
            0.2, np.array([0.8, 0.0]), unit_ball, 3000, 0.2 / 16, rng.substream(9), cauchy2d
        )
        assert est.meta["extrapolated"] is True
        assert est.meta["bias_budget"] >= 0.0
        assert est.dt == pytest.approx(0.2 / 32)

    def test_extrapolated_uses_one_pool(self, monkeypatch, rng, cauchy2d, unit_ball):
        # both levels come from one march; its three 100-path chunks are
        # three tasks, so the march starts one pool
        monkeypatch.setattr(tracelab, "CHUNK_PATHS", 100)
        starts = record_pools(monkeypatch, tracelab.ProcessPoolExecutor)
        est = r_extrapolated(0.2, np.array([0.8, 0.0]), unit_ball, 300, 0.2 / 8,
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
        # one march over all nodes gives node i the numbers of its own point
        # estimate on rng.substream(40, i), at any worker count, in one pool
        half = HalfSpace(d=2)
        t, qs, n = 0.1, [0.02, 0.1, 0.3], 1500
        point = r_extrapolated if extrapolate else r_estimate
        direct = [point(t, np.array([q, 0.0]), half, n, t / 16, rng.substream(40, i),
                        relativistic2d)
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

    @pytest.mark.parametrize("q_grid", [[], [[0.1, 0.5]]], ids=["empty", "two_d"])
    def test_rejects_grid_that_is_not_a_list_of_depths(self, rng, cauchy2d, q_grid):
        # no node is no profile; a 2-d grid has no node order
        with pytest.raises(ParameterError):
            halfspace_profile(0.5, q_grid, 1000, 0.05, rng, cauchy2d)

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


class ScriptedNormals:
    """A generator stand-in whose standard normals are given, one list per
    kind of draw: the Levy draws of the subordinator (1-d), the normal leg
    ((n, 1)) and the tangential legs ((n, 2), so d = 3)."""

    def __init__(self, levy, normal, tangential):
        self.queues = {(): list(levy), (1,): list(normal), (2,): list(tangential)}

    def standard_normal(self, out):
        queue = self.queues[out.shape[1:]]
        out[...] = np.reshape([queue.pop(0) for _ in range(out.size)], out.shape)


def record_sums(gens, sizes, grid, params):
    """Each chunk's per-path record sums, one row per ladder level of the
    march grid (t, n_steps, dt, levels), and its record count on the finest
    level: the record events of `_record_steps` scored by `_scored`."""
    return tracelab._scored(tracelab._record_steps(gens, sizes, grid, params), sizes, grid,
                            params)


class TestRecordMarch:
    def test_record_sum_is_the_depth_integral_of_exit_scores(self):
        # one hand-built path at alpha = 1, m = 0, d = 3: its record sum is
        # the exact integral over start depths q of the kill-and-score of the
        # path started at q, piecewise constant between the record depths
        params = ProcessParams(alpha=1.0, m=0.0, d=3)
        t, n_steps = 1.0, 8
        dt = t / n_steps
        levy = [1.0, 0.5, 2.0, 1.5, 0.8, 1.2, 0.3, 2.5]
        normal = [-0.3, 0.2, -1.0, -0.2, 0.4, -0.7, 0.3, -0.9]  # records at steps 1, 3, 4, 6
        tangential = [0.7, -0.2, 1.1, 0.3, -0.5, 0.8, 0.2, -1.3, 0.6, 0.4, -0.9, 0.1, 1.5, -0.7]
        u = dt * dt / (2.0 * np.square(levy))
        w1 = np.cumsum(np.array(normal) * np.sqrt(2.0 * u))
        s = np.cumsum(u)
        # the tangential part moves by N(0, 2 dS) between records only
        positions = np.zeros((n_steps + 1, 3))
        low, s_last, tang, queue, n_records = 0.0, 0.0, np.zeros(2), list(tangential), 0
        for k in range(1, n_steps + 1):
            if w1[k - 1] < low:
                tang = tang + np.array([queue.pop(0), queue.pop(0)]) * math.sqrt(2.0 * (s[k - 1] - s_last))
                low, s_last, n_records = w1[k - 1], s[k - 1], n_records + 1
            positions[k] = [w1[k - 1], *tang]
        assert n_records == 4

        gen = ScriptedNormals(levy, normal, tangential)
        ((sums, count),) = record_sums([gen], [1], (t, n_steps, dt, 1), params)
        assert count == n_records

        depths = np.unique(np.concatenate([[0.0], -np.minimum.accumulate(np.minimum(w1, 0.0))]))
        integral = 0.0
        half = HalfSpace(d=3)
        for lo, hi in zip(depths[:-1], depths[1:]):
            start = np.array([0.5 * (lo + hi), 0.0, 0.0])
            path = PathGrid(start=start, dt=dt, horizon=t, positions=positions + start)
            k, x = first_exit(path, half)
            score = tracelab.cauchy_density(t - (k - 0.5) * dt, np.linalg.norm(x - start), params)
            integral += (hi - lo) * score
        assert sums[0] == pytest.approx(integral, rel=1e-12)

    def test_profile_read_off_record_paths_matches_r_estimate(self, rng, relativistic2d):
        # the record paths also give f_H(t, q) at any depth: the score of the
        # record whose depth interval (-m_{k-1}, -m_k] holds q, m_k the
        # running minimum, which falls by each record's weight; in law that
        # is the killing march from (q, 0)
        t, n_steps, n = 0.5, 16, 20_000
        dt = t / n_steps
        depths = (0.02, 0.1, 0.4)
        f = np.zeros((len(depths), n))
        lows = np.zeros(n)
        gen = rng.substream(40).generator()
        for _, k, rows, dist, fall in tracelab._record_steps([gen], [n], (t, n_steps, dt, 1),
                                                             relativistic2d):
            score = tracelab.cauchy_density(t - (k - 0.5) * dt, dist, relativistic2d)
            low, new_low = lows[rows], lows[rows] - fall
            lows[rows] = new_low
            for i, q in enumerate(depths):
                hit = (-low < q) & (q <= -new_low)
                f[i, rows[hit]] = score[hit]
        for i, q in enumerate(depths):
            est = r_estimate(t, np.array([q, 0.0]), HalfSpace(d=2), n, dt, rng.substream(41, i),
                             relativistic2d)
            se = f[i].std(ddof=1) / math.sqrt(n)
            assert abs(f[i].mean() - est.value) <= 3.0 * math.hypot(se, est.stderr), (q, f[i].mean(), est)

    @pytest.mark.parametrize("m", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_batch_equals_separate_marches(self, alpha, m):
        # chunks marched together give each chunk's record sums and count
        # bit for bit, and leave each generator where its own march does, on
        # one level and on two, where the one-path chunk has even steps
        # with a coarse record and no fine one
        params = ProcessParams(alpha=alpha, m=m, d=3)
        t, n_steps, sizes = 0.2, 16, [170, 1, 40]
        for levels in (1, 2):
            grid = (t, n_steps, t / n_steps, levels)
            if alpha != 1.0:
                tracelab._warm([grid], params)
            gens = [np.random.default_rng(seed) for seed in range(len(sizes))]
            batch = record_sums(gens, sizes, grid, params)
            for seed, (size, gen, (sums, count)) in enumerate(zip(sizes, gens, batch)):
                alone = np.random.default_rng(seed)
                ((want, want_count),) = record_sums([alone], [size], grid, params)
                assert np.array_equal(sums, want) and count == want_count
                assert gen.bit_generator.state == alone.bit_generator.state
            assert batch[0][1] > 170


def single_level_record_sum(w1, s, tangent, t, dt, params):
    """The record sum of `record_sums` on one level, scripted to march the
    path with normal coordinate w1[k], operational time s[k] and tangential
    position tangent[k] at its steps k (index 0 the start, all zero)."""
    du = np.diff(s)
    levy = dt / np.sqrt(2.0 * du)  # u = dt^2 / (2 z^2)
    normal = np.diff(w1) / np.sqrt(2.0 * du)
    tangential, low, last = [], 0.0, 0
    for k in range(1, len(w1)):
        if w1[k] < low:
            tangential += list((tangent[k] - tangent[last]) / math.sqrt(2.0 * (s[k] - s[last])))
            low, last = w1[k], k
    gen = ScriptedNormals(levy, normal, tangential)
    ((sums, _),) = record_sums([gen], [1], (t, len(w1) - 1, dt, 1), params)
    return sums[0, 0]


class TestCoupledLadder:
    """Both ladder levels scored off one march on the fine grid: the coarse
    level is the fine path read at its even steps."""

    def test_exits_are_first_exits_of_each_level(self):
        # hand-built paths on the unit disc, one chunk each: the first leaves
        # at step 3, comes back at step 4 and leaves again at step 6, so its
        # fine exit is step 3 and its coarse exit step 6 = 2 x 3; the second
        # first leaves at the even step 4, which exits both levels; the
        # third is out at step 7 only, which the coarse level never sees.
        # Each level's exit and score are those of `first_exit` on the path
        # (fine) and on its even-step subsequence (coarse).  Three levels
        # read steps 4 and 8, the even steps and every step by the same
        # rule: the first path is kept to its level-0 exit at step 8
        params = ProcessParams(alpha=1.0, m=0.0, d=2)
        disc = Ball(center=(0.0, 0.0), radius=1.0, d=2)
        t, n_steps = 0.8, 8
        dt = t / n_steps
        paths = np.array([
            [[0.0, 0.0], [0.5, 0.2], [0.7, -0.3], [1.2, 0.1], [0.3, 0.4], [0.0, 1.3],
             [-1.1, 0.5], [-0.2, 0.1], [0.9, 0.9]],
            [[0.0, 0.0], [0.3, 0.1], [0.6, 0.2], [0.8, 0.1], [1.1, 0.0], [0.5, 0.5],
             [0.2, 0.2], [0.1, 0.1], [0.0, 0.0]],
            [[0.0, 0.0], [0.1, 0.1], [0.2, -0.3], [0.4, 0.1], [0.3, 0.3], [0.5, 0.5],
             [0.6, 0.2], [1.05, 0.2], [0.7, 0.0]],
        ])
        levy = np.array([0.1, 0.2, 0.05, 0.1, 0.3, 0.1, 0.2, 0.1])
        u = dt * dt / (2.0 * np.square(levy))
        legs = np.diff(paths, axis=1) / np.sqrt(2.0 * u)[:, None]

        def gens():  # the legs of d = 2 are (n, 2) draws
            return [ScriptedNormals(levy, [], leg.ravel()) for leg in legs]

        starts = paths[:, 0]
        # each path's exit step on each level, coarsest first
        want_steps = {2: [(3, 3), (2, 4), (None, 7)],
                      3: [(2, 3, 3), (1, 2, 4), (None, None, 7)]}
        for levels, want in want_steps.items():
            march = (t, n_steps, dt, levels)
            exits = exit_arrays(starts, gens(), [1, 1, 1], disc, march, params)
            steps = tracelab._exit_steps(starts, gens(), [1, 1, 1], disc, march, params)
            scored = tracelab._scored(steps, [1, 1, 1], march, params)
            for path, (exited, exit_step, _), (scores, count), steps in zip(
                    paths, exits, scored, want):
                assert count == 1
                for level in range(levels):
                    stride = 2 ** (levels - 1 - level)
                    grid, dt_level = path[::stride], stride * dt
                    k, x = first_exit(
                        PathGrid(start=grid[0], dt=dt_level, horizon=t, positions=grid), disc)
                    assert k == steps[level]
                    if k is None:
                        assert not exited[level, 0] and scores[level, 0] == 0.0
                        continue
                    assert exited[level, 0] and exit_step[level, 0] == k
                    want_score = tracelab.cauchy_density(t - (k - 0.5) * dt_level,
                                                         np.linalg.norm(x), params)
                    assert scores[level, 0] == pytest.approx(want_score, rel=1e-12)

    def test_level_record_sums_are_single_level_record_sums(self):
        # a hand-built d = 3 path whose coarse records (even steps 2, 4, 6,
        # 8) are none of its fine records (steps 1, 3, 7): the coupled march
        # draws the tangential part at the union of both, and each level's
        # record sum is the one-level record sum of its own steps
        params = ProcessParams(alpha=1.0, m=0.0, d=3)
        t, n_steps = 1.0, 8
        dt = t / n_steps
        w1 = np.array([0.0, -0.3, -0.2, -1.0, -0.5, 0.4, -0.7, -1.2, -1.1])
        levy = np.array([1.0, 0.5, 2.0, 1.5, 0.8, 1.2, 0.3, 2.5])
        s = np.concatenate([[0.0], np.cumsum(dt * dt / (2.0 * np.square(levy)))])
        normal = np.diff(w1) / np.sqrt(2.0 * np.diff(s))
        union = [1, 2, 3, 4, 6, 7, 8]
        draws = np.array([0.7, -0.2, 1.1, 0.3, -0.5, 0.8, 0.2, -1.3, 0.6, 0.4, -0.9, 0.1,
                          1.5, -0.7]).reshape(-1, 2)
        tangent, last = np.zeros((n_steps + 1, 2)), 0
        for k in range(1, n_steps + 1):
            tangent[k] = tangent[k - 1]
            if k in union:
                tangent[k] += draws[union.index(k)] * math.sqrt(2.0 * (s[k] - s[last]))
                last = k
        gen = ScriptedNormals(levy, normal, draws.ravel())
        ((sums, count),) = record_sums([gen], [1], (t, n_steps, dt, 2), params)
        assert count == 3 and not gen.queues[(2,)]
        coarse = single_level_record_sum(w1[::2], s[::2], tangent[::2], t, 2 * dt, params)
        fine = single_level_record_sum(w1, s, tangent, t, dt, params)
        assert sums[0, 0] == pytest.approx(coarse, rel=1e-12)
        assert sums[1, 0] == pytest.approx(fine, rel=1e-12)
        assert coarse != pytest.approx(fine, rel=1e-3)

    def test_score_columns_are_levels_then_their_combination(self, cauchy2d):
        # a march task returns the levels' record sums and their path-by-path
        # combination 2F - C, whose sample stderr the estimate reports
        t, n_steps, n = 0.5, 32, 2000
        grid = (t, n_steps, t / n_steps, 2)
        ((sums, _),) = record_sums([np.random.default_rng(5)], [n], grid, cauchy2d)
        ((means, m2, _),) = tracelab._march_batch(cauchy2d, None, grid,
                                                  [(np.zeros((1, 2)), n, np.random.default_rng(5))])
        paired = 2.0 * sums[1] - sums[0]
        for column, want in zip(means[:, 0], (sums[0].mean(), sums[1].mean(), paired.mean())):
            assert column == pytest.approx(want, rel=1e-12)
        assert m2[-1, 0] == pytest.approx(((paired - paired.mean()) ** 2).sum(), rel=1e-12)
        est = tracelab._from_moments((n, means[:, 0], m2[:, 0]), grid, {})
        assert est.value == 2.0 * means[1, 0] - means[0, 0]
        assert est.stderr == pytest.approx(paired.std(ddof=1) / math.sqrt(n), rel=1e-12)
        # far below the se of independent levels, sqrt(4 Var F + Var C / n)
        independent = math.sqrt((4.0 * sums[1].var(ddof=1) + sums[0].var(ddof=1)) / n)
        assert est.stderr < 0.6 * independent

    def test_paired_stderr_is_honest(self):
        # over 20 seeds at 2000 paths, C4 from coupled levels centres on the
        # frozen reference (independent levels, the same expectation), and
        # its values spread as their paired stderrs say
        params = ProcessParams(alpha=1.0, m=0.0, d=2)
        ests = [c4_const(2000, 1.0 / 128, RngStream(seed, 60), params) for seed in range(20)]
        values = np.array([e.value for e in ests])
        ses = np.array([e.stderr for e in ests])
        se_mean = math.sqrt((ses**2).sum()) / len(ests)
        assert abs(values.mean() - C4_REFERENCE["value"]) <= 3.0 * math.hypot(
            se_mean, C4_REFERENCE["stderr"])
        assert 0.6 <= values.std(ddof=1) / ses.mean() <= 1.5


# value and stderr of one-level estimates, to the last bit, on the SFC64
# streams of `RngStream`: a march of one level draws and scores exactly as
# the independent-level ladder that the coupled one replaced did, and any
# change to the draws or to their order shows here
ONE_LEVEL_PINS = {
    1.0: {
        "z_trace": (204.2302869234265, 0.6677161740474933),
        "c2_of_t": (0.22357706538173192, 0.004586030556467333),
        "halfspace_profile": [(2.1634610105642125, 0.13491008288346784),
                              (0.005690879630992158, 0.0009672348451222137)],
    },
    1.5: {
        "z_trace": (14.702122930177042, 0.04760165594990232),
        "c2_of_t": (0.13174220317866095, 0.002325536134232234),
        "halfspace_profile": [(1.3662029190838603, 0.05633316656010025),
                              (0.057784577445822334, 0.0053610001625708364)],
    },
}


# the same calls with both ladder levels scored off one march: the coupled
# exits of the killing march and the coupled records of the record march
TWO_LEVEL_PINS = {
    1.0: {
        "z_trace": (203.69502669618868, 0.2089659747105832),
        "c2_of_t": (0.24667307202948993, 0.00463846154448431),
        "halfspace_profile": [(2.9056525792540717, 0.18640258126372355),
                              (0.005266415736462239, 0.00091193233444511)],
    },
    1.5: {
        "z_trace": (14.247448854222625, 0.05722688542393765),
        "c2_of_t": (0.1548382938061114, 0.002574431997391572),
        "halfspace_profile": [(1.6566933571154845, 0.06287251245597482),
                              (0.07966915802487881, 0.007341915334572224)],
    },
}


def assert_pinned(rng, unit_ball, alpha, extrapolate, pins):
    params = ProcessParams(alpha=alpha, m=1.0, d=2)
    z = z_trace(0.05, unit_ball, 300, 20, 0.05 / 8, rng.substream(50), params,
                extrapolate=extrapolate, chunk_points=64)
    assert (z.value, z.stderr) == pins["z_trace"]
    c2 = c2_of_t(0.25, 2000, 0.25 / 16, rng.substream(51), params, extrapolate=extrapolate)
    assert (c2.value, c2.stderr) == pins["c2_of_t"]
    prof = halfspace_profile(0.1, [0.05, 0.3], 1000, 0.1 / 8, rng.substream(52), params,
                             extrapolate=extrapolate)
    assert [(e.value, e.stderr) for e in prof.f_values] == pins["halfspace_profile"]


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_one_level_outputs_are_pinned(rng, unit_ball, alpha):
    assert_pinned(rng, unit_ball, alpha, False, ONE_LEVEL_PINS[alpha])


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_two_level_outputs_are_pinned(rng, unit_ball, alpha):
    assert_pinned(rng, unit_ball, alpha, True, TWO_LEVEL_PINS[alpha])


class TestBoundaryCoefficient:
    def test_positive_with_meta(self, rng, cauchy2d):
        est = c2_of_t(0.5, 20_000, 0.5 / 32, rng.substream(13), cauchy2d, extrapolate=False)
        assert est.value > 0
        assert est.meta["estimator"] == "C2"
        assert 1.0 < est.meta["records_per_path"] < 32

    def test_extrapolated_meta(self, rng, cauchy2d):
        # the ladder's meta is kept beside the record count per path
        est = c2_of_t(0.5, 2000, 0.5 / 16, rng.substream(13), cauchy2d)
        coarse, fine = est.meta["value_coarse"], est.meta["value_fine"]
        assert est.value == 2.0 * fine - coarse
        assert est.meta["bias_budget"] == abs(fine - coarse)
        assert est.meta["extrapolated"] is True
        assert (est.meta["records_per_path"] * 2000).is_integer()
        assert est.n_samples == 4000 and est.dt == 0.5 / 32

    def test_budget_is_paths_per_level(self, rng, cauchy2d):
        # n_paths per ladder level, spent as asked: no pilot overruns it
        est = c2_of_t(0.5, 200, 0.5 / 16, rng.substream(13), cauchy2d)
        assert est.n_samples == 400
        with pytest.raises(BudgetError):
            c2_of_t(0.5, tracelab.MIN_PATHS - 1, 0.5 / 16, rng.substream(13), cauchy2d)

    @pytest.mark.parametrize("extrapolate", [False, True])
    def test_worker_count_does_not_change_results(self, monkeypatch, rng, cauchy2d, extrapolate):
        # 120 000 paths run in two chunks, two batches, each path scoring
        # every level; the march is one pool
        starts = record_pools(monkeypatch, tracelab.ProcessPoolExecutor)
        a, b = (
            c2_of_t(0.25, 120_000, 0.25 / 16, rng.substream(33), cauchy2d,
                    extrapolate=extrapolate, workers=workers)
            for workers in (1, 2)
        )
        assert starts == [2]
        assert (a.value, a.stderr, a.n_samples, a.meta) == (b.value, b.stderr, b.n_samples, b.meta)

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

    @pytest.mark.parametrize("d", [1, 3])
    def test_c2_self_similarity(self, rng, within_se, d):
        # C2(t) = C4 t^{(1-d)/alpha} at m = 0 in other dimensions: d = 3
        # draws two tangential coordinates per record, d = 1 none.  The march
        # reads only alpha, beta, m and d, and ProcessParams starts at d = 2,
        # so d = 1 runs on a stand-in
        params = (ProcessParams(alpha=1.0, m=0.0, d=3) if d == 3
                  else SimpleNamespace(alpha=1.0, beta=0.5, m=0.0, d=1))
        a = c2_of_t(1.0, 60_000, 1.0 / 32, rng.substream(18, d), params, extrapolate=False)
        b = c2_of_t(0.5, 60_000, 0.5 / 32, rng.substream(19, d), params, extrapolate=False)
        scale = 0.5 ** ((d - 1.0) / params.alpha)
        within_se(a.value, b.value * scale, math.hypot(a.stderr, b.stderr * scale), z=3.0,
                  msg=f"C4 from t=1 vs t=1/2, d={d}")


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
            return exit_steps(starts, gens, sizes, *args)

        exit_steps = tracelab._exit_steps
        monkeypatch.setattr(tracelab, "_exit_steps", recording)
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
        chunks = [((0.1, 8, 0.0125, 1), np.zeros((10, 2)), 10, None)] * 8
        chunks.append(((0.1, 16, 0.00625, 1), np.zeros((1, 2)), 10, None))
        assert tracelab._batches(chunks, 10_000, workers) == batches

    def test_level_count_is_part_of_the_batch_key(self, relativistic2d, unit_ball):
        # two groups on the same (t, n_steps, dt), one scoring one level and
        # one two: never one batch, and one march of both gives each group
        # the numbers of its own march
        def groups():
            points = np.array([[0.8, 0.0], [0.0, 0.5]])
            return [[((0.1, 8, 0.1 / 8, levels), points, 100, np.random.default_rng(2 * levels + c))
                     for c in range(2)]
                    for levels in (1, 2)]

        chunks = [c for group in groups() for c in group]
        assert tracelab._batches(chunks, 10_000, 1) == [[0, 1], [2, 3]]
        together = tracelab._march(groups(), unit_ball, relativistic2d, 1, 10_000)
        alone = [tracelab._march([group], unit_ball, relativistic2d, 1, 10_000)[0]
                 for group in groups()]
        for got, want in zip(together, alone):
            for (means, m2, count), (want_means, want_m2, want_count) in zip(got, want):
                assert np.array_equal(means, want_means) and np.array_equal(m2, want_m2)
                assert count == want_count
        shapes = [means.shape for means, _, _ in together[0] + together[1]]
        assert shapes == [(2, 2)] * 2 + [(3, 2)] * 2  # levels and their combination, per point

    @pytest.mark.parametrize(
        "kw", [dict(chunk_points=0), dict(chunk_points=-5), dict(chunk_points=2.5),
               dict(chunk_points=True), dict(n_paths=0), dict(n_paths=20.0), dict(n_x=0),
               dict(n_x=-5), dict(n_x=2.5)],
        ids=["chunk_zero", "chunk_negative", "chunk_float", "chunk_bool", "paths_zero",
             "paths_float", "points_zero", "points_negative", "points_float"],
    )
    def test_bad_budget_raises_parameter_error(self, rng, unit_ball, kw):
        # n_x would otherwise be bent to 8 points per stratum
        args = {"n_x": 300, "n_paths": 20, "chunk_points": 64, **kw}
        with pytest.raises(ParameterError):
            z_trace(0.05, unit_ball, args.pop("n_x"), args.pop("n_paths"), 0.05 / 8,
                    rng.substream(37), ProcessParams(alpha=1.0, m=1.0, d=2), **args)

    @pytest.mark.parametrize("extrapolate", [False, True])
    @pytest.mark.parametrize("alpha,builds", [(1.0, False), (1.5, True)])
    def test_kernel_tables_only_off_alpha_one(self, monkeypatch, rng, unit_ball, alpha, builds,
                                              extrapolate):
        # alpha = 1 scores exits in closed form: no table, no far-field
        # quadrature; the one profile quadrature left is the first term's
        # C1(t), at rho = 0.  Other alpha build every table of every ladder
        # level in the warm-up (`_warm`'s one `build_tables`), so the march
        # that follows, the coarse level's scores too, builds none
        calls = []
        warm = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                if name == "_profile_batch":
                    calls.append((name, np.asarray(args[0]).tolist()))
                else:
                    calls.append(name)
                out = fn(*args, **kwargs)
                if name == "build_tables":
                    warm.append(set(kernels._TABLE_CACHE))
                return out
            return wrapper

        monkeypatch.setattr(kernels, "_TABLE_CACHE", {})  # tables of earlier tests hide none
        for module, name in ((tracelab, "build_tables"), (tracelab, "build_table"),
                             (kernels, "_profile_batch")):
            monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        params = ProcessParams(alpha=alpha, m=1.0, d=2)
        est = z_trace(0.05, unit_ball, 200, 20, 0.05 / 8, rng.substream(35), params,
                      extrapolate=extrapolate, chunk_points=64)
        assert est.value > 0
        assert ("build_tables" in calls) == builds
        if builds:
            assert calls.count("build_tables") == 1
            assert set(kernels._TABLE_CACHE) == warm[0]
            # each step of each level: 8 steps of 0.05/8, and 16 of 0.05/16
            assert len(warm[0]) == (24 if extrapolate else 8)
        else:
            assert calls == [("_profile_batch", [0.0])] and not kernels._TABLE_CACHE

    def test_default_strata_cover_domain(self, cauchy2d, unit_ball):
        strata = default_strata(unit_ball, 0.02, cauchy2d)
        assert strata[0][0] == 0.0
        assert strata[-1][1] == unit_ball.delta_max
        for (a1, b1), (a2, _) in zip(strata[:-1], strata[1:]):
            assert b1 == a2
            assert b1 > a1


class TestBudgets:
    @pytest.mark.parametrize(
        "name", ["n_paths", "n_x", "steps", "profile_n_paths", "chunk_points", "workers"])
    @pytest.mark.parametrize("value", [0, 2.5])
    def test_bad_count_raises_parameter_error(self, name, value):
        # checked once, before residual_scan, lambda1_estimate or
        # ryznar_check divide t by `steps` or march on the others
        with pytest.raises(ParameterError, match=name):
            Budgets(**{name: value})


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
    def test_no_points_raises_parameter_error(self, rng, cauchy2d, unit_ball):
        # no point checked is no pass
        with pytest.raises(ParameterError):
            ryznar_check(0.1, [], unit_ball, Budgets(n_paths=300, steps=16), rng, cauchy2d)

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


    @pytest.mark.parametrize("extrapolate", [False, True])
    def test_one_march_per_mass(self, monkeypatch, rng, relativistic2d, unit_ball, extrapolate):
        # the points of each mass march as one batch, with the numbers of
        # separate per-point calls on the same substreams and on the ladder
        # the budgets ask for, at any worker count
        t, budgets = 0.1, Budgets(n_paths=300, steps=16, extrapolate=extrapolate)
        xs = [np.array([0.0, 0.0]), np.array([0.6, 0.0]), np.array([0.0, -0.8])]
        direct = [
            [tracelab._r_estimates([(t, x, t / 16, rng.substream(29, i, branch))], unit_ball, 300,
                                   p, extrapolate=budgets.extrapolate, workers=1)[0]
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

    def test_estimates_are_the_merged_chunk_moments(self, monkeypatch, rng, relativistic2d,
                                                     unit_ball):
        # 350 paths run in four chunks (100, 100, 100, 50); the estimate is
        # the sample mean of their merged (n, mean, M2), field for field
        monkeypatch.setattr(tracelab, "CHUNK_PATHS", 100)
        x = np.array([0.8, 0.0])
        grid = (0.1, 8, 0.1 / 8, 1)  # the one-level ladder
        requests = [(grid, x, 350, rng.substream(31, 0))]
        ((moments, exits),) = tracelab._r_moments(requests, unit_ball, relativistic2d, 1)
        est = r_estimate(0.1, x, unit_ball, 350, 0.1 / 8, rng.substream(31), relativistic2d)
        ref = tracelab._from_moments(moments, grid, est.meta)
        assert moments[0] == est.n_samples == 350
        assert (est.value, est.stderr, est.n_samples) == (ref.value, ref.stderr, ref.n_samples)
        assert est.meta["exit_fraction"] == exits / 350


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
