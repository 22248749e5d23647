import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from relheat import kernels, specfun
from relheat.errors import ParameterError, QuadratureError, StaleTableError
from relheat.kernels import (
    build_table,
    build_tables,
    c1_const,
    c1_of_t,
    cauchy_density,
    density_upper_bound,
    fast_theta,
    free_density,
    table_eval,
)
from relheat.specfun import ProcessParams, stable_subordinator_density


def cauchy_kernel(r, d, t=1.0):
    return math.gamma((d + 1) / 2) / math.pi ** ((d + 1) / 2) * t / (t * t + r * r) ** ((d + 1) / 2)


def adaptive_profile(rho, w, params):
    """Reference F(rho, w): adaptive quadrature in z on the two sides of the
    integrand's peak, a rule independent of the package's log-z trapezoid."""
    theta = fast_theta(params.beta)
    d = params.d
    wb = w ** (1.0 / params.beta) if w > 0.0 else 0.0

    def integrand(z):
        expo = -rho * rho / (4.0 * z) - wb * z
        return 0.0 if z <= 0.0 or expo < -745.0 else z ** (-d / 2.0) * math.exp(expo) * theta(z)

    # a coarse scan locates the peak; the two quad calls then converge fast
    zs = np.geomspace(1e-8, 1e8, 161)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        vals = np.nan_to_num(zs ** (-d / 2.0) * np.exp(-rho * rho / (4.0 * zs) - wb * zs) * theta(zs))
    z_star = float(zs[int(np.argmax(vals))])
    left, e1 = quad(integrand, 0.0, z_star, limit=300, epsabs=0.0, epsrel=1e-10)
    right, e2 = quad(integrand, z_star, np.inf, limit=300, epsabs=0.0, epsrel=1e-10)
    assert e1 + e2 <= 1e-8 * (left + right), (rho, w)
    return (4.0 * math.pi) ** (-d / 2.0) * (left + right)


def fourier_density_at_origin(params, t=1.0):
    """Reference p(t, 0) at d = 2 by Fourier inversion, free of theta_beta:
    (2 pi)^{-1} int_0^infty r e^{-t Phi(r)} dr, in x = log r."""
    assert params.d == 2

    def integrand(x):
        return math.exp(2.0 * x - t * specfun.characteristic_exponent(math.exp(x), params))

    peak = 0.0
    while t * specfun.characteristic_exponent(math.exp(peak), params) < 1.0:
        peak += 1.0
    top = peak
    while t * specfun.characteristic_exponent(math.exp(top), params) < 800.0 + 2.0 * top:
        top += 2.0
    left, e1 = quad(integrand, peak - 60.0, peak, limit=500, epsabs=0.0, epsrel=1e-13)
    right, e2 = quad(integrand, peak, top, limit=500, epsabs=0.0, epsrel=1e-13)
    assert e1 + e2 <= 1e-12 * (left + right)
    return (left + right) / (2.0 * math.pi)


class TestTraceCoefficient:
    def test_closed_forms(self):
        assert c1_const(ProcessParams(1.0, 0.0, 2)) == pytest.approx(1 / (2 * math.pi), rel=1e-12)
        assert c1_const(ProcessParams(1.0, 0.0, 3)) == pytest.approx(1 / math.pi**2, rel=1e-12)
        # omega_2 Gamma(4) / ((2 pi)^2 * 0.5) = 2 pi * 6 / (2 pi^2) = 6/pi
        assert c1_const(ProcessParams(0.5, 0.0, 2)) == pytest.approx(6 / math.pi, rel=1e-12)

    def test_subordination_route(self):
        # C1 = (4 pi)^{-d/2} int z^{-d/2} theta_beta(1, z) dz
        params = ProcessParams(1.0, 0.0, 2)
        integral, _ = quad(
            lambda z: z**-1.0 * stable_subordinator_density(z, 0.5), 0, np.inf, limit=300
        )
        assert (4 * math.pi) ** -1.0 * integral == pytest.approx(c1_const(params), rel=1e-6)

    def test_damped_coefficient_limits(self):
        params = ProcessParams(1.0, 1.0, 2)
        c1 = c1_const(params)
        assert c1_of_t(0.0, params) == c1
        assert c1_of_t(5.0, params.with_mass(0.0)) == c1
        values = [c1_of_t(t, params) for t in (0.01, 0.1, 1.0)]
        assert values[0] > values[1] > values[2]
        assert all(v <= c1 for v in values)

    def test_small_time_recovery(self):
        params = ProcessParams(1.0, 1.0, 2)
        c1 = c1_const(params)
        assert abs(c1_of_t(1e-3, params) - c1) < 0.01 * c1


class TestFreeDensity:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_cauchy_oracle(self, d, r):
        params = ProcessParams(1.0, 0.0, d)
        assert free_density(1.0, r, params) == pytest.approx(cauchy_kernel(r, d), rel=1e-6)

    def test_radially_decreasing(self):
        params = ProcessParams(1.4, 0.7, 3)
        p0 = free_density(0.5, 0.0, params)
        last = p0
        for r in (0.2, 0.5, 1.0, 2.0):
            v = free_density(0.5, r, params)
            assert v <= last * (1 + 1e-12)
            last = v

    def test_scaling_law_massless(self):
        params = ProcessParams(1.0, 0.0, 2)
        for t, r in ((0.3, 0.2), (2.0, 1.0), (0.05, 0.3)):
            direct = free_density(t, r, params)
            scaled = t ** (-2.0) * free_density(1.0, r / t, params)
            assert direct == pytest.approx(scaled, rel=1e-6)

    def test_rejects_bad_arguments(self):
        params = ProcessParams(1.0, 0.0, 2)
        with pytest.raises(ParameterError):
            free_density(0.0, 1.0, params)
        with pytest.raises(ParameterError):
            free_density(1.0, -1.0, params)

    @pytest.mark.parametrize(
        "m,alpha",
        [(m, a) for m in (0.0, 1.0, 20.0) for a in (0.2, 0.3, 0.8, 1.2, 1.5)]
        + [(m, 1.9) for m in (0.0, 1.0, 4.0, 8.0)],
    )
    def test_fourier_oracle_at_origin(self, alpha, m):
        # near alpha = 2 the profile keeps to its promised 1e-8 (3.8e-9 off
        # at m = 8), not to 1e-9
        params = ProcessParams(alpha, m, 2)
        assert free_density(1.0, 0.0, params) == pytest.approx(
            fourier_density_at_origin(params), rel=1e-8 if alpha == 1.9 else 1e-9)

    @pytest.mark.parametrize("alpha", [0.1, 0.2])
    @pytest.mark.parametrize("d", [2, 3])
    def test_small_alpha_left_tail(self, alpha, d):
        # theta_beta's left tail reaches e^{-51} (alpha = 0.2) and e^{-105}
        # (alpha = 0.1), past the lattice's k = 0 node at e^{-35}
        params = ProcessParams(alpha, 0.0, d)
        assert free_density(0.7, 0.0, params) == pytest.approx(
            density_upper_bound(0.7, params), rel=1e-9)
        assert build_tables([0.0], params)[0].f0 == pytest.approx(c1_const(params), rel=1e-9)

    def test_coarse_lattice_step_raises(self):
        for evaluate in (
            # near alpha = 2 at m t = 20 the lattice step is too coarse for
            # the integrand: the sum on every second node differs by 5e-4,
            # and the error estimate, 2.9e-7, exceeds 1e-8
            lambda: free_density(1.0, 0.0, ProcessParams(1.9, 20.0, 2)),
            # a table goes through the same check: at alpha = 1.96 its
            # rho = 0 row is off by 3e-4
            lambda: build_tables([0.0], ProcessParams(1.96, 0.0, 2)),
        ):
            with pytest.raises(QuadratureError) as info:
                evaluate()
            assert info.value.value > 0.0
            assert info.value.residual > 1e-8

    def test_tiny_alpha_raises(self):
        # at alpha = 0.01 theta_beta's mass reaches past both ends of the
        # lattice (its left end floored at _Z_FLOOR): typed, not a ValueError
        with pytest.raises(QuadratureError):
            free_density(1.0, 0.0, ProcessParams(0.01, 0.0, 2))

    def test_underflowed_far_radius(self):
        # F ~ e^{-(mt)^{1/alpha} rho}: subnormal at rho = 725, 0 at rho = 1e3,
        # unchecked either way (alpha = 1/2, mt = 1)
        params = ProcessParams(0.5, 1.0, 2)
        assert 0.0 < kernels._profile_batch(np.array([725.0]), [1.0], params)[0, 0] < 1e-300
        assert free_density(1.0, 1e3, params) == 0.0


class TestCauchyDensity:
    """The closed-form kernel at alpha = 1 against the subordination quadrature."""

    TS = (0.005, 0.02, 0.1, 0.5, 1.0)
    RS = (0.0, 0.001, 0.1, 0.5, 1.0, 3.0, 10.0, 50.0)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("m", [0.0, 1.0, 20.0])
    def test_matches_quadrature(self, d, m):
        # scaled radii r/t reach 1e4, far beyond the tables' last node at 50
        params = ProcessParams(1.0, m, d)
        for t in self.TS:
            for r in self.RS:
                assert cauchy_density(t, r, params) == pytest.approx(
                    free_density(t, r, params), rel=1e-12), (t, r)

    @pytest.mark.parametrize("d", [2, 3])
    def test_large_bessel_argument(self, d):
        # m s = 710: K_nu(m s) alone is below 1e-300, scaled by kve it is not
        params = ProcessParams(1.0, 20.0, d)
        assert cauchy_density(1.0, 35.5, params) == pytest.approx(
            free_density(1.0, 35.5, params), rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_massless_is_the_cauchy_kernel(self, d):
        params = ProcessParams(1.0, 0.0, d)
        for t in self.TS:
            for r in self.RS:
                assert cauchy_density(t, r, params) == pytest.approx(
                    cauchy_kernel(r, d, t=t), rel=1e-13)

    def test_arrays_broadcast_like_scalar_calls(self, relativistic2d):
        ts = np.array([[0.01], [0.3]])
        rs = np.array([0.0, 0.2, 4.0])
        got = cauchy_density(ts, rs, relativistic2d)
        assert got.shape == (2, 3)
        for i, t in enumerate(ts[:, 0]):
            for j, r in enumerate(rs):
                assert got[i, j] == cauchy_density(float(t), float(r), relativistic2d)

    def test_rejects_bad_arguments(self, relativistic2d):
        with pytest.raises(ParameterError):
            cauchy_density(1.0, 0.5, ProcessParams(1.5, 1.0, 2))
        with pytest.raises(ParameterError):
            cauchy_density(np.array([0.1, 0.0]), 0.5, relativistic2d)
        with pytest.raises(ParameterError):
            cauchy_density(0.1, -0.5, relativistic2d)


class TestUpperBound:
    def test_massless_is_tight(self):
        params = ProcessParams(1.0, 0.0, 2)
        for t in (0.1, 1.0, 3.0):
            assert free_density(t, 0.0, params) == pytest.approx(
                density_upper_bound(t, params), rel=1e-7
            )

    def test_massive_case(self):
        params = ProcessParams(1.0, 2.0, 2)
        bound = density_upper_bound(1.0, params)
        assert bound == pytest.approx(math.e**2 / (2 * math.pi), rel=1e-12)
        assert free_density(1.0, 0.0, params) < bound

    def test_dominates_on_random_parameters(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            alpha = rng.uniform(0.4, 1.9)
            m = rng.uniform(0.0, 2.0)
            d = int(rng.integers(2, 5))
            t = rng.uniform(0.05, 2.0)
            params = ProcessParams(alpha, m, d)
            assert free_density(t, 0.0, params) <= density_upper_bound(t, params) * (1 + 1e-9)


class TestFastTheta:
    def test_half_matches_closed_form(self):
        ev = fast_theta(0.5)
        zs = np.geomspace(1e-3, 1e3, 50)
        want = zs**-1.5 * np.exp(-1 / (4 * zs)) / (2 * math.sqrt(math.pi))
        assert np.allclose(ev(zs), want, rtol=1e-12)

    def test_is_the_array_route(self):
        ev = fast_theta(0.7)
        zs = np.geomspace(0.05, 200.0, 60)
        assert np.array_equal(ev(zs), stable_subordinator_density(zs, 0.7))
        # a scalar is a 1-element array: the same bits as the node in a batch
        assert all(ev(float(z)) == v for z, v in zip(zs, ev(zs)))
        exact = np.array([stable_subordinator_density(float(z), 0.7) for z in zs])
        assert np.max(np.abs(ev(zs) / exact - 1)) < 1e-9

    @pytest.mark.parametrize("beta", [0.5, 0.7])
    def test_zero_off_the_positive_axis(self, beta):
        ev = fast_theta(beta)
        got = ev(np.array([-1.0, 0.0, 1.0]))
        assert got[0] == got[1] == ev(0.0) == 0.0
        assert got[2] == ev(1.0) > 0.0

    def test_lattice_takes_no_one_point_quadrature(self, monkeypatch):
        # the table build's 3000 nodes are one array call of the panel rule;
        # one adaptive quad per node would cost about 20x as much
        calls = []
        one_point = specfun._theta_adaptive
        monkeypatch.setattr(specfun, "_theta_adaptive", lambda *a: calls.append(a) or one_point(*a))
        monkeypatch.setattr(kernels, "_LATTICE_THETA", {})
        kernels._z_nodes(kernels.TABLE_RHO_MAX, 0.7)
        assert calls == []
        stable_subordinator_density(1.0, 0.7)
        assert len(calls) == 1

    @pytest.mark.parametrize("beta", [0.75, 0.9, 0.95])
    def test_lattice_theta_is_a_law(self, beta, monkeypatch):
        # int theta dz = 1 and int e^{-z} theta dz = e^{-1} (phi(1) = 1 at
        # m = 0), both by the lattice's own trapezoid sum in log z
        monkeypatch.setattr(kernels, "_LATTICE_THETA", {})
        s, z, weights, theta_z = kernels._z_nodes(kernels.TABLE_RHO_MAX, beta)
        mass = weights * z * theta_z
        assert abs(mass.sum() - 1.0) < 1e-10
        assert abs((mass * np.exp(-z)).sum() - math.exp(-1.0)) < 1e-10

    def test_lattice_build_raises_no_warning(self, monkeypatch):
        # the large-u series is asked for every node, down to z = e^{-35},
        # where its high powers would overflow
        monkeypatch.setattr(kernels, "_LATTICE_THETA", {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernels._z_nodes(kernels.TABLE_RHO_MAX, 0.75)
            value, bound = specfun.stable_density_tail_series(1e-15, 0.75)
            mass, mass_bound = specfun.stable_density_tail_mass(1e-15, 0.75)
        assert math.isfinite(value) and math.isfinite(mass)
        assert bound == mass_bound == math.inf


class TestRadialTable:
    def test_nodes_match_reference_quadrature(self, cauchy2d):
        table = build_table(0.0, cauchy2d)
        idx = [0, 50, 200, 400, 511]
        for i in idx:
            rho = table.radii[i]
            assert table.values[i] == pytest.approx(
                cauchy_density(1.0, rho, cauchy2d), rel=1e-8
            )

    def test_midpoints_within_contract(self):
        params = ProcessParams(1.0, 0.5, 2)
        rng = np.random.default_rng(7)
        t = 0.8
        table = build_table(params.m * t, params)
        rs = np.exp(rng.uniform(np.log(1e-3), np.log(40.0), 100)) * t ** (1 / params.alpha)
        got = table_eval(table, t, rs, params)
        want = cauchy_density(t, rs, params)
        assert np.max(np.abs(got / want - 1)) < 1e-4

    def test_monotone_values(self, cauchy2d):
        table = build_table(0.0, cauchy2d)
        assert (np.diff(table.values) <= 1e-15).all()

    def test_consistency_at_origin(self):
        params = ProcessParams(1.2, 0.8, 3)
        t = 0.6
        table = build_table(params.m * t, params)
        assert table.f0 == pytest.approx(adaptive_profile(0.0, params.m * t, params), rel=1e-7)

    def test_stale_table(self, cauchy2d):
        params_m = ProcessParams(1.0, 1.0, 2)
        table = build_table(1.0 * 0.5, params_m)
        with pytest.raises(StaleTableError):
            table_eval(table, 0.25, 1.0, params_m)

    def test_table_shared_across_masses(self):
        # the cache keys a table by m*t, so a table built for m = 1 at
        # s = 1/2 serves m = 1/2 at t = 1; the caller's params evaluate it
        built = build_table(1.0 * 0.5, ProcessParams(1.5, 1.0, 2))
        params = ProcessParams(1.5, 0.5, 2)
        table = build_table(params.m * 1.0, params)
        assert table is built
        rs = np.geomspace(1e-3, 80.0, 15)  # the last radii lie beyond the grid
        want = [free_density(1.0, r, params) for r in rs]
        assert table_eval(table, 1.0, rs, params) == pytest.approx(want, rel=1e-4)

    def test_beyond_grid_falls_back_to_quadrature(self, cauchy2d):
        table = build_table(0.0, cauchy2d)
        r = 80.0  # beyond the 50-radius grid at t=1
        assert table_eval(table, 1.0, r, cauchy2d) == pytest.approx(
            cauchy_density(1.0, r, cauchy2d), rel=1e-6
        )

    def test_below_grid_uses_origin_value(self, cauchy2d):
        table = build_table(0.0, cauchy2d)
        assert table_eval(table, 1.0, 1e-5, cauchy2d) == pytest.approx(
            cauchy_density(1.0, 0.0, cauchy2d), rel=1e-5
        )

    def test_csv_dump(self, tmp_path, cauchy2d):
        table = build_table(0.0, cauchy2d)
        path = tmp_path / "table.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scaled_radius,F_value"
        assert len(lines) == 1 + len(table.radii)
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(table.radii[0])
        assert float(first[1]) == pytest.approx(table.values[0])

    def test_small_time_scaling_exact(self):
        # evaluation at tiny remaining time goes through the scaling law
        params = ProcessParams(1.0, 0.0, 2)
        s = 1e-6
        table = build_table(0.0, params)
        got = table_eval(table, s, 2.0, params)
        assert got == pytest.approx(cauchy_kernel(2.0, 2, t=s), rel=1e-4)


class TestBatchedBuild:
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_table_independent_of_batch(self, alpha, monkeypatch):
        # the worker-count guarantee rests on a table's bits depending on
        # its m*t alone, not on which tables it was built with; 64 tables
        # fill four blocks, 20 leave a padded last block
        params = ProcessParams(alpha, 1.0, 2)
        t = 0.05
        for n, picks in ((64, (0, 1, 15, 16, 40, 63)), (20, (0, 15, 16, 19))):
            mts = [params.m * (t - (k - 0.5) * t / n) for k in range(1, n + 1)]
            monkeypatch.setattr(kernels, "_TABLE_CACHE", {})
            batch = build_tables(mts, params)
            for j in picks:
                monkeypatch.setattr(kernels, "_TABLE_CACHE", {})
                alone = build_table(mts[j], params)
                assert np.array_equal(alone.values, batch[j].values)
                assert alone.f0 == batch[j].f0

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("mt", [0.0, 0.02, 0.7, 3.0])
    def test_matches_profile_quadrature(self, alpha, mt):
        params = ProcessParams(alpha, 1.0, 2)
        table = build_tables([mt], params)[0]
        want = kernels._profile_batch(table.radii, [mt], params)[:, 0]
        assert np.max(np.abs(table.values / want - 1.0)) < 1e-13

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_origin_value_is_c1(self, alpha):
        # f0 comes from the rho = 0 row of the same product: F(0, 0) = C1
        params = ProcessParams(alpha, 0.0, 2)
        assert build_tables([0.0], params)[0].f0 == pytest.approx(c1_const(params), rel=1e-9)

    def test_cache_shared_with_single_builds(self, cauchy2d):
        relativistic = cauchy2d.with_mass(1.0)
        tables = build_tables([0.3, 0.1, 0.3], relativistic)
        assert tables[0] is tables[2]
        assert build_table(0.1, relativistic) is tables[1]

    def test_rejects_negative_mt(self, cauchy2d):
        with pytest.raises(ParameterError):
            build_tables([0.1, -0.2], cauchy2d)


def stable_expansion_term(k, rho, params):
    """k-th term of the large-|x| series of the m = 0 density p(1, x)
    (Blumenthal & Getoor 1960); the first is the Levy density nu(x)."""
    a, d = params.alpha, params.d
    return (
        (-1) ** (k + 1) / math.factorial(k)
        * math.gamma(k * a / 2 + 1) * math.gamma((k * a + d) / 2)
        * math.sin(math.pi * k * a / 2) * 2 ** (k * a)
        * rho ** (-k * a - d) / math.pi ** (d / 2 + 1)
    )


class TestLogZLattice:
    def test_table_cut_is_a_lattice_node(self):
        s, z, weights, theta_z = kernels._z_nodes(kernels.TABLE_RHO_MAX, 0.75)
        assert len(s) == kernels.Z_NODES
        assert s[-1] == pytest.approx(2 * math.log(kernels.TABLE_RHO_MAX) + 30, rel=1e-14)
        far = kernels._z_nodes(234.0, 0.75)[0]
        assert np.array_equal(far[: len(s)], s)
        assert far[-2] < 2 * math.log(234.0) + 30 <= far[-1]

    @pytest.mark.parametrize("beta", [0.4, 0.75])
    def test_theta_grown_in_pieces_equals_one_build(self, beta, monkeypatch):
        z = np.exp(kernels._S_LO + kernels._S_STEP * np.arange(3437))
        monkeypatch.setattr(kernels, "_LATTICE_THETA", {})
        for n in (3000, 3035, 3437):
            pieces = kernels._lattice_theta(beta, z[:n])
        monkeypatch.setattr(kernels, "_LATTICE_THETA", {})
        whole = kernels._lattice_theta(beta, z)
        assert np.array_equal(pieces, whole)
        assert np.array_equal(whole, fast_theta(beta)(z))

    def test_far_field_reuses_cached_theta(self, monkeypatch):
        params = ProcessParams(1.5, 1.0, 2)
        monkeypatch.setattr(kernels, "_LATTICE_THETA", {})
        kernels._profile_batch(np.array([80.0, 234.0]), [0.3], params)
        calls = []
        theta = kernels.stable_subordinator_density
        monkeypatch.setattr(
            kernels, "stable_subordinator_density", lambda u, b: calls.append(u) or theta(u, b)
        )
        kernels._profile_batch(np.array([234.0]), [0.3], params)
        kernels._profile_batch(np.array([60.0, 100.0]), [0.7], params)
        assert calls == []
        # a larger radius evaluates only the nodes past the cached prefix
        kernels._profile_batch(np.array([1e4]), [0.3], params)
        n_far, n_near = (len(kernels._z_nodes(r, params.beta)[0]) for r in (1e4, 234.0))
        assert [len(u) for u in calls] == [n_far - n_near]

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 1.5])
    @pytest.mark.parametrize("w", [0.0, 0.5])
    def test_far_field_matches_adaptive_profile(self, alpha, w):
        params = ProcessParams(alpha, 1.0, 2)
        rhos = np.array([60.0, 120.0, 234.0])
        got = kernels._profile_batch(rhos, [w], params)[:, 0]
        want = np.array([adaptive_profile(r, w, params) for r in rhos])
        assert np.max(np.abs(got / want - 1.0)) < 1e-9

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 1.5])
    def test_far_field_is_the_jump_density(self, alpha):
        # p(1, x) = nu(x) (1 + c rho^{-alpha} + ...): nu alone is off by
        # 2.4e-3 at alpha = 0.8, rho = 1e3, so the comparison keeps the
        # series' second term and leaves O(rho^{-2 alpha}) relative
        params = ProcessParams(alpha, 0.0, 2)
        for rho in (1e3, 1e4, 1e5):
            nu = specfun.stable_levy_density(rho, params)
            assert stable_expansion_term(1, rho, params) == pytest.approx(nu, rel=1e-13)
            want = nu + stable_expansion_term(2, rho, params)
            assert kernels._profile_batch(np.array([rho]), [0.0], params)[0, 0] == pytest.approx(
                want, rel=2e-5
            )
