import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from relheat import kernels
from relheat.errors import ParameterError, SingularityError
from relheat.kernels import levy_half_density
from relheat.specfun import (
    ProcessParams,
    _log_kanter,
    characteristic_exponent,
    gamma_strict,
    jump_coefficient,
    kanter_factor,
    laplace_exponent,
    levy_density,
    psi,
    stable_density_tail_mass,
    stable_density_tail_series,
    stable_levy_density,
    stable_subordinator_density,
    subordinator_density_at,
    surface_area,
    tempered_density,
)


def levy_half(u):
    # closed form for beta = 1/2, the one elementary one-sided stable law
    return u**-1.5 * math.exp(-1.0 / (4.0 * u)) / (2.0 * math.sqrt(math.pi))


class TestProcessParams:
    def test_derived_fields(self):
        p = ProcessParams(alpha=1.2, m=0.5, d=3)
        assert p.beta == 0.6
        assert p.p == (3 + 1.2) / 2

    @pytest.mark.parametrize(
        "bad",
        [dict(alpha=0.0), dict(alpha=2.0), dict(alpha=1.0, m=-1.0), dict(alpha=1.0, d=1),
         dict(alpha=1.0, m=math.nan), dict(alpha=1.0, m=math.inf)],
    )
    def test_invalid(self, bad):
        with pytest.raises(ParameterError):
            ProcessParams(**{"alpha": 1.0, **bad})

    def test_with_mass(self):
        p = ProcessParams(alpha=1.0, m=2.0, d=2)
        assert p.with_mass(0.0).m == 0.0
        assert p.with_mass(0.0).alpha == p.alpha


class TestGammaAndSurface:
    def test_exact_values(self):
        assert gamma_strict(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma_strict(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma_strict(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)
        assert gamma_strict(5.0) == pytest.approx(24.0, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, 50.0, 120.0])
    def test_out_of_window(self, x):
        with pytest.raises(ParameterError):
            gamma_strict(x)

    def test_surface_area(self):
        assert surface_area(2) == pytest.approx(2 * math.pi, rel=1e-12)
        assert surface_area(3) == pytest.approx(4 * math.pi, rel=1e-12)
        assert surface_area(4) == pytest.approx(2 * math.pi**2, rel=1e-12)

    def test_surface_area_rejects_low_dim(self):
        with pytest.raises(ParameterError):
            surface_area(1)


class TestPsi:
    def test_closed_forms(self):
        assert psi(0.0, 1.5) == pytest.approx(1.0, rel=1e-9)
        assert psi(1.0, 1.5) == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("p", [0.8, 1.5, 2.5, 3.5])
    def test_at_zero(self, p):
        # psi(0) = 2^{1/2-p} Gamma(2p)
        assert psi(0.0, p) == pytest.approx(2 ** (0.5 - p) * gamma_strict(2 * p), rel=1e-9)

    @pytest.mark.parametrize("theta,p", [(0.3, 1.5), (2.0, 2.5), (7.0, 3.5)])
    def test_gauss_laguerre_oracle(self, theta, p):
        # independent quadrature route: Gauss-Laguerre handles e^{-v} exactly
        nodes, weights = np.polynomial.laguerre.laggauss(100)
        q = p - 0.5
        oracle = float((weights * nodes**q * (theta + 0.5 * nodes) ** q).sum())
        assert psi(theta, p) == pytest.approx(oracle, rel=1e-8)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.01, max_value=4.0),
        st.floats(min_value=0.6, max_value=4.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_strictly_increasing(self, theta, gap, p):
        assert psi(theta + gap, p) > psi(theta, p)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            psi(-0.1, 1.5)
        with pytest.raises(ParameterError):
            psi(1.0, 0.5)


class TestLevyDensities:
    def test_jump_coefficient_reference(self):
        # A(-1, 2) = Gamma(3/2) / (pi 2^{-1} |Gamma(-1/2)|) with |Gamma(-1/2)| = 2 sqrt(pi)
        want = math.gamma(1.5) / (math.pi * 0.5 * 2 * math.sqrt(math.pi))
        assert want == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)
        assert jump_coefficient(-1.0, 2) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha,d", [(0.5, 2), (1.0, 2), (1.0, 3), (1.5, 3), (1.8, 2)])
    def test_jump_coefficient_standard_form(self, alpha, d):
        # equivalent standard constant alpha 2^{alpha-1} Gamma((d+alpha)/2) /
        # (pi^{d/2} Gamma(1-alpha/2))
        std = (
            alpha
            * 2 ** (alpha - 1)
            * math.gamma((d + alpha) / 2)
            / (math.pi ** (d / 2) * math.gamma(1 - alpha / 2))
        )
        assert jump_coefficient(-alpha, d) == pytest.approx(std, rel=1e-12)

    def test_massless_reduction(self):
        p = ProcessParams(alpha=1.3, m=0.0, d=3)
        for r in (0.1, 1.0, 7.0):
            x = np.array([r, 0.0, 0.0])
            assert levy_density(x, p) == pytest.approx(stable_levy_density(x, p), rel=1e-12)

    def test_singularity(self):
        p = ProcessParams(alpha=1.0, m=1.0, d=2)
        with pytest.raises(SingularityError):
            levy_density(np.zeros(2), p)

    def test_tempering_beats_polynomials(self):
        p = ProcessParams(alpha=1.0, m=1.0, d=2)
        # e^{-m^{1/alpha} r} wins over the psi growth: nu * r^{d+alpha+8} -> 0
        vals = [levy_density([r, 0.0], p) * r ** (p.d + p.alpha + 8) for r in (20.0, 40.0, 60.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6 * vals[0]

    def test_continuous_in_mass_at_zero(self):
        p1 = ProcessParams(alpha=1.0, m=1e-8, d=2)
        p0 = ProcessParams(alpha=1.0, m=0.0, d=2)
        for r in (0.3, 1.0, 3.0):
            a = levy_density([r, 0.0], p1)
            b = levy_density([r, 0.0], p0)
            assert abs(a / b - 1.0) < 1e-6


class TestStableSubordinatorDensity:
    def test_levy_closed_form(self):
        for u in np.geomspace(1e-3, 1e3, 25):
            assert stable_subordinator_density(u, 0.5) == pytest.approx(
                levy_half(u), rel=1e-7
            )

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            stable_subordinator_density(0.0, 0.5)
        with pytest.raises(ParameterError):
            stable_subordinator_density(1.0, 1.0)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9])
    def test_normalization(self, beta):
        cut = 50.0
        bulk, _ = quad(lambda u: stable_subordinator_density(u, beta), 0, cut, limit=300)
        tail, bound = stable_density_tail_mass(cut, beta)
        assert bound < 1e-9
        assert bulk + tail == pytest.approx(1.0, abs=2e-7)

    @pytest.mark.parametrize("beta,lam", [(0.3, 1.0), (0.7, 0.1), (0.9, 10.0)])
    def test_laplace_spot_checks(self, beta, lam):
        val, _ = quad(
            lambda u: math.exp(-lam * u) * stable_subordinator_density(u, beta),
            0,
            np.inf,
            limit=400,
        )
        assert val == pytest.approx(math.exp(-(lam**beta)), abs=1e-8)

    @pytest.mark.parametrize("beta", [0.3, 0.6, 0.9])
    def test_unimodal(self, beta):
        us = np.geomspace(1e-2, 1e2, 200)
        vals = np.array([stable_subordinator_density(u, beta) for u in us])
        # the extreme left tail may underflow float range; it must then be a
        # contiguous prefix of zeros, and the representable part unimodal
        positive = vals > 0
        first = np.argmax(positive)
        assert positive[first:].all()
        diffs = np.sign(np.diff(vals[first:]))
        changes = np.count_nonzero(np.diff(diffs[diffs != 0]))
        assert changes == 1


def lattice_window(beta):
    """The table build's log-z lattice nodes where theta_beta(1, .) is
    positive, from the left: the nodes the package evaluates."""
    s, z, weights, theta_z = kernels._z_nodes(kernels.TABLE_RHO_MAX, beta)
    return z[theta_z > 0.0]


class TestSubordinatorDensityArrays:
    @pytest.mark.parametrize("beta", [0.3, 0.6, 0.75, 0.9])
    def test_array_route_matches_float_route(self, beta):
        # over the table lattice's nodes; at beta = 0.9 one row passes only
        # after refining past 64 nodes per panel
        zs = lattice_window(beta)
        got = stable_subordinator_density(zs, beta)
        want = np.array([stable_subordinator_density(float(z), beta) for z in zs])
        assert np.max(np.abs(got / want - 1.0)) < 1e-10

    @pytest.mark.parametrize("beta", [0.75, 0.9, 0.99])
    def test_right_tail_is_the_series(self, beta):
        # out here the angle integrand is a spike at pi that fixed panels
        # can miss while their n- and n/2-node sums still agree (74% off at
        # u = 3.9e8, beta = 3/4); the series is exact to its bound instead
        us = np.geomspace(10.0, 1e14, 500)
        series, bound = stable_density_tail_series(us, beta)
        assert bound.max() < 1e-10
        got = stable_subordinator_density(us, beta)
        assert np.max(np.abs(got / series - 1.0)) < 1e-10

    @pytest.mark.parametrize("beta", [0.6, 0.75, 0.9])
    def test_float_route_takes_the_series_in_the_right_tail(self, beta):
        # quad alone, its error estimate passing, gave 5.38e-16 at u = 1e8,
        # beta = 3/4, where the series gives 2.07e-15
        us = np.geomspace(20.0, 1e12, 60)
        got = np.array([stable_subordinator_density(float(u), beta) for u in us])
        assert np.max(np.abs(got / stable_subordinator_density(us, beta) - 1.0)) < 1e-9

    @pytest.mark.parametrize("beta", [0.98, 0.99])
    def test_float_route_near_beta_one(self, beta):
        # e^{log A} overflows near phi = pi; the integrand is zero there,
        # not an OverflowError
        us = np.geomspace(0.85, 20.0, 12)
        want = stable_subordinator_density(us, beta)
        for u, v in zip(us, want):
            assert stable_subordinator_density(float(u), beta) == pytest.approx(v, rel=1e-8)
        assert stable_subordinator_density(2.0, 0.98) > 0.0

    def test_half_matches_levy_density(self):
        us = np.geomspace(1e-3, 1e3, 200)
        got = stable_subordinator_density(us, 0.5)
        assert np.max(np.abs(got / levy_half_density(us) - 1.0)) < 1e-10

    @pytest.mark.parametrize("beta", [0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 0.95])
    def test_matches_scipy_levy_stable(self, beta):
        # scipy's totally skewed stable law is an independent route (Nolan's
        # integral); in its S1 parameterization, scale cos(pi beta/2)^{1/beta}
        # gives Laplace transform e^{-lam^beta}, the density theta_beta(1, u).
        # The left tail below 1e-3 of the peak stays out: there scipy itself
        # is off (2.9e-3 relative at u = 0.094, beta = 3/4)
        from scipy.stats import levy_stable

        us = np.geomspace(1e-3, 1e3, 400)
        got = stable_subordinator_density(us, beta)
        keep = got >= 1e-3 * got.max()
        scale = math.cos(math.pi * beta / 2.0) ** (1.0 / beta)
        want = levy_stable.pdf(us[keep], beta, 1.0, loc=0.0, scale=scale)
        assert np.max(np.abs(got[keep] / want - 1.0)) < 1e-10

    @pytest.mark.parametrize("beta", [0.3, 0.75, 0.9])
    def test_entries_do_not_depend_on_the_batch(self, beta):
        # 100 lattice rows spread from the left edge of theta's window to 32
        # rows past where the series takes over: the panel rule's rows with
        # the peak, at beta = 0.9 every row, the refined ones among them
        zs = lattice_window(beta)
        series_rows = stable_density_tail_series(zs, beta)[1] < 1e-10
        rows = np.unique(np.linspace(0, np.argmax(series_rows) + 31, 100).round().astype(int))
        assert len(rows) == 100 and series_rows[rows].any() and not series_rows[rows].all()
        us = zs[rows]
        got = stable_subordinator_density(us, beta)
        for u, v in zip(us, got):
            assert stable_subordinator_density(np.array([u]), beta)[0] == v
        grid = stable_subordinator_density(us.reshape(4, 25), beta)
        assert grid.shape == (4, 25)
        assert np.array_equal(grid.ravel(), got)

    def test_domain_errors(self):
        for bad in ([1.0, 0.0], [1.0, -2.0], [1.0, math.nan]):
            with pytest.raises(ParameterError):
                stable_subordinator_density(np.array(bad), 0.75)
        assert stable_subordinator_density(np.array([]), 0.75).shape == (0,)


def tail_series_one_point(u, beta, kmax=90):
    """The large-u series at one point as a plain loop over its terms:
    drop exact zeros, stop before the first term larger than its
    predecessor."""
    k = np.arange(1, kmax + 1)
    sine = np.sin(np.pi * k * beta)
    sine[np.abs(sine) < 1e-10] = 0.0
    terms = (
        (-1.0) ** (k + 1)
        * np.exp(gammaln(k * beta + 1.0) - gammaln(k + 1.0))
        * sine
        * u ** (-k * beta - 1.0)
    )
    kept = [v for v in terms if v != 0.0]
    if not kept:
        return 0.0, 0.0
    stop = len(kept)
    for i in range(1, len(kept)):
        if abs(kept[i]) > abs(kept[i - 1]):
            stop = i
            break
    value = float(np.sum(kept[:stop])) / math.pi
    omitted = abs(kept[min(stop, len(kept) - 1)])
    return value, omitted / math.pi / max(abs(value), 1e-300)


class TestTailSeries:
    @pytest.mark.parametrize("beta", [0.6, 0.7, 0.75])
    def test_array_equals_one_point_series(self, beta):
        # theta's array route sends every lattice node through one array
        # call of the series; each entry must be the one-point series bit
        # for bit
        us = np.geomspace(50.0, 1e16, 400)
        values, bounds = stable_density_tail_series(us, beta)
        assert values.shape == bounds.shape == us.shape
        for u, v, b in zip(us, values, bounds):
            assert (v, b) == tail_series_one_point(u, beta)
            assert (v, b) == stable_density_tail_series(float(u), beta)

    def test_scalar_returns_floats(self):
        value, bound = stable_density_tail_series(100.0, 0.75)
        assert isinstance(value, float) and isinstance(bound, float)
        assert value > 0.0 and bound < 1e-11


class TestScalingAndTempering:
    def test_time_one_identity(self):
        for u in (0.2, 1.0, 4.0):
            assert subordinator_density_at(1.0, u, 0.4) == pytest.approx(
                stable_subordinator_density(u, 0.4), rel=1e-12
            )

    def test_scaling_example(self):
        # t=4, u=4, beta=1/2: t^{-2} theta(1, 1/4) with the closed form
        want = (1.0 / 16.0) * levy_half(0.25)
        assert subordinator_density_at(4.0, 4.0, 0.5) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_scaling_preserves_mass(self, t):
        cut = 50.0 * t**2
        bulk, _ = quad(
            lambda u: subordinator_density_at(t, u, 0.5), 0, cut, limit=300
        )
        tail, _ = stable_density_tail_mass(cut * t ** (-2.0), 0.5)
        assert bulk + tail == pytest.approx(1.0, abs=1e-6)

    def test_tempered_massless_identity(self):
        p = ProcessParams(alpha=1.0, m=0.0, d=2)
        assert tempered_density(2.0, 0.7, p) == pytest.approx(
            subordinator_density_at(2.0, 0.7, 0.5), rel=1e-12
        )

    def test_tempered_example(self):
        # beta=1/2, m=1, t=1, u=1: exponent -m^2 u + m t = 0
        p = ProcessParams(alpha=1.0, m=1.0, d=2)
        assert tempered_density(1.0, 1.0, p) == pytest.approx(levy_half(1.0), rel=1e-9)
        assert tempered_density(1.0, 1.0, p) == pytest.approx(0.219695, abs=1e-6)

    @pytest.mark.parametrize("beta,m,t", [(0.5, 1.0, 1.0), (0.25, 0.5, 2.0), (0.75, 2.0, 0.5)])
    def test_tempered_normalization(self, beta, m, t):
        p = ProcessParams(alpha=2 * beta, m=m, d=2)
        val, _ = quad(lambda u: tempered_density(t, u, p), 0, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestExponents:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_massless_powers(self, alpha):
        p = ProcessParams(alpha=alpha, m=0.0, d=2)
        for v in (0.3, 1.0, 2.5):
            assert characteristic_exponent(v, p) == pytest.approx(v**alpha, rel=1e-14)
            assert characteristic_exponent(-v, p) == pytest.approx(v**alpha, rel=1e-14)
            assert laplace_exponent(v, p) == pytest.approx(v ** (alpha / 2), rel=1e-14)

    @pytest.mark.parametrize("m", [0.5, 1.0, 3.0])
    def test_alpha_one_is_relativistic_energy(self, m):
        p = ProcessParams(alpha=1.0, m=m, d=2)
        for xi in (0.0, 0.25, 1.0, 4.0):
            assert characteristic_exponent(xi, p) == pytest.approx(
                math.sqrt(m * m + xi * xi) - m, rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize(
        "alpha,m,lam,t", [(1.0, 1.0, 0.5, 1.0), (0.5, 0.5, 2.0, 1.0), (1.5, 2.0, 1.0, 0.5)]
    )
    def test_laplace_exponent_is_transform_of_density(self, alpha, m, lam, t):
        # int e^{-lam u} theta_beta(t, u, m) du = e^{-t (laplace exponent)}
        p = ProcessParams(alpha=alpha, m=m, d=2)
        val, _ = quad(lambda u: math.exp(-lam * u) * tempered_density(t, u, p), 0, np.inf, limit=400)
        assert val == pytest.approx(math.exp(-t * laplace_exponent(lam, p)), rel=1e-6)


class TestKanterFactor:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.6, 0.75, 0.9])
    def test_scalar_path_equals_array_path(self, beta):
        # the theta quadrature takes the scalar path; the sampler the array
        # path: both must give the same bits
        phis = np.concatenate([
            [0.0, 1e-15, 1e-12, 5e-10, 1e-9, 1e-9 * (1 + 1e-15), 2e-9, 1e-6],
            np.linspace(1e-3, math.pi - 1e-3, 997),
            [math.pi - 1e-6, math.pi - 1e-9, math.pi - 1e-12],
        ])
        for phi in phis:
            scalar = _log_kanter(float(phi), beta)
            assert type(scalar) is float
            assert scalar == _log_kanter(np.array([phi]), beta)[0]
            assert _log_kanter(phi, beta) == scalar  # np.float64 is a float

    def test_midpoint_value(self):
        # A(pi/2) = (sin(pi/4)/sin(pi/2))^1 * sin(pi/4)/sin(pi/2) = 1/2 at beta=1/2
        assert kanter_factor(math.pi / 2, 0.5) == pytest.approx(0.5, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=math.pi - 1e-6), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=50, deadline=None)
    def test_positive(self, phi, beta):
        assert kanter_factor(phi, beta) > 0

    @given(
        st.floats(min_value=1e-4, max_value=math.pi / 2),
        st.floats(min_value=0.1, max_value=1.4),
        st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=50, deadline=None)
    def test_increasing(self, phi, gap, beta):
        hi = min(phi + gap, math.pi - 1e-9)
        assert kanter_factor(hi, beta) >= kanter_factor(phi, beta)
