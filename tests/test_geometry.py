import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relheat.errors import ParameterError
from relheat.geometry import Annulus, Ball, HalfSpace, parse_domain, row_norms


@pytest.fixture
def annulus():
    return Annulus(center=(0.0, 0.0), r_in=1.0, r_out=3.0, d=2)


class TestMembershipAndDistance:
    def test_ball_center(self, unit_ball):
        assert unit_ball.contains(np.zeros(2))
        assert unit_ball.delta(np.zeros(2)) == 1.0
        assert unit_ball.delta(np.array([2.0, 0.0])) == 0.0

    def test_annulus_midshell(self, annulus):
        x = np.array([2.0, 0.0])
        assert annulus.contains(x)
        assert annulus.delta(x) == pytest.approx(1.0)
        assert not annulus.contains(np.array([0.5, 0.0]))
        assert annulus.delta(np.array([0.5, 0.0])) == 0.0

    def test_halfspace(self):
        h = HalfSpace(d=3)
        q = 0.37
        x = np.array([q, 0.0, 0.0])
        assert h.contains(x)
        assert h.delta(x) == pytest.approx(q)
        assert not h.contains(np.array([-0.1, 5.0, 5.0]))

    def test_infinite_ball(self):
        b = Ball(center=(0.0, 0.0), radius=math.inf, d=2)
        assert b.contains(np.array([1e12, 0.0]))
        assert b.delta(np.zeros(2)) == math.inf
        with pytest.raises(ParameterError):
            b.volume()

    @given(
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    )
    @settings(max_examples=80, deadline=None)
    def test_delta_is_lipschitz(self, xa, xb):
        for dom in (
            Ball(center=(0.0, 0.0), radius=1.5, d=2),
            Annulus(center=(0.0, 0.0), r_in=0.5, r_out=2.5, d=2),
        ):
            a = np.array(xa)
            b = np.array(xb)
            assert abs(dom.delta(a) - dom.delta(b)) <= np.linalg.norm(a - b) + 1e-12


def ulps_from(r, k):
    """r moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        r = np.nextafter(r, math.copysign(math.inf, k))
    return r


class TestRowNorms:
    """Membership reads `row_norms`, which must equal np.linalg.norm."""

    @staticmethod
    def points(d, center, radii, seed):
        """Rays from `center` at each radius and 1, 2 and 3 ulps either side
        of it, then uniform points in a box around the shells."""
        gen = np.random.default_rng(seed)
        r = np.array([ulps_from(R, k) for R in radii for k in range(-3, 4)])
        r = np.repeat(r, 200)
        u = gen.standard_normal((len(r), d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        box = gen.uniform(-2.0, 2.0, (5000, d)) * max(radii)
        return np.concatenate([center + r[:, None] * u, center + box])

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("shape", ["ball", "annulus"])
    def test_membership_matches_norm_reference(self, shape, d):
        # membership and distance work one coordinate at a time, and equal
        # the route through row_norms(pts - center) bit for bit, also for
        # points laid out coordinate by coordinate as the exit march holds
        # them, and with the result written to `out`
        center = np.array([0.3, -0.7, 0.2, 0.5, -0.1, 0.9, -0.4, 0.6][:d])
        if shape == "ball":
            dom = Ball(center=tuple(center), radius=1.3, d=d)
            radii = [dom.radius]
        else:
            dom = Annulus(center=tuple(center), r_in=0.4, r_out=1.1, d=d)
            radii = [dom.r_in, dom.r_out]
        pts = self.points(d, center, radii, seed=d)
        r = row_norms(pts - center)
        assert np.array_equal(r, np.linalg.norm(pts - center, axis=1))
        if shape == "ball":
            ref, ref_delta = r < radii[0], np.maximum(radii[0] - r, 0.0)
        else:
            ref = (r > radii[0]) & (r < radii[1])
            ref_delta = np.maximum(np.minimum(r - radii[0], radii[1] - r), 0.0)
        by_coordinate = np.array(pts.T).T
        out = np.empty(len(pts) + 3, dtype=bool)
        for x in (pts, by_coordinate):
            assert np.array_equal(dom.contains(x), ref)
            assert dom.contains(x, out=out[:len(pts)]).base is out
            assert np.array_equal(out[:len(pts)], ref)
            assert np.array_equal(dom.delta(x), ref_delta)
        # the near-boundary rays land on both sides of each sphere
        for R in radii:
            near = np.abs(r - R) <= 4 * np.spacing(R)
            assert (r[near] < R).any() and (r[near] >= R).any()

    @pytest.mark.parametrize("d", [2, 3, 8, 9])
    def test_wide_range_rows(self, d):
        # squares spanning 80 decades, where the order of summation shows
        gen = np.random.default_rng(d)
        y = gen.standard_normal((20_000, d)) * np.exp(gen.uniform(-20.0, 20.0, (20_000, d)))
        assert np.array_equal(row_norms(y), np.linalg.norm(y, axis=1))


class TestAreasAndVolumes:
    def test_ball_closed_forms(self):
        b = Ball(center=(0.0, 0.0, 0.0), radius=2.0, d=3)
        assert b.volume() == pytest.approx(4 / 3 * math.pi * 8, rel=1e-12)
        assert b.surface() == pytest.approx(4 * math.pi * 4, rel=1e-12)
        assert b.smoothness_radius == 2.0

    def test_annulus_closed_forms(self, annulus):
        assert annulus.volume() == pytest.approx(math.pi * (9 - 1), rel=1e-12)
        assert annulus.surface() == pytest.approx(2 * math.pi * (3 + 1), rel=1e-12)
        assert annulus.smoothness_radius == 1.0
        assert annulus.delta_max == 1.0

    def test_layer_area_examples(self, unit_ball, annulus):
        assert unit_ball.layer_area(0.0) == pytest.approx(2 * math.pi)
        assert unit_ball.layer_area(0.5) == pytest.approx(math.pi)
        assert annulus.layer_area(0.25) == pytest.approx(2 * math.pi * (2.75 + 1.25))
        with pytest.raises(ParameterError):
            unit_ball.layer_area(1.5)

    @pytest.mark.parametrize("shape", ["ball", "annulus", "ball3"])
    def test_layer_area_sandwich(self, shape, unit_ball, annulus):
        dom = {"ball": unit_ball, "annulus": annulus,
               "ball3": Ball(center=(0.0,) * 3, radius=1.0, d=3)}[shape]
        r = dom.smoothness_radius
        surf = dom.surface()
        rng = np.random.default_rng(11)
        for q in rng.uniform(0.0, r * 0.999, 20):
            area = dom.layer_area(q)
            lo = ((r - q) / r) ** (dom.d - 1) * surf
            hi = (r / (r - q)) ** (dom.d - 1) * surf
            assert lo <= area * (1 + 1e-12)
            assert area <= hi * (1 + 1e-12)

    def test_boundary_corollaries(self, unit_ball, annulus):
        # the two-sided layer bound follows from the sandwich lemma only for
        # q <= R/2 (a ball's layer area vanishes as q -> R); the deviation
        # bound (iii) holds on the full range
        for dom in (unit_ball, annulus):
            d, r = dom.d, dom.smoothness_radius
            surf, vol = dom.surface(), dom.volume()
            assert surf <= 2**d * vol / r * (1 + 1e-12)
            for q in np.linspace(1e-9, r / 2, 17):
                area = dom.layer_area(q)
                assert 2.0 ** (-d + 1) * surf <= area * (1 + 1e-12)
                assert area <= 2.0 ** (d - 1) * surf * (1 + 1e-12)
            for q in np.linspace(1e-9, r, 17):
                assert abs(dom.layer_area(q) - surf) <= 2**d * d * q * surf / r * (1 + 1e-12)

    def test_layer_volumes_partition(self, unit_ball, annulus):
        for dom in (unit_ball, annulus):
            edges = np.linspace(0.0, dom.delta_max, 9)
            total = sum(
                dom.layer_volume(a, b) for a, b in zip(edges[:-1], edges[1:])
            )
            assert total == pytest.approx(dom.volume(), rel=1e-12)


class TestSampling:
    # the layer 0 <= delta < delta_max is the whole domain; `z_trace` draws
    # its points with this sampler, so its law is checked, not only its range
    def test_uniform_ball_fraction(self, unit_ball, rng, within_se):
        n = 100_000
        pts = unit_ball.sample_layer(0.0, unit_ball.delta_max, rng.substream(0), n)
        assert unit_ball.contains(pts).all()
        frac = (unit_ball.delta(pts) >= 0.5).mean()
        target = 0.25  # (1/2)^d of the volume
        within_se(frac, target, math.sqrt(target * (1 - target) / n), z=4.0)

    def test_uniform_annulus_radial_law(self, annulus, rng, within_se):
        n = 100_000
        pts = annulus.sample_layer(0.0, annulus.delta_max, rng.substream(1), n)
        assert annulus.contains(pts).all()
        radii = np.linalg.norm(pts, axis=1)
        mid = 2.0
        target = (mid**2 - 1.0) / (9.0 - 1.0)
        frac = (radii < mid).mean()
        within_se(frac, target, math.sqrt(target * (1 - target) / n), z=4.0)

    def test_layer_samples_in_range(self, unit_ball, annulus, rng):
        for dom, (lo, hi) in ((unit_ball, (0.1, 0.3)), (annulus, (0.05, 0.5))):
            pts = dom.sample_layer(lo, hi, rng.substream(2), 10_000)
            deltas = dom.delta(pts)
            assert (deltas >= lo).all()
            assert (deltas < hi).all()

    def test_annulus_layer_covers_both_shells(self, annulus, rng):
        pts = annulus.sample_layer(0.0, 0.2, rng.substream(3), 20_000)
        radii = np.linalg.norm(pts, axis=1)
        inner = (radii < 2.0).mean()
        # shells have areas ~ 2 pi r w: inner fraction ~ 1.1/(1.1+2.9)
        assert 0.2 < inner < 0.35

    def test_empty_layer_errors(self, unit_ball):
        with pytest.raises(ParameterError):
            unit_ball.layer_volume(0.5, 0.5)
        with pytest.raises(ParameterError):
            unit_ball.sample_layer(1.0, 1.2, RngStream_(), 10)


def RngStream_():
    from relheat.sampler import RngStream

    return RngStream(1, 0)


class TestParsing:
    def test_round_trips(self):
        for spec, cls in (
            ("ball:R0=1", Ball),
            ("annulus:rin=1,rout=3", Annulus),
            ("halfspace", HalfSpace),
        ):
            dom = parse_domain(spec, 2)
            assert isinstance(dom, cls)
            assert parse_domain(dom.spec_string(), 2).spec_string() == dom.spec_string()

    def test_case_insensitive(self):
        assert isinstance(parse_domain("Ball:R0=2.5", 3), Ball)
        assert isinstance(parse_domain("ANNULUS:RIN=0.5,ROUT=2", 2), Annulus)
        assert isinstance(parse_domain("HalfSpace", 2), HalfSpace)

    def test_rejects_garbage(self):
        with pytest.raises(ParameterError):
            parse_domain("cube:a=1", 2)
        with pytest.raises(ParameterError):
            parse_domain("annulus:rin=3,rout=1", 2)
