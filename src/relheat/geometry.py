"""Domains with smooth boundary: ball, annulus, and the flat half-space.

Bounded shapes carry closed-form volume, surface area, inner-layer areas
|boundary of D_q| for D_q = {x : dist(x, boundary) >= q}, and exact
rejection-free uniform samplers on the layers {q_lo <= dist < q_hi}
(radial inverse CDF in r^d); the layer 0 <= dist < delta_max is the whole
domain.  The
half-space {x_1 > 0} supports membership and boundary distance only.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .sampler import RngStream
from .specfun import surface_area

__all__ = ["Ball", "Annulus", "HalfSpace", "parse_domain"]


class Domain:
    """Shared interface; all operations accept (n, d) arrays of points."""

    def contains(self, x, out=None) -> np.ndarray:
        """Membership of each point; `out`, a bool array of the points, is
        written if given."""
        raise NotImplementedError

    def delta(self, x) -> np.ndarray:
        """Distance to the boundary for interior points, 0 outside."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


def _points(x, d):
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != d:
        raise ParameterError(f"points must have {d} coordinates, got shape {arr.shape}")
    return arr, single


def row_norms(y):
    """Euclidean length of each row of an (n, d) array.

    The squares are added column by column, the order in which
    `np.linalg.norm(y, axis=1)` adds fewer than 8 of them, so the lengths
    are its own bit for bit, without its (n, d) temporaries.  numpy adds 8
    or more pairwise; such rows go through it unchanged.
    """
    if y.shape[1] >= 8:
        return np.linalg.norm(y, axis=1)
    s = y[:, 0] * y[:, 0]
    for j in range(1, y.shape[1]):
        s += y[:, j] * y[:, j]
    return np.sqrt(s)


def _radii(pts, center):
    """`row_norms(pts - center)` bit for bit, one coordinate at a time: an
    (n, d) - (d,) broadcast runs numpy's inner loop once per row."""
    if pts.shape[1] >= 8:
        return row_norms(pts - np.asarray(center))
    s, y = np.empty(len(pts)), np.empty(len(pts))
    for j, c in enumerate(center):
        np.subtract(pts[:, j], c, out=y)
        if j == 0:
            np.multiply(y, y, out=s)
        else:
            np.multiply(y, y, out=y)
            s += y
    return np.sqrt(s, out=s)


@dataclass(frozen=True)
class Ball(Domain):
    """Open ball; radius may be math.inf to model the whole space."""

    center: tuple
    radius: float
    d: int

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ParameterError(f"radius must be > 0, got {self.radius}")
        center = tuple(float(c) for c in np.broadcast_to(self.center, (self.d,)))
        object.__setattr__(self, "center", center)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.radius)

    @property
    def smoothness_radius(self) -> float:
        return self.radius

    @property
    def delta_max(self) -> float:
        return self.radius

    def volume(self) -> float:
        self._require_bounded()
        return surface_area(self.d) * self.radius**self.d / self.d

    def surface(self) -> float:
        self._require_bounded()
        return surface_area(self.d) * self.radius ** (self.d - 1)

    def contains(self, x, out=None):
        pts, single = _points(x, self.d)
        out = np.less(_radii(pts, self.center), self.radius, out=out)
        return bool(out[0]) if single else out

    def delta(self, x):
        pts, single = _points(x, self.d)
        r = _radii(pts, self.center)
        out = np.maximum(self.radius - r, 0.0)
        if not math.isfinite(self.radius):
            out = np.full(len(pts), math.inf)
        return float(out[0]) if single else out

    def layer_area(self, q: float) -> float:
        self._require_bounded()
        _check_layer_depth(q, self.smoothness_radius)
        return surface_area(self.d) * (self.radius - q) ** (self.d - 1)

    def layer_volume(self, q_lo: float, q_hi: float) -> float:
        """Volume of {q_lo <= delta < q_hi}."""
        self._require_bounded()
        q_lo, q_hi = _check_layer(q_lo, q_hi, self.delta_max)
        r_out, r_in = self.radius - q_lo, self.radius - q_hi
        return surface_area(self.d) / self.d * (r_out**self.d - r_in**self.d)

    def sample_layer(self, q_lo: float, q_hi: float, rng, size: int):
        self._require_bounded()
        q_lo, q_hi = _check_layer(q_lo, q_hi, self.delta_max)
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        a, b = self.radius - q_hi, self.radius - q_lo
        r = (a**self.d + gen.random(size) * (b**self.d - a**self.d)) ** (1.0 / self.d)
        # delta = R - r must land in [q_lo, q_hi); clip away roundoff
        r = np.clip(r, a, np.nextafter(b, a))
        return np.asarray(self.center) + r[:, None] * _unit_vectors(gen, size, self.d)

    def spec_string(self) -> str:
        return f"ball:R0={self.radius:g}"

    def _require_bounded(self):
        if not self.bounded:
            raise ParameterError("operation requires a bounded domain")


@dataclass(frozen=True)
class Annulus(Domain):
    """Open annulus r_in < |x - center| < r_out.

    The smoothness radius is min(r_in, (r_out - r_in)/2): both the inner and
    outer rolling balls of that radius fit everywhere along the boundary.
    """

    center: tuple
    r_in: float
    r_out: float
    d: int

    def __post_init__(self):
        if not 0.0 < self.r_in < self.r_out:
            raise ParameterError(f"need 0 < r_in < r_out, got ({self.r_in}, {self.r_out})")
        center = tuple(float(c) for c in np.broadcast_to(self.center, (self.d,)))
        object.__setattr__(self, "center", center)

    @property
    def bounded(self) -> bool:
        return True

    @property
    def smoothness_radius(self) -> float:
        return min(self.r_in, 0.5 * (self.r_out - self.r_in))

    @property
    def delta_max(self) -> float:
        return 0.5 * (self.r_out - self.r_in)

    def volume(self) -> float:
        return surface_area(self.d) / self.d * (self.r_out**self.d - self.r_in**self.d)

    def surface(self) -> float:
        return surface_area(self.d) * (
            self.r_out ** (self.d - 1) + self.r_in ** (self.d - 1)
        )

    def contains(self, x, out=None):
        pts, single = _points(x, self.d)
        r = _radii(pts, self.center)
        out = np.greater(r, self.r_in, out=out)
        out &= r < self.r_out
        return bool(out[0]) if single else out

    def delta(self, x):
        pts, single = _points(x, self.d)
        r = _radii(pts, self.center)
        out = np.maximum(np.minimum(r - self.r_in, self.r_out - r), 0.0)
        return float(out[0]) if single else out

    def layer_area(self, q: float) -> float:
        _check_layer_depth(q, self.smoothness_radius)
        return surface_area(self.d) * (
            (self.r_out - q) ** (self.d - 1) + (self.r_in + q) ** (self.d - 1)
        )

    def layer_volume(self, q_lo: float, q_hi: float) -> float:
        q_lo, q_hi = _check_layer(q_lo, q_hi, self.delta_max)
        wd = surface_area(self.d) / self.d
        outer = wd * ((self.r_out - q_lo) ** self.d - (self.r_out - q_hi) ** self.d)
        inner = wd * (
            min(self.r_in + q_hi, self.r_out - q_hi) ** self.d
            - (self.r_in + q_lo) ** self.d
        )
        return outer + max(inner, 0.0)

    def sample_layer(self, q_lo: float, q_hi: float, rng, size: int):
        q_lo, q_hi = _check_layer(q_lo, q_hi, self.delta_max)
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        # the layer is an inner shell plus an outer shell; pick by volume
        wd = surface_area(self.d) / self.d
        in_a, in_b = self.r_in + q_lo, min(self.r_in + q_hi, self.r_out - q_hi)
        out_a, out_b = self.r_out - q_hi, self.r_out - q_lo
        v_in = max(wd * (in_b**self.d - in_a**self.d), 0.0)
        v_out = wd * (out_b**self.d - out_a**self.d)
        pick_inner = gen.random(size) < v_in / (v_in + v_out)
        r = np.empty(size)
        for mask, (a, b) in ((pick_inner, (in_a, in_b)), (~pick_inner, (out_a, out_b))):
            k = int(mask.sum())
            if k:
                rd = a**self.d + gen.random(k) * (b**self.d - a**self.d)
                r[mask] = rd ** (1.0 / self.d)
        pts = np.asarray(self.center) + r[:, None] * _unit_vectors(gen, size, self.d)
        # roundoff at shell edges can push delta onto q_hi; nudge inward
        delta = self.delta(pts)
        bad = ~((delta >= q_lo) & (delta < q_hi))
        if bad.any():
            mid = 0.5 * (q_lo + q_hi)
            direction = pts[bad] - np.asarray(self.center)
            rr = np.linalg.norm(direction, axis=1, keepdims=True)
            target = np.where(rr[:, 0] < 0.5 * (self.r_in + self.r_out),
                              self.r_in + mid, self.r_out - mid)
            pts[bad] = np.asarray(self.center) + direction / rr * target[:, None]
        return pts

    def spec_string(self) -> str:
        return f"annulus:rin={self.r_in:g},rout={self.r_out:g}"


@dataclass(frozen=True)
class HalfSpace(Domain):
    """H = {x in R^d : x_1 > 0}; membership and boundary distance only."""

    d: int

    @property
    def bounded(self) -> bool:
        return False

    def contains(self, x, out=None):
        pts, single = _points(x, self.d)
        out = np.greater(pts[:, 0], 0.0, out=out)
        return bool(out[0]) if single else out

    def delta(self, x):
        pts, single = _points(x, self.d)
        out = np.maximum(pts[:, 0], 0.0)
        return float(out[0]) if single else out

    def spec_string(self) -> str:
        return "halfspace"


def _unit_vectors(gen, size, d):
    g = gen.standard_normal((size, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _check_layer_depth(q, r_smooth):
    if not 0.0 <= q <= r_smooth:
        raise ParameterError(f"layer depth q={q} outside [0, {r_smooth}]")


def _check_layer(q_lo, q_hi, delta_max):
    if not 0.0 <= q_lo < q_hi:
        raise ParameterError(f"need 0 <= q_lo < q_hi, got ({q_lo}, {q_hi})")
    q_hi = min(q_hi, delta_max)
    if q_lo >= q_hi:
        raise ParameterError(f"layer [{q_lo}, {q_hi}) is empty")
    return q_lo, q_hi


_BALL_RE = re.compile(r"^ball:r0=([0-9.e+-]+|inf)$")
_ANNULUS_RE = re.compile(r"^annulus:rin=([0-9.e+-]+),rout=([0-9.e+-]+)$")


def parse_domain(spec: str, d: int) -> Domain:
    """Parse `ball:R0=1`, `annulus:rin=1,rout=3`, or `halfspace` (case-insensitive)."""
    text = spec.strip().lower().replace(" ", "")
    if text == "halfspace":
        return HalfSpace(d=d)
    m = _BALL_RE.match(text)
    if m:
        return Ball(center=(0.0,) * d, radius=float(m.group(1)), d=d)
    m = _ANNULUS_RE.match(text)
    if m:
        return Annulus(center=(0.0,) * d, r_in=float(m.group(1)), r_out=float(m.group(2)), d=d)
    raise ParameterError(f"cannot parse domain spec {spec!r}")
