"""Special functions and exact densities for the relativistic stable process.

Everything here is a pure function of its arguments: the process parameter
bundle, the jump-measure densities nu / nu_tilde, and the one-sided stable
subordinator density theta_beta together with its time scaling and
exponential tempering.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import gammaln, roots_legendre
from scipy.special import gamma as _scipy_gamma

from .errors import ParameterError, QuadratureError, SingularityError

__all__ = [
    "ProcessParams",
    "characteristic_exponent",
    "laplace_exponent",
    "gamma_strict",
    "surface_area",
    "psi",
    "jump_coefficient",
    "levy_density",
    "stable_levy_density",
    "stable_subordinator_density",
    "subordinator_density_at",
    "tempered_density",
    "kanter_factor",
    "stable_density_tail_series",
]


@dataclass(frozen=True)
class ProcessParams:
    """Parameters (alpha, m, d) of the relativistic alpha-stable process.

    beta = alpha/2 and p = (d+alpha)/2 are derived, never set independently.
    """

    alpha: float
    m: float = 0.0
    d: int = 2
    beta: float = field(init=False)
    p: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ParameterError(f"alpha must be in (0, 2), got {self.alpha}")
        if not 0.0 <= self.m < math.inf:
            raise ParameterError(f"mass m must be finite and >= 0, got {self.m}")
        if int(self.d) != self.d or self.d < 2:
            raise ParameterError(f"dimension d must be an integer >= 2, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "beta", self.alpha / 2.0)
        object.__setattr__(self, "p", (self.d + self.alpha) / 2.0)

    def with_mass(self, m: float) -> "ProcessParams":
        return ProcessParams(alpha=self.alpha, m=m, d=self.d)


def characteristic_exponent(xi, params: ProcessParams):
    """Phi(xi) = (m^{2/alpha} + xi^2)^{alpha/2} - m, so that E cos(xi X_t^1) = e^{-t Phi(xi)}."""
    return (params.m ** (2 / params.alpha) + xi**2) ** (params.alpha / 2) - params.m


def laplace_exponent(lam, params: ProcessParams):
    """phi(lam) = (lam + m^{1/beta})^beta - m, so that E e^{-lam T_t} = e^{-t phi(lam)}."""
    return (lam + params.m ** (1 / params.beta)) ** params.beta - params.m


def gamma_strict(x: float) -> float:
    """Gamma function restricted to (0, 50), where it is accurate to 1e-12.

    Arguments outside that window are an error by contract; use reflection
    or recurrence identities at the call site instead of relying on a
    degraded approximation here.
    """
    if not 0.0 < x < 50.0:
        raise ParameterError(f"gamma_strict requires 0 < x < 50, got {x}")
    return float(_scipy_gamma(x))


def surface_area(d: int) -> float:
    """Surface area omega_d = 2 pi^{d/2} / Gamma(d/2) of the unit sphere."""
    if int(d) != d or d < 2:
        raise ParameterError(f"dimension d must be an integer >= 2, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / gamma_strict(d / 2.0)


def psi(theta: float, p: float) -> float:
    """psi(theta) = int_0^infty e^{-v} v^{p-1/2} (theta + v/2)^{p-1/2} dv.

    Strictly increasing in theta; psi(0) = 2^{1/2-p} Gamma(2p).
    """
    if theta < 0.0:
        raise ParameterError(f"theta must be >= 0, got {theta}")
    if p <= 0.5:
        raise ParameterError(f"p must exceed 1/2, got {p}")
    q = p - 0.5
    # e^{-v} v^{2p-1} drops below 1e-16 of the bulk well before this cutoff
    v_max = 2.0 * p + 50.0 + 10.0 * math.sqrt(p)

    def integrand(v):
        return math.exp(-v) * v**q * (theta + 0.5 * v) ** q

    value, err = quad(integrand, 0.0, v_max, limit=200, epsabs=0.0, epsrel=1e-12)
    if not math.isfinite(value) or err > 1e-10 * max(abs(value), 1e-300):
        raise QuadratureError(
            f"psi({theta}, {p}) quadrature residual {err:.2e} too large",
            value=value,
            residual=err,
        )
    return value


def jump_coefficient(v: float, d: int) -> float:
    """A(v, d) = Gamma((d-v)/2) / (pi^{d/2} 2^v |Gamma(v/2)|).

    For v = -alpha in (-2, 0) the reflection Gamma(v/2) = Gamma(1 + v/2)/(v/2)
    keeps every gamma argument inside the strict window.
    """
    num = gamma_strict((d - v) / 2.0)
    if v > 0:
        abs_gamma_half = gamma_strict(v / 2.0)
    elif -2.0 < v < 0.0:
        abs_gamma_half = gamma_strict(1.0 + v / 2.0) / abs(v / 2.0)
    else:
        raise ParameterError(f"jump_coefficient supports v in (-2,0) or (0,50), got {v}")
    return num / (math.pi ** (d / 2.0) * 2.0**v * abs_gamma_half)


def stable_levy_density(x, params: ProcessParams) -> float:
    """Jump density nu_tilde(x) = A(-alpha, d) / |x|^{d+alpha} of the stable process."""
    r = _radius(x, params.d)
    if r == 0.0:
        raise SingularityError("Levy density is singular at x = 0")
    return jump_coefficient(-params.alpha, params.d) / r ** (params.d + params.alpha)


def levy_density(x, params: ProcessParams) -> float:
    """Jump density of the relativistic process,

        nu(x) = R(alpha,d)/|x|^{d+alpha} * e^{-m^{1/alpha}|x|} psi(m^{1/alpha}|x|),

    with R(alpha,d) = A(-alpha,d)/psi(0).  Reduces to nu_tilde exactly at m=0.
    """
    r = _radius(x, params.d)
    if r == 0.0:
        raise SingularityError("Levy density is singular at x = 0")
    a = jump_coefficient(-params.alpha, params.d)
    if params.m == 0.0:
        return a / r ** (params.d + params.alpha)
    s = params.m ** (1.0 / params.alpha) * r
    ratio = psi(s, params.p) / psi(0.0, params.p)
    return a / r ** (params.d + params.alpha) * math.exp(-s) * ratio


def _radius(x, d: int) -> float:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size == 1:
        return abs(float(arr[0]))
    if arr.size != d:
        raise ParameterError(f"point has {arr.size} coordinates, expected {d}")
    return float(np.linalg.norm(arr))


# ---------------------------------------------------------------------------
# One-sided stable subordinator density
# ---------------------------------------------------------------------------

def kanter_factor(phi, beta: float):
    """Zolotarev/Kanter angular factor

        A(phi) = [sin(beta phi)/sin phi]^{beta/(1-beta)} * sin((1-beta) phi)/sin phi

    increasing on (0, pi) from beta^{beta/(1-beta)} (1-beta) to +infinity.
    """
    return np.exp(_log_kanter(phi, beta))


def _log_kanter(phi, beta):
    """log A(phi), with A(phi) -> A(0+) below phi = 1e-9.

    A Python float (np.float64 included) takes a scalar path that returns a
    float bit-identical to the array path's entry: `math.sin` rounds like
    `np.sin` here, but `math.log` does not round like `np.log` in the last
    bit, so the logs stay `np.log`.  The one-point quadrature
    `_theta_adaptive` calls this on one float at a time, where the array
    path's 0-d array handling costs several times the arithmetic.
    """
    if isinstance(phi, float):
        if phi < 1e-9:
            return float((beta / (1.0 - beta)) * math.log(beta) + math.log1p(-beta))
        log_sin = np.log(math.sin(phi))
        return float(
            (beta / (1.0 - beta)) * (np.log(math.sin(beta * phi)) - log_sin)
            + np.log(math.sin((1.0 - beta) * phi))
            - log_sin
        )
    phi = np.asarray(phi, dtype=float)
    out = np.empty_like(phi)
    small = phi < 1e-9
    out[small] = (beta / (1.0 - beta)) * math.log(beta) + math.log1p(-beta)
    p = phi[~small]
    log_sin = np.log(np.sin(p))
    out[~small] = (
        (beta / (1.0 - beta)) * (np.log(np.sin(beta * p)) - log_sin)
        + np.log(np.sin((1.0 - beta) * p))
        - log_sin
    )
    return out if out.shape else float(out)


def stable_subordinator_density(u, beta: float):
    """Density theta_beta(1, u) of the stable subordinator at time 1.

    Uses the single-integral representation over the angle phi in (0, pi):

        theta_beta(1,u) = beta/((1-beta) pi) u^{-1/(1-beta)}
                          int_0^pi A(phi) exp(-A(phi) x) dphi,   x = u^{-beta/(1-beta)}.

    The integrand is unimodal, with its peak at the angle phi* where
    log A(phi*) = -log x (phi* = 0 when A(0+) x >= 1).  The integral is
    split there and where the integrand has fallen by e^{-30}, and the
    common exponential scale is factored out to preserve relative accuracy
    when the density is many orders of magnitude below 1.

    `u` is a scalar or an array.  Both routes take the large-u series
    wherever its truncation bound is below 1e-10.  Elsewhere a scalar takes
    adaptive `quad`, to 1e-9 relative, and returns a float; an array
    returns an array of u's shape, by one Gauss-Legendre rule on the same
    three panels for all its entries, to 1e-10 relative (see
    `_theta_panels`).  Where a quadrature cannot reach its tolerance, either
    route returns the large-u series if its truncation bound is below
    1e-9 (`_THETA_RTOL`), and raises `QuadratureError` otherwise.  The array
    route is the package's theta_beta for every profile quadrature: it fills
    the kernels' log-z lattice (`kernels.fast_theta`).
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    if np.ndim(u) == 0:
        return _theta_adaptive(float(u), beta)
    u = np.asarray(u, dtype=float)
    if not np.all(u > 0.0):
        raise ParameterError("u must be > 0 everywhere")
    return _theta_panels(u.ravel(), beta).reshape(u.shape)


def _theta_adaptive(u: float, beta: float) -> float:
    """theta_beta(1, u) at one point: the large-u series where its bound is
    below `_SERIES_BOUND`, adaptive `quad` elsewhere.

    The quadrature evaluates log A one angle at a time, through the scalar
    path of `_log_kanter`: `math.sin` and `np.log` there give the array
    path's bits (`math.log` would not), so the result does not depend on
    which path ran.
    """
    if u <= 0.0:
        raise ParameterError(f"u must be > 0, got {u}")
    # far in the right tail the angle integrand is a spike at pi that quad
    # can miss while its error estimate passes; the series is exact there
    series, bound = stable_density_tail_series(u, beta)
    if bound < _SERIES_BOUND:
        return series

    x = u ** (-beta / (1.0 - beta))
    log_a0 = _log_kanter(1e-12, beta)
    if math.exp(log_a0) * x < 1.0:
        phi_star = brentq(
            lambda p: _log_kanter(p, beta) + math.log(x),
            1e-12,
            math.pi - 1e-12,
            xtol=1e-14,
        )
        log_peak = _log_kanter(phi_star, beta)
    else:
        phi_star = 0.0
        log_peak = log_a0
    scale = log_peak - math.exp(log_peak) * x
    prefactor = beta / ((1.0 - beta) * math.pi) * u ** (-1.0 / (1.0 - beta))
    if scale + math.log(prefactor) < -720.0:
        return 0.0

    def log_integrand(phi):
        la = _log_kanter(phi, beta)
        if la > 709.0:
            # e^la overflows (beta near 1, phi near pi): e^la x dwarfs every
            # other term, and the integrand is zero
            return -math.inf
        return la - math.exp(la) * x - scale

    def integrand(phi):
        z = log_integrand(phi)
        return math.exp(z) if z > -745.0 else 0.0

    # the peak can be orders of magnitude narrower than the domain; hand the
    # decay scale to the subdivision so the initial rule cannot miss it
    points = [phi_star] if 0.0 < phi_star < math.pi else []
    lo = max(phi_star, 1e-13)
    if log_integrand(math.pi - 1e-9) < -30.0:
        width = brentq(
            lambda p: log_integrand(p) + 30.0, lo, math.pi - 1e-9, xtol=1e-15
        )
        if width < math.pi:
            points.append(width)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(
            integrand, 0.0, math.pi, points=sorted(set(points)) or None,
            limit=200, epsabs=1e-13, epsrel=1e-11,
        )
    ok = math.isfinite(value) and value >= 0.0 and err <= _THETA_RTOL * max(value, 1e-290)
    if not ok:
        if series > 0.0 and bound < _THETA_RTOL:
            return series
        raise QuadratureError(
            f"theta quadrature failed at (u={u}, beta={beta}), residual {err:.2e}",
            value=value,
            residual=err,
        )
    log_out = math.log(max(value, 1e-300)) + scale + math.log(prefactor)
    if log_out < -700.0:
        return 0.0
    return math.exp(log_out)


_PANEL_NODES = 64  # Gauss-Legendre nodes per panel on the first pass
_PANEL_MAX_NODES = 1024
_PANEL_RTOL = 1e-10  # agreement of the n- and n/2-node sums that accepts a row
_SERIES_BOUND = 1e-10  # truncation bound below which both routes take the series
_THETA_RTOL = 1e-9  # quad's tolerance, and the series bound that stands in when it fails
_PANEL_BLOCK = 1 << 14  # integrand values per block: 128 kB per temporary


def _theta_panels(u, beta: float):
    """theta_beta(1, u) for a 1-d array u, every entry by one fixed rule.

    Entries where the large-u series' truncation bound is below 1e-10 take
    the series: there the angle integrand's mass sits in a spike at pi that
    a fixed rule can miss without its two sums noticing.  For the others,
    each entry's peak angle phi* and e^{-30} angle w are found by bisection,
    all entries at once; the integral is then n-node Gauss-Legendre on
    [0, phi*], [phi*, w] and [w, pi], checked against the same panels at
    n/2 nodes.  Entries whose two sums differ by more than 1e-10 relative
    are recomputed at twice the nodes, up to `_PANEL_MAX_NODES`.  Every
    entry is computed on its own, so its value does not depend on the
    others.
    """
    series, bound = stable_density_tail_series(u, beta)
    out = np.where(bound < _SERIES_BOUND, series, 0.0)
    rows = np.flatnonzero(~(bound < _SERIES_BOUND))
    with np.errstate(over="ignore"):  # x = inf: a zero density, dropped below
        x = u[rows] ** (-beta / (1.0 - beta))
    log_prefactor = math.log(beta / ((1.0 - beta) * math.pi)) - np.log(u[rows]) / (1.0 - beta)
    log_a0 = _log_kanter(1e-12, beta)
    phi_star = np.zeros_like(x)
    log_peak = np.full_like(x, log_a0)
    inner = math.exp(log_a0) * x < 1.0
    if inner.any():
        log_x = np.log(x[inner])
        phi_star[inner] = _bisect(
            lambda p: _log_kanter(p, beta) + log_x, 1e-12, math.pi - 1e-12
        )
        log_peak[inner] = _log_kanter(phi_star[inner], beta)
    scale = log_peak - np.exp(log_peak) * x
    live = scale + log_prefactor >= -720.0
    if not live.any():
        return out
    rows, x, scale, phi_star = rows[live], x[live], scale[live], phi_star[live]

    edge = math.pi - 1e-9
    w = np.full_like(x, math.pi)
    with np.errstate(over="ignore"):
        falls = _log_integrand(np.full_like(x, edge), x, scale, beta) < -30.0
        if falls.any():
            xf, sf = x[falls], scale[falls]
            w[falls] = _bisect(
                lambda p: -30.0 - _log_integrand(p, xf, sf, beta),
                np.maximum(phi_star[falls], 1e-13),
                edge,
            )
    a = np.stack([np.zeros_like(x), phi_star, w], axis=1)
    b = np.stack([phi_star, w, np.full_like(x, math.pi)], axis=1)

    n = _PANEL_NODES
    coarse = _panel_sums(a, b, x, scale, beta, n // 2)
    value = _panel_sums(a, b, x, scale, beta, n)
    todo = np.arange(len(x))
    while True:
        # NaN and negative sums never pass
        done = np.abs(value[todo] - coarse[todo]) <= _PANEL_RTOL * value[todo]
        todo = todo[~done]
        if not todo.size or n == _PANEL_MAX_NODES:
            break
        n *= 2
        coarse[todo] = value[todo]
        value[todo] = _panel_sums(a[todo], b[todo], x[todo], scale[todo], beta, n)

    log_out = np.log(np.maximum(value, 1e-300)) + scale + log_prefactor[live]
    out[rows] = np.where(log_out < -700.0, 0.0, np.exp(log_out))
    if todo.size:
        fix = rows[todo]
        ok = (series[fix] > 0.0) & (bound[fix] < _THETA_RTOL)
        if not ok.all():
            i = todo[np.argmin(ok)]
            err = abs(value[i] - coarse[i])
            raise QuadratureError(
                f"theta quadrature failed at (u={u[rows[i]]}, beta={beta}): "
                f"{n} and {n // 2} nodes differ by {err:.2e}",
                value=value[i],
                residual=err,
            )
        out[fix] = series[fix]
    return out


def _log_integrand(phi, x, scale, beta):
    """log(A(phi) e^{-A(phi) x}) - scale; x and scale broadcast against phi."""
    la = _log_kanter(phi, beta)
    return la - np.exp(la) * x - scale


def _bisect(f, lo, hi):
    """Root in [lo, hi] of each entry of f, increasing in its argument, by
    64 halvings of the bracket; f sees one angle per entry."""
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = f(mid) > 0.0
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return 0.5 * (lo + hi)


def _panel_sums(a, b, x, scale, beta, n):
    """sum over panels of int_a^b e^{log integrand} dphi by n-node
    Gauss-Legendre; a and b are (rows, panels).

    Rows go in blocks of about `_PANEL_BLOCK` integrand values, and each
    row's weighted sum is one contiguous reduction of its own, so a row's
    value does not depend on the rows computed with it.
    """
    t, wts = roots_legendre(n)
    out = np.empty(len(x))
    step = max(1, _PANEL_BLOCK // (a.shape[1] * n))
    with np.errstate(over="ignore"):
        for s in range(0, len(x), step):
            blk = slice(s, s + step)
            half = 0.5 * (b[blk] - a[blk])
            phi = (a[blk] + half)[:, :, None] + half[:, :, None] * t
            f = np.exp(_log_integrand(phi, x[blk, None, None], scale[blk, None, None], beta))
            out[blk] = (f * (half[:, :, None] * wts)).reshape(len(half), -1).sum(axis=1)
    return out


def subordinator_density_at(t: float, u: float, beta: float) -> float:
    """theta_beta(t, u) = t^{-1/beta} theta_beta(1, u t^{-1/beta})."""
    if t <= 0.0:
        raise ParameterError(f"t must be > 0, got {t}")
    s = t ** (-1.0 / beta)
    return s * stable_subordinator_density(u * s, beta)


def tempered_density(t: float, u: float, params: ProcessParams) -> float:
    """Relativistic subordinator density

        theta_beta(t, u, m) = exp(-m^{1/beta} u + m t) theta_beta(t, u).
    """
    base = subordinator_density_at(t, u, params.beta)
    if params.m == 0.0:
        return base
    exponent = -params.m ** (1.0 / params.beta) * u + params.m * t
    return math.exp(exponent) * base


# ---------------------------------------------------------------------------
# Large-u series (the right tail of theta_beta's array and float routes,
# and tail corrections in integrals against theta)
# ---------------------------------------------------------------------------

_LOG_FLOAT_MAX = 709.0  # e^709 is near the largest float
_SERIES_TERMS = 90  # terms k = 1..90 before truncation at the smallest


def _truncate_rows(terms):
    """Sum each row of an asymptotic alternating series up to its smallest term.

    `terms` is (rows, k): the columns are the series' nonzero terms in order,
    which makes the truncation scan one array operation for every row.  A
    row whose terms underflow to zero ends there; the zeros trail, because
    the terms shrink with k wherever they can underflow.  Returns (partial
    sums, first omitted magnitudes); a row with no terms gives (0, 0).
    """
    mag = np.abs(terms)
    length = np.count_nonzero(mag, axis=1)
    rising = mag[:, 1:] > mag[:, :-1]
    stop = np.where(rising.any(axis=1), rising.argmax(axis=1) + 1, length)
    sums = np.zeros(len(terms))
    # each row is summed over exactly its kept terms, as one contiguous
    # reduction, so a row's sum does not depend on the rows batched with it
    for s in np.unique(stop):
        rows = stop == s
        sums[rows] = terms[rows, :s].sum(axis=1)
    last = np.maximum(np.minimum(stop, length - 1), 0)
    return sums, mag[np.arange(len(terms)), last]


def _series_coefficients(beta: float):
    """k and (-1)^{k+1} Gamma(k beta + 1)/k! sin(pi k beta) over the k with a
    nonzero sine factor; that zero pattern depends on beta alone."""
    k = np.arange(1, _SERIES_TERMS + 1)
    coef = (
        (-1.0) ** (k + 1)
        * np.exp(gammaln(k * beta + 1.0) - gammaln(k + 1.0))
        * _sine_factor(k, beta)
    )
    keep = coef != 0.0
    return k[keep], coef[keep]


def stable_density_tail_series(u, beta: float):
    """Large-u series theta_beta(1,u) = (1/pi) sum_k (-1)^{k+1} Gamma(k beta + 1)/k!
    sin(pi k beta) u^{-k beta - 1}, truncated at the smallest term.

    `u` is a scalar or an array.  Returns (value, relative truncation bound),
    floats for a scalar `u` and arrays of its shape otherwise.  Far left of
    the series' range (u below about 3e-5 at beta = 3/4) the high powers
    would overflow: they are not evaluated, and the bound is inf there.
    """
    k, coef = _series_coefficients(beta)
    u = np.asarray(u, dtype=float)
    powers, whole = _series_powers(u, -k * beta - 1.0)
    total, omitted = _truncate_rows(coef * powers)
    value = total / math.pi
    bound = omitted / math.pi / np.maximum(np.abs(value), 1e-300)
    bound[~whole] = np.inf
    if u.ndim == 0:
        return float(value[0]), float(bound[0])
    return value.reshape(u.shape), bound.reshape(u.shape)


def _series_powers(u, expo):
    """u^expo for every entry of u (rows) and of expo (columns), and which
    rows kept all their powers.  A power that would overflow (u < 1, high
    k) is not evaluated and stays 0, trailing like an underflowed term."""
    col = u.reshape(-1, 1)
    fits = np.log(col) * expo < _LOG_FLOAT_MAX
    return np.power(col, expo, out=np.zeros(fits.shape), where=fits), fits.all(axis=1)


def _sine_factor(k, beta):
    # sin(pi k beta) vanishes identically at rational beta; floating pi leaves
    # O(1e-16) junk there that would confuse the truncation scan
    s = np.sin(np.pi * k * beta)
    s[np.abs(s) < 1e-10] = 0.0
    return s


def stable_density_tail_mass(u: float, beta: float):
    """Tail probability int_u^infty theta_beta(1,v) dv by termwise integration
    of the large-u series.  Returns (value, relative truncation bound)."""
    k, coef = _series_coefficients(beta)
    powers, whole = _series_powers(np.asarray(u, dtype=float), -k * beta)
    total, omitted = _truncate_rows(coef * powers / (k * beta))
    value = float(total[0]) / math.pi
    bound = float(omitted[0]) / math.pi / max(abs(value), 1e-300) if whole[0] else math.inf
    return value, bound
