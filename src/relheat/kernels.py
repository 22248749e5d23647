"""Free transition density of the relativistic stable process.

The density is evaluated through the subordination formula in the scaled
variable z = u t^{-1/beta}, so a single two-parameter profile

    p(t, x) = e^{mt} t^{-d/alpha} F(|x| t^{-1/alpha}, m t),
    F(rho, w) = (4 pi)^{-d/2} int_0^infty z^{-d/2}
                e^{-rho^2/(4z)} e^{-w^{1/beta} z} theta_beta(1, z) dz,

serves every (t, r).  `free_density`, `c1_of_t` and the kernel tables
all evaluate F by one trapezoid rule in s = log z (`_profile_batch`).

At alpha = 1 (beta = 1/2) both factors have closed forms: theta_{1/2} is
the Levy density (`levy_half_density`), and p itself is the Bessel kernel
of Ryznar (2002), the Cauchy kernel at m = 0 (`cauchy_density`).  A march
at alpha = 1 scores its exits with `cauchy_density` and needs no table.

For other alpha, `RadialKernelTable` freezes one radial profile per m*t
product for fast inner-loop evaluation.  A march scores exits at the
products m (t - (k - 1/2) dt), so before it starts, `build_tables` builds
all of them in one batched trapezoid quadrature; pool workers forked
afterwards inherit the tables instead of building them.

That rule runs on one lattice, s_k = -35 + k h (k < 0 only for alpha <
0.3, where theta_beta's left tail passes e^{-35}), cut where the Gaussian
factor has let go of the integrand's tail (about 2 ln rho + 30).
theta_beta(1, e^{s_k}) is computed once per process for each beta, by the
array route of `stable_subordinator_density` (`fast_theta`), and cached
(`_lattice_theta`): a table build fills the lattice out to its cut before
the pool forks, and a larger radius appends only the nodes past the
cached ones.  A far-field call then costs one mass weight vector and
one small matrix product.  The sum on every second node checks the rule:
past 1e-8 relative error it raises `QuadratureError`.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kve

from .errors import ParameterError, QuadratureError, StaleTableError
from .specfun import (
    ProcessParams,
    gamma_strict,
    stable_subordinator_density,
    surface_area,
)

__all__ = [
    "c1_const",
    "c1_of_t",
    "cauchy_density",
    "density_upper_bound",
    "free_density",
    "RadialKernelTable",
    "build_table",
    "build_tables",
    "table_eval",
    "fast_theta",
    "levy_half_density",
]

TABLE_RHO_MIN = 1e-3
TABLE_RHO_MAX = 50.0
TABLE_NODES = 512
Z_NODES = 3000  # lattice nodes of a table build, in s = log z
_S_LO = -35.0  # the log-z lattice s_k = _S_LO + k * _S_STEP
_S_STEP = (2.0 * math.log(TABLE_RHO_MAX) + 65.0) / (Z_NODES - 1)
_Z_FLOOR = math.exp(-700.0)  # the lattice's lowest node, ~1e-304
_PROFILE_TOL = 1e-8  # relative error a profile quadrature may not exceed


def c1_const(params: ProcessParams) -> float:
    """Small-time trace coefficient C1 = omega_d Gamma(d/alpha) / ((2 pi)^d alpha)."""
    d, alpha = params.d, params.alpha
    return (
        surface_area(d)
        * gamma_strict(d / alpha)
        / ((2.0 * math.pi) ** d * alpha)
    )


def c1_of_t(t: float, params: ProcessParams) -> float:
    """Damped trace coefficient

        C1(t) = (4 pi)^{-d/2} int_0^infty z^{-d/2} e^{-(mt)^{1/beta} z}
                theta_beta(1, z) dz.

    Decreasing in t, equal to C1 at t=0 and for all t when m=0.
    """
    if t < 0.0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if t == 0.0 or params.m == 0.0:
        return c1_const(params)
    return float(_profile_batch(np.zeros(1), params.m * t, params)[0])


def density_upper_bound(t: float, params: ProcessParams) -> float:
    """Uniform bound p(t, x) <= p(t, 0) <= e^{mt} t^{-d/alpha} C1, tight at m=0."""
    if t <= 0.0:
        raise ParameterError(f"t must be > 0, got {t}")
    return math.exp(params.m * t) * t ** (-params.d / params.alpha) * c1_const(params)


def free_density(t: float, r: float, params: ProcessParams) -> float:
    """Free transition density p(t, x) at |x| = r, by the profile quadrature."""
    if t <= 0.0:
        raise ParameterError(f"t must be > 0, got {t}")
    if r < 0.0:
        raise ParameterError(f"radius must be >= 0, got {r}")
    rho = r * t ** (-1.0 / params.alpha)
    f = float(_profile_batch(np.array([rho]), params.m * t, params)[0])
    return math.exp(params.m * t) * t ** (-params.d / params.alpha) * f


def cauchy_density(t, r, params: ProcessParams):
    """Free transition density p(t, x) at |x| = r in closed form, alpha = 1 only.

    With s = sqrt(r^2 + t^2) and nu = (d+1)/2 (Ryznar, Potential Anal. 17, 2002):

        m = 0:  p = Gamma(nu) pi^{-nu} t / s^{d+1},  the Cauchy kernel;
        m > 0:  p = 2t (m/(2 pi))^nu K_nu(m s) e^{mt} / s^nu,

    evaluated as kve(nu, m s) e^{m(t-s)}, kve = K_nu e^{m s} the scaled Bessel
    function, so that K_nu(m s) does not underflow at large m s.  t and r
    broadcast as arrays; two scalars give a float.
    """
    if params.alpha != 1.0:
        raise ParameterError(f"the closed-form kernel needs alpha = 1, got {params.alpha}")
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if (t <= 0.0).any():
        raise ParameterError("t must be > 0")
    if (r < 0.0).any():
        raise ParameterError("radius must be >= 0")
    nu = (params.d + 1) / 2.0
    s = np.hypot(r, t)
    m = params.m
    if m == 0.0:
        out = math.gamma(nu) * math.pi**-nu * t / s ** (params.d + 1)
    else:
        # t - s = -r^2 / (t + s), free of cancellation at r << t
        out = (
            2.0 * (m / (2.0 * math.pi)) ** nu * t * kve(nu, m * s)
            * np.exp(-m * r * r / (t + s)) / s**nu
        )
    return out if out.shape else float(out)


def _z_nodes(r_top: float, beta: float):
    """The lattice prefix for radii up to `r_top`: nodes s = log z, z,
    trapezoid weights and theta_beta(1, z).

    Every profile quadrature uses the one lattice s_k = -35 + k h, cut at
    max(30, 2 ln r_top + 30); h puts the table build's cut (r_top =
    `TABLE_RHO_MAX`) at k = `Z_NODES` - 1.  It starts at k = 0, or for
    alpha < 0.3 where theta_beta's left tail falls below ~1e-87
    (`_theta_z_lo`, floored at `_Z_FLOOR`).  theta_beta on the lattice is
    cached per beta and only extended (`_lattice_theta`).
    """
    s_hi = max(30.0, 2.0 * math.log(max(1.0, r_top)) + 30.0)
    s_lo = math.log(max(_theta_z_lo(beta), _Z_FLOOR))
    k_lo = min(0, math.floor((s_lo - _S_LO) / _S_STEP))
    k_hi = math.ceil((s_hi - _S_LO) / _S_STEP - 1e-9)
    s = _S_LO + _S_STEP * np.arange(k_lo, k_hi + 1)
    z = np.exp(s)
    weights = np.full(len(s), _S_STEP)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return s, z, weights, _lattice_theta(beta, z)


def _lattice_theta(beta: float, z):
    """theta_beta(1, z) on a lattice prefix z, from the per-beta cache.

    Only the nodes past the cached prefix are evaluated, by one array call
    of `fast_theta`, and appended.  That route computes every entry on its
    own, so the cached values do not depend on the order in which the
    prefix grew, nor on the process that grew it.
    """
    key = round(beta, 12)
    have = _LATTICE_THETA.get(key, np.empty(0))
    if len(have) < len(z):
        have = np.concatenate([have, fast_theta(beta)(z[len(have):])])
        _LATTICE_THETA[key] = have
    return have[:len(z)]


def _mass_weights(s, z, theta_z, weights, w, params: ProcessParams):
    """Quadrature weights of F(., w): z^{1-d/2} e^{-w^{1/beta} z} theta_beta(1, z) ds."""
    wb = w ** (1.0 / params.beta) if w > 0.0 else 0.0
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(s * (1.0 - params.d / 2.0) - wb * z) * theta_z * weights


def _gaussian_factor(rhos, z):
    """exp(-rho^2/(4z)) on the (radius, node) grid, exponentiated in place."""
    with np.errstate(over="ignore", under="ignore"):
        out = (-0.25 / z)[None, :] * (rhos**2)[:, None]
        return np.exp(out, out=out)


def _profile_batch(rhos, w, params: ProcessParams):
    """F(rho, w) on an array of radii by trapezoid in log z, the package's
    one rule for F (the tables run it on their own radii, `build_tables`).

    The integrand is analytic and decays double-exponentially in s = log z,
    so the uniform-grid trapezoid converges geometrically (Trefethen &
    Weideman, SIAM Rev. 56, 2014): the error of the sum T_h is about the
    squared relative difference to T_2h, the same sum on every second node.
    That plus the end terms (truncation) past `_PROFILE_TOL` raises
    `QuadratureError`; a profile that underflows is returned unchecked.
    The nodes are the lattice prefix out to the largest radius (`_z_nodes`).
    """
    rhos = np.asarray(rhos, dtype=float)
    s, z, weights, theta_z = _z_nodes(float(rhos.max()) if rhos.size else 1.0, params.beta)
    base = _mass_weights(s, z, theta_z, weights, w, params)
    kernel = _gaussian_factor(rhos, z)
    total = kernel @ base
    coarse = 2.0 * (kernel[:, ::2] @ base[::2])
    ends = kernel[:, 0] * base[0] + kernel[:, -1] * base[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = ((total - coarse) / total) ** 2 + ends / total
    residual[total < np.finfo(float).tiny] = 0.0  # underflowed: 0 to any purpose
    norm = (4.0 * math.pi) ** (-params.d / 2.0)
    bad = np.flatnonzero(~(residual <= _PROFILE_TOL))  # a nan fails too
    if bad.size:
        i = bad[0]
        raise QuadratureError(
            f"profile quadrature failed at (rho={rhos[i]}, w={w}), residual {residual[i]:.2e}",
            value=norm * total[i], residual=residual[i],
        )
    return norm * total


# ---------------------------------------------------------------------------
# theta_beta(1, .) on the lattice
# ---------------------------------------------------------------------------

_LATTICE_THETA: dict[float, np.ndarray] = {}  # theta_beta on the lattice prefix, per beta


def fast_theta(beta: float):
    """theta_beta(1, .) as one elementwise array function.

    beta = 1/2 is the closed form `levy_half_density`; other beta are the
    array route of `stable_subordinator_density` (the large-u series where
    its bound is below 1e-10, one Gauss-Legendre panel rule elsewhere).  A
    scalar goes through as a 1-element array, so a node's value does not
    depend on how it was requested.  z <= 0 gives 0 at every beta; NaN
    raises `ParameterError`.
    """
    if abs(beta - 0.5) < 1e-14:
        return levy_half_density

    def theta(z):
        z = np.asarray(z, dtype=float)
        flat = z.reshape(-1)
        out = np.zeros_like(flat)
        keep = ~(flat <= 0.0)
        out[keep] = stable_subordinator_density(flat[keep], beta)
        return out.reshape(z.shape) if z.ndim else float(out[0])

    return theta


# perfbench's tracer times the theta evaluator under this name
_build_theta_evaluator = fast_theta


def levy_half_density(z):
    """Closed form theta_{1/2}(1, z) = z^{-3/2} e^{-1/(4z)} / (2 sqrt(pi)),
    the Levy density; 0 for z <= 0."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        out = np.where(
            z > 0.0,
            z ** -1.5 * np.exp(-1.0 / (4.0 * np.maximum(z, 1e-320)))
            / (2.0 * math.sqrt(math.pi)),
            0.0,
        )
    return out if out.shape else float(out)


def _theta_z_lo(beta: float) -> float:
    """Where theta_beta(1, z)'s left tail falls below ~1e-87 (from its
    Laplace-point asymptotic): the lattice starts there for alpha < 0.3."""
    expo = (1.0 - beta) * beta ** (beta / (1.0 - beta))
    return (expo / 200.0) ** ((1.0 - beta) / beta)


# ---------------------------------------------------------------------------
# Radial kernel tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialKernelTable:
    """Precomputed radial profile F(rho, mt) on a log-spaced rho grid.

    p(t, x) = e^{mt} t^{-d/alpha} F(|x| t^{-1/alpha}, mt).  Interpolation is
    linear in (log rho, log F) after removing the spatial tempering factor
    e^{-(mt)^{1/alpha} rho}, which leaves nearly power-law structure on both
    flanks.  The values are the one profile rule's (`_profile_batch`), and
    radii beyond the grid go to that rule on a longer lattice prefix.  Tables
    are made by `build_tables` (`build_table` is its one-table call): a run
    builds each march's tables in one batched quadrature before any path
    moves, and pool workers inherit them.  A table's values do not depend
    on the batch it was built in.
    """

    mt: float
    radii: np.ndarray
    values: np.ndarray
    f0: float
    params: ProcessParams

    @property
    def _tilt(self) -> float:
        return self.mt ** (1.0 / self.params.alpha) if self.mt > 0.0 else 0.0

    def eval_profile(self, rhos) -> np.ndarray:
        rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
        out = np.empty_like(rhos)
        lo, hi = self.radii[0], self.radii[-1]
        small = rhos < lo
        big = rhos > hi
        mid = ~(small | big)
        out[small] = self.f0
        if mid.any():
            tilted = np.log(np.maximum(self.values, 1e-300)) + self._tilt * self.radii
            logv = np.interp(np.log(rhos[mid]), np.log(self.radii), tilted)
            out[mid] = np.exp(logv - self._tilt * rhos[mid])
        if big.any():
            out[big] = _profile_batch(rhos[big], self.mt, self.params)
        return out

    def to_csv(self, path):
        """Dump the profile; columns: scaled_radius, F_value."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scaled_radius", "F_value"])
            for r, v in zip(self.radii, self.values):
                writer.writerow([f"{r:.17g}", f"{v:.17g}"])


_TABLE_CACHE: dict[tuple, RadialKernelTable] = {}
_MT_TOL = 1e-9
# tables per matrix product; a fixed product shape makes a table's bits
# independent of the batch it is built in (BLAS may round a lone column, or
# a product of another width, differently)
_BLOCK = 16


def _table_key(mt: float, params: ProcessParams) -> tuple:
    return (params.alpha, params.d, round(mt, 12))


def build_tables(mts, params: ProcessParams) -> list[RadialKernelTable]:
    """Build (or fetch from cache) the radial profile tables for several m*t.

    One batched quadrature serves every missing table: exp(-rho^2/(4z)) is
    evaluated once on the (radius, log-z node) grid, theta_beta comes from
    the lattice cache, and each block of `_BLOCK` tables, their f0 included
    (the rho = 0 row), is one matrix product against the tables' weights.
    """
    mts = [float(mt) for mt in mts]
    if any(mt < 0.0 for mt in mts):
        raise ParameterError(f"mt must be >= 0, got {min(mts)}")
    keys = [_table_key(mt, params) for mt in mts]
    missing = {}
    for key, mt in zip(keys, mts):
        if key not in _TABLE_CACHE:
            missing.setdefault(key, mt)
    if missing:
        radii = np.geomspace(TABLE_RHO_MIN, TABLE_RHO_MAX, TABLE_NODES)
        s, z, weights, theta_z = _z_nodes(TABLE_RHO_MAX, params.beta)
        kernel = _gaussian_factor(np.concatenate([[0.0], radii]), z)
        norm = (4.0 * math.pi) ** (-params.d / 2.0)
        items = list(missing.items())
        for start in range(0, len(items), _BLOCK):
            block = items[start:start + _BLOCK]
            base = np.zeros((len(z), _BLOCK))
            for j, (_, mt) in enumerate(block):
                base[:, j] = _mass_weights(s, z, theta_z, weights, mt, params)
            profiles = norm * (kernel @ base)
            for j, (key, mt) in enumerate(block):
                _TABLE_CACHE[key] = RadialKernelTable(
                    mt=mt, radii=radii, values=profiles[1:, j].copy(),
                    f0=float(profiles[0, j]), params=params,
                )
    return [_TABLE_CACHE[key] for key in keys]


def build_table(mt: float, params: ProcessParams) -> RadialKernelTable:
    """Build (or fetch from cache) the radial profile table for one m*t."""
    table = _TABLE_CACHE.get(_table_key(mt, params))
    return table if table is not None else build_tables([mt], params)[0]


def table_eval(table: RadialKernelTable, t: float, r, params: ProcessParams):
    """p(t, r) through a prebuilt table; the table's mt must match m*t."""
    if t <= 0.0:
        raise ParameterError(f"t must be > 0, got {t}")
    if abs(params.m * t - table.mt) > _MT_TOL * max(1.0, abs(table.mt)):
        raise StaleTableError(
            f"table built for mt={table.mt}, requested m*t={params.m * t}"
        )
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    rho = np.atleast_1d(r) * t ** (-1.0 / params.alpha)
    out = (
        math.exp(params.m * t)
        * t ** (-params.d / params.alpha)
        * table.eval_profile(rho)
    )
    return float(out[0]) if scalar else out
