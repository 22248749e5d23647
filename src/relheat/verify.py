"""Acceptance suite: one check per verification target, shared by the CLI
`verify` subcommand and the test suite.

Each check re-derives its expected values from closed forms or from an
independent estimator route, runs at a fixed seed, and reports one
pass/fail line.  Statistical checks compare at the one acceptance band,
`tracelab.Z_SIGMA` standard errors (the raw sampler law of criterion 4
keeps its own band of 4); exact checks use fixed tolerances.
"""

import filecmp
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .config import ExperimentConfig
from .geometry import Annulus, Ball, HalfSpace
from .kernels import c1_const, c1_of_t, cauchy_density, free_density, levy_half_density
from .sampler import RngStream, empirical_transform, sample_increment_blocks
from .specfun import ProcessParams, characteristic_exponent, stable_subordinator_density
from .tracelab import (
    Z_SIGMA,
    _loglog_fit,
    _r_estimates,
    c2_of_t,
    c4_const,
    first_term,
    halfspace_profile,
    residual_scan,
    ryznar_check,
    z_trace,
)

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]


@dataclass
class CheckResult:
    name: str
    criterion: int
    passed: bool
    lines: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def summary(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] criterion {self.criterion}: {self.name}"


def _result(name, criterion, passed, lines, **data):
    return CheckResult(name=name, criterion=criterion, passed=bool(passed), lines=lines, data=data)


# ---------------------------------------------------------------------------
# 1-3: quadrature oracles
# ---------------------------------------------------------------------------

def check_subordinator_density(cfg: ExperimentConfig) -> CheckResult:
    """theta_{1/2}(1, u) against the closed form, 1e-7 relative on [0.01, 20]."""
    us = np.geomspace(0.01, 20.0, 100)
    errs = [
        abs(stable_subordinator_density(u, 0.5) / levy_half_density(u) - 1.0) for u in us
    ]
    worst = max(errs)
    passed = worst < 1e-7
    return _result(
        "subordinator_density_oracle",
        1,
        passed,
        [f"max relative error vs closed form: {worst:.2e} (tol 1e-7)"],
        max_rel_err=worst,
    )


def check_laplace_identity(cfg: ExperimentConfig) -> CheckResult:
    """int e^{-lam u} theta_beta(1,u) du = e^{-lam^beta} to 1e-6 absolute."""
    rows = []
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for beta in (0.3, 0.5, 0.7, 0.9):
            for lam in (0.1, 1.0, 10.0):
                val, _ = quad(
                    lambda u: math.exp(-lam * u) * stable_subordinator_density(u, beta),
                    0.0,
                    np.inf,
                    limit=400,
                )
                target = math.exp(-(lam**beta))
                diff = abs(val - target)
                worst = max(worst, diff)
                rows.append({"beta": beta, "lam": lam, "value": val, "target": target, "diff": diff})
    passed = worst < 1e-6
    return _result(
        "laplace_transform_identity",
        2,
        passed,
        [f"max |quadrature - exp(-lam^beta)|: {worst:.2e} (tol 1e-6)"],
        worst=worst,
        rows=rows,
    )


def check_free_density(cfg: ExperimentConfig) -> CheckResult:
    """p(1, r) against the closed-form Cauchy kernel for alpha=1, m=0."""
    worst = 0.0
    rows = []
    for d in (2, 3):
        params = ProcessParams(alpha=1.0, m=0.0, d=d)
        for r in (0.0, 0.5, 1.0, 2.0, 5.0):
            got = free_density(1.0, r, params)
            want = cauchy_density(1.0, r, params)
            rel = abs(got / want - 1.0)
            worst = max(worst, rel)
            rows.append({"d": d, "r": r, "value": got, "target": want, "rel_err": rel})
    passed = worst < 1e-6
    return _result(
        "free_density_oracle",
        3,
        passed,
        [f"max relative error vs Cauchy kernel: {worst:.2e} (tol 1e-6)"],
        worst=worst,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# 4: sampler law
# ---------------------------------------------------------------------------

def check_sampler_law(cfg: ExperimentConfig) -> CheckResult:
    """Empirical characteristic function of the increments of the march's
    increment primitive (at alpha = 1 in the plane its three-uniform step),
    on the first axis and in the direction (0.6, 0.8), which reads
    coordinate 2 too, and the tempering acceptance rate from its proposal
    count."""
    n = cfg.scaled(1_000_000, 10_000)
    dt = 0.1
    rows = []
    worst_z = 0.0
    rng = RngStream(cfg.seed, 4)
    for i, (alpha, m) in enumerate(((1.0, 0.0), (1.0, 1.0), (0.5, 1.0))):
        params = ProcessParams(alpha=alpha, m=m, d=2)
        gen = rng.substream(i).generator()
        x, n_prop = sample_increment_blocks(dt, params, [gen], [n])
        for xi1 in (0.5, 1.0, 2.0):
            target = math.exp(-dt * characteristic_exponent(xi1, params))
            for direction in ((1.0, 0.0), (0.6, 0.8)):
                ecf, z = empirical_transform(np.cos(x @ np.multiply(xi1, direction)), target)
                worst_z = max(worst_z, abs(z))
                rows.append({"alpha": alpha, "m": m, "xi": xi1, "direction": list(direction),
                             "ecf": float(ecf), "target": target, "z": float(z)})
        rate = n / n_prop
        rate_target = math.exp(-m * dt)
        rate_se = math.sqrt(rate_target * (1 - rate_target) / n_prop) if m > 0 else 0.0
        z_rate = 0.0 if m == 0 else (rate - rate_target) / rate_se
        worst_z = max(worst_z, abs(z_rate))
        rows.append(
            {"alpha": alpha, "m": m, "xi": None, "direction": None, "ecf": rate,
             "target": rate_target, "z": float(z_rate)}
        )
    passed = worst_z <= 4.0
    return _result(
        "increment_law",
        4,
        passed,
        [f"worst |z| across CF points and acceptance rates: {worst_z:.2f} (band 4.0)"],
        worst_z=worst_z,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# 5: small-time trace limit
# ---------------------------------------------------------------------------

def check_trace_limit(cfg: ExperimentConfig) -> CheckResult:
    """t^{d/alpha} e^{-mt} Z_D(t) near C1 |D| at t = 0.02 on the unit ball."""
    params = ProcessParams(alpha=1.0, m=1.0, d=2)
    ball = Ball(center=(0.0, 0.0), radius=1.0, d=2)
    t = 0.02
    b = cfg.budgets(n_x=3000, n_paths=300)
    est = z_trace(
        t, ball, b.n_x, b.n_paths, t / b.steps, RngStream(cfg.seed, 5), params,
        extrapolate=True, workers=b.workers, chunk_points=b.chunk_points,
    )
    norm = t ** (params.d / params.alpha) * math.exp(-params.m * t)
    value = norm * est.value
    se = norm * est.stderr
    target = c1_const(params) * ball.volume()
    tol = max(Z_SIGMA * se, 0.05 * target)
    passed = abs(value - target) <= tol
    return _result(
        "trace_small_time_limit",
        5,
        passed,
        [
            f"t^2 e^(-mt) Z = {value:.4f} +- {se:.4f}, target C1|D| = {target:.4f}",
            f"|diff| = {abs(value - target):.4f} <= tol {tol:.4f}",
        ],
        value=value,
        stderr=se,
        target=target,
    )


# ---------------------------------------------------------------------------
# 6: mass comparison
# ---------------------------------------------------------------------------

def check_mass_comparison(cfg: ExperimentConfig) -> CheckResult:
    """r_D <= e^{2mt} r0_D at interior points of the unit ball."""
    params = ProcessParams(alpha=1.0, m=1.0, d=2)
    ball = Ball(center=(0.0, 0.0), radius=1.0, d=2)
    xs = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.55), (-0.7, 0.0), (0.6, 0.6)]
    b = cfg.budgets(n_paths=6000)
    total_bad = 0
    lines = []
    for j, t in enumerate((0.05, 0.1)):
        rep = ryznar_check(t, xs, ball, b, RngStream(cfg.seed, 6).substream(j), params)
        total_bad += rep.n_violations
        lines.append(f"t={t}: {rep.n_violations} violations over {len(xs)} points")
    return _result(
        "mass_comparison",
        6,
        total_bad == 0,
        lines,
        n_violations=total_bad,
    )


# ---------------------------------------------------------------------------
# 7: half-space profile scaling and tail
# ---------------------------------------------------------------------------

def check_halfspace_scaling(cfg: ExperimentConfig) -> CheckResult:
    """Mass-zero scaling f(t,q) = t^{-d/alpha} f(1, q t^{-1/alpha}) on a 6-point grid."""
    params = ProcessParams(alpha=1.0, m=0.0, d=2)
    half = HalfSpace(d=2)
    n = cfg.scaled(30_000, 2000)
    rng = RngStream(cfg.seed, 7)
    pairs = [(t, q) for t in (0.25, 0.5) for q in (0.3, 0.6, 1.0)]
    # pair idx compares f(t, q) on rng.substream(idx, 0) with the rescaled
    # f(1, q t^{-1/alpha}) on rng.substream(idx, 1); all of them march at once
    points = []
    for idx, (t, q) in enumerate(pairs):
        q1 = q * t ** (-1.0 / params.alpha)
        points += [
            (t, np.array([q, 0.0]), t / cfg.steps, rng.substream(idx, 0)),
            (1.0, np.array([q1, 0.0]), 1.0 / cfg.steps, rng.substream(idx, 1)),
        ]
    ests = _r_estimates(points, half, n, params, extrapolate=True, workers=cfg.workers)
    rows = []
    worst_z = 0.0
    for (t, q), e_t, e_1 in zip(pairs, ests[::2], ests[1::2]):
        scale = t ** (-params.d / params.alpha)
        rescaled = scale * e_1.value
        joint = math.sqrt(e_t.stderr**2 + (scale * e_1.stderr) ** 2)
        z = (e_t.value - rescaled) / joint
        worst_z = max(worst_z, abs(z))
        rows.append({"t": t, "q": q, "f": e_t.value, "rescaled": rescaled, "z": float(z)})
    passed = worst_z <= Z_SIGMA
    return _result(
        "halfspace_scaling",
        7,
        passed,
        [f"worst |z| over 6 (t, q) pairs: {worst_z:.2f} (band {Z_SIGMA})"],
        worst_z=worst_z,
        rows=rows,
    )


def check_halfspace_tail(cfg: ExperimentConfig) -> CheckResult:
    """Tail slope of f(1, q) on q in [2, 8] against -(d+alpha) +- 0.5.

    The measured decay is q^{-(d+2 alpha)}: one power of q^{-alpha} for
    reaching the boundary before t, one kernel factor q^{-(d+alpha)} for
    returning, integrated over the landing position.  The q^{-(d+alpha)}
    envelope is an upper bound on the profile, not its asymptotic rate, so
    this two-sided band cannot be met; the check reports the measurement
    honestly.
    """
    params = ProcessParams(alpha=1.0, m=0.0, d=2)
    n = cfg.scaled(100_000, 4000)
    rng = RngStream(cfg.seed, 8)
    qs = np.geomspace(2.0, 8.0, 5)
    prof = halfspace_profile(1.0, qs, n, 1.0 / cfg.steps, rng, params, extrapolate=True,
                             workers=cfg.workers)
    fs = np.array([est.value for est in prof.f_values])
    ses = np.array([est.stderr for est in prof.f_values])
    slope, slope_se, _ = _loglog_fit(qs, fs, ses)
    target = -(params.d + params.alpha)
    passed = abs(slope - target) <= 0.5
    return _result(
        "halfspace_tail_decay",
        7,
        passed,
        [
            f"fitted log-log slope {slope:.2f} +- {slope_se:.2f}; band {target} +- 0.5",
            f"observed decay matches -(d + 2 alpha) = {-(params.d + 2 * params.alpha):.0f}; "
            "the -(d+alpha) envelope bounds the profile from above but is not its rate",
        ],
        slope=float(slope),
        slope_se=float(slope_se),
        target=target,
        f_values=fs.tolist(),
    )


# ---------------------------------------------------------------------------
# 8: residual stability
# ---------------------------------------------------------------------------

def check_residual_stability(cfg: ExperimentConfig) -> CheckResult:
    """Normalized residuals on the unit ball: no blow-up as t drops and a
    stable fitted envelope constant; plus the mass-zero cross-check that
    C2(t) t^{(d-1)/alpha} reproduces the independently estimated boundary
    constant."""
    params = ProcessParams(alpha=1.0, m=1.0, d=2)
    ball = Ball(center=(0.0, 0.0), radius=1.0, d=2)
    # single fine monitoring level: the grid bias largely cancels between the
    # half-space side and the interior side of the residual
    b = cfg.budgets(
        n_x=8000, n_paths=120, profile_n_paths=1_500_000, steps=128, extrapolate=False
    )
    report = residual_scan((0.02, 0.04, 0.08, 0.16), ball, b, RngStream(cfg.seed, 9), params)
    rhos = [r["rho"] for r in report.rows]
    rho_ses = [r["rho_se"] for r in report.rows]
    # no blow-up: the exponent of rho ~ t^{-gamma} must not exceed 0.5
    # beyond its uncertainty
    slope_ok = (
        report.rho_blowup_exponent <= 0.5 + Z_SIGMA * report.rho_blowup_se
    )
    # stability of the fitted envelope constant at the two smallest t:
    # within a factor 2, or statistically indistinguishable when the
    # residual itself is below the Monte Carlo resolution
    ratio = max(rhos[0], rhos[1]) / max(min(rhos[0], rhos[1]), 1e-300)
    joint = math.sqrt(rho_ses[0] ** 2 + rho_ses[1] ** 2)
    ratio_ok = ratio <= 2.0 or abs(rhos[0] - rhos[1]) <= Z_SIGMA * joint

    # mass-zero cross-check at a coarser budget
    stable = params.with_mass(0.0)
    t_check = 0.25
    sub = RngStream(cfg.seed, 10)
    n_prof = cfg.scaled(60_000, 2000)
    c2 = c2_of_t(t_check, n_prof, t_check / cfg.steps, sub.substream(0), stable,
                 workers=cfg.workers)
    c4 = c4_const(n_prof, 1.0 / cfg.steps, sub.substream(1), stable, workers=cfg.workers)
    rescaled = c2.value * t_check ** ((params.d - 1.0) / params.alpha)
    rescaled_se = c2.stderr * t_check ** ((params.d - 1.0) / params.alpha)
    joint_cross = math.sqrt(rescaled_se**2 + c4.stderr**2)
    z_cross = (rescaled - c4.value) / joint_cross
    cross_ok = abs(z_cross) <= Z_SIGMA

    passed = slope_ok and ratio_ok and cross_ok
    lines = [
        "rho(t): " + ", ".join(f"{r['t']}: {r['rho']:.4f}+-{r['rho_se']:.4f}" for r in report.rows),
        f"blow-up exponent of rho as t drops: {report.rho_blowup_exponent:.2f}"
        f" +- {report.rho_blowup_se:.2f} over {report.n_resolved} resolved points"
        " (must not exceed 0.5)",
        f"fitted C3 = {report.c3_fitted:.4f}; two smallest t: ratio {ratio:.2f},"
        f" difference {abs(rhos[0] - rhos[1]):.4f} vs joint se {joint:.4f}",
        f"mass-zero cross-check: C2(t) t^(d-1) = {rescaled:.4f}+-{rescaled_se:.4f} vs "
        f"C4 = {c4.value:.4f}+-{c4.stderr:.4f} (z = {z_cross:+.2f})",
    ]
    return _result(
        "residual_stability",
        8,
        passed,
        lines,
        rows=[dict(r) for r in report.rows],
        c3_fitted=report.c3_fitted,
        rho_blowup_exponent=report.rho_blowup_exponent,
        ratio_smallest=ratio,
        z_cross=float(z_cross),
    )


# ---------------------------------------------------------------------------
# 9: inequality suite
# ---------------------------------------------------------------------------

def check_inequalities(cfg: ExperimentConfig) -> CheckResult:
    lines = []
    failures = []

    # C1(t) <= C1, decreasing damping
    params = ProcessParams(alpha=1.0, m=1.0, d=2)
    c1 = c1_const(params)
    for t in (0.001, 0.01, 0.1, 1.0):
        if c1_of_t(t, params) > c1 * (1 + 1e-10):
            failures.append(f"C1({t}) exceeds C1")
    lines.append("C1(t) <= C1 on t grid: ok" if not failures else "C1(t) bound violated")

    # geometry corollaries on closed forms
    geo_fail = _geometry_inequalities()
    failures += geo_fail
    lines.append(f"boundary-layer inequalities: {'ok' if not geo_fail else geo_fail}")

    # Z below the free first term; r below p(t, 0)
    ball = Ball(center=(0.0, 0.0), radius=1.0, d=2)
    b = cfg.budgets(n_x=1200, n_paths=250)
    t = 0.1
    rng = RngStream(cfg.seed, 11)
    zed = z_trace(t, ball, b.n_x, b.n_paths, t / b.steps, rng.substream(0), params,
                  workers=b.workers)
    ft = first_term(t, ball, params)
    z_ok = zed.value <= ft + Z_SIGMA * zed.stderr
    if not z_ok:
        failures.append("Z exceeds the free first term")
    lines.append(f"Z({t}) = {zed.value:.3f} <= first term {ft:.3f}: "
                 + ("ok" if z_ok else "violated"))

    n_r = cfg.scaled(20_000, 2000)
    (r_est,) = _r_estimates([(t, np.array([0.85, 0.0]), t / cfg.steps, rng.substream(1))], ball,
                            n_r, params, extrapolate=True, workers=cfg.workers)
    p0 = free_density(t, 0.0, params)
    r_ok = r_est.value <= p0 + Z_SIGMA * r_est.stderr
    if not r_ok:
        failures.append("r_D exceeds p(t, 0)")
    lines.append(f"r_D({t}, x) = {r_est.value:.3f} <= p(t,0) = {p0:.3f}: "
                 + ("ok" if r_ok else "violated"))

    # C2(t) <= C4 e^{2mt} t^{(1-d)/alpha} within joint uncertainty
    sub = RngStream(cfg.seed, 12)
    n_prof = cfg.scaled(40_000, 2000)
    c2 = c2_of_t(t, n_prof, t / cfg.steps, sub.substream(0), params, workers=cfg.workers)
    c4 = c4_const(n_prof, 1.0 / cfg.steps, sub.substream(1), params, workers=cfg.workers)
    bound = c4.value * math.exp(2 * params.m * t) * t ** ((1 - params.d) / params.alpha)
    bound_se = c4.stderr * math.exp(2 * params.m * t) * t ** ((1 - params.d) / params.alpha)
    joint = math.sqrt(c2.stderr**2 + bound_se**2)
    c2_ok = c2.value <= bound + Z_SIGMA * joint
    if not c2_ok:
        failures.append(f"C2({t}) = {c2.value:.4f} exceeds bound {bound:.4f}")
    lines.append(
        f"C2({t}) = {c2.value:.3f}+-{c2.stderr:.3f} <= C4 e^(2mt)/t = {bound:.3f}+-{bound_se:.3f}: "
        + ("ok" if c2_ok else "violated")
    )

    return _result("inequality_suite", 9, not failures, lines, failures=failures)


def _geometry_inequalities():
    # two-sided layer bound on q <= R/2, its provable range (a ball's layer
    # area vanishes as q -> R); deviation bound on the full range
    failures = []
    shapes = [
        Ball(center=(0.0, 0.0), radius=1.0, d=2),
        Ball(center=(0.0, 0.0, 0.0), radius=2.0, d=3),
        Annulus(center=(0.0, 0.0), r_in=1.0, r_out=3.0, d=2),
    ]
    for dom in shapes:
        d = dom.d
        surf = dom.surface()
        vol = dom.volume()
        r = dom.smoothness_radius
        if surf > 2.0**d * vol / r * (1 + 1e-12):
            failures.append(f"{dom.spec_string()}: surface bound violated")
        for q in np.linspace(1e-6, r / 2, 20):
            area = dom.layer_area(q)
            if not (2.0 ** (-d + 1) * surf <= area * (1 + 1e-12)):
                failures.append(f"{dom.spec_string()}: lower layer bound at q={q:.3f}")
            if not (area <= 2.0 ** (d - 1) * surf * (1 + 1e-12)):
                failures.append(f"{dom.spec_string()}: upper layer bound at q={q:.3f}")
        for q in np.linspace(1e-6, r, 20):
            if abs(dom.layer_area(q) - surf) > 2.0**d * d * q * surf / r * (1 + 1e-12):
                failures.append(f"{dom.spec_string()}: layer deviation bound at q={q:.3f}")
    return failures


# ---------------------------------------------------------------------------
# 10: determinism
# ---------------------------------------------------------------------------

def check_determinism(cfg: ExperimentConfig) -> CheckResult:
    """The artifact pipeline run twice with one seed yields identical bytes."""
    from . import cli

    base = cfg.override(
        budget_scale=min(cfg.budget_scale, 0.02),
        t_grid=(0.1, 0.2),
        n_paths=300,
        n_x=600,
        profile_n_paths=500,
    )
    out_a = os.path.join(cfg.out, "determinism_a")
    out_b = os.path.join(cfg.out, "determinism_b")
    names = []
    for out_dir in (out_a, out_b):
        os.makedirs(out_dir, exist_ok=True)
        run_cfg = base.override(out=out_dir)
        names = []
        names.append(cli.cmd_constants(run_cfg))
        names.append(cli.cmd_density(run_cfg))
        names.append(cli.cmd_subordinator(run_cfg))
        names.append(cli.cmd_trace(run_cfg))
    mismatches = []
    for name in names:
        fa = os.path.join(out_a, os.path.basename(name))
        fb = os.path.join(out_b, os.path.basename(name))
        if not filecmp.cmp(fa, fb, shallow=False):
            mismatches.append(os.path.basename(name))
    passed = not mismatches
    return _result(
        "determinism",
        10,
        passed,
        [
            f"{len(names)} artifacts compared byte-for-byte: "
            + ("identical" if passed else f"mismatches {mismatches}")
        ],
        mismatches=mismatches,
    )


ALL_CHECKS = (
    check_subordinator_density,
    check_laplace_identity,
    check_free_density,
    check_sampler_law,
    check_trace_limit,
    check_mass_comparison,
    check_halfspace_scaling,
    check_halfspace_tail,
    check_residual_stability,
    check_inequalities,
    check_determinism,
)


def run_all(cfg: ExperimentConfig):
    return [check(cfg) for check in ALL_CHECKS]
