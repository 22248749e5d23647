"""Command-line front end.

Subcommands: constants, density, subordinator, charfn, halfspace, trace,
residual, lambda1, verify.  Every run is fully determined by the config
plus seed; artifacts embed both.  Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .config import FORMATS, ExperimentConfig, load_config
from .errors import BudgetError, ParameterError, QuadratureError, StepTooLargeError, TailFitError
from .io import write_rows
from .kernels import build_table, c1_const, c1_of_t, free_density
from .sampler import RngStream, empirical_transform, sample_brownian_leg, sample_tempered_subordinator
from .specfun import characteristic_exponent, laplace_exponent
from .tracelab import (
    c2_of_t,
    halfspace_profile,
    lambda1_estimate,
    residual_scan,
    z_trace,
)

def _reference_c4(cfg: ExperimentConfig):
    path = os.path.join(os.path.dirname(__file__), "data", "c4_reference.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        entries = json.load(fh)["entries"]
    for e in entries:
        if e["d"] == cfg.d and abs(e["alpha"] - cfg.alpha) < 1e-12:
            return e
    return None


def _out_dir(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _artifact_config(cfg) -> dict:
    # the output directory and the worker count are execution details;
    # artifacts embed only the keys that determine their contents, so runs
    # into different directories or on other worker counts stay byte-identical
    d = cfg.as_dict()
    d.pop("out")
    d.pop("workers")
    return d


def cmd_constants(cfg: ExperimentConfig) -> str:
    params = cfg.params()
    rows = [{"name": "C1", "t": 0.0, "value": c1_const(params)}]
    for t in cfg.t_grid:
        rows.append({"name": "C1(t)", "t": t, "value": c1_of_t(t, params)})
    ref = _reference_c4(cfg)
    if ref is not None:
        rows.append({"name": "C4", "t": 1.0, "value": ref["value"]})
    print(f"C1 = {c1_const(params):.6g}")
    for t in cfg.t_grid:
        print(f"C1({t:g}) = {c1_of_t(t, params):.6g}")
    if ref is not None:
        print(f"C4 = {ref['value']:.6g} (+- {ref['stderr']:.2g}, frozen reference)")
    return write_rows(os.path.join(_out_dir(cfg), "constants"), rows, cfg.fmt, _artifact_config(cfg))


def cmd_density(cfg: ExperimentConfig) -> str:
    params = cfg.params()
    r_grid = (0.0, 0.25, 0.5, 1.0, 2.0, 5.0)
    rows = []
    for t in cfg.t_grid:
        for r in r_grid:
            rows.append({"t": t, "r": r, "p": free_density(t, r, params)})
    path = write_rows(os.path.join(_out_dir(cfg), "density"), rows, cfg.fmt, _artifact_config(cfg))
    table = build_table(params.m * cfg.t_grid[0], params)
    table.to_csv(os.path.join(_out_dir(cfg), "kernel_table.csv"))
    print(f"density table over {len(cfg.t_grid)} x {len(r_grid)} points -> {path}")
    return path


def cmd_subordinator(cfg: ExperimentConfig) -> str:
    """Sampler self-test: empirical Laplace transform and tempering acceptance."""
    params = cfg.params()
    n = cfg.scaled(200_000, 1000)
    dt = 0.1
    gen = RngStream(cfg.seed, 20).generator()
    draws, n_prop = sample_tempered_subordinator(dt, params, gen, size=n, return_stats=True)
    rows = []
    for lam in (0.5, 1.0, 2.0):
        target = math.exp(-dt * laplace_exponent(lam, params))
        mean, z = empirical_transform(np.exp(-lam * draws), target)
        rows.append({"check": "laplace", "lam": lam, "empirical": float(mean),
                     "target": target, "z": float(z)})
    rate_target = math.exp(-params.m * dt)
    rows.append(
        {"check": "acceptance", "lam": None, "empirical": n / n_prop,
         "target": rate_target, "z": None}
    )
    path = write_rows(os.path.join(_out_dir(cfg), "subordinator"), rows, cfg.fmt, _artifact_config(cfg))
    worst = max(abs(r["z"]) for r in rows if r["z"] is not None)
    print(f"subordinator law: worst |z| = {worst:.2f} over {len(rows) - 1} Laplace points")
    return path


def cmd_charfn(cfg: ExperimentConfig) -> str:
    params = cfg.params()
    n = cfg.scaled(500_000, 1000)
    dt = 0.1
    gen = RngStream(cfg.seed, 21).generator()
    u = sample_tempered_subordinator(dt, params, gen, size=n)
    x = sample_brownian_leg(u, params.d, gen)
    rows = []
    for xi in (0.25, 0.5, 1.0, 2.0, 4.0):
        target = math.exp(-dt * characteristic_exponent(xi, params))
        mean, z = empirical_transform(np.cos(x[:, 0] * xi), target)
        rows.append({"xi": xi, "ecf": float(mean), "target": target, "z": float(z)})
    path = write_rows(os.path.join(_out_dir(cfg), "charfn"), rows, cfg.fmt, _artifact_config(cfg))
    worst = max(abs(r["z"]) for r in rows)
    print(f"characteristic function fit: worst |z| = {worst:.2f}")
    return path


def cmd_halfspace(cfg: ExperimentConfig) -> str:
    params = cfg.params()
    rng = RngStream(cfg.seed, 22)
    n_paths = cfg.budgets().profile_n_paths
    rows = []
    c2_rows = []
    for i, t in enumerate(cfg.t_grid):
        h = t ** (1.0 / params.alpha)
        q_grid = np.geomspace(h / 8.0, max(5.0 * h, 3.0), cfg.q_nodes)
        prof = halfspace_profile(
            t, q_grid, n_paths, t / cfg.steps, rng.substream(i, 0), params,
            extrapolate=cfg.extrapolate, workers=cfg.workers,
        )
        rows.extend(prof.to_rows())
        c2 = c2_of_t(
            t, n_paths, t / cfg.steps,
            rng.substream(i, 1), params, extrapolate=cfg.extrapolate, workers=cfg.workers,
        )
        c2_rows.append({"t": t, **c2.to_record()})
        print(f"C2({t:g}) = {c2.value:.6g} +- {c2.stderr:.2g}")
    path = write_rows(os.path.join(_out_dir(cfg), "halfspace_profile"), rows, cfg.fmt, _artifact_config(cfg))
    write_rows(os.path.join(_out_dir(cfg), "c2"), c2_rows, cfg.fmt, _artifact_config(cfg))
    return path


def cmd_trace(cfg: ExperimentConfig) -> str:
    params = cfg.params()
    domain = cfg.domain_obj()
    b = cfg.budgets()
    rng = RngStream(cfg.seed, 23)
    rows = []
    for i, t in enumerate(cfg.t_grid):
        est = z_trace(
            t, domain, b.n_x, b.n_paths, t / b.steps, rng.substream(i), params,
            extrapolate=cfg.extrapolate, workers=cfg.workers, chunk_points=cfg.chunk_points,
        )
        norm = t ** (params.d / params.alpha) * math.exp(-params.m * t)
        rows.append({"t": t, "normalized": norm * est.value, **est.to_record()})
        print(f"Z({t:g}) = {est.value:.6g} +- {est.stderr:.2g}")
    return write_rows(os.path.join(_out_dir(cfg), "trace"), rows, cfg.fmt, _artifact_config(cfg))


def cmd_residual(cfg: ExperimentConfig) -> str:
    params = cfg.params()
    domain = cfg.domain_obj()
    report = residual_scan(cfg.t_grid, domain, cfg.budgets(), RngStream(cfg.seed, 24), params)
    rows = report.to_rows()
    for r in rows:
        print(f"t={r['t']:g}: rho = {r['rho']:.4f} +- {r['rho_se']:.4f}")
    print(
        f"fitted C3 = {report.c3_fitted:.4f}, blow-up exponent = "
        f"{report.rho_blowup_exponent:.2f} ({report.n_resolved} resolved points)"
    )
    return write_rows(os.path.join(_out_dir(cfg), "residual"), rows, cfg.fmt, _artifact_config(cfg))


def cmd_lambda1(cfg: ExperimentConfig) -> str:
    params = cfg.params()
    domain = cfg.domain_obj()
    est = lambda1_estimate(domain, cfg.t_grid, cfg.budgets(), RngStream(cfg.seed, 25), params)
    print(f"lambda1 = {est.value:.6g} +- {est.stderr:.2g}")
    rows = [est.to_record()]
    return write_rows(os.path.join(_out_dir(cfg), "lambda1"), rows, cfg.fmt, _artifact_config(cfg))


def cmd_verify(cfg: ExperimentConfig) -> int:
    from .verify import run_all

    results = run_all(cfg)
    failures = []
    for res in results:
        print(res.summary())
        for line in res.lines:
            print(f"    {line}")
        if not res.passed:
            failures.append({"criterion": res.criterion, "name": res.name, "data": _plain(res.data)})
    report = {
        "schema_version": 1,
        "config": _artifact_config(cfg),
        "n_checks": len(results),
        "n_failed": len(failures),
        "failures": failures,
        "results": [
            {"criterion": r.criterion, "name": r.name, "passed": r.passed, "data": _plain(r.data)}
            for r in results
        ],
    }
    path = os.path.join(_out_dir(cfg), "verify_report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
    print(f"report -> {path}")
    return 1 if failures else 0


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    return obj


COMMANDS = {
    "constants": cmd_constants,
    "density": cmd_density,
    "subordinator": cmd_subordinator,
    "charfn": cmd_charfn,
    "halfspace": cmd_halfspace,
    "trace": cmd_trace,
    "residual": cmd_residual,
    "lambda1": cmd_lambda1,
    "verify": cmd_verify,
}

# flag -> the ExperimentConfig field it overrides, parsed as that field's
# type; --t-grid stays a string for the config to parse, so that a bad grid
# is a configuration error (exit 2)
FLAGS = {
    "--seed": "seed",
    "--workers": "workers",
    "--out": "out",
    "--format": "fmt",
    "--alpha": "alpha",
    "--m": "m",
    "--d": "d",
    "--domain": "domain",
    "--t-grid": "t_grid",
    "--n-paths": "n_paths",
    "--n-x": "n_x",
    "--steps": "steps",
    "--profile-n-paths": "profile_n_paths",
    "--budget-scale": "budget_scale",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relheat",
        description="Relativistic stable process laboratory: sampling, kernels, heat traces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        for flag, key in FLAGS.items():
            kind = str if types[key] is tuple else types[key]
            choices = FORMATS if key == "fmt" else None
            p.add_argument(flag, dest=key, type=kind, choices=choices, default=None)
        p.add_argument("--no-extrapolate", dest="extrapolate", action="store_false", default=None)
    return parser


def main(argv=None) -> int:
    overrides = vars(build_parser().parse_args(argv))
    command, path = overrides.pop("subcommand"), overrides.pop("config")
    try:
        cfg = (load_config(path) if path else ExperimentConfig()).override(**overrides)
        cfg.params()
        cfg.domain_obj()
    except (ParameterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = COMMANDS[command](cfg)
    except (ParameterError, StepTooLargeError, BudgetError, TailFitError, QuadratureError) as exc:
        # inputs the estimators cannot serve: a configuration error, not a
        # failed verification
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # verify returns its exit code; every other command its artifact's path
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
