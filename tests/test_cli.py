import csv
import json
import math

import numpy as np
import pytest

from relheat import cli, verify
from relheat.config import ExperimentConfig, dump_config, load_config
from relheat.errors import ParameterError
from relheat.sampler import RngStream, sample_brownian_leg, sample_tempered_subordinator
from relheat.specfun import ProcessParams, stable_levy_density


@pytest.fixture
def tiny_cfg(tmp_path):
    return ExperimentConfig(
        t_grid=(0.1, 0.2),
        n_paths=200,
        n_x=300,
        steps=16,
        profile_n_paths=2000,
        extrapolate=False,
        seed=99,
        out=str(tmp_path / "out"),
        budget_scale=0.01,
    )


class TestConfig:
    # every float of the grid loads back exactly, not to six digits
    @pytest.mark.parametrize("t_grid", [(0.1, 0.25), (0.1234567, 3.3333333e-07)])
    def test_defaults_round_trip(self, tmp_path, t_grid):
        cfg = ExperimentConfig(alpha=1.5, m=0.3, t_grid=t_grid, out="x")
        path = tmp_path / "exp.cfg"
        dump_config(cfg, path)
        loaded = load_config(path)
        assert loaded.alpha == 1.5
        assert loaded.m == 0.3
        assert loaded.t_grid == t_grid

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("unknown_thing = 3\n")
        with pytest.raises(ParameterError):
            load_config(path)

    def test_comments_and_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# experiment\nalpha = 0.8\nseed = 5  # inline\n")
        cfg = load_config(path)
        assert cfg.alpha == 0.8
        assert cfg.seed == 5
        assert cfg.override(seed=7, alpha=None).seed == 7
        assert cfg.override(alpha=None).alpha == 0.8

    @pytest.mark.parametrize("workers", [0, -3, 2.5])
    def test_bad_worker_count_rejected(self, workers):
        with pytest.raises(ParameterError):
            ExperimentConfig(workers=workers)
        with pytest.raises(ParameterError):
            ExperimentConfig().override(workers=workers)

    @pytest.mark.parametrize(
        "key,value",
        [("steps", 0), ("chunk_points", 0), ("n_x", 0), ("n_paths", -5),
         ("profile_n_paths", 0), ("budget_scale", 0.0), ("budget_scale", -1.0),
         ("budget_scale", math.inf), ("budget_scale", math.nan), ("n_x", "many"),
         ("t_grid", (0.0,)), ("t_grid", (0.1, -0.2)), ("t_grid", (math.inf,)),
         ("t_grid", (math.nan,)), ("seed", -1), ("seed", 1.5), ("fmt", "jsonl"),
         # every count is an integer >= 1, and a bool is not one: a
         # fractional steps would run on a rounded grid, and n_paths=True on
         # the path floor
         ("steps", 2.5), ("chunk_points", 1.5), ("n_x", 64.0), ("profile_n_paths", 200.5),
         ("workers", True), ("n_paths", True), ("seed", True), ("budget_scale", True),
         # an empty grid leaves the commands nothing to run; "no" is truthy
         ("t_grid", ()), ("extrapolate", "no")],
    )
    def test_bad_budget_rejected(self, key, value):
        with pytest.raises(ParameterError):
            ExperimentConfig(**{key: value})
        with pytest.raises(ParameterError):
            ExperimentConfig().override(**{key: value})

    def test_budgets_with_overrides(self):
        cfg = ExperimentConfig(n_paths=2000, profile_n_paths=20000, budget_scale=0.01)
        b = cfg.budgets(n_x=3000, steps=128, extrapolate=False)
        assert (b.n_paths, b.n_x, b.profile_n_paths) == (100, 64, 200)
        assert (b.steps, b.extrapolate) == (128, False)
        assert cfg.budgets(n_paths=50_000).n_paths == 500
        assert cfg.budgets() == cfg.budgets(budget_scale=0.01)
        with pytest.raises(ParameterError):
            cfg.budgets(n_x=0)

    def test_t_grid_parsing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("t_grid = 0.1,0.2,0.4\n")
        assert load_config(path).t_grid == (0.1, 0.2, 0.4)

    def test_values_take_their_field_type(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("alpha = 1\nm = 1\nsteps = 32\nextrapolate = False\nout = 7\n")
        cfg = load_config(path)
        assert (cfg.alpha, cfg.m, cfg.steps, cfg.extrapolate, cfg.out) == (1.0, 1.0, 32, False, "7")
        assert isinstance(cfg.alpha, float) and isinstance(cfg.steps, int)

    @pytest.mark.parametrize(
        "line", ["extrapolate = no", "extrapolate = 1", "steps = 1.5", "alpha = one", "t_grid = 0.1,x"]
    )
    def test_value_of_wrong_type_rejected(self, tmp_path, line):
        path = tmp_path / "exp.cfg"
        path.write_text(f"seed = 3\n{line}\n")
        with pytest.raises(ParameterError, match=f"{path}:2"):
            load_config(path)

    def test_config_file_and_flags_write_the_same_bytes(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("alpha = 1\nm = 1\n")
        common = ["constants", "--t-grid", "0.5"]
        assert cli.main(common + ["--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(common + ["--alpha", "1", "--m", "1", "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "constants.csv").read_bytes()
        assert a == (tmp_path / "b" / "constants.csv").read_bytes()
        assert b'"alpha": 1.0' in a


class TestSubcommands:
    def test_constants_prints_six_digits(self, tiny_cfg, capsys):
        path = cli.cmd_constants(tiny_cfg)
        out = capsys.readouterr().out
        assert "C1 = 0.159155" in out
        text = open(path).read()
        assert text.startswith("# schema_version: 1")
        assert '"seed": 99' in text.splitlines()[1]

    def test_constants_shows_frozen_reference(self, tiny_cfg, capsys):
        cli.cmd_constants(tiny_cfg)
        out = capsys.readouterr().out
        assert "C4 = 0.0505277" in out

    def test_density_artifacts(self, tiny_cfg):
        path = cli.cmd_density(tiny_cfg)
        lines = open(path).read().splitlines()
        header = lines[2].split(",")
        assert header == ["t", "r", "p"]
        # one row per (t, r) pair
        assert len(lines) == 3 + len(tiny_cfg.t_grid) * 6

    def test_json_format(self, tiny_cfg):
        cfg = tiny_cfg.override(fmt="json")
        path = cli.cmd_constants(cfg)
        assert path.endswith(".jsonl")
        lines = open(path).read().splitlines()
        head = json.loads(lines[0])
        assert head["schema_version"] == 1
        assert head["config"]["seed"] == 99
        rec = json.loads(lines[1])
        assert rec["name"] == "C1"
        assert rec["value"] == pytest.approx(1 / (2 * math.pi))

    def test_deterministic_artifacts(self, tiny_cfg, tmp_path):
        # neither the output directory nor the worker count reaches the
        # bytes: of the subordinator draws, and at alpha 1 (closed form) and
        # 1.5 (kernel tables), on one ladder level and on two, of the
        # killing march (`trace`, and `halfspace`'s profile) and of the
        # record march (`halfspace`'s C2)
        def artifacts(workers, commands, **kw):
            out = tmp_path / f"{workers}-{kw}"
            cfg = tiny_cfg.override(out=str(out), workers=workers, **kw)
            for command in commands:
                command(cfg)
            return {p.name: p.read_bytes() for p in out.iterdir()}

        cases = [([cli.cmd_subordinator], {})] + [
            ([cli.cmd_trace, cli.cmd_halfspace], dict(alpha=alpha, extrapolate=extrapolate))
            for alpha in (1.0, 1.5) for extrapolate in (False, True)]
        for commands, kw in cases:
            one = artifacts(1, commands, **kw)
            assert len(one) == len(commands) + (cli.cmd_halfspace in commands)
            assert artifacts(2, commands, **kw) == one, kw

    def test_charfn_runs(self, tiny_cfg):
        path = cli.cmd_charfn(tiny_cfg)
        assert "charfn" in path

    @pytest.mark.parametrize("alpha,m", [(1.0, 0.7), (1.5, 0.3)])
    def test_subordinator_rows_recompute(self, tiny_cfg, alpha, m):
        cfg = tiny_cfg.override(alpha=alpha, m=m, fmt="json")
        lines = open(cli.cmd_subordinator(cfg)).read().splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        n, dt, beta = 2000, 0.1, alpha / 2  # max(1000, 200 000 x budget_scale 0.01)
        gen = RngStream(99, 20).generator()
        draws, n_prop = sample_tempered_subordinator(dt, cfg.params(), gen, size=n, return_stats=True)
        for row, lam in zip(rows, (0.5, 1.0, 2.0)):
            emp = np.exp(-lam * draws)
            target = math.exp(-dt * ((lam + m ** (1 / beta)) ** beta - m))
            z = (emp.mean() - target) / (emp.std(ddof=1) / math.sqrt(n))
            assert (row["check"], row["lam"]) == ("laplace", lam)
            assert row["empirical"] == pytest.approx(emp.mean(), rel=1e-12)
            assert row["target"] == pytest.approx(target, rel=1e-12)
            assert row["z"] == pytest.approx(z, rel=1e-9)
        assert rows[3] == {"check": "acceptance", "lam": None, "empirical": n / n_prop,
                           "target": pytest.approx(math.exp(-m * dt), rel=1e-12), "z": None}
        assert len(rows) == 4

    @pytest.mark.parametrize("alpha,m", [(1.0, 0.7), (1.5, 0.3)])
    def test_charfn_rows_recompute(self, tiny_cfg, alpha, m):
        cfg = tiny_cfg.override(alpha=alpha, m=m, fmt="json")
        lines = open(cli.cmd_charfn(cfg)).read().splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        n, dt = 5000, 0.1  # max(1000, 500 000 x budget_scale 0.01)
        gen = RngStream(99, 21).generator()
        u = sample_tempered_subordinator(dt, cfg.params(), gen, size=n)
        x = sample_brownian_leg(u, 2, gen)
        xis = (0.25, 0.5, 1.0, 2.0, 4.0)
        assert [row["xi"] for row in rows] == list(xis)
        for row, xi in zip(rows, xis):
            ecf = np.cos(x[:, 0] * xi)
            target = math.exp(-dt * ((m ** (2 / alpha) + xi**2) ** (alpha / 2) - m))
            z = (ecf.mean() - target) / (ecf.std(ddof=1) / math.sqrt(n))
            assert row["ecf"] == pytest.approx(ecf.mean(), rel=1e-12)
            assert row["target"] == pytest.approx(target, rel=1e-12)
            assert row["z"] == pytest.approx(z, rel=1e-9)

    def test_halfspace_emits_profile_and_c2(self, monkeypatch, tiny_cfg, tmp_path):
        monkeypatch.setattr(cli, "PROFILE_NODES", 6)
        cfg = tiny_cfg.override(t_grid=(0.5,), profile_n_paths=6000)
        path = cli.cmd_halfspace(cfg)
        assert "halfspace_profile" in path
        lines = open(path).read().splitlines()
        assert len(lines) == 3 + 6  # two '#' lines, the header, one row per node
        c2_lines = open(path.replace("halfspace_profile", "c2")).read().splitlines()
        assert len(c2_lines) == 4

    def test_halfspace_budget_scale_reaches_c2(self, tmp_path):
        # --budget-scale scales C2's paths per ladder level like any budget:
        # the default 20 000 becomes its floor of 200, on each of two levels
        out = tmp_path / "hs"
        assert cli.main(["halfspace", "--budget-scale", "0.01", "--t-grid", "0.5",
                         "--out", str(out)]) == 0
        with open(out / "c2.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert [int(r["n_samples"]) for r in rows] == [400]
        assert list(rows[0]) == [
            "t", "value", "stderr", "n_samples", "dt", "meta_estimator", "meta_m",
            "meta_records_per_path", "meta_extrapolated", "meta_richardson_order",
            "meta_bias_budget", "meta_value_coarse", "meta_value_fine",
        ]

    def test_residual_subcommand(self, tiny_cfg):
        cfg = tiny_cfg.override(
            t_grid=(0.1, 0.2), n_paths=100, n_x=400, profile_n_paths=20_000,
            budget_scale=1.0,
        )
        path = cli.cmd_residual(cfg)
        lines = open(path).read().splitlines()
        assert len(lines) == 5  # 2 meta, header, 2 rows

    def test_lambda1_subcommand(self, tmp_path):
        cfg = ExperimentConfig(
            t_grid=(1.0, 1.5), n_paths=120, n_x=400, steps=16,
            extrapolate=False, seed=3, out=str(tmp_path), budget_scale=1.0,
        )
        path = cli.cmd_lambda1(cfg)
        lines = open(path).read().splitlines()
        assert len(lines) == 4  # two meta lines, header, one record


class TestMain:
    def test_usage_error_exit_code(self, tmp_path):
        code = cli.main(["trace", "--domain", "hexagon:a=1", "--out", str(tmp_path)])
        assert code == 2

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = 3.5\n")
        code = cli.main(["constants", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_estimator_error_exit_code(self, tmp_path, capsys):
        # m dt = 25 per step: tempering acceptance e^{-25} is below the
        # sampler's floor, an input the estimator cannot serve
        code = cli.main([
            "trace", "--m", "2000", "--t-grid", "0.1", "--steps", "8",
            "--n-x", "64", "--n-paths", "100", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_verify_report(self, monkeypatch, tmp_path, capsys):
        def passing(cfg):
            return verify.CheckResult("stub pass", 1, True, ["ok"], {"z": 0.5})

        def failing(cfg):
            data = {"z": np.float64(4.5), "n": np.int64(3), "ok": np.bool_(False),
                    "zs": (np.float64(1.0), np.int32(2))}
            return verify.CheckResult("stub fail", 2, False, ["off"], data)

        monkeypatch.setattr(verify, "ALL_CHECKS", (passing, failing))
        code = cli.main(["verify", "--out", str(tmp_path), "--workers", "2"])
        assert code == 1
        assert "[FAIL] criterion 2: stub fail" in capsys.readouterr().out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert (report["n_checks"], report["n_failed"]) == (2, 1)
        (failure,) = report["failures"]
        assert failure["criterion"] == 2
        # numpy scalars are written as JSON numbers and booleans, not strings
        assert failure["data"] == {"z": 4.5, "n": 3, "ok": False, "zs": [1.0, 2]}
        assert "out" not in report["config"] and "workers" not in report["config"]

    def test_zero_workers_exit_code(self, tmp_path, capsys):
        code = cli.main(["trace", "--workers", "0", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize(
        "argv,config",
        [
            (["trace", "--steps", "0"], None),
            (["trace"], "chunk_points = 0\n"),
            (["trace", "--n-x", "0"], None),
            (["trace", "--budget-scale", "-1"], None),
            # near alpha = 2 the lattice step is too coarse for the profile
            # quadrature's 1e-8 error bound at m t = 20
            (["density", "--alpha", "1.9", "--m", "20", "--t-grid", "1"], None),
            # the kernel tables go through the same check: at alpha = 1.96
            # the build raises before any path moves
            (["trace", "--alpha", "1.96", "--m", "0", "--n-x", "200", "--steps", "8"], None),
            # at alpha = 0.01 theta's mass reaches past both lattice ends
            (["density", "--alpha", "0.01", "--m", "0", "--t-grid", "1"], None),
            (["constants", "--m", "nan"], None),
            (["trace", "--t-grid", "0"], None),
            (["trace", "--t-grid", "inf"], None),
            (["trace", "--t-grid", "nan"], None),
            (["constants", "--t-grid", "0"], None),
            (["trace", "--seed", "-1"], None),
            (["subordinator", "--seed", "-1"], None),
            (["constants"], "fmt = jsonl\n"),
            # the residual scan needs a bounded domain's surface and volume
            (["residual", "--domain", "halfspace"], None),
            # the acceptance band and the profile's node count are module
            # constants, not config keys
            (["constants"], "z_sigma = 3\n"),
            (["halfspace"], "q_nodes = -1\n"),
        ],
        ids=["steps", "chunk_points", "n_x", "budget_scale", "density_quadrature",
             "table_quadrature",
             "density_tiny_alpha", "m_nan",
             "t_zero", "t_inf", "t_nan", "constants_t_zero", "seed", "subordinator_seed",
             "fmt_jsonl", "residual_halfspace", "z_sigma_key", "q_nodes_key"],
    )
    def test_bad_input_exit_code(self, tmp_path, capsys, argv, config):
        if config is not None:
            (tmp_path / "bad.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / "bad.cfg")]
        if "--t-grid" not in argv:
            argv = argv + ["--t-grid", "0.1", "--n-paths", "100"]
        code = cli.main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_constants_via_main(self, tmp_path):
        code = cli.main([
            "constants", "--out", str(tmp_path), "--t-grid", "0.1",
            "--seed", "4",
        ])
        assert code == 0
        assert (tmp_path / "constants.csv").exists()

    def test_density_far_field_is_the_jump_density(self, tmp_path):
        # p(t, x) -> t nu(x) as t -> 0: at t = 3e-7, r = 5 the scaled radius
        # is 1.1e5
        code = cli.main(["density", "--out", str(tmp_path), "--alpha", "1.5", "--m", "0",
                         "--t-grid", "3e-7"])
        assert code == 0
        rows = (tmp_path / "density.csv").read_text().splitlines()[3:]
        p = {float(r): float(v) for _, r, v in (row.split(",") for row in rows)}
        nu = stable_levy_density(5.0, ProcessParams(1.5, 0.0, 2))
        assert p[5.0] == pytest.approx(3e-7 * nu, rel=3e-3)

    def test_density_small_time(self, tmp_path):
        code = cli.main(["density", "--out", str(tmp_path), "--alpha", "1.5", "--m", "0",
                         "--t-grid", "1e-6"])
        assert code == 0
        assert len((tmp_path / "density.csv").read_text().splitlines()) == 3 + 6

    def test_overrides_reach_artifacts(self, tmp_path):
        code = cli.main([
            "density", "--out", str(tmp_path), "--alpha", "0.8", "--t-grid", "0.5",
        ])
        assert code == 0
        text = (tmp_path / "density.csv").read_text()
        assert '"alpha": 0.8' in text.splitlines()[1]
