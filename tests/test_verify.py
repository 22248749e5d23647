"""`--workers` reaches the estimators of every acceptance check.

Each check runs at a small budget with the serial stand-in pool: at
workers 2 it must start pools, at workers 1 none, and both must report the
same result.
"""

from types import SimpleNamespace

import pytest

from relheat import tracelab, verify
from relheat.config import ExperimentConfig
from test_tracelab import SerialPool, record_pools


@pytest.mark.parametrize(
    "check,n_pools",
    [
        # 6 (t, q) pairs x 2 routes march in one batch
        (verify.check_halfspace_scaling, 1),
        (verify.check_halfspace_tail, 1),
        # z_trace, the r_D point, C2 and C4
        (verify.check_inequalities, 4),
    ],
)
def test_workers_reach_the_estimators(monkeypatch, tmp_path, check, n_pools):
    # 500-path chunks split each 2000-path estimate into several tasks, so
    # that every estimator call that gets the workers starts a pool
    monkeypatch.setattr(tracelab, "CHUNK_PATHS", 500)
    sizes = record_pools(monkeypatch, SerialPool)
    results = []
    for workers in (1, 2):
        cfg = ExperimentConfig(out=str(tmp_path), budget_scale=0.01, steps=8, workers=workers)
        res = check(cfg)
        results.append((res.passed, res.lines, res.data))
        if workers == 1:
            assert sizes == []
    assert len(sizes) == n_pools and set(sizes) == {2}
    assert results[0] == results[1]


@pytest.mark.parametrize("violated", ["Z(", "r_D("])
def test_inequality_lines_report_the_comparison(monkeypatch, tmp_path, violated):
    # stubbed estimates: the one past its bound must read "violated" in its
    # line, the other "ok"
    def estimate(value, stderr=0.0):
        return lambda *args, **kwargs: SimpleNamespace(value=value, stderr=stderr)

    monkeypatch.setattr(verify, "z_trace", estimate(1e6 if violated == "Z(" else 0.0))
    r_point = estimate(1e6 if violated == "r_D(" else 0.0)
    monkeypatch.setattr(verify, "_r_estimates", lambda *args, **kwargs: [r_point()])
    monkeypatch.setattr(verify, "c2_of_t", estimate(0.0, 0.01))
    monkeypatch.setattr(verify, "c4_const", estimate(1.0, 0.01))
    res = verify.check_inequalities(ExperimentConfig(out=str(tmp_path), budget_scale=0.01))
    assert not res.passed
    for prefix in ("Z(", "r_D("):
        (line,) = [line for line in res.lines if line.startswith(prefix)]
        assert line.endswith(": violated" if prefix == violated else ": ok")
