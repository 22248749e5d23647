"""`--workers` reaches the estimators of every acceptance check.

Each check runs at a small budget with the serial stand-in pool: at
workers 2 it must start pools, at workers 1 none, and both must report the
same result.
"""

import pytest

from relheat import verify
from relheat.config import ExperimentConfig
from test_tracelab import SerialPool, record_pools


@pytest.mark.parametrize(
    "check,n_pools",
    [
        # 6 (t, q) pairs x 2 routes x 2 ladder levels march in one batch
        (verify.check_halfspace_scaling, 1),
        (verify.check_halfspace_tail, 1),
        # z_trace, the r_D point, and the pilots of C2 and of C4 (this
        # budget leaves nothing for a top-up)
        (verify.check_inequalities, 4),
    ],
)
def test_workers_reach_the_estimators(monkeypatch, tmp_path, check, n_pools):
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
