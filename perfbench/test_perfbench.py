"""Fast tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Each correctness check passes on a consistent set of numbers and rejects a
perturbed one; the span analysis gives the expected self times; every
metric the command prints is declared in BENCHMARK.json.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

C4_REF, C4_REF_SE = workloads.reference_c4(ROOT)


# -- trace_ball -------------------------------------------------------------

def _ball_consistent(t=0.02, m=1.0):
    """A Z that sits on the two-term value, with its exact first term."""
    area, perimeter = math.pi, 2.0 * math.pi
    norm = t**2 * math.exp(-m * t)
    c1_t = math.exp(-m * t) * (1.0 + m * t) / (2.0 * math.pi)
    zn = c1_t * area - C4_REF * perimeter * t * math.exp(-m * t)
    first = c1_t * math.exp(m * t) * area / t**2
    return zn / norm, 0.00015 / norm, first


def test_trace_ball_accepts_two_term_value():
    value, se, first = _ball_consistent()
    assert workloads.check_trace_ball(value, se, first, 0.02, 1.0, 1.0, C4_REF) == []


@pytest.mark.parametrize("shift_sigmas", [-20.0, 20.0])
def test_trace_ball_rejects_shifted_estimate(shift_sigmas):
    value, se, first = _ball_consistent()
    problems = workloads.check_trace_ball(value + shift_sigmas * se, se, first, 0.02, 1.0, 1.0, C4_REF)
    assert any("two-term" in p for p in problems)


def test_trace_ball_rejects_missing_second_term():
    # the first term alone, C1(t)|D|, is inside the loose small-time band
    # but not within the two-term tolerance
    value, se, first = _ball_consistent()
    t, m = 0.02, 1.0
    one_term = math.exp(-m * t) * (1.0 + m * t) / 2.0 / (t**2 * math.exp(-m * t))
    problems = workloads.check_trace_ball(one_term, se, first, t, m, 1.0, C4_REF)
    assert len(problems) == 1 and "two-term" in problems[0]


def test_trace_ball_rejects_wrong_first_term():
    value, se, first = _ball_consistent()
    problems = workloads.check_trace_ball(value, se, first * (1 + 1e-5), 0.02, 1.0, 1.0, C4_REF)
    assert any("first term" in p for p in problems)


def test_trace_ball_rejects_value_far_from_small_time_limit():
    value, se, first = _ball_consistent()
    problems = workloads.check_trace_ball(0.9 * value, 10 * se, first, 0.02, 1.0, 1.0, C4_REF)
    assert any("outside" in p for p in problems)


# -- c4_halfspace -------------------------------------------------------------

def test_c4_accepts_consistent_pair():
    t = 0.25
    assert workloads.check_c4(C4_REF / t, 0.0007 / t, C4_REF, 0.0007, C4_REF, C4_REF_SE, t) == []


def test_c4_rejects_broken_self_similarity():
    t = 0.25
    problems = workloads.check_c4(1.2 * C4_REF / t, 0.0007 / t, C4_REF, 0.0007, C4_REF, C4_REF_SE, t)
    assert len(problems) == 1 and "C2" in problems[0]


def test_c4_rejects_estimate_far_from_frozen_reference():
    t = 0.25
    c4 = C4_REF + 0.004
    problems = workloads.check_c4(c4 / t, 0.0007 / t, c4, 0.0007, C4_REF, C4_REF_SE, t)
    assert len(problems) == 1 and "frozen" in problems[0]


# -- trace_alpha15_pool -------------------------------------------------------

def _pool_ops(z1, z2, se=0.05):
    wl = workloads.WORKLOADS["trace_alpha15_pool"]
    ops = []
    for z, (radius, t, m) in zip((z1, z2), wl.cases()):
        first = workloads.free_kernel_at_zero(t, m, wl.ALPHA) * math.pi * radius**2
        ops.append(Op("cli.trace", z, se, 1000, 1.0, {"first_term": first}))
    return wl, ops


def test_first_term_quadrature_matches_cauchy_closed_form():
    # alpha=1, d=2: p(t, 0) = (1/t^2 + m/t) / (2 pi)
    t, m = 0.3, 1.7
    exact = (1.0 / t**2 + m / t) / (2.0 * math.pi)
    assert workloads.free_kernel_at_zero(t, m, 1.0) == pytest.approx(exact, rel=1e-10)


def test_scaling_accepts_equal_values():
    wl, ops = _pool_ops(14.3, 14.35)
    assert workloads.check_scaling(ops, wl.cases(), wl.ALPHA) == []


def test_scaling_rejects_perturbed_value():
    wl, ops = _pool_ops(14.3, 14.3 + 10 * 0.05)
    problems = workloads.check_scaling(ops, wl.cases(), wl.ALPHA)
    assert len(problems) == 1 and "scaling" in problems[0]


def test_scaling_rejects_value_above_first_term():
    wl, ops = _pool_ops(14.3, 14.3)
    ops[0].value = ops[1].value = ops[0].extra["first_term"] * 1.01
    problems = workloads.check_scaling(ops, wl.cases(), wl.ALPHA)
    assert any("outside" in p for p in problems)


def test_scaling_rejects_wrong_first_term():
    wl, ops = _pool_ops(14.3, 14.3)
    ops[1].extra["first_term"] *= 1.001
    problems = workloads.check_scaling(ops, wl.cases(), wl.ALPHA)
    assert any("first term" in p for p in problems)


def test_read_trace_artifact(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "# schema_version: 1\n# config: {}\n"
        "t,normalized,value,stderr,n_samples\n0.05,0.25,14.3,0.05,122400\n"
    )
    row = workloads.read_trace_artifact(str(path))
    assert float(row["value"]) == 14.3 and int(row["n_samples"]) == 122400


# -- pooling rounds ------------------------------------------------------------

def test_pool_rounds_takes_equal_weight_mean():
    rounds = [[Op("z", 1.0, 0.3, 10, 2.0)], [Op("z", 2.0, 0.4, 10, 3.0)]]
    (pooled,) = workloads.pool_rounds(rounds)
    assert pooled.value == 1.5 and pooled.stderr == pytest.approx(0.25)
    assert pooled.n_samples == 20 and pooled.wall_s == 5.0


def test_traced_round_must_reproduce_its_twin(monkeypatch):
    monkeypatch.setattr(workloads.TraceBall, "check", lambda self, ops, root: [])
    op = {"name": "z_trace", "value": 1.0, "stderr": 0.1, "n_samples": 5, "wall_s": 1.0, "extra": {}}
    plain = [{"ops": [op]}]
    assert run.problems_of("trace_ball", ROOT, plain, [{"ops": [dict(op, wall_s=1.2)]}]) == []
    problems = run.problems_of("trace_ball", ROOT, plain, [{"ops": [dict(op, value=1.1)]}])
    assert problems == ["a traced round's estimates differ from its untraced twin's"]


# -- spans ----------------------------------------------------------------------

# z_trace [0, 10] holds subordinator [1, 4], which holds kanter [2, 3], and
# contains [5, 9]; a second z_trace [20, 22] has no children
SPANS = [
    ["tracelab.z_trace", 0.0, 10.0, -1],
    ["sampler.subordinator", 1.0, 4.0, 0],
    ["specfun.kanter", 2.0, 3.0, 1],
    ["geometry.contains", 5.0, 9.0, 0],
    ["tracelab.z_trace", 20.0, 22.0, -1],
]


def test_self_times_of_nested_spans():
    assert tracer.self_times(SPANS) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_self_times_clip_overlapping_children():
    spans = [["a.x", 0.0, 10.0, -1], ["b.y", 2.0, 6.0, 0], ["b.z", 4.0, 12.0, 0]]
    assert tracer.self_times(spans)[0] == 2.0


def test_layer_metrics_from_spans():
    counts = {"sampler.path_steps": 600, "sampler.proposals": 800}
    out = tracer.layer_metrics(SPANS, counts)
    assert out["tracelab.self_s"] == 5.0
    assert out["sampler.self_s"] == 2.0
    assert out["specfun.kanter_s"] == 1.0
    assert out["geometry.contains_s"] == 4.0
    assert out["sampler.acceptance"] == 0.75
    assert out["tracelab.path_steps_per_s"] == 600 / 12.0


def test_tracer_records_nested_calls_and_uninstalls():
    from relheat import ProcessParams, RngStream, sampler, tracelab

    original = tracelab.sample_tempered_subordinator
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracelab.sample_tempered_subordinator is not original
        gen = RngStream(3).generator()
        tracelab.sample_tempered_subordinator(0.01, ProcessParams(1.0, 1.0, 2), gen, size=500)
    finally:
        tr.uninstall()
    assert tracelab.sample_tempered_subordinator is original
    assert sampler.sample_tempered_subordinator is original
    names = [s[0] for s in tr.spans]
    assert names[0] == "sampler.subordinator"
    assert "sampler.stable_draw" in names and "specfun.kanter" in names
    assert all(s[3] >= 0 for s in tr.spans[1:])
    assert tr.counts["sampler.path_steps"] == 500
    assert tr.counts["sampler.proposals"] >= 500


# -- declared metrics -------------------------------------------------------

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_printed_metrics_are_declared():
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["better"] in ("lower", "higher")
    round_ = {"setup_s": 1.0, "wall_s": 2.0, "n_samples": 10, "relvar": 1e-6,
              "peak_rss_mb": 100.0, "layers": tracer.layer_metrics(SPANS, {})}
    e2e = run.end_to_end([round_])
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert all(units[name] == unit for name, (_, unit) in e2e.items())
    layers = run.per_layer([round_], [round_], units)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}


def test_workloads_are_declared():
    assert {w["name"] for w in _spec()["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOADS)
