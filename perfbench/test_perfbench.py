"""Tests of the benchmark's own logic: span arithmetic, output checks, counters.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import cone_violation, non_finite_paths  # noqa: E402
from spans import Span, SpanRecorder, instrument, kernel_evals  # noqa: E402


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 4] and c [5, 8]; c holds d [6, 7]
    rec = SpanRecorder(clock=FakeClock([0, 1, 4, 5, 6, 7, 8, 10]))
    a = rec.begin("a")
    b = rec.begin("b")
    rec.end(b)
    c = rec.begin("c")
    d = rec.begin("d")
    rec.end(d)
    rec.end(c)
    rec.end(a)
    assert [s.parent for s in rec.spans] == [None, 0, 0, 2]
    assert rec.self_times() == [4.0, 3.0, 2.0, 1.0]
    assert rec.ancestor_named(d, {"a", "b"}) == "a"
    assert rec.ancestor_named(b, {"c"}) is None


def test_self_time_counts_overlapping_children_once():
    rec = SpanRecorder()
    rec.spans = [Span("p", 0.0, 10.0, None), Span("x", 2.0, 6.0, 0),
                 Span("y", 4.0, 8.0, 0)]
    assert rec.self_times()[0] == pytest.approx(4.0)


def test_span_closed_out_of_order_raises():
    rec = SpanRecorder()
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def feasible_surface():
    strikes = np.linspace(80.0, 120.0, 9)
    taus = np.linspace(0.1, 1.1, 5)
    # convex in strike, increasing in maturity, positive
    values = np.array([np.maximum(100.0 - strikes, 0.0) + 2.0 + 3.0 * t
                       + 0.01 * (strikes - 100.0) ** 2 for t in taus])
    return values, strikes


def test_feasibility_check_accepts_a_feasible_surface():
    values, strikes = feasible_surface()
    assert cone_violation(values, strikes) == 0.0


def test_feasibility_check_flags_calendar_violation():
    values, strikes = feasible_surface()
    values[3] = values[2] - 0.5  # a later maturity cheaper at every strike
    assert cone_violation(values, strikes) == pytest.approx(0.5)


def test_feasibility_check_flags_convexity_violation():
    values, strikes = feasible_surface()
    values[:, 2] += 1.0  # a bump is concave at its node
    h = strikes[1] - strikes[0]
    assert cone_violation(values, strikes) == pytest.approx(2.0 / h - 0.02 * h)


def test_feasibility_check_flags_negative_price():
    values, strikes = feasible_surface()
    values -= values.min() + 1.0  # a shift keeps both orders
    assert cone_violation(values, strikes) == pytest.approx(1.0)


def test_feasibility_check_flags_nan():
    values, strikes = feasible_surface()
    values[2, 5] = np.nan
    assert cone_violation(values, strikes) == sys.float_info.max


def test_non_finite_paths():
    tree = {"a": [1.0, float("nan")], "b": {"c": np.float64("inf"), "d": "x"}}
    assert non_finite_paths(tree) == ["/a/1", "/b/c"]


def test_kernel_evals_counted_from_traced_mmd2():
    import arbsurf.chainstats as cs
    assert kernel_evals(5, 3) == 25 + 9 + 15
    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(5, 1)), rng.normal(size=(3, 1))
    kern = cs.median_bandwidth_mixture(X, Y)
    rec = SpanRecorder()
    original = cs.mmd2
    with instrument(rec):
        traced = cs.mmd2(X, Y, kern)
        cs.chain_energy([X, Y, X], [0.5, 0.5])
    assert cs.mmd2 is original
    assert traced == original(X, Y, kern)
    evals = [s.attrs["kernel_evals"] for s in rec.spans if s.name == "chainstats.mmd2"]
    assert evals == [49, 49, 49]
    energy = next(i for i, s in enumerate(rec.spans) if s.name == "chainstats.chain_energy")
    assert [s.parent for s in rec.spans if s.name == "chainstats.mmd2"][1:] == [energy] * 2


def test_traced_run_reports_every_declared_layer_metric(monkeypatch):
    tiny = ({"grid": {"n_strikes": 15, "n_maturities": 7},
             "smolyak": {"level": 3, "frontier_levels": [2, 3]},
             "projection": {"lip_trials": 2},
             "chain": {"sizes": [20, 30, 40, 60, 90], "n_maturities_used": 3},
             "descent": {"steps": 5}}, False, 1)
    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny)
    calib = run.Calibrator("tiny", None, keep_summaries=True)
    traced, recorders, overhead = run.traced_loop(calib, 3, 0.0)
    values, _lines, problems = run.layer_values(traced, recorders, overhead, 0)
    assert problems == []
    assert calib.calls[0]["digest"] == calib.calls[1]["digest"]
    assert set(run.declared_metrics(1)) <= set(values)
    assert values["projection.project_to_cone.calls"] == 2 * 2 + 1 + 1 + 5 + 1
    assert values["projection.project_to_cone.in_certificates.calls"] == 5
    assert values["projection.project_to_cone.in_descent.calls"] == 5
