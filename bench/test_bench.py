"""Self-tests of the benchmark's own arithmetic (no ``repro`` import needed).

Run with ``python3 -m pytest bench/test_bench.py -q`` from the checkout root.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from passclock import PassClock
from refclock import MIN_SAMPLES, REF_S, RefClock
from metrics import END_TO_END, PER_LAYER, WORKLOAD_METRICS
from spans import Span, Tracer, self_times
from stats import Ledger, percentile, quartiles, tail_percentile

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ------------------------------------------------------------- percentile rule


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (50, 80.0), (56, 80.0),
    (99, 80.0), (100, 90.0), (336, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(1, 20_001):
        p = tail_percentile(n)
        if p is None:
            assert n * 0.5 < 10
            continue
        assert n * (100 - p) / 100 >= 10 - 1e-9
        higher = [q for q in (75.0, 80.0, 90.0, 95.0, 99.0, 99.9) if q > p]
        assert all(n * (100 - q) / 100 < 10 for q in higher), n


def test_percentile_and_quartiles():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == pytest.approx((25.25, 50.5, 75.75))
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        percentile([], 50)


# --------------------------------------------------------------------- laps


def test_pass_clock_laps_consecutive_operations():
    ticks = iter([0.0, 0.5, 1.1, 4.1])
    clock = PassClock(clock=lambda: next(ticks))
    for label in ("shard:0", "shard:1", "export:a"):
        clock.lap(label)
    timing = clock.finish(evaluations=7)
    assert timing.ops == pytest.approx({"shard:0": 0.5, "shard:1": 0.6, "export:a": 3.0})
    assert timing.wall_s == pytest.approx(4.1)
    assert timing.total("shard:") == pytest.approx(1.1) and timing.evaluations == 7
    with pytest.raises(ValueError):
        clock.lap("shard:0")
    with pytest.raises(ValueError):
        timing.nominal_s


def test_pass_clock_scales_the_pass_by_the_host_speed_meanwhile():
    ticks = iter([10.0, 12.0, 14.0])
    spans = []

    def speed(start, end):
        spans.append((start, end))
        return 0.75

    clock = PassClock(clock=lambda: next(ticks), speed=speed)
    clock.lap("pfi:gemm")
    clock.lap("pfi:hotspot")
    timing = clock.finish()
    assert spans == [(10.0, 14.0)]
    assert timing.wall_s == pytest.approx(4.0) and timing.nominal_s == pytest.approx(3.0)


def test_ref_clock_speed_averages_samples_inside_else_the_nearest():
    clock = RefClock()
    clock.samples = [(float(t), 1.0 + t) for t in range(30)]
    inside = range(5, 17)
    assert clock.speed(5.0, 16.0) == pytest.approx(1.0 + sum(inside) / len(inside))
    # Too few inside: the MIN_SAMPLES nearest to the stretch, 3..12 around [7.5, 8].
    assert MIN_SAMPLES == 10
    assert clock.speed(7.5, 8.0) == pytest.approx(1.0 + sum(range(3, 13)) / 10)
    assert clock.speed(40.0, 41.0) == pytest.approx(1.0 + sum(range(20, 30)) / 10)
    with pytest.raises(ValueError):
        RefClock().speed(0.0, 1.0)


def test_ref_clock_leaves_the_reference_job_out_of_its_time():
    with RefClock(interval_s=0.01) as clock:
        start, wall = clock.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        took, wall = clock.now() - start, time.perf_counter() - wall
        jobs = len(clock.samples) - 1
        with clock.waiting():
            start, wall = clock.now(), time.perf_counter()
            time.sleep(0.3)
            waited, wall_waited = clock.now() - start, time.perf_counter() - wall
    assert jobs >= 3 and len(clock.samples) > jobs + 3
    assert took < wall - jobs * 0.5 * REF_S
    assert waited == pytest.approx(wall_waited, abs=1e-3)
    assert all(v > 0 for _, v in clock.samples)


# ------------------------------------------------------------------ self time


def span(span_id, parent, start, end, name="x"):
    return Span(span_id=span_id, trace_id=1, name=name, parent=parent, start=start, end=end)


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),
        span(2, 0, 2.0, 5.0),    # overlaps child 1: [1, 5] is covered once
        span(3, 0, 8.0, 12.0),   # runs past its parent: only [8, 10] counts
        span(4, 1, 1.5, 2.5),    # grandchild: belongs to child 1, not the root
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_nests_spans_and_shares_trace_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    first = tracer.new_trace()
    with tracer.span("pass"):
        with tracer.span("layer.a", count=4):
            pass
        with tracer.span("layer.b"):
            with tracer.span("layer.c", probe=True):
                pass
    second = tracer.new_trace()
    with tracer.span("pass"):
        pass
    root, a, b, c, other = tracer.spans
    assert (a.parent, b.parent, c.parent, other.parent) == (root.span_id, root.span_id,
                                                             b.span_id, None)
    assert {s.trace_id for s in (root, a, b, c)} == {first} and other.trace_id == second
    assert first != second
    own = self_times(tracer.spans)
    assert own[root.span_id] == pytest.approx(root.duration - a.duration - b.duration)
    assert own[b.span_id] == pytest.approx(b.duration - c.duration)
    assert a.count == 4 and c.probe


def test_tracer_records_are_json_objects_with_self_time():
    tracer = Tracer()
    tracer.new_trace()
    with tracer.span("pass"):
        with tracer.span("layer"):
            pass
    records = [json.loads(json.dumps(r)) for r in tracer.records()]
    assert [r["name"] for r in records] == ["pass", "layer"]
    assert records[1]["parent"] == records[0]["span_id"]
    assert records[0]["self"] <= records[0]["end"] - records[0]["start"]


# ------------------------------------------------------------------ error rate


def test_error_rate_counts_failed_and_raising_checks():
    ledger = Ledger()
    assert ledger.error_rate == 0.0
    assert ledger.check("shard", lambda: (True, ""))
    assert not ledger.check("tuner run", lambda: (False, "budget overshot"))

    def raises():
        raise ValueError("bad fragment")

    assert not ledger.check("exported file", raises)
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.error_rate == pytest.approx(2 / 3)
    assert ledger.failures == ["tuner run: budget overshot",
                               "exported file: ValueError: bad fragment"]


# ---------------------------------------------------------------- metric names


def all_metrics():
    return [*END_TO_END, *(m for ms in WORKLOAD_METRICS.values() for m in ms), *PER_LAYER]


@pytest.mark.parametrize("metric", all_metrics(), ids=lambda m: m.name)
def test_metric_names_and_units_are_well_formed(metric):
    assert METRIC_NAME.fullmatch(metric.name) and len(metric.name) <= 64
    assert metric.name[0].isalnum()
    assert metric.better in ("lower", "higher")
    assert len(metric.unit) <= 16


def test_metric_names_are_unique():
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in PER_LAYER]
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert setup.unit == "s" and setup.better == "lower"
    assert setup.bound == max(m.bound for m in END_TO_END) <= 0.25
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOAD_METRICS)
