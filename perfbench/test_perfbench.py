"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
from stats import covered, percentile, self_time  # noqa: E402
from workloads import WORKLOADS, best_pairs, make_instance  # noqa: E402


@pytest.mark.parametrize("n", [2, 3, 7, 10, 151])
def test_percentile_matches_inclusive_quantiles(n):
    values = [random.Random(n).random() for _ in range(n)]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    assert percentile(values, 50) == pytest.approx(statistics.median(values))
    assert percentile(values, 90) == pytest.approx(cuts[8])
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)


def test_percentile_single_value_and_errors():
    assert percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3)
    assert covered([(0, 10), (2, 3)]) == pytest.approx(10)


def test_self_time_subtracts_children_once_and_clips():
    assert self_time(0, 10, []) == 10
    assert self_time(0, 10, [(1, 3), (5, 6)]) == pytest.approx(7)
    # Overlapping children count once; parts outside the parent do not count.
    assert self_time(0, 10, [(1, 4), (2, 5), (9, 12), (-3, -1)]) == pytest.approx(5)


def test_best_pairs_keeps_highest_positive_values_in_draw_order():
    values = {}

    def value_of(s, t):
        values[(s, t)] = (s * 7 + t) % 5  # some zeros, ties among the rest
        return values[(s, t)]

    chosen = best_pairs(range(30), random.Random(3), value_of, count=3)
    assert len(chosen) == 3
    assert all(v > 0 and values[(s, t)] == v for s, t, v in chosen)
    assert [v for _, _, v in chosen] == sorted((v for _, _, v in chosen), reverse=True)
    assert chosen[0][2] == max(values.values())
    assert chosen == best_pairs(range(30), random.Random(3), value_of, count=3)


def test_best_pairs_draws_more_batches_until_positive():
    calls = []

    def value_of(s, t):
        calls.append((s, t))
        return 1 if len(calls) > 20 else 0

    (s, t, v), = best_pairs(range(50), random.Random(0), value_of, batch=16)
    assert v == 1 and len(calls) > 16


def test_best_pairs_gives_up_without_positive_value():
    with pytest.raises(RuntimeError):
        best_pairs(range(10), random.Random(0), lambda s, t: 0)


def test_scaled_uses_median_probe_within_window():
    ref = speed.REF_PROBE_S
    meter = speed.Speedometer()
    # A host twice as slow doubles both the region and the probes near it.
    meter.probes = [(9.0, 2 * ref), (10.0, 2 * ref), (12.0, 2 * ref), (12.5, 9 * ref), (20.0, ref)]
    assert meter.scaled(10.0, 2.0, window=1.0) == pytest.approx(1.0)
    # Only the bracketing probes when the window is empty.
    assert meter.scaled(10.0, 2.0, window=0.0) == pytest.approx(1.0)
    assert meter.scaled(19.5, 0.5, window=0.0) == pytest.approx(0.5)


def test_speedometer_probe_is_fixed_work():
    meter = speed.Speedometer()
    assert meter.expected == speed.walk(speed.reference_graph())
    meter.start()
    t0, wall = meter.stop()
    assert wall >= 0 and len(meter.probes) == 2
    assert meter.scaled(t0, wall) > 0


def test_round_queries_every_instance_and_pair_once():
    assert WORKLOADS["k5free-tree-2k"].round() == [(0, 0), (0, 1), (0, 2), (0, 3)]
    mix = WORKLOADS["small-fresh-mix"]
    assert mix.round() == [(i, 0) for i in range(mix.count)]


def test_instances_are_deterministic_and_pairs_positive():
    a = WORKLOADS["small-fresh-mix"].instance(5, 1)
    b = WORKLOADS["small-fresh-mix"].instance(5, 1)
    assert a.fingerprint == b.fingerprint and a.network_text == b.network_text
    assert all(v > 0 for _, _, v in a.pairs)
    # Another seed measures the same network, with its own pairs.
    assert WORKLOADS["small-fresh-mix"].instance(6, 1).fingerprint["sha256"] == a.fingerprint["sha256"]
    graph, tree = a.parse()
    assert len(graph.vertices) == a.fingerprint["n"] and tree is not None


def test_recorder_spans_nest_and_restore_every_binding():
    from minorflow import max_flow_decomposed

    inst = make_instance("k5free", 40, 7, random.Random(1), None, 1)
    graph, tree = inst.parse()
    s, t, value = inst.pairs[0]
    rec = spans.Recorder()
    rec.install()
    try:
        assert spans.wrapped_bindings()
        got, _ = rec.run_query(0, lambda: max_flow_decomposed(graph, tree, s, t))
    finally:
        rec.restore()
    assert got == value
    assert spans.wrapped_bindings() == []
    names = {span[0] for span in rec.spans}
    assert {"bench.query", "solver.refine", "solver.phase1", "maxflow.max_flow"} <= names
    assert all(span[4] == 0 and span[1] <= span[2] for span in rec.spans)
    metrics, _ = spans.layer_metrics(rec, 1, {0: 1.0})
    assert metrics["maxflow.calls"] > 0
    assert 0.95 <= metrics["trace.top_level_coverage"] <= 1.0
