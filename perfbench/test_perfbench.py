"""Self-tests of the benchmark runner's helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import math
import os
import threading

import pytest

import benchlib
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentile choice -------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (5, None),        # not even p90 has 10 samples beyond it
    (100, 90.0),      # 10 beyond p90, 5 beyond p95
    (199, 90.0),      # 9.95 beyond p95: not enough
    (200, 95.0),
    (999, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    assert benchlib.tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert benchlib.percentile(values, 50.0) == 50
    assert benchlib.percentile(values, 99.0) == 99
    assert benchlib.percentile([7.0], 99.0) == 7.0


def test_failed_request_misses_every_percentile():
    latencies = [0.001] * 98 + [float("inf")] * 2
    summary = benchlib.latency_summary(latencies)
    assert summary["p50_ms"] == pytest.approx(1.0)
    assert summary["tail_pct"] == 90.0
    assert benchlib.percentile(latencies, 99.0) == math.inf


# -- self time ---------------------------------------------------------------


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "run": "r", "name": name,
            "start": start, "end": end, "attrs": {}}


def test_self_time_subtracts_direct_children_union():
    tree = [
        _span("a", None, 0.0, 10.0),
        _span("b", "a", 1.0, 4.0),
        _span("c", "a", 3.0, 5.0),      # overlaps b: union is 1..5
        _span("d", "b", 2.0, 3.0),      # grandchild: b's business only
        _span("e", "a", 9.0, 12.0),     # runs past its parent: clipped
    ]
    selfs = benchlib.self_times(tree)
    assert selfs["a"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs["b"] == pytest.approx(3.0 - 1.0)
    assert selfs["d"] == pytest.approx(1.0)


def test_recorder_nests_spans_and_derives_run_day_self_time():
    rec = spans.Recorder(run="study")

    def child():
        return rec.call("feeds.vt.scan", lambda: None, (), {})

    rec.call("pipeline.run_day", lambda: [child(), child()], (), {})
    tree = rec.as_dicts()
    root = next(s for s in tree if s["name"] == "pipeline.run_day")
    kids = [s for s in tree if s["name"] == "feeds.vt.scan"]
    assert root["parent"] is None and root["run"] == "study"
    assert all(k["parent"] == root["id"] and k["run"] == "study"
               for k in kids)
    layers = spans.derive(tree, {})
    expected_self = (root["end"] - root["start"]) - sum(
        k["end"] - k["start"] for k in kids)
    assert layers["pipeline.run_day.calls"] == 1
    assert layers["feeds.vt.scan.calls"] == 2
    assert layers["pipeline.run_day.self_s"] == pytest.approx(expected_self)


def test_wrap_records_failures_and_keeps_classmethods():
    class Layer:
        @classmethod
        def build(cls, value):
            return (cls, value)

        def pull(self, fail):
            if fail:
                raise RuntimeError("outage")
            return [1]

    rec = spans.Recorder()
    rec.wrap(Layer, "build", "datasets.merge")
    rec.wrap(Layer, "pull", "feeds.feed_between")
    assert Layer.build(3) == (Layer, 3)
    Layer().pull(False)
    with pytest.raises(RuntimeError):
        Layer().pull(True)
    layers = spans.derive(rec.as_dicts(), {})
    assert layers["feeds.feed_between.calls"] == 2
    assert layers["feeds.feed_between.failed"] == 1


def test_timed_lock_counts_contended_wait():
    rec = spans.Recorder()
    lock = spans.TimedLock(threading.RLock(), rec)
    held = threading.Event()
    release = threading.Event()

    def holder():
        with lock:
            held.set()
            release.wait(5)

    thread = threading.Thread(target=holder)
    thread.start()
    held.wait(5)
    threading.Timer(0.05, release.set).start()
    with lock:
        with lock:               # re-entrant, never waits
            pass
    thread.join(5)
    assert not thread.is_alive()
    assert rec.counters["service.lock.contended"] == 1
    assert rec.counters["service.lock.wait_s"] > 0.0


# -- failure counting ---------------------------------------------------------


def test_batch_failures_count_quarantine_and_shards():
    assert benchlib.batch_failures(1447, 0, 0, True) == 0
    assert benchlib.batch_failures(1447, 3, 1, True) == 4


def test_forced_digest_mismatch_fails_every_sample():
    assert benchlib.batch_failures(1447, 0, 0, False) == 1447


@pytest.mark.parametrize("status, revalidated, failed", [
    (200, False, False),
    (304, True, False),
    (304, False, True),       # a 304 nobody asked for
    (404, False, True),
    (500, False, True),
    (None, False, True),      # timeout or connection error
])
def test_request_failures(status, revalidated, failed):
    assert benchlib.request_failed(status, revalidated) is failed


# -- the benchmark definition -------------------------------------------------


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert declared == spans.PER_LAYER
    derived = spans.derive([], {})
    assert list(derived) == [name for name, _unit in spans.PER_LAYER]


def test_interaction_map_names_declared_metrics_and_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "interactions.json")) as fh:
        interactions = json.load(fh)
    layers = {m["name"] for m in bench["per_layer"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for entry in interactions:
        assert entry["layer"] in layers
        assert entry["workload"] in workloads
        assert entry["predict"] in ("moves", "no change")
