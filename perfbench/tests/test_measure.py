"""Unit tests for the benchmark's own measurement helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import threading
import types

import numpy as np
import pytest

from measure import (
    durations_ms,
    join_tick_to_cause,
    layer_of,
    min_samples,
    percentile,
    samples_beyond,
    self_time,
    self_time_by_layer,
    self_time_by_name,
    union_length,
)
from tracing import SpanRecorder


# ---- percentiles with at least ten samples beyond them ----------------
@pytest.mark.parametrize(
    "q, n_min", [(50, 20), (90, 100), (95, 200), (99, 1000)]
)
def test_min_samples_leaves_ten_beyond(q, n_min):
    assert min_samples(q) == n_min
    assert samples_beyond(n_min, q) >= 10
    assert samples_beyond(n_min - 1, q) < 10


@pytest.mark.parametrize("q", [50, 90, 95])
def test_percentile_refuses_unsupported_tail(q):
    n = min_samples(q)
    assert percentile(list(range(n - 1)), q) is None
    assert percentile(list(range(n)), q) is not None
    assert percentile([], q) is None


def test_supported_percentile_has_ten_samples_above_it():
    values = np.arange(1.0, 101.0)  # 1..100
    p90 = percentile(values, 90)
    assert p90 == pytest.approx(np.percentile(values, 90))
    assert int((values > p90).sum()) == 10


def test_percentile_ignores_order():
    rng = np.random.default_rng(3)
    values = rng.random(250)
    shuffled = rng.permutation(values)
    assert percentile(values, 95) == percentile(shuffled, 95)


# ---- self time by interval subtraction ---------------------------------
def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 6), (4, 3)]) == 4.0
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0


def test_self_time_without_children_is_duration():
    assert self_time(2.0, 5.0, []) == 3.0


def test_self_time_subtracts_sequential_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == 6.0


def test_self_time_counts_overlapping_worker_children_once():
    # two worker threads' children overlap on [3, 4]; a third spills
    # past the parent's end and only its inside part counts
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(10 - 5 - 2)


def test_self_time_clips_children_outside_parent():
    assert self_time(5.0, 6.0, [(0.0, 1.0), (7.0, 9.0)]) == 1.0
    assert self_time(5.0, 6.0, [(0.0, 9.0)]) == 0.0


def test_self_time_by_name_and_layer():
    main, w1, w2 = 1, 2, 3
    spans = [
        # (id, name, start, end, parent, thread, request)
        (1, "fleet.scheduler:round", 0.0, 10.0, None, main, "r0"),
        (2, "fleet.engine:tick", 1.0, 6.0, 1, main, "r0"),
        (3, "cluster:cluster_windows_batch", 2.0, 4.0, 2, main, "r0"),
        # children recorded from worker threads, overlapping each other
        (4, "core.explain:explain_batch", 6.0, 9.0, 1, w1, "a"),
        (5, "core.explain:explain_batch", 7.0, 11.0, 1, w2, "b"),
        (6, "core.generator:generate", 7.5, 8.5, 5, w2, "b"),
    ]
    by_name = self_time_by_name(spans)
    # round: 10 - union([1,6], [6,9], [7,10 clipped]) = 10 - 9
    assert by_name["fleet.scheduler:round"] == pytest.approx(1.0)
    assert by_name["fleet.engine:tick"] == pytest.approx(3.0)
    assert by_name["cluster:cluster_windows_batch"] == pytest.approx(2.0)
    assert by_name["core.explain:explain_batch"] == pytest.approx(3.0 + 3.0)
    assert by_name["core.generator:generate"] == pytest.approx(1.0)
    by_layer = self_time_by_layer(spans)
    assert by_layer["core.explain"] == pytest.approx(6.0)
    assert layer_of("stream.wal:append") == "stream.wal"
    batch_ms = durations_ms(spans, "core.explain:explain_batch")
    assert batch_ms == [3000.0, 4000.0]
    assert sum(by_layer.values()) == pytest.approx(sum(by_name.values()))


# ---- the (tenant, region) join behind tick_to_cause_ms -----------------
def test_join_matches_keys_to_their_batch():
    handoffs = {("t1", 10.0, 20.0): 1.0, ("t2", 5.0, 9.0): 2.0}
    batches = [
        (1.5, 2.5, [("t1", 10.0, 20.0), ("warmup", 0.0, 1.0)]),
        (2.2, 3.0, [("t2", 5.0, 9.0)]),
    ]
    joined = join_tick_to_cause(handoffs, batches)
    assert [key for key, _w, _t in joined] == [
        ("t1", 10.0, 20.0),
        ("t2", 5.0, 9.0),
    ]
    (_, wait1, ttc1), (_, wait2, ttc2) = joined
    assert (wait1, ttc1) == pytest.approx((0.5, 1.5))
    assert (wait2, ttc2) == pytest.approx((0.2, 1.0))


def test_join_keeps_first_batch_and_needs_both_sides():
    key = ("t1", 10.0, 20.0)
    handoffs = {key: 1.0, ("never", 0.0, 1.0): 0.5}
    batches = [(2.0, 3.0, [key]), (4.0, 5.0, [key])]
    joined = join_tick_to_cause(handoffs, batches)
    assert joined == [(key, 1.0, 2.0)]
    # same tenant, different region: a different key
    other_region = [(2.0, 3.0, [("t1", 10.0, 21.0)])]
    assert join_tick_to_cause({key: 1.0}, other_region) == []


# ---- span recorder -----------------------------------------------------
class _Engine:
    def tick(self, x):
        return x + 1


def test_recorder_links_parents_per_thread_and_restores_patches():
    ticks = iter(range(1000))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    engine = _Engine()
    module = types.SimpleNamespace(helper=lambda: "h")
    rec.patch(engine, "tick", "fleet.engine")
    rec.patch(module, "helper", "cluster")
    rec.patch(_Engine, "tick", "never")  # class patch, shadowed by instance

    def round_body():
        module.helper()
        return engine.tick(1)

    assert rec.call("fleet.scheduler:round", ("round", 0), round_body) == 2
    worker = threading.Thread(target=module.helper)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    rec.unpatch()
    assert "tick" not in vars(engine)
    assert _Engine.tick is vars(_Engine)["tick"]
    assert module.helper() == "h"
    assert len(rec.spans) == 4  # nothing recorded after unpatch

    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span[1], []).append(span)
    (root,) = by_name["fleet.scheduler:round"]
    (tick,) = by_name["fleet.engine:tick"]
    helpers = by_name["cluster:helper"]
    assert root[4] is None and root[6] == ("round", 0)
    assert tick[4] == root[0] and tick[6] == ("round", 0)  # inherited
    in_round = [s for s in helpers if s[5] == root[5]]
    in_worker = [s for s in helpers if s[5] != root[5]]
    assert in_round[0][4] == root[0]
    assert in_worker[0][4] is None and in_worker[0][6] is None
