"""Per-layer metrics of one traced set-up or call, from its recorded spans.

A span belongs to the layer named by its category when the benchmark
recorded it (see ``workloads.py``), or by the table below when the program
recorded it itself.  Any other span is transparent: its time stays with
the span around it.

Self time is computed on the lane (thread) of the root span: a span's
duration minus the part of it its child spans cover.  The root's own
self time is the unattributed remainder, so the self times of all layers
plus ``unattributed`` add up to the root's duration exactly.  Work done on
other lanes (dist workers, coordinator reader threads) runs in parallel
with the root lane and is reported as its own busy time instead.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence

UNATTRIBUTED = "unattributed"

#: Layers whose self time partitions the traced call.
CALL_LAYERS = (
    "driver",
    "intervals",
    "scheduling",
    "kernel",
    "detector",
    "online",
    "predicate",
    "planner",
    "dist",
    "journal",
)

#: Layers whose self time partitions the traced set-up, with the metric
#: each one is reported as.
SETUP_LAYERS = {
    "import": "setup.import_s",
    "runtime": "runtime.capture_s",
    "hb": "hb.poset_s",
    "packed": "packed.build_s",
    "intervals": "intervals.compute_s",
}

_KNOWN = set(CALL_LAYERS) | set(SETUP_LAYERS)

#: Spans the program records itself: (category, name) -> layer.
_PROGRAM_SPANS = {
    ("plan", "compute_intervals"): "intervals",
    ("plan", "plan_schedule"): "scheduling",
    ("checkpoint", "load_checkpoint"): "journal",
    ("checkpoint", "flush"): "journal",
    ("schedule", "map_tasks"): "driver",
    ("clock", "append_stamped"): "online",
    ("detect", "detect"): "detector",
    ("capture", "run_program"): "runtime",
}

#: Every per-layer metric the traced run reports, with its unit.  A
#: metric of a layer that is not on a workload's path reads 0.
METRICS = {
    "trace.setup_s": "s",
    "setup.import_s": "s",
    "runtime.capture_s": "s",
    "hb.poset_s": "s",
    "hb.events": "count",
    "packed.build_s": "s",
    "intervals.compute_s": "s",
    "intervals.count": "count",
    "setup.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
    **{f"self.{layer}_s": "s" for layer in CALL_LAYERS},
    "self.unattributed_s": "s",
    "scheduling.plan_s": "s",
    "scheduling.tasks": "count",
    "scheduling.split_intervals": "count",
    "scheduling.imbalance": "ratio",
    "kernel.busy_s": "s",
    "kernel.states_per_busy_s": "1/s",
    "kernel.work": "count",
    "kernel.task_p50_ms": "ms",
    "kernel.task_p90_ms": "ms",
    "kernel.lattice_states_per_s": "1/s",
    "kernel.driver_gap": "ratio",
    "online.inserts": "count",
    "online.insert_p50_ms": "ms",
    "online.insert_p90_ms": "ms",
    "predicate.checks": "count",
    "predicate.check_s": "s",
    "planner.plan_s": "s",
    "dist.cold_start_s": "s",
    "dist.execute_s": "s",
    "dist.teardown_s": "s",
    "dist.redispatches": "count",
    "dist.leases_expired": "count",
    "dist.efficiency": "ratio",
    "dist.measured_speedup": "ratio",
    "dist.modeled_speedup": "ratio",
    "journal.records": "count",
    "journal.record_s": "s",
    "journal.bytes": "count",
}


def layer_of(span) -> Optional[str]:
    """The layer a span measures, or ``None`` for a transparent span."""
    if span.category == "enumerate":
        return "kernel"
    if span.category in _KNOWN:
        return span.category
    return _PROGRAM_SPANS.get((span.category, span.name))


def _end(span) -> float:
    return span.t0 + span.dt


def self_times(spans: Iterable, root) -> Dict[str, float]:
    """Self time per layer of the spans nested under ``root`` on its lane."""
    inside = sorted(
        (
            s
            for s in spans
            if s is not root
            and s.worker == root.worker
            and s.dt > 0
            and root.t0 <= s.t0 < _end(root)
        ),
        key=lambda s: (s.t0, -s.dt),
    )
    totals: Dict[str, float] = defaultdict(float)
    totals[UNATTRIBUTED] = root.dt
    # (layer, end) of the open spans; the root is the bottom of the stack
    stack = [(UNATTRIBUTED, _end(root))]
    for s in inside:
        while len(stack) > 1 and s.t0 >= stack[-1][1]:
            stack.pop()
        parent_layer, parent_end = stack[-1]
        end = min(_end(s), parent_end)
        layer = layer_of(s) or parent_layer
        totals[layer] += end - s.t0
        totals[parent_layer] -= end - s.t0
        stack.append((layer, end))
    return dict(totals)


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``seconds`` (inclusive method), in ms."""
    if not seconds:
        return 0.0
    if len(seconds) == 1:
        return seconds[0] * 1e3
    cuts = statistics.quantiles(seconds, n=100, method="inclusive")
    return cuts[round(q * 100) - 1] * 1e3


def _named(spans, lane: str, name: str) -> List:
    return [s for s in spans if s.worker == lane and s.name == name]


def setup_metrics(spans: Sequence, root, ready) -> Dict[str, float]:
    """Metrics of one traced set-up, whose root span is ``root``."""
    selfs = self_times(spans, root)
    metrics = {metric: selfs.get(layer, 0.0) for layer, metric in SETUP_LAYERS.items()}
    metrics["trace.setup_s"] = root.dt
    metrics["setup.unattributed_s"] = root.dt - sum(
        metrics[m] for m in SETUP_LAYERS.values()
    )
    metrics["intervals.count"] = ready.intervals
    metrics["hb.events"] = ready.poset.num_events if ready.poset is not None else 0
    return metrics


def call_metrics(spans: List, root, out, workers: int = 1) -> Dict[str, float]:
    """Metrics of one traced call, whose root span is ``root``.

    ``out`` is the workload's call output; ``workers`` the dist workers.
    """
    from repro.core.simulated import simulate_schedule
    from repro.obs.trace import Span

    lane = root.worker
    m: Dict[str, float] = {}

    # The planner records an instant when it has planned; the time from
    # the predicate factory's return to that instant is the planner's.
    factory = _named(spans, lane, "predicate_factory")
    plan = [s for s in spans if s.worker == lane and (s.category, s.name) == ("planner", "plan")]
    if factory and plan:
        t0 = _end(factory[0])
        spans = spans + [Span("DetectionPlanner.plan", "planner", t0, plan[0].t0 - t0, lane)]
        m["planner.plan_s"] = plan[0].t0 - t0

    selfs = self_times(spans, root)
    for layer in CALL_LAYERS:
        m[f"self.{layer}_s"] = selfs.get(layer, 0.0)
    m["self.unattributed_s"] = selfs[UNATTRIBUTED]
    m["trace.wall_s"] = root.dt
    m["trace.spans"] = len(spans)
    m["scheduling.plan_s"] = sum(s.dt for s in _named(spans, lane, "plan_schedule"))

    states = out["states"]
    result = out.get("result")
    if result is not None:
        seconds = [s.seconds for s in result.tasks]
        m["scheduling.tasks"] = len(result.tasks)
        m["scheduling.split_intervals"] = result.split_intervals
        m["scheduling.imbalance"] = result.schedule_imbalance()
        m["kernel.work"] = result.work
    else:
        # online path: one I(e) span per inserted event, preceded by the
        # append_stamped span that inserted it
        intervals = [s for s in spans if s.worker == lane and s.category == "enumerate"]
        appends = _named(spans, lane, "append_stamped")
        seconds = [s.dt for s in intervals]
        inserts = [
            _end(iv) - ap.t0 for ap, iv in zip(appends, intervals)
        ]
        m["online.inserts"] = len(appends)
        m["online.insert_p50_ms"] = percentile_ms(inserts, 0.5)
        m["online.insert_p90_ms"] = percentile_ms(inserts, 0.9)
        m["intervals.count"] = len(intervals)
        m["hb.events"] = out["report"].poset_events
        # every check runs inside an I(e) span: its time moves from the
        # kernel's self time to the predicate's
        checks = out["checks"]
        m["predicate.checks"] = checks.count
        m["predicate.check_s"] = checks.seconds
        m["self.kernel_s"] -= checks.seconds
        m["self.predicate_s"] += checks.seconds
    busy = sum(seconds)
    m["kernel.busy_s"] = busy
    m["kernel.states_per_busy_s"] = states / busy if busy > 0 else 0.0
    m["kernel.task_p50_ms"] = percentile_ms(seconds, 0.5)
    m["kernel.task_p90_ms"] = percentile_ms(seconds, 0.9)

    starts = _named(spans, lane, "Coordinator.start")
    if starts:
        execute = _named(spans, lane, "Coordinator.execute")[0]
        stop = _named(spans, lane, "Coordinator.stop")[0]
        dispatch = _named(spans, lane, "DistributedExecutor.map_tasks")[0]
        remote = [s for s in spans if s.worker != lane and s.category == "enumerate"]
        m["dist.cold_start_s"] = min(s.t0 for s in remote) - starts[0].t0
        m["dist.execute_s"] = execute.dt
        m["dist.teardown_s"] = _end(dispatch) - stop.t0
        m["dist.redispatches"] = result.redispatches
        m["dist.leases_expired"] = result.leases_expired
        m["dist.efficiency"] = busy / (workers * execute.dt)
        m["dist.measured_speedup"] = busy / root.dt
        model = simulate_schedule(seconds, workers)
        m["dist.modeled_speedup"] = model.total_busy / model.makespan
    if "records" in out:
        m["journal.records"] = len(out["records"])
        m["journal.bytes"] = out["journal_bytes"]
        m["journal.record_s"] = sum(
            s.dt for s in spans if s.name == "CheckpointJournal.record"
        )
    return m
