"""The benchmark's three workloads: input, set-up, the timed call, its check.

Each workload turns a program seed into an input, sets that input up the
way a user's invocation would (capture, vector clocks, packed tables,
intervals), runs the one public call the workload stands for, and checks
the call's output against an oracle computed elsewhere.

Nothing here imports :mod:`repro` at module level: a trial process times
those imports as part of set-up, so every ``repro`` import sits inside the
function that needs it.

Traced calls pass a :class:`repro.obs.Observer` through the public
``observer=`` parameters, add spans around the public calls the benchmark
makes or hands in (``CheckpointJournal.record``,
``DistributedExecutor.map_tasks`` and the run's ``Coordinator``), and time
every check of the predicate handed to the detector.  Every benchmark
span's category is the name of the layer it measures.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

#: Variables hedc's crawler updates without synchronization, in the order
#: ``repro.workloads.hedc`` plants them; ``racy_updates=1`` plants the first.
HEDC_PLANTED_RACES = frozenset({"Stats.bytes"})


def span(obs, name: str, layer: str):
    """A span named ``name`` in category ``layer``; nothing when untraced."""
    return obs.span(name, layer) if obs is not None else contextlib.nullcontext()


@dataclass
class Ready:
    """A set-up input, ready for the timed call."""

    poset: Any = None
    trace: Any = None
    #: Partition intervals of the set-up ParaMount (0 on the online path).
    intervals: int = 0


class Workload:
    """One workload.  ``pool`` maps a benchmark seed to a program seed."""

    name = ""
    pool: tuple = ()
    #: Whether the traced run times the whole-lattice packed kernel too.
    lattice = False
    #: The ``repro`` modules the workload runs, imported as part of set-up.
    modules: tuple = ()
    #: Worker processes the call runs on (dist only).
    workers = 1

    def imports(self) -> None:
        for module in self.modules:
            importlib.import_module(module)

    def program_seed(self, seed: int) -> int:
        return self.pool[seed % len(self.pool)]

    def oracle_poset(self, program_seed: int):
        """The poset whose ideals the oracle counts: the set-up input's."""
        return self.setup(program_seed).poset

    def setup(self, program_seed: int, obs=None) -> Ready:
        raise NotImplementedError

    def call(self, ready: Ready, workdir: Path, obs=None) -> Dict[str, Any]:
        """The timed call, up to a result the check can read."""
        raise NotImplementedError

    def check(self, out: Dict[str, Any], expected_states: int) -> List[str]:
        """Problems with ``out``; empty when it matches the oracle."""
        problems = []
        if out["states"] != expected_states:
            problems.append(
                f"{out['states']} states, oracle counts {expected_states}"
            )
        return problems


def _check_offline(result, problems: List[str]) -> List[str]:
    if not result.complete:
        problems.append("run incomplete")
    if result.degradations:
        problems.append(f"degraded: {result.degradations}")
    return problems


class EnumRaytracer(Workload):
    """Serial counting on raytracer's raw poset: kernel-bound, and it
    carries the degenerate last-thread intervals."""

    name = "enum-raytracer"
    #: The capture seed does not change raytracer's events or clocks, but
    #: it does change the insertion order (the total order ParaMount
    #: partitions by), so the input is pinned to the default seed 6.
    pool = (6,)
    lattice = True
    modules = (
        "repro.core.paramount",
        "repro.detector.hb",
        "repro.runtime.scheduler",
        "repro.workloads.raytracer",
    )

    def setup(self, program_seed, obs=None):
        from repro.core.paramount import ParaMount
        from repro.detector.hb import poset_from_trace
        from repro.runtime.scheduler import run_program
        from repro.workloads.raytracer import build_raytracer

        with span(obs, "run_program", "runtime"):
            trace = run_program(build_raytracer(), seed=program_seed, observer=obs)
        with span(obs, "poset_from_trace", "hb"):
            poset = poset_from_trace(trace, merge_collections=False)
        with span(obs, "packed_tables", "packed"):
            poset.packed_tables()
        with span(obs, "ParaMount", "driver"):
            pm = ParaMount(poset, "lexical-packed", observer=obs)
        return Ready(poset=poset, intervals=len(pm.intervals))

    def call(self, ready, workdir, obs=None):
        from repro.core.paramount import ParaMount

        with span(obs, "ParaMount", "driver"):
            pm = ParaMount(ready.poset, "lexical-packed", observer=obs)
        with span(obs, "ParaMount.run", "driver"):
            result = pm.run()
        return {"states": result.states, "result": result}

    def check(self, out, expected_states):
        return _check_offline(out["result"], super().check(out, expected_states))


def _hedc_program():
    from repro.workloads.hedc import build_hedc

    return build_hedc(workers=11, tasks_per_worker=2, racy_updates=1)


class TimedChecks:
    """Builds the detector's default data-race predicate with every check
    timed.  Checks are summed rather than recorded as spans: there is one
    per enumerated state."""

    def __init__(self, obs):
        self.obs = obs
        self.count = 0
        self.seconds = 0.0

    def factory(self, report, benign_vars):
        from repro.predicates.data_race import DataRacePredicate

        with self.obs.span("predicate_factory", "predicate"):
            predicate = DataRacePredicate(
                filter_init=True, benign_vars=benign_vars, report=report
            )
        inner = predicate.check
        clock = self.obs.clock

        def check(cut, frontier, new_event=None):
            t0 = clock()
            try:
                return inner(cut, frontier, new_event=new_event)
            finally:
                self.seconds += clock() - t0
                self.count += 1

        predicate.check = check
        return predicate


class DetectHedc(Workload):
    """Online race detection: HB front-end, online inserts and the
    visitor-mode kernel feeding the data-race predicate."""

    name = "detect-hedc"
    #: hedc program seeds whose event-collection lattice is within 0.5% of
    #: the default seed 42's 25,959 states (seeds 0-119 scanned with
    #: count_ideals), so runs at different seeds time the same amount of
    #: work.
    pool = (42, 14, 20, 29, 35, 59, 60, 67, 114)
    modules = (
        "repro.detector.paramount_detector",
        "repro.runtime.scheduler",
        "repro.workloads.hedc",
    )

    def oracle_poset(self, program_seed):
        """The event-collection poset the detector builds from the trace."""
        from repro.detector.hb import poset_from_trace

        return poset_from_trace(self.setup(program_seed).trace, merge_collections=True)

    def setup(self, program_seed, obs=None):
        from repro.runtime.scheduler import run_program

        with span(obs, "run_program", "runtime"):
            trace = run_program(_hedc_program(), seed=program_seed, observer=obs)
        return Ready(trace=trace)

    def call(self, ready, workdir, obs=None):
        from repro.detector.paramount_detector import ParaMountDetector

        if obs is None:
            detector = ParaMountDetector()
            checks = None
        else:
            checks = TimedChecks(obs)
            detector = ParaMountDetector(
                observer=obs, predicate_factory=checks.factory
            )
        with span(obs, "ParaMountDetector.run", "detector"):
            report = detector.run(ready.trace)
        return {"states": report.states_enumerated, "report": report, "checks": checks}

    def check(self, out, expected_states):
        problems = super().check(out, expected_states)
        report = out["report"]
        if report.racy_vars != HEDC_PLANTED_RACES:
            problems.append(
                f"races on {sorted(report.racy_vars)}, planted "
                f"{sorted(HEDC_PLANTED_RACES)}"
            )
        if report.plan_route != "full_enumeration":
            problems.append(f"planner routed to {report.plan_route!r}")
        return problems


def _traced_dist_executor(obs, workers: int):
    """A ``DistributedExecutor`` whose run and coordinator record spans."""
    from repro.dist.executor import DistributedExecutor

    def wrap(name, fn):
        def traced(*args, **kwargs):
            with obs.span(name, "dist"):
                return fn(*args, **kwargs)

        return traced

    class TracedDistributedExecutor(DistributedExecutor):
        # The executor assigns each run's Coordinator to last_coordinator
        # before starting it; the setter wraps the coordinator's lifecycle.
        @property
        def last_coordinator(self):
            return self.__dict__.get("_coordinator")

        @last_coordinator.setter
        def last_coordinator(self, coord):
            if coord is not None:
                for method in ("start", "execute", "stop"):
                    setattr(
                        coord,
                        method,
                        wrap(f"Coordinator.{method}", getattr(coord, method)),
                    )
            self.__dict__["_coordinator"] = coord

        def map_tasks(self, tasks):
            with obs.span("DistributedExecutor.map_tasks", "dist"):
                return super().map_tasks(tasks)

    return TracedDistributedExecutor(workers=workers)


def _traced_record(obs, record):
    def traced(stats):
        with obs.span("CheckpointJournal.record", "journal"):
            return record(stats)

    return traced


def read_journal_records(path: Path) -> List[Dict[str, Any]]:
    """The interval records of a checkpoint journal, in file order."""
    records = []
    with path.open() as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec.get("kind") == "interval":
                    records.append(rec)
    return records


class DistD10k(Workload):
    """The dist backend as ``repro-tools enumerate --backend dist --resume``
    runs it: worker cold start, leases, wire, teardown, journal writes."""

    name = "dist-d10k"
    #: d-10k is RandomComputationSpec(10, 300, 1.0, seed).  These seeds'
    #: lattices are within 2% of the default seed 42's 271,770 states
    #: (seeds 0-159 scanned), so runs at different seeds time the same
    #: amount of work.
    pool = (42, 37, 40, 54, 66, 69, 72, 119, 123, 156, 159)
    lattice = True
    workers = 2
    modules = (
        "repro.core.paramount",
        "repro.dist.executor",
        "repro.poset.random_posets",
        "repro.resilience.checkpoint",
    )

    def setup(self, program_seed, obs=None):
        from repro.core.paramount import ParaMount
        from repro.poset.random_posets import (
            RandomComputationSpec,
            random_computation,
        )

        with span(obs, "random_computation", "hb"):
            poset = random_computation(
                RandomComputationSpec(10, 300, 1.0, program_seed)
            )
        with span(obs, "packed_tables", "packed"):
            poset.packed_tables()
        with span(obs, "ParaMount", "driver"):
            pm = ParaMount(
                poset, "lexical-packed", schedule="split-steal", observer=obs
            )
        return Ready(poset=poset, intervals=len(pm.intervals))

    def call(self, ready, workdir, obs=None):
        from repro.core.paramount import ParaMount
        from repro.dist.executor import DistributedExecutor
        from repro.resilience.checkpoint import CheckpointJournal

        journal_path = workdir / "journal.jsonl"
        journal = CheckpointJournal(journal_path)
        if obs is None:
            executor = DistributedExecutor(workers=self.workers)
        else:
            executor = _traced_dist_executor(obs, self.workers)
            journal.record = _traced_record(obs, journal.record)
        with span(obs, "ParaMount", "driver"):
            pm = ParaMount(
                ready.poset,
                "lexical-packed",
                schedule="split-steal",
                executor=executor,
                checkpoint=journal,
                observer=obs,
            )
        with span(obs, "ParaMount.run", "driver"):
            result = pm.run()
        records = read_journal_records(journal_path)
        return {
            "states": result.states,
            "result": result,
            "records": records,
            "journal_bytes": journal_path.stat().st_size,
        }

    def check(self, out, expected_states):
        result = out["result"]
        problems = _check_offline(result, super().check(out, expected_states))
        tasks = {(tuple(s.event), tuple(s.lo), tuple(s.hi)) for s in result.tasks}
        keys = [
            (tuple(r["event"]), tuple(r["lo"]), tuple(r["hi"]))
            for r in out["records"]
        ]
        if len(keys) != len(result.tasks) or set(keys) != tasks:
            problems.append(
                f"journal holds {len(keys)} records ({len(set(keys))} "
                f"distinct) for {len(result.tasks)} tasks"
            )
        return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (EnumRaytracer(), DetectHedc(), DistD10k())
}
