"""One trial: a fresh process that sets one workload up and runs its call.

    python3 perfbench/trial.py --workload NAME --program-seed N \\
        --expected-states N --workdir DIR --call-seconds S \\
        [--traced --spans-out PATH] [--lattice]

A trial starts as one user invocation does.  Set-up is timed from the
start of this process, before any ``repro`` import, to an input ready for
the call.  The call is then repeated on that input, each time from a fresh
``ParaMount`` (or detector, executor and journal) up to a result checked
against the oracle's state count, for as many calls as should end within
``--call-seconds`` (at least one); each call is timed on its own.
``--traced`` runs the call once and records spans of set-up and call
through the public ``observer=`` parameters, derives the per-layer metrics
from them and writes the spans to ``--spans-out``.  ``--lattice`` then
times the whole-lattice packed kernel on the same poset.

The last line of standard output is one JSON object with the timings, the
number of calls and of failed calls, any problems found by the checks, and
this process's peak resident set size.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

#: Whole-lattice kernel timings per ``--lattice`` trial (median reported).
LATTICE_REPS = 3


def peak_rss_mb() -> float:
    """This process's peak resident set size since its ``exec``.

    ``VmHWM`` belongs to the process's own address space.  ``ru_maxrss``
    would not do: the kernel carries the parent's high-water mark across
    fork and exec into it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def untraced(args, wl) -> dict:
    wl.imports()
    ready = wl.setup(args.program_seed)
    t_ready = time.perf_counter()
    walls, problems, failed = [], [], 0
    # another call only if it should end within the budget
    while not walls or time.perf_counter() - t_ready + walls[-1] <= args.call_seconds:
        workdir = args.workdir / f"call-{len(walls)}"
        workdir.mkdir()
        t0 = time.perf_counter()
        out = wl.call(ready, workdir)
        found = wl.check(out, args.expected_states)
        walls.append(time.perf_counter() - t0)
        del out  # the next call's peak memory must not include this result
        problems += found
        failed += bool(found)
    return {
        "ready": ready,
        "setup_s": t_ready - T_START,
        "walls": walls,
        "failed": failed,
        "problems": problems,
    }


def traced(args, wl) -> dict:
    wl.imports()
    from repro.obs import Observer
    from repro.obs.export import write_spans_jsonl

    t_imported = time.perf_counter()
    obs = Observer()
    ready = wl.setup(args.program_seed, obs)
    t_ready = obs.clock()
    obs.record("import", "import", T_START, t_imported - T_START)
    obs.record("setup", "bench", T_START, t_ready - T_START)
    with obs.span("call", "bench"):
        out = wl.call(ready, args.workdir, obs)
        problems = wl.check(out, args.expected_states)
    spans = obs.spans()
    setup_root = next(s for s in spans if (s.category, s.name) == ("bench", "setup"))
    call_root = next(s for s in spans if (s.category, s.name) == ("bench", "call"))
    metrics = layers.setup_metrics(spans, setup_root, ready)
    metrics.update(layers.call_metrics(spans, call_root, out, wl.workers))
    write_spans_jsonl(args.spans_out, spans)
    return {
        "ready": ready,
        "setup_s": setup_root.dt,
        "walls": [call_root.dt],
        "failed": int(bool(problems)),
        "problems": problems,
        "metrics": metrics,
    }


def lattice_seconds(poset) -> float:
    """Median wall of the whole-lattice packed kernel in counting mode."""
    from repro.enumeration.base import make_enumerator

    times = []
    for _ in range(LATTICE_REPS):
        t0 = time.perf_counter()
        make_enumerator("lexical-packed", poset).enumerate()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--program-seed", type=int, required=True)
    parser.add_argument("--expected-states", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--call-seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--lattice", action="store_true")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    report = traced(args, wl) if args.traced else untraced(args, wl)
    ready = report.pop("ready")
    report["peak_rss_mb"] = peak_rss_mb()
    if args.lattice:
        report["lattice_s"] = lattice_seconds(ready.poset)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
