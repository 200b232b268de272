"""End-to-end benchmark of ParaMount: offline enumeration, online detection, dist.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package under ``src/`` is what gets
measured.  Workloads: ``enum-raytracer``, ``detect-hedc``, ``dist-d10k``
(see ``perfbench/README.md``).

This process builds the workload's input from ``--seed`` and counts its
consistent global states with the independent ideal counter
(``count_ideals``, cached by poset digest under ``.perfbench_out/``).  It
then runs trials for about ``--seconds``: each trial is a fresh process
(``trial.py``) that sets the workload up as one user invocation would and
repeats its call for ``CALL_SECONDS``, checking every result against that
count.

``--trace 0`` reports the end-to-end metrics over untraced trials: the
median call wall time over every call of the run and states/s, and the
median set-up time and peak RSS over trials.  ``--trace 1`` alternates
untraced and traced trials (one call each) and reports the per-layer
metrics of the median traced trial, whose spans it keeps under
``.perfbench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fewest trials of each kind (untraced, traced) in one run.
MIN_TRIALS = {0: 3, 1: 2}
#: How long an untraced trial repeats its call.  A shared host's speed
#: drifts by tens of percent over seconds, so the median call of a run is
#: steady only if calls fill most of the run: a fresh process per call
#: would spend a third of the run on start-up and set-up instead.
CALL_SECONDS = 6.0
#: No trial starts later than this many seconds into the run.
DEADLINE_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "states_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def oracle_states(wl, program_seed: int) -> int:
    """``count_ideals`` of the workload's input, cached by poset digest."""
    from repro.enumeration.counting import count_ideals
    from repro.resilience.checkpoint import poset_digest

    poset = wl.oracle_poset(program_seed)
    digest = poset_digest(poset)
    cache_path = OUT / "oracle.json"
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    if digest not in cache:
        cache[digest] = count_ideals(poset)
        OUT.mkdir(exist_ok=True)
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, indent=0, sort_keys=True))
        tmp.replace(cache_path)
    return cache[digest]


def run_trial(argv, workdir: Path, timeout: float) -> dict:
    """Run one trial process; its report, or one naming its failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "trial.py"), *argv, "--workdir", str(workdir)],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the trial's whole process group, its dist workers too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return failed_trial(f"trial timed out after {timeout:.0f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return failed_trial(f"trial exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return failed_trial(f"unreadable trial report: {lines[-1][:200]}")


def failed_trial(problem: str) -> dict:
    """The report of a trial that ended without one: one failed call."""
    return {"problems": [problem], "walls": [], "failed": 1}


def tail_note(walls) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 20:
        return f"n={n}; no percentile above p50 has 10 samples beyond it"
    q = int(100 * (1 - 10 / n))
    cut = statistics.quantiles(walls, n=100, method="inclusive")[q - 1]
    return f"n={n}; p{q} {cut:.4f} s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (SRC / "repro").is_dir():
        print(f"error: no package to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    program_seed = wl.program_seed(args.seed)
    expected = oracle_states(wl, program_seed)
    print(
        f"{wl.name}: seed {args.seed} -> program seed {program_seed}, "
        f"{expected:,} states (count_ideals)"
    )

    tag = f"{wl.name}-seed{args.seed}"
    common = [
        "--workload", wl.name,
        "--program-seed", str(program_seed),
        "--expected-states", str(expected),
    ]
    plain, traced = [], []
    began = time.monotonic()
    overhead = 0.0  # the longest start-up and set-up of a trial so far
    while True:
        n = len(plain) + len(traced)
        left = args.seconds - (time.monotonic() - began)
        # the last trial's calls end near the end of the run
        extra = ["--call-seconds", f"{min(CALL_SECONDS, left - overhead):.3f}"]
        if args.trace and n % 2 == 1:
            extra = ["--traced", "--spans-out", str(OUT / f"spans-{tag}-{n}.jsonl")]
            if wl.lattice and not traced:
                extra.append("--lattice")
        timeout = started + DEADLINE_S + 25.0 - time.monotonic()
        t0 = time.monotonic()
        report = run_trial(common + extra, OUT / f"work-{tag}-{n}", timeout)
        overhead = max(overhead, time.monotonic() - t0 - sum(report["walls"]))
        report["spans"] = extra[2] if "--traced" in extra else None
        (traced if report["spans"] else plain).append(report)
        n += 1
        elapsed = time.monotonic() - began
        walls = [w for r in plain + traced for w in r["walls"]]
        next_trial = overhead + (statistics.median(walls) if walls else 0.0)
        enough = min(len(plain), len(traced) if args.trace else n) >= MIN_TRIALS[args.trace]
        if enough and elapsed + next_trial > args.seconds:
            break
        if time.monotonic() - started > DEADLINE_S:
            break

    reports = plain + traced
    problems = [p for r in reports for p in r["problems"]]
    for problem in problems:
        print(f"FAILED: {problem}")
    attempted = sum(max(len(r["walls"]), r["failed"]) for r in reports)
    failed = sum(r["failed"] for r in reports)
    ok_plain = [r for r in plain if not r["problems"]]
    ok_traced = [r for r in traced if not r["problems"]]
    for r in ok_traced:
        r["wall_s"] = r["walls"][0]
    walls = [w for r in ok_plain for w in r["walls"]]

    metrics = {}
    if args.trace and ok_plain and ok_traced:
        ok_traced.sort(key=lambda r: r["wall_s"])
        median = ok_traced[(len(ok_traced) - 1) // 2]
        values = dict(median["metrics"])
        values["trace.overhead"] = (
            statistics.median(r["wall_s"] for r in ok_traced)
            / statistics.median(walls)
            - 1.0
        )
        lattice = [r["lattice_s"] for r in ok_traced if "lattice_s" in r]
        if lattice:
            values["kernel.lattice_states_per_s"] = expected / lattice[0]
            values["kernel.driver_gap"] = statistics.median(walls) / lattice[0]
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in layers.METRICS.items()
        }
        Path(median["spans"]).replace(OUT / f"spans-{tag}.jsonl")
    elif not args.trace and ok_plain:
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "states_per_s": expected / wall,
            "setup_s": statistics.median(r["setup_s"] for r in ok_plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_plain),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
        print(f"wall_s is the median call: {tail_note(walls)}")
    for r in traced:  # the median trial's spans were moved already
        Path(r["spans"]).unlink(missing_ok=True)

    for name, metric in metrics.items():
        print(f"  {name:<28}{metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':<28}{failed / attempted:>16.6g}   ({failed}/{attempted} calls)")
    print(json.dumps({
        "correct": bool(metrics) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
