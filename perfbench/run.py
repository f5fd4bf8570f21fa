"""portlogic benchmark: time to a verdict on the paper's audit sweeps.

    python3 perfbench/run.py --workload collapse --seed 1 --seconds 20 --trace 0

Workloads: collapse, roundtrip, certify (see perfbench/README.md).  One run
builds the workload's inputs from ``--seed`` (cold, several times), then runs
the sweep of self-checking cases again and again until ``--seconds`` have
passed, in this one process and thread.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
sweeps for ``--seconds``, then builds the inputs again and runs one sweep
with every layer wrapped (see tracing.py), prints the per-layer metrics and
writes the spans to ``perfbench/out/``.  The last line of the output is
always one JSON object: correct, attempted, failed and metrics.

Times are CPU time of the one thread that runs everything
(``time.thread_time``), which on a virtual machine leaves out the time the
host takes the CPU away, and they are reported at reference speed.  (While a
CPU-time timer is armed, Linux samples the process-wide CPU clock only at
scheduler ticks; the thread's clock stays exact.)  On a shared virtual
machine the CPU speed can change by a factor of two within seconds (seen on
a 2-vCPU VM), so while a piece of work (a set-up or a sweep) is timed, a
CPU-time timer interrupts it every ``CHUNK_S`` CPU seconds to run a
calibration: a fixed pure-Python loop that shares no code with portlogic
(see ``RefClock``).  The unscaled times are printed next to the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
# set up at least SETUP_REPEATS times; a short set-up is repeated until
# SETUP_MIN_S CPU seconds of set-up, at most SETUP_MAX_REPEATS times
SETUP_REPEATS, SETUP_MAX_REPEATS = 3, 9
SETUP_MIN_S = 2.0
# timed work is calibrated again after every this many CPU seconds
CHUNK_S = 0.25
# about one calibration round's CPU time on the baseline machine (see README.md)
CALIBRATION_NOMINAL_S = 0.067
WORKLOAD_NAMES = ("collapse", "roundtrip", "certify")
# String hashes, and so the order of sets and dicts, change how much work
# refinement and merge refutation do: with random hashes the certify p97 of
# one input ranged from 12.3 to 15.3 ms between processes.  Pinned, runs
# differ only by their --seed.
HASH_SEED = "0"
EXIT_USAGE = 2


def _calibration_work() -> int:
    counts: dict = {}
    total = 0
    for i in range(40_000):
        key = (i & 15, i >> 4 & 7, "m")
        counts[key] = counts.get(key, 0) + 1
        total += len(repr(key))
    return total


def calibration_s() -> float:
    """CPU seconds of one round of the fixed calibration loop."""
    began = thread_time()
    _calibration_work()
    return thread_time() - began


class RefClock:
    """Work CPU time of this thread, and its conversion to reference seconds.

    Inside ``with RefClock() as clock`` the clock calibrates on entry, on
    exit and, from a ``SIGPROF`` timer, after every ``interval`` CPU seconds
    of work, also in the middle of a long call.  ``now()`` is the thread's
    CPU time less the time spent calibrating.  ``to_ref`` converts it to
    seconds at reference speed: each stretch of work between two
    calibrations is multiplied by ``CALIBRATION_NOMINAL_S`` over the mean of
    their round times.  With ``interval`` 0 the clock calibrates on entry
    and exit only, so that no calibration lands inside a traced span.
    """

    def __init__(self, interval: float = CHUNK_S):
        self.interval = interval
        self.calibration_cpu = 0.0
        self.points: list[tuple[float, float]] = []  # (work clock, round seconds)

    def now(self) -> float:
        while True:
            spent = self.calibration_cpu
            cpu = thread_time()
            if self.calibration_cpu == spent:  # no calibration ran in between
                return cpu - spent

    def _calibrate(self, *_):
        began = thread_time()
        round_s = calibration_s()
        self.points.append((began - self.calibration_cpu, round_s))
        self.calibration_cpu += thread_time() - began
        if self.interval:
            signal.setitimer(signal.ITIMER_PROF, self.interval)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._calibrate)
        self._calibrate()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.interval = 0
        signal.signal(signal.SIGPROF, self._previous)
        self._calibrate()

    def to_ref(self, work: float) -> float:
        """Reference seconds from entry to work clock ``work``."""
        ref = 0.0
        for (w0, c0), (w1, c1) in zip(self.points, self.points[1:]):
            if work <= w0:
                break
            ref += (min(work, w1) - w0) * 2 * CALIBRATION_NOMINAL_S / (c0 + c1)
        return ref


def calibrated(work, interval: float = CHUNK_S):
    """Run ``work()`` on a ``RefClock``: (result, CPU seconds, reference seconds)."""
    with RefClock(interval) as clock:
        began = clock.now()
        result = work()
        ended = clock.now()
    return result, ended - began, clock.to_ref(ended) - clock.to_ref(began)


@dataclass
class Sweep:
    """One pass over the cases.  ``verdict_s`` and ``latencies`` are at
    reference speed, ``cpu`` is unscaled."""

    cpu: float = 0.0
    verdict_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def scale(self) -> float:
        return self.verdict_s / self.cpu if self.cpu else 1.0


def run_sweep(cases, interval: float = CHUNK_S) -> Sweep:
    """Run every case once on a ``RefClock``; a wrong verdict or an
    exception marks it failed.  Calibration time is not part of the sweep."""
    result = Sweep()
    marks = []
    with RefClock(interval) as clock:
        start = clock.now()
        for case in cases:
            began = clock.now()
            try:
                observed, expected = case.check()
                reason = None if observed == expected else f"observed {observed!r}, expected {expected!r}"
            except Exception as exc:  # the sweep must reach its verdict on every case
                reason = f"raised {type(exc).__name__}: {exc}"
            marks.append((began, clock.now()))
            if reason is not None:
                result.failures.append((case.label, reason))
        end = clock.now()
    ref = clock.to_ref
    result.cpu = end - start
    result.verdict_s = ref(end) - ref(start)
    result.latencies = [ref(e) - ref(b) for b, e in marks]
    return result


def tail_percentile(n: int) -> int:
    """Highest whole percentile (at most 99) with at least ten of n samples beyond it."""
    return max(50, min(99, math.floor(100 - 1000 / n))) if n else 50


def percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def sweeps_for(cases, seconds: float) -> list[Sweep]:
    """Sweeps until ``seconds`` of wall time pass; none that would end half a sweep late."""
    sweeps = []
    start = perf_counter()
    while True:
        began = perf_counter()
        sweeps.append(run_sweep(cases))
        now = perf_counter()
        if now - start + (now - began) / 2 >= seconds:
            return sweeps


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workloads, name: str, seed: int, seconds: float):
    setup = workloads.WORKLOADS[name]
    setups = []
    while len(setups) < SETUP_MAX_REPEATS and (
        len(setups) < SETUP_REPEATS or sum(cpu for _, cpu in setups) < SETUP_MIN_S
    ):
        cases = None
        workloads.clear_caches()
        cases, cpu, ref = calibrated(partial(setup, seed))
        setups.append((ref, cpu))
    sweeps = sweeps_for(cases, seconds)
    n = len(cases)
    tail = tail_percentile(n)
    attempted = n * len(sweeps)
    failed = sum(len(s.failures) for s in sweeps)
    median = statistics.median
    # pooled over the sweeps: a sweep whose tail ran slow moves the pooled
    # percentile less than it moves a median of two per-sweep percentiles
    latencies = [latency for s in sweeps for latency in s.latencies]
    metrics = {
        "setup_s": median(s for s, _ in setups),
        "verdict_s": median(s.verdict_s for s in sweeps),
        "case_p50_ms": percentile(latencies, 50) * 1e3,
        "case_p99_ms": percentile(latencies, tail) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_setup, raw_verdict = median(c for _, c in setups), median(s.cpu for s in sweeps)
    notes = {
        "setup_s": f"median of {len(setups)} cold set-ups ({raw_setup:.4f} s unscaled)",
        "verdict_s": f"median of {len(sweeps)} sweeps of {n} cases ({raw_verdict:.4f} s unscaled)",
        "case_p50_ms": f"p50 of {len(latencies)} cases ({len(sweeps)} sweeps of {n})",
        "case_p99_ms": f"p{tail} of {len(latencies)} cases ({len(sweeps)} sweeps of {n})",
        "peak_rss_mb": "process peak resident set",
    }
    lines = [f"{name}: seed {seed}, {len(sweeps)} sweeps x {n} cases, times at reference speed"]
    for key, value in metrics.items():
        lines.append(f"  {key:<12} {value:12.4f} {UNITS[key]:<3} {notes[key]}")
    lines.append(f"  {'error_rate':<12} {failed / attempted:12.4f} ratio {failed} of {attempted} cases failed")
    return metrics, attempted, [f for s in sweeps for f in s.failures], lines


def traced_run(workloads, name: str, seed: int, seconds: float):
    from tracing import Tracer, layer_metrics

    setup = workloads.WORKLOADS[name]
    workloads.clear_caches()
    cases = setup(seed)
    untraced = sweeps_for(cases, seconds)
    cases = None
    workloads.clear_caches()
    tracer = Tracer()
    with tracer:
        cases, cpu, ref = calibrated(partial(setup, seed), interval=0)
        setup_stats = tracer.snapshot(ref / cpu)
        tracer.start_phase("sweep")
        traced = run_sweep(cases, interval=0)
        sweep_stats = tracer.snapshot(traced.scale)
    layers = layer_metrics(setup_stats, sweep_stats)
    if name == "roundtrip":
        mismatches, outputs = workloads.heldout_mismatches(seed)
    else:
        mismatches, outputs = 0, 0
    layers["compiler.decompile.heldout_mismatches"] = mismatches
    layers["compiler.decompile.heldout_outputs"] = outputs
    untraced_verdict = statistics.median(s.verdict_s for s in untraced)
    layers["trace.verdict_s"] = traced.verdict_s
    layers["trace.untraced_verdict_s"] = untraced_verdict
    layers["trace.overhead"] = traced.verdict_s / untraced_verdict
    layers["trace.layers_self_s"] = sweep_stats["attributed_s"]
    layers["trace.unattributed_s"] = traced.verdict_s - sweep_stats["attributed_s"]
    layers["trace.spans"] = len(tracer.spans)
    spans_path = OUT / f"spans-{name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    sweeps = untraced + [traced]
    attempted = len(cases) * len(sweeps)
    failures = [f for s in sweeps for f in s.failures]
    lines = [f"{name}: seed {seed}, traced sweep of {len(cases)} cases, spans in {spans_path}"]
    for key, value in layers.items():
        lines.append(f"  {key:<44} {value:16.6f} {UNITS[key]}")
    return layers, attempted, failures, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import portlogic
    except ImportError as exc:
        print(f"error: cannot import portlogic from {SRC}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if Path(portlogic.__file__).resolve().parent.parent != SRC:
        print(f"error: portlogic imported from {portlogic.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_USAGE
    import workloads

    run = traced_run if args.trace else timed_run
    metrics, attempted, failures, lines = run(workloads, args.workload, args.seed, args.seconds)
    for label, reason in failures[:10]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
