"""Checks on the benchmark itself.

    python3 -m pytest perfbench/test_gate.py -q

The correctness gate must not be vacuous: a case with a wrong reference bit
and a case that raises each count as failed, and neither stops the sweep.
The metrics a run prints must be exactly the ones BENCHMARK.json lists.
The reference clock must calibrate inside long work and keep short cases
exact while its timer is armed.
"""

import json
import sys
import types
from functools import partial
from pathlib import Path
from time import thread_time

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from portlogic import machines, problems, simulate, smallgraphs  # noqa: E402
from portlogic.graphs import PortedGraph, star  # noqa: E402

import run  # noqa: E402
from workloads import Case, collapse_case, odd_odd_solution  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def gate_cases() -> list[Case]:
    g = star(3)
    pg = PortedGraph(g, smallgraphs.numberings(g, cap=1, samples=1, seed=0)[0])
    base = problems.odd_odd_machine(3)
    wrapped = simulate.set_from_multiset(base)
    solution = odd_odd_solution(g)
    wrong = dict(solution)
    wrong[0] ^= 1
    small = problems.odd_odd_machine(1)  # degree 1 < 3: run raises DegreeError
    return [
        Case("good", partial(collapse_case, base, wrapped, pg, 8, 6, solution)),
        Case("wrong-bit", partial(collapse_case, base, wrapped, pg, 8, 6, wrong)),
        Case("raises", partial(collapse_case, small, simulate.set_from_multiset(small), pg, 8, 2)),
    ]


def gate_workloads():
    return types.SimpleNamespace(WORKLOADS={"gate": lambda seed: gate_cases()}, clear_caches=lambda: None)


def test_wrong_reference_bit_and_raising_case_each_fail():
    sweep = run.run_sweep(gate_cases())
    assert [label for label, _ in sweep.failures] == ["wrong-bit", "raises"]
    assert "raised DegreeError" in sweep.failures[1][1]
    assert len(sweep.latencies) == 3


def spin(clock, cpu_s: float):
    end = clock() + cpu_s
    while clock() < end:
        pass
    return 0, 0


def test_ref_clock_calibrates_inside_long_work_and_keeps_short_cases_exact():
    with run.RefClock() as clock:
        began = clock.now()
        spin(clock.now, 3 * run.CHUNK_S)
        ended = clock.now()
    assert len(clock.points) >= 4  # entry, at least two from the timer, exit
    assert 3 * run.CHUNK_S <= ended - began < 3.5 * run.CHUNK_S
    assert clock.to_ref(ended) - clock.to_ref(began) > 0
    sweep = run.run_sweep([Case("short", partial(spin, thread_time, 0.001))] * 20)
    assert all(latency > 0 for latency in sweep.latencies)


def test_error_rate_counts_failed_cases_and_metrics_match_benchmark():
    metrics, attempted, failures, lines = run.timed_run(gate_workloads(), "gate", 0, 0.0)
    assert attempted == 3 and len(failures) == 2
    assert any("error_rate" in line and "2 of 3" in line for line in lines)
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def test_traced_run_reports_every_per_layer_metric_and_restores_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    original_run = machines.run
    metrics, attempted, failures, _ = run.traced_run(gate_workloads(), "gate", 0, 0.0)
    assert machines.run is original_run
    assert len(failures) == 4  # two failing cases, in the untraced and the traced sweep
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert metrics["machines.run.calls"] == 5  # the raising case's first run raises
    spans = [json.loads(line) for line in (tmp_path / "spans-gate-0.jsonl").read_text().splitlines()]
    assert {span[1] for span in spans} >= {"machines.run", "smallgraphs.numberings"}
