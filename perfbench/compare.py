"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py perfbench/out/parent.json perfbench/out/change.json

Both sets come from collect.py with the same seeds; runs are paired by
workload and seed.  For each workload and end-to-end metric it prints the
medians and quartiles of both sides, the ratio of the medians with its base,
and one verdict:

* improved: the change wins at least 9 of 10 pairs (ties count for
  neither), the medians differ by more than the base's IQR, and the change
  has no more failed cases on the workload than the base;
* regressed: the change's median is worse than the base's by more than the
  metric's bound;
* unresolved: the base's own spread (IQR over median) is wider than the
  bound, and not every change run beats every base run;
* unchanged: otherwise.

Each workload's line of failed cases gives both sides' counts.  Bounds and
directions come from the BENCHMARK.json next to this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def verdict(
    base: list[float], change: list[float], lower_is_better: bool, bound: float, more_failed: bool
) -> str:
    """Verdict for paired runs ``base[k]``/``change[k]`` of one metric.

    ``more_failed``: the change failed more cases than the base.
    """
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    q1, base_median, q3 = statistics.quantiles(base, n=4)
    change_median = statistics.median(change)
    gain = sign * (base_median - change_median)
    if wins >= WIN_SHARE * len(base) and gain > q3 - q1 and not more_failed:
        return "improved"
    if -gain > bound * base_median:
        return "regressed"
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if (q3 - q1) / base_median > bound and not all_better:
        return "unresolved"
    return "unchanged"


def paired(base_set: dict, change_set: dict, workload: str, metric: str):
    def by_seed(result_set):
        return {
            r["seed"]: r["metrics"][metric]
            for r in result_set["runs"]
            if r["workload"] == workload
        }

    base, change = by_seed(base_set), by_seed(change_set)
    seeds = sorted(set(base) & set(change))
    return [base[s] for s in seeds], [change[s] for s in seeds]


def failed_of(result_set: dict, workload: str) -> tuple[int, int]:
    """(failed, attempted) cases of a workload over all runs of a set."""
    runs = [r for r in result_set["runs"] if r["workload"] == workload]
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def report(base_set: dict, change_set: dict, bench: dict) -> list[str]:
    lines = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        (base_failed, base_attempted), (change_failed, change_attempted) = (
            failed_of(base_set, workload), failed_of(change_set, workload)
        )
        lines.append(
            f"{workload:<10} failed       base {base_failed} of {base_attempted}"
            f"  change {change_failed} of {change_attempted}"
        )
        for metric in bench["end_to_end"]:
            base, change = paired(base_set, change_set, workload, metric["name"])
            if len(base) < 2:
                lines.append(f"{workload:<10} {metric['name']:<12} no paired runs")
                continue
            result = verdict(
                base, change, metric["better"] == "lower", metric["bound"], change_failed > base_failed
            )
            bq1, bmed, bq3 = statistics.quantiles(base, n=4)
            cq1, cmed, cq3 = statistics.quantiles(change, n=4)
            unit = metric["unit"]
            lines.append(
                f"{workload:<10} {metric['name']:<12} {result:<10} "
                f"base {bmed:.4f} {unit} [{bq1:.4f}, {bq3:.4f}]  "
                f"change {cmed:.4f} {unit} [{cq1:.4f}, {cq3:.4f}]  "
                f"ratio {cmed / bmed:.3f} of base {bmed:.4f} {unit}  ({len(base)} pairs)"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    base_set = json.loads(args.base.read_text())
    change_set = json.loads(args.change.read_text())
    print("\n".join(report(base_set, change_set, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
