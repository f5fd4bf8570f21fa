"""Run the benchmark repeatedly and save the results as one result set.

    python3 perfbench/collect.py --runs 10 --out perfbench/out/base.json
    python3 perfbench/collect.py --runs 10 --checkout ../parent --checkout . \\
        --out perfbench/out/parent.json --out perfbench/out/change.json

Run k uses seed ``--first-seed + k`` on every workload of BENCHMARK.json,
untraced (``--trace 0``).  With several
checkouts, each seed is run on every checkout, and the order of the
checkouts alternates from one seed to the next.  Each checkout is run with
the command and ``run_seconds`` of its own BENCHMARK.json.  After
collecting, the spread of every end-to-end metric is printed: the distance
between the first and third quartiles as a share of the median, next to a
third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900


def load_benchmark(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def run_once(checkout: Path, bench: dict, workload: str, seed: int) -> dict:
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{command} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"] for name, entry in result.pop("metrics").items()}
    return {"workload": workload, "seed": seed, **result, "metrics": metrics}


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def spread_report(result_set: dict, bench: dict) -> list[str]:
    lines = []
    for workload in sorted({run["workload"] for run in result_set["runs"]}):
        runs = [r for r in result_set["runs"] if r["workload"] == workload]
        if len(runs) < 2:
            continue
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            median, share = spread(values)
            limit = metric["bound"] / 3
            flag = "ok" if share < limit else "WIDE"
            lines.append(
                f"{workload:<10} {metric['name']:<12} median {median:12.4f} {metric['unit']:<3}"
                f" spread {share:7.4f} (a third of bound {limit:.4f}) {flag}"
            )
        failed = sum(r["failed"] for r in runs)
        lines.append(f"{workload:<10} error_rate   {failed} of {sum(r['attempted'] for r in runs)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--checkout", action="append", type=Path, help="default: this checkout")
    parser.add_argument("--out", action="append", type=Path, required=True, help="one per checkout")
    args = parser.parse_args(argv)
    names = [str(c) for c in args.checkout] if args.checkout else ["."]
    checkouts = args.checkout or [Path(__file__).resolve().parent.parent]
    if len(args.out) != len(checkouts):
        parser.error("give one --out per --checkout")
    benches = [load_benchmark(c) for c in checkouts]
    workloads = [w["name"] for w in benches[0]["workloads"]]
    sets = [{"machine": machine_info(), "checkout": name, "runs": []} for name in names]
    for k in range(args.runs):
        seed = args.first_seed + k
        order = list(range(len(checkouts)))
        if k % 2:
            order.reverse()
        for workload in workloads:
            for i in order:
                run = run_once(checkouts[i], benches[i], workload, seed)
                sets[i]["runs"].append(run)
                print(f"{names[i]} {workload} seed {seed}: "
                      f"{json.dumps(run['metrics'])}", file=sys.stderr, flush=True)
    for result_set, path, bench in zip(sets, args.out, benches):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result_set, indent=1) + "\n")
        print(f"# {result_set['checkout']} -> {path}")
        print("\n".join(spread_report(result_set, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
