"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload edit-large --seeds 1-10 --seconds 20

For every end-to-end metric this prints the median of the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound in BENCHMARK.json. Runs go
one after the other, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="LO-HI, inclusive")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    fails = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        fails.append((result["failed"], result["attempted"], result["correct"]))
        print(f"seed {seed}: exit {done.returncode} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':34s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:34s} {med:12.6g} {share:10.2%} {bound if bound else '':>6}{flag}")
    print("failed shares:", sorted({f / a for f, a, _ in fails}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
