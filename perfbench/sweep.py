"""Per-op cost against network size: the reference sweep in README.md.

    python3 perfbench/sweep.py --seed 1

For 100, 400 and 1,600-node layered DAGs (fan-in 3, three outcomes) this
times ``netio.loads``, ``netio.dumps`` and ``apply_script`` on a script of 20
``replace_cpt`` ops, each the median of five repetitions, and prints one
table row per size. It is the shape of the baseline table in ROADMAP.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from bnmaint import netio  # noqa: E402
from bnmaint.script import apply_script  # noqa: E402

OPS = 20


def _median_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print("| nodes | CPT cells | loads | dumps | per-op apply_script |")
    print("|------:|----------:|------:|------:|--------------------:|")
    for n in (100, 400, 1600):
        net = gen.layered_dag(n, 3, 3, args.seed)
        rng = gen._rng("sweep", n, args.seed)
        builder = gen.ScriptBuilder(net, rng)
        for node in rng.sample(net.ids, OPS):
            builder.replace_cpt(node)
        text = net.text()
        ops = json.loads(json.dumps([op.record for op in builder.ops]))
        loaded = netio.loads(text)
        loads_s = _median_time(lambda: netio.loads(text))
        dumps_s = _median_time(lambda: netio.dumps(loaded))
        apply_s = _median_time(lambda: apply_script(loaded, ops))
        print(f"| {n:,} | {net.cells() / 1000:.1f}k | {loads_s:.3f} s | {dumps_s:.3f} s "
              f"| {apply_s / OPS * 1e3:.1f} ms |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
