"""Run one benchmark workload, or all of them, and print the result.

    python3 perfbench/run.py --workload edit-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--workload all``
runs every workload, each in its own process, and prints one line each.
The full run record (machine, every round's samples, both metric sets) goes
to ``perfbench/work/runs/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import os

# One thread per process, set before numpy can be imported, and one fixed
# string-hash seed, so dict layouts do not differ from process to process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if os.environ.get("PYTHONHASHSEED") != "0":
    import sys

    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("edit-large", "io-large", "verify-small")


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat, or zeros."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def run_all(args) -> int:
    """Each workload in its own interpreter, one after the other."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 2
        print(f"{name}: {lines[-1]}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct and not failed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "bnmaint" / "__init__.py").is_file():
        print(f"error: no bnmaint sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import bnmaint

    if Path(bnmaint.__file__).resolve().parent != (SRC / "bnmaint").resolve():
        print(f"error: imported bnmaint from {bnmaint.__file__}", file=sys.stderr)
        return 2
    import workloads

    spec = workloads.SPECS[args.workload]
    runs = HERE / "work" / "runs"
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runs.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    steal0, total0 = _cpu_ticks()
    error = None
    try:
        record = workloads.measure(spec, args.seed, args.seconds, work, env, bool(args.trace))
    except Exception as e:  # noqa: BLE001 - reported: the run fails
        error = f"{type(e).__name__}: {e}"
        record = {"attempted": 1}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1, total1 = _cpu_ticks()

    record["machine"] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "steal_ticks": steal1 - steal0,
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
    }
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, error=error)
    stem = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"machine: {json.dumps(record['machine'])}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": record["attempted"],
                          "failed": 1, "metrics": {}}))
        return 1
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(f"rounds: {record['rounds']} in {record['measured_s']:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
