"""The benchmark's workloads and the timed rounds they share.

A workload is a list of generated cases (a network file plus its script).
One round runs, in order and each as one timed step: ``bnmaint validate`` on
every input file, ``bnmaint apply`` on every case, ``bnmaint diff`` between
every input and its output, the direct library edit calls of every script
(each call also timed alone), and the oracle checks of every transaction.
The CLI runs in-process through its click entry point with stdout captured.
Before each timed run garbage is collected and what survives is frozen, with
the collector left on; times are scaled to reference speed (speed.py).
Every round's outputs are checked; see checks.py.
"""

from __future__ import annotations

import contextlib
import gc
import io
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen
import speed
from spans import EDIT_FUNCTIONS, NullTracer, Tracer, instrumented

SMALL_NETWORKS = 24
MIN_SAMPLE_S = 0.3  # a step shorter than this is repeated within its round
SETUP_S = 5.0  # fresh interpreters are started for this long, at least
SETUP_RUNS = 11  # and at least this many times


@dataclass
class Spec:
    """A workload; BENCHMARK.json says why each one is there."""

    name: str
    cases: Callable[[int], list[gen.Case]]
    local_oracle: bool  # check families rather than whole joints
    faulted: bool = False  # also validate a copy with planted faults


SPECS = {
    s.name: s
    for s in (
        Spec("edit-large", lambda seed: [gen.edit_case(seed)], local_oracle=True),
        Spec("io-large", lambda seed: [gen.io_case(seed)], local_oracle=True, faulted=True),
        Spec("verify-small", lambda seed: gen.small_cases(seed, SMALL_NETWORKS),
             local_oracle=False),
    )
}


def run_cli(args: list[str], tracer, name: str) -> tuple[int, str]:
    """One ``bnmaint`` command in this process; returns (exit code, stdout)."""
    from bnmaint.cli import main

    out, err = io.StringIO(), io.StringIO()
    with tracer.span(name), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="bnmaint", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else int(e.code is not None)
    if code not in (0, 1):
        raise checks.CheckFailure(f"bnmaint {args[0]} exited {code}: {err.getvalue()[:300]}")
    return code, out.getvalue()


@dataclass
class Prepared:
    case: gen.Case
    net_path: Path
    script_path: Path
    out_path: Path
    report_path: Path
    net: object  # the input bnmaint Network
    calls: list[tuple[str, tuple, dict]] = field(default_factory=list)  # edits function, args


class Workload:
    def __init__(self, spec: Spec, seed: int, work: Path, tracer=None):
        from bnmaint import edits, netio

        self.spec = spec
        self.tracer = tracer or NullTracer()
        self.edits = edits
        self.prepared: list[Prepared] = []
        for case in spec.cases(seed):
            p = Prepared(
                case,
                work / f"{case.name}.json",
                work / f"{case.name}.script.json",
                work / f"{case.name}.out.json",
                work / f"{case.name}.report.csv",
                netio.loads(case.text),
            )
            p.net_path.write_text(case.text, encoding="utf-8")
            p.script_path.write_text(case.script_text, encoding="utf-8")
            for op in case.ops:
                args = op.args
                if op.call == "add_variable":
                    args = (checks.variable_of(args[0]),) + tuple(args[1:])
                p.calls.append((op.call, args, op.kwargs))
            self.prepared.append(p)
        self.validate_targets = [(str(p.net_path), 0) for p in self.prepared]
        self.planted: list[tuple[str, str]] = []
        if spec.faulted:
            text, self.planted = gen.faulted_text(self.prepared[0].case.net, seed)
            path = work / "faulted.json"
            path.write_text(text, encoding="utf-8")
            self.validate_targets.append((str(path), 1))
        self.first: dict | None = None
        self.transactions: list | None = None  # of the latest ops pass
        self.meter = speed.SpeedMeter()
        self.verify_tasks: list[Callable[[], None]] = []
        self.ops_per_round = sum(len(p.calls) for p in self.prepared)

    # -- one round ----------------------------------------------------------

    def _step(
        self, name: str, fn: Callable[[], object], reset: Callable[[], None] | None = None
    ) -> tuple[float, list, float]:
        """Run `fn` until MIN_SAMPLE_S has passed (at least once); return the
        median time of one run at reference speed, every run's result, and
        the scale. Before each run, untimed, `reset` restores the starting
        state, and a collection clears garbage and freezes what survives, so
        the collector, still on, works only on what the run itself
        allocates, as in a fresh process."""
        times, results = [], []
        clock, meter = time.perf_counter, self.meter
        start = clock()
        while not times or sum(times) < MIN_SAMPLE_S:
            if reset is not None:
                reset()
            gc.collect()
            gc.freeze()
            with self.tracer.span(f"bench.{name}"):
                t0 = clock()
                results.append(fn())
                t1 = clock()
            times.append(t1 - t0 - meter.probe_time(t0, t1))
        scale = meter.scale(start, clock())
        return statistics.median(times) * scale, results, scale

    def _validate(self) -> list[tuple[int, str]]:
        return [run_cli(["validate", path], self.tracer, "cli.validate")
                for path, _ in self.validate_targets]

    def _apply(self) -> list[tuple[int, str]]:
        return [
            run_cli(["apply", str(p.net_path), str(p.script_path), "-o", str(p.out_path),
                     "--report", str(p.report_path)], self.tracer, "cli.apply")
            for p in self.prepared
        ]

    def _remove_outputs(self) -> None:
        # every apply then writes new files, as the first one did; replacing
        # a file costs more and varies more on some disks (freed blocks)
        for p in self.prepared:
            p.out_path.unlink(missing_ok=True)
            p.report_path.unlink(missing_ok=True)

    def _diff(self) -> list[tuple[int, str]]:
        return [run_cli(["diff", str(p.net_path), str(p.out_path)], self.tracer, "cli.diff")
                for p in self.prepared]

    def _ops(self) -> tuple[list, list[tuple[float, float]]]:
        """Every script's direct library calls; returns the transactions and
        each call's (start, end)."""
        transactions, spans = [], []
        clock = time.perf_counter
        for p in self.prepared:
            cur, done = p.net, []
            for call, args, kwargs in p.calls:
                fn = getattr(self.edits, call)
                t0 = clock()
                t = fn(cur, *args, **kwargs)
                spans.append((t0, clock()))
                done.append(t)
                cur = t.after
            transactions.append(done)
        return transactions, spans

    def _ops_pass(self) -> list[tuple[float, float]]:
        """`_ops`, keeping only this pass's transactions: holding every
        pass's would make peak RSS grow with the passes a round makes."""
        self.transactions = None  # the last pass's, freed before the calls
        self.transactions, spans = self._ops()
        return spans

    def _latency(self, t0: float, t1: float) -> float:
        """One call's time at the speed of the quarter second around it."""
        meter = self.meter
        return (t1 - t0 - meter.probe_time(t0, t1)) * meter.scale(t0 - 0.25, t1 + 0.25)

    def _verify(self) -> int:
        for task in self.verify_tasks:
            with self.tracer.span("oracle.check"):
                task()
        return len(self.verify_tasks)

    def round(self) -> dict:
        validate_s, validated, s1 = self._step("validate", self._validate)
        apply_s, applied, s2 = self._step("apply", self._apply, self._remove_outputs)
        diff_s, diffed, s3 = self._step("diff", self._diff)
        _, passes, s4 = self._step("ops", self._ops_pass)
        transactions, self.transactions = self.transactions, None
        latencies = [self._latency(t0, t1) for calls in passes for t0, t1 in calls]
        if not self.verify_tasks:
            self._prepare_verify(transactions)
        verify_s, verified, s5 = self._step("verify", self._verify)
        if isinstance(self.tracer, Tracer):
            self._audit(transactions)
        for runs in (validated, applied, diffed):
            checks.require(all(r == runs[0] for r in runs), "outputs differ between runs")
        attempted = (sum(map(len, validated)) + sum(map(len, applied)) + sum(map(len, diffed))
                     + len(latencies) + sum(verified))
        validated, applied, diffed = validated[0], applied[0], diffed[0]
        counts = self._check(validated, applied, diffed, transactions)
        return {
            "validate_s": validate_s,
            "apply_s": apply_s,
            "diff_s": diff_s,
            "verify_s": verify_s,
            "latencies": latencies,
            "apply_out_kb": sum(len(out.encode()) for _, out in applied) / 1024,
            "report_lines": sum(out.count("\n") for _, out in applied),
            "attempted": attempted,
            "scale": statistics.median([s1, s2, s3, s4, s5]),
            **counts,
        }

    def _audit(self, transactions) -> None:
        from bnmaint import cost

        for done in transactions:
            for t in done:
                cost.audit_transaction(t)

    def _prepare_verify(self, transactions) -> None:
        for p, done in zip(self.prepared, transactions):
            self.verify_tasks += checks.oracle_tasks(
                p.case.ops, [t.before for t in done], [t.after for t in done],
                self.spec.local_oracle,
            )

    # -- output checks ------------------------------------------------------

    def _check(self, validated, applied, diffed, transactions) -> dict:
        from bnmaint import netio

        require = checks.require
        for (path, want), (code, out) in zip(self.validate_targets, validated):
            require(code == want, f"validate {path}: exit {code}, expected {want}")
            lines = out.splitlines()
            if want == 0:
                require(not lines, f"validate {path}: findings on a clean file")
            else:
                require(len(lines) == len(self.planted), f"validate {path}: {len(lines)} findings")
                for node, kind in self.planted:
                    require(any(node in l and kind in l for l in lines),
                            f"validate {path}: planted fault on {node} not reported")
        copied = elicited = 0
        for p, (code, out), (dcode, dout), done in zip(self.prepared, applied, diffed, transactions):
            require(code == 0, f"apply {p.case.name}: exit {code}")
            require(dcode == 1, f"diff {p.case.name}: exit {dcode}")
            for op, t in zip(p.case.ops, done):
                copied += checks.check_tables(op, t.before, t.after)
                checks.check_report(op, t.report)
                elicited += op.elicited_cells
            # diff must name every touched node but those it is known to
            # skip (checks.silent_in_diff), and no other; naming them too
            # passes
            named, touched = checks.diff_nodes(dout.splitlines()), p.case.touched
            missed = touched - checks.silent_in_diff(p.case) - named
            require(not missed and named <= touched,
                    f"diff {p.case.name}: misses {sorted(missed)[:5]}, "
                    f"names untouched {sorted(named - touched)[:5]}")
        out_texts = [p.out_path.read_text(encoding="utf-8") for p in self.prepared]
        if self.first is None:
            for p, done, text in zip(self.prepared, transactions, out_texts):
                final = done[-1].after
                require(text == netio.dumps(final),
                        f"apply {p.case.name}: output differs from the library result")
                require(netio.loads(text) == final, f"{p.case.name}: output does not load back equal")
                untouched = set(p.case.net.ids) - p.case.touched
                require(all(final.cpt(v).rows == p.net.cpt(v).rows for v in untouched),
                        f"{p.case.name}: an untouched table changed")
                require(netio.dumps(p.net) == p.case.text,
                        f"{p.case.name}: dumps(loads(text)) != text")
            self._first_round_checks(transactions)
            self.first = {"applied": applied, "diffed": diffed, "out": out_texts}
        else:
            require(applied == self.first["applied"] and diffed == self.first["diffed"]
                    and out_texts == self.first["out"], "outputs differ between rounds")
        return {"cells_copied": copied, "cells_elicited": elicited}

    def _first_round_checks(self, transactions) -> None:
        """Once per run: the oracle against a pure-Python chain rule, and a
        perturbed reused cell per small network must fail its check."""
        if self.spec.local_oracle:
            return
        checks.check_joint_against_chain_rule(transactions[0][-1].after)
        for p, done in zip(self.prepared, transactions):
            # the first successor completion belongs to the ignored-outcome
            # group, whose row 0 is conditioned on an old outcome
            i = next(i for i, op in enumerate(p.case.ops) if op.check["rule"] == "successor")
            op = p.case.ops[i]
            g = i
            while done[g].before.stale:
                g -= 1
            complete = next(t.after for t in done[i:] if not t.after.stale)
            node = op.check["node"]
            bad = checks.with_perturbed_cell(complete, node, 0)
            try:
                checks.check_successor_oracle(
                    done[g].before, bad, node, op.check["parent"], op.check["old"])
            except checks.CheckFailure:
                continue
            raise checks.CheckFailure(f"{p.case.name}: perturbed reused cell of {node} not detected")


# ---------------------------------------------------------------------------
# set-up time: a fresh interpreter importing the CLI
# ---------------------------------------------------------------------------

IMPORT_PROBE = (
    "import sys, time\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import bnmaint.cli\n"
    "print(time.perf_counter() - t, len(sys.modules) - n)\n"
)


def fresh_imports(env: dict) -> tuple[float, float, int]:
    """Median wall time of a fresh interpreter running ``import bnmaint.cli``,
    and the median import time and module count it reports itself, both at
    reference speed (the probes run in this process while it waits), over
    SETUP_S seconds of interpreters started one after the other."""
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(cmd, env=env, check=True, capture_output=True)  # byte-compile once
    walls, imports, modules = [], [], 0
    with speed.SpeedMeter() as meter:
        start = time.perf_counter()
        while len(walls) < SETUP_RUNS or time.perf_counter() - start < SETUP_S:
            t0 = time.perf_counter()
            done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            t, modules = done.stdout.split()
            imports.append(float(t))
        scale = meter.scale(start, time.perf_counter())
    return statistics.median(walls) * scale, statistics.median(imports) * scale, int(modules)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(rounds: list[dict], setup_s: float) -> dict[str, tuple[float, str]]:
    med = lambda key: statistics.median(r[key] for r in rounds)  # noqa: E731
    lat = [x * 1e3 for r in rounds for x in r["latencies"]]
    return {
        "setup_s": (setup_s, "s"),
        "validate_s": (med("validate_s"), "s"),
        "apply_s": (med("apply_s"), "s"),
        "diff_s": (med("diff_s"), "s"),
        "op_ms": (statistics.median(lat), "ms"),
        "op_ms_p90": (p90(lat), "ms"),
        "verify_s": (med("verify_s"), "s"),
        "apply_out_kb": (med("apply_out_kb"), "KiB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(
    spans: list[dict], bounds: list[tuple[int, int]], rounds: list[dict],
    import_s: float, modules: int, ops_per_round: int, meter: speed.SpeedMeter,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of each round (`bounds` are index
    ranges into `spans`), scaled to reference speed by the round's scale.
    Per-call figures pool every round's calls; per-round totals take the
    median over rounds. A span's self time is its duration minus the named
    child spans."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s) -> float:
        return s["end"] - s["start"] - meter.probe_time(s["start"], s["end"])

    def self_time(s, *prefixes: str) -> float:
        return dur(s) - sum(dur(c) for c in children.get(s["id"], [])
                            if c["name"].startswith(prefixes))

    # a short step runs several times per round; its totals count once
    step = [s["name"] if s["parent"] is None else None for s in spans]
    for s in spans:
        if s["parent"] is not None:
            step[s["id"]] = step[s["parent"]]
    pooled: dict[str, list[float]] = {}
    totals: dict[str, list[float]] = {}
    for (lo, hi), r in zip(bounds, rounds):
        k = r["scale"]
        runs = Counter(step[s["id"]] for s in spans[lo:hi] if s["parent"] is None)
        tot: dict[str, float] = {}

        def add(key, value):
            pooled.setdefault(key, []).append(value * k)

        def inc(key, value, scaled=True):
            share = (k if scaled else 1.0) / runs[step[s["id"]]]
            tot[key] = tot.get(key, 0.0) + value * share

        for s in spans[lo:hi]:
            name, d = s["name"], dur(s)
            parent = spans[s["parent"]]["name"] if s["parent"] is not None else ""
            if name == "cli.apply":
                inc("cli.report_s", self_time(
                    s, "netio.load_network", "network.validate_network",
                    "script.apply_script", "netio.save_network"))
            elif name == "netio.loads":
                inc("netio.loads_s", d)
            elif name == "netio.dumps":
                inc("netio.dumps_s", d)
            elif name == "network.validate_network":
                if parent.startswith("cli."):
                    inc("network.validate_s", d)
                else:
                    add("network.validate_ms_per_op", d * 1e3)
            elif name == "network.children":
                add("network.children_us", d * 1e6)
            elif name == "network.cycle_check":
                add("network.cycle_check_ms", d * 1e3)
            elif name == "script.apply_script":
                inc("script.apply_s", d)
                inc("script.resolve_ms_per_op", self_time(s, "edits.") * 1e3 / ops_per_round)
            elif name.startswith("edits."):
                add(f"{name}_ms", d * 1e3)
                add("edits.self_ms_per_op", self_time(s, "network.validate_network") * 1e3)
            elif name == "cost.audit_transaction":
                add("cost.audit_ms_per_op", d * 1e3)
            elif name == "cost.aggregate_reports":
                add("cost.aggregate_ms", d * 1e3)
            elif name == "oracle.joint_distribution":
                add("oracle.joint_ms", d * 1e3)
                inc("oracle.joint_cells", s.get("cells", 0), scaled=False)
            elif name == "oracle.check":
                add("oracle.check_ms", d * 1e3)
            elif name == "diff.diff_networks":
                inc("diff.diff_s", d)
                inc("diff.entries", s.get("entries", 0), scaled=False)
        for key, value in tot.items():
            totals.setdefault(key, []).append(value)

    med_total = lambda k: statistics.median(totals.get(k, [0.0]))  # noqa: E731
    med_pool = lambda k: statistics.median(pooled.get(k, [0.0]))  # noqa: E731
    out = {
        "cli.import_s": (import_s, "s"),
        "cli.modules_imported": (modules, "count"),
        "cli.report_s": (med_total("cli.report_s"), "s"),
        "cli.report_lines": (statistics.median(r["report_lines"] for r in rounds), "count"),
        "netio.loads_s": (med_total("netio.loads_s"), "s"),
        "netio.dumps_s": (med_total("netio.dumps_s"), "s"),
        "network.validate_s": (med_total("network.validate_s"), "s"),
        "network.validate_ms_per_op": (med_pool("network.validate_ms_per_op"), "ms"),
        "network.children_us": (med_pool("network.children_us"), "us"),
        "network.cycle_check_ms": (med_pool("network.cycle_check_ms"), "ms"),
        "script.apply_s": (med_total("script.apply_s"), "s"),
        "script.resolve_ms_per_op": (med_total("script.resolve_ms_per_op"), "ms"),
    }
    for kind in dict.fromkeys(EDIT_FUNCTIONS.values()):
        out[f"edits.{kind}_ms"] = (med_pool(f"edits.{kind}_ms"), "ms")
    out.update({
        "edits.self_ms_per_op": (med_pool("edits.self_ms_per_op"), "ms"),
        "edits.cells_copied": (statistics.median(r["cells_copied"] for r in rounds), "count"),
        "edits.cells_elicited": (statistics.median(r["cells_elicited"] for r in rounds), "count"),
        "cost.audit_ms_per_op": (med_pool("cost.audit_ms_per_op"), "ms"),
        "cost.aggregate_ms": (med_pool("cost.aggregate_ms"), "ms"),
        "oracle.joint_ms": (med_pool("oracle.joint_ms"), "ms"),
        "oracle.check_ms": (med_pool("oracle.check_ms"), "ms"),
        "oracle.joint_cells": (med_total("oracle.joint_cells"), "count"),
        "diff.diff_s": (med_total("diff.diff_s"), "s"),
        "diff.entries": (med_total("diff.entries"), "count"),
    })
    return out


def measure(spec: Spec, seed: int, seconds: float, work: Path, env: dict,
            traced: bool) -> dict:
    """Set up, run rounds for `seconds`, and return the run's record."""
    tracer = Tracer() if traced else None
    wall_s, import_s, modules = fresh_imports(env)
    workload = Workload(spec, seed, work, tracer)
    rounds, bounds = [], []
    guard = instrumented(tracer) if traced else contextlib.nullcontext()
    with guard, workload.meter:
        # whole rounds only; one starts if, judged by the last, it ends in time
        start = last = time.perf_counter()
        while not rounds or 2 * time.perf_counter() - last - start <= seconds:
            last = time.perf_counter()
            lo = len(tracer.spans) if traced else 0
            rounds.append(workload.round())
            bounds.append((lo, len(tracer.spans) if traced else 0))
    gc.unfreeze()
    record = {
        "rounds": len(rounds),
        "measured_s": time.perf_counter() - start,
        "attempted": sum(r["attempted"] for r in rounds),
        "end_to_end": end_to_end(rounds, wall_s),
        "samples": [{k: v for k, v in r.items() if k != "latencies"} for r in rounds],
    }
    if traced:
        record["per_layer"] = per_layer(tracer.spans, bounds, rounds, import_s, modules,
                                        workload.ops_per_round, workload.meter)
        record["tracer"] = tracer
    return record
