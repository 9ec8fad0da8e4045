"""In-memory spans around calls into bnmaint's layers.

A traced run installs wrappers on the public functions that one layer calls
in another (for example ``bnmaint.cli.apply_script`` or
``bnmaint.edits.validate_network``), so each call records a span with a name,
start, end and the span that caused it. Nothing under ``src/`` changes; the
wrappers live only for the traced run and are removed when it ends. Spans
stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        measure: Callable[[Any], dict[str, Any]] | None = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if measure is not None:
                    record.update(measure(result))
                return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        yield {}


EDIT_FUNCTIONS = {
    "add_outcomes_ignored": "add_outcomes",
    "add_outcomes_general": "add_outcomes",
    "split_outcome": "split_outcome",
    "split_outcome_general": "split_outcome",
    "reuse_successor_rows_ignored": "reuse_successor_rows",
    "reuse_successor_rows_split": "reuse_successor_rows",
    "add_arc_assumed_constant": "add_arc",
    "add_arc_general": "add_arc",
    "add_variable": "add_variable",
    "remove_arc": "remove_arc",
    "remove_outcome": "remove_outcome",
    "replace_cpt": "replace_cpt",
}


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrap the layer boundaries for the duration of the block."""
    from bnmaint import cli, cost, edits, netio, network, oracle

    patches: list[tuple[Any, str, str, Callable | None]] = [
        (cli, "validate_network", "network.validate_network", None),
        (cli, "apply_script", "script.apply_script", None),
        (cli, "diff_networks", "diff.diff_networks", lambda r: {"entries": len(r)}),
        (netio, "load_network", "netio.load_network", None),
        (netio, "save_network", "netio.save_network", None),
        (netio, "loads", "netio.loads", None),
        (netio, "dumps", "netio.dumps", None),
        (edits, "validate_network", "network.validate_network", None),
        (edits, "would_create_cycle", "network.cycle_check", None),
        (edits, "has_path", "network.cycle_check", None),
        (network.Network, "children", "network.children", None),
        (cost, "aggregate_reports", "cost.aggregate_reports", None),
        (cost, "audit_transaction", "cost.audit_transaction", None),
        (oracle, "joint_distribution", "oracle.joint_distribution",
         lambda r: {"cells": int(r.probs.size)}),
    ]
    patches += [
        (edits, fn, f"edits.{kind}", None) for fn, kind in EDIT_FUNCTIONS.items()
    ]
    saved = []
    for owner, attr, name, measure in patches:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, measure))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
