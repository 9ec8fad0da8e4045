"""Command-line interface: exit codes, atomicity, deterministic output."""

from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import errno
import gc
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bnmaint import __version__, cli, edits, netio, network, script
from bnmaint.cli import main
from bnmaint.script import ScriptError, apply_script

from conftest import invoke, make_net, random_network, with_cell
from test_overlay import _chain


@pytest.fixture
def chain_file(tmp_path, chain_net):
    path = tmp_path / "net.json"
    netio.save_network(chain_net, path)
    return path


def _write_script(tmp_path, ops, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps(ops), encoding="utf-8")
    return path


# bytes no parser may crash on: a UTF-16 byte-order mark, and arrays nested
# far past the interpreter's recursion limit
UNREADABLE = {
    "not-utf8": b"\xff\xfe[\x00]\x00",
    "over-nested": b"[" * 100_000 + b"]" * 100_000,
}


GROW_OP = {
    "op": "add_outcomes",
    "mode": "ignored",
    "node": "A",
    "outcomes": ["a3"],
    "blocks": [{"given": {}, "values": [0.2]}],
}
REUSE_OP = {
    "op": "reuse_successor_rows",
    "node": "B",
    "parent": "A",
    "blocks": [{"outcome": "a3", "given": {}, "values": [0.5, 0.5]}],
}

ROOT_BLOCKS = [{"given": {}, "values": [0.5, 0.5]}]

# a record of every op, valid on `chain_file` but for its mode (the arc B->A
# is refused only after the mode; the reuse on a complete B changes nothing)
MODE_RECORDS = {
    "add_outcomes": GROW_OP,
    "split_outcome": {"op": "split_outcome", "node": "A", "outcome": "a1",
                      "parts": ["u", "v"], "blocks": [{"given": {}, "values": [0.5, 0.5]}]},
    "add_arc": {"op": "add_arc", "from": "B", "to": "A"},
    "add_variable": {"op": "add_variable", "variable": {"id": "N", "outcomes": ["n1", "n2"]},
                     "parents": [], "blocks": [{"given": {}, "values": [0.5, 0.5]}]},
    "reuse_successor_rows": {"op": "reuse_successor_rows", "node": "B", "parent": "A"},
    "remove_arc": {"op": "remove_arc", "from": "A", "to": "B", "blocks": ROOT_BLOCKS},
    "remove_outcome": {"op": "remove_outcome", "node": "A", "outcome": "a2",
                       "renormalize": True},
    "replace_cpt": {"op": "replace_cpt", "node": "A", "blocks": ROOT_BLOCKS},
}

# scripts refused on `chain_file` with exactly this line
REFUSED_RECORDS = {
    "replace_cpt-mode": (
        [{**MODE_RECORDS["replace_cpt"], "mode": "ignored"}],
        "error: op 1: mode 'ignored' is not legal for replace_cpt",
    ),
    "remove_arc-mode": (
        [{**MODE_RECORDS["remove_arc"], "mode": "split"}],
        "error: op 1: mode 'split' is not legal for remove_arc",
    ),
    "remove_outcome-mode": (
        [{**MODE_RECORDS["remove_outcome"], "mode": "x"}],
        "error: op 1: mode 'x' is not legal for remove_outcome",
    ),
    "reuse-mode": (
        [GROW_OP, {**REUSE_OP, "mode": "general"}],
        "error: op 2: mode 'general' is not legal for reuse_successor_rows",
    ),
    "renormalize-with-blocks": (
        [{**MODE_RECORDS["remove_outcome"], "blocks": [{"given": {}, "values": [1.0]}]}],
        "error: op 1: renormalize and replacement tables are mutually exclusive",
    ),
    "renormalize-with-successors": (
        [{**MODE_RECORDS["remove_outcome"], "successors": [{"node": "B", "blocks": []}]}],
        "error: op 1: renormalize and replacement tables are mutually exclusive",
    ),
    "add_variable-successor-twice": (
        [{**MODE_RECORDS["add_variable"], "successors": [
            {"node": "B", "blocks": [{"given": {"A": a, "N": n}, "values": v}
                                     for a in ("a1", "a2") for n in ("n1", "n2")]}
            for v in ([0.5, 0.5], [0.2, 0.8])]}],
        "error: op 1: successor B is listed twice",
    ),
    "remove_outcome-successor-twice": (
        [{"op": "remove_outcome", "node": "A", "outcome": "a2",
          "blocks": [{"given": {}, "values": [1.0]}],
          "successors": [{"node": "B", "blocks": [{"given": {"A": "a1"}, "values": v}]}
                         for v in ([0.5, 0.5], [0.2, 0.8])]}],
        "error: op 1: successor B is listed twice",
    ),
    # one id-bearing field of each kind, naming a variable the network lacks
    "add_arc-from": (
        [{"op": "add_arc", "from": "Z", "to": "B"}],
        "error: op 1: unknown variable 'Z'",
    ),
    "add_variable-parents": (
        [{**MODE_RECORDS["add_variable"], "parents": ["Z"]}],
        "error: op 1: unknown variable 'Z'",
    ),
    "remove_outcome-node": (
        [{"op": "remove_outcome", "node": "Z", "outcome": "z1"}],
        "error: op 1: unknown variable 'Z'",
    ),
    "reuse-parent": (
        [{**REUSE_OP, "parent": "Z", "blocks": []}],
        "error: op 1: unknown variable 'Z'",
    ),
}

# a record of each op and mode that carries one field it does not read,
# refused on `chain_file` with exactly this line; without that field the
# script applies
UNREAD_FIELDS = {
    "add_outcomes-Mode": (
        [{"op": "add_outcomes", "Mode": "ignored", "node": "B", "outcomes": ["b3"],
          "blocks": [{"given": {"A": "a1"}, "values": [0.5, 0.3, 0.2]},
                     {"given": {"A": "a2"}, "values": [0.2, 0.3, 0.5]}]}],
        "Mode",
        "error: op 1: field 'Mode' is not read by add_outcomes",
    ),
    "general-split_outcome-form": (
        [{"op": "split_outcome", "mode": "general", "form": "bogus", "node": "B",
          "outcome": "b1", "parts": ["u", "v"],
          "blocks": [{"given": {"A": "a1"}, "values": [0.5, 0.3, 0.2]},
                     {"given": {"A": "a2"}, "values": [0.2, 0.3, 0.5]}]}],
        "form",
        "error: op 1: field 'form' is not read by split_outcome in general mode",
    ),
    "general-add_arc-baseline": (
        [MODE_RECORDS["add_variable"],
         {"op": "add_arc", "mode": "general", "from": "N", "to": "B", "baseline": "n1",
          "blocks": [{"given": {"A": a, "N": n}, "values": [0.5, 0.5]}
                     for a in ("a1", "a2") for n in ("n1", "n2")]}],
        "baseline",
        "error: op 2: field 'baseline' is not read by add_arc in general mode",
    ),
    "general-add_variable-baseline": (
        [{**MODE_RECORDS["add_variable"], "baseline": "n1"}],
        "baseline",
        "error: op 1: field 'baseline' is not read by add_variable",
    ),
    "replace_cpt-unknown": (
        [{**MODE_RECORDS["replace_cpt"], "blcoks": 3}],
        "blcoks",
        "error: op 1: field 'blcoks' is not read by replace_cpt",
    ),
}
REFUSED_RECORDS.update(
    (f"unread-{kind}", (ops, line)) for kind, (ops, _, line) in UNREAD_FIELDS.items()
)


# One script touching every op kind and mode: both modes of each special /
# general pair, both reuse completions, and remove_outcome both with
# replacements and renormalized. Its stdout, report and output file are
# pinned literally, so any change to the counting or the edits shows here.
GOLDEN_OPS = [
    {"op": "add_outcomes", "mode": "ignored", "node": "A", "outcomes": ["a3"],
     "blocks": [{"given": {}, "values": [0.2]}]},
    {"op": "reuse_successor_rows", "node": "B", "parent": "A",
     "blocks": [{"outcome": "a3", "given": {}, "values": [0.5, 0.5]}]},
    {"op": "split_outcome", "mode": "split", "node": "A", "outcome": "a1",
     "parts": ["a1x", "a1y"], "blocks": [{"given": {}, "values": [0.25, 0.75]}]},
    {"op": "reuse_successor_rows", "node": "B", "parent": "A",
     "blocks": [{"outcome": "a1x", "given": {}, "values": [0.6, 0.4]},
                {"outcome": "a1y", "given": {}, "values": [0.1, 0.9]}]},
    {"op": "add_outcomes", "mode": "general", "node": "C", "outcomes": ["c3"],
     "blocks": [{"given": {}, "values": [0.2, 0.3, 0.5]}]},
    {"op": "split_outcome", "mode": "general", "node": "C", "outcome": "c3",
     "parts": ["c3a", "c3b"],
     "blocks": [{"given": {}, "values": [0.2, 0.3, 0.25, 0.25]}]},
    {"op": "add_arc", "mode": "assumed-constant", "from": "D", "to": "C",
     "baseline": "d1",
     "blocks": [{"outcome": "d2", "given": {}, "values": [0.1, 0.2, 0.3, 0.4]}]},
    {"op": "add_arc", "mode": "general", "from": "A", "to": "D",
     "blocks": [{"given": {"A": a}, "values": v} for a, v in [
         ("a1x", [0.3, 0.7]), ("a1y", [0.5, 0.5]),
         ("a2", [0.8, 0.2]), ("a3", [0.1, 0.9])]]},
    {"op": "add_variable", "mode": "assumed-constant", "baseline": "e1",
     "variable": {"id": "E", "name": "Extra", "outcomes": ["e1", "e2"]},
     "parents": [], "blocks": [{"given": {}, "values": [0.6, 0.4]}],
     "successors": [{"node": "D", "blocks": [
         {"outcome": "e2", "given": {"A": a}, "values": v} for a, v in [
             ("a1x", [0.9, 0.1]), ("a1y", [0.2, 0.8]),
             ("a2", [0.4, 0.6]), ("a3", [0.7, 0.3])]]}]},
    {"op": "add_variable", "mode": "general",
     "variable": {"id": "F", "name": "Factor", "outcomes": ["f1", "f2"]},
     "parents": ["E"],
     "blocks": [{"given": {"E": "e1"}, "values": [0.3, 0.7]},
                {"given": {"E": "e2"}, "values": [0.9, 0.1]}],
     "successors": [{"node": "B", "blocks": [
         {"given": {"A": a, "F": f}, "values": v} for a, f, v in [
             ("a1x", "f1", [0.5, 0.5]), ("a1x", "f2", [0.4, 0.6]),
             ("a1y", "f1", [0.3, 0.7]), ("a1y", "f2", [0.2, 0.8]),
             ("a2", "f1", [0.1, 0.9]), ("a2", "f2", [0.6, 0.4]),
             ("a3", "f1", [0.7, 0.3]), ("a3", "f2", [0.8, 0.2])]]}]},
    {"op": "remove_arc", "from": "A", "to": "B",
     "blocks": [{"given": {"F": "f1"}, "values": [0.35, 0.65]},
                {"given": {"F": "f2"}, "values": [0.45, 0.55]}]},
    {"op": "remove_outcome", "node": "A", "outcome": "a3",
     "blocks": [{"given": {}, "values": [0.2, 0.3, 0.5]}],
     "successors": [{"node": "D", "blocks": [
         {"given": {"A": a, "E": e}, "values": v} for a, e, v in [
             ("a1x", "e1", [0.3, 0.7]), ("a1x", "e2", [0.9, 0.1]),
             ("a1y", "e1", [0.5, 0.5]), ("a1y", "e2", [0.2, 0.8]),
             ("a2", "e1", [0.8, 0.2]), ("a2", "e2", [0.4, 0.6])]]}]},
    {"op": "remove_outcome", "node": "A", "outcome": "a2", "renormalize": True},
    {"op": "replace_cpt", "node": "B",
     "blocks": [{"given": {"F": "f1"}, "values": [0.25, 0.75]},
                {"given": {"F": "f2"}, "values": [0.75, 0.25]}]},
]

# the `bnmaint.edits` attribute each GOLDEN_OPS record calls, in order
GOLDEN_CALLS = [
    "add_outcomes_ignored", "reuse_successor_rows_ignored", "split_outcome",
    "reuse_successor_rows_split", "add_outcomes_general", "split_outcome_general",
    "add_arc_assumed_constant", "add_arc_general", "add_variable", "add_variable",
    "remove_arc", "remove_outcome", "remove_outcome", "replace_cpt",
]


def _field_paths(value, prefix=()):
    """The path to every object field, at any depth, of a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield prefix + (key,)
            yield from _field_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _field_paths(item, prefix + (i,))


def _object_paths(value, prefix=()):
    """The path to every object, at any depth and itself included, of a
    parsed JSON value."""
    if isinstance(value, dict):
        yield prefix
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _object_paths(item, prefix + (key,))


# what a field of a GOLDEN_OPS record becomes in the sweep: dropped (...), an
# undeclared id, each other JSON type, or a list holding an undeclared id
WRONG_VALUES = [..., "Z", None, True, 1, [], {}, ["Z"]]


def _with_field(rec, path, value):
    """A copy of `rec` whose field at `path` is `value`, or gone for `...`."""
    rec = copy.deepcopy(rec)
    *head, last = path
    target = rec
    for key in head:
        target = target[key]
    if value is ...:
        del target[last]
    else:
        target[last] = value
    return rec


def _golden_net():
    return make_net(
        [("A", ["a1", "a2"]), ("B", ["b1", "b2"]), ("C", ["c1", "c2"]),
         ("D", ["d1", "d2"])],
        parents={"B": ["A"]},
        cpts={
            "A": [(0.5, 0.5)],
            "B": [(0.9, 0.1), (0.3, 0.7)],
            "C": [(0.4, 0.6)],
            "D": [(0.3, 0.7)],
        },
    )


# each op lists only the nodes its report holds, in the report's order (op 9:
# the new variable, then its successor)
GOLDEN_STDOUT = """\
op 1: add_outcomes mode=ignored node=A
  A: elicited=1 reused=1 baseline=2
op 2: reuse_successor_rows mode=ignored node=B from=A
  B: elicited=1 reused=2 baseline=3
op 3: split_outcome mode=split node=A
  A: elicited=1 reused=2 baseline=3
op 4: reuse_successor_rows mode=split node=B from=A
  B: elicited=2 reused=2 baseline=4
op 5: add_outcomes mode=general node=C
  C: elicited=2 reused=0 baseline=2
op 6: split_outcome mode=general node=C
  C: elicited=3 reused=0 baseline=3
op 7: add_arc mode=assumed-constant node=C from=D
  C: elicited=3 reused=3 baseline=6
op 8: add_arc mode=general node=D from=A
  D: elicited=4 reused=0 baseline=4
op 9: add_variable mode=assumed-constant node=E
  E: elicited=1 reused=0 baseline=1
  D: elicited=4 reused=4 baseline=8
op 10: add_variable mode=general node=F
  F: elicited=2 reused=0 baseline=2
  B: elicited=8 reused=0 baseline=8
op 11: remove_arc mode=general node=B from=A
  B: elicited=2 reused=0 baseline=2
op 12: remove_outcome mode=general node=A
  A: elicited=2 reused=0 baseline=2
  D: elicited=6 reused=0 baseline=6
op 13: remove_outcome mode=general node=A
  A: elicited=0 reused=1 baseline=1
  D: elicited=0 reused=4 baseline=4
  note: NON-PAPER: rows of A renormalized after dropping 'a2'
  note: NON-PAPER: successor rows conditioned on the dropped outcome deleted
op 14: replace_cpt mode=general node=B
  B: elicited=2 reused=0 baseline=2
total: elicited=44 reused=19 baseline=63
wrote {out} (version E.14)
"""

GOLDEN_REPORT = """\
node,elicited,reused,general_baseline
A,4,4,8
B,15,4,19
C,8,3,11
D,14,8,22
E,1,0,1
F,2,0,2
"""

GOLDEN_OUT = {
    "format_version": 1,
    "version_label": "E.14",
    "variables": [
        {"id": "A", "name": "A", "outcomes": ["a1x", "a1y"]},
        {"id": "B", "name": "B", "outcomes": ["b1", "b2"]},
        {"id": "C", "name": "C", "outcomes": ["c1", "c2", "c3a", "c3b"]},
        {"id": "D", "name": "D", "outcomes": ["d1", "d2"]},
        {"id": "E", "name": "Extra", "outcomes": ["e1", "e2"]},
        {"id": "F", "name": "Factor", "outcomes": ["f1", "f2"]},
    ],
    "parents": {
        "A": [], "B": ["F"], "C": ["D"], "D": ["A", "E"], "E": [], "F": ["E"],
    },
    "cpts": {
        "A": [[0.4, 0.6]],
        "B": [[0.25, 0.75], [0.75, 0.25]],
        "C": [[0.2, 0.3, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]],
        "D": [[0.3, 0.7], [0.9, 0.1], [0.5, 0.5], [0.2, 0.8]],
        "E": [[0.6, 0.4]],
        "F": [[0.3, 0.7], [0.9, 0.1]],
    },
}


def test_version_is_read_from_the_package_not_its_install():
    # the suite runs from a checkout, where no distribution metadata exists
    result = invoke(["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == "bnmaint, version 0.1.0\n"


USAGE_FAILURES = {
    "unknown-command": lambda net, tmp: ["wat"],
    "unknown-option": lambda net, tmp: ["validate", net, "--tolerance", "1e-3"],
    "missing-argument": lambda net, tmp: ["validate"],
    "extra-argument": lambda net, tmp: ["validate", net, net],
    "bad-case": lambda net, tmp: ["cost", "--case", "wat", "--role", "changed"],
    "non-integer-m": lambda net, tmp: ["cost", "--case", "ignored", "--role", "changed",
                                       "--m", "x"],
    "bad-m-range": lambda net, tmp: ["curves", "--case", "split", "--role", "changed",
                                     "--m-range", "x"],
    "bad-radices": lambda net, tmp: ["cost", "--case", "ignored", "--role", "changed",
                                     "--radices", "2,x"],
    "missing-file": lambda net, tmp: ["validate", str(tmp / "absent.json")],
    "directory-as-file": lambda net, tmp: ["validate", str(tmp)],
    "directory-as-output": lambda net, tmp: ["apply", net, str(_write_script(tmp, [GROW_OP])),
                                             "-o", str(tmp)],
    "oracle-without-helper": lambda net, tmp: ["oracle"],
    "unknown-oracle-helper": lambda net, tmp: ["oracle", "wat", net],
    "oracle-joint-without-file": lambda net, tmp: ["oracle", "joint"],
}


@pytest.mark.parametrize("case", USAGE_FAILURES)
def test_every_usage_failure_prints_one_error_line(tmp_path, chain_file, case):
    result = invoke(USAGE_FAILURES[case](str(chain_file), tmp_path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert "error:" in result.stderr


def test_in_process_callers_get_a_return_or_the_exit_code(tmp_path, chain_file, chain_net):
    # perfbench calls the entry point this way
    def run(path, standalone_mode=False):
        return main.main(
            args=["validate", str(path)], prog_name="bnmaint", standalone_mode=standalone_mode
        )

    assert run(chain_file) is None
    bad = tmp_path / "bad.json"
    netio.save_network(with_cell(chain_net, "A", 0, 0, 0.6), bad)
    with pytest.raises(SystemExit) as failed:
        run(bad)
    assert failed.value.code == 1
    with pytest.raises(SystemExit) as standalone:
        run(chain_file, standalone_mode=True)
    assert standalone.value.code == 0


def _imported_packages(path: Path) -> set[str]:
    """The top-level package of every module the file at `path` imports."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    modules = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.module}
    return {m.split(".")[0] for m in modules}


def test_no_module_or_test_imports_click():
    root = Path(__file__).resolve().parents[1]
    for path in [*(root / "src" / "bnmaint").glob("*.py"), *(root / "tests").glob("*.py")]:
        assert "click" not in _imported_packages(path), path.name


# -- the cyclic collector is paused while a command runs ---------------------


@contextlib.contextmanager
def _collector(enabled: bool):
    """The cyclic collector switched on or off inside the block, and back to
    its state before it afterwards, however the block ends."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def _inside(code) -> bool:
    """Whether a frame of `code` is on the caller's stack."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code is not code:
        frame = frame.f_back
    return frame is not None


def test_no_command_on_a_large_network_starts_a_collection(tmp_path):
    net_file, out = tmp_path / "net.json", tmp_path / "out.json"
    netio.save_network(_chain(400), net_file)
    script_file = _write_script(tmp_path, [
        {"op": "replace_cpt", "node": "N0", "blocks": [{"given": {}, "values": [0.3, 0.7]}]}
    ])
    commands = {
        "validate": ["validate", str(net_file)],
        "apply": ["apply", str(net_file), str(script_file), "-o", str(out)],
        "diff": ["diff", str(net_file), str(out)],
    }
    # only a collection that starts while `main` runs is the command's: the
    # one the caller's next allocation may start walks only what survived it
    starts = []

    def count(phase, info):
        if phase == "start" and _inside(main.__code__):
            starts.append(info["generation"])

    counts = {}
    gc.callbacks.append(count)
    try:
        with _collector(True):
            for name, args in commands.items():
                gc.collect()
                invoke(args)
                counts[name] = len(starts)
                starts.clear()
    finally:
        gc.callbacks.remove(count)
    assert counts == {"validate": 0, "apply": 0, "diff": 0}


def test_no_command_leaves_cyclic_garbage(tmp_path, chain_file, chain_net):
    bad = tmp_path / "bad.json"
    netio.save_network(with_cell(chain_net, "A", 0, 0, 0.6), bad)
    script_file = _write_script(tmp_path, [GROW_OP, REUSE_OP])
    curve = ["curves", "--case", "split", "--role", "successor"]
    runs = {
        "validate-0": ["validate", chain_file],
        "validate-1": ["validate", bad],
        "apply-report": ["apply", chain_file, script_file, "-o", tmp_path / "out.json",
                         "--report", tmp_path / "report.csv"],
        "diff-0": ["diff", chain_file, chain_file],
        "diff-1": ["diff", chain_file, bad],
        "cost": ["cost", "--case", "ignored", "--role", "changed"],
        "curves-stdout": curve,
        "curves-out": [*curve, "--out", tmp_path / "curves.csv"],
        "oracle-joint": ["oracle", "joint", chain_file],
    }
    # Not through `invoke`: its `pytest.raises` keeps the exception in a
    # frame that the exception's traceback holds, a cycle of its own. Each
    # command runs once before it is measured, since the first import of a
    # module can leave cycles (numpy's does); the collector, once back on,
    # frees those as it frees any other.
    found = {}
    for name, args in runs.items():
        args = list(map(str, args))
        for _ in range(2):
            gc.collect()
            with _collector(False):
                try:
                    main(args, standalone_mode=False)
                except SystemExit:
                    pass
                found[name] = gc.collect()
    assert found == dict.fromkeys(runs, 0)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_every_command_gives_the_collector_back_its_state(tmp_path, chain_file, monkeypatch,
                                                          enabled):
    not_json = tmp_path / "not.json"
    not_json.write_text("{", encoding="utf-8")
    rejected = _write_script(tmp_path, [{**GROW_OP, "node": "Z"}])
    exits = {
        "success": (["validate", chain_file], 0),
        "script-error": (["apply", chain_file, rejected, "-o", tmp_path / "out.json"], 1),
        "usage-error": (["validate", "--bogus", chain_file], 2),
        "parse-error": (["validate", not_json], 2),
    }
    with _collector(enabled):
        for name, (args, code) in exits.items():
            assert invoke(list(map(str, args))).exit_code == code, name
            assert gc.isenabled() is enabled, name

        def fail(net):
            raise RuntimeError("planted")

        monkeypatch.setattr(cli, "validate_network", fail)
        with pytest.raises(RuntimeError, match="planted"):
            main(["validate", str(chain_file)])
        assert gc.isenabled() is enabled


def test_only_the_entry_point_touches_the_collector():
    src = Path(__file__).resolve().parents[1] / "src" / "bnmaint"
    assert [p.name for p in src.glob("*.py") if "gc" in _imported_packages(p)] == ["cli.py"]


def _run_cli(args, prelude="", **popen):
    """`bnmaint args` in a fresh interpreter that runs `prelude` first."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"{prelude}from bnmaint.cli import main; main()"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.Popen([sys.executable, "-c", code, *map(str, args)], env=env, **popen)


# what every command loads: the parser's --case and --role choices are cost's
LOADED_BY_EVERY_COMMAND = ["bnmaint", "bnmaint.cli", "bnmaint.cost", "bnmaint.netio",
                           "bnmaint.network"]
# what each command loads besides
ALSO_LOADED = {
    "validate": [],
    "diff": ["bnmaint.diff"],
    "apply": ["bnmaint.edits", "bnmaint.script"],
    "cost": [],
    "curves": [],
    "oracle joint": ["bnmaint.oracle", "numpy"],
}


@pytest.mark.parametrize("command", ALSO_LOADED)
def test_each_command_imports_only_the_modules_it_runs(tmp_path, chain_file, command):
    args = {
        "validate": [chain_file],
        "diff": [chain_file, chain_file],
        "apply": [chain_file, _write_script(tmp_path, [GROW_OP, REUSE_OP]),
                  "-o", tmp_path / "out.json"],
        "cost": ["--case", "ignored", "--role", "changed"],
        "curves": ["--case", "split", "--role", "successor"],
        "oracle joint": [chain_file],
    }[command]
    report = ("import atexit, sys; atexit.register(lambda: print(*sorted(m for m in sys.modules "
              "if m == 'numpy' or m.startswith('bnmaint')), file=sys.stderr)); ")
    proc = _run_cli([*command.split(), *args], report, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate()
    assert proc.returncode == 0, err
    assert err.split() == sorted(LOADED_BY_EVERY_COMMAND + ALSO_LOADED[command])


def test_the_cli_runs_where_click_cannot_be_imported(tmp_path, chain_file):
    script_file = _write_script(tmp_path, [GROW_OP, REUSE_OP])
    for args in (
        ["validate", chain_file],
        ["apply", chain_file, script_file, "-o", tmp_path / "out.json"],
    ):
        proc = _run_cli(args, "import sys; sys.modules['click'] = None; ",
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
    assert (tmp_path / "out.json").is_file()


def test_a_reader_that_stops_early_ends_the_run_quietly():
    # like `bnmaint curves ... | head -0`: the pipe is closed before the
    # interpreter has started, so the first write finds no reader
    proc = _run_cli(["curves", "--case", "split", "--role", "changed"],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_pyproject_declares_the_package_version():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "(.*)"$', text, re.MULTILINE) == [__version__]


class TestValidate:
    def test_valid_file_exits_zero_silently(self, chain_file):
        result = invoke(["validate", str(chain_file)])
        assert result.exit_code == 0
        assert result.output == ""

    def test_findings_exit_one_line_each(self, tmp_path, chain_net):
        bad = with_cell(with_cell(chain_net, "B", 0, 0, 0.5), "B", 0, 1, 0.6)
        path = tmp_path / "bad.json"
        netio.save_network(bad, path)
        result = invoke(["validate", str(path)])
        assert result.exit_code == 1
        assert result.output.strip() == "row 0 of node B sums to 1.1"

    def test_every_file_reachable_rule_in_order(self, tmp_path):
        doc = {
            "format_version": 1,
            "version_label": "E",
            "variables": [
                {"id": "A", "name": "A", "outcomes": ["a1", "a1"]},
                {"id": "B", "name": "B", "outcomes": []},
                {"id": "A", "name": "dup", "outcomes": ["x"]},
                {"id": "C", "name": "C", "outcomes": ["c1", "c2"]},
            ],
            "parents": {"A": [], "B": ["A", "A", "Z"], "Q": ["A"], "C": ["C"]},
            "cpts": {
                "A": [[0.5, 0.6]],
                "B": [[1.0]],
                "X": [[1.0]],
                "C": [[0.5, 0.5], [2, -1]],
            },
        }
        path = tmp_path / "faulty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = invoke(["validate", str(path)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "duplicate outcome labels on variable A",
            "variable B has no outcomes",
            "duplicate variable id A",
            "duplicate parent A of B",
            "unknown parent Z of B",
            "parents declared for unknown variable Q",
            "cycle C",
            "CPT for unknown variable X",
            "row 0 of node A sums to 1.1",
            "entry 2.0 in row 1 of node C outside [0, 1]",
            "entry -1.0 in row 1 of node C outside [0, 1]",
        ]

    @pytest.mark.parametrize(
        "row, lines",
        [
            pytest.param(
                "[Infinity, -Infinity]",
                [
                    "entry inf in row 0 of node A outside [0, 1]",
                    "entry -inf in row 0 of node A outside [0, 1]",
                ],
                id="inf-and-minus-inf",
            ),
            pytest.param(
                "[1e308, 1e308]",
                [
                    "entry 1e+308 in row 0 of node A outside [0, 1]",
                    "entry 1e+308 in row 0 of node A outside [0, 1]",
                ],
                id="sum-overflow",
            ),
        ],
    )
    def test_row_without_a_finite_sum_reports_entries(self, tmp_path, row, lines):
        path = tmp_path / "inf.json"
        path.write_text(
            '{"format_version": 1, "version_label": "E", "variables": [{"id": "A", '
            '"name": "A", "outcomes": ["a1", "a2"]}], "parents": {}, '
            f'"cpts": {{"A": [{row}]}}}}',
            encoding="utf-8",
        )
        result = invoke(["validate", str(path)])
        assert result.exit_code == 1
        assert result.output.splitlines() == lines

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        result = invoke(["validate", str(path)])
        assert result.exit_code == 2
        assert "line 1" in result.output

    def test_missing_file_exits_two(self, tmp_path):
        result = invoke(["validate", str(tmp_path / "absent.json")])
        assert result.exit_code == 2

    def test_rows_are_judged_against_one_fixed_tolerance(self, tmp_path, chain_net):
        for off, code in [(5e-7, 1), (network.ROW_SUM_TOLERANCE / 2, 0)]:
            path = tmp_path / "off.json"
            netio.save_network(with_cell(chain_net, "A", 0, 0, 0.5 + off), path)
            assert invoke(["validate", str(path)]).exit_code == code

    def test_duplicate_key_exits_two(self, tmp_path, chain_net):
        text = netio.dumps(chain_net).replace(
            '"cpts": {', '"cpts": {\n    "A": [[0.1, 0.9]],', 1
        )
        path = tmp_path / "dup.json"
        path.write_text(text, encoding="utf-8")
        result = invoke(["validate", str(path)])
        assert result.exit_code == 2
        assert "duplicate object key 'A'" in result.output

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    def test_unreadable_file_exits_two(self, tmp_path, kind):
        path = tmp_path / "net.json"
        path.write_bytes(UNREADABLE[kind])
        result = invoke(["validate", str(path)])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: {path}: ")


class TestApply:
    def test_successful_script_writes_output_and_report(
        self, tmp_path, chain_file
    ):
        script = _write_script(tmp_path, [GROW_OP, REUSE_OP])
        out = tmp_path / "out.json"
        report = tmp_path / "report.csv"
        result = invoke(
            [
                "apply", str(chain_file), str(script),
                "-o", str(out), "--report", str(report),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "op 1: add_outcomes mode=ignored node=A" in result.output
        op1 = result.output.split("op 2:")[0]
        assert "A: elicited=1 reused=1 baseline=2" in op1
        assert "B:" not in op1  # untouched in op 1, so not listed
        assert "total: elicited=2 reused=3 baseline=5" in result.output
        final = netio.load_network(out)
        assert final.outcomes("A") == ("a1", "a2", "a3")
        assert final.version_label == "E.2"
        lines = report.read_text().splitlines()
        assert lines[0] == "node,elicited,reused,general_baseline"
        assert lines[1] == "A,1,1,2"
        assert lines[2] == "B,1,2,3"

    @pytest.mark.parametrize("report", ["out.json", "./out.json"])
    def test_report_naming_the_output_file_exits_two_before_any_work(
        self, tmp_path, chain_file, monkeypatch, report
    ):
        # the report renamed into place would replace the network just written
        monkeypatch.chdir(tmp_path)
        script = _write_script(tmp_path, [GROW_OP, REUSE_OP])
        result = invoke(
            ["apply", str(chain_file), str(script), "-o", "out.json", "--report", report]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {report}: -o and --report must name different files\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "script.json"]

    def test_listing_follows_the_change_not_the_network(self, tmp_path):
        ids = [f"N{i}" for i in range(200)]
        chain = make_net(
            [(v, ["x", "y"]) for v in ids],
            parents={v: [u] for u, v in zip(ids, ids[1:])},
            cpts={v: [(0.5, 0.5)] * (1 if v == "N0" else 2) for v in ids},
        )
        path = tmp_path / "net.json"
        netio.save_network(chain, path)
        op = {"op": "replace_cpt", "node": "N100", "blocks": [
            {"given": {"N99": x}, "values": [0.2, 0.8]} for x in ("x", "y")]}
        script = _write_script(tmp_path, [op])
        out = tmp_path / "out.json"
        result = invoke(["apply", str(path), str(script), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == [
            "op 1: replace_cpt mode=general node=N100",
            "  N100: elicited=2 reused=0 baseline=2",
            "total: elicited=2 reused=0 baseline=2",
            f"wrote {out} (version E.1)",
        ]

    def test_every_op_kind_and_mode_golden(self, tmp_path):
        path = tmp_path / "net.json"
        netio.save_network(_golden_net(), path)
        script = _write_script(tmp_path, GOLDEN_OPS)
        out, report = tmp_path / "out.json", tmp_path / "report.csv"
        result = invoke(["apply", str(path), str(script), "-o", str(out), "--report", str(report)])
        assert result.exit_code == 0, result.output
        assert result.output == GOLDEN_STDOUT.format(out=out)
        assert report.read_text(encoding="utf-8") == GOLDEN_REPORT
        assert json.loads(out.read_text(encoding="utf-8")) == GOLDEN_OUT

    def test_each_record_calls_its_edit_through_the_module_attribute(self, monkeypatch):
        # perfbench times each edit kind by wrapping these module attributes;
        # a dispatch that held the functions themselves would bypass them
        calls = []
        for name in set(GOLDEN_CALLS):
            def recording(*args, _name=name, _edit=getattr(edits, name), **kwargs):
                calls.append(_name)
                return _edit(*args, **kwargs)

            monkeypatch.setattr(edits, name, recording)
        apply_script(_golden_net(), GOLDEN_OPS)
        assert calls == GOLDEN_CALLS
        assert len(set(GOLDEN_CALLS)) == 12

    def test_every_edit_path_attribute_the_traced_benchmark_wraps_is_reached(
        self, monkeypatch
    ):
        # perfbench's traced run wraps these by name; one the edits stopped
        # reaching through its attribute would leave its spans empty
        wrapped = [
            (network.Network, "children"),
            (edits, "has_path"),
            (edits, "would_create_cycle"),
            (edits, "validate_network"),
        ]
        calls = {name: 0 for _, name in wrapped}
        for owner, name in wrapped:
            def recording(*args, _name=name, _fn=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, recording)
        apply_script(_golden_net(), GOLDEN_OPS)
        assert all(calls.values()), calls

    def test_a_golden_record_with_one_wrong_field_applies_or_is_a_script_error(self):
        # each of the 208 fields of the 14 records, at any depth, takes each
        # of the 8 WRONG_VALUES while the other records stay; no exception
        # but ScriptError may leave apply_script
        net = _golden_net()
        cases = [(i, path, value) for i, rec in enumerate(GOLDEN_OPS)
                 for path in _field_paths(rec) for value in WRONG_VALUES]
        assert len(cases) == 208 * 8
        escaped = []
        for i, path, value in cases:
            ops = list(GOLDEN_OPS)
            ops[i] = _with_field(ops[i], path, value)
            try:
                apply_script(net, ops)
            except ScriptError:
                pass
            except Exception as e:
                escaped.append((i + 1, path, value, repr(e)))
        assert escaped == []

    def test_a_golden_object_with_one_unknown_key_is_a_script_error_naming_it(self):
        # each object of the 14 records, at any depth, gains one key that no
        # reader knows; a record, a block, a variable or a successor entry
        # names it, and a "given" object, keyed by parent ids, is refused as
        # an assignment of the wrong parents
        net = _golden_net()
        cases = [(i, path) for i, rec in enumerate(GOLDEN_OPS) for path in _object_paths(rec)]
        assert len(cases) == 95
        accepted = []
        for i, path in cases:
            ops = list(GOLDEN_OPS)
            ops[i] = _with_field(ops[i], path + ("Unread",), 1)
            try:
                apply_script(net, ops)
            except ScriptError as e:
                named = "field 'Unread' is not read" in str(e)
                if named == (path[-1:] == ("given",)):
                    accepted.append((i + 1, path, str(e)))
            else:
                accepted.append((i + 1, path, None))
        assert accepted == []

    @pytest.mark.parametrize(
        "mode, text",
        [(["x"], "['x']"), ({"x": 1}, "{'x': 1}"), (1, "1"), (None, "None"), (True, "True")],
        ids=["array", "object", "number", "null", "true"],
    )
    @pytest.mark.parametrize("kind", MODE_RECORDS)
    def test_a_mode_that_is_not_a_legal_string_exits_one(
        self, tmp_path, chain_file, kind, mode, text
    ):
        script = _write_script(tmp_path, [{**MODE_RECORDS[kind], "mode": mode}])
        out = tmp_path / "out.json"
        result = invoke(["apply", str(chain_file), str(script), "-o", str(out)])
        assert result.exit_code == 1
        assert f"error: op 1: mode {text} is not legal for {kind}" in result.output.splitlines()
        assert not out.exists()

    def test_every_op_has_a_mode_record(self):
        # a new op without one would skip the mode test above
        assert MODE_RECORDS.keys() == script._HANDLERS.keys()

    @pytest.mark.parametrize("kind", REFUSED_RECORDS)
    def test_a_record_the_edits_refuse_exits_one(self, tmp_path, chain_file, kind):
        ops, line = REFUSED_RECORDS[kind]
        path = _write_script(tmp_path, ops)
        out = tmp_path / "out.json"
        result = invoke(["apply", str(chain_file), str(path), "-o", str(out)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [line]
        assert not out.exists()

    @pytest.mark.parametrize("kind", UNREAD_FIELDS)
    def test_a_record_applies_once_its_unread_field_is_dropped(self, chain_net, kind):
        ops, key, _ = UNREAD_FIELDS[kind]
        *head, last = ops
        apply_script(chain_net, [*head, {k: v for k, v in last.items() if k != key}])

    def test_failing_op_leaves_output_absent(self, tmp_path, chain_file):
        bad_reuse = dict(REUSE_OP, blocks=[])
        script = _write_script(tmp_path, [GROW_OP, bad_reuse])
        out = tmp_path / "out.json"
        result = invoke(["apply", str(chain_file), str(script), "-o", str(out)])
        assert result.exit_code == 1
        assert "op 2" in result.output
        assert not out.exists()

    def test_failing_op_preserves_existing_output_file(
        self, tmp_path, chain_file
    ):
        out = tmp_path / "out.json"
        out.write_text("untouched", encoding="utf-8")
        script = _write_script(tmp_path, [GROW_OP])  # leaves B pending
        result = invoke(["apply", str(chain_file), str(script), "-o", str(out)])
        assert result.exit_code == 1
        assert "pending re-encoding" in result.output
        assert out.read_text(encoding="utf-8") == "untouched"

    def test_empty_script_reproduces_input(self, tmp_path, chain_file):
        script = _write_script(tmp_path, [])
        out = tmp_path / "out.json"
        result = invoke(["apply", str(chain_file), str(script), "-o", str(out)])
        assert result.exit_code == 0
        assert result.output == (
            f"total: elicited=0 reused=0 baseline=0\nwrote {out} (version E)\n"
        )
        a = netio.load_network(chain_file)
        b = netio.load_network(out)
        assert netio.to_document(a)["cpts"] == netio.to_document(b)["cpts"]
        assert a == b

    def test_nan_split_probability_exits_one(self, tmp_path):
        net = make_net([("A", ["a1", "a2"])], cpts={"A": [(1.0, 0.0)]})
        path = tmp_path / "net.json"
        netio.save_network(net, path)
        split = {
            "op": "split_outcome", "mode": "split", "node": "A", "outcome": "a2",
            "parts": ["u", "v"], "form": "probs",
            "blocks": [{"given": {}, "values": [float("nan"), 0.0]}],
        }
        script = _write_script(tmp_path, [split])
        out = tmp_path / "out.json"
        result = invoke(["apply", str(path), str(script), "-o", str(out)])
        assert result.exit_code == 1
        assert "probability nan is not >= 0" in result.output
        assert not out.exists()

    def test_non_boolean_renormalize_exits_one(self, tmp_path, chain_file):
        op = {
            "op": "remove_outcome", "node": "A", "outcome": "a2",
            "renormalize": "false",
        }
        script = _write_script(tmp_path, [op])
        out = tmp_path / "out.json"
        result = invoke(["apply", str(chain_file), str(script), "-o", str(out)])
        assert result.exit_code == 1
        assert "field 'renormalize' must be of type bool" in result.output
        assert not out.exists()

    def test_invalid_input_network_rejected(self, tmp_path, chain_net):
        bad = with_cell(chain_net, "B", 0, 0, 0.95)
        path = tmp_path / "bad.json"
        netio.save_network(bad, path)
        script = _write_script(tmp_path, [])
        result = invoke(["apply", str(path), str(script), "-o", str(tmp_path / "o.json")])
        assert result.exit_code == 1
        assert "input network is invalid" in result.output

    def test_apply_output_is_byte_deterministic(self, tmp_path, chain_file):
        script = _write_script(tmp_path, [GROW_OP, REUSE_OP])
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            result = invoke(["apply", str(chain_file), str(script), "-o", str(out)])
            assert result.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_duplicate_key_in_script_exits_two(self, tmp_path, chain_file):
        script = tmp_path / "script.json"
        script.write_text(
            '[{"op": "replace_cpt", "node": "A", "node": "B", "blocks": []}]',
            encoding="utf-8",
        )
        result = invoke(["apply", str(chain_file), str(script), "-o", str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert "duplicate object key 'node'" in result.output

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    def test_unreadable_script_exits_two(self, tmp_path, chain_file, kind):
        script = tmp_path / "script.json"
        script.write_bytes(UNREADABLE[kind])
        out = tmp_path / "o.json"
        result = invoke(["apply", str(chain_file), str(script), "-o", str(out)])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: {script}: ")
        assert not out.exists()

    def test_malformed_script_exits_two(self, tmp_path, chain_file):
        script = tmp_path / "script.json"
        script.write_text("[", encoding="utf-8")
        result = invoke(["apply", str(chain_file), str(script), "-o", str(tmp_path / "o.json")])
        assert result.exit_code == 2


class TestCost:
    def test_figure_values(self):
        result = invoke(["cost", "--case", "ignored", "--role", "changed", "--m", "2", "--k", "1"])
        assert result.exit_code == 0
        assert result.output.strip() == "general=2, special=1, ratio=0.5"

    def test_assumed_constant_changed_defaults(self):
        result = invoke(["cost", "--case", "assumed-constant", "--role", "changed"])
        assert result.exit_code == 0
        assert result.output.strip().endswith("ratio=1.0")

    def test_heterogeneous_radices_use_product(self):
        result = invoke(
            [
                "cost", "--case", "ignored", "--role", "changed",
                "--m", "2", "--k", "1", "--radices", "2,3",
            ],
        )
        assert result.output.strip() == "general=12, special=6, ratio=0.5"

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--role", "changed", "--m", "0"], "error: m must be >= 1\n"),
            (
                ["--role", "successor", "--p", "1"],
                "error: successor role needs p >= 2\n",
            ),
        ],
        ids=["m-zero", "successor-p-one"],
    )
    def test_bad_query_exits_two(self, args, error):
        result = invoke(["cost", "--case", "ignored", *args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == error

    def test_unknown_case_exits_two(self):
        result = invoke(["cost", "--case", "wat", "--role", "changed"])
        assert result.exit_code == 2

    def test_bad_radices_exit_two(self):
        result = invoke(["cost", "--case", "ignored", "--role", "changed", "--radices", "2,x"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "bnmaint cost: error: argument --radices: expected comma-separated integers, "
            "got '2,x'\n"
        )


class TestCurves:
    def test_stdout_csv(self):
        result = invoke(
            [
                "curves", "--case", "ignored", "--role", "changed",
                "--m-range", "2:2", "--k-range", "1:3",
            ],
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "case,role,m,k,ratio",
            "ignored,changed,2,1,0.5",
            "ignored,changed,2,2,0.6666666666666666",
            "ignored,changed,2,3,0.75",
        ]

    def test_file_output_is_byte_deterministic(self, tmp_path):
        args = [
            "curves", "--case", "split", "--role", "successor",
            "--m-range", "1:6", "--k-range", "1:10",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert invoke(args + ["--out", str(a)]).exit_code == 0
        assert invoke(args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("option", ["--m-range", "--k-range"])
    @pytest.mark.parametrize("text", ["x", "5:1"])
    def test_bad_range_exits_two(self, option, text):
        result = invoke(["curves", "--case", "split", "--role", "changed", option, text])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"bnmaint curves: error: argument {option}: expected N or LO:HI, got '{text}'\n"
        )

    def test_zero_in_range_exits_two_with_one_error_line(self):
        result = invoke(
            [
                "curves", "--case", "ignored", "--role", "changed",
                "--m-range", "0:2", "--k-range", "1",
            ],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: m must be >= 1\n"


def _write_args(tmp_path, chain_file, target, path):
    """A command writing `path` as its `target`: apply's -o or --report, -o
    beside a --report that is staged first, or the curves CSV."""
    apply = ["apply", str(chain_file), str(_write_script(tmp_path, [GROW_OP, REUSE_OP]))]
    report = tmp_path / "report.csv"
    return {
        "apply-out": apply + ["-o", str(path)],
        "apply-report": apply + ["-o", str(tmp_path / "out.json"), "--report", str(path)],
        "apply-out-with-report": apply + ["-o", str(path), "--report", str(report)],
        "curves": ["curves", "--case", "ignored", "--role", "changed", "--out", str(path)],
    }[target]


WRITE_TARGETS = ["apply-out", "apply-report", "apply-out-with-report", "curves"]


class TestWriteFailures:
    @pytest.mark.parametrize("target", WRITE_TARGETS)
    def test_missing_directory_exits_two_before_any_work(
        self, tmp_path, chain_file, target
    ):
        missing = tmp_path / "nodir" / "file"
        result = invoke(_write_args(tmp_path, chain_file, target, missing))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {missing}: {os.strerror(errno.ENOENT)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "script.json"]

    @pytest.mark.parametrize("target", WRITE_TARGETS)
    def test_other_write_error_is_one_line_not_a_traceback(
        self, tmp_path, chain_file, monkeypatch, target
    ):
        full = tmp_path / "full"
        real = netio.stage_text

        def failing(path, text):
            if Path(path) == full:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(path, text)

        monkeypatch.setattr(netio, "stage_text", failing)
        result = invoke(_write_args(tmp_path, chain_file, target, full))
        assert result.exit_code == 2
        assert result.stderr == f"error: {full}: {os.strerror(errno.ENOSPC)}\n"
        # apply writes -o and --report together or not at all, and no temp
        # file is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "script.json"]


@pytest.mark.parametrize("target", ["apply-out-with-report", "curves"])
def test_writing_never_sets_the_umask(tmp_path, chain_file, monkeypatch, target):
    # the umask is process-wide: setting it, even to read it back, would
    # change the mode of a file another thread creates meanwhile
    def refuse(mask):
        raise AssertionError("os.umask called")

    path = tmp_path / "written"
    monkeypatch.setattr(os, "umask", refuse)
    result = invoke(_write_args(tmp_path, chain_file, target, path))
    assert result.exit_code == 0, result.output
    assert path.is_file()
    assert (tmp_path / "report.csv").is_file() == target.startswith("apply")
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


_PROCESS_STATE = {"environ", "environb", "getenv", "putenv", "umask", "mkstemp", "chmod"}


@pytest.mark.parametrize(
    "path", sorted(Path(netio.__file__).parent.glob("*.py")), ids=lambda p: p.stem
)
def test_no_module_reads_the_environment_or_sets_file_modes(path):
    # behaviour follows the arguments and files alone, and a written file
    # gets its mode from exclusive create under the umask
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    names = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    names |= {n.id for n in nodes if isinstance(n, ast.Name)}
    names |= {n.name for n in nodes if isinstance(n, ast.alias)}
    assert not names & _PROCESS_STATE, sorted(names & _PROCESS_STATE)


def test_validity_and_identity_take_no_tolerance(chain_file):
    # `validate` judges rows as every edit does, and `diff` compares cells
    # to diff.TOLERANCE alone
    for command in (["validate", chain_file], ["diff", chain_file, chain_file]):
        result = invoke([*map(str, command), "--tolerance", "1e-3"])
        assert result.exit_code == 2
        assert result.stderr == "bnmaint: error: unrecognized arguments: --tolerance 1e-3\n"
    src = Path(netio.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        args = {a.arg for n in ast.walk(tree) if isinstance(n, ast.arguments)
                for a in (*n.posonlyargs, *n.args, *n.kwonlyargs)}
        assert "tolerance" not in args, path.name


def _readme_synopsis() -> dict[str, list[str]]:
    """Each subcommand in README's command-line synopsis, with the options
    its line names; an indented line continues the one above."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    lines: list[str] = []
    for line in block.splitlines():
        if line[:1].isspace():
            lines[-1] += line
        else:
            lines.append(line)
    return {
        line.split()[1]: re.findall(r"(?<![\w-])--?[a-z][\w-]*", line) for line in lines
    }


def test_readme_synopsis_lists_exactly_each_commands_options():
    synopsis = _readme_synopsis()
    (commands,) = [a for a in cli.PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    # the commands the help lists, which leaves the hidden one out
    assert list(synopsis) == [c.dest for c in commands._choices_actions]
    for name, tokens in synopsis.items():
        options = [a for a in commands.choices[name]._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
        named = [o.dest for o in options if set(o.option_strings) & set(tokens)]
        assert sorted(named) == sorted(o.dest for o in options), name
        assert len(named) == len(tokens), name  # no token names another option


class TestDiff:
    def test_identical_files_exit_zero(self, chain_file):
        result = invoke(["diff", str(chain_file), str(chain_file)])
        assert result.exit_code == 0
        assert result.output == ""

    def test_cell_change_listed(self, tmp_path, chain_net):
        other = with_cell(with_cell(chain_net, "B", 1, 0, 0.24), "B", 1, 1, 0.76)
        path = tmp_path / "other.json"
        netio.save_network(other, path)
        base = tmp_path / "base.json"
        netio.save_network(chain_net, base)
        result = invoke(["diff", str(base), str(path)])
        assert result.exit_code == 1
        assert "cpt[B] row 1 (A=a2) [b1]: 0.3 -> 0.24" in result.output

    def test_nan_cell_listed(self, tmp_path, chain_net):
        other = tmp_path / "other.json"
        netio.save_network(with_cell(chain_net, "A", 0, 0, float("nan")), other)
        base = tmp_path / "base.json"
        netio.save_network(chain_net, base)
        result = invoke(["diff", str(base), str(other)])
        assert result.exit_code == 1
        assert result.output == "cpt[A] row 0 [a1]: 0.5 -> nan\n"

    def test_parse_error_exits_two(self, tmp_path, chain_file):
        bad = tmp_path / "bad.json"
        bad.write_text("]", encoding="utf-8")
        assert invoke(["diff", str(chain_file), str(bad)]).exit_code == 2


class TestOracleCommand:
    def test_hidden_from_help(self):
        result = invoke(["--help"])
        assert "oracle" not in result.output

    def test_hidden_from_an_unknown_commands_choices(self):
        result = invoke(["wat"])
        assert result.exit_code == 2
        assert result.stderr.startswith("bnmaint: error: argument COMMAND: invalid choice: ")
        choices = result.stderr.split("(choose from ", 1)[1]
        assert re.findall(r"\w+", choices) == ["validate", "apply", "cost", "curves", "diff"]

    # bytes pinned from the product the oracle built eagerly: a table now
    # builds it on the first read of `probs`, which the dump makes
    def test_joint_dump(self, chain_file):
        result = invoke(["oracle", "joint", str(chain_file)])
        assert result.exit_code == 0
        assert result.output == (
            "A=a1 B=b1\t0.45\nA=a1 B=b2\t0.05\nA=a2 B=b1\t0.15\nA=a2 B=b2\t0.35\n"
        )

    def test_joint_dump_is_byte_identical_on_a_random_network(self, tmp_path):
        path = tmp_path / "net.json"
        netio.save_network(random_network(random.Random(23), min_nodes=5, max_nodes=5), path)
        result = invoke(["oracle", "joint", str(path)])
        assert result.exit_code == 0
        assert result.output.count("\n") == 144
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "e347ef4a03aa7c91eaebb2a31db3edbc0e6c88793596ce6217aa33b0784e1103"
        )

    def test_the_environment_sets_no_cap(self, chain_file, monkeypatch):
        args = ["oracle", "joint", str(chain_file)]
        expected = invoke(args)
        assert expected.exit_code == 0
        for value in ["2", "many"]:
            monkeypatch.setenv("BNMAINT_JOINT_CAP", value)
            result = invoke(args)
            assert result.exit_code == 0, value
            assert result.stdout == expected.stdout, value

    def test_a_cyclic_file_is_not_enumerable(self, tmp_path):
        path = tmp_path / "cyclic.json"
        doc = _small_doc()
        doc["parents"]["Y"] = ["X"]
        doc["cpts"]["Y"] = [[0.5, 0.5], [0.5, 0.5]]
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = invoke(["oracle", "joint", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: network is not enumerable: cycle Y,X\n"

    def test_a_joint_past_the_cap_is_refused(self, tmp_path):
        path = tmp_path / "roots.json"
        roots = make_net(
            [(f"R{i}", ["r1", "r2"]) for i in range(20)],
            cpts={f"R{i}": [(0.5, 0.5)] for i in range(20)},
        )
        netio.save_network(roots, path)
        result = invoke(["oracle", "joint", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            "error: joint table would hold 1048576 cells (cap 1000000)\n"
        )


# ---------------------------------------------------------------------------
# every command on files with one planted defect
# ---------------------------------------------------------------------------


def _small_doc():
    """A valid document: Y -> X, both binary."""
    return {
        "format_version": 1,
        "version_label": "E",
        "variables": [
            {"id": "Y", "name": "Y", "outcomes": ["y1", "y2"]},
            {"id": "X", "name": "X", "outcomes": ["x1", "x2"]},
        ],
        "parents": {"Y": [], "X": ["Y"]},
        "cpts": {"Y": [[0.5, 0.5]], "X": [[0.5, 0.5], [0.5, 0.5]]},
    }


def _plant(doc, defect):
    if defect == "dangling-parent":
        doc["parents"]["X"].append("Z")
    elif defect == "parent-without-outcomes":
        doc["variables"][0]["outcomes"] = []
    elif defect == "wide-row":
        doc["cpts"]["X"][0].append(0.0)
    elif defect == "extra-rows":
        doc["cpts"]["X"] += [[0.5, 0.5], [0.5, 0.5]]
    elif defect == "cycle":
        doc["parents"]["Y"] = ["X"]
    elif defect == "repeated-id":
        doc["variables"].append(dict(doc["variables"][1]))
    elif defect == "parents-of-undeclared-id":
        doc["parents"]["W"] = []
    elif defect == "cpt-of-undeclared-id":
        doc["cpts"]["W"] = [[1.0]]
    elif defect == "row-sum-off":
        doc["cpts"]["X"][0] = [0.5, 0.5005]
    elif defect == "negative-entry":
        doc["cpts"]["X"][0] = [1.5, -0.5]
    elif defect == "nan-cell":
        doc["cpts"]["X"][0] = [math.nan, 0.5]
    return doc


PLANTED_DEFECTS = [
    "dangling-parent", "parent-without-outcomes", "wide-row", "extra-rows",
    "cycle", "repeated-id", "parents-of-undeclared-id", "cpt-of-undeclared-id",
]
VALUE_DEFECTS = ["row-sum-off", "negative-entry", "nan-cell"]
COMMANDS_ON_A_AND_B = {
    "validate-B": lambda a, b: ["validate", b],
    "diff-A-B": lambda a, b: ["diff", a, b],
    "diff-B-A": lambda a, b: ["diff", b, a],
    "oracle-joint-B": lambda a, b: ["oracle", "joint", b],
}


@pytest.mark.parametrize("command", COMMANDS_ON_A_AND_B)
@pytest.mark.parametrize("defect", PLANTED_DEFECTS)
def test_no_command_raises_on_a_file_with_a_planted_defect(tmp_path, defect, command):
    # A and B share the defect and B differs in the last cell of a row
    a_doc = _plant(_small_doc(), defect)
    b_doc = copy.deepcopy(a_doc)
    b_doc["cpts"]["X"][0][-1] = 0.4
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(a_doc), encoding="utf-8")
    b.write_text(json.dumps(b_doc), encoding="utf-8")
    result = invoke(COMMANDS_ON_A_AND_B[command](str(a), str(b)))  # raises any exception
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 2:
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")


@pytest.mark.parametrize("defect", ["none", *PLANTED_DEFECTS, *VALUE_DEFECTS])
def test_validate_and_apply_agree_on_validity(tmp_path, defect):
    path, out = tmp_path / "net.json", tmp_path / "out.json"
    path.write_text(json.dumps(_plant(_small_doc(), defect)), encoding="utf-8")
    ops = [{"op": "replace_cpt", "node": "Y", "blocks": ROOT_BLOCKS}]
    script_file = _write_script(tmp_path, ops)
    invalid = invoke(["validate", str(path)]).exit_code == 1
    assert invalid is (defect != "none")
    result = invoke(["apply", str(path), str(script_file), "-o", str(out)])
    refused = result.exit_code == 1
    assert refused is invalid
    if refused:
        assert result.stderr.splitlines()[-1] == "error: input network is invalid"
    assert out.exists() is not invalid
    try:
        edits.replace_cpt(netio.load_network(path), "Y", [(0.5, 0.5)])
    except edits.MaintenanceError as e:
        assert invalid and str(e).startswith("cannot edit an invalid network: ")
    else:
        assert not invalid
