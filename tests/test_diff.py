"""Structural and numeric network diffs."""

from __future__ import annotations

import copy
import json
import math
from dataclasses import replace

import pytest

from bnmaint import diff, edits, netio
from bnmaint.diff import diff_networks, format_diff
from bnmaint.network import Cpt

from conftest import invoke, make_net, with_cell


def test_identical_networks_are_empty_diff(chain_net):
    assert diff_networks(chain_net, chain_net) == ()


def test_rescaled_row_lists_cells_with_old_and_new(chain_net):
    changed = with_cell(with_cell(chain_net, "B", 0, 0, 0.72), "B", 0, 1, 0.28)
    entries = diff_networks(chain_net, changed)
    cpts = [e for e in entries if e.section == "cpts"]
    assert len(cpts) == 2
    text = format_diff(entries)
    assert "cpt[B] row 0 (A=a1) [b1]: 0.9 -> 0.72" in text
    assert "cpt[B] row 0 (A=a1) [b2]: 0.1 -> 0.28" in text


def test_added_outcome_reported_under_outcomes_section(chain_net):
    t = edits.add_outcomes_ignored(chain_net, "A", ["a3"], [(0.2,)])
    t2 = edits.reuse_successor_rows_ignored(t.after, "B", "A", {"a3": [(0.5, 0.5)]})
    entries = diff_networks(chain_net, t2.after)
    outcome_entries = [e for e in entries if e.section == "outcomes"]
    assert any("outcomes[A]: added a3" == e.message for e in outcome_entries)


def test_reencoded_successor_is_named(chain_net):
    # B keeps its parents and outcomes, but its table gains the rows for the
    # split parts of A
    t = edits.split_outcome(chain_net, "A", "a1", ["a1x", "a1y"], [(0.5, 0.5)])
    t2 = edits.reuse_successor_rows_split(
        t.after, "B", "A", {"a1x": [(0.6, 0.4)], "a1y": [(0.2, 0.8)]}
    )
    text = format_diff(diff_networks(chain_net, t2.after))
    assert "cpt[B]: row count 2 -> 3" in text


def test_variable_and_arc_changes(chain_net):
    other = make_net(
        [("A", ["a1", "a2"]), ("C", ["c1", "c2"])],
        cpts={"A": [(0.5, 0.5)], "C": [(0.3, 0.7)]},
    )
    text = format_diff(diff_networks(chain_net, other))
    assert "removed B" in text
    assert "added C" in text
    assert "removed A->B" in text


def test_version_label_change_is_a_difference(chain_net):
    t = edits.replace_cpt(chain_net, "B", chain_net.cpt("B").rows)
    entries = diff_networks(chain_net, t.after)
    assert [e.section for e in entries] == ["meta"]
    assert 'version_label "E" -> "E.1"' in format_diff(entries)


def test_nan_cell_is_a_difference(chain_net):
    entries = diff_networks(chain_net, with_cell(chain_net, "B", 1, 0, math.nan))
    assert format_diff(entries) == "cpt[B] row 1 (A=a2) [b1]: 0.3 -> nan"


def test_tolerance_suppresses_tiny_cell_noise(chain_net):
    noisy = with_cell(chain_net, "B", 0, 0, 0.9 + 1e-12)
    assert diff_networks(chain_net, noisy) == ()
    moved = with_cell(chain_net, "B", 0, 0, 0.9 + 2 * diff.TOLERANCE)
    assert format_diff(diff_networks(chain_net, moved)) == (
        f"cpt[B] row 0 (A=a1) [b1]: 0.9 -> {0.9 + 2 * diff.TOLERANCE}"
    )


def _roots_and_child(order):
    # C's table is the same list of numbers under either parent order
    return make_net(
        [("A", ["a1", "a2"]), ("B", ["b1", "b2"]), ("C", ["c1", "c2"])],
        parents={"C": order},
        cpts={
            "A": [(0.5, 0.5)],
            "B": [(0.4, 0.6)],
            "C": [(0.1, 0.9), (0.2, 0.8), (0.3, 0.7), (0.4, 0.6)],
        },
    )


def test_reordered_parents_are_a_difference():
    entries = diff_networks(_roots_and_child(["A", "B"]), _roots_and_child(["B", "A"]))
    assert [(e.section, e.message) for e in entries] == [
        ("arcs", "parents[C]: reordered")
    ]


def test_reordered_parents_follow_added_arcs():
    a = _roots_and_child(["A", "B"])
    b = make_net(
        [("A", ["a1", "a2"]), ("B", ["b1", "b2"]), ("C", ["c1", "c2"])],
        parents={"B": ["A"], "C": ["B", "A"]},
        cpts={
            "A": [(0.5, 0.5)],
            "B": [(0.4, 0.6), (0.3, 0.7)],
            "C": a.cpt("C").rows,
        },
    )
    assert format_diff(diff_networks(a, b)).splitlines() == [
        "added A->B",
        "parents[C]: reordered",
    ]


def test_name_change_and_reordered_outcomes(chain_net):
    a, b = chain_net.variables
    other = replace(
        chain_net,
        variables=(replace(a, outcomes=("a2", "a1")), replace(b, name="Bee")),
    )
    assert format_diff(diff_networks(chain_net, other)).splitlines() == [
        "outcomes[A]: reordered",
        "name of B changed: B -> Bee",
    ]


def test_cpt_in_one_file_only_and_row_width(chain_net):
    missing = replace(chain_net, cpts={"B": chain_net.cpt("B")})
    widened = replace(
        chain_net, cpts={**chain_net.cpts, "A": Cpt("A", (), ((0.5, 0.3, 0.2),))}
    )
    assert format_diff(diff_networks(chain_net, missing)) == (
        "cpt[A]: present in only one file"
    )
    assert format_diff(diff_networks(chain_net, widened)) == "cpt[A] row 0: width 2 -> 3"


# Equal tables skip the per-cell loop only when every cell is finite; these
# pin the entries the loop gives otherwise.


def test_infinite_cells_differ_between_separately_loaded_copies(chain_net):
    infinite = with_cell(with_cell(chain_net, "A", 0, 0, math.inf), "B", 0, 1, math.inf)
    text = netio.dumps(infinite)
    a, b = netio.loads(text), netio.loads(text)
    assert a.cpt("A").rows == b.cpt("A").rows
    assert format_diff(diff_networks(a, b)).splitlines() == [
        "cpt[A] row 0 [a1]: inf -> inf",
        "cpt[B] row 0 (A=a1) [b2]: inf -> inf",
    ]


def test_nan_cell_in_a_shared_row_is_a_difference(chain_net):
    net = with_cell(chain_net, "B", 1, 0, math.nan)
    assert net.cpt("B").rows == net.cpt("B").rows  # tuples compare NaN by identity
    assert format_diff(diff_networks(net, net)) == "cpt[B] row 1 (A=a2) [b1]: nan -> nan"


def test_equal_finite_tables_of_separately_loaded_copies_are_identical(chain_net):
    copy = netio.loads(netio.dumps(chain_net))
    assert copy.cpt("B").rows[0] is not chain_net.cpt("B").rows[0]
    assert diff_networks(chain_net, copy) == ()


def test_edit_sharing_row_tuples_lists_only_changed_cells(chain_net):
    kept = chain_net.cpt("B").rows[0]
    after = edits.replace_cpt(chain_net, "B", [kept, (0.25, 0.75)]).after
    assert after.cpt("A") is chain_net.cpt("A") and after.cpt("B").rows[0] is kept
    assert format_diff(diff_networks(chain_net, after)).splitlines() == [
        'version_label "E" -> "E.1"',
        "cpt[B] row 1 (A=a2) [b1]: 0.3 -> 0.25",
        "cpt[B] row 1 (A=a2) [b2]: 0.7 -> 0.75",
    ]


# A and B share one malformed table X and differ in one of its cells: `diff`
# names the cell without a traceback, by its row alone where the row's
# configuration cannot be named, and by column past X's outcomes


def _shared_defect_doc(parents, cpts, outcomes_y=("y1", "y2"), rows_y=((0.5, 0.5),)):
    return {
        "format_version": 1,
        "version_label": "E",
        "variables": [
            {"id": "Y", "name": "Y", "outcomes": list(outcomes_y)},
            {"id": "X", "name": "X", "outcomes": ["x1", "x2"]},
        ],
        "parents": {"Y": [], **parents},
        "cpts": {"Y": [list(r) for r in rows_y], **cpts},
    }


SHARED_DEFECTS = {
    "undeclared-parent": (
        _shared_defect_doc({"X": ["Z"]}, {"X": [[0.5, 0.5], [0.5, 0.5]]}),
        (0, 0, 0.4),
        "cpt[X] row 0 [x1]: 0.5 -> 0.4",
    ),
    "parent-without-outcomes": (
        _shared_defect_doc({"X": ["Y"]}, {"X": [[0.5, 0.5]]}, outcomes_y=(), rows_y=((),)),
        (0, 0, 0.4),
        "cpt[X] row 0 [x1]: 0.5 -> 0.4",
    ),
    "row-wider-than-outcomes": (
        _shared_defect_doc({"X": []}, {"X": [[0.5, 0.25, 0.25]]}),
        (0, 2, 0.2),
        "cpt[X] row 0 [column 2]: 0.25 -> 0.2",
    ),
    "more-rows-than-configurations": (
        _shared_defect_doc({"X": ["Y"]}, {"X": [[0.5, 0.5] for _ in range(4)]}),
        (3, 0, 0.4),
        "cpt[X] row 3 [x1]: 0.5 -> 0.4",
    ),
    "fewer-rows-than-configurations": (
        _shared_defect_doc({"X": ["Y"]}, {"X": [[0.5, 0.5]]}),
        (0, 0, 0.4),
        "cpt[X] row 0 [x1]: 0.5 -> 0.4",
    ),
}


@pytest.mark.parametrize("defect", SHARED_DEFECTS)
def test_a_shared_malformed_table_is_diffed_without_a_traceback(tmp_path, defect):
    doc, (row, col, value), line = SHARED_DEFECTS[defect]
    changed = copy.deepcopy(doc)
    changed["cpts"]["X"][row][col] = value
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc), encoding="utf-8")
    b.write_text(json.dumps(changed), encoding="utf-8")
    result = invoke(["diff", str(a), str(b)])
    assert result.exit_code == 1
    assert result.stdout == line + "\n"
    assert result.stderr == ""


# keys the two files hold alike in `variables`, `parents` or `cpts` that the
# declarations alone do not reach: each is compared, and compared once


def _undeclared_w(section, value):
    doc = _shared_defect_doc({"X": ["Y"]}, {"X": [[0.5, 0.5], [0.5, 0.5]]})
    doc[section]["W"] = value
    return doc


def _repeated_x(parents_x, rows_x):
    doc = _shared_defect_doc({"X": parents_x}, {"X": rows_x})
    doc["variables"].append(dict(doc["variables"][1]))
    return doc


KEY_PAIRS = {
    "cpt-of-undeclared-id": (
        _undeclared_w("cpts", [[1.0]]),
        _undeclared_w("cpts", [[0.5]]),
        ["cpt[W] row 0 [column 0]: 1.0 -> 0.5"],
    ),
    "parents-of-undeclared-id": (
        _undeclared_w("parents", []),
        _undeclared_w("parents", ["Y"]),
        ["added Y->W"],
    ),
    "repeated-id-cells": (
        _repeated_x(["Y"], [[0.5, 0.5], [0.5, 0.5]]),
        _repeated_x(["Y"], [[0.6, 0.4], [0.5, 0.5]]),
        ["cpt[X] row 0 (Y=y1) [x1]: 0.5 -> 0.6", "cpt[X] row 0 (Y=y1) [x2]: 0.5 -> 0.4"],
    ),
    "repeated-id-arcs": (
        _repeated_x(["Y"], [[0.5, 0.5], [0.5, 0.5]]),
        _repeated_x([], [[0.5, 0.5]]),
        ["removed Y->X"],
    ),
    "repeated-id-in-one-file": (
        _repeated_x(["Y"], [[0.5, 0.5], [0.5, 0.5]]),
        {**_repeated_x(["Y"], [[0.5, 0.5], [0.5, 0.5]]), "variables": [
            {"id": "Y", "name": "Y", "outcomes": ["y1", "y2"]},
            {"id": "X", "name": "Ex", "outcomes": ["x1", "x2"]},
        ]},
        ["name of X changed: X -> Ex"],
    ),
    "declared-in-one-file-only": (
        _undeclared_w("cpts", [[1.0]]),
        {**_undeclared_w("cpts", [[1.0]]), "variables": [
            {"id": "Y", "name": "Y", "outcomes": ["y1", "y2"]},
            {"id": "X", "name": "X", "outcomes": ["x1", "x2"]},
            {"id": "W", "name": "W", "outcomes": ["w1"]},
        ]},
        ["added W"],
    ),
}


@pytest.mark.parametrize("pair", KEY_PAIRS)
def test_every_key_is_compared_once(tmp_path, pair):
    a_doc, b_doc, lines = KEY_PAIRS[pair]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(a_doc), encoding="utf-8")
    b.write_text(json.dumps(b_doc), encoding="utf-8")
    result = invoke(["diff", str(a), str(b)])
    assert result.exit_code == 1
    assert result.stdout.splitlines() == lines
    assert result.stderr == ""
