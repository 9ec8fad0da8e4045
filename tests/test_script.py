"""Change-script parsing and sequential application."""

from __future__ import annotations

import json

import pytest

from bnmaint.netio import ParseError
from bnmaint.script import ScriptError, apply_script, parse_script

from conftest import make_net


@pytest.fixture
def two_parent_net():
    return make_net(
        [("A", ["a1", "a2"]), ("D", ["d1", "d2"]), ("B", ["b1", "b2"])],
        parents={"B": ["A", "D"]},
        cpts={
            "A": [(0.5, 0.5)],
            "D": [(0.4, 0.6)],
            "B": [(0.9, 0.1), (0.8, 0.2), (0.3, 0.7), (0.2, 0.8)],
        },
    )


def _round_trip(ops):
    return parse_script(json.loads(json.dumps(ops)))


class TestParse:
    def test_must_be_array(self):
        with pytest.raises(ParseError, match="array"):
            parse_script({"op": "replace_cpt"})
        with pytest.raises(ParseError, match="object"):
            parse_script(["nope"])

    def test_unknown_op_fails_at_apply(self, chain_net):
        with pytest.raises(ScriptError, match="op 1: unknown operation"):
            apply_script(chain_net, [{"op": "teleport"}])


class TestApply:
    def test_grow_then_reuse(self, two_parent_net):
        ops = _round_trip(
            [
                {
                    "op": "add_outcomes",
                    "mode": "ignored",
                    "node": "A",
                    "outcomes": ["a3"],
                    "blocks": [{"given": {}, "values": [0.2]}],
                },
                {
                    "op": "reuse_successor_rows",
                    "node": "B",
                    "parent": "A",
                    "blocks": [
                        {"outcome": "a3", "given": {"D": "d1"}, "values": [0.5, 0.5]},
                        {"outcome": "a3", "given": {"D": "d2"}, "values": [0.6, 0.4]},
                    ],
                },
            ]
        )
        result = apply_script(two_parent_net, ops)
        assert len(result.transactions) == 2
        final = result.final
        assert final.outcomes("A") == ("a1", "a2", "a3")
        assert final.cpt("B").rows[4] == (0.5, 0.5)
        assert final.cpt("B").rows[5] == (0.6, 0.4)
        assert final.version_label == "E.2"
        assert not final.stale

    def test_blocks_are_keyed_by_labels_not_order(self, two_parent_net):
        shuffled = _round_trip(
            [
                {
                    "op": "replace_cpt",
                    "node": "B",
                    "blocks": [
                        {"given": {"A": "a2", "D": "d2"}, "values": [0.4, 0.6]},
                        {"given": {"A": "a1", "D": "d1"}, "values": [0.1, 0.9]},
                        {"given": {"A": "a2", "D": "d1"}, "values": [0.3, 0.7]},
                        {"given": {"A": "a1", "D": "d2"}, "values": [0.2, 0.8]},
                    ],
                }
            ]
        )
        result = apply_script(two_parent_net, shuffled)
        assert result.final.cpt("B").rows == (
            (0.1, 0.9),
            (0.2, 0.8),
            (0.3, 0.7),
            (0.4, 0.6),
        )

    def test_failure_names_op_index(self, chain_net):
        ops = [
            {
                "op": "add_outcomes",
                "mode": "ignored",
                "node": "A",
                "outcomes": ["a3"],
                "blocks": [{"given": {}, "values": [0.2]}],
            },
            {
                "op": "replace_cpt",
                "node": "B",
                "blocks": [{"given": {"A": "a1"}, "values": [0.5, 0.5]}],
            },
        ]
        # op 2 misses the rows for a2/a3 configurations
        with pytest.raises(ScriptError) as info:
            apply_script(chain_net, ops)
        assert info.value.op_index == 2
        assert str(info.value).startswith("op 2:")

    def test_unresolved_pending_nodes_fail_the_script(self, chain_net):
        ops = [
            {
                "op": "add_outcomes",
                "mode": "ignored",
                "node": "A",
                "outcomes": ["a3"],
                "blocks": [{"given": {}, "values": [0.2]}],
            }
        ]
        with pytest.raises(ScriptError, match="pending re-encoding: B"):
            apply_script(chain_net, ops)

    def test_empty_script_is_identity(self, chain_net):
        result = apply_script(chain_net, [])
        assert result.final == chain_net

    def test_invalid_input_is_refused_before_any_block_resolves(self):
        # an unhashable label would otherwise break the block lookup first
        net = make_net(
            [("A", [["a1"], "a2"]), ("B", ["b1", "b2"])],
            parents={"B": ["A"]},
            cpts={"A": [(0.5, 0.5)], "B": [(0.9, 0.1), (0.3, 0.7)]},
        )
        ops = [
            {
                "op": "replace_cpt",
                "node": "B",
                "blocks": [{"given": {"A": "a2"}, "values": [0.5, 0.5]}],
            }
        ]
        with pytest.raises(ScriptError) as caught:
            apply_script(net, ops)
        assert caught.value.op_index == 1
        assert caught.value.message == (
            "cannot edit an invalid network: variable A has a non-string id, name or label"
        )

    def test_duplicate_and_missing_blocks_rejected(self, chain_net):
        dup = [
            {
                "op": "replace_cpt",
                "node": "B",
                "blocks": [
                    {"given": {"A": "a1"}, "values": [0.5, 0.5]},
                    {"given": {"A": "a1"}, "values": [0.5, 0.5]},
                ],
            }
        ]
        with pytest.raises(ScriptError, match="duplicate block"):
            apply_script(chain_net, dup)
        missing = [
            {
                "op": "replace_cpt",
                "node": "B",
                "blocks": [{"given": {"A": "a1"}, "values": [0.5, 0.5]}],
            }
        ]
        with pytest.raises(ScriptError, match="missing block"):
            apply_script(chain_net, missing)

    def test_unknown_outcome_label_rejected(self, chain_net):
        ops = [
            {
                "op": "replace_cpt",
                "node": "B",
                "blocks": [
                    {"given": {"A": "bogus"}, "values": [0.5, 0.5]},
                    {"given": {"A": "a2"}, "values": [0.5, 0.5]},
                ],
            }
        ]
        with pytest.raises(ScriptError, match="unknown outcome 'bogus'"):
            apply_script(chain_net, ops)


class TestEveryOpKind:
    def test_split_then_reuse(self, chain_net):
        ops = _round_trip(
            [
                {
                    "op": "split_outcome",
                    "mode": "split",
                    "node": "A",
                    "outcome": "a2",
                    "parts": ["a2u", "a2v"],
                    "form": "weights",
                    "blocks": [{"given": {}, "values": [0.25, 0.75]}],
                },
                {
                    "op": "reuse_successor_rows",
                    "node": "B",
                    "parent": "A",
                    "blocks": [
                        {"outcome": "a2u", "given": {}, "values": [0.6, 0.4]},
                        {"outcome": "a2v", "given": {}, "values": [0.2, 0.8]},
                    ],
                },
            ]
        )
        result = apply_script(chain_net, ops)
        assert result.final.outcomes("A") == ("a1", "a2u", "a2v")
        assert result.final.cpt("A").rows[0] == pytest.approx(
            (0.5, 0.125, 0.375), abs=1e-15
        )

    def test_split_probs_form(self, chain_net):
        ops = [
            {
                "op": "split_outcome",
                "node": "A",
                "outcome": "a2",
                "parts": ["u", "v"],
                "form": "probs",
                "blocks": [{"given": {}, "values": [0.2, 0.3]}],
            },
            {
                "op": "reuse_successor_rows",
                "node": "B",
                "parent": "A",
                "blocks": [
                    {"outcome": "u", "given": {}, "values": [0.6, 0.4]},
                    {"outcome": "v", "given": {}, "values": [0.2, 0.8]},
                ],
            },
        ]
        ops[0]["mode"] = "split"
        result = apply_script(chain_net, ops)
        assert result.final.cpt("A").rows[0] == pytest.approx(
            (0.5, 0.2, 0.3), abs=1e-12
        )

    def test_add_arc_assumed_constant(self):
        net = make_net(
            [("A", ["a0", "a1"]), ("B", ["b1", "b2"])],
            cpts={"A": [(0.5, 0.5)], "B": [(0.6, 0.4)]},
        )
        ops = [
            {
                "op": "add_arc",
                "mode": "assumed-constant",
                "from": "A",
                "to": "B",
                "baseline": "a0",
                "blocks": [{"outcome": "a1", "given": {}, "values": [0.2, 0.8]}],
            }
        ]
        result = apply_script(net, ops)
        assert result.final.cpt("B").rows == ((0.6, 0.4), (0.2, 0.8))

    def test_add_arc_general(self):
        net = make_net(
            [("A", ["a0", "a1"]), ("B", ["b1", "b2"])],
            cpts={"A": [(0.5, 0.5)], "B": [(0.6, 0.4)]},
        )
        ops = [
            {
                "op": "add_arc",
                "mode": "general",
                "from": "A",
                "to": "B",
                "blocks": [
                    {"given": {"A": "a0"}, "values": [0.7, 0.3]},
                    {"given": {"A": "a1"}, "values": [0.2, 0.8]},
                ],
            }
        ]
        result = apply_script(net, ops)
        assert result.final.cpt("B").rows == ((0.7, 0.3), (0.2, 0.8))

    def test_add_variable_with_successor(self, chain_net):
        ops = [
            {
                "op": "add_variable",
                "mode": "assumed-constant",
                "variable": {"id": "N", "name": "New factor", "outcomes": ["n0", "n1"]},
                "parents": [],
                "baseline": "n0",
                "blocks": [{"given": {}, "values": [0.7, 0.3]}],
                "successors": [
                    {
                        "node": "B",
                        "blocks": [
                            {"outcome": "n1", "given": {"A": "a1"}, "values": [0.5, 0.5]},
                            {"outcome": "n1", "given": {"A": "a2"}, "values": [0.1, 0.9]},
                        ],
                    }
                ],
            }
        ]
        result = apply_script(chain_net, ops)
        final = result.final
        assert final.parents_of("B") == ("A", "N")
        assert final.cpt("B").rows == (
            (0.9, 0.1),
            (0.5, 0.5),
            (0.3, 0.7),
            (0.1, 0.9),
        )

    def test_add_variable_general_successor_blocks_use_new_id(self, chain_net):
        ops = [
            {
                "op": "add_variable",
                "mode": "general",
                "variable": {"id": "N", "outcomes": ["n0", "n1"]},
                "parents": ["A"],
                "blocks": [
                    {"given": {"A": "a1"}, "values": [0.7, 0.3]},
                    {"given": {"A": "a2"}, "values": [0.4, 0.6]},
                ],
                "successors": [
                    {
                        "node": "B",
                        "blocks": [
                            {"given": {"A": "a1", "N": "n0"}, "values": [0.9, 0.1]},
                            {"given": {"A": "a1", "N": "n1"}, "values": [0.8, 0.2]},
                            {"given": {"A": "a2", "N": "n0"}, "values": [0.3, 0.7]},
                            {"given": {"A": "a2", "N": "n1"}, "values": [0.2, 0.8]},
                        ],
                    }
                ],
            }
        ]
        result = apply_script(chain_net, ops)
        assert result.final.cpt("B").rows == (
            (0.9, 0.1),
            (0.8, 0.2),
            (0.3, 0.7),
            (0.2, 0.8),
        )

    def test_remove_arc_and_outcome_and_replace(self, chain_net):
        ops = [
            {
                "op": "remove_arc",
                "from": "A",
                "to": "B",
                "blocks": [{"given": {}, "values": [0.55, 0.45]}],
            },
            {
                "op": "remove_outcome",
                "node": "A",
                "outcome": "a2",
                "renormalize": True,
            },
            {
                "op": "replace_cpt",
                "node": "B",
                "blocks": [{"given": {}, "values": [0.5, 0.5]}],
            },
        ]
        result = apply_script(chain_net, ops)
        assert result.final.outcomes("A") == ("a1",)
        assert result.final.cpt("B").rows == ((0.5, 0.5),)
        assert result.final.version_label == "E.3"

    def test_remove_outcome_with_replacements(self):
        net = make_net(
            [("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])],
            parents={"B": ["A"]},
            cpts={
                "A": [(0.2, 0.5, 0.3)],
                "B": [(0.9, 0.1), (0.4, 0.6), (0.5, 0.5)],
            },
        )
        ops = [
            {
                "op": "remove_outcome",
                "node": "A",
                "outcome": "a2",
                "blocks": [{"given": {}, "values": [0.45, 0.55]}],
                "successors": [
                    {
                        "node": "B",
                        "blocks": [
                            {"given": {"A": "a1"}, "values": [0.9, 0.1]},
                            {"given": {"A": "a3"}, "values": [0.5, 0.5]},
                        ],
                    }
                ],
            }
        ]
        result = apply_script(net, ops)
        assert result.final.outcomes("A") == ("a1", "a3")
        assert result.final.cpt("A").rows == ((0.45, 0.55),)


# on `chain_net`, GROW_A and SPLIT_A each leave B pending, and
# REUSE_AFTER[their op] completes it
GROW_A = {"op": "add_outcomes", "mode": "ignored", "node": "A", "outcomes": ["a3"],
          "blocks": [{"given": {}, "values": [0.2]}]}
SPLIT_A = {"op": "split_outcome", "node": "A", "outcome": "a2", "parts": ["a2u", "a2v"],
           "blocks": [{"given": {}, "values": [0.25, 0.75]}]}
REUSE_AFTER = {
    "add_outcomes": {"op": "reuse_successor_rows", "node": "B", "parent": "A",
                     "blocks": [{"outcome": "a3", "given": {}, "values": [0.5, 0.5]}]},
    "split_outcome": {"op": "reuse_successor_rows", "node": "B", "parent": "A",
                      "blocks": [{"outcome": x, "given": {}, "values": [0.5, 0.5]}
                                 for x in ("a2u", "a2v")]},
}


class TestReuseMode:
    @pytest.mark.parametrize("first, mode", [(GROW_A, "ignored"), (SPLIT_A, "split")])
    def test_the_mode_the_pending_change_needs_is_the_default(self, chain_net, first, mode):
        reuse = REUSE_AFTER[first["op"]]
        implicit = apply_script(chain_net, [first, reuse])
        explicit = apply_script(chain_net, [first, {**reuse, "mode": mode}])
        assert explicit.final.cpt("B") == implicit.final.cpt("B")
        assert explicit.transactions[1].op.mode == mode

    @pytest.mark.parametrize("first, mode", [(GROW_A, "split"), (SPLIT_A, "ignored")])
    def test_a_mode_the_pending_change_does_not_match_gets_the_edits_refusal(
        self, chain_net, first, mode
    ):
        reuse = {**REUSE_AFTER[first["op"]], "mode": mode}
        with pytest.raises(ScriptError) as caught:
            apply_script(chain_net, [first, reuse])
        assert str(caught.value) == (
            f"op 2: pending change on B came from {first['op']}; "
            "use the matching reuse operation"
        )


ROOT_BLOCK = [{"given": {}, "values": [0.5, 0.5]}]
NEW_ROOT = {
    "op": "add_variable",
    "variable": {"id": "N", "outcomes": ["n1", "n2"]},
    "parents": [],
    "blocks": ROOT_BLOCK,
}
# labelled blocks resolve before the edit judges the arc
ASSUMED_ARC = {
    "op": "add_arc", "from": "B", "to": "A", "mode": "assumed-constant", "baseline": "b1",
}


@pytest.mark.parametrize(
    "rec, message",
    [
        pytest.param({"node": "A"}, 'missing or non-string "op" field', id="no-op"),
        pytest.param({"op": "replace_cpt"}, "missing field 'node'", id="no-node"),
        pytest.param(
            {"op": "add_outcomes", "node": "A", "outcomes": [3]},
            "field 'outcomes' must be an array of strings",
            id="outcomes-not-strings",
        ),
        pytest.param(
            {"op": "replace_cpt", "node": "A", "blocks": {}},
            "A: blocks must be an array",
            id="blocks-not-array",
        ),
        pytest.param(
            {"op": "replace_cpt", "node": "A", "blocks": [1]},
            "A: each block must be an object",
            id="block-not-object",
        ),
        pytest.param(
            {"op": "reuse_successor_rows", "node": "B", "parent": "A", "blocks": {}},
            "B: blocks must be an array",
            id="labeled-blocks-not-array",
        ),
        pytest.param(
            {"op": "reuse_successor_rows", "node": "B", "parent": "A", "blocks": [1]},
            "B: each block must be an object",
            id="labeled-block-not-object",
        ),
        pytest.param(
            {**ASSUMED_ARC, "blocks": {}},
            "A: blocks must be an array",
            id="assumed-arc-blocks-not-array",
        ),
        pytest.param(
            {**ASSUMED_ARC, "blocks": [[]]},
            "A: each block must be an object",
            id="assumed-arc-block-not-object",
        ),
        pytest.param(
            {"op": "replace_cpt", "node": "A", "blocks": [{"given": [], "values": []}]},
            'block field "given" must be an object',
            id="given-not-object",
        ),
        pytest.param(
            {"op": "replace_cpt", "node": "B",
             "blocks": [{"given": {"A": ["a1"]}, "values": [0.5, 0.5]}]},
            "unknown outcome ['a1'] of A",
            id="given-label-not-string",
        ),
        pytest.param(
            {"op": "replace_cpt", "node": "B",
             "blocks": [{"given": {"A": "a1", "Z": "z1"}, "values": [0.5, 0.5]}]},
            'block "given" must assign exactly (A)',
            id="given-wrong-parents",
        ),
        pytest.param(
            {**NEW_ROOT, "parents": ["A", "B"], "blocks": [
                {"given": {"A": "a2", "B": "b1"}, "values": [0.5, 0.5]},
                {"given": {"B": "b1", "A": "a2"}, "values": [0.5, 0.5]}]},
            "N: duplicate block for configuration (1, 0)",
            id="duplicate-block",
        ),
        pytest.param(
            # the new variable's repeated label is judged by the edit, after
            # its blocks: each block naming n1 resolves to the label's first
            # position
            {**NEW_ROOT, "variable": {"id": "N", "outcomes": ["n1", "n1"]},
             "successors": [{"node": "B", "blocks": [
                 {"given": {"A": "a1", "N": "n1"}, "values": [0.5, 0.5]},
                 {"given": {"A": "a1", "N": "n1"}, "values": [0.5, 0.5]}]}]},
            "B: duplicate block for configuration (0, 0)",
            id="duplicate-block-repeated-label",
        ),
        pytest.param(
            {"op": "replace_cpt", "node": "A", "blocks": [{"values": ["0.5", 0.5]}]},
            'block field "values" must be an array of numbers',
            id="values-string",
        ),
        pytest.param(
            {"op": "replace_cpt", "node": "A", "blocks": [{"values": [True, False]}]},
            'block field "values" must be an array of numbers',
            id="values-boolean",
        ),
        pytest.param(
            {"op": "replace_cpt", "node": "A", "blocks": [{"values": [10**400, 0.5]}]},
            "row 0 of node A is not a sequence of numbers",
            id="values-past-float-range",
        ),
        pytest.param(
            {
                "op": "reuse_successor_rows",
                "node": "B",
                "parent": "A",
                "blocks": [{"outcome": 1, "given": {}, "values": [0.5, 0.5]}],
            },
            'B: block field "outcome" must be a string',
            id="outcome-not-string",
        ),
        pytest.param(
            {**NEW_ROOT, "successors": {}},
            '"successors" must be an array',
            id="successors-not-array",
        ),
        pytest.param(
            {**NEW_ROOT, "successors": [1]},
            "each successor entry must be an object",
            id="successor-not-object",
        ),
        pytest.param(
            {**NEW_ROOT, "variable": {"id": "N", "name": 3, "outcomes": ["n1"]}},
            'variable field "name" must be a string',
            id="name-not-string",
        ),
        # an unknown key of a nested object is refused by name, as a
        # record's is; the first such key is named
        pytest.param(
            {"op": "replace_cpt", "node": "A", "blocks": [
                {"Given": {"A": "zz"}, "values": [0.2, 0.8], "outcome": "nope", "weight": 3}]},
            "field 'Given' is not read in a block of A",
            id="block-unknown-key",
        ),
        pytest.param(
            {"op": "replace_cpt", "node": "A", "blocks": [
                {"given": {}, "values": [0.2, 0.8], "weight": 3}]},
            "field 'weight' is not read in a block of A",
            id="block-unknown-key-after-known",
        ),
        pytest.param(
            {"op": "replace_cpt", "node": "A", "blocks": [
                {"outcome": "a1", "given": {}, "values": [0.2, 0.8]}]},
            "field 'outcome' is not read in a block of A",
            id="configuration-block-outcome",
        ),
        pytest.param(
            {**ASSUMED_ARC, "blocks": [
                {"outcome": "b2", "given": {}, "values": [0.5, 0.5], "weight": 3}]},
            "field 'weight' is not read in a block of A (b2)",
            id="labeled-block-unknown-key",
        ),
        pytest.param(
            {**NEW_ROOT, "variable": {"id": "N", "outcomes": ["n1", "n2"], "Name": "x"}},
            "field 'Name' is not read in a variable",
            id="variable-unknown-key",
        ),
        pytest.param(
            {**NEW_ROOT, "variable": {"id": "N", "outcomes": ["n1", "n2"], "parents": ["A"]}},
            "field 'parents' is not read in a variable",
            id="variable-parents",
        ),
        pytest.param(
            {**NEW_ROOT, "successors": [{"node": "B", "blocks": [], "mode": "general"}]},
            "field 'mode' is not read in a successor entry",
            id="successor-unknown-key",
        ),
        pytest.param(
            {
                "op": "add_outcomes",
                "node": "A",
                "outcomes": ["a3"],
                "mode": "split",
                "blocks": ROOT_BLOCK,
            },
            "mode 'split' is not legal for add_outcomes",
            id="add_outcomes-mode",
        ),
        pytest.param(
            {
                "op": "split_outcome",
                "node": "A",
                "outcome": "a1",
                "parts": ["u", "v"],
                "mode": "ignored",
                "blocks": ROOT_BLOCK,
            },
            "mode 'ignored' is not legal for split_outcome",
            id="split_outcome-mode",
        ),
        pytest.param(
            {"op": "add_arc", "from": "B", "to": "A", "mode": "split"},
            "mode 'split' is not legal for add_arc",
            id="add_arc-mode",
        ),
        # an id the network lacks is named before its blocks are judged
        pytest.param(
            {"op": "replace_cpt", "node": "Z"},
            "unknown variable 'Z'",
            id="unknown-node-before-blocks",
        ),
        pytest.param(
            {**NEW_ROOT, "successors": [{"node": "Z"}]},
            "unknown variable 'Z'",
            id="unknown-successor-before-blocks",
        ),
        # the mode comes first, whatever else is wrong in the record
        pytest.param(
            {"op": "replace_cpt", "mode": "ignored"},
            "mode 'ignored' is not legal for replace_cpt",
            id="mode-before-missing-node",
        ),
        pytest.param(
            {**NEW_ROOT, "parents": ["Z"], "mode": "split", "successors": 1},
            "mode 'split' is not legal for add_variable",
            id="mode-before-unknown-parent",
        ),
    ],
)
def test_record_boundary_checks(chain_net, rec, message):
    with pytest.raises(ScriptError) as caught:
        apply_script(chain_net, [rec])
    assert str(caught.value) == f"op 1: {message}"
