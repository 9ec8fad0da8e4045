"""Edit transactions: rescaling rules, successor reuse, general edits."""

from __future__ import annotations

import ast
import copy
import inspect
import math
import random
import typing
from itertools import chain, compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnmaint import edits, network
from bnmaint.edits import (
    MaintenanceError,
    add_arc_assumed_constant,
    add_arc_general,
    add_outcomes_general,
    add_outcomes_ignored,
    add_variable,
    bump_label,
    remove_arc,
    remove_outcome,
    replace_cpt,
    reuse_successor_rows_ignored,
    reuse_successor_rows_split,
    split_outcome,
    split_outcome_general,
)
from bnmaint.network import Cpt, Network, StaleParent, Variable, validate_network

from conftest import (
    make_net,
    random_mass_blocks,
    random_network,
    random_row,
    random_weights,
    with_cell,
)


def purity_guard(net):
    """Snapshot for asserting the input network was not touched."""
    return copy.deepcopy(net)


@pytest.fixture
def root_net():
    return make_net([("A", ["a1", "a2"])], cpts={"A": [(0.3, 0.7)]})


def _three():
    """A (3 outcomes) -> B, plus a root C."""
    return make_net(
        [("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"]), ("C", ["c1", "c2"])],
        parents={"B": ["A"]},
        cpts={
            "A": [(0.2, 0.5, 0.3)],
            "B": [(0.9, 0.1), (0.4, 0.6), (0.5, 0.5)],
            "C": [(0.3, 0.7)],
        },
    )


class TestBumpLabel:
    def test_suffix_chain(self):
        assert bump_label("E") == "E.1"
        assert bump_label("E.1") == "E.2"
        assert bump_label("E.9") == "E.10"
        assert bump_label("long name v2") == "long name v2.1"


class TestEditOpModeLegality:
    def test_legal_combinations_construct(self):
        edits.EditOp("add_outcomes", "ignored", "A")
        edits.EditOp("split_outcome", "split", "A")
        edits.EditOp("add_arc", "assumed-constant", "B", source="A")
        edits.EditOp("replace_cpt", "general", "A")

    @pytest.mark.parametrize(
        "kind,mode",
        [
            ("replace_cpt", "ignored"),
            ("add_outcomes", "split"),
            ("add_outcomes", "assumed-constant"),
            ("split_outcome", "ignored"),
            ("remove_arc", "assumed-constant"),
            ("add_arc", "ignored"),
            ("add_variable", "split"),
        ],
    )
    def test_illegal_combinations_rejected(self, kind, mode):
        with pytest.raises(MaintenanceError, match="not legal"):
            edits.EditOp(kind, mode, "A")

    def test_unknown_kind_rejected(self):
        with pytest.raises(MaintenanceError, match="unknown edit kind"):
            edits.EditOp("teleport", "general", "A")

    @pytest.mark.parametrize(
        "kind, mode, message",
        [
            (["x"], "general", r"^unknown edit kind \['x'\]$"),
            ("add_arc", ["x"], r"^mode \['x'\] is not legal for add_arc$"),
            ("add_arc", {"x": 1}, r"^mode \{'x': 1\} is not legal for add_arc$"),
            ("add_arc", None, "^mode None is not legal for add_arc$"),
        ],
        ids=["kind-list", "mode-list", "mode-dict", "mode-none"],
    )
    def test_unhashable_or_non_string_kind_and_mode_rejected(self, kind, mode, message):
        with pytest.raises(MaintenanceError, match=message):
            edits.EditOp(kind, mode, "A")

    @pytest.mark.parametrize("labels", ["xy", b"xy", None, 3])
    def test_labels_must_be_a_sequence_of_labels(self, labels):
        message = "^labels of add_outcomes must be a sequence of labels$"
        with pytest.raises(MaintenanceError, match=message):
            edits.EditOp("add_outcomes", "general", "A", labels=labels)

    def test_a_label_list_is_kept_as_a_tuple(self):
        assert edits.EditOp("add_outcomes", "general", "A", labels=["x"]).labels == ("x",)

    def test_add_variable_rejects_an_unhashable_mode(self):
        net = _three()
        guard = purity_guard(net)
        with pytest.raises(
            MaintenanceError, match=r"^mode \['x'\] is not legal for add_variable$"
        ):
            add_variable(net, Variable("N", "N", ("x", "y")), (), [(0.5, 0.5)], mode=["x"])
        assert net == guard


class TestAddOutcomesIgnored:
    def test_zero_mass_keeps_old_values_bitwise(self, root_net):
        t = add_outcomes_ignored(root_net, "A", ["a3"], [(0.0,)])
        assert t.after.cpt("A").rows == ((0.3, 0.7, 0.0),)
        assert t.factors.per_config == (1.0,)

    def test_single_new_outcome_rescales(self, root_net):
        # oracle: renormalize the old row to mass 1 - 0.2, then append
        t = add_outcomes_ignored(root_net, "A", ["a3"], [(0.2,)])
        expected = tuple(x * (1.0 - 0.2) for x in (0.3, 0.7)) + (0.2,)
        assert t.after.cpt("A").rows[0] == expected
        assert t.after.cpt("A").rows[0] == pytest.approx((0.24, 0.56, 0.2), abs=1e-15)
        assert t.factors.per_config[0] == pytest.approx(0.8, abs=1e-15)
        assert math.fsum(t.after.cpt("A").rows[0]) == pytest.approx(1.0, abs=1e-9)

    def test_two_new_outcomes(self):
        net = make_net([("A", ["a1", "a2"])], cpts={"A": [(0.5, 0.5)]})
        t = add_outcomes_ignored(net, "A", ["a3", "a4"], [(0.1, 0.3)])
        row = t.after.cpt("A").rows[0]
        assert row == pytest.approx((0.3, 0.3, 0.1, 0.3), abs=1e-15)
        assert t.factors.per_config[0] == pytest.approx(0.6, abs=1e-15)

    def test_full_mass_zeroes_old_outcomes(self):
        net = make_net([("A", ["a1", "a2"])], cpts={"A": [(0.4, 0.6)]})
        t = add_outcomes_ignored(net, "A", ["a3"], [(1.0,)])
        assert t.after.cpt("A").rows[0] == (0.0, 0.0, 1.0)
        assert t.factors.per_config == (0.0,)
        assert math.fsum(t.after.cpt("A").rows[0]) == 1.0

    def test_per_config_factors(self):
        net = make_net(
            [("D", ["d1", "d2"]), ("A", ["a1", "a2"])],
            parents={"A": ["D"]},
            cpts={"D": [(0.5, 0.5)], "A": [(0.2, 0.8), (0.9, 0.1)]},
        )
        t = add_outcomes_ignored(net, "A", ["a3"], [(0.5,), (0.25,)])
        assert t.factors.case == "ignored"
        assert t.factors.per_config == pytest.approx((0.5, 0.75), abs=1e-15)
        for lam in t.factors.per_config:
            assert 0.0 <= lam <= 1.0

    def test_successors_marked_pending(self, chain_net):
        t = add_outcomes_ignored(chain_net, "A", ["a3"], [(0.2,)])
        assert "B" in t.after.stale
        info = t.after.stale["B"]
        assert info.parent == "A"
        assert info.old_outcomes == ("a1", "a2")
        # old successor table is kept verbatim for the later reuse
        assert t.after.cpt("B").rows == chain_net.cpt("B").rows
        assert validate_network(t.after).ok

    def test_mass_above_one_rejected(self, root_net):
        with pytest.raises(MaintenanceError, match="row 0 of node A sums to 1.2"):
            add_outcomes_ignored(root_net, "A", ["a3", "a4"], [(0.7, 0.5)])

    def test_label_collision_rejected(self, root_net):
        with pytest.raises(
            MaintenanceError, match="duplicate outcome labels on variable A"
        ):
            add_outcomes_ignored(root_net, "A", ["a2"], [(0.1,)])

    def test_unknown_node_rejected(self, root_net):
        with pytest.raises(MaintenanceError, match="unknown variable"):
            add_outcomes_ignored(root_net, "Z", ["z"], [(0.1,)])

    def test_wrong_block_shape_rejected(self, root_net):
        with pytest.raises(MaintenanceError, match="blocks"):
            add_outcomes_ignored(root_net, "A", ["a3"], [(0.1,), (0.1,)])
        with pytest.raises(
            MaintenanceError, match="row 0 of node A has 4 entries, expected 3"
        ):
            add_outcomes_ignored(root_net, "A", ["a3"], [(0.1, 0.2)])

    def test_no_new_outcomes_is_identity(self, chain_net):
        t = add_outcomes_ignored(chain_net, "A", [], [()])
        assert t.after.cpt("A").rows == chain_net.cpt("A").rows
        assert not t.after.stale
        assert t.report.for_node("A").elicited == 0

    def test_purity(self, chain_net):
        guard = purity_guard(chain_net)
        add_outcomes_ignored(chain_net, "A", ["a3"], [(0.2,)])
        assert chain_net == guard

    def test_report_counts(self):
        net = make_net(
            [("D", ["d1", "d2", "d3"]), ("A", ["a1", "a2"])],
            parents={"A": ["D"]},
            cpts={"D": [(0.3, 0.3, 0.4)], "A": [(0.2, 0.8)] * 3},
        )
        t = add_outcomes_ignored(net, "A", ["a3"], [(0.1,)] * 3)
        entry = t.report.for_node("A")
        assert (entry.elicited, entry.reused, entry.baseline) == (3, 3, 6)


class TestAddOutcomesGeneral:
    def test_full_table_supplied(self, chain_net):
        t = add_outcomes_general(chain_net, "A", ["a3"], [(0.2, 0.3, 0.5)])
        assert t.after.cpt("A").rows == ((0.2, 0.3, 0.5),)
        assert t.after.stale == {"B": t.after.stale["B"]}
        entry = t.report.for_node("A")
        assert (entry.elicited, entry.reused, entry.baseline) == (2, 0, 2)
        assert t.factors is None

    def test_rows_must_normalize(self, chain_net):
        with pytest.raises(MaintenanceError, match="row 0 of node A sums to 1.1"):
            add_outcomes_general(chain_net, "A", ["a3"], [(0.2, 0.3, 0.6)])

    def test_no_new_outcomes_still_counts_the_new_table(self, chain_net):
        # the supplied table replaces A's (0.5, 0.5): a full re-encode
        t = add_outcomes_general(chain_net, "A", [], [(0.3, 0.7)])
        assert t.after.cpt("A").rows == ((0.3, 0.7),)
        assert not t.after.stale
        entry = t.report.for_node("A")
        assert (entry.elicited, entry.reused, entry.baseline) == (1, 0, 1)


class TestSplitOutcome:
    def test_weights_partition_mass(self):
        net = make_net([("A", ["lo", "mid", "hi"])], cpts={"A": [(0.2, 0.4, 0.4)]})
        t = split_outcome(net, "A", "mid", ["mid1", "mid2"], [(0.25, 0.75)])
        row = t.after.cpt("A").rows[0]
        assert row == pytest.approx((0.2, 0.1, 0.3, 0.4), abs=1e-15)
        assert t.after.outcomes("A") == ("lo", "mid1", "mid2", "hi")
        # untouched entries are the very same floats
        assert row[0] == 0.2 and row[3] == 0.4
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-9)

    def test_single_part_is_relabel(self):
        net = make_net([("A", ["lo", "hi"])], cpts={"A": [(0.3, 0.7)]})
        t = split_outcome(net, "A", "hi", ["hi_renamed"], [(1.0,)])
        assert t.after.cpt("A").rows == ((0.3, 0.7),)
        assert t.after.outcomes("A") == ("lo", "hi_renamed")

    def test_direct_probabilities_validated_against_old_mass(self):
        net = make_net([("A", ["lo", "mid", "hi"])], cpts={"A": [(0.2, 0.4, 0.4)]})
        t = split_outcome(
            net, "A", "mid", ["m1", "m2"], [(0.15, 0.25)], form="probs"
        )
        assert t.after.cpt("A").rows[0] == pytest.approx(
            (0.2, 0.15, 0.25, 0.4), abs=1e-12
        )
        with pytest.raises(MaintenanceError, match="old probability"):
            split_outcome(net, "A", "mid", ["m1", "m2"], [(0.15, 0.30)], form="probs")

    def test_prob_form_with_zero_old_mass(self):
        net = make_net([("A", ["lo", "hi"])], cpts={"A": [(1.0, 0.0)]})
        t = split_outcome(net, "A", "hi", ["h1", "h2"], [(0.0, 0.0)], form="probs")
        assert t.after.cpt("A").rows[0] == (1.0, 0.0, 0.0)
        assert t.factors.per_config[0] == (0.5, 0.5)
        with pytest.raises(MaintenanceError, match="old probability"):
            split_outcome(net, "A", "hi", ["h1", "h2"], [(0.1, 0.0)], form="probs")

    @pytest.mark.parametrize(
        "outcome, probs, message",
        [
            ("hi", (math.nan, 0.0), "probability nan is not >= 0"),
            ("lo", (math.nan, 1.0), "probability nan is not >= 0"),
            ("lo", (-0.5, 1.5), "probability -0.5 is not >= 0"),
        ],
        ids=["nan-zero-mass", "nan-positive-mass", "negative"],
    )
    def test_prob_form_rejects_nan_and_negative(self, outcome, probs, message):
        net = make_net([("A", ["lo", "hi"])], cpts={"A": [(1.0, 0.0)]})
        with pytest.raises(MaintenanceError, match=message):
            split_outcome(net, "A", outcome, ["p1", "p2"], [probs], form="probs")

    def test_weight_constraints(self):
        net = make_net([("A", ["lo", "hi"])], cpts={"A": [(0.3, 0.7)]})
        with pytest.raises(MaintenanceError, match="weights sum"):
            split_outcome(net, "A", "hi", ["h1", "h2"], [(0.5, 0.6)])
        with pytest.raises(MaintenanceError, match="outside"):
            split_outcome(net, "A", "hi", ["h1", "h2"], [(1.5, -0.5)])

    def test_factor_rows_sum_to_one(self):
        rng = random.Random(31)
        net = make_net(
            [("D", ["d1", "d2"]), ("A", ["a1", "a2"])],
            parents={"A": ["D"]},
            cpts={"D": [(0.5, 0.5)], "A": [(0.2, 0.8), (0.9, 0.1)]},
        )
        t = split_outcome(
            net, "A", "a2", ["p", "q", "r"],
            [random_weights(rng, 3) for _ in range(2)],
        )
        assert t.factors.case == "split"
        for weights in t.factors.per_config:
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= w <= 1.0 for w in weights)

    def test_part_label_constraints(self):
        net = make_net([("A", ["lo", "hi"])], cpts={"A": [(0.3, 0.7)]})
        with pytest.raises(
            MaintenanceError, match="duplicate outcome labels on variable A"
        ):
            split_outcome(net, "A", "hi", ["lo"], [(1.0,)])
        with pytest.raises(MaintenanceError, match="already exist"):
            split_outcome(net, "A", "hi", ["hi", "hi2"], [(0.5, 0.5)])
        with pytest.raises(MaintenanceError, match="duplicate"):
            split_outcome(net, "A", "hi", ["h1", "h1"], [(0.5, 0.5)])
        with pytest.raises(MaintenanceError, match="unknown outcome"):
            split_outcome(net, "A", "nope", ["h1"], [(1.0,)])

    def test_successors_marked_pending(self, chain_net):
        t = split_outcome(chain_net, "A", "a2", ["a2u", "a2v"], [(0.5, 0.5)])
        assert t.after.stale["B"].cause == "split_outcome"
        assert validate_network(t.after).ok

    def test_report_counts(self):
        net = make_net([("A", ["lo", "mid", "hi"])], cpts={"A": [(0.2, 0.4, 0.4)]})
        t = split_outcome(net, "A", "mid", ["m1", "m2"], [(0.25, 0.75)])
        entry = t.report.for_node("A")
        # old width 3, 2 parts: new table has 3 free params, 1 elicited
        assert (entry.elicited, entry.reused, entry.baseline) == (1, 2, 3)

    def test_general_fallback(self):
        net = make_net([("A", ["lo", "hi"])], cpts={"A": [(0.3, 0.7)]})
        t = split_outcome_general(net, "A", "hi", ["h1", "h2"], [(0.5, 0.2, 0.3)])
        assert t.after.cpt("A").rows == ((0.5, 0.2, 0.3),)
        entry = t.report.for_node("A")
        assert (entry.elicited, entry.reused, entry.baseline) == (2, 0, 2)


class TestReuseSuccessorRowsIgnored:
    def test_old_rows_copied_verbatim(self, chain_net):
        t = add_outcomes_ignored(chain_net, "A", ["a3"], [(0.2,)])
        t2 = reuse_successor_rows_ignored(t.after, "B", "A", {"a3": [(0.5, 0.5)]})
        rows = t2.after.cpt("B").rows
        assert rows[0] == chain_net.cpt("B").rows[0]
        assert rows[1] == chain_net.cpt("B").rows[1]
        assert rows[2] == (0.5, 0.5)
        assert "B" not in t2.after.stale
        assert validate_network(t2.after).ok

    def _two_parent_setup(self):
        net = make_net(
            [("A", ["a1", "a2"]), ("D", ["d1", "d2"]), ("B", ["b1", "b2"])],
            parents={"B": ["A", "D"]},
            cpts={
                "A": [(0.5, 0.5)],
                "D": [(0.4, 0.6)],
                "B": [(0.9, 0.1), (0.8, 0.2), (0.3, 0.7), (0.2, 0.8)],
            },
        )
        return net, add_outcomes_ignored(net, "A", ["a3"], [(0.2,)]).after

    def test_one_row_per_other_parent_config(self):
        net, grown = self._two_parent_setup()
        # two rows are needed for the new outcome: one per D outcome
        with pytest.raises(MaintenanceError, match="expected 2 rows"):
            reuse_successor_rows_ignored(grown, "B", "A", {"a3": [(0.5, 0.5)]})
        t = reuse_successor_rows_ignored(
            grown, "B", "A", {"a3": [(0.5, 0.5), (0.6, 0.4)]}
        )
        rows = t.after.cpt("B").rows
        # enumeration (A,D): a1d1,a1d2,a2d1,a2d2,a3d1,a3d2
        assert rows[:4] == net.cpt("B").rows
        assert rows[4] == (0.5, 0.5)
        assert rows[5] == (0.6, 0.4)
        entry = t.report.for_node("B")
        assert (entry.elicited, entry.reused, entry.baseline) == (2, 4, 6)

    def test_changed_parent_in_middle_of_order(self):
        net = make_net(
            [("A", ["a1", "a2"]), ("D", ["d1", "d2"]), ("B", ["b1", "b2"])],
            parents={"B": ["D", "A"]},
            cpts={
                "A": [(0.5, 0.5)],
                "D": [(0.4, 0.6)],
                "B": [(0.9, 0.1), (0.8, 0.2), (0.3, 0.7), (0.2, 0.8)],
            },
        )
        grown = add_outcomes_ignored(net, "A", ["a3"], [(0.2,)]).after
        t = reuse_successor_rows_ignored(
            grown, "B", "A", {"a3": [(0.5, 0.5), (0.6, 0.4)]}
        )
        rows = t.after.cpt("B").rows
        # enumeration (D,A): d1a1,d1a2,d1a3,d2a1,d2a2,d2a3
        old = net.cpt("B").rows
        assert rows == (old[0], old[1], (0.5, 0.5), old[2], old[3], (0.6, 0.4))

    def test_zero_new_outcomes_identity(self, chain_net):
        t = reuse_successor_rows_ignored(chain_net, "B", "A", {})
        assert t.after.cpt("B").rows == chain_net.cpt("B").rows
        assert t.report.for_node("B").elicited == 0

    def test_errors(self, chain_net):
        grown = add_outcomes_ignored(chain_net, "A", ["a3"], [(0.2,)]).after
        with pytest.raises(MaintenanceError, match="elicited rows required"):
            reuse_successor_rows_ignored(grown, "B", "A", {})
        with pytest.raises(MaintenanceError, match="row 2 of node B sums to 1.1"):
            reuse_successor_rows_ignored(grown, "B", "A", {"a3": [(0.5, 0.6)]})
        with pytest.raises(MaintenanceError, match="not a parent"):
            reuse_successor_rows_ignored(grown, "B", "B", {})
        with pytest.raises(MaintenanceError, match="no pending"):
            reuse_successor_rows_ignored(chain_net, "B", "A", {"a3": [(0.5, 0.5)]})

    def test_cause_must_match(self, chain_net):
        pending = split_outcome(chain_net, "A", "a2", ["u", "v"], [(0.5, 0.5)]).after
        with pytest.raises(MaintenanceError, match="matching reuse"):
            reuse_successor_rows_ignored(
                pending, "B", "A", {"u": [(0.5, 0.5)], "v": [(0.5, 0.5)]}
            )


class TestReuseSuccessorRowsSplit:
    def test_keeps_unsplit_rows_and_elicits_parts(self):
        net = make_net(
            [("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])],
            parents={"B": ["A"]},
            cpts={
                "A": [(0.2, 0.5, 0.3)],
                "B": [(0.9, 0.1), (0.4, 0.6), (0.5, 0.5)],
            },
        )
        pending = split_outcome(net, "A", "a2", ["u", "v"], [(0.5, 0.5)]).after
        t = reuse_successor_rows_split(
            pending, "B", "A", {"u": [(0.7, 0.3)], "v": [(0.1, 0.9)]}
        )
        rows = t.after.cpt("B").rows
        old = net.cpt("B").rows
        # new order a1,u,v,a3: two rows kept, two elicited
        assert rows == (old[0], (0.7, 0.3), (0.1, 0.9), old[2])
        entry = t.report.for_node("B")
        assert (entry.elicited, entry.reused, entry.baseline) == (2, 2, 4)

    def test_single_part_relabel_needs_no_rows(self, chain_net):
        pending = split_outcome(chain_net, "A", "a2", ["a2_renamed"], [(1.0,)]).after
        t = reuse_successor_rows_split(pending, "B", "A", {})
        assert t.after.cpt("B").rows == chain_net.cpt("B").rows
        assert t.report.for_node("B").elicited == 0
        assert "B" not in t.after.stale

    def test_general_fallback_via_replace_cpt(self, chain_net):
        pending = split_outcome(chain_net, "A", "a2", ["u", "v"], [(0.5, 0.5)]).after
        t = replace_cpt(
            pending, "B", [(0.9, 0.1), (0.6, 0.4), (0.2, 0.8)]
        )
        assert "B" not in t.after.stale
        assert validate_network(t.after).ok
        entry = t.report.for_node("B")
        assert (entry.elicited, entry.reused, entry.baseline) == (3, 0, 3)


class TestAddArcAssumedConstant:
    def test_baseline_block_reuses_old_rows(self):
        # B is currently a root with prior (0.6, 0.4); adding A->B keeps that
        # distribution for the baseline outcome
        net = make_net(
            [("A", ["a0", "a1"]), ("B", ["b1", "b2"])],
            cpts={"A": [(0.5, 0.5)], "B": [(0.6, 0.4)]},
        )
        t = add_arc_assumed_constant(net, "A", "B", "a0", {"a1": [(0.2, 0.8)]})
        assert t.after.parents_of("B") == ("A",)
        rows = t.after.cpt("B").rows
        assert rows[0] == net.cpt("B").rows[0]
        assert rows[1] == (0.2, 0.8)
        assert validate_network(t.after).ok

    def test_three_outcome_source_counts(self):
        net = make_net(
            [("A", ["a0", "a1", "a2"]), ("B", ["b1", "b2"])],
            cpts={"A": [(0.3, 0.3, 0.4)], "B": [(0.6, 0.4)]},
        )
        t = add_arc_assumed_constant(
            net, "A", "B", "a0", {"a1": [(0.2, 0.8)], "a2": [(0.1, 0.9)]}
        )
        entry = t.report.for_node("B")
        # per config of the other parents (none): 2 rows elicited, 1 reused
        assert (entry.elicited, entry.reused, entry.baseline) == (2, 1, 3)

    def test_other_parent_configs(self):
        net = make_net(
            [("A", ["a0", "a1"]), ("D", ["d1", "d2"]), ("B", ["b1", "b2", "b3"])],
            parents={"B": ["D"]},
            cpts={
                "A": [(0.5, 0.5)],
                "D": [(0.4, 0.6)],
                "B": [(0.2, 0.3, 0.5), (0.6, 0.2, 0.2)],
            },
        )
        t = add_arc_assumed_constant(
            net, "A", "B", "a0", {"a1": [(0.1, 0.1, 0.8), (0.3, 0.3, 0.4)]}
        )
        rows = t.after.cpt("B").rows
        old = net.cpt("B").rows
        # enumeration (D,A): d1a0,d1a1,d2a0,d2a1
        assert rows == (old[0], (0.1, 0.1, 0.8), old[1], (0.3, 0.3, 0.4))
        entry = t.report.for_node("B")
        assert (entry.elicited, entry.reused, entry.baseline) == (4, 4, 8)

    def test_errors(self, chain_net):
        with pytest.raises(MaintenanceError, match="cycle"):
            add_arc_assumed_constant(chain_net, "B", "A", "b1", {"b2": [(0.5, 0.5)]})
        with pytest.raises(MaintenanceError, match="already exists"):
            add_arc_assumed_constant(chain_net, "A", "B", "a1", {"a2": [(0.5, 0.5)]})
        net = make_net(
            [("A", ["a0", "a1"]), ("B", ["b1", "b2"])],
            cpts={"A": [(0.5, 0.5)], "B": [(0.6, 0.4)]},
        )
        with pytest.raises(MaintenanceError, match="baseline"):
            add_arc_assumed_constant(net, "A", "B", "zz", {"a1": [(0.2, 0.8)]})
        with pytest.raises(MaintenanceError, match="elicited rows required"):
            add_arc_assumed_constant(net, "A", "B", "a0", {})

    def test_general_mode(self):
        net = make_net(
            [("A", ["a0", "a1"]), ("B", ["b1", "b2"])],
            cpts={"A": [(0.5, 0.5)], "B": [(0.6, 0.4)]},
        )
        t = add_arc_general(net, "A", "B", [(0.6, 0.4), (0.2, 0.8)])
        entry = t.report.for_node("B")
        assert (entry.elicited, entry.reused, entry.baseline) == (2, 0, 2)


class TestAddVariable:
    def test_root_with_no_successors(self, chain_net):
        t = add_variable(chain_net, Variable("N", "N", ("n1", "n2")), (), [(0.7, 0.3)])
        assert t.after.ids() == ("A", "B", "N")
        entry = t.report.for_node("N")
        assert (entry.elicited, entry.reused, entry.baseline) == (1, 0, 1)
        assert t.report.for_node("A").elicited == 0

    def test_assumed_constant_successor_reuses_old_table(self, chain_net):
        t = add_variable(
            chain_net,
            Variable("N", "N", ("n0", "n1")),
            (),
            [(0.7, 0.3)],
            mode=edits.MODE_ASSUMED_CONSTANT,
            baseline="n0",
            successors={"B": {"n1": [(0.5, 0.5), (0.1, 0.9)]}},
        )
        assert t.after.parents_of("B") == ("A", "N")
        rows = t.after.cpt("B").rows
        old = chain_net.cpt("B").rows
        # enumeration (A,N): a1n0,a1n1,a2n0,a2n1
        assert rows == (old[0], (0.5, 0.5), old[1], (0.1, 0.9))
        entry = t.report.for_node("B")
        assert (entry.elicited, entry.reused, entry.baseline) == (2, 2, 4)

    def test_general_successor_fully_reelicited(self, chain_net):
        t = add_variable(
            chain_net,
            Variable("N", "N", ("n0", "n1")),
            (),
            [(0.7, 0.3)],
            mode=edits.MODE_GENERAL,
            successors={
                "B": [(0.9, 0.1), (0.5, 0.5), (0.3, 0.7), (0.1, 0.9)]
            },
        )
        entry = t.report.for_node("B")
        assert (entry.elicited, entry.reused, entry.baseline) == (4, 0, 4)

    def test_variable_with_parents(self, chain_net):
        t = add_variable(
            chain_net,
            Variable("N", "N", ("n1", "n2", "n3")),
            ("A",),
            [(0.2, 0.3, 0.5), (0.6, 0.2, 0.2)],
        )
        assert t.after.parents_of("N") == ("A",)
        entry = t.report.for_node("N")
        assert (entry.elicited, entry.reused, entry.baseline) == (4, 0, 4)

    def test_errors(self, chain_net):
        with pytest.raises(MaintenanceError, match="already exists"):
            add_variable(chain_net, Variable("A", "A", ("x",)), (), [(1.0,)])
        with pytest.raises(MaintenanceError, match="baseline"):
            add_variable(
                chain_net,
                Variable("N", "N", ("n1", "n2")),
                (),
                [(0.5, 0.5)],
                mode=edits.MODE_ASSUMED_CONSTANT,
            )
        # successor reaching a parent would close a cycle
        with pytest.raises(MaintenanceError, match="cycle"):
            add_variable(
                chain_net,
                Variable("N", "N", ("n1", "n2")),
                ("B",),
                [(0.5, 0.5), (0.5, 0.5)],
                mode=edits.MODE_ASSUMED_CONSTANT,
                baseline="n1",
                successors={"A": {"n2": [(0.5, 0.5)]}},
            )
        with pytest.raises(MaintenanceError, match="incomplete|rows"):
            add_variable(chain_net, Variable("N", "N", ("n1", "n2")), (), [])


class TestGeneralEdits:
    def test_remove_arc(self, chain_net):
        t = remove_arc(chain_net, "A", "B", [(0.55, 0.45)])
        assert t.after.parents_of("B") == ()
        assert t.after.cpt("B").rows == ((0.55, 0.45),)
        entry = t.report.for_node("B")
        assert (entry.elicited, entry.reused, entry.baseline) == (1, 0, 1)

    def test_remove_arc_requires_right_shape(self, chain_net):
        with pytest.raises(MaintenanceError, match="has 2 CPT rows, expected 1"):
            remove_arc(chain_net, "A", "B", [(0.55, 0.45), (0.5, 0.5)])
        with pytest.raises(MaintenanceError, match="no arc"):
            remove_arc(chain_net, "B", "A", [(0.5, 0.5)])

    def test_remove_outcome_general(self):
        net = make_net(
            [("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])],
            parents={"B": ["A"]},
            cpts={
                "A": [(0.2, 0.5, 0.3)],
                "B": [(0.9, 0.1), (0.4, 0.6), (0.5, 0.5)],
            },
        )
        t = remove_outcome(
            net,
            "A",
            "a2",
            replacement_rows=[(0.4, 0.6)],
            successor_replacements={"B": [(0.9, 0.1), (0.5, 0.5)]},
        )
        assert t.after.outcomes("A") == ("a1", "a3")
        assert t.after.cpt("B").rows == ((0.9, 0.1), (0.5, 0.5))
        assert not t.report.notes

    def test_remove_outcome_missing_successor_replacements(self):
        net = make_net(
            [("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])],
            parents={"B": ["A"]},
            cpts={
                "A": [(0.2, 0.5, 0.3)],
                "B": [(0.9, 0.1), (0.4, 0.6), (0.5, 0.5)],
            },
        )
        with pytest.raises(MaintenanceError, match="successors: B"):
            remove_outcome(net, "A", "a2", replacement_rows=[(0.4, 0.6)])

    def test_remove_outcome_renormalize(self):
        net = make_net(
            [("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])],
            parents={"B": ["A"]},
            cpts={
                "A": [(0.2, 0.5, 0.3)],
                "B": [(0.9, 0.1), (0.4, 0.6), (0.5, 0.5)],
            },
        )
        t = remove_outcome(net, "A", "a2", renormalize=True)
        row = t.after.cpt("A").rows[0]
        assert row == pytest.approx((0.4, 0.6), abs=1e-12)
        # successor keeps the surviving rows verbatim
        assert t.after.cpt("B").rows == (net.cpt("B").rows[0], net.cpt("B").rows[2])
        assert any("NON-PAPER" in note for note in t.report.notes)
        assert t.report.for_node("A").elicited == 0

    def test_remove_outcome_renormalize_zero_mass(self):
        net = make_net([("A", ["a1", "a2"])], cpts={"A": [(0.0, 1.0)]})
        with pytest.raises(MaintenanceError, match="remaining mass"):
            remove_outcome(net, "A", "a2", renormalize=True)

    def test_replace_cpt_local_modularity(self, chain_net):
        t = replace_cpt(chain_net, "B", [(0.7, 0.3), (0.4, 0.6)])
        assert t.after.cpt("A") is chain_net.cpt("A")  # untouched table shared
        assert t.after.cpt("B").rows == ((0.7, 0.3), (0.4, 0.6))
        entry = t.report.for_node("B")
        assert (entry.elicited, entry.reused, entry.baseline) == (2, 0, 2)

    def test_edits_on_pending_nodes_refused(self, chain_net):
        pending = add_outcomes_ignored(chain_net, "A", ["a3"], [(0.2,)]).after
        with pytest.raises(MaintenanceError, match="pending"):
            add_outcomes_ignored(pending, "A", ["a4"], [(0.1,)])
        with pytest.raises(MaintenanceError, match="pending"):
            remove_outcome(pending, "A", "a3", renormalize=True)
        with pytest.raises(MaintenanceError, match="pending"):
            add_arc_assumed_constant(
                pending, "B", "A", "b1", {"b2": [(0.3, 0.3, 0.4)]}
            )


class TestTransactionInvariants:
    def _random_transaction(self, rng):
        net = random_network(rng)
        choices = []
        for vid in net.ids():
            choices.append(("grow", vid))
            if len(net.outcomes(vid)) >= 2:
                choices.append(("split", vid))
            choices.append(("replace", vid))
        kind, vid = rng.choice(choices)
        rows_n = len(net.cpt(vid).rows)
        if kind == "grow":
            k = rng.randint(1, 2)
            labels = [f"extra{j}" for j in range(k)]
            return net, add_outcomes_ignored(
                net, vid, labels, random_mass_blocks(rng, rows_n, k)
            )
        if kind == "split":
            outcome = rng.choice(net.outcomes(vid))
            k = rng.randint(2, 3)
            parts = [f"part{j}" for j in range(k)]
            values = [random_weights(rng, k) for _ in range(rows_n)]
            return net, split_outcome(net, vid, outcome, parts, values)
        width = len(net.outcomes(vid))
        from conftest import random_row

        return net, replace_cpt(net, vid, [random_row(rng, width) for _ in range(rows_n)])

    def test_purity_and_validity_on_random_edits(self):
        rng = random.Random(37)
        for _ in range(60):
            net, t = self._random_transaction(rng)
            guard = purity_guard(net)
            assert net == guard
            assert t.before == net
            assert validate_network(t.after).ok

    def test_purity_of_every_operation_kind(self, chain_net):
        three = _three()
        pending = add_outcomes_ignored(three, "A", ["a4"], [(0.2,)]).after
        operations = [
            (three, lambda n: add_outcomes_general(n, "A", ["a4"], [(0.1, 0.2, 0.3, 0.4)])),
            (three, lambda n: split_outcome(n, "A", "a2", ["u", "v"], [(0.5, 0.5)])),
            (three, lambda n: split_outcome_general(
                n, "A", "a2", ["u", "v"], [(0.1, 0.2, 0.3, 0.4)])),
            (pending, lambda n: reuse_successor_rows_ignored(
                n, "B", "A", {"a4": [(0.5, 0.5)]})),
            (pending, lambda n: replace_cpt(
                n, "B", [(0.5, 0.5)] * 4)),
            (three, lambda n: add_arc_assumed_constant(
                n, "C", "B", "c1", {"c2": [(0.5, 0.5)] * 3})),
            (three, lambda n: add_arc_general(
                n, "C", "B", [(0.5, 0.5)] * 6)),
            (three, lambda n: add_variable(
                n, Variable("N", "N", ("n1", "n2")), (), [(0.5, 0.5)])),
            (three, lambda n: remove_arc(n, "A", "B", [(0.5, 0.5)])),
            (three, lambda n: remove_outcome(n, "A", "a2", renormalize=True)),
        ]
        for net, op in operations:
            guard = purity_guard(net)
            t = op(net)
            assert net == guard
            assert t.before == net

    def test_version_labels_advance_monotonically(self, chain_net):
        t1 = add_outcomes_ignored(chain_net, "A", ["a3"], [(0.2,)])
        t2 = reuse_successor_rows_ignored(t1.after, "B", "A", {"a3": [(0.5, 0.5)]})
        t3 = replace_cpt(t2.after, "B", [(0.5, 0.5)] * 3)
        assert chain_net.version_label == "E"
        assert t1.after.version_label == "E.1"
        assert t2.after.version_label == "E.2"
        assert t3.after.version_label == "E.3"

    def test_rescaled_old_block_proportional_to_before(self):
        # relative proportions of the old outcomes survive whenever the
        # leftover scale is positive
        rng = random.Random(41)
        for _ in range(40):
            net = random_network(rng)
            vid = rng.choice(net.ids())
            rows_n = len(net.cpt(vid).rows)
            k = rng.randint(1, 2)
            t = add_outcomes_ignored(
                net,
                vid,
                [f"x{j}" for j in range(k)],
                random_mass_blocks(rng, rows_n, k),
            )
            m = len(net.outcomes(vid))
            for j, (old_row, new_row) in enumerate(
                zip(net.cpt(vid).rows, t.after.cpt(vid).rows)
            ):
                lam = t.factors.per_config[j]
                assert 0.0 <= lam <= 1.0
                if lam > 0:
                    for i in range(m):
                        assert new_row[i] / lam == pytest.approx(old_row[i], abs=1e-9)
                assert math.fsum(new_row[:m]) == pytest.approx(lam, abs=1e-9)
                assert math.fsum(new_row[m:]) == pytest.approx(1 - lam, abs=1e-9)


@pytest.mark.parametrize(
    "edit, inner",
    [
        pytest.param(
            lambda n: add_outcomes_general(n, "A", ["a4"], [(0.2, 0.3, 0.5)]),
            "row 0 of node A has 3 entries, expected 4",
            id="add_outcomes_general-width",
        ),
        pytest.param(
            lambda n: add_outcomes_general(n, "A", ["a4"], [(0.1, 0.2, 0.3, 0.4)] * 2),
            "node A has 2 CPT rows, expected 1",
            id="add_outcomes_general-rows",
        ),
        pytest.param(
            lambda n: split_outcome_general(n, "A", "a2", ["u", "v"], [(0.2, 0.5, 0.3)]),
            "row 0 of node A has 3 entries, expected 4",
            id="split_outcome_general-width",
        ),
        pytest.param(
            lambda n: add_arc_general(n, "C", "B", [(0.5, 0.5)] * 3),
            "node B has 3 CPT rows, expected 6",
            id="add_arc_general-old-parents",
        ),
        pytest.param(
            lambda n: add_variable(
                n,
                Variable("N", "N", ("n1", "n2")),
                (),
                [(0.5, 0.5)],
                successors={"B": [(0.5, 0.5)] * 3},
            ),
            "node B has 3 CPT rows, expected 6",
            id="add_variable-successor-without-new-parent",
        ),
        pytest.param(
            lambda n: remove_outcome(
                n,
                "A",
                "a2",
                replacement_rows=[(0.2, 0.5, 0.3)],
                successor_replacements={"B": [(0.5, 0.5)] * 2},
            ),
            "row 0 of node A has 3 entries, expected 2",
            id="remove_outcome-node-old-width",
        ),
        pytest.param(
            lambda n: remove_outcome(
                n,
                "A",
                "a2",
                replacement_rows=[(0.4, 0.6)],
                successor_replacements={"B": [(0.5, 0.5)] * 3},
            ),
            "node B has 3 CPT rows, expected 2",
            id="remove_outcome-successor-old-rows",
        ),
        pytest.param(
            lambda n: replace_cpt(
                add_outcomes_ignored(n, "A", ["a4"], [(0.2,)]).after,
                "B",
                [(0.5, 0.5)] * 3,
            ),
            "node B has 3 CPT rows, expected 4",
            id="replace_cpt-pending-old-parent-size",
        ),
    ],
)
def test_supplied_table_shape_follows_edited_graph(edit, inner):
    with pytest.raises(MaintenanceError, match=inner):
        edit(_three())


@pytest.mark.parametrize(
    "node, rows",
    [
        pytest.param("B", [(0.5, 0.5)] * 3, id="other-node"),
        pytest.param("A", [(0.2, 0.5, 0.3)], id="would-repair"),
    ],
)
def test_edit_of_invalid_network_rejected(node, rows):
    bad = with_cell(_three(), "A", 0, 0, 0.3)
    with pytest.raises(
        MaintenanceError,
        match="cannot edit an invalid network: row 0 of node A sums to 1.1",
    ):
        replace_cpt(bad, node, rows)


@pytest.mark.parametrize(
    "edit, finding",
    [
        pytest.param(
            lambda n: add_outcomes_general(n, "A", ["a1"], [(0.1, 0.2, 0.3, 0.4)]),
            "duplicate outcome labels on variable A",
            id="add_outcomes_general-collision",
        ),
        pytest.param(
            lambda n: add_outcomes_ignored(n, "A", ["a4", "a4"], [(0.1, 0.1)]),
            "duplicate outcome labels on variable A",
            id="add_outcomes_ignored-repeated",
        ),
        pytest.param(
            lambda n: add_outcomes_ignored(n, "A", ["a4"], [(math.nan,)]),
            "entry nan in row 0 of node A outside [0, 1]",
            id="add_outcomes_ignored-nan",
        ),
        pytest.param(
            lambda n: add_outcomes_ignored(
                n, "A", ["a4", "a5"], [(math.inf, -math.inf)]
            ),
            "entry inf in row 0 of node A outside [0, 1]",
            id="add_outcomes_ignored-inf-and-minus-inf",
        ),
        pytest.param(
            lambda n: replace_cpt(n, "C", [(math.inf, -math.inf)]),
            "entry inf in row 0 of node C outside [0, 1]",
            id="replace_cpt-inf-and-minus-inf",
        ),
        pytest.param(
            lambda n: replace_cpt(n, "C", [(1e308, 1e308)]),
            "entry 1e+308 in row 0 of node C outside [0, 1]",
            id="replace_cpt-sum-overflow",
        ),
        pytest.param(
            lambda n: split_outcome(n, "A", "a2", ["u", "a3"], [(0.5, 0.5)]),
            "duplicate outcome labels on variable A",
            id="split_outcome-part-collision",
        ),
        pytest.param(
            lambda n: add_variable(n, Variable("N", "N", ()), (), [()]),
            "variable N has no outcomes",
            id="add_variable-no-outcomes",
        ),
        pytest.param(
            lambda n: add_variable(n, Variable("N", "N", ("x", "x")), (), [(0.5, 0.5)]),
            "duplicate outcome labels on variable N",
            id="add_variable-repeated-label",
        ),
        pytest.param(
            lambda n: add_variable(
                n, Variable("N", "N", ("x", "y")), ("C", "C"), [(0.5, 0.5)] * 4
            ),
            "duplicate parent C of N",
            id="add_variable-repeated-parent",
        ),
        pytest.param(
            lambda n: add_variable(
                n, Variable("N", "N", ("x", "y")), ("Z",), [(0.5, 0.5)]
            ),
            "unknown parent Z of N",
            id="add_variable-unknown-parent",
        ),
    ],
)
def test_local_check_rejects_bad_variables_and_parents(edit, finding):
    net = _three()
    guard = purity_guard(net)
    with pytest.raises(MaintenanceError) as caught:
        edit(net)
    assert str(caught.value) == "edit would produce an invalid network: " + finding
    assert net == guard


def test_cycle_checks_cover_self_arcs_and_parent_successors():
    net = _three()
    with pytest.raises(MaintenanceError, match=r"^arc C->C would create a cycle$"):
        add_arc_general(net, "C", "C", [(0.5, 0.5)] * 2)
    with pytest.raises(
        MaintenanceError, match="successor C reaches parent C; adding N would create"
    ):
        add_variable(
            net,
            Variable("N", "N", ("x", "y")),
            ("C",),
            [(0.5, 0.5)] * 2,
            successors={"C": [(0.5, 0.5)] * 2},
        )
    with pytest.raises(MaintenanceError, match=r"^N cannot be its own parent$"):
        add_variable(net, Variable("N", "N", ("x", "y")), ("N",), [(0.5, 0.5)] * 2)
    assert net == _three()


@pytest.mark.parametrize(
    "edit, node",
    [
        pytest.param(
            lambda n: add_outcomes_general(
                n, "B", [3], [(0.3, 0.3, 0.4)] * 3
            ),
            "B",
            id="add_outcomes_general-label",
        ),
        pytest.param(
            lambda n: add_variable(n, Variable(7, "n", ("x", "y")), (), [(0.5, 0.5)]),
            "7",
            id="add_variable-id",
        ),
    ],
)
def test_non_string_label_or_id_rejected(edit, node):
    # such a snapshot would be written to a file that cannot be read back
    with pytest.raises(
        MaintenanceError,
        match=f"invalid network: variable {node} has a non-string id, name or label$",
    ):
        edit(_three())


_HALF = (0.5, 0.5)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda n: replace_cpt(n, ["A"], [(0.2, 0.5, 0.3)]),
            r"unknown variable \['A'\]",
            id="replace_cpt-node",
        ),
        pytest.param(
            lambda n: remove_arc(n, ["A"], "B", [_HALF]),
            r"unknown variable \['A'\]",
            id="remove_arc-source",
        ),
        pytest.param(
            lambda n: add_arc_general(n, "C", ["B"], [_HALF] * 6),
            r"unknown variable \['B'\]",
            id="add_arc_general-target",
        ),
        pytest.param(
            lambda n: reuse_successor_rows_ignored(n, "B", ["A"], {}),
            r"unknown variable \['A'\]",
            id="reuse_successor_rows-parent",
        ),
        pytest.param(
            lambda n: add_variable(n, Variable(["N"], "N", ("x", "y")), (), [_HALF]),
            r"ids of \['N'\] and its parents must be strings",
            id="add_variable-id",
        ),
        pytest.param(
            lambda n: add_variable(n, Variable("N", "N", ("x", "y")), [["A"]], [_HALF] * 3),
            "ids of 'N' and its parents must be strings",
            id="add_variable-parent",
        ),
        pytest.param(
            lambda n: add_variable(
                n, Variable("N", "N", ("x", "y")), (), [_HALF], successors=["B"]
            ),
            "successors must map nodes to rows",
            id="add_variable-successors",
        ),
        pytest.param(
            lambda n: remove_outcome(
                n, "A", "a1", replacement_rows=[_HALF], successor_replacements=["B"]
            ),
            "successor_replacements must map nodes to rows",
            id="remove_outcome-successor_replacements",
        ),
        pytest.param(
            lambda n: add_variable(
                n, Variable("N", "N", (["x"], "y")), (), [_HALF],
                mode="assumed-constant", baseline="y", successors={"B": {}},
            ),
            "edit would produce an invalid network: "
            "variable N has a non-string id, name or label",
            id="add_variable-assumed_constant-label",
        ),
        pytest.param(
            lambda n: add_variable(
                n, Variable("N", "N", (["x"], "y")), (), [_HALF],
                successors={"B": [_HALF] * 6},
            ),
            "edit would produce an invalid network: "
            "variable N has a non-string id, name or label",
            id="add_variable-general-label",
        ),
    ],
)
def test_unhashable_id_or_successor_list_rejected(edit, message):
    net = _three()
    guard = purity_guard(net)
    with pytest.raises(MaintenanceError, match=f"^{message}$"):
        edit(net)
    assert net == guard


def _two_parents_pending():
    """B on A and C, with A grown by a3, so B is pending on A."""
    net = make_net(
        [("A", ["a1", "a2"]), ("C", ["c1", "c2"]), ("B", ["b1", "b2"])],
        parents={"B": ["A", "C"]},
        cpts={"A": [_HALF], "C": [_HALF], "B": [_HALF] * 4},
    )
    return add_outcomes_ignored(net, "A", ["a3"], [(0.2,)]).after


def _only_outcome():
    return make_net([("U", ["u1"])], cpts={"U": [(1.0,)]})


_SPLIT = ("A", "a2", ["u", "v"])


@pytest.mark.parametrize(
    "build, edit, message",
    [
        pytest.param(
            _three, lambda n: split_outcome(n, "A", "a2", [], []),
            "a split needs at least one part", id="split-no-parts",
        ),
        pytest.param(
            _three, lambda n: split_outcome_general(n, "A", "a2", [], [_HALF]),
            "a split needs at least one part", id="split_general-no-parts",
        ),
        pytest.param(
            _three, lambda n: split_outcome(n, *_SPLIT, [_HALF], form="odds"),
            "unknown split input form 'odds'", id="split-form",
        ),
        pytest.param(
            _three, lambda n: split_outcome(n, *_SPLIT, [_HALF] * 2),
            "expected 1 split vectors for A, got 2", id="split-vector-count",
        ),
        pytest.param(
            _three, lambda n: split_outcome(n, *_SPLIT, [(1.0,)]),
            "config 0 of A: expected 2 split values, got 1", id="split-vector-width",
        ),
        pytest.param(
            _two_parents_pending,
            lambda n: reuse_successor_rows_ignored(n, "B", "C", {}),
            "pending change on B concerns parent A, not C", id="reuse-other-parent",
        ),
        pytest.param(
            _three,
            lambda n: add_variable(
                n, Variable("N", "N", ("x", "y")), (), [_HALF],
                mode="assumed-constant", baseline="zz",
            ),
            "baseline 'zz' is not an outcome of N", id="add_variable-baseline",
        ),
        pytest.param(
            _three, lambda n: add_variable(n, None, (), [_HALF]),
            "variable must be a Variable, not NoneType", id="add_variable-none",
        ),
        pytest.param(
            _three, lambda n: add_variable(n, ("N", "N", ("x", "y")), (), [_HALF]),
            "variable must be a Variable, not tuple", id="add_variable-tuple",
        ),
        pytest.param(
            _three, lambda n: remove_outcome(n, "A", "zz", renormalize=True),
            "unknown outcome 'zz' of A", id="remove_outcome-unknown",
        ),
        pytest.param(
            _only_outcome, lambda n: remove_outcome(n, "U", "u1", renormalize=True),
            "cannot remove the only outcome of U", id="remove_outcome-only",
        ),
        pytest.param(
            _three,
            lambda n: remove_outcome(
                n, "A", "a1", replacement_rows=[_HALF], renormalize=True
            ),
            "renormalize and replacement tables are mutually exclusive",
            id="remove_outcome-renormalize-and-rows",
        ),
        pytest.param(
            _three,
            lambda n: remove_outcome(
                n, "A", "a1", replacement_rows=[_HALF],
                successor_replacements={"B": [_HALF] * 2, "C": [_HALF]},
            ),
            "replacements supplied for non-successors: C",
            id="remove_outcome-non-successor",
        ),
    ],
)
def test_edit_refusal_message_and_purity(build, edit, message):
    net = build()
    guard = purity_guard(net)
    with pytest.raises(MaintenanceError) as caught:
        edit(net)
    assert str(caught.value) == message
    assert net == guard


def _ignored_pending():
    """`_three()` with `A` grown by a4, so `B` is pending."""
    return add_outcomes_ignored(_three(), "A", ["a4"], [(0.2,)]).after


def _split_pending():
    """`_three()` with `A`'s a2 split into u and v, so `B` is pending."""
    return split_outcome(_three(), "A", "a2", ["u", "v"], [(0.5, 0.5)]).after


_NEW = Variable("N", "N", ("x", "y"))

# every entry point that takes rows or numbers: (builder of the input network,
# edit), where the edit passes one of its row lists through `f`
_ROW_ENTRY_POINTS = {
    "replace_cpt": (_three, lambda n, f: replace_cpt(n, "C", f([(0.3, 0.7)]))),
    "add_outcomes_general": (
        _three,
        lambda n, f: add_outcomes_general(n, "C", ["c3"], f([(0.3, 0.3, 0.4)])),
    ),
    "add_outcomes_ignored": (
        _three,
        lambda n, f: add_outcomes_ignored(n, "C", ["c3"], f([(0.2,)])),
    ),
    "split_outcome-weights": (
        _three,
        lambda n, f: split_outcome(n, "C", "c2", ["u", "v"], f([(0.5, 0.5)])),
    ),
    "split_outcome-probs": (
        _three,
        lambda n, f: split_outcome(
            n, "C", "c2", ["u", "v"], f([(0.25, 0.45)]), form="probs"
        ),
    ),
    "split_outcome_general": (
        _three,
        lambda n, f: split_outcome_general(n, "C", "c2", ["u", "v"], f([(0.3, 0.3, 0.4)])),
    ),
    "add_arc_general": (
        _three,
        lambda n, f: add_arc_general(n, "C", "B", f([(0.5, 0.5)] * 6)),
    ),
    "add_arc_assumed_constant": (
        _three,
        lambda n, f: add_arc_assumed_constant(n, "C", "B", "c1", {"c2": f([(0.5, 0.5)] * 3)}),
    ),
    "add_variable-own": (
        _three,
        lambda n, f: add_variable(n, _NEW, (), f([(0.5, 0.5)])),
    ),
    "add_variable-general-successor": (
        _three,
        lambda n, f: add_variable(
            n, _NEW, (), [(0.5, 0.5)], successors={"C": f([(0.5, 0.5)] * 2)}
        ),
    ),
    "add_variable-assumed-constant-successor": (
        _three,
        lambda n, f: add_variable(
            n,
            _NEW,
            (),
            [(0.5, 0.5)],
            mode=edits.MODE_ASSUMED_CONSTANT,
            baseline="x",
            successors={"C": {"y": f([(0.5, 0.5)])}},
        ),
    ),
    "remove_arc": (_three, lambda n, f: remove_arc(n, "A", "B", f([(0.5, 0.5)]))),
    "remove_outcome-node": (
        _three,
        lambda n, f: remove_outcome(
            n,
            "A",
            "a3",
            replacement_rows=f([(0.4, 0.6)]),
            successor_replacements={"B": [(0.5, 0.5)] * 2},
        ),
    ),
    "remove_outcome-successor": (
        _three,
        lambda n, f: remove_outcome(
            n,
            "A",
            "a3",
            replacement_rows=[(0.4, 0.6)],
            successor_replacements={"B": f([(0.5, 0.5)] * 2)},
        ),
    ),
    "reuse_successor_rows_ignored": (
        _ignored_pending,
        lambda n, f: reuse_successor_rows_ignored(n, "B", "A", {"a4": f([(0.5, 0.5)])}),
    ),
    "reuse_successor_rows_split": (
        _split_pending,
        lambda n, f: reuse_successor_rows_split(
            n, "B", "A", {"u": f([(0.5, 0.5)]), "v": [(0.5, 0.5)]}
        ),
    ),
}

# the node whose table holds the rows each entry point passes through `f`
_ROW_NODE = {
    "replace_cpt": "C",
    "add_outcomes_general": "C",
    "add_outcomes_ignored": "C",
    "split_outcome-weights": "C",
    "split_outcome-probs": "C",
    "split_outcome_general": "C",
    "add_arc_general": "B",
    "add_arc_assumed_constant": "B",
    "add_variable-own": "N",
    "add_variable-general-successor": "C",
    "add_variable-assumed-constant-successor": "C",
    "remove_arc": "B",
    "remove_outcome-node": "A",
    "remove_outcome-successor": "B",
    "reuse_successor_rows_ignored": "B",
    "reuse_successor_rows_split": "B",
}

# each replaces the first row of a list
_CELL_FAULTS = {
    "string-cell": lambda row: ["0.5", *row[1:]],
    "bool-cell": lambda row: [True, *row[1:]],
    "none-cell": lambda row: [None, *row[1:]],
    "nested-cell": lambda row: [[row[0]], *row[1:]],
    "huge-int-cell": lambda row: [*row[:-1], 10**400],
    "number-row": lambda row: 0.5,
    "string-row": lambda row: "0.5",
}


@pytest.mark.parametrize("fault", _CELL_FAULTS)
@pytest.mark.parametrize("entry", _ROW_ENTRY_POINTS)
def test_every_row_entry_point_rejects_non_number_cells(entry, fault):
    make, edit = _ROW_ENTRY_POINTS[entry]
    net = make()
    guard = purity_guard(net)
    message = f"^row 0 of node {_ROW_NODE[entry]} is not a sequence of numbers$"
    with pytest.raises(MaintenanceError, match=message):
        edit(net, lambda rows: [_CELL_FAULTS[fault](rows[0]), *rows[1:]])
    assert net == guard


@pytest.mark.parametrize(
    "table", [None, 0.5, "0.5", {0.5}], ids=["none", "number", "string", "set"]
)
@pytest.mark.parametrize("entry", _ROW_ENTRY_POINTS)
def test_every_row_entry_point_rejects_a_table_that_is_not_a_row_list(entry, table):
    make, edit = _ROW_ENTRY_POINTS[entry]
    net = make()
    guard = purity_guard(net)
    message = f"^table of node {_ROW_NODE[entry]} is not a sequence of rows$"
    if entry == "remove_outcome-node" and table is None:  # None means "not supplied"
        message = "^replacement CPT required for A$"
    with pytest.raises(MaintenanceError, match=message):
        edit(net, lambda rows: table)
    assert net == guard


@pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf, -0.5])
@pytest.mark.parametrize("entry", _ROW_ENTRY_POINTS)
def test_every_row_entry_point_leaves_out_of_range_numbers_to_the_local_check(entry, cell):
    # converted without complaint at the boundary, they reach the new table,
    # where the check every edit ends with names them; split vectors are
    # judged by the split itself before any table is built
    make, edit = _ROW_ENTRY_POINTS[entry]
    net = make()
    guard = purity_guard(net)
    node = _ROW_NODE[entry]
    if entry.startswith("split_outcome-"):
        message = rf"^config 0 of {node}: "
    else:
        message = (
            rf"^edit would produce an invalid network: "
            rf"entry \S+ in row \d+ of node {node} outside \[0, 1\]$"
        )
    with pytest.raises(MaintenanceError, match=message):
        edit(net, lambda rows: [[cell, *rows[0][1:]], *rows[1:]])
    assert net == guard


@pytest.mark.parametrize(
    "edit",
    [
        lambda net: replace_cpt(net, "A", None),
        lambda net: replace_cpt(net, "A", 0.5),
        lambda net: add_outcomes_ignored(net, "A", ["a3"], None),
    ],
    ids=["replace-none", "replace-number", "grow-none"],
)
def test_table_that_is_not_a_row_list_names_the_node(chain_net, edit):
    guard = purity_guard(chain_net)
    with pytest.raises(MaintenanceError, match="^table of node A is not a sequence of rows$"):
        edit(chain_net)
    assert chain_net == guard


# every entry point that takes a list of labels, given a string; each
# call is valid with the string's characters as the labels
_LABEL_ENTRY_POINTS = {
    "add_outcomes_general": lambda n: add_outcomes_general(
        n, "C", "xy", [(0.3, 0.3, 0.2, 0.2)]
    ),
    "add_outcomes_ignored": lambda n: add_outcomes_ignored(n, "C", "xy", [(0.1, 0.1)]),
    "split_outcome": lambda n: split_outcome(n, "C", "c2", "uv", [(0.5, 0.5)]),
    "split_outcome_general": lambda n: split_outcome_general(
        n, "C", "c2", "uv", [(0.3, 0.3, 0.4)]
    ),
    "add_variable-parents": lambda n: add_variable(n, _NEW, "AC", [(0.5, 0.5)] * 6),
}


@pytest.mark.parametrize("entry", _LABEL_ENTRY_POINTS)
def test_every_label_entry_point_rejects_a_string(entry):
    net = _three()
    guard = purity_guard(net)
    with pytest.raises(MaintenanceError, match=r"^[\w ]+ must be a sequence of labels$"):
        _LABEL_ENTRY_POINTS[entry](net)
    assert net == guard


@pytest.mark.parametrize("entry", _ROW_ENTRY_POINTS)
def test_numpy_float_cells_accepted_as_floats(entry):
    make, edit = _ROW_ENTRY_POINTS[entry]
    t = edit(make(), lambda rows: [[np.float64(rows[0][0]), *rows[0][1:]], *rows[1:]])
    cells = [x for cpt in t.after.cpts.values() for row in cpt.rows for x in row]
    assert {type(x) for x in cells} == {float}


# every public edit shape: (builder of the input network, edit), where the
# edit passes one of its row lists through `f`
_EDIT_SHAPES = {
    **_ROW_ENTRY_POINTS,
    "remove_outcome-renormalize": (
        _three,
        lambda n, f: remove_outcome(n, "A", "a3", renormalize=True),
    ),
}

# a node each shape reads; the new variable's own table reads none
_READ_NODE = {**_ROW_NODE, "add_variable-own": "C", "remove_outcome-renormalize": "B"}


def _planted(net, node, defect):
    """`net` with one defect on `node`, and the first finding it must give."""
    variables, parents = net.variables, dict(net.parents)
    cpts, stale = dict(net.cpts), dict(net.stale)
    cpt = net.cpt(node)
    other = "A" if node == "C" else "C"  # never a parent of `node`
    if defect == "missing-cpt":
        del cpts[node]
        finding = f"no CPT for node {node}"
    elif defect == "short-row":
        cpts[node] = Cpt(node, cpt.parent_order, (cpt.rows[0][:-1], *cpt.rows[1:]))
        finding = f"row 0 of node {node} has {len(cpt.rows[0]) - 1} entries"
    elif defect == "too-few-rows":
        cpts[node] = Cpt(node, cpt.parent_order, cpt.rows[:-1])
        finding = f"node {node} has {len(cpt.rows) - 1} CPT rows"
    elif defect == "bad-row-sum":
        row = (0.9,) * len(cpt.rows[0])
        cpts[node] = Cpt(node, cpt.parent_order, (row, *cpt.rows[1:]))
        finding = f"row 0 of node {node} sums to"
    elif defect == "cycle":  # `node` becomes a parent of its first parent, or its own
        top = (net.parents_of(node) or (node,))[0]
        parents[top] += (node,)
        finding = "cycle "
    elif defect == "undeclared-parent":
        parents[node] += ("Ghost",)
        finding = f"unknown parent Ghost of {node}"
    elif defect == "repeated-id":
        variables += (net.variable(node),)
        finding = f"duplicate variable id {node}"
    elif defect == "pending-non-parent":
        stale[node] = StaleParent(other, net.outcomes(other), edits.KIND_ADD_OUTCOMES)
        finding = f"pending re-encoding of {node} references non-parent {other}"
    else:  # "parent-order"
        cpts[node] = Cpt(node, cpt.parent_order + (other,), cpt.rows)
        finding = f"CPT of {node} orders parents"
    return Network(net.version_label, variables, parents, cpts, stale), finding


_INPUT_DEFECTS = (
    "missing-cpt",
    "short-row",
    "too-few-rows",
    "bad-row-sum",
    "cycle",
    "undeclared-parent",
    "repeated-id",
    "pending-non-parent",
    "parent-order",
)


@pytest.mark.parametrize("defect", _INPUT_DEFECTS)
@pytest.mark.parametrize("shape", _EDIT_SHAPES)
def test_every_edit_refuses_an_invalid_input_first(shape, defect):
    make, edit = _EDIT_SHAPES[shape]
    net, finding = _planted(make(), _READ_NODE[shape], defect)
    assert net.findings[0].message.startswith(finding)
    guard = purity_guard(net)
    with pytest.raises(MaintenanceError) as caught:
        edit(net, lambda rows: rows)
    assert str(caught.value) == "cannot edit an invalid network: " + net.findings[0].message
    assert net == guard


def test_every_public_edit_has_a_shape_in_the_invalid_input_matrix():
    public = {
        name
        for name, f in inspect.getmembers(edits, inspect.isfunction)
        if not name.startswith("_")
        and f.__module__ == edits.__name__
        and typing.get_type_hints(f).get("return") is edits.Transaction
    }
    assert len(public) >= 12
    assert {shape.split("-")[0] for shape in _EDIT_SHAPES} == public


# (input network, edit, cells the caller supplies, rows the edit writes)
_WORK = {
    "replace_cpt": (_three, lambda n: replace_cpt(n, "B", [(0.5, 0.5)] * 3), 6, 3),
    "add_outcomes_general": (
        _three,
        lambda n: add_outcomes_general(n, "A", ["a4"], [(0.1, 0.2, 0.3, 0.4)]),
        4,
        1,
    ),
    # B, now pending, keeps its three rows unjudged
    "add_outcomes_ignored": (
        _three, lambda n: add_outcomes_ignored(n, "A", ["a4"], [(0.2,)]), 1, 1
    ),
    "split_outcome": (
        _three, lambda n: split_outcome(n, "A", "a2", ["u", "v"], [(0.5, 0.5)]), 2, 1
    ),
    "split_outcome_general": (
        _three,
        lambda n: split_outcome_general(n, "A", "a2", ["u", "v"], [(0.2, 0.25, 0.25, 0.3)]),
        4,
        1,
    ),
    # one elicited row among B's four
    "reuse_successor_rows_ignored": (
        _ignored_pending,
        lambda n: reuse_successor_rows_ignored(n, "B", "A", {"a4": [(0.5, 0.5)]}),
        2,
        1,
    ),
    "reuse_successor_rows_split": (
        _split_pending,
        lambda n: reuse_successor_rows_split(
            n, "B", "A", {"u": [(0.5, 0.5)], "v": [(0.5, 0.5)]}
        ),
        4,
        2,
    ),
    # from a 3-outcome source: two of C's three new rows
    "add_arc_assumed_constant": (
        _three,
        lambda n: add_arc_assumed_constant(
            n, "A", "C", "a1", {"a2": [(0.5, 0.5)], "a3": [(0.5, 0.5)]}
        ),
        4,
        2,
    ),
    "add_arc_general": (_three, lambda n: add_arc_general(n, "C", "B", [(0.5, 0.5)] * 6), 12, 6),
    "add_variable-general": (
        _three,
        lambda n: add_variable(n, _NEW, (), [(0.5, 0.5)], successors={"C": [(0.5, 0.5)] * 2}),
        6,
        3,
    ),
    "add_variable-assumed-constant": (
        _three,
        lambda n: add_variable(
            n,
            _NEW,
            (),
            [(0.5, 0.5)],
            mode=edits.MODE_ASSUMED_CONSTANT,
            baseline="x",
            successors={"C": {"y": [(0.5, 0.5)]}},
        ),
        4,
        2,
    ),
    "remove_arc": (_three, lambda n: remove_arc(n, "A", "B", [(0.5, 0.5)]), 2, 1),
    "remove_outcome": (
        _three,
        lambda n: remove_outcome(
            n,
            "A",
            "a3",
            replacement_rows=[(0.4, 0.6)],
            successor_replacements={"B": [(0.5, 0.5)] * 2},
        ),
        6,
        3,
    ),
    # B keeps two of its old rows, unjudged
    "remove_outcome-renormalize": (
        _three, lambda n: remove_outcome(n, "A", "a3", renormalize=True), 0, 1
    ),
}


@pytest.mark.parametrize("entry", _WORK)
def test_each_supplied_cell_is_converted_once_and_each_written_row_judged_once(
    entry, monkeypatch
):
    make, edit, cells, rows = _WORK[entry]
    net = make()
    assert net.findings == ()  # the input's own check, not counted
    counts = {"cells": 0, "rows": 0}
    real_float_rows, real_row_total = network.float_rows, network.row_total

    def float_rows(node, table):
        out = real_float_rows(node, table)
        counts["cells"] += sum(map(len, out))
        return out

    def row_total(row):
        counts["rows"] += 1
        return real_row_total(row)

    for module in (network, edits):
        monkeypatch.setattr(module, "float_rows", float_rows)
    monkeypatch.setattr(network, "row_total", row_total)  # once per judged row
    edit(net)
    assert counts == {"cells": cells, "rows": rows}


def test_rows_keyed_by_label_must_be_a_mapping_of_row_lists():
    net = _three()
    with pytest.raises(
        MaintenanceError, match="^rows for B given C: expected rows keyed by outcome label$"
    ):
        add_arc_assumed_constant(net, "C", "B", "c1", [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(MaintenanceError, match="^table of node B is not a sequence of rows$"):
        add_arc_assumed_constant(net, "C", "B", "c1", {"c2": 0.5})
    assert net == _three()
    pending = _ignored_pending()
    guard = purity_guard(pending)
    with pytest.raises(
        MaintenanceError, match="^rows for B given A: expected rows keyed by outcome label$"
    ):
        reuse_successor_rows_ignored(pending, "B", "A", [[0.5, 0.5]])
    assert pending == guard


_MODULES = sorted(
    p.stem for p in Path(network.__file__).parent.glob("*.py") if p.stem != "network"
)


@pytest.mark.parametrize("module", _MODULES)
def test_no_module_but_network_reads_a_private_attribute(module):
    # network.py alone knows a snapshot's indexes; an edit hands its changes
    # to Network._derive, which patches them
    path = Path(network.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    }
    assert private <= ({"_derive"} if module == "edits" else set()), sorted(private)


# ---------------------------------------------------------------------------
# re-keying rows on one parent
# ---------------------------------------------------------------------------


def _rekey_reference(old_rows, elicited, labels, inherited, r, outer, block):
    """`_rekey_rows`'s copy as a plain nested loop: one contiguous copy per
    (configuration of the earlier parents, label)."""
    new_rows = []
    for hi in range(outer):
        for label in labels:
            if label in inherited:
                start = (hi * r + inherited[label]) * block
                new_rows += old_rows[start:start + block]
            else:
                new_rows += elicited[label][hi * block:(hi + 1) * block]
    fresh = [*chain.from_iterable([label not in inherited] * block for label in labels)]
    return tuple(new_rows), tuple(compress(range(len(new_rows)), fresh * outer))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rekey_rows_matches_the_nested_loop(data):
    others = data.draw(st.lists(st.integers(1, 4), max_size=3), label="other radices")
    where = data.draw(st.sampled_from(["first", "middle", "last", "new"]), label="where")
    pos = {"first": 0, "middle": len(others) // 2}.get(where, len(others))
    r = 1 if where == "new" else data.draw(st.integers(1, 4), label="old radix")
    n = data.draw(st.integers(1, 4), label="new radix")
    # old indexes kept, in any order and skipping any, as a renormalizing
    # remove_outcome maps them; and the new labels that inherit them
    kept = data.draw(
        st.lists(st.integers(0, r - 1), unique=True, max_size=min(n, r)), label="kept"
    )
    slots = data.draw(st.permutations(range(n)), label="slots")[:len(kept)]
    labels = tuple(f"x{k}" for k in range(n))
    inherited = {labels[s]: i for s, i in zip(slots, kept)}

    radices = list(others)
    if where != "new":
        radices.insert(pos, r)
    parents = [f"P{i}" for i in range(len(radices))]
    if where != "new":
        parents[pos] = "X"
    rows_n = math.prod(radices)
    outer, block = math.prod(radices[:pos]), math.prod(radices[pos + 1:])
    variables = [(p, [f"{p}{k}" for k in range(q)]) for p, q in zip(parents, radices)]
    if where == "new":
        variables.append(("X", ["o"]))
    net = make_net(
        [*variables, ("D", ["d1", "d2"])],
        parents={"D": parents},
        cpts={"D": [(i / (rows_n + 1), 1 - i / (rows_n + 1)) for i in range(rows_n)]},
    )
    supplied = {
        label: [[1000.0 * k + j, -j] for j in range(outer * block)]
        for k, label in enumerate(labels) if label not in inherited
    }
    old_rows = net.cpt("D").rows
    elicited = {label: tuple(map(tuple, rows)) for label, rows in supplied.items()}
    want, want_written = _rekey_reference(
        old_rows, elicited, labels, inherited, r, outer, block
    )

    got, written = edits._rekey_rows(net, "D", "X", labels, inherited, supplied)
    assert got == want
    assert written == want_written
    for i in set(range(len(got))) - set(written):
        assert got[i] is want[i]  # a carried row is the old row object


# each label-keyed entry point given one row too few for a label's block,
# with the refusal it must give
def _two_parent_net():
    """A and C (binary) -> B."""
    return make_net(
        [("A", ["a1", "a2"]), ("C", ["c1", "c2"]), ("B", ["b1", "b2"])],
        parents={"B": ["A", "C"]},
        cpts={
            "A": [(0.5, 0.5)],
            "C": [(0.4, 0.6)],
            "B": [(0.9, 0.1), (0.3, 0.7), (0.2, 0.8), (0.6, 0.4)],
        },
    )


def _chain_and_root():
    """A -> B, and a root C, all binary."""
    return make_net(
        [("A", ["a1", "a2"]), ("B", ["b1", "b2"]), ("C", ["c1", "c2"])],
        parents={"B": ["A"]},
        cpts={"A": [(0.5, 0.5)], "B": [(0.9, 0.1), (0.3, 0.7)], "C": [(0.4, 0.6)]},
    )


_SHORT_BLOCKS = {
    "reuse_successor_rows_ignored": (
        lambda: add_outcomes_ignored(_two_parent_net(), "C", ["c3"], [(0.2,)]).after,
        lambda n: reuse_successor_rows_ignored(n, "B", "C", {"c3": [(0.5, 0.5)]}),
        "rows for B given C=c3: expected 2 rows, got 1",
    ),
    "reuse_successor_rows_split": (
        lambda: split_outcome(_two_parent_net(), "C", "c2", ["u", "v"], [(0.5, 0.5)]).after,
        lambda n: reuse_successor_rows_split(
            n, "B", "C", {"u": [(0.5, 0.5)], "v": [(0.5, 0.5)] * 2}
        ),
        "rows for B given C=u: expected 2 rows, got 1",
    ),
    "add_arc_assumed_constant": (
        _chain_and_root,
        lambda n: add_arc_assumed_constant(n, "C", "B", "c1", {"c2": [(0.5, 0.5)]}),
        "rows for B given C=c2: expected 2 rows, got 1",
    ),
    "add_variable-assumed-constant-successor": (
        _chain_and_root,
        lambda n: add_variable(
            n,
            _NEW,
            (),
            [(0.5, 0.5)],
            mode=edits.MODE_ASSUMED_CONSTANT,
            baseline="x",
            successors={"B": {"y": [(0.5, 0.5)]}},
        ),
        "rows for B given N=y: expected 2 rows, got 1",
    ),
}


@pytest.mark.parametrize("entry", _SHORT_BLOCKS)
def test_every_label_keyed_entry_point_refuses_a_short_block(entry):
    make, edit, message = _SHORT_BLOCKS[entry]
    net = make()
    guard = purity_guard(net)
    with pytest.raises(MaintenanceError) as err:
        edit(net)
    assert str(err.value) == message
    assert net == guard


# ---------------------------------------------------------------------------
# inverse pairs on random networks
# ---------------------------------------------------------------------------


def _bits(rows):
    return [[x.hex() for x in row] for row in rows]


class TestInverses:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_remove_arc_with_the_baseline_block_undoes_add_arc_assumed_constant(self, seed):
        rng = random.Random(seed)
        net = random_network(rng, min_nodes=3)
        ids = net.ids()
        # ids are declared in topological order, so no such arc makes a cycle
        arcs = [
            (s, d) for i, s in enumerate(ids) for d in ids[i + 1:]
            if s not in net.parents_of(d)
        ]
        assume(arcs)
        src, dst = rng.choice(arcs)
        outs = net.outcomes(src)
        b = rng.randrange(len(outs))
        width, configs = len(net.outcomes(dst)), len(net.cpt(dst).rows)
        others = {
            o: [random_row(rng, width) for _ in range(configs)] for o in outs if o != outs[b]
        }
        added = add_arc_assumed_constant(net, src, dst, outs[b], others).after
        baseline_block = added.cpt(dst).rows[b::len(outs)]  # src is the last parent
        back = remove_arc(added, src, dst, baseline_block).after
        assert back.parents_of(dst) == net.parents_of(dst)
        assert _bits(back.cpt(dst).rows) == _bits(net.cpt(dst).rows)
        assert back.cpts == net.cpts

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_renormalizing_remove_outcome_undoes_add_outcomes_ignored(self, seed):
        # NON-PAPER: a renormalizing remove_outcome is a convenience outside
        # the paper's reuse rules; here it is the inverse of an ignored-
        # outcome addition and its successor completions
        rng = random.Random(seed)
        net = random_network(rng)
        node = rng.choice(net.ids())
        labels = [f"new{i}" for i in range(rng.randint(1, 2))]
        blocks = random_mass_blocks(rng, len(net.cpt(node).rows), len(labels))
        cur = add_outcomes_ignored(net, node, labels, blocks).after
        radix = len(net.outcomes(node))
        for child in net.children(node):
            width, configs = len(net.outcomes(child)), len(net.cpt(child).rows) // radix
            rows = {l: [random_row(rng, width) for _ in range(configs)] for l in labels}
            cur = reuse_successor_rows_ignored(cur, child, node, rows).after
        rng.shuffle(labels)
        for label in labels:
            t = remove_outcome(cur, node, label, renormalize=True)
            assert any("NON-PAPER" in note for note in t.report.notes)
            cur = t.after
        assert not cur.stale
        assert cur.variables == net.variables
        assert dict(cur.parents) == dict(net.parents)
        for v in net.ids():
            got, want = cur.cpt(v).rows, net.cpt(v).rows
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert len(g) == len(w)
                assert all(abs(x - y) <= 1e-12 for x, y in zip(g, w)), (v, g, w)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_replace_cpt_with_own_rows_changes_nothing_but_counts_all(self, seed):
        rng = random.Random(seed)
        net = random_network(rng, min_outcomes=1)
        node = rng.choice(net.ids())
        t = replace_cpt(net, node, [list(row) for row in net.cpt(node).rows])
        assert t.after.cpt(node) == net.cpt(node)
        assert t.after.cpts == net.cpts
        entry = t.report.for_node(node)
        assert entry.elicited == entry.baseline
