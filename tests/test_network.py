"""Data model, configuration indexing, and validation."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnmaint.edits import (
    MaintenanceError,
    add_arc_general,
    add_outcomes_ignored,
    add_variable,
    remove_arc,
    replace_cpt,
    split_outcome,
)
from bnmaint.network import (
    ROW_SUM_TOLERANCE,
    Cpt,
    Network,
    StaleParent,
    Variable,
    config_index,
    enumerate_configs,
    has_path,
    structural_findings,
    validate_network,
    would_create_cycle,
)
from bnmaint.oracle import OracleError, joint_distribution

from conftest import (
    INDEXES,
    assert_indexes_carried,
    assert_levels_order,
    fresh_copy,
    make_net,
    random_network,
    scan_children,
    walk_has_path,
    with_cell,
)


def test_the_table_of_a_node_without_one_is_a_key_error(chain_net):
    net = dataclasses.replace(chain_net, cpts={"A": chain_net.cpt("A")})
    with pytest.raises(KeyError) as caught:
        net.cpt("B")
    assert caught.value.args == ("no CPT for variable 'B'",)


class TestConfigIndex:
    def test_zero_config_is_row_zero(self):
        assert config_index((0, 0), (2, 3)) == 0

    def test_position_matches_enumeration_oracle(self):
        # independent oracle: materialize the full last-fastest enumeration
        order = list(itertools.product(range(2), range(3)))
        assert order.index((1, 2)) == 5
        assert config_index((1, 2), (2, 3)) == 5

    def test_single_parent_is_identity(self):
        assert config_index((3,), (4,)) == 3

    def test_every_config_matches_oracle(self):
        radices = (2, 3, 4)
        for j, cfg in enumerate(itertools.product(*(range(r) for r in radices))):
            assert config_index(cfg, radices) == j

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            config_index((1, 3), (2, 3))
        with pytest.raises(IndexError):
            config_index((0, -1), (2, 3))
        with pytest.raises(IndexError):
            config_index((0,), (2, 3))

    @given(st.lists(st.integers(min_value=1, max_value=4), max_size=4))
    def test_bijective_onto_row_range(self, radices):
        radices = tuple(radices)
        seen = [config_index(c, radices) for c in itertools.product(*(range(r) for r in radices))]
        assert seen == list(range(math.prod(radices)))


class TestEnumerateConfigs:
    def test_root_yields_single_empty_config(self, chain_net):
        assert enumerate_configs(chain_net, "A") == [()]

    def test_two_binary_parents_order(self):
        net = make_net(
            [("A", ["0", "1"]), ("B", ["0", "1"]), ("C", ["0", "1"])],
            parents={"C": ["A", "B"]},
            cpts={
                "A": [(0.5, 0.5)],
                "B": [(0.5, 0.5)],
                "C": [(0.5, 0.5)] * 4,
            },
        )
        assert enumerate_configs(net, "C") == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_mixed_radices_count(self):
        net = make_net(
            [("A", ["0", "1"]), ("B", ["0", "1", "2"]), ("C", ["0", "1"])],
            parents={"C": ["A", "B"]},
            cpts={
                "A": [(0.5, 0.5)],
                "B": [(0.3, 0.3, 0.4)],
                "C": [(0.5, 0.5)] * 6,
            },
        )
        oracle = list(itertools.product(range(2), range(3)))
        assert len(enumerate_configs(net, "C")) == len(oracle) == 6

    def test_unknown_node(self, chain_net):
        with pytest.raises(KeyError):
            enumerate_configs(chain_net, "Z")

    def test_index_of_enumeration_is_identity(self, chain_net):
        rng = random.Random(7)
        for _ in range(20):
            net = random_network(rng)
            for vid in net.ids():
                radices = net.radices(vid)
                configs = enumerate_configs(net, vid)
                assert len(configs) == len(net.cpt(vid).rows)
                assert [config_index(c, radices) for c in configs] == list(
                    range(len(configs))
                )


class TestValidation:
    def test_clean_chain_has_no_findings(self, chain_net):
        assert validate_network(chain_net).ok

    def test_unnormalized_row_finding(self, chain_net):
        net = with_cell(chain_net, "B", 0, 1, 0.6)  # row becomes (0.9, 0.6)
        net = with_cell(net, "B", 0, 0, 0.5)  # row becomes (0.5, 0.6)
        report = validate_network(net)
        assert not report.ok
        assert "row 0 of node B sums to 1.1" in report.messages()

    def test_two_node_cycle_finding(self):
        net = make_net(
            [("A", ["0", "1"]), ("B", ["0", "1"])],
            parents={"A": ["B"], "B": ["A"]},
            cpts={"A": [(0.5, 0.5)] * 2, "B": [(0.5, 0.5)] * 2},
        )
        messages = validate_network(net).messages()
        assert any(m.startswith("cycle") and "A" in m and "B" in m for m in messages)
        assert "cycle A,B" in messages

    def test_entry_out_of_range(self, chain_net):
        net = with_cell(chain_net, "B", 0, 0, 1.4)
        net = with_cell(net, "B", 0, 1, -0.4)
        messages = validate_network(net).messages()
        assert any("outside [0, 1]" in m for m in messages)

    def test_missing_cpt(self):
        net = make_net([("A", ["0", "1"])], cpts={})
        assert "no CPT for node A" in validate_network(net).messages()

    def test_wrong_row_count(self, chain_net):
        cpts = dict(chain_net.cpts)
        cpts["B"] = Cpt("B", ("A",), ((0.9, 0.1),))
        net = Network("E", chain_net.variables, chain_net.parents, cpts)
        assert any(
            "has 1 CPT rows, expected 2" in m for m in validate_network(net).messages()
        )

    def test_wrong_row_width(self, chain_net):
        cpts = dict(chain_net.cpts)
        cpts["B"] = Cpt("B", ("A",), ((0.9, 0.1), (0.3, 0.3)))
        cpts["A"] = Cpt("A", (), ((0.2, 0.3, 0.5),))
        net = Network("E", chain_net.variables, chain_net.parents, cpts)
        assert any(
            "row 0 of node A has 3 entries, expected 2" in m
            for m in validate_network(net).messages()
        )

    def test_unknown_parent(self):
        net = make_net(
            [("A", ["0", "1"])],
            parents={"A": ["Ghost"]},
            cpts={"A": [(0.5, 0.5)] * 2},
        )
        assert any("unknown parent Ghost" in m for m in validate_network(net).messages())

    def test_duplicate_outcome_labels(self):
        net = make_net([("A", ["x", "x"])], cpts={"A": [(0.5, 0.5)]})
        assert any("duplicate outcome" in m for m in validate_network(net).messages())

    @pytest.mark.parametrize(
        "outcomes", [(), ("a1", "a1")], ids=["no-outcomes", "repeated-label"]
    )
    def test_first_declaration_of_a_repeated_id_wins(self, chain_net, outcomes):
        # the second A is invalid itself, yet only its repetition is reported
        twin = Variable("A", "A", outcomes)
        net = dataclasses.replace(chain_net, variables=chain_net.variables + (twin,))
        assert validate_network(net).messages() == ["duplicate variable id A"]
        assert validate_network(net, nodes={"A": None}).ok

    @pytest.mark.parametrize("nodes", [None, {"A": None}, {"A": [0]}])
    def test_rows_are_judged_against_row_sum_tolerance(self, chain_net, nodes):
        # the whole network and an edit's scoped check apply one fixed bound
        for off, ok in [(5e-7, False), (ROW_SUM_TOLERANCE / 2, True)]:
            net = with_cell(chain_net, "A", 0, 0, 0.5 + off)
            assert validate_network(net, nodes=nodes).ok is ok

    def test_stale_node_validates_against_old_shape(self, chain_net):
        # A grew to 3 outcomes but B's table still conditions on 2: fine
        # exactly when the pending marker records the old space.
        variables = tuple(
            Variable("A", "A", ("a1", "a2", "a3")) if v.id == "A" else v
            for v in chain_net.variables
        )
        cpts = dict(chain_net.cpts)
        cpts["A"] = Cpt("A", (), ((0.4, 0.4, 0.2),))
        stale = {"B": StaleParent("A", ("a1", "a2"), "add_outcomes")}
        marked = Network("E.1", variables, chain_net.parents, cpts, stale)
        assert validate_network(marked).ok
        unmarked = Network("E.1", variables, chain_net.parents, cpts)
        assert not validate_network(unmarked).ok


@pytest.mark.parametrize(
    "cpts, stale, message",
    [
        pytest.param(
            {"B": Cpt("X", ("A",), ((0.9, 0.1), (0.3, 0.7)))},
            {},
            "CPT stored under B names node X",
            id="stored-name",
        ),
        pytest.param(
            {"B": Cpt("B", (), ((0.9, 0.1),))},
            {},
            "CPT of B orders parents () but declared parents are (A)",
            id="parent-order",
        ),
        pytest.param(
            {},
            {"Q": StaleParent("A", ("a1",), "add_outcomes")},
            "pending re-encoding recorded for unknown variable Q",
            id="pending-unknown",
        ),
        pytest.param(
            {},
            {"A": StaleParent("B", ("b1",), "add_outcomes")},
            "pending re-encoding of A references non-parent B",
            id="pending-non-parent",
        ),
    ],
)
def test_rules_no_file_can_reach(chain_net, cpts, stale, message):
    # netio builds each table from its key and the declared parents and
    # writes no pending markers, so only a hand-built snapshot has these
    tables = {**chain_net.cpts, **cpts}
    net = Network("E", chain_net.variables, chain_net.parents, tables, stale)
    assert validate_network(net).messages() == [message]


DEFECTS = ("none", "cycle", "dangling", "duplicate-id", "undeclared-child")


def _plant(net: Network, defect: str, rng: random.Random) -> Network:
    """`net` with one defect that leaves it without levels, or as it is."""
    ids = net.ids()
    parents = dict(net.parents)
    if defect == "cycle":  # a node becomes a parent of one of its ancestors
        child = rng.choice(ids)
        top = rng.choice([a for a in ids if walk_has_path(net, a, child)])
        parents[top] += (child,)
    elif defect == "dangling":
        node = rng.choice(ids)
        parents[node] += ("Ghost",)
    elif defect == "undeclared-child":
        parents["Ghost"] = (rng.choice(ids),)
    elif defect == "duplicate-id":
        twin = net.variable(rng.choice(ids))
        return dataclasses.replace(net, variables=net.variables + (twin,))
    return dataclasses.replace(net, parents=parents)


def _layered(layers: int, width: int, fan_in: int) -> Network:
    """Node j of each layer below the first has parents j, j+1, ..., in the
    layer above, wrapping around; no tables."""
    ids = [[f"L{i}N{j}" for j in range(width)] for i in range(layers)]
    parents = {
        ids[i][j]: [ids[i - 1][(j + k) % width] for k in range(fan_in)]
        for i in range(1, layers)
        for j in range(width)
    }
    return make_net([(n, ["x", "y"]) for layer in ids for n in layer], parents)


class TestCycleHelpers:
    def test_would_create_cycle(self, chain_net):
        assert would_create_cycle(chain_net, "B", "A")  # B->A closes A->B
        assert not would_create_cycle(chain_net, "A", "B")
        assert would_create_cycle(chain_net, "A", "A")

    @given(seed=st.integers(0, 2**32 - 1), defect=st.sampled_from(DEFECTS))
    def test_pruned_checks_answer_what_a_full_walk_answers(self, seed, defect):
        rng = random.Random(seed)
        net = _plant(random_network(rng, max_nodes=7, max_parents=3), defect, rng)
        if defect == "none":
            assert_levels_order(net)
        else:
            assert net._levels is None
        nodes = [*net.ids(), "Ghost", "Nobody"]
        for a in nodes:
            for b in nodes:
                assert has_path(net, a, b) == walk_has_path(net, a, b), (a, b)
                assert would_create_cycle(net, a, b) == walk_has_path(net, b, a), (a, b)

    @given(seed=st.integers(0, 2**32 - 1), defect=st.sampled_from(DEFECTS))
    def test_levels_are_longest_paths_or_none_exactly_when_ill_formed(self, seed, defect):
        rng = random.Random(seed)
        net = _plant(random_network(rng, min_nodes=1, max_nodes=8, max_parents=3), defect, rng)
        shuffled = dict(rng.sample(list(net.parents.items()), len(net.parents)))
        net = dataclasses.replace(net, parents=shuffled)
        ids = net.ids()
        undeclared = {*net.parents, *itertools.chain(*net.parents.values())} - {*ids}
        cycle = any(walk_has_path(net, c, p) for c in ids for p in net.parents_of(c))
        if cycle or undeclared or len(set(ids)) != len(ids):
            assert net._levels is None
            return
        depth: dict[str, int] = {}

        def level(n: str) -> int:  # longest path from a root, by recursion
            if n not in depth:
                depth[n] = 1 + max(map(level, net.parents_of(n)), default=-1)
            return depth[n]

        assert net._levels == {n: level(n) for n in ids}

    def test_forward_arc_check_reads_a_handful_of_parent_lists(self, monkeypatch):
        net = _layered(layers=40, width=40, fan_in=3)
        assert len(net.variables) == 1600
        assert_levels_order(net)  # the one-off build reads every list
        reads = []
        parents_of = Network.parents_of

        def counting(self, node):
            reads.append(node)
            return parents_of(self, node)

        monkeypatch.setattr(Network, "parents_of", counting)
        assert not would_create_cycle(net, "L26N0", "L30N7")
        assert len(reads) <= 5, len(reads)
        assert would_create_cycle(net, "L30N0", "L26N7")  # L26N7 reaches L30N0
        assert not would_create_cycle(net, "L30N0", "L26N9")

    def test_a_back_arc_raises_levels_and_the_next_cycle_is_still_caught(self):
        # A -> B -> C, and D -> E beside them
        net = make_net(
            [(n, ["x", "y"]) for n in "ABCDE"],
            parents={"B": ["A"], "C": ["B"], "E": ["D"]},
            cpts={n: [HALF] * (2 if n in "BCE" else 1) for n in "ABCDE"},
        )
        assert net._levels == {"A": 0, "B": 1, "C": 2, "D": 0, "E": 1}
        after = add_arc_general(net, "C", "D", [HALF] * 2).after
        assert after._levels == {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}
        assert net._levels["D"] == 0  # raised in a copy
        with pytest.raises(MaintenanceError, match="^arc E->A would create a cycle$"):
            add_arc_general(after, "E", "A", [HALF] * 2)
        assert add_arc_general(after, "A", "E", [HALF] * 4).after._levels is after._levels


class TestValidationOracleAgreement:
    """Structural validity coincides with the joint enumerator's needs."""

    def test_valid_networks_enumerate(self):
        rng = random.Random(11)
        for _ in range(40):
            net = random_network(rng)
            assert validate_network(net).ok
            joint_distribution(net)  # must not raise

    def test_structural_corruption_fails_both(self):
        rng = random.Random(13)
        for trial in range(40):
            net = random_network(rng, min_nodes=2)
            vid = rng.choice(net.ids())
            mode = trial % 3
            cpts = dict(net.cpts)
            parents = dict(net.parents)
            if mode == 0:  # drop a row
                rows = net.cpt(vid).rows
                cpts[vid] = Cpt(vid, net.parents_of(vid), rows[:-1])
            elif mode == 1:  # widen a row
                rows = [list(r) for r in net.cpt(vid).rows]
                rows[0].append(0.0)
                cpts[vid] = Cpt(vid, net.parents_of(vid), tuple(tuple(r) for r in rows))
            else:  # dangling parent
                parents[vid] = net.parents_of(vid) + ("Ghost",)
                cpts[vid] = Cpt(vid, parents[vid], net.cpt(vid).rows)
            broken = Network("E", net.variables, parents, cpts)
            assert structural_findings(broken)
            with pytest.raises(OracleError):
                joint_distribution(broken)

    def test_numeric_corruption_fails_validation_only(self):
        # denormalized rows are invalid data, but the enumerator can still
        # mechanically form the product (used by mutation tests).
        rng = random.Random(17)
        net = random_network(rng)
        vid = net.ids()[0]
        bad = with_cell(net, vid, 0, 0, min(1.0, net.cpt(vid).rows[0][0] + 1e-3))
        assert not validate_network(bad).ok
        joint_distribution(bad)  # must not raise


class TestImmutability:
    def test_constructor_normalizes_to_tuples(self):
        v = Variable("A", "A", ["x", "y"])
        assert isinstance(v.outcomes, tuple)
        c = Cpt("A", [], [[0.5, 0.5]])
        assert isinstance(c.rows, tuple)
        assert isinstance(c.rows[0], tuple)

    @pytest.mark.parametrize("outcomes", ["yes", b"yes", None, 3])
    def test_outcomes_must_be_a_sequence_of_labels(self, outcomes):
        with pytest.raises(ValueError, match="^outcomes of variable N must be a sequence"):
            Variable("N", "N", outcomes)

    @pytest.mark.parametrize("outcomes", ["ab", b"ab", None, 3])
    def test_old_outcomes_must_be_a_sequence_of_labels(self, outcomes):
        with pytest.raises(ValueError, match="^old outcomes of parent A must be a sequence"):
            StaleParent("A", outcomes, "add_outcomes")

    @pytest.mark.parametrize("mapping", ["parents", "cpts", "stale"])
    def test_snapshot_mappings_are_read_only(self, chain_net, mapping):
        after = add_outcomes_ignored(chain_net, "A", ["a3"], [(0.2,)]).after
        with pytest.raises(TypeError):
            getattr(after, mapping)["A"] = getattr(after, mapping)["B"]

    def test_deepcopy_and_pickle_round_trip(self, chain_net):
        after = add_outcomes_ignored(chain_net, "A", ["a3"], [(0.2,)]).after
        assert after.stale  # B is pending, so all three mappings are non-empty
        assert copy.deepcopy(after) == after
        assert pickle.loads(pickle.dumps(after)) == after

    def test_network_equality_is_deep(self, chain_net):
        clone = make_net(
            [("A", ["a1", "a2"]), ("B", ["b1", "b2"])],
            parents={"B": ["A"]},
            cpts={"A": [(0.5, 0.5)], "B": [(0.9, 0.1), (0.3, 0.7)]},
        )
        assert chain_net == clone
        assert chain_net != with_cell(clone, "B", 0, 0, 0.8)


def _abc():
    """A (3 outcomes) -> B, plus a root C."""
    return make_net(
        [("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"]), ("C", ["c1", "c2"])],
        parents={"B": ["A"]},
        cpts={"A": [(0.2, 0.5, 0.3)], "B": [(0.9, 0.1)] * 3, "C": [(0.3, 0.7)]},
    )


HALF = (0.5, 0.5)

# one edit for each way Network._derive patches a snapshot
EDITS = {
    "add-outcomes": lambda net: add_outcomes_ignored(net, "A", ["a4"], [(0.1,)]),
    "split": lambda net: split_outcome(net, "C", "c1", ["u", "v"], [HALF]),
    "add-arc": lambda net: add_arc_general(net, "C", "B", [HALF] * 6),
    "add-variable": lambda net: add_variable(
        net, Variable("N", "N", ("n1", "n2")), ["C"], [HALF] * 2,
        successors={"A": [(0.2, 0.5, 0.3)] * 2, "B": [HALF] * 6},
    ),
    "remove-arc": lambda net: remove_arc(net, "A", "B", [HALF]),
    "replace-cpt": lambda net: replace_cpt(net, "C", [HALF]),
}


@pytest.mark.parametrize("edit", EDITS)
class TestDerivedSnapshots:
    """An edit's snapshot carries its parent's indexes, patched, instead of
    being built through the public constructor."""

    def test_built_without_post_init_and_holding_its_indexes(self, monkeypatch, edit):
        net = _abc()
        calls = []
        post_init = Network.__post_init__

        def counting(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(Network, "__post_init__", counting)
        after = EDITS[edit](net).after
        assert calls == []
        # shared unless the edit adds a variable or raises a level
        assert (vars(after)["_levels"] is net._levels) == (edit != "add-variable")
        # parent lists and positions are shared unless the edit changes them
        rewired = edit in ("add-arc", "add-variable", "remove-arc")
        assert (after.parents is net.parents) == (not rewired)
        assert (vars(after)["_positions"] is net._positions) == (edit != "add-variable")
        assert_indexes_carried(after)
        assert len(calls) == 1  # the counter sees the public constructor

    def test_copies_equal_a_freshly_constructed_network(self, edit):
        after = EDITS[edit](_abc()).after
        fresh = fresh_copy(after)
        copies = {
            "pickle": pickle.loads(pickle.dumps(after)),
            "deepcopy": copy.deepcopy(after),
            "replace": dataclasses.replace(after),
        }
        for how, clone in copies.items():
            assert clone == fresh == after, how
            assert all(getattr(clone, i) == getattr(fresh, i) for i in INDEXES), how


def test_a_chain_of_edits_builds_levels_once_on_the_loaded_network(monkeypatch):
    built = []
    build = Network._levels.func

    def counting(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(Network._levels, "func", counting)
    net = _abc()
    after = add_arc_general(net, "C", "B", [HALF] * 6).after
    after = add_variable(
        after, Variable("N", "N", ("n1", "n2")), ["C"], [HALF] * 2,
        successors={"A": [(0.2, 0.5, 0.3)] * 2},
    ).after
    after = remove_arc(after, "A", "B", [HALF] * 2).after
    after = replace_cpt(after, "C", [HALF]).after
    after = add_outcomes_ignored(after, "B", ["b3"], [(0.1,)] * 2).after
    assert built == [net]
    assert_levels_order(after)


def test_a_level_raised_along_two_paths_keeps_the_deeper_one():
    # C2 is declared before C1 yet lies below it, so the raise reaches C2
    # from C1 before it reaches C2 directly from D at a shallower level
    chain = [f"R{i}" for i in range(5)]
    net = make_net(
        [(v, ["x", "y"]) for v in (*chain, "D", "C2", "C1")],
        parents={
            **{b: [a] for a, b in zip(chain, chain[1:])},
            "C1": ["D"],
            "C2": ["D", "C1"],
        },
        cpts={
            **{v: [HALF] * (2 if i else 1) for i, v in enumerate(chain)},
            "D": [HALF], "C1": [HALF] * 2, "C2": [HALF] * 4,
        },
    )
    net.findings
    after = add_arc_general(net, "R4", "D", [HALF] * 2).after
    assert after._levels["C2"] == after._levels["C1"] + 1 == 7
    assert_levels_order(after)


class TestChildren:
    """`children` reads an index that answers what a scan of every
    declaration in order answers, on invalid networks too."""

    @pytest.mark.parametrize(
        "variables, parents",
        [
            (["A", "B", "A", "C"], {"A": ("C",), "B": ("A",), "C": ()}),
            (["A", "B", "C"], {"B": ("A", "A"), "C": ("A", "B", "A")}),
            (["A", "B"], {"B": ("Ghost", "A"), "X": ("A",)}),
            (["A", "B", "C"], {"A": ("C",), "B": ("A",), "C": ("B", "A")}),
        ],
        ids=["duplicate-id", "repeated-parent", "dangling", "cycle"],
    )
    def test_index_matches_the_scan(self, variables, parents):
        net = Network(
            "E", tuple(Variable(v, v, ("x",)) for v in variables), parents, {}
        )
        for node in {*variables, *parents, "Ghost", "Nobody"}:
            assert net.children(node) == scan_children(net, node), node
