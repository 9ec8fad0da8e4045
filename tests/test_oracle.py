"""Joint enumeration and the conditional-identity checks."""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnmaint import edits, netio, network
from bnmaint.network import Cpt, Network, Variable, validate_network
from bnmaint.oracle import (
    CELL_CAP,
    JointSizeError,
    JointTable,
    OracleError,
    ZeroEvidenceError,
    _product,
    check_assumed_constant_identity,
    check_ignored_identity,
    conditional,
    joint_distribution,
)

from conftest import INDEXES, fresh_copy, make_net, random_network, with_cell


def full_shape_joint(net: Network) -> np.ndarray:
    """The chain-rule product started from a full-size array of ones, each
    factor multiplied in declaration order."""
    counts = [len(v.outcomes) for v in net.variables]
    pos = {v.id: i for i, v in enumerate(net.variables)}
    joint = np.ones(tuple(counts), dtype=float)
    for v in net.variables:
        cpt = net.cpt(v.id)
        table = np.asarray(cpt.rows, dtype=float).reshape(
            net.radices(v.id) + (len(v.outcomes),)
        )
        axes = [pos[p] for p in cpt.parent_order] + [pos[v.id]]
        table = np.transpose(table, sorted(range(len(axes)), key=axes.__getitem__))
        shape = [1] * len(counts)
        for a in axes:
            shape[a] = counts[a]
        joint = joint * table.reshape(shape)
    return joint


def assert_joint_bit_identical(net: Network) -> None:
    jt = joint_distribution(net)
    ref = full_shape_joint(net)
    assert jt.variables == net.ids()
    assert jt.probs.shape == ref.shape == tuple(len(v.outcomes) for v in net.variables)
    assert np.array_equal(jt.probs, ref)


class TestJointDistribution:
    def test_single_root_equals_prior(self):
        net = make_net([("A", ["x", "y"])], cpts={"A": [(0.6, 0.4)]})
        jt = joint_distribution(net)
        assert tuple(jt.probs) == (0.6, 0.4)

    def test_chain_matches_hand_products(self, chain_net):
        # probabilities multiplied out by hand:
        # (a1,b1)=0.5*0.9  (a1,b2)=0.5*0.1  (a2,b1)=0.5*0.3  (a2,b2)=0.5*0.7
        jt = joint_distribution(chain_net)
        expected = np.array([[0.45, 0.05], [0.15, 0.35]])
        assert np.abs(jt.probs - expected).max() < 1e-15
        assert jt.prob({"A": "a1", "B": "b2"}) == pytest.approx(0.05, abs=1e-15)

    def test_deterministic_tables_single_unit_cell(self):
        net = make_net(
            [("A", ["x", "y"]), ("B", ["u", "v"])],
            parents={"B": ["A"]},
            cpts={"A": [(1.0, 0.0)], "B": [(0.0, 1.0), (1.0, 0.0)]},
        )
        jt = joint_distribution(net)
        flat = jt.probs.ravel()
        assert sorted(flat) == [0.0, 0.0, 0.0, 1.0]
        assert jt.prob({"A": "x", "B": "v"}) == 1.0

    def test_sums_to_one_on_random_networks(self):
        rng = random.Random(29)
        for _ in range(25):
            net = random_network(rng)
            assert abs(joint_distribution(net).total() - 1.0) < 1e-9

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_bit_identical_to_full_shape_product(self, seed):
        # one-outcome variables, and declarations in shuffled order, so a
        # child may be declared before its parents
        rng = random.Random(seed)
        net = random_network(rng, min_nodes=1, max_nodes=6, min_outcomes=1)
        order = list(net.variables)
        rng.shuffle(order)
        shuffled = Network("E", tuple(order), dict(net.parents), dict(net.cpts))
        assert not shuffled.findings
        assert_joint_bit_identical(shuffled)

    def test_bit_identical_on_lone_root_and_empty_network(self):
        root = make_net([("A", ["x", "y", "z"])], cpts={"A": [(0.1, 0.2, 0.7)]})
        assert_joint_bit_identical(root)
        assert_joint_bit_identical(make_net([]))  # a 0-d joint of one cell

    def test_cell_cap(self):
        # 20 binary roots: 1,048,576 cells, past the cap of 10**6
        ids = [f"R{i}" for i in range(20)]
        net = make_net([(v, ["y", "n"]) for v in ids], cpts={v: [(0.5, 0.5)] for v in ids})
        assert CELL_CAP == 10**6
        with pytest.raises(JointSizeError) as info:
            joint_distribution(net)
        assert str(info.value) == "joint table would hold 1048576 cells (cap 1000000)"

    def test_prob_refuses_an_incomplete_or_unknown_assignment(self, chain_net):
        jt = joint_distribution(chain_net)
        with pytest.raises(OracleError, match=r"^assignment missing variable B$"):
            jt.prob({"A": "a1"})
        with pytest.raises(OracleError, match=r"^unknown outcome 'z' of A$"):
            jt.prob({"A": "z", "B": "b1"})
        # refused as conditional refuses it, not ignored
        with pytest.raises(OracleError, match=r"^unknown variable 'Z'$"):
            jt.prob({"A": "a1", "B": "b1", "Z": "q"})

    def test_a_lazy_table_answers_no_other_missing_attribute(self, chain_net):
        jt = joint_distribution(chain_net)
        with pytest.raises(AttributeError, match="cells"):
            jt.cells
        assert "probs" not in vars(jt)  # and builds no product for it

    def test_a_table_needs_probs_or_a_network(self):
        with pytest.raises(OracleError, match=r"^a joint table needs probs or a network$"):
            JointTable(("A",), (("x", "y"),), None)

    def test_refuses_pending_networks(self, chain_net):
        t = edits.add_outcomes_ignored(chain_net, "A", ["a3"], [(0.2,)])
        with pytest.raises(OracleError, match="pending"):
            joint_distribution(t.after)


class TestConditional:
    def test_no_evidence_is_marginal(self, chain_net):
        jt = joint_distribution(chain_net)
        marg = conditional(jt, ["B"], {})
        assert marg == pytest.approx([0.6, 0.4], abs=1e-12)

    def test_chain_posterior_by_hand(self, chain_net):
        # P(A|B=b1) = (0.45, 0.15) / 0.6
        jt = joint_distribution(chain_net)
        post = conditional(jt, ["A"], {"B": "b1"})
        assert post == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_query_order_controls_enumeration(self, chain_net):
        jt = joint_distribution(chain_net)
        ab = conditional(jt, ["A", "B"], {})
        ba = conditional(jt, ["B", "A"], {})
        assert ab == pytest.approx([0.45, 0.05, 0.15, 0.35], abs=1e-12)
        assert ba == pytest.approx([0.45, 0.15, 0.05, 0.35], abs=1e-12)

    def test_zero_evidence_rejected(self):
        net = make_net(
            [("A", ["x", "y"]), ("B", ["u", "v"])],
            parents={"B": ["A"]},
            cpts={"A": [(1.0, 0.0)], "B": [(0.5, 0.5), (0.5, 0.5)]},
        )
        jt = joint_distribution(net)
        with pytest.raises(ZeroEvidenceError):
            conditional(jt, ["B"], {"A": "y"})

    @pytest.mark.parametrize(
        "query,evidence,message",
        [
            ([], {}, "query must name at least one variable"),
            (["A", "A"], {}, "duplicate variable in query"),
            (["A", "B"], {"B": "b1"}, "variable B appears in both query and evidence"),
            (["A"], {"Z": "z1"}, "unknown variable 'Z'"),
        ],
        ids=["empty", "duplicate", "both", "unknown-evidence"],
    )
    def test_malformed_query_refused(self, chain_net, query, evidence, message):
        jt = joint_distribution(chain_net)
        with pytest.raises(OracleError) as info:
            conditional(jt, query, evidence)
        assert str(info.value) == message

    def test_unknown_names_rejected(self, chain_net):
        jt = joint_distribution(chain_net)
        with pytest.raises(OracleError):
            conditional(jt, ["Z"], {})
        with pytest.raises(OracleError):
            conditional(jt, ["B"], {"A": "nope"})


def _shuffled_with_zeros(rng: random.Random) -> Network:
    """A random network, one-outcome variables allowed, declared in shuffled
    order (a child may come before its parents), some tables one-hot so that
    evidence can have probability zero."""
    net = random_network(rng, min_nodes=1, max_nodes=6, min_outcomes=1, max_outcomes=3)
    cpts = dict(net.cpts)
    for v in net.ids():
        if rng.random() < 0.3:
            width = len(net.outcomes(v))
            rows = []
            for _ in cpts[v].rows:
                hot = rng.randrange(width)
                rows.append(tuple(float(i == hot) for i in range(width)))
            cpts[v] = Cpt(v, cpts[v].parent_order, tuple(rows))
    order = list(net.variables)
    rng.shuffle(order)
    return Network("E", tuple(order), dict(net.parents), cpts)


class TestClosureEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_conditional_equals_the_full_product(self, seed):
        rng = random.Random(seed)
        net = _shuffled_with_zeros(rng)
        assert not net.findings
        ids = list(net.ids())
        rng.shuffle(ids)
        cut = rng.randint(1, len(ids))
        query, rest = ids[:cut], ids[cut:]
        evidence = {v: rng.choice(net.outcomes(v)) for v in rest if rng.random() < 0.5}
        jt = joint_distribution(net)
        full = JointTable(jt.variables, jt.outcomes, full_shape_joint(net))
        try:
            want = conditional(full, query, evidence)
        except ZeroEvidenceError:
            with pytest.raises(ZeroEvidenceError):
                conditional(jt, query, evidence)
            return
        got = conditional(jt, query, evidence)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_a_sliced_product_is_the_full_products_slice(self, seed):
        rng = random.Random(seed)
        net = _shuffled_with_zeros(rng)
        assert not net.findings
        chosen = {
            v: rng.randrange(len(net.outcomes(v))) for v in net.ids() if rng.random() < 0.5
        }
        cut = tuple(
            slice(chosen[v], chosen[v] + 1) if v in chosen else slice(None) for v in net.ids()
        )
        got = _product(net, net.ids(), chosen)
        assert np.array_equal(got, full_shape_joint(net)[cut])

    @pytest.mark.parametrize(
        "given_probs",
        [
            lambda jt, p: replace(jt, probs=p),
            lambda jt, p: JointTable(jt.variables, jt.outcomes, p),
        ],
        ids=["replace", "by-hand"],
    )
    def test_a_table_given_its_probs_is_read_through_them(self, chain_net, given_probs):
        probs = full_shape_joint(chain_net)
        probs[0, 1] += 0.25  # (a1, b2): 0.05 -> 0.3, total 1.25
        table = given_probs(joint_distribution(chain_net), probs)
        assert table.probs is probs
        assert table.prob({"A": "a1", "B": "b2"}) == pytest.approx(0.3, abs=1e-15)
        assert table.total() == pytest.approx(1.25, abs=1e-15)
        # A alone is its own closure: only the moved cell shifts its marginal
        assert conditional(table, ["A"], {}) == pytest.approx([0.6, 0.4], abs=1e-12)
        assert conditional(table, ["B"], {"A": "a1"}) == pytest.approx(
            [0.45 / 0.75, 0.3 / 0.75], abs=1e-12
        )

    def test_each_call_builds_its_own_table_and_leaves_the_network_alone(self, chain_net):
        first = joint_distribution(chain_net)
        # the first call's checks build only the network's own indexes
        held = dict(vars(chain_net))
        assert held.keys() - vars(fresh_copy(chain_net)).keys() <= set(INDEXES)
        second = joint_distribution(chain_net)
        conditional(first, ["A"], {})
        conditional(second, ["B"], {})
        assert second is not first and second.probs is not first.probs
        assert vars(chain_net) == held

    def test_a_root_marginal_allocates_for_the_root_not_the_joint(self):
        # the full joint of this chain holds 2**16 cells, 512 KiB
        ids = [f"N{i}" for i in range(16)]
        net = make_net(
            [(v, ["a", "b"]) for v in ids],
            parents={v: [ids[i - 1]] for i, v in enumerate(ids) if i},
            cpts={v: [(0.3, 0.7)] * (2 if i else 1) for i, v in enumerate(ids)},
        )
        marg, peak = _traced_peak(lambda: conditional(joint_distribution(net), ["N0"], {}))
        assert marg == pytest.approx([0.3, 0.7], abs=1e-15)
        assert peak < 16 * 1024, peak

    def test_evidence_on_every_other_root_allocates_for_its_slice(self):
        # the closure is all 16 roots, a 512 KiB joint; the slice is 2 cells
        ids = [f"R{i}" for i in range(16)]
        net = make_net([(v, ["a", "b"]) for v in ids], cpts={v: [(0.3, 0.7)] for v in ids})
        evidence = {v: "b" for v in ids[1:]}
        post, peak = _traced_peak(lambda: conditional(joint_distribution(net), ["R0"], evidence))
        assert post == pytest.approx([0.3, 0.7], abs=1e-15)
        assert peak < 16 * 1024, peak


def _traced_peak(call):
    """`call()`'s result, and the peak of traced memory during the call
    above what was held before it, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def _broken(kind: str) -> Network:
    """`chain_net` built by hand with one structural fault."""
    parents = {"A": (), "B": ("A",)}
    cpts = {"A": [(0.5, 0.5)], "B": [(0.9, 0.1), (0.3, 0.7)]}
    if kind == "cycle":
        parents["A"] = ("B",)
        cpts["A"] = [(0.5, 0.5), (0.5, 0.5)]
    elif kind == "row-count":
        cpts["B"] = cpts["B"][:1]
    else:
        parents["B"] += ("Ghost",)
    variables = (Variable("A", "A", ("a1", "a2")), Variable("B", "B", ("b1", "b2")))
    return Network(
        "E", variables, parents, {v: Cpt(v, parents[v], rows) for v, rows in cpts.items()}
    )


BROKEN = ["cycle", "row-count", "dangling-parent"]


class TestKnownValidSnapshots:
    """The oracle trusts a snapshot whose findings are known empty and walks
    every other one; `validate_network` walks every one."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = network.structural_findings
        monkeypatch.setattr(
            network, "structural_findings", lambda net: calls.append(net) or walk(net)
        )
        return calls

    def test_an_edits_result_is_enumerated_without_a_walk(self, chain_net, walks):
        t = edits.add_variable(
            chain_net, Variable("N", "N", ("n1", "n2")), (), [(0.4, 0.6)],
            mode="assumed-constant", baseline="n1",
            successors={"B": {"n2": [(0.2, 0.8), (0.6, 0.4)]}},
        )
        walks.clear()  # the edit's own input check walked `chain_net`
        assert chain_net.findings == () and t.after.findings == ()
        jt = joint_distribution(t.after)
        assert conditional(jt, ["B"], {"N": "n2"}).sum() == pytest.approx(1.0)
        assert check_assumed_constant_identity(t.before, t.after, "N", "n1")
        assert walks == []
        # an equal snapshot whose findings are not known is walked
        joint_distribution(fresh_copy(t.after))
        assert len(walks) == 1

    @pytest.mark.parametrize("kind", BROKEN)
    def test_a_fresh_network_is_walked_and_refused(self, kind, walks):
        net = _broken(kind)
        with pytest.raises(OracleError, match="not enumerable"):
            joint_distribution(net)
        assert walks == [net]
        assert net.findings  # known invalid now, and still walked and refused
        with pytest.raises(OracleError, match="not enumerable"):
            joint_distribution(net)

    def test_row_findings_alone_leave_a_network_enumerable(self, chain_net, walks):
        bad = with_cell(chain_net, "A", 0, 0, 0.7)  # row 0 of A sums to 1.2
        assert [f.message for f in bad.findings] == ["row 0 of node A sums to 1.2"]
        assert joint_distribution(bad).total() == pytest.approx(1.2)
        assert len(walks) == 2  # the findings' walk and the oracle's own

    @pytest.mark.parametrize("kind", BROKEN)
    def test_a_loaded_network_that_fails_the_input_check_is_refused(self, kind):
        net = netio.loads(netio.dumps(_broken(kind)))
        with pytest.raises(edits.MaintenanceError, match="cannot edit an invalid network"):
            edits.require_valid(net)
        with pytest.raises(OracleError, match="not enumerable"):
            joint_distribution(net)

    @pytest.mark.parametrize("kind", BROKEN)
    def test_validate_network_walks_a_snapshot_whose_findings_are_seeded(self, kind, walks):
        net = _broken(kind)
        vars(net)["findings"] = ()  # as an edit seeds its checked result
        assert not validate_network(net).ok
        assert walks == [net]


class TestIgnoredIdentity:
    def _setup(self):
        net = make_net(
            [("D", ["d1", "d2"]), ("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])],
            parents={"A": ["D"], "B": ["A"]},
            cpts={
                "D": [(0.3, 0.7)],
                "A": [(0.2, 0.5, 0.3), (0.6, 0.1, 0.3)],
                "B": [(0.9, 0.1), (0.4, 0.6), (0.5, 0.5)],
            },
        )
        t = edits.add_outcomes_ignored(net, "A", ["a4"], [(0.25,), (0.4,)])
        t2 = edits.reuse_successor_rows_ignored(
            t.after, "B", "A", {"a4": [(0.15, 0.85)]}
        )
        return net, t2.after

    def test_transaction_passes(self):
        before, after = self._setup()
        assert check_ignored_identity(before, after, "A", ["a4"])

    def test_perturbed_rescaled_cell_detected(self):
        before, after = self._setup()
        corrupted = with_cell(after, "A", 0, 1, after.cpt("A").rows[0][1] + 1e-3)
        result = check_ignored_identity(before, corrupted, "A", ["a4"])
        assert not result
        assert result.failures

    def test_zero_scale_config_is_skipped(self):
        net = make_net(
            [("D", ["d1", "d2"]), ("A", ["a1", "a2"])],
            parents={"A": ["D"]},
            cpts={"D": [(0.5, 0.5)], "A": [(0.2, 0.8), (0.7, 0.3)]},
        )
        # full mass on the new outcome for config 0: old outcomes zeroed there
        t = edits.add_outcomes_ignored(net, "A", ["a3"], [(1.0,), (0.1,)])
        assert t.factors.per_config[0] == 0.0
        assert check_ignored_identity(net, t.after, "A", ["a3"])

    def test_wrong_outcome_extension_rejected(self, chain_net):
        with pytest.raises(OracleError):
            check_ignored_identity(chain_net, chain_net, "A", ["a9"])


class TestAssumedConstantIdentity:
    def _base(self):
        return make_net(
            [("X", ["x1", "x2"]), ("Y", ["y1", "y2", "y3"])],
            parents={"Y": ["X"]},
            cpts={
                "X": [(0.4, 0.6)],
                "Y": [(0.2, 0.3, 0.5), (0.6, 0.2, 0.2)],
            },
        )

    def test_added_root_variable_passes(self):
        net = self._base()
        t = edits.add_variable(
            net,
            Variable("A", "A", ("a0", "a1")),
            (),
            [(0.7, 0.3)],
            mode=edits.MODE_ASSUMED_CONSTANT,
            baseline="a0",
            successors={"Y": {"a1": [(0.1, 0.1, 0.8), (0.3, 0.3, 0.4)]}},
        )
        assert check_assumed_constant_identity(net, t.after, "A", "a0")

    def test_wrong_row_in_baseline_block_detected(self):
        net = self._base()
        t = edits.add_variable(
            net,
            Variable("A", "A", ("a0", "a1")),
            (),
            [(0.7, 0.3)],
            mode=edits.MODE_ASSUMED_CONSTANT,
            baseline="a0",
            successors={"Y": {"a1": [(0.1, 0.1, 0.8), (0.3, 0.3, 0.4)]}},
        )
        # overwrite one baseline-conditioned row with a non-baseline row
        cpt = t.after.cpt("Y")
        bad = t.after
        for col, val in enumerate(cpt.rows[1]):
            bad = with_cell(bad, "Y", 0, col, val)
        assert not check_assumed_constant_identity(net, bad, "A", "a0")

    def test_existing_root_gaining_arc(self):
        # only Y gains the arc; reference is the old joint conditioned on
        # the already-present root's baseline
        net = make_net(
            [("A", ["a0", "a1"]), ("X", ["x1", "x2"]), ("Y", ["y1", "y2"])],
            parents={"Y": ["X"]},
            cpts={
                "A": [(0.5, 0.5)],
                "X": [(0.3, 0.7)],
                "Y": [(0.8, 0.2), (0.4, 0.6)],
            },
        )
        t = edits.add_arc_assumed_constant(
            net, "A", "Y", "a0", {"a1": [(0.2, 0.8), (0.9, 0.1)]}
        )
        assert check_assumed_constant_identity(net, t.after, "A", "a0")

    def test_existing_root_with_other_children(self):
        # A already conditions B, so the old joint marginalized over A is
        # the wrong reference; conditioned on the baseline a1 it is right
        net = make_net(
            [("A", ["a1", "a2"]), ("B", ["b1", "b2"]), ("C", ["c1", "c2"])],
            parents={"B": ["A"]},
            cpts={
                "A": [(0.5, 0.5)],
                "B": [(0.9, 0.1), (0.3, 0.7)],
                "C": [(0.6, 0.4)],
            },
        )
        t = edits.add_arc_assumed_constant(net, "A", "C", "a1", {"a2": [(0.1, 0.9)]})
        assert check_assumed_constant_identity(net, t.after, "A", "a1")
        cell = t.after.cpt("C").rows[0][0]
        bad = with_cell(t.after, "C", 0, 0, cell + 1e-3)
        result = check_assumed_constant_identity(net, bad, "A", "a1")
        assert not result
        assert result.failures == (
            "deviation 0.00036 at B=0,C=0",
            "deviation 0.00036 at B=0,C=1",
            "deviation 4e-05 at B=1,C=0",
            "deviation 4e-05 at B=1,C=1",
        )

    def test_single_outcome_variable_changes_nothing(self):
        net = self._base()
        t = edits.add_variable(
            net,
            Variable("K", "K", ("only",)),
            (),
            [(1.0,)],
            mode=edits.MODE_ASSUMED_CONSTANT,
            baseline="only",
            successors={"Y": {}},
        )
        assert check_assumed_constant_identity(net, t.after, "K", "only")
        before = joint_distribution(net).probs
        after = joint_distribution(t.after).probs.squeeze(axis=-1)
        assert np.array_equal(before, after)

    def test_a_lone_variable_leaves_nothing_to_compare(self):
        after = make_net([("K", ["k1", "k2"])], cpts={"K": [(0.5, 0.5)]})
        result = check_assumed_constant_identity(make_net([]), after, "K", "k1")
        assert result.ok and result.failures == ()

    def test_non_root_rejected(self):
        net = self._base()
        with pytest.raises(OracleError, match="root"):
            check_assumed_constant_identity(net, net, "Y", "y1")

    def test_randomized_perturbation_of_reused_cells_detected(self):
        # small base networks keep every context probability large enough
        # that a 1e-3 cell perturbation must surface above the tolerance
        rng = random.Random(53)
        from conftest import random_network, random_row

        for _ in range(30):
            net = random_network(rng, min_nodes=1, max_nodes=3)
            k = rng.randint(2, 3)
            var = Variable("Anew", "Anew", tuple(f"v{j}" for j in range(k)))
            baseline = var.outcomes[0]
            successor = rng.choice(net.ids())
            others = {
                label: [
                    random_row(rng, len(net.outcomes(successor)))
                    for _ in range(len(net.cpt(successor).rows))
                ]
                for label in var.outcomes[1:]
            }
            t = edits.add_variable(
                net, var, (), [random_row(rng, k)],
                mode=edits.MODE_ASSUMED_CONSTANT,
                baseline=baseline,
                successors={successor: others},
            )
            assert check_assumed_constant_identity(net, t.after, "Anew", baseline)
            # corrupt one reused (baseline-conditioned) successor row
            rows_new = len(t.after.cpt(successor).rows)
            reused_rows = [j for j in range(rows_new) if j % k == 0]
            row_idx = rng.choice(reused_rows)
            col = rng.randrange(len(net.outcomes(successor)))
            cell = t.after.cpt(successor).rows[row_idx][col]
            delta = 1e-3 if cell + 1e-3 <= 1.0 else -1e-3
            bad = with_cell(t.after, successor, row_idx, col, cell + delta)
            assert not check_assumed_constant_identity(net, bad, "Anew", baseline)


class TestSplitConservationAtJointLevel:
    def test_part_mass_equals_old_outcome_mass(self):
        net = make_net(
            [("D", ["d1", "d2"]), ("A", ["a1", "a2", "a3"]), ("B", ["b1", "b2"])],
            parents={"A": ["D"], "B": ["A"]},
            cpts={
                "D": [(0.45, 0.55)],
                "A": [(0.2, 0.5, 0.3), (0.6, 0.1, 0.3)],
                "B": [(0.9, 0.1), (0.4, 0.6), (0.5, 0.5)],
            },
        )
        t = edits.split_outcome(
            net, "A", "a2", ["a2u", "a2v"], [(0.25, 0.75), (0.4, 0.6)]
        )
        t2 = edits.reuse_successor_rows_split(
            t.after, "B", "A",
            {"a2u": [(0.7, 0.3)], "a2v": [(0.1, 0.9)]},
        )
        before = joint_distribution(net)
        after = joint_distribution(t2.after)
        for d_label in ("d1", "d2"):
            old_mass = sum(
                before.prob({"D": d_label, "A": "a2", "B": b}) for b in ("b1", "b2")
            )
            part_mass = sum(
                after.prob({"D": d_label, "A": a, "B": b})
                for a in ("a2u", "a2v")
                for b in ("b1", "b2")
            )
            assert part_mass == pytest.approx(old_mass, abs=1e-8)


def test_package_serves_the_oracle_names_on_first_use():
    import bnmaint
    from bnmaint import OracleError as served_error
    from bnmaint import joint_distribution as served_joint

    assert served_joint is joint_distribution
    assert served_error is OracleError
    assert bnmaint.check_ignored_identity is check_ignored_identity
    with pytest.raises(AttributeError, match="no_such_name"):
        bnmaint.no_such_name  # noqa: B018
