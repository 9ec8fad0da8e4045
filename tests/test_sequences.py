"""Random sequences of edits, checked against the transaction invariants.

One rule per public edit function; pending successors are completed by the
matching ``reuse_successor_rows_*`` or by ``replace_cpt``. After every step
the new snapshot validates, the old one is untouched, the label advanced once,
the indexes the snapshot carries equal ones built afresh, its carried levels
order every arc and leave cycle checks answering what a walk of every
ancestor answers, every table is stored as tuples of floats, each row the
local check skipped is a row of the input and each node it skipped keeps
its table, parents and variable, the report lists each node at
most once and only nodes given a new table, each entry balances, and a
complete network survives the JSON document round trip.
Two more rules plant a fault, one in a ``replace_cpt`` table and one in the
labels ``add_outcomes_general`` adds: the edit's local check must reject it
with a finding the full check also reports.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from bnmaint import edits, network
from bnmaint.edits import NodeAssessment, bump_label, pending_label_split
from bnmaint.netio import from_document, to_document
from bnmaint.network import (
    Cpt,
    Network,
    Variable,
    has_path,
    structural_findings,
    validate_network,
)

from conftest import (
    assert_indexes_carried,
    random_mass_blocks,
    random_network,
    random_row,
    random_weights,
    scan_children,
    walk_has_path,
)

MAX_NODES = 6
MAX_OUTCOMES = 4
MAX_PARENTS = 3

seeds = st.integers(0, 2**32 - 1)

# faults planted in a correctly shaped replacement table
FAULTS = ("sum", "nan", "negative", "missing-row", "extra-entry")


def _rows(rng: random.Random, count: int, width: int) -> list[tuple[float, ...]]:
    return [random_row(rng, width) for _ in range(count)]


def _settled(net: Network) -> list[str]:
    """Nodes whose outcome space may change: they and their children are
    complete."""
    return [
        n
        for n in net.ids()
        if n not in net.stale and not any(c in net.stale for c in net.children(n))
    ]


def _fresh_labels(net: Network, node: str, count: int) -> list[str]:
    taken = set(net.outcomes(node))
    out, j = [], 0
    while len(out) < count:
        label = f"{node.lower()}n{j}"
        if label not in taken:
            out.append(label)
        j += 1
    return out


def _new_arcs(net: Network) -> list[tuple[str, str]]:
    return [
        (src, dst)
        for dst in net.ids()
        if dst not in net.stale and len(net.parents_of(dst)) < MAX_PARENTS
        for src in net.ids()
        if src != dst
        and src not in net.stale
        and src not in net.parents_of(dst)
        and not has_path(net, dst, src)
    ]


def _pending(net: Network, cause: str) -> list[str]:
    return [n for n, info in net.stale.items() if info.cause == cause]


class EditSequences(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.net: Network | None = None
        # input, its deep copy, the transaction and the rows its local check
        # judged by node: their indexes, or None for every row
        self.step: tuple[Network, Network, edits.Transaction, dict] | None = None
        self.counter = 0

    @initialize(seed=seeds)
    def start(self, seed: int) -> None:
        self.net = random_network(
            random.Random(seed), max_nodes=4, max_outcomes=3, max_parents=2
        )

    def _apply(self, fn, *args, **kwargs) -> None:
        guard = copy.deepcopy(self.net)
        calls = []
        row_findings = network._row_findings

        def spy(net, node, indexes=None):
            calls.append((net, node, indexes))
            return row_findings(net, node, indexes)

        with mock.patch.object(network, "_row_findings", spy):
            t = fn(self.net, *args, **kwargs)
        judged = {node: indexes for net, node, indexes in calls if net is t.after}
        self.step = (self.net, guard, t, judged)
        self.net = t.after

    # -- outcome-space growth ------------------------------------------------

    def _growable(self, extra: int) -> list[str]:
        return [
            n
            for n in _settled(self.net)
            if len(self.net.outcomes(n)) + extra <= MAX_OUTCOMES
        ]

    @rule(seed=seeds)
    def add_outcomes_ignored(self, seed: int) -> None:
        rng = random.Random(seed)
        k = rng.randint(1, 2)
        nodes = self._growable(k)
        if nodes:
            node = rng.choice(nodes)
            blocks = random_mass_blocks(rng, len(self.net.cpt(node).rows), k)
            labels = _fresh_labels(self.net, node, k)
            self._apply(edits.add_outcomes_ignored, node, labels, blocks)

    @rule(seed=seeds)
    def add_outcomes_general(self, seed: int) -> None:
        rng = random.Random(seed)
        k = rng.randint(1, 2)
        nodes = self._growable(k)
        if nodes:
            node = rng.choice(nodes)
            width = len(self.net.outcomes(node)) + k
            rows = _rows(rng, len(self.net.cpt(node).rows), width)
            labels = _fresh_labels(self.net, node, k)
            self._apply(edits.add_outcomes_general, node, labels, rows)

    @rule(seed=seeds)
    def split_outcome(self, seed: int) -> None:
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        nodes = self._growable(k - 1)
        if nodes:
            node = rng.choice(nodes)
            outcomes = self.net.outcomes(node)
            s = rng.randrange(len(outcomes))
            parts = _fresh_labels(self.net, node, k)
            weights = [random_weights(rng, k) for _ in self.net.cpt(node).rows]
            if rng.random() < 0.5:
                self._apply(edits.split_outcome, node, outcomes[s], parts, weights)
            else:
                probs = [
                    tuple(w * row[s] for w in ws)
                    for ws, row in zip(weights, self.net.cpt(node).rows)
                ]
                self._apply(
                    edits.split_outcome, node, outcomes[s], parts, probs, form="probs"
                )

    @rule(seed=seeds)
    def split_outcome_general(self, seed: int) -> None:
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        nodes = self._growable(k - 1)
        if nodes:
            node = rng.choice(nodes)
            outcome = rng.choice(self.net.outcomes(node))
            width = len(self.net.outcomes(node)) + k - 1
            rows = _rows(rng, len(self.net.cpt(node).rows), width)
            parts = _fresh_labels(self.net, node, k)
            self._apply(edits.split_outcome_general, node, outcome, parts, rows)

    # -- successor completion ----------------------------------------------

    def _reuse(self, rng: random.Random, cause: str, fn) -> None:
        nodes = _pending(self.net, cause)
        if nodes:
            node = rng.choice(nodes)
            parent = self.net.stale[node].parent
            needed, _ = pending_label_split(self.net, node)
            others = [p for p in self.net.parents_of(node) if p != parent]
            count = math.prod(len(self.net.outcomes(p)) for p in others)
            width = len(self.net.outcomes(node))
            rows = {label: _rows(rng, count, width) for label in needed}
            self._apply(fn, node, parent, rows)

    @rule(seed=seeds)
    def reuse_successor_rows_ignored(self, seed: int) -> None:
        self._reuse(
            random.Random(seed),
            edits.KIND_ADD_OUTCOMES,
            edits.reuse_successor_rows_ignored,
        )

    @rule(seed=seeds)
    def reuse_successor_rows_split(self, seed: int) -> None:
        self._reuse(
            random.Random(seed),
            edits.KIND_SPLIT_OUTCOME,
            edits.reuse_successor_rows_split,
        )

    @rule(seed=seeds)
    def replace_cpt(self, seed: int) -> None:
        rng = random.Random(seed)
        # half the time complete a pending node, the general reassessment
        pool = sorted(self.net.stale) if rng.random() < 0.5 else []
        node = rng.choice(pool or self.net.ids())
        count = math.prod(self.net.radices(node))
        self._apply(
            edits.replace_cpt, node, _rows(rng, count, len(self.net.outcomes(node)))
        )

    @rule(seed=seeds, fault=st.sampled_from(FAULTS))
    def replace_cpt_with_fault(self, seed: int, fault: str) -> None:
        # the local check in _finish must reject what the full check finds
        rng = random.Random(seed)
        node = rng.choice(self.net.ids())
        width = len(self.net.outcomes(node))
        rows = [list(r) for r in _rows(rng, math.prod(self.net.radices(node)), width)]
        if fault == "sum":
            rows[0] = [0.0] * width
            rows[0][0] += 0.625
            rows[0][-1] += 0.625
            finding = f"row 0 of node {node} sums to 1.25"
        elif fault == "nan":
            rows[0][0] = math.nan
            finding = f"entry nan in row 0 of node {node} outside [0, 1]"
        elif fault == "negative":
            rows[0][0] = -0.5
            finding = f"entry -0.5 in row 0 of node {node} outside [0, 1]"
        elif fault == "missing-row":
            rows.pop()
            finding = f"node {node} has {len(rows)} CPT rows, expected {len(rows) + 1}"
        else:  # extra-entry
            rows[0].append(0.0)
            finding = f"row 0 of node {node} has {width + 1} entries, expected {width}"
        guard = copy.deepcopy(self.net)
        with pytest.raises(edits.MaintenanceError) as caught:
            edits.replace_cpt(self.net, node, rows)
        prefix = "edit would produce an invalid network: "
        assert str(caught.value).startswith(prefix)
        spliced = replace(
            self.net,
            cpts={**self.net.cpts, node: Cpt(node, self.net.parents_of(node), rows)},
            stale={n: info for n, info in self.net.stale.items() if n != node},
        )
        full = validate_network(spliced).messages()
        assert str(caught.value)[len(prefix):] in full
        assert finding in full
        assert self.net == guard

    @rule(seed=seeds)
    def add_outcomes_general_with_colliding_label(self, seed: int) -> None:
        nodes = self._growable(1)
        if not nodes:
            return
        rng = random.Random(seed)
        node = rng.choice(nodes)
        old = self.net.variable(node)
        labels = [rng.choice(old.outcomes)]
        rows = _rows(rng, len(self.net.cpt(node).rows), len(old.outcomes) + 1)
        guard = copy.deepcopy(self.net)
        with pytest.raises(edits.MaintenanceError) as caught:
            edits.add_outcomes_general(self.net, node, labels, rows)
        finding = f"duplicate outcome labels on variable {node}"
        assert str(caught.value) == f"edit would produce an invalid network: {finding}"
        widened = replace(old, outcomes=old.outcomes + tuple(labels))
        spliced = replace(
            self.net,
            variables=tuple(widened if v.id == node else v for v in self.net.variables),
            cpts={**self.net.cpts, node: Cpt(node, self.net.parents_of(node), rows)},
        )
        assert finding in validate_network(spliced).messages()
        assert self.net == guard

    # -- conditioning changes ----------------------------------------------

    @rule(seed=seeds)
    def add_arc_assumed_constant(self, seed: int) -> None:
        rng = random.Random(seed)
        arcs = _new_arcs(self.net)
        if arcs:
            src, dst = rng.choice(arcs)
            baseline = rng.choice(self.net.outcomes(src))
            count, width = len(self.net.cpt(dst).rows), len(self.net.outcomes(dst))
            rows = {
                label: _rows(rng, count, width)
                for label in self.net.outcomes(src)
                if label != baseline
            }
            self._apply(edits.add_arc_assumed_constant, src, dst, baseline, rows)

    @rule(seed=seeds)
    def add_arc_general(self, seed: int) -> None:
        rng = random.Random(seed)
        arcs = _new_arcs(self.net)
        if arcs:
            src, dst = rng.choice(arcs)
            count = len(self.net.cpt(dst).rows) * len(self.net.outcomes(src))
            rows = _rows(rng, count, len(self.net.outcomes(dst)))
            self._apply(edits.add_arc_general, src, dst, rows)

    @rule(seed=seeds, assumed=st.booleans())
    def add_variable(self, seed: int, assumed: bool) -> None:
        if len(self.net.variables) >= MAX_NODES:
            return
        rng = random.Random(seed)
        self.counter += 1
        vid = f"V{self.counter}"
        outcomes = tuple(f"v{self.counter}x{j}" for j in range(rng.randint(2, 3)))
        ids = self.net.ids()
        parents = tuple(rng.sample(ids, rng.randint(0, min(2, len(ids)))))
        own = _rows(
            rng, math.prod(len(self.net.outcomes(p)) for p in parents), len(outcomes)
        )
        candidates = [
            s
            for s in ids
            if s not in self.net.stale
            and s not in parents
            and len(self.net.parents_of(s)) < MAX_PARENTS
            and not any(has_path(self.net, s, p) for p in parents)
        ]
        chosen = rng.sample(candidates, rng.randint(0, min(2, len(candidates))))
        baseline = rng.choice(outcomes) if assumed else None
        successors: dict[str, object] = {}
        for s in chosen:
            count, width = len(self.net.cpt(s).rows), len(self.net.outcomes(s))
            if assumed:
                successors[s] = {
                    label: _rows(rng, count, width)
                    for label in outcomes
                    if label != baseline
                }
            else:
                successors[s] = _rows(rng, count * len(outcomes), width)
        self._apply(
            edits.add_variable,
            Variable(vid, vid, outcomes),
            parents,
            own,
            mode=edits.MODE_ASSUMED_CONSTANT if assumed else edits.MODE_GENERAL,
            baseline=baseline,
            successors=successors,
        )

    # -- general reassessment ----------------------------------------------

    @rule(seed=seeds)
    def remove_arc(self, seed: int) -> None:
        rng = random.Random(seed)
        arcs = [
            (src, dst)
            for dst in self.net.ids()
            if dst not in self.net.stale
            for src in self.net.parents_of(dst)
        ]
        if arcs:
            src, dst = rng.choice(arcs)
            count = math.prod(
                len(self.net.outcomes(p)) for p in self.net.parents_of(dst) if p != src
            )
            rows = _rows(rng, count, len(self.net.outcomes(dst)))
            self._apply(edits.remove_arc, src, dst, rows)

    @rule(seed=seeds, renormalize=st.booleans())
    def remove_outcome(self, seed: int, renormalize: bool) -> None:
        rng = random.Random(seed)
        nodes = [n for n in _settled(self.net) if len(self.net.outcomes(n)) >= 2]
        if not nodes:
            return
        node = rng.choice(nodes)
        outcome = rng.choice(self.net.outcomes(node))
        if renormalize:
            self._apply(edits.remove_outcome, node, outcome, renormalize=True)
            return
        m = len(self.net.outcomes(node))
        rows = _rows(rng, len(self.net.cpt(node).rows), m - 1)
        successors = {}
        for s in self.net.children(node):
            count = math.prod(
                len(self.net.outcomes(p)) - (p == node) for p in self.net.parents_of(s)
            )
            successors[s] = _rows(rng, count, len(self.net.outcomes(s)))
        self._apply(
            edits.remove_outcome,
            node,
            outcome,
            replacement_rows=rows,
            successor_replacements=successors,
        )

    # -- invariants -----------------------------------------------------------

    @invariant()
    def transaction_invariants(self) -> None:
        if self.step is None:
            return
        before, guard, t, judged = self.step
        self.step = None
        assert before == guard
        assert validate_network(t.after).ok
        assert t.after.findings == ()
        # the oracle enumerates a snapshot whose findings are known empty
        # without walking its structure; a fresh walk must agree
        assert structural_findings(t.after) == []
        assert t.after.version_label == bump_label(guard.version_label)
        assert_indexes_carried(t.after)
        # stored form, built without the public constructor's conversion
        for cpt in t.after.cpts.values():
            assert type(cpt.rows) is tuple, cpt.node
            for row in cpt.rows:
                assert type(row) is tuple and {*map(type, row)} <= {float}, cpt.node
        # a row the local check did not judge is a row of the valid input, and
        # a node it did not judge keeps its table, parents and variable
        old = {id(row) for cpt in t.before.cpts.values() for row in cpt.rows}
        for node in t.after.ids():
            if node not in judged:
                assert t.after.cpt(node) is t.before.cpts.get(node), node
                assert t.after.parents_of(node) == t.before.parents_of(node), node
                assert t.after.variable(node) == t.before.variable(node), node
            elif judged[node] is not None:
                rows = t.after.cpt(node).rows
                unjudged = set(range(len(rows))) - set(judged[node])
                assert all(id(rows[j]) in old for j in unjudged), node
        for node in {*t.after.ids(), *t.before.ids()}:
            assert t.after.children(node) == scan_children(t.after, node), node
        for src in t.after.ids():
            for dst in t.after.ids():
                assert has_path(t.after, src, dst) == walk_has_path(t.after, src, dst)
        listed = [entry.node for entry in t.report.nodes]
        assert len(listed) == len(set(listed)), listed
        for node in set(t.after.ids()) - set(listed):
            assert t.report.for_node(node) == NodeAssessment(node, 0, 0, 0)
        for entry in t.report.nodes:
            assert t.report.for_node(entry.node) is entry
            assert entry.elicited + entry.reused == entry.baseline, entry
            assert t.after.cpt(entry.node) is not t.before.cpts.get(entry.node), entry
        if not t.after.stale:
            assert from_document(to_document(t.after)) == t.after


EditSequences.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEditSequences = EditSequences.TestCase



def _abc(b_parents: tuple[str, ...]) -> Network:
    """Roots A (3 outcomes) and C (2), and B (2) on `b_parents`."""
    variables = (
        Variable("A", "A", ("a1", "a2", "a3")),
        Variable("C", "C", ("c1", "c2")),
        Variable("B", "B", ("b1", "b2")),
    )
    count = math.prod(3 if p == "A" else 2 for p in b_parents)
    return Network(
        "E",
        variables,
        {"A": (), "C": (), "B": b_parents},
        {
            "A": Cpt("A", (), ((0.2, 0.5, 0.3),)),
            "C": Cpt("C", (), ((0.4, 0.6),)),
            "B": Cpt("B", b_parents, ((0.9, 0.1),) * count),
        },
    )


# a table mixing rows carried from the input with one bad elicited row, with
# carried rows on both sides of it, is still rejected with the same finding
@pytest.mark.parametrize(
    "edit, finding",
    [
        (
            # B's rows by (C, A): a1 and a3 elicited, a2 the old row
            lambda: edits.add_arc_assumed_constant(
                _abc(("C",)),
                "A",
                "B",
                "a2",
                {"a1": [(0.5, 0.5), (0.6, 0.5)], "a3": [(0.5, 0.5)] * 2},
            ),
            "row 3 of node B sums to 1.1",
        ),
        (
            # B's rows by (C, A): a4 elicited, the rest old rows
            lambda: edits.reuse_successor_rows_ignored(
                edits.add_outcomes_ignored(_abc(("C", "A")), "A", ["a4"], [(0.2,)]).after,
                "B",
                "A",
                {"a4": [(-0.5, 1.5), (0.5, 0.5)]},
            ),
            "entry -0.5 in row 3 of node B outside [0, 1]",
        ),
    ],
    ids=["add_arc_assumed_constant-sum", "reuse_successor_rows-negative"],
)
def test_one_bad_elicited_row_among_carried_rows_is_rejected(edit, finding):
    with pytest.raises(edits.MaintenanceError) as caught:
        edit()
    assert str(caught.value) == "edit would produce an invalid network: " + finding
