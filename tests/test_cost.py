"""Counting formulas, ratio curves, and transaction audits."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnmaint import edits
from bnmaint.edits import MODE_ASSUMED_CONSTANT, MODE_GENERAL
from bnmaint.cost import (
    CASE_ASSUMED_CONSTANT,
    CASE_IGNORED,
    CASE_SPLIT,
    CASES,
    ROLE_CHANGED,
    ROLE_SUCCESSOR,
    CostQuery,
    aggregate_reports,
    assessment_cost,
    audit_csv,
    audit_transaction,
    curve_ratio,
    curves_csv,
    ratio_curves,
)
from bnmaint.network import Variable, has_path
from conftest import (
    make_net,
    random_mass_blocks,
    random_network,
    random_row,
    random_weights,
)

PAIRS = [
    (CASE_IGNORED, ROLE_CHANGED),
    (CASE_IGNORED, ROLE_SUCCESSOR),
    (CASE_SPLIT, ROLE_CHANGED),
    (CASE_SPLIT, ROLE_SUCCESSOR),
    (CASE_ASSUMED_CONSTANT, ROLE_SUCCESSOR),
]


class TestAssessmentCost:
    def test_binary_node_gaining_one_outcome_halves_the_work(self):
        r = assessment_cost(CostQuery(CASE_IGNORED, ROLE_CHANGED, m=2, k=1))
        assert (r.general, r.special) == (2, 1)
        assert r.ratio == 0.5

    def test_successor_of_binary_node_needs_a_third(self):
        r = assessment_cost(CostQuery(CASE_IGNORED, ROLE_SUCCESSOR, m=2, k=1, p=2))
        assert (r.general, r.special) == (3, 1)
        assert abs(r.ratio - 1 / 3) < 1e-12

    def test_two_parent_example_counts(self):
        r = assessment_cost(
            CostQuery(CASE_IGNORED, ROLE_CHANGED, m=3, k=2, radices=(3, 3))
        )
        assert (r.general, r.special) == (36, 18)

    def test_assumed_constant_successor(self):
        r = assessment_cost(CostQuery(CASE_ASSUMED_CONSTANT, ROLE_SUCCESSOR, k=2, p=2))
        assert r.ratio == 0.5

    def test_assumed_constant_changed_node_has_no_saving(self):
        r = assessment_cost(CostQuery(CASE_ASSUMED_CONSTANT, ROLE_CHANGED, k=3))
        assert r.general == r.special == 2
        assert r.ratio == 1.0
        # even the degenerate zero-count query reports ratio 1
        r0 = assessment_cost(CostQuery(CASE_ASSUMED_CONSTANT, ROLE_CHANGED, k=1))
        assert (r0.general, r0.special, r0.ratio) == (0, 0, 1.0)

    def test_relabel_split_costs_nothing(self):
        r = assessment_cost(CostQuery(CASE_SPLIT, ROLE_CHANGED, m=4, k=1))
        assert r.special == 0
        assert r.ratio == 0.0

    def test_undefined_ratio_when_nothing_to_assess(self):
        r = assessment_cost(CostQuery(CASE_SPLIT, ROLE_CHANGED, m=1, k=1))
        assert (r.general, r.special, r.ratio) == (0, 0, None)

    def test_validation(self):
        with pytest.raises(ValueError):
            assessment_cost(CostQuery("nope", ROLE_CHANGED))
        with pytest.raises(ValueError):
            assessment_cost(CostQuery(CASE_IGNORED, "nope"))
        with pytest.raises(ValueError):
            assessment_cost(CostQuery(CASE_IGNORED, ROLE_CHANGED, m=0))
        with pytest.raises(ValueError):
            assessment_cost(CostQuery(CASE_IGNORED, ROLE_SUCCESSOR, p=1))
        with pytest.raises(ValueError):
            assessment_cost(CostQuery(CASE_IGNORED, ROLE_CHANGED, radices=(0,)))

    @pytest.mark.parametrize("field, value", [
        ("m", math.nan), ("m", 2.5), ("m", 2.0), ("m", True), ("k", 1.5), ("k", "2"),
        ("p", 2.5), ("p", False), ("radices", (2, 1.5)), ("radices", (True,)),
    ])
    def test_counts_must_be_integers(self, field, value):
        query = CostQuery(CASE_IGNORED, ROLE_SUCCESSOR, **{field: value})
        bad = value[-1] if field == "radices" else value
        name = "radix" if field == "radices" else field
        message = rf"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            assessment_cost(query)

    def test_counts_of_any_integral_type_are_accepted(self):
        plain = CostQuery(CASE_IGNORED, ROLE_SUCCESSOR, m=2, k=1, p=3, radices=(2, 3))
        wide = CostQuery(CASE_IGNORED, ROLE_SUCCESSOR, *map(np.int64, (2, 1, 3)),
                         radices=(np.int8(2), np.uint16(3)))
        assert assessment_cost(wide) == assessment_cost(plain)

    @given(
        case=st.sampled_from(CASES),
        role=st.sampled_from((ROLE_CHANGED, ROLE_SUCCESSOR)),
        m=st.integers(1, 8),
        k=st.integers(1, 8),
        p=st.integers(2, 5),
        radices=st.lists(st.integers(1, 4), max_size=3).map(tuple),
    )
    def test_special_never_exceeds_general(self, case, role, m, k, p, radices):
        r = assessment_cost(CostQuery(case, role, m, k, p, radices))
        assert 0 <= r.special <= r.general
        if r.ratio is not None:
            assert 0.0 <= r.ratio <= 1.0
        if r.general > 0:
            assert r.ratio == pytest.approx(r.special / r.general)

    @given(
        case=st.sampled_from((CASE_IGNORED, CASE_SPLIT)),
        role=st.sampled_from((ROLE_CHANGED, ROLE_SUCCESSOR)),
        m=st.integers(2, 8),
        k=st.integers(1, 8),
    )
    def test_strict_saving_with_at_least_two_old_outcomes(self, case, role, m, k):
        r = assessment_cost(CostQuery(case, role, m, k, p=3, radices=(2,)))
        assert r.ratio is not None and r.ratio < 1.0

    @given(
        case=st.sampled_from(CASES),
        role=st.sampled_from((ROLE_CHANGED, ROLE_SUCCESSOR)),
        m=st.integers(1, 8),
        k=st.integers(1, 8),
        p=st.integers(2, 5),
        radices=st.sampled_from([(), (2,), (3, 3), (2, 3, 4)]),
    )
    def test_counts_reduce_to_closed_form_ratio(self, case, role, m, k, p, radices):
        r = assessment_cost(CostQuery(case, role, m, k, p, radices))
        closed = curve_ratio(case, role, m, k)
        if r.general == 0:
            assert r.special == 0
            return
        assert closed is not None
        assert Fraction(r.special, r.general) == Fraction(closed).limit_denominator(10**6)
        assert abs(r.ratio - closed) < 1e-12


class TestMonotonicity:
    @pytest.mark.parametrize("case,role", PAIRS[:4])
    def test_ratio_nonincreasing_in_m_and_nondecreasing_in_k(self, case, role):
        for k in range(1, 8):
            ratios = [curve_ratio(case, role, m, k) for m in range(1, 8)]
            defined = [r for r in ratios if r is not None]
            assert all(a >= b - 1e-15 for a, b in zip(defined, defined[1:]))
        for m in range(1, 8):
            ratios = [curve_ratio(case, role, m, k) for k in range(1, 8)]
            defined = [r for r in ratios if r is not None]
            assert all(a <= b + 1e-15 for a, b in zip(defined, defined[1:]))


class TestRatioCurves:
    def test_binary_node_curve_values(self):
        points = ratio_curves(CASE_IGNORED, ROLE_CHANGED, [2], [1, 2, 3])
        assert [pt.ratio for pt in points] == pytest.approx(
            [0.5, 2 / 3, 3 / 4], abs=1e-15
        )

    def test_assumed_constant_successor_ignores_m(self):
        points = ratio_curves(CASE_ASSUMED_CONSTANT, ROLE_SUCCESSOR, [1, 3, 6], [4])
        assert len({pt.ratio for pt in points}) == 1
        assert points[0].ratio == 0.75

    def test_relabel_split_column_is_zero(self):
        points = ratio_curves(CASE_SPLIT, ROLE_CHANGED, [2, 3, 4], [1])
        assert all(pt.ratio == 0.0 for pt in points)

    def test_deterministic_row_order(self):
        points = ratio_curves(CASE_IGNORED, ROLE_CHANGED, [1, 2], [1, 2])
        assert [(pt.m, pt.k) for pt in points] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_csv_shape_and_undefined_cells(self):
        points = ratio_curves(CASE_SPLIT, ROLE_CHANGED, [1], [1, 2])
        text = curves_csv(CASE_SPLIT, ROLE_CHANGED, points)
        lines = text.splitlines()
        assert lines[0] == "case,role,m,k,ratio"
        assert lines[1] == "split,changed,1,1,"  # 0/0 has no ratio
        assert lines[2] == "split,changed,1,2,1.0"

    def test_csv_deterministic(self):
        a = curves_csv(
            CASE_IGNORED,
            ROLE_SUCCESSOR,
            ratio_curves(CASE_IGNORED, ROLE_SUCCESSOR, range(1, 7), range(1, 11)),
        )
        b = curves_csv(
            CASE_IGNORED,
            ROLE_SUCCESSOR,
            ratio_curves(CASE_IGNORED, ROLE_SUCCESSOR, range(1, 7), range(1, 11)),
        )
        assert a == b

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            ratio_curves(CASE_IGNORED, ROLE_CHANGED, [], [1])
        with pytest.raises(ValueError):
            ratio_curves(CASE_IGNORED, ROLE_CHANGED, [0], [1])

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param(("ignored", "bogus", 2, 1), "unknown role", id="role"),
            pytest.param(("bogus", "changed", 2, 1), "unknown case", id="case"),
            pytest.param(("ignored", "changed", 0, 1), ">= 1", id="m-zero"),
            pytest.param(("ignored", "changed", 1, 0), ">= 1", id="k-zero"),
        ],
    )
    def test_curve_ratio_rejects_bad_input(self, args, message):
        with pytest.raises(ValueError, match=message):
            curve_ratio(*args)

# ---------------------------------------------------------------------------
# one random edit per kind and mode, with the counts its closed form predicts
# ---------------------------------------------------------------------------


def _elicited(result) -> tuple[int, int, int]:
    """(elicited, reused, baseline) for the special case of a closed form."""
    return result.special, result.general - result.special, result.general


def _full(count: int) -> tuple[int, int, int]:
    return count, 0, count


def _table(width: int, radices) -> int:
    """Free parameters of a full table over `radices` configurations."""
    return (width - 1) * math.prod(radices)


def _rows(rng, count: int, width: int) -> list[tuple[float, ...]]:
    return [random_row(rng, width) for _ in range(count)]


def _labels(stem: str, k: int) -> list[str]:
    return [f"{stem}{j}" for j in range(k)]


def _grow(rng, net, general: bool):
    vid = rng.choice(net.ids())
    m, k, rad = len(net.outcomes(vid)), rng.randint(1, 2), net.radices(vid)
    cost = assessment_cost(CostQuery(CASE_IGNORED, ROLE_CHANGED, m=m, k=k, radices=rad))
    rows_n = math.prod(rad)
    if general:
        t = edits.add_outcomes_general(net, vid, _labels("g", k), _rows(rng, rows_n, m + k))
        return t, {vid: _full(cost.general)}
    blocks = random_mass_blocks(rng, rows_n, k)
    return edits.add_outcomes_ignored(net, vid, _labels("g", k), blocks), {vid: _elicited(cost)}


def _split(rng, net, general: bool, k: int | None = None):
    vid = rng.choice(net.ids())
    m, rad = len(net.outcomes(vid)), net.radices(vid)
    k = k or rng.randint(1, 3)
    cost = assessment_cost(CostQuery(CASE_SPLIT, ROLE_CHANGED, m=m, k=k, radices=rad))
    outcome, rows_n = rng.choice(net.outcomes(vid)), math.prod(rad)
    if general:
        rows = _rows(rng, rows_n, m + k - 1)
        t = edits.split_outcome_general(net, vid, outcome, _labels("s", k), rows)
        return t, {vid: _full(cost.general)}
    weights = [random_weights(rng, k) for _ in range(rows_n)]
    t = edits.split_outcome(net, vid, outcome, _labels("s", k), weights)
    return t, {vid: _elicited(cost)}


def _reuse(rng, net, split: bool):
    # k >= 2 parts: a one-part split is a relabel, which the successor
    # formula does not describe
    t0, _ = _split(rng, net, False, rng.randint(2, 3)) if split else _grow(rng, net, False)
    parent = t0.op.node
    if not t0.after.children(parent):
        return None
    child = rng.choice(t0.after.children(parent))
    others = [q for q in t0.after.parents_of(child) if q != parent]
    rad = tuple(len(t0.after.outcomes(q)) for q in others)
    m, p = len(net.outcomes(parent)), len(t0.after.outcomes(child))
    new = [l for l in t0.after.outcomes(parent) if l not in net.outcomes(parent)]
    rows = {l: _rows(rng, math.prod(rad), p) for l in new}
    case = CASE_SPLIT if split else CASE_IGNORED
    cost = assessment_cost(
        CostQuery(case, ROLE_SUCCESSOR, m=m, k=len(new), p=p, radices=rad)
    )
    reuse = edits.reuse_successor_rows_split if split else edits.reuse_successor_rows_ignored
    return reuse(t0.after, child, parent, rows), {child: _elicited(cost)}


def _add_arc(rng, net, general: bool):
    ids = net.ids()
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
             if a not in net.parents_of(b)]
    if not pairs:
        return None
    src, dst = rng.choice(pairs)
    k, p, rad = len(net.outcomes(src)), len(net.outcomes(dst)), net.radices(dst)
    cost = assessment_cost(
        CostQuery(CASE_ASSUMED_CONSTANT, ROLE_SUCCESSOR, k=k, p=p, radices=rad)
    )
    if general:
        rows = _rows(rng, math.prod(rad) * k, p)
        return edits.add_arc_general(net, src, dst, rows), {dst: _full(cost.general)}
    base = rng.choice(net.outcomes(src))
    rows = {l: _rows(rng, math.prod(rad), p) for l in net.outcomes(src) if l != base}
    t = edits.add_arc_assumed_constant(net, src, dst, base, rows)
    return t, {dst: _elicited(cost)}


def _add_variable(rng, net, general: bool):
    ids = net.ids()
    parents = rng.sample(ids, rng.randint(0, min(2, len(ids))))
    free = [s for s in ids if s not in parents
            and not any(has_path(net, s, q) for q in parents)]
    successors = rng.sample(free, min(len(free), rng.randint(0, 2)))
    k = rng.randint(2, 3)
    outcomes = tuple(_labels("v", k))
    rad = tuple(len(net.outcomes(q)) for q in parents)
    own = assessment_cost(CostQuery(CASE_ASSUMED_CONSTANT, ROLE_CHANGED, k=k, radices=rad))
    expected = {"V": _elicited(own)}
    payloads = {}
    for s in successors:
        p, s_rad = len(net.outcomes(s)), net.radices(s)
        cost = assessment_cost(
            CostQuery(CASE_ASSUMED_CONSTANT, ROLE_SUCCESSOR, k=k, p=p, radices=s_rad)
        )
        if general:
            payloads[s] = _rows(rng, math.prod(s_rad) * k, p)
            expected[s] = _full(cost.general)
        else:
            payloads[s] = {l: _rows(rng, math.prod(s_rad), p) for l in outcomes[1:]}
            expected[s] = _elicited(cost)
    t = edits.add_variable(
        net,
        Variable("V", "V", outcomes),
        parents,
        _rows(rng, math.prod(rad), k),
        mode=MODE_GENERAL if general else MODE_ASSUMED_CONSTANT,
        baseline=None if general else outcomes[0],
        successors=payloads,
    )
    return t, expected


def _remove_arc(rng, net):
    arcs = [(q, v) for v in net.ids() for q in net.parents_of(v)]
    if not arcs:
        return None
    src, dst = rng.choice(arcs)
    rad = [len(net.outcomes(q)) for q in net.parents_of(dst) if q != src]
    width = len(net.outcomes(dst))
    rows = _rows(rng, math.prod(rad), width)
    return edits.remove_arc(net, src, dst, rows), {dst: _full(_table(width, rad))}


def _remove_outcome(rng, net, renormalize: bool):
    vid = rng.choice(net.ids())
    m, rad = len(net.outcomes(vid)), net.radices(vid)
    counts = (lambda n: (0, n, n)) if renormalize else _full
    expected = {vid: counts(_table(m - 1, rad))}
    replacements = {}
    for c in net.children(vid):
        c_rad = [r - (q == vid) for q, r in zip(net.parents_of(c), net.radices(c))]
        width = len(net.outcomes(c))
        expected[c] = counts(_table(width, c_rad))
        replacements[c] = _rows(rng, math.prod(c_rad), width)
    outcome = rng.choice(net.outcomes(vid))
    if renormalize:
        return edits.remove_outcome(net, vid, outcome, renormalize=True), expected
    t = edits.remove_outcome(
        net,
        vid,
        outcome,
        replacement_rows=_rows(rng, math.prod(rad), m - 1),
        successor_replacements=replacements,
    )
    return t, expected


def _replace_cpt(rng, net):
    vid = rng.choice(net.ids())
    width, rad = len(net.outcomes(vid)), net.radices(vid)
    t = edits.replace_cpt(net, vid, _rows(rng, math.prod(rad), width))
    return t, {vid: _full(_table(width, rad))}


CLOSED_FORM_EDITS = [
    lambda rng, net: _grow(rng, net, False),
    lambda rng, net: _grow(rng, net, True),
    lambda rng, net: _split(rng, net, False),
    lambda rng, net: _split(rng, net, True),
    lambda rng, net: _reuse(rng, net, False),
    lambda rng, net: _reuse(rng, net, True),
    lambda rng, net: _add_arc(rng, net, False),
    lambda rng, net: _add_arc(rng, net, True),
    lambda rng, net: _add_variable(rng, net, False),
    lambda rng, net: _add_variable(rng, net, True),
    _remove_arc,
    lambda rng, net: _remove_outcome(rng, net, False),
    lambda rng, net: _remove_outcome(rng, net, True),
    _replace_cpt,
]


class TestAuditTransaction:
    def test_two_parent_growth_matches_formula(self):
        # concrete node with two 3-outcome parents, m=3, k=2: the audit must
        # find 18 elicited cells against a 36-cell baseline
        net = make_net(
            [("P", ["p1", "p2", "p3"]), ("Q", ["q1", "q2", "q3"]), ("X", ["x1", "x2", "x3"])],
            parents={"X": ["P", "Q"]},
            cpts={
                "P": [(0.3, 0.3, 0.4)],
                "Q": [(0.2, 0.5, 0.3)],
                "X": [(0.2, 0.5, 0.3)] * 9,
            },
        )
        blocks = [(0.1, 0.2)] * 9
        t = edits.add_outcomes_ignored(net, "X", ["x4", "x5"], blocks)
        audited = audit_transaction(t).for_node("X")
        assert (audited.elicited, audited.baseline) == (18, 36)
        # and the elicited count is literally the number of supplied values
        assert sum(len(b) for b in blocks) == 18
        formula = assessment_cost(
            CostQuery(CASE_IGNORED, ROLE_CHANGED, m=3, k=2, radices=(3, 3))
        )
        assert audited.elicited == formula.special
        assert audited.baseline == formula.general

    def test_replace_cpt_reuses_nothing(self, chain_net):
        t = edits.replace_cpt(chain_net, "B", [(0.7, 0.3), (0.4, 0.6)])
        entry = audit_transaction(t).for_node("B")
        assert entry.reused == 0
        assert entry.elicited == entry.baseline == 2

    def test_assumed_constant_arc_counts(self):
        # binary source, successor with one other binary parent and 3 outcomes
        net = make_net(
            [("A", ["a0", "a1"]), ("D", ["d1", "d2"]), ("B", ["b1", "b2", "b3"])],
            parents={"B": ["D"]},
            cpts={
                "A": [(0.5, 0.5)],
                "D": [(0.4, 0.6)],
                "B": [(0.2, 0.3, 0.5), (0.6, 0.2, 0.2)],
            },
        )
        t = edits.add_arc_assumed_constant(
            net, "A", "B", "a0", {"a1": [(0.1, 0.1, 0.8), (0.3, 0.3, 0.4)]}
        )
        entry = audit_transaction(t).for_node("B")
        assert (entry.elicited, entry.reused) == (4, 4)
        formula = assessment_cost(
            CostQuery(CASE_ASSUMED_CONSTANT, ROLE_SUCCESSOR, k=2, p=3, radices=(2,))
        )
        assert entry.elicited == formula.special
        assert entry.baseline == formula.general

    def test_untouched_nodes_reported_with_zero(self, chain_net):
        t = edits.replace_cpt(chain_net, "B", [(0.7, 0.3), (0.4, 0.6)])
        report = audit_transaction(t)
        assert report.for_node("A").elicited == 0
        assert report.for_node("A").baseline == 0

    def test_counts_match_closed_forms(self):
        # Each transaction's report, and the audit's recount, must give for
        # every node the counts the closed forms give from the edit's inputs
        # alone: assessment_cost for the paper's cases and their general
        # twins, a full table for the general reassessment edits. A report
        # lists each node at most once, and only nodes given a new table.
        rng = random.Random(43)
        for which in range(len(CLOSED_FORM_EDITS)):
            for _ in range(12):
                case = None
                while case is None:
                    case = CLOSED_FORM_EDITS[which](rng, random_network(rng))
                t, expected = case
                for report in (t.report, audit_transaction(t)):
                    listed = [e.node for e in report.nodes]
                    assert len(listed) == len(set(listed))
                    for n in listed:
                        assert t.after.cpt(n) is not t.before.cpts.get(n)
                    for v in t.after.ids():
                        e = report.for_node(v)
                        got = (e.elicited, e.reused, e.baseline)
                        assert got == expected.get(v, (0, 0, 0))

    def test_renormalize_flagged_in_audit(self):
        net = make_net(
            [("A", ["a1", "a2", "a3"])],
            cpts={"A": [(0.2, 0.5, 0.3)]},
        )
        t = edits.remove_outcome(net, "A", "a2", renormalize=True)
        report = audit_transaction(t)
        assert any("NON-PAPER" in n for n in report.notes)
        assert report.for_node("A").elicited == 0

    def test_csv_format(self, chain_net):
        t = edits.replace_cpt(chain_net, "B", [(0.7, 0.3), (0.4, 0.6)])
        # what `apply --report` writes: every node, zeros for the untouched
        text = audit_csv(aggregate_reports([audit_transaction(t)], t.after.ids()))
        lines = text.splitlines()
        assert lines[0] == "node,elicited,reused,general_baseline"
        assert lines[1] == "A,0,0,0"
        assert lines[2] == "B,2,0,2"

    def test_heterogeneous_radices_match_concrete_audit(self):
        # parents of sizes 2 and 3: the conditioning-set factor is their
        # product, 6, not a power of a single n
        net = make_net(
            [("P", ["p1", "p2"]), ("Q", ["q1", "q2", "q3"]), ("X", ["x1", "x2"])],
            parents={"X": ["P", "Q"]},
            cpts={
                "P": [(0.5, 0.5)],
                "Q": [(0.2, 0.5, 0.3)],
                "X": [(0.4, 0.6)] * 6,
            },
        )
        t = edits.add_outcomes_ignored(net, "X", ["x3"], [(0.1,)] * 6)
        audited = audit_transaction(t).for_node("X")
        formula = assessment_cost(
            CostQuery(CASE_IGNORED, ROLE_CHANGED, m=2, k=1, radices=(2, 3))
        )
        assert audited.elicited == formula.special == 6
        assert audited.baseline == formula.general == 12
