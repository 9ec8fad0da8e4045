"""Snapshots that share their source's mappings under a small overlay.

An edit of a network of more than a few nodes derives a snapshot whose
`cpts`, `parents` and indexes share the source's mapping under the edit's
entries (`network._Overlay`) until the entries grow past the flatten bound.
These tests check that such snapshots read, compare, copy and print as
plain ones do, that no edit writes the mappings it shares, and that an
edit's allocations follow the nodes it touches rather than the network.
"""

from __future__ import annotations

import copy
import math
import random
import tracemalloc
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from bnmaint import edits, network
from bnmaint.network import Cpt, Network, Variable, has_path

from conftest import assert_indexes_carried, fresh_copy, random_network, random_row

HALF = (0.5, 0.5)


def _chain(n: int) -> Network:
    """Binary chain N0 -> N1 -> ... -> N{n-1}, every row (0.5, 0.5), with
    its findings and indexes built."""
    ids = [f"N{i}" for i in range(n)]
    parents = {v: ((ids[i - 1],) if i else ()) for i, v in enumerate(ids)}
    net = Network(
        "E",
        tuple(Variable(v, v, ("a", "b")) for v in ids),
        parents,
        {v: Cpt(v, parents[v], (HALF,) * (2 if parents[v] else 1)) for v in ids},
    )
    net.findings, net._levels, net._children
    return net


# -- an edit's allocations follow the edit ---------------------------------


def _pending_successor(net: Network) -> Network:
    """`net` after N100 gains an outcome whose rows N101 ignores."""
    return edits.add_outcomes_ignored(net, "N100", ["c"], [(0.1,)] * 2).after


# Outcome edits and add_variable are left out: they copy the `variables`
# tuple, which still grows with the network.
ALLOC_EDITS = {
    "replace_cpt": (None, lambda net: edits.replace_cpt(net, "N100", [HALF] * 2)),
    "remove_arc": (None, lambda net: edits.remove_arc(net, "N99", "N100", [HALF])),
    "add_arc_general": (
        None, lambda net: edits.add_arc_general(net, "N50", "N100", [HALF] * 4)
    ),
    "reuse_successor_rows_ignored": (
        _pending_successor,
        lambda net: edits.reuse_successor_rows_ignored(net, "N101", "N100", {"c": [HALF]}),
    ),
}


def _peak_bytes(net: Network, edit) -> int:
    """Peak bytes traced while `edit(net)` runs, above what was traced before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        edit(net)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def chains() -> dict[int, Network]:
    return {n: _chain(n) for n in (200, 20_000)}


@pytest.mark.parametrize("edit", ALLOC_EDITS)
def test_an_edit_allocates_for_what_it_touches_not_for_the_network(chains, edit):
    prepare, run = ALLOC_EDITS[edit]
    peaks = {}
    for n, net in chains.items():
        if prepare is not None:
            net = prepare(net)
            net.findings, net._levels, net._children
        peaks[n] = _peak_bytes(net, run)
    # a whole copy of `cpts` alone at 20,000 nodes takes about 400 KiB
    assert peaks[20_000] <= 2 * peaks[200], peaks


# -- overlay snapshots read as plain ones ------------------------------------


def _mid_net(seed: int = 0) -> Network:
    return random_network(
        random.Random(seed), min_nodes=48, max_nodes=48, max_outcomes=3, max_parents=2
    )


def _replaced(net: Network, node: str, seed: int = 0) -> Network:
    rng = random.Random(seed)
    rows = [random_row(rng, len(net.outcomes(node))) for _ in net.cpt(node).rows]
    return edits.replace_cpt(net, node, rows).after


def _rewired(net: Network) -> Network:
    """`net` after its first node with parents loses its first parent."""
    dst = next(n for n in net.ids() if net.parents_of(n))
    rng = random.Random(0)
    count = math.prod(net.radices(dst)[1:])
    rows = [random_row(rng, len(net.outcomes(dst))) for _ in range(count)]
    return edits.remove_arc(net, net.parents_of(dst)[0], dst, rows).after


def test_an_edit_of_a_mid_sized_network_shares_its_tables():
    net = _mid_net()
    after = _replaced(net, "N7")
    assert type(after.cpts) is network._Overlay
    assert after.cpts._base is net.cpts
    assert after.cpts["N7"] is not net.cpts["N7"]
    assert after.cpts["N8"] is net.cpts["N8"]


def test_a_later_edit_of_a_node_wins_over_an_earlier_one_in_one_overlay():
    first = _replaced(_mid_net(), "N7", 1)
    second = _replaced(first, "N7", 2)
    assert type(second.cpts) is network._Overlay
    assert second.cpt("N7") is not first.cpt("N7")
    assert second.cpt("N7").rows == _replaced(_mid_net(), "N7", 2).cpt("N7").rows
    assert second == fresh_copy(second)


def test_overlays_flatten_once_their_entries_pass_the_bound():
    net = _mid_net()
    kinds = []
    for i, node in enumerate(net.ids()[:6]):
        net = _replaced(net, node, i)
        kinds.append(type(net.cpts))
    # 48 tables hold an overlay of at most 48 // 16 = 3 entries; the fourth
    # flattens, and the fifth shares the flattened dict
    overlay = network._Overlay
    assert kinds == [overlay, overlay, overlay, MappingProxyType, overlay, overlay]
    assert net == fresh_copy(net)


def test_small_networks_copy_their_tables_plain():
    net = random_network(random.Random(1), min_nodes=9, max_nodes=9)
    after = _replaced(net, "N3")
    assert type(after.cpts) is MappingProxyType
    assert after.cpts == fresh_copy(after).cpts


def test_edits_from_one_overlay_snapshot_leave_it_and_each_other_alone():
    net = _replaced(_mid_net(), "N7")
    assert type(net.cpts) is network._Overlay
    guard = copy.deepcopy(net)
    first = _replaced(net, "N9", 1)
    first_guard = copy.deepcopy(first)
    second = _rewired(net)
    second_guard = copy.deepcopy(second)
    assert type(first.cpts) is type(second.parents) is network._Overlay
    _replaced(first, "N11", 2)
    _replaced(_rewired(second), "N11", 3)
    assert net == guard and first == first_guard and second == second_guard
    assert first.cpt("N9") is not second.cpt("N9")
    assert first.parents == guard.parents != second.parents


@pytest.mark.parametrize("field", ["cpts", "parents"])
def test_overlay_mappings_are_read_only_and_copy_to_plain_dicts(field):
    net = _replaced(_rewired(_mid_net()), "N7")
    mapping = getattr(net, field)
    assert type(mapping) is network._Overlay
    with pytest.raises(TypeError):
        mapping["N7"] = mapping["N8"]
    with pytest.raises(TypeError):
        del mapping["N7"]
    plain = mapping.copy()
    assert type(plain) is dict and plain == mapping
    plain["N7"] = plain.pop("N8")
    assert mapping == getattr(fresh_copy(net), field)
    assert "N8" in mapping and mapping.copy() is not plain


# -- random sequences on networks past the bound -----------------------------

seeds = st.integers(0, 2**32 - 1)
MAX_PARENTS = 3


def _assert_reads_alike(mapping, plain, keys, ordered: bool) -> None:
    """`mapping` answers `len`, and `in`, `get` and `[]` for each of `keys`,
    as the plain dict `plain` does, and iterates its keys, both ways, items
    and values in its order when `ordered`."""
    assert len(mapping) == len(plain)
    if ordered:
        assert list(mapping) == list(plain)
        assert list(mapping.items()) == list(plain.items())
        assert list(reversed(mapping)) == list(reversed(plain))
        assert list(mapping.values()) == list(plain.values())
    for key in keys:
        assert (key in mapping) == (key in plain), key
        assert mapping.get(key) == plain.get(key), key
        assert mapping.get(key, "absent") == plain.get(key, "absent"), key
        if key in plain:
            assert mapping[key] == plain[key], key
        else:
            with pytest.raises(KeyError):
                mapping[key]


class OverlaySequences(RuleBasedStateMachine):
    """Edits of a network of 40 to 64 nodes, long enough to build overlays
    on overlays and to flatten them; after each, the snapshot reads as one
    built afresh through the public constructor."""

    def __init__(self) -> None:
        super().__init__()
        self.net: Network | None = None
        self.before: Network | None = None
        self.counter = 0

    @initialize(seed=seeds)
    def start(self, seed: int) -> None:
        self.net = random_network(
            random.Random(seed), min_nodes=40, max_nodes=64, max_outcomes=3, max_parents=2
        )

    def _apply(self, fn, *args, **kwargs) -> None:
        self.before = self.net
        self.net = fn(self.net, *args, **kwargs).after

    def _rows(self, rng: random.Random, node: str, count: int):
        return [random_row(rng, len(self.net.outcomes(node))) for _ in range(count)]

    def _open(self) -> list[str]:
        return [n for n in self.net.ids() if n not in self.net.stale]

    @rule(seed=seeds)
    def replace_cpt(self, seed: int) -> None:
        rng = random.Random(seed)
        node = rng.choice(sorted(self.net.stale) or self.net.ids())
        self._apply(
            edits.replace_cpt, node, self._rows(rng, node, math.prod(self.net.radices(node)))
        )

    @rule(seed=seeds)
    def add_outcomes_ignored(self, seed: int) -> None:
        rng = random.Random(seed)
        settled = [
            n for n in self._open()
            if not any(c in self.net.stale for c in self.net.children(n))
            and len(self.net.outcomes(n)) < 4
        ]
        if not settled:
            return
        node = rng.choice(settled)
        rows = len(self.net.cpt(node).rows)
        self.counter += 1
        self._apply(
            edits.add_outcomes_ignored, node, [f"new{self.counter}"], [(0.1,)] * rows
        )

    @rule(seed=seeds)
    def add_arc_general(self, seed: int) -> None:
        rng = random.Random(seed)
        open_ = self._open()
        for _ in range(10 if len(open_) > 1 else 0):
            src, dst = rng.sample(open_, 2)
            ps = self.net.parents_of(dst)
            if src not in ps and len(ps) < MAX_PARENTS and not has_path(self.net, dst, src):
                count = len(self.net.cpt(dst).rows) * len(self.net.outcomes(src))
                self._apply(edits.add_arc_general, src, dst, self._rows(rng, dst, count))
                return

    @rule(seed=seeds)
    def remove_arc(self, seed: int) -> None:
        rng = random.Random(seed)
        arcs = [(p, n) for n in self._open() for p in self.net.parents_of(n)]
        if arcs:
            src, dst = rng.choice(arcs)
            count = math.prod(
                len(self.net.outcomes(p)) for p in self.net.parents_of(dst) if p != src
            )
            self._apply(edits.remove_arc, src, dst, self._rows(rng, dst, count))

    @rule(seed=seeds)
    def add_variable(self, seed: int) -> None:
        rng = random.Random(seed)
        open_ = self._open()
        if len(open_) < 2:
            return
        self.counter += 1
        vid = f"V{self.counter}"
        parents = tuple(rng.sample(open_, rng.randint(0, 2)))
        successor = rng.choice(open_)
        successors = {}
        if (
            successor not in parents
            and len(self.net.parents_of(successor)) < MAX_PARENTS
            and not any(has_path(self.net, successor, p) for p in parents)
        ):
            count = 2 * len(self.net.cpt(successor).rows)
            successors[successor] = self._rows(rng, successor, count)
        own = math.prod(len(self.net.outcomes(p)) for p in parents)
        self._apply(
            edits.add_variable,
            Variable(vid, vid, ("y", "n")),
            parents,
            [random_row(rng, 2) for _ in range(own)],
            successors=successors,
        )

    @invariant()
    def reads_as_a_fresh_copy(self) -> None:
        if self.before is None:
            return
        after, before = self.net, self.before
        fresh = fresh_copy(after)
        assert after == fresh and fresh == after
        assert repr(after) == repr(fresh)
        assert_indexes_carried(after)
        for field, ordered in [
            ("cpts", True),
            ("parents", True),
            ("_positions", True),
            ("_children", True),
            ("_levels", False),
        ]:
            mapping = vars(after)[field]
            # carried levels may be deeper than rebuilt ones
            plain = dict(mapping.items()) if field == "_levels" else getattr(fresh, field)
            # no edit removes a key: a parent left without children keeps
            # an empty tuple, as a fresh build gives every declared id
            keys = {*vars(before)[field], *mapping, "Nobody"}
            _assert_reads_alike(mapping, plain, keys, ordered)


OverlaySequences.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
TestOverlaySequences = OverlaySequences.TestCase
