"""Shared builders: tiny fixed networks, seeded random generators and an
in-process runner of the command line."""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, replace

import pytest

from bnmaint.cli import main
from bnmaint.network import Cpt, Network, Variable


@dataclass
class Result:
    """One in-process `bnmaint` run: its exit code and what it printed."""

    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved as written


class _Capture(io.StringIO):
    """A captured stream that also appends each write to `both`."""

    def __init__(self, both: io.StringIO) -> None:
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(args: list[str]) -> Result:
    """Run the `bnmaint` entry point on `args` in this process, with stdout
    and stderr captured; any exception but its exit propagates."""
    both = io.StringIO()
    out, err = _Capture(both), _Capture(both)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_:
            main(args)
    return Result(exit_.value.code, out.getvalue(), err.getvalue(), both.getvalue())


def make_net(variables, parents=None, cpts=None, label="E") -> Network:
    """Terse network builder: variables as (id, outcomes) pairs, name = id."""
    vs = tuple(Variable(vid, vid, tuple(outs)) for vid, outs in variables)
    given = {vid: tuple(ps) for vid, ps in (parents or {}).items()}
    full_parents = {v.id: given.get(v.id, ()) for v in vs}
    cpt_objs = {
        vid: Cpt(vid, full_parents[vid], tuple(tuple(r) for r in rows))
        for vid, rows in (cpts or {}).items()
    }
    return Network(label, vs, full_parents, cpt_objs)


INDEXES = ("_positions", "_children", "_levels")


def fresh_copy(net: Network) -> Network:
    """An equal network built through the public constructor, so its indexes
    are built afresh on first use."""
    return Network(
        net.version_label, net.variables, dict(net.parents), dict(net.cpts), dict(net.stale)
    )


def scan_children(net: Network, node: str) -> tuple[str, ...]:
    """`node`'s children found by scanning every declaration in order."""
    return tuple(v.id for v in net.variables if node in net.parents_of(v.id))


def walk_has_path(net: Network, source: str, target: str) -> bool:
    """Whether `source` is `target` or one of its ancestors, found by walking
    every ancestor of `target` without levels."""
    seen, frontier = {target}, [target]
    while frontier:
        n = frontier.pop()
        if n == source:
            return True
        new = set(net.parents_of(n)) - seen
        seen |= new
        frontier += new
    return False


def assert_levels_order(net: Network) -> None:
    """`net._levels` has exactly the declared ids, each parent shallower than
    its child."""
    levels = net._levels
    assert levels is not None and levels.keys() == set(net.ids())
    for child in net.ids():
        for p in net.parents_of(child):
            assert levels[p] < levels[child], (p, child)


def assert_indexes_carried(net: Network) -> None:
    """`net` already holds every index, each equal to a rebuilt copy's, but
    for the levels: carried ones order every arc, yet a removed arc may
    leave them deeper than a rebuild's."""
    assert set(INDEXES) <= vars(net).keys()
    fresh = fresh_copy(net)
    for index in INDEXES:
        if index == "_levels":
            assert_levels_order(net)
        else:
            assert vars(net)[index] == getattr(fresh, index), index


@pytest.fixture
def chain_net() -> Network:
    """A -> B, both binary."""
    return make_net(
        [("A", ["a1", "a2"]), ("B", ["b1", "b2"])],
        parents={"B": ["A"]},
        cpts={"A": [(0.5, 0.5)], "B": [(0.9, 0.1), (0.3, 0.7)]},
    )


def with_cell(net: Network, node: str, row: int, col: int, value: float) -> Network:
    """Copy of `net` with one CPT cell overwritten (for mutation tests)."""
    cpt = net.cpt(node)
    rows = [list(r) for r in cpt.rows]
    rows[row][col] = value
    cpts = dict(net.cpts)
    cpts[node] = Cpt(node, cpt.parent_order, tuple(tuple(r) for r in rows))
    return replace(net, cpts=cpts)


def random_row(rng: random.Random, width: int) -> tuple[float, ...]:
    xs = [rng.uniform(0.05, 1.0) for _ in range(width)]
    total = sum(xs)
    return tuple(x / total for x in xs)


def random_network(
    rng: random.Random,
    min_nodes: int = 2,
    max_nodes: int = 5,
    min_outcomes: int = 2,
    max_outcomes: int = 4,
    max_parents: int = 2,
    label: str = "E",
) -> Network:
    """Random DAG with normalized strictly positive rows."""
    n = rng.randint(min_nodes, max_nodes)
    ids = [f"N{i}" for i in range(n)]
    variables = tuple(
        Variable(
            vid,
            vid,
            tuple(f"{vid.lower()}x{j}" for j in range(rng.randint(min_outcomes, max_outcomes))),
        )
        for vid in ids
    )
    widths = {v.id: len(v.outcomes) for v in variables}
    parents: dict[str, tuple[str, ...]] = {}
    for i, vid in enumerate(ids):
        pool = ids[:i]
        count = rng.randint(0, min(max_parents, len(pool)))
        parents[vid] = tuple(sorted(rng.sample(pool, count)))
    cpts = {}
    for vid in ids:
        rows_n = 1
        for p in parents[vid]:
            rows_n *= widths[p]
        cpts[vid] = Cpt(
            vid, parents[vid], tuple(random_row(rng, widths[vid]) for _ in range(rows_n))
        )
    return Network(label, variables, parents, cpts)


def random_mass_blocks(
    rng: random.Random, configs: int, k: int, lo: float = 0.1, hi: float = 0.5
) -> list[tuple[float, ...]]:
    """Per-config new-outcome probabilities with total mass in [lo, hi],
    keeping the leftover scale factor comfortably away from zero."""
    blocks = []
    for _ in range(configs):
        mass = rng.uniform(lo, hi)
        cuts = sorted(rng.uniform(0.05, 0.95) for _ in range(k - 1))
        edges = [0.0, *cuts, 1.0]
        blocks.append(
            tuple(mass * (edges[i + 1] - edges[i]) for i in range(k))
        )
    return blocks


def random_weights(rng: random.Random, k: int) -> tuple[float, ...]:
    xs = [rng.uniform(0.05, 1.0) for _ in range(k)]
    total = sum(xs)
    return tuple(x / total for x in xs)
