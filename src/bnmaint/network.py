"""Data model for discrete probabilistic networks.

A network is an immutable snapshot: variables with ordered outcome spaces, a
parent map describing the DAG, and one conditional probability table (CPT) per
variable. Table rows are indexed by mixed-radix encoding of the parent
outcomes, last parent varying fastest. Snapshots are never mutated in place;
edits produce new snapshots (see :mod:`bnmaint.edits`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Real
from types import MappingProxyType
from typing import Any, Collection, Mapping, Sequence

ROW_SUM_TOLERANCE = 1e-9

# One outcome index per parent, in parent order.
ParentConfig = tuple[int, ...]


@dataclass(frozen=True)
class Variable:
    """A chance variable. Outcome order is canonical for every row that
    conditions on this variable or describes its distribution."""

    id: str
    name: str
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        outcomes = label_tuple(self.outcomes, f"outcomes of variable {self.id}")
        object.__setattr__(self, "outcomes", outcomes)


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table: one distribution row per parent
    configuration, rows ordered by :func:`config_index`."""

    node: str
    parent_order: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent_order", tuple(self.parent_order))
        object.__setattr__(self, "rows", float_rows(self.node, self.rows))


def _stored_cpt(
    node: str, parent_order: tuple[str, ...], rows: tuple[tuple[float, ...], ...]
) -> Cpt:
    """A :class:`Cpt` from fields already in stored form, without the pass
    :meth:`Cpt.__post_init__` makes over every cell."""
    cpt = object.__new__(Cpt)
    vars(cpt).update(node=node, parent_order=parent_order, rows=rows)
    return cpt


class CellError(ValueError):
    """A table that is not a sequence of rows (`row` is None), or a row in it
    that is not a sequence of numbers."""

    def __init__(self, node: str, row: int | None = None):
        if row is None:
            message = f"table of node {node} is not a sequence of rows"
        else:
            message = f"row {row} of node {node} is not a sequence of numbers"
        super().__init__(message)
        self.node, self.row = node, row


def is_number(x: Any) -> bool:
    """What a table cell may be: a real number, and not a bool."""
    return isinstance(x, Real) and not isinstance(x, bool)


def all_numbers(cells: Sequence[Any]) -> bool:
    """Whether every cell is a number; plain floats and ints pass on their type."""
    return {*map(type, cells)} <= {float, int} or all(map(is_number, cells))


def is_sequence(x: Any) -> bool:
    """What a row or a label list must be: a sequence that is not a string."""
    return isinstance(x, Sequence) and not isinstance(x, (str, bytes))


def label_tuple(labels: Any, what: str, error: type[ValueError] = ValueError) -> tuple:
    """A label list as a tuple, or `error` for a string or a non-sequence."""
    if type(labels) is not tuple and not is_sequence(labels):
        raise error(f"{what} must be a sequence of labels")
    return tuple(labels)


def float_rows(node: str, rows: Sequence[Any]) -> tuple[tuple[float, ...], ...]:
    """Every row as floats, or :class:`CellError` for a table that is not a
    sequence, or for the first row that is not a sequence of numbers that fit
    a float; a string is neither."""
    if type(rows) not in (list, tuple) and not is_sequence(rows):
        raise CellError(node)
    rows = tuple(rows)
    if {*map(type, rows)} <= {list, tuple}:  # plain floats pass on their types
        if {*map(type, itertools.chain(*rows))} <= {float}:
            return tuple(map(tuple, rows))
    out = []
    for j, row in enumerate(rows):
        if not (is_sequence(row) and all_numbers(row)):
            raise CellError(node, j)
        try:
            out.append(tuple(map(float, row)))
        except OverflowError:  # an int past the float range
            raise CellError(node, j) from None
    return tuple(out)


@dataclass(frozen=True)
class StaleParent:
    """Marks a node whose table still conditions on `parent`'s previous
    outcome space. The old table is kept verbatim so its rows can be reused
    when the node is re-encoded."""

    parent: str
    old_outcomes: tuple[str, ...]
    cause: str  # "add_outcomes" or "split_outcome"

    def __post_init__(self) -> None:
        old = label_tuple(self.old_outcomes, f"old outcomes of parent {self.parent}")
        object.__setattr__(self, "old_outcomes", old)


@dataclass(frozen=True)
class Network:
    """Immutable snapshot of a network under one state of information.

    `version_label` names the snapshot's lineage; edits derive the next label
    by appending/advancing a numeric suffix. `stale` records nodes whose
    tables are pending re-encoding after a parent's outcome space changed.
    `parents`, `cpts` and `stale` are read-only mappings.

    A snapshot carries three private indexes, each built on first use: each
    id's declaration position (`_positions`), the first declaration
    winning, so each id's variable is one lookup away; each parent's
    children in declaration order (`_children`); and a topological level per
    id (`_levels`). This module alone knows them: an edit hands its changes
    to :meth:`_derive`, which patches the indexes where the edit touched
    them, so the edit's cost follows the touched nodes rather than the size
    of the network. A derived snapshot's `cpts`, `parents` and indexes may
    share a base mapping with their source under a small overlay of the
    edit's entries (:class:`_Overlay`); they read as plain mappings do.
    """

    version_label: str
    variables: tuple[Variable, ...]
    parents: Mapping[str, tuple[str, ...]]
    cpts: Mapping[str, Cpt]
    stale: Mapping[str, StaleParent] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        parents = {k: tuple(v) for k, v in self.parents.items()}
        object.__setattr__(self, "parents", MappingProxyType(parents))
        object.__setattr__(self, "cpts", MappingProxyType(dict(self.cpts)))
        object.__setattr__(self, "stale", MappingProxyType(dict(self.stale)))

    def _derive(
        self,
        version_label: str,
        tables: Mapping[str, tuple[tuple[float, ...], ...]],
        stale: dict[str, StaleParent],
        *,
        variable: Variable | None = None,
        outcomes: Mapping[str, tuple[str, ...]] | None = None,
        parents: Mapping[str, tuple[str, ...]] | None = None,
    ) -> Network:
        """The next snapshot after an edit of this valid one: new `tables`
        by node, a new `stale` dict, a `variable` to append, new outcome
        spaces and new parent tuples by node. Fields, the rows among them,
        are taken in their stored form and shared where unchanged, and the
        indexes are patched where the edit touched them, without the copies
        and conversions :meth:`__post_init__` makes. `cpts`, `parents` and
        the indexes share this snapshot's mappings under the edit's entries
        (:func:`_patched`), so only the `variables` tuple is copied whole,
        and only when the edit adds a variable or changes an outcome space."""
        cpts = {}
        for node, rows in tables.items():
            order = parents[node] if parents and node in parents else self.parents_of(node)
            cpts[node] = _stored_cpt(node, order, rows)
        variables, positions = self.variables, self._positions
        if variable is not None:
            positions = _patched(positions, {variable.id: len(variables)})
            variables += (variable,)
        for node, labels in (outcomes or {}).items():
            i = positions[node]
            changed = replace(variables[i], outcomes=labels)
            variables = (*variables[:i], changed, *variables[i + 1:])
        new_parents, children, levels = self.parents, self._children, self._levels
        if parents:
            new_parents = _patched(new_parents, dict(parents))
            # a new variable starts without children
            moved = {} if variable is None else {variable.id: ()}
            for child, ps in parents.items():
                _move_child(children, moved, positions, child, self.parents_of(child), ps)
            children = _patched(children, moved)
            levels = _patched(levels, _raised_levels(levels, children, parents))
        net = object.__new__(type(self))
        vars(net).update(
            version_label=version_label,
            variables=variables,
            parents=new_parents,
            cpts=_patched(self.cpts, cpts),
            stale=MappingProxyType(stale),
            _positions=positions,
            _children=children,
            _levels=levels,
        )
        return net

    def __reduce__(self):
        # mapping proxies neither copy nor pickle; rebuild from plain dicts
        plain = (dict(self.parents), dict(self.cpts), dict(self.stale))
        return (type(self), (self.version_label, self.variables, *plain))

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Each id's declaration position; the first declaration wins."""
        out: dict[str, int] = {}
        for i, v in enumerate(self.variables):
            out.setdefault(v.id, i)
        return out

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        """Each declared id's and each parent's children in declaration
        order, a child once per declaration however often it lists the
        parent; an empty tuple for a declared id without children, so that
        no edit removes a key."""
        out: dict[str, list[str]] = {v.id: [] for v in self.variables}
        for v in self.variables:
            for p in dict.fromkeys(self.parents_of(v.id)):
                out.setdefault(p, []).append(v.id)
        return {p: tuple(kids) for p, kids in out.items()}

    @cached_property
    def _levels(self) -> dict[str, int] | None:
        """Each id's topological level, built as its longest path from a
        root, so a parent is always shallower than its child; None for a
        repeated id, parents listed for or naming an undeclared id, or a
        cycle. Reversed, the finish order of the walk that finds cycles is
        topological (Tarjan 1972): each parent comes before its children."""
        positions = self._positions
        cycle, finished = _find_cycle(self)
        if cycle or len(positions) != len(self.variables) or self.parents.keys() - positions:
            return None
        levels: dict[str, int] = {}
        try:  # an undeclared parent has no level
            for n in reversed(finished):
                levels[n] = 1 + max(map(levels.__getitem__, self.parents_of(n)), default=-1)
        except KeyError:
            return None
        return levels

    @cached_property
    def findings(self) -> tuple[Finding, ...]:
        """:func:`validate_network` findings, computed once."""
        return validate_network(self).findings

    def ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables)

    def has_variable(self, node: str) -> bool:
        return node in self._positions

    def variable(self, node: str) -> Variable:
        try:
            return self.variables[self._positions[node]]
        except KeyError:
            raise KeyError(f"unknown variable {node!r}") from None

    def outcomes(self, node: str) -> tuple[str, ...]:
        return self.variable(node).outcomes

    def parents_of(self, node: str) -> tuple[str, ...]:
        return self.parents.get(node, ())

    def children(self, node: str) -> tuple[str, ...]:
        return self._children.get(node, ())

    def cpt(self, node: str) -> Cpt:
        try:
            return self.cpts[node]
        except KeyError:
            raise KeyError(f"no CPT for variable {node!r}") from None

    def radices(self, node: str) -> tuple[int, ...]:
        """Outcome counts of the node's parents, in parent order."""
        return tuple(len(self.variable(p).outcomes) for p in self.parents_of(node))

    def table_radices(self, node: str) -> tuple[int, ...]:
        """Radices the node's stored table is shaped for. For a node pending
        re-encoding this counts the changed parent at its old size."""
        info = self.stale.get(node)
        rad = []
        for p in self.parents_of(node):
            if info is not None and p == info.parent:
                rad.append(len(info.old_outcomes))
            else:
                rad.append(len(self.variable(p).outcomes))
        return tuple(rad)


def _move_child(
    children: Mapping[str, tuple[str, ...]],
    moved: dict[str, tuple[str, ...]],
    positions: Mapping[str, int],
    child: str,
    old: tuple[str, ...],
    new: tuple[str, ...],
) -> None:
    """Record in `moved` the children of each parent that `child` gains or
    loses as its parent list changes from `old` to `new`, in declaration
    order, reading `children` under the entries already in `moved`."""
    for p in dict.fromkeys(old + new):
        if (p in old) != (p in new):
            kids = [k for k in moved.get(p, children.get(p, ())) if k != child]
            if p in new:
                kids = sorted((*kids, child), key=positions.__getitem__)
            moved[p] = tuple(kids)


def _raised_levels(
    levels: Mapping[str, int],
    children: Mapping[str, tuple[str, ...]],
    parents: Mapping[str, tuple[str, ...]],
) -> dict[str, int]:
    """The new level of each node that `levels` places too shallow once
    each child in `parents` is deeper than its new parents, each raise
    pushed down through the new `children`. Levels a removed arc leaves
    deeper than needed still order every arc. An unknown parent, which the
    local check then rejects, has no level and counts as absent. The edit's
    cycle check makes the push end."""
    raised: dict[str, int] = {}
    stack = [
        (child, 1 + max((levels.get(p, -1) for p in ps), default=-1))
        for child, ps in parents.items()
    ]
    while stack:
        node, level = stack.pop()
        if raised.get(node, levels.get(node, -1)) >= level:
            continue
        raised[node] = level
        stack.extend((kid, level + 1) for kid in children.get(node, ()))
    return raised


_MISSING = object()

# An overlay is flattened once its top holds more than 1/_SHARE_BELOW of
# its base's entries. Flattening copies the base, about _SHARE_BELOW
# entries per entry the tops gathered since the last flattening, and each
# derived overlay copies its top, on average 1/(2*_SHARE_BELOW) of the
# base; both are C-speed dict copies. A mapping of fewer than _SHARE_BELOW
# entries is always copied plain, at the cost of one dict copy.
_SHARE_BELOW = 16


class _Overlay(Mapping):
    """A read-only mapping: the entries of a small dict `top` over a shared
    `base` mapping that no one writes. A read by key probes `top`, then
    `base`. A read of the whole mapping goes through one plain dict, merged
    on first use and kept, in the base's order, then the keys new in `top`.
    No edit removes a key from a snapshot's mappings, so an overlay removes
    none from its base."""

    __slots__ = ("_base", "_top", "_flat")

    def __init__(self, base: Mapping, top: dict) -> None:
        self._base, self._top, self._flat = base, top, None

    def __getitem__(self, key):
        value = self._top.get(key, _MISSING)
        return self._base[key] if value is _MISSING else value

    def get(self, key, default=None):
        value = self._top.get(key, _MISSING)
        return self._base.get(key, default) if value is _MISSING else value

    def __contains__(self, key) -> bool:
        return key in self._top or key in self._base

    def _plain(self) -> dict:
        if self._flat is None:
            self._flat = self._base.copy()
            self._flat.update(self._top)
        return self._flat

    def __iter__(self):
        return iter(self._plain())

    def __reversed__(self):
        return reversed(self._plain())

    def __len__(self) -> int:
        return len(self._plain())

    def keys(self):
        return self._plain().keys()

    def items(self):
        return self._plain().items()

    def values(self):
        return self._plain().values()

    def __eq__(self, other) -> bool:
        return self._plain() == other

    def copy(self) -> dict:
        return self._plain().copy()

    def __repr__(self) -> str:
        return repr(MappingProxyType(self._plain()))


def _patched(old: Mapping, changes: dict) -> Mapping:
    """`old` with `changes` set; `old` itself when there are none. The
    result shares `old`'s base under a merged top while the top stays small
    against the base (see `_SHARE_BELOW`), and is otherwise one plain dict:
    bare for a plain dict base, as the private indexes are, else behind a
    read-only view, as the public fields are. `changes` becomes part of the
    result, so the caller hands over a dict of its own."""
    if not changes:
        return old
    if type(old) is _Overlay:
        base, top = old._base, {**old._top, **changes}
    else:
        base, top = old, changes
    if _SHARE_BELOW * len(top) <= len(base):
        return _Overlay(base, top)
    flat = base.copy()
    flat.update(top)
    return flat if type(base) is dict else MappingProxyType(flat)


def config_index(config: Sequence[int], radices: Sequence[int]) -> int:
    """Mixed-radix row index of one parent configuration.

    The last parent varies fastest, so (0, 0) < (0, 1) < ... < (1, 0) < ...
    Raises IndexError when the configuration does not fit the radices.
    """
    if len(config) != len(radices):
        raise IndexError(
            f"config {tuple(config)} does not match radices {tuple(radices)}"
        )
    index = 0
    for value, radix in zip(config, radices):
        if not 0 <= value < radix:
            raise IndexError(
                f"config {tuple(config)} out of range for radices {tuple(radices)}"
            )
        index = index * radix + value
    return index


def enumerate_configs(net: Network, node: str) -> list[ParentConfig]:
    """All parent configurations of `node` in table row order.

    A root yields exactly one empty configuration.
    """
    net.variable(node)  # raises for unknown ids
    radices = net.radices(node)
    return [tuple(c) for c in itertools.product(*(range(r) for r in radices))]


def has_path(net: Network, source: str, target: str) -> bool:
    """True when a directed path source -> ... -> target exists (or equal).

    Walks up from `target` through parent lists and never reads the children
    index. With levels (:attr:`Network._levels`) it does not expand a node
    no deeper than `source`, since all its ancestors are shallower than
    `source`; so it reads the parent lists only of `target`'s ancestors
    deeper than `source`, and none when `target` is no deeper than
    `source`. Without levels it reads those of every ancestor of `target`."""
    levels = net._levels
    floor = None if levels is None else levels.get(source)
    seen = {target}
    frontier = [target]
    while frontier:
        n = frontier.pop()
        if n == source:
            return True
        # an undeclared target, the one node without a level, has no parents
        if floor is not None and levels.get(n, floor) <= floor:
            continue
        for p in net.parents_of(n):
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return False


def would_create_cycle(net: Network, src: str, dst: str) -> bool:
    """True when adding arc src -> dst would close a directed cycle."""
    return has_path(net, dst, src)


@dataclass(frozen=True)
class Finding:
    node: str | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def messages(self) -> list[str]:
        return [f.message for f in self.findings]


def _find_cycle(net: Network) -> tuple[list[str] | None, list[str]]:
    """The first cycle a depth-first walk meets, or None, and the declared
    ids in the order it finished them, all of them when there is no cycle."""
    children: dict[str, list[str]] = {v.id: [] for v in net.variables}
    for child, ps in net.parents.items():
        if child in children:
            for p in ps:
                if p in children:
                    children[p].append(child)
    color: dict[str, int] = {}  # 0 = on the walk's path, 1 = finished
    finished: list[str] = []
    for start in children:
        if start in color:
            continue
        color[start] = 0
        stack = [(start, iter(children[start]))]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = 1
                finished.append(node)
                stack.pop()
            elif nxt not in color:
                color[nxt] = 0
                stack.append((nxt, iter(children[nxt])))
            elif color[nxt] == 0:
                path = [n for n, _ in stack]
                return path[path.index(nxt):], finished
    return None, finished


def variable_findings(v: Variable) -> list[Finding]:
    """A non-string id, name or label, no outcomes, or a repeated label."""
    if not all(isinstance(x, str) for x in (v.id, v.name, *v.outcomes)):
        return [Finding(v.id, f"variable {v.id} has a non-string id, name or label")]
    if not v.outcomes:
        return [Finding(v.id, f"variable {v.id} has no outcomes")]
    if len(set(v.outcomes)) != len(v.outcomes):
        return [Finding(v.id, f"duplicate outcome labels on variable {v.id}")]
    return []


def _parent_findings(net: Network, node: str) -> list[Finding]:
    """Unknown and repeated parents of one declared node, in parent order."""
    out: list[Finding] = []
    ps = net.parents_of(node)
    for i, p in enumerate(ps):
        if not net.has_variable(p):
            out.append(Finding(node, f"unknown parent {p} of {node}"))
        elif p in ps[:i]:
            out.append(Finding(node, f"duplicate parent {p} of {node}"))
    return out


def row_total(row: Sequence[float]) -> float:
    """`math.fsum` of a row, or nan where it fails: inf with -inf, or overflow."""
    try:
        return math.fsum(row)
    except (ValueError, OverflowError):
        return math.nan


def _table_findings(net: Network, node: str) -> list[Finding]:
    """Table-level problems of one declared node: CPT presence, stored node
    name, parent order, row count and row width."""
    cpt = net.cpts.get(node)
    if cpt is None:
        return [Finding(node, f"no CPT for node {node}")]
    out: list[Finding] = []
    if cpt.node != node:
        out.append(Finding(node, f"CPT stored under {node} names node {cpt.node}"))
    ps = net.parents_of(node)
    if cpt.parent_order != ps:
        out.append(
            Finding(
                node,
                f"CPT of {node} orders parents ({','.join(cpt.parent_order)}) "
                f"but declared parents are ({','.join(ps)})",
            )
        )
        return out
    if not all(net.has_variable(p) for p in ps):
        return out  # shape unverifiable; dangling-parent finding already emitted
    expected = math.prod(net.table_radices(node))
    if len(cpt.rows) != expected:
        out.append(
            Finding(
                node,
                f"node {node} has {len(cpt.rows)} CPT rows, expected {expected}",
            )
        )
    width = len(net.outcomes(node))
    for j, row in enumerate(cpt.rows):
        if len(row) != width:
            out.append(
                Finding(
                    node,
                    f"row {j} of node {node} has {len(row)} entries, expected {width}",
                )
            )
    return out


def _row_findings(
    net: Network, node: str, indexes: Collection[int] | None = None
) -> list[Finding]:
    """Value-level problems of one declared node: entry range and row sums,
    of the rows at `indexes`, or of every row. A row's findings read that
    row alone, so the local check an edit ends with judges only the rows
    the edit wrote, not the rows it carried over from its valid input."""
    cpt = net.cpts.get(node)
    if cpt is None:
        return []
    out: list[Finding] = []
    rows = cpt.rows
    if indexes is None:
        judged = enumerate(rows)
    else:
        judged = zip(indexes, map(rows.__getitem__, indexes))
    for j, row in judged:
        for x in row:
            if not 0.0 <= x <= 1.0:
                out.append(
                    Finding(
                        node,
                        f"entry {x} in row {j} of node {node} outside [0, 1]",
                    )
                )
        total = row_total(row)
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:  # a nan total's entries are out of range
            out.append(Finding(node, f"row {j} of node {node} sums to {total}"))
    return out


def structural_findings(net: Network) -> list[Finding]:
    """Shape-level problems: references, acyclicity, table dimensions.

    These are exactly the conditions under which a joint distribution cannot
    be enumerated from the network.
    """
    out: list[Finding] = []
    declared = net._positions
    for i, v in enumerate(net.variables):
        if declared[v.id] != i:
            out.append(Finding(v.id, f"duplicate variable id {v.id}"))
            continue
        out += variable_findings(v)

    for child in net.parents:
        if child not in declared:
            out.append(Finding(child, f"parents declared for unknown variable {child}"))
            continue
        out += _parent_findings(net, child)

    for nid, info in net.stale.items():
        if nid not in declared:
            out.append(
                Finding(nid, f"pending re-encoding recorded for unknown variable {nid}")
            )
        elif info.parent not in net.parents_of(nid):
            out.append(
                Finding(
                    nid,
                    f"pending re-encoding of {nid} references non-parent {info.parent}",
                )
            )

    cycle, _ = _find_cycle(net)
    if cycle is not None:
        out.append(Finding(None, "cycle " + ",".join(cycle)))

    for vid in declared:
        out += _table_findings(net, vid)

    for extra in net.cpts:
        if extra not in declared:
            out.append(Finding(extra, f"CPT for unknown variable {extra}"))
    return out


def structural_findings_unless_valid(net: Network) -> Sequence[Finding]:
    """:func:`structural_findings`, or none without a walk when
    :attr:`Network.findings` is already known empty: an edit's checked
    result, or a snapshot whose full findings were computed. Full findings
    hold the structural ones, so a snapshot known valid has none. Nothing
    is computed or stored on `net` that was not already there."""
    if vars(net).get("findings") == ():
        return ()
    return structural_findings(net)


def validate_network(
    net: Network,
    nodes: Mapping[str, Collection[int] | None] | None = None,
) -> ValidationReport:
    """Check every network invariant; findings are data, not exceptions.

    With `nodes`, only the per-node rules run, on its keys that are
    declared, in declaration order: variable, parent, table and row
    findings, in that sequence. Each key maps to the indexes of the rows to
    judge, or to None for every row. An edit uses this for the nodes it gave
    a new table, ordered through the position index rather than a scan of
    every id, with the rows it wrote: the rules on a row read that row
    alone, so a row carried over from a valid snapshot needs no second look.
    """
    if nodes is None:
        order = list(net._positions)
        findings = structural_findings(net)
        nodes = dict.fromkeys(order)
    else:
        positions = net._positions
        order = sorted(filter(positions.__contains__, nodes), key=positions.__getitem__)
        findings = [f for n in order for f in variable_findings(net.variable(n))]
        findings += [f for n in order for f in _parent_findings(net, n)]
        findings += [f for n in order for f in _table_findings(net, n)]
    findings += [f for n in order for f in _row_findings(net, n, nodes[n])]
    return ValidationReport(tuple(findings))
