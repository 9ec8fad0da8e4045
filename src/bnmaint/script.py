"""Change scripts: a JSON array of edit records applied in sequence.

Elicited probability blocks are keyed by explicit parent-configuration
assignments (outcome labels, never row indices), so a script survives any
reordering of a file's rows. Each record names its operation:

* ``add_outcomes`` - node, outcomes, mode ("ignored" or "general"), blocks
  holding per-configuration values (the new outcomes' probabilities, or the
  full new row in general mode).
* ``split_outcome`` - node, outcome, parts, mode ("split" or "general"),
  form ("weights" or "probs", split mode), blocks per configuration.
* ``reuse_successor_rows`` - node, parent, blocks ({outcome, given, values})
  holding one full row per new parent outcome and other-parent config; mode
  ("ignored" or "split") defaults to the completion the pending change needs.
* ``add_arc`` - from, to, mode ("assumed-constant" with baseline plus
  labeled row blocks, or "general" with full-configuration blocks).
* ``add_variable`` - variable {id, name, outcomes}, parents, blocks for its
  own table, mode, baseline, successors: [{node, blocks}].
* ``remove_arc`` - from, to, blocks (replacement rows).
* ``remove_outcome`` - node, outcome, and either renormalize: true (with no
  tables) or blocks plus successors: [{node, blocks}].
* ``replace_cpt`` - node, blocks.

A block is ``{"given": {parent id: outcome label, ...}, "values": [...]}``;
row-per-outcome blocks carry an additional ``"outcome"`` key. Blocks must
cover every configuration exactly once, and a successor is listed once.

The script judges only what the edits cannot see: JSON field types, block
coverage, label-keyed placement, and fields that are not read, which it
refuses: a record's field that its op and mode do not read (``form`` on a
general split, ``baseline`` on a general arc or variable), and any unknown
key of a record, a block, a ``variable`` object or a successor entry, an
``outcome`` on a configuration-keyed block among them. Every other rule, a
record's ``mode`` included, is the edits' own and raises
:class:`MaintenanceError`; an id the network lacks is refused by
:func:`bnmaint.edits.require_variable` as it resolves the record's blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Collection, Mapping, Sequence

from . import edits
from .edits import MaintenanceError, Transaction
from .netio import ParseError
from .network import Network, Variable, all_numbers


class ScriptError(Exception):
    """A change-script record failed; `op_index` is 1-based."""

    def __init__(self, op_index: int | None, message: str):
        super().__init__(message)
        self.op_index = op_index
        self.message = message

    def __str__(self) -> str:
        if self.op_index is None:
            return self.message
        return f"op {self.op_index}: {self.message}"


@dataclass(frozen=True)
class ScriptResult:
    transactions: tuple[Transaction, ...]
    final: Network


def parse_script(doc: Any) -> list[dict]:
    """Shape check only; record contents are resolved against the live
    network as each op applies."""
    if not isinstance(doc, list):
        raise ParseError("change script must be a JSON array of operations")
    for i, rec in enumerate(doc, 1):
        if not isinstance(rec, dict):
            raise ParseError(f"script entry {i} must be an object")
    return doc


def apply_script(net: Network, ops: Sequence[Mapping[str, Any]]) -> ScriptResult:
    """Apply every record in order; any failure aborts the whole script.

    The final network must be complete: a script that leaves nodes pending
    re-encoding fails.
    """
    transactions: list[Transaction] = []
    current = net
    for i, rec in enumerate(ops, 1):
        try:
            t = _apply_one(current, rec)
        except MaintenanceError as e:
            raise ScriptError(i, str(e)) from e
        transactions.append(t)
        current = t.after
    if current.stale:
        raise ScriptError(
            None,
            "script leaves nodes pending re-encoding: "
            + ", ".join(sorted(current.stale)),
        )
    return ScriptResult(tuple(transactions), current)


# ---------------------------------------------------------------------------
# field and block helpers
# ---------------------------------------------------------------------------


def _field(rec: Mapping[str, Any], name: str, kind: type) -> Any:
    if name not in rec:
        raise MaintenanceError(f"missing field {name!r}")
    value = rec[name]
    if not isinstance(value, kind):
        raise MaintenanceError(f"field {name!r} must be of type {kind.__name__}")
    return value


def _string_list(rec: Mapping[str, Any], name: str) -> list[str]:
    value = _field(rec, name, list)
    if not all(isinstance(x, str) for x in value):
        raise MaintenanceError(f"field {name!r} must be an array of strings")
    return value


def _refuse_unread(obj: Mapping[str, Any], read: Collection[str], where: str) -> None:
    """Refuse the first key of `obj` outside `read`, naming it and `where`."""
    for key in obj:
        if key not in read:
            raise MaintenanceError(f"field {key!r} is not read {where}")


def _parents(net: Network, node: str) -> tuple[str, ...]:
    """`node`'s parents; the edits' own check refuses an id the network lacks."""
    edits.require_variable(net, node)
    return net.parents_of(node)


def _config_blocks(
    blocks: Any,
    parent_ids: Sequence[str],
    net: Network,
    what: str,
    relabeled: Mapping[str, tuple[str, ...]] = {},
    fields: frozenset[str] = frozenset({"given", "values"}),
) -> list[list[float]]:
    """Blocks keyed by full parent configuration -> values in row order;
    `relabeled` holds the labels an edit gives a parent it creates or changes,
    and `fields` the keys a block may hold."""
    if not isinstance(blocks, list):
        raise MaintenanceError(f"{what}: blocks must be an array")
    outcomes = [
        relabeled[p] if p in relabeled else edits.require_variable(net, p).outcomes
        for p in parent_ids
    ]
    # label -> position, the first winning as with tuple.index: a new
    # variable's repeated label is judged by its edit, after the blocks
    positions = [{x: i for i, x in reversed(tuple(enumerate(outs)))} for outs in outcomes]
    keys = set(parent_ids)
    radices = [len(outs) for outs in outcomes]
    total = math.prod(radices)
    out: list[list[float] | None] = [None] * total
    for block in blocks:
        if not isinstance(block, dict):
            raise MaintenanceError(f"{what}: each block must be an object")
        if not block.keys() <= fields:
            _refuse_unread(block, fields, f"in a block of {what}")
        given = block.get("given", {})
        if not isinstance(given, dict):
            raise MaintenanceError('block field "given" must be an object')
        if given.keys() != keys:
            raise MaintenanceError(
                f'block "given" must assign exactly ({", ".join(parent_ids)})'
            )
        # the row index, as config_index makes it: each position fits its radix
        j = 0
        for pid, position, radix in zip(parent_ids, positions, radices):
            try:
                j = j * radix + position[given[pid]]
            except (KeyError, TypeError):  # an unhashable label is unknown too
                raise MaintenanceError(f"unknown outcome {given[pid]!r} of {pid}") from None
        if out[j] is not None:
            config = tuple(position[given[pid]] for pid, position in zip(parent_ids, positions))
            raise MaintenanceError(f"{what}: duplicate block for configuration {config}")
        values = block.get("values")
        if not isinstance(values, list) or not all_numbers(values):
            raise MaintenanceError('block field "values" must be an array of numbers')
        out[j] = values
    missing = [j for j, v in enumerate(out) if v is None]
    if missing:
        raise MaintenanceError(
            f"{what}: missing block for {len(missing)} of {total} configurations"
        )
    return out  # type: ignore[return-value]


def _labeled_row_blocks(
    blocks: Any,
    other_parent_ids: Sequence[str],
    net: Network,
    what: str,
    relabeled: Mapping[str, tuple[str, ...]] = {},
) -> dict[str, list[list[float]]]:
    """Blocks keyed by (outcome label, other-parent configuration) -> rows
    grouped per label, each group in other-parent row order."""
    if not isinstance(blocks, list):
        raise MaintenanceError(f"{what}: blocks must be an array")
    grouped: dict[str, list[dict]] = {}
    for block in blocks:
        if not isinstance(block, dict):
            raise MaintenanceError(f"{what}: each block must be an object")
        label = block.get("outcome")
        if not isinstance(label, str):
            raise MaintenanceError(f'{what}: block field "outcome" must be a string')
        grouped.setdefault(label, []).append(block)
    return {
        label: _config_blocks(
            group, other_parent_ids, net, f"{what} ({label})", relabeled,
            frozenset({"outcome", "given", "values"}),
        )
        for label, group in grouped.items()
    }


def _successor_blocks(rec: Mapping[str, Any]) -> dict[str, Any]:
    """node -> blocks for each entry of a record's "successors" array; the
    edits take a mapping, so only here can a repeated node be seen."""
    raw = rec.get("successors", [])
    if not isinstance(raw, list):
        raise MaintenanceError('"successors" must be an array')
    out = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise MaintenanceError("each successor entry must be an object")
        _refuse_unread(entry, ("node", "blocks"), "in a successor entry")
        node = _field(entry, "node", str)
        if node in out:
            raise MaintenanceError(f"successor {node} is listed twice")
        out[node] = entry.get("blocks", [])
    return out


# ---------------------------------------------------------------------------
# per-record handlers
# ---------------------------------------------------------------------------


def _apply_one(net: Network, rec: Mapping[str, Any]) -> Transaction:
    name = rec.get("op")
    if not isinstance(name, str):
        raise MaintenanceError('missing or non-string "op" field')
    if name not in _HANDLERS:
        raise MaintenanceError(f"unknown operation {name!r}")
    handler, fields = _HANDLERS[name]
    mode = rec.get("mode", "")
    if "mode" in rec:  # EditOp alone judges (op, mode), before any block
        edits.EditOp(name, mode, "")
    read = {"op", "mode", *fields, *_MODE_FIELDS.get((name, mode), ())}
    _refuse_unread(rec, read, f"by {name} in {mode} mode" if mode else f"by {name}")
    edits.require_valid(net)  # blocks resolve against the network's labels
    return handler(net, rec)


def _op_add_outcomes(net: Network, rec: Mapping[str, Any]) -> Transaction:
    node = _field(rec, "node", str)
    labels = _string_list(rec, "outcomes")
    blocks = _config_blocks(rec.get("blocks", []), _parents(net, node), net, node)
    if rec.get("mode", edits.MODE_GENERAL) == edits.MODE_IGNORED:
        return edits.add_outcomes_ignored(net, node, labels, blocks)
    return edits.add_outcomes_general(net, node, labels, blocks)


def _op_split_outcome(net: Network, rec: Mapping[str, Any]) -> Transaction:
    node = _field(rec, "node", str)
    outcome = _field(rec, "outcome", str)
    parts = _string_list(rec, "parts")
    blocks = _config_blocks(rec.get("blocks", []), _parents(net, node), net, node)
    if rec.get("mode", edits.MODE_SPLIT) == edits.MODE_SPLIT:
        form = rec.get("form", "weights")
        return edits.split_outcome(net, node, outcome, parts, blocks, form=form)
    return edits.split_outcome_general(net, node, outcome, parts, blocks)


def _op_reuse_successor_rows(net: Network, rec: Mapping[str, Any]) -> Transaction:
    node = _field(rec, "node", str)
    parent = _field(rec, "parent", str)
    others = tuple(p for p in _parents(net, node) if p != parent)
    rows = _labeled_row_blocks(rec.get("blocks", []), others, net, node)
    # an explicit mode picks the completion, and the edit refuses one that
    # the pending change does not match; without one, the pending change picks
    if "mode" in rec:
        split = rec["mode"] == edits.MODE_SPLIT
    else:
        info = net.stale.get(node)
        split = info is not None and info.cause == edits.KIND_SPLIT_OUTCOME
    if split:
        return edits.reuse_successor_rows_split(net, node, parent, rows)
    return edits.reuse_successor_rows_ignored(net, node, parent, rows)


def _op_add_arc(net: Network, rec: Mapping[str, Any]) -> Transaction:
    src = _field(rec, "from", str)
    dst = _field(rec, "to", str)
    if rec.get("mode", edits.MODE_GENERAL) == edits.MODE_ASSUMED_CONSTANT:
        baseline = _field(rec, "baseline", str)
        rows = _labeled_row_blocks(rec.get("blocks", []), _parents(net, dst), net, dst)
        return edits.add_arc_assumed_constant(net, src, dst, baseline, rows)
    parent_ids = _parents(net, dst) + (src,)
    blocks = _config_blocks(rec.get("blocks", []), parent_ids, net, dst)
    return edits.add_arc_general(net, src, dst, blocks)


def _op_add_variable(net: Network, rec: Mapping[str, Any]) -> Transaction:
    raw = _field(rec, "variable", dict)
    _refuse_unread(raw, ("id", "name", "outcomes"), "in a variable")
    vid = _field(raw, "id", str)
    name = raw.get("name", vid)
    if not isinstance(name, str):
        raise MaintenanceError('variable field "name" must be a string')
    outcomes = tuple(_string_list(raw, "outcomes"))
    variable = Variable(vid, name, outcomes)
    parent_ids = tuple(_string_list(rec, "parents"))
    mode = rec.get("mode", edits.MODE_GENERAL)
    own_blocks = _config_blocks(rec.get("blocks", []), parent_ids, net, vid)
    successors: dict[str, object] = {}
    baseline = None
    if mode == edits.MODE_ASSUMED_CONSTANT:
        baseline = _field(rec, "baseline", str)
    new = {vid: outcomes}
    for s, blocks in _successor_blocks(rec).items():
        if mode == edits.MODE_ASSUMED_CONSTANT:
            successors[s] = _labeled_row_blocks(blocks, _parents(net, s), net, s, new)
        else:
            successors[s] = _config_blocks(blocks, _parents(net, s) + (vid,), net, s, new)
    return edits.add_variable(
        net,
        variable,
        parent_ids,
        own_blocks,
        mode=mode,
        baseline=baseline,
        successors=successors,
    )


def _op_remove_arc(net: Network, rec: Mapping[str, Any]) -> Transaction:
    src = _field(rec, "from", str)
    dst = _field(rec, "to", str)
    remaining = tuple(p for p in _parents(net, dst) if p != src)
    blocks = _config_blocks(rec.get("blocks", []), remaining, net, dst)
    return edits.remove_arc(net, src, dst, blocks)


def _op_remove_outcome(net: Network, rec: Mapping[str, Any]) -> Transaction:
    node = _field(rec, "node", str)
    outcome = _field(rec, "outcome", str)
    if "renormalize" in rec and _field(rec, "renormalize", bool):
        # any tables go to the edit as they came, for its exclusivity rule
        return edits.remove_outcome(
            net,
            node,
            outcome,
            replacement_rows=rec.get("blocks"),
            successor_replacements=rec.get("successors"),
            renormalize=True,
        )
    var = edits.require_variable(net, node)
    reduced = {node: tuple(o for o in var.outcomes if o != outcome)}
    blocks = _config_blocks(rec.get("blocks", []), _parents(net, node), net, node)
    succ = {
        s: _config_blocks(b, _parents(net, s), net, s, reduced)
        for s, b in _successor_blocks(rec).items()
    }
    return edits.remove_outcome(
        net, node, outcome, replacement_rows=blocks, successor_replacements=succ
    )


def _op_replace_cpt(net: Network, rec: Mapping[str, Any]) -> Transaction:
    node = _field(rec, "node", str)
    blocks = _config_blocks(rec.get("blocks", []), _parents(net, node), net, node)
    return edits.replace_cpt(net, node, blocks)


# each op's handler and the fields it reads in every mode; `_MODE_FIELDS`
# holds those read in one mode only, "" standing for a record without one
_HANDLERS: dict[str, tuple[Callable[..., Transaction], set[str]]] = {
    "add_outcomes": (_op_add_outcomes, {"node", "outcomes", "blocks"}),
    "split_outcome": (_op_split_outcome, {"node", "outcome", "parts", "blocks"}),
    "reuse_successor_rows": (_op_reuse_successor_rows, {"node", "parent", "blocks"}),
    "add_arc": (_op_add_arc, {"from", "to", "blocks"}),
    "add_variable": (_op_add_variable, {"variable", "parents", "blocks", "successors"}),
    "remove_arc": (_op_remove_arc, {"from", "to", "blocks"}),
    "remove_outcome": (
        _op_remove_outcome, {"node", "outcome", "renormalize", "blocks", "successors"}
    ),
    "replace_cpt": (_op_replace_cpt, {"node", "blocks"}),
}
_MODE_FIELDS = {
    ("split_outcome", ""): {"form"},
    ("split_outcome", edits.MODE_SPLIT): {"form"},
    ("add_arc", edits.MODE_ASSUMED_CONSTANT): {"baseline"},
    ("add_variable", edits.MODE_ASSUMED_CONSTANT): {"baseline"},
}
