"""Structural edits applied as pure transactions.

Every operation takes a network snapshot plus the expert-supplied numbers the
edit needs, and returns a :class:`Transaction` carrying the edited snapshot,
per-node assessment bookkeeping, and (for the rescaling cases) the scale
factors it computed. Inputs are never mutated. Elicited numbers that violate
their constraints are rejected outright, never silently repaired.

Three edits let existing probabilities survive instead of being re-elicited:

* ``add_outcomes_ignored`` - newly recognized outcomes join a variable; each
  old row is scaled by the per-configuration probability that none of the
  new outcomes occurs, so the old outcomes keep their relative proportions.
* ``split_outcome`` - one outcome is refined into parts whose probabilities
  partition the original mass per configuration; all other entries are kept
  bit-for-bit.
* ``add_arc_assumed_constant`` / ``add_variable`` (assumed-constant mode) -
  a node gains a new conditioning variable whose baseline outcome reproduces
  the previous state of knowledge, so the old rows become the
  baseline-conditioned block verbatim.

When a variable's outcome space changes, nodes conditioned on it keep their
old tables and are marked pending (:class:`bnmaint.network.StaleParent`)
until ``reuse_successor_rows_*`` or ``replace_cpt`` completes them.

Cost model: each number a caller supplies is converted to a float once, at
the edit's boundary; tables computed from those numbers reach the snapshot
as they are. Each row the edit writes is judged once, by the local check
every edit ends with; a row carried over from the valid input, verbatim in
a re-keyed table or in the unchanged table of a pending child, is not judged
again. So an edit's cost follows the cells it writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress
from typing import Mapping, Sequence

from .network import (
    ROW_SUM_TOLERANCE,
    CellError,
    Network,
    StaleParent,
    Variable,
    float_rows,
    has_path,
    label_tuple,
    row_total,
    validate_network,
    variable_findings,
    would_create_cycle,
)

KIND_ADD_OUTCOMES = "add_outcomes"
KIND_SPLIT_OUTCOME = "split_outcome"
KIND_ADD_VARIABLE = "add_variable"
KIND_ADD_ARC = "add_arc"
KIND_REMOVE_ARC = "remove_arc"
KIND_REMOVE_OUTCOME = "remove_outcome"
KIND_REPLACE_CPT = "replace_cpt"
KIND_REUSE_SUCCESSOR_ROWS = "reuse_successor_rows"

MODE_GENERAL = "general"
MODE_IGNORED = "ignored"
MODE_SPLIT = "split"
MODE_ASSUMED_CONSTANT = "assumed-constant"

_LEGAL_MODES = {
    KIND_ADD_OUTCOMES: {MODE_GENERAL, MODE_IGNORED},
    KIND_SPLIT_OUTCOME: {MODE_GENERAL, MODE_SPLIT},
    KIND_ADD_VARIABLE: {MODE_GENERAL, MODE_ASSUMED_CONSTANT},
    KIND_ADD_ARC: {MODE_GENERAL, MODE_ASSUMED_CONSTANT},
    KIND_REMOVE_ARC: {MODE_GENERAL},
    KIND_REMOVE_OUTCOME: {MODE_GENERAL},
    KIND_REPLACE_CPT: {MODE_GENERAL},
    KIND_REUSE_SUCCESSOR_ROWS: {MODE_IGNORED, MODE_SPLIT},
}


class MaintenanceError(ValueError):
    """An edit was rejected: bad reference, bad elicited input, illegal state."""


@dataclass(frozen=True)
class EditOp:
    """One structural change and the choices that shaped it."""

    kind: str
    mode: str
    node: str
    source: str | None = None  # arc source / changed parent
    labels: tuple[str, ...] = ()  # outcome labels involved in the change
    baseline: str | None = None
    renormalize: bool = False

    def __post_init__(self) -> None:
        """The one rule for which (kind, mode) pairs are legal."""
        legal = _LEGAL_MODES.get(self.kind) if isinstance(self.kind, str) else None
        if legal is None:
            raise MaintenanceError(f"unknown edit kind {self.kind!r}")
        if not isinstance(self.mode, str) or self.mode not in legal:
            raise MaintenanceError(
                f"mode {self.mode!r} is not legal for {self.kind}"
            )
        labels = label_tuple(self.labels, f"labels of {self.kind}", MaintenanceError)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class RescaleFactors:
    """Per-configuration scale factors computed during a rescaling edit.

    For the ignored-outcome case each configuration carries one scalar (the
    probability that no new outcome occurs); for the split case each carries
    the weight vector that partitions the split outcome's mass.
    """

    case: str  # "ignored" or "split"
    per_config: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_config", tuple(self.per_config))


@dataclass(frozen=True)
class NodeAssessment:
    """Free-parameter accounting for one node in one transaction.

    A row over q outcomes costs q - 1 assessments. `baseline` is the cost of
    re-encoding the node's new table from scratch; `elicited` is what the
    edit actually required; `reused` is what carried over from the previous
    state of information.
    """

    node: str
    elicited: int
    reused: int
    baseline: int


@dataclass(frozen=True)
class AssessmentReport:
    """A sparse report: only the nodes an edit assessed, zeros for the rest."""

    nodes: tuple[NodeAssessment, ...]
    notes: tuple[str, ...] = ()

    def for_node(self, node: str) -> NodeAssessment:
        return next((e for e in self.nodes if e.node == node), NodeAssessment(node, 0, 0, 0))

    @property
    def total_elicited(self) -> int:
        return sum(e.elicited for e in self.nodes)

    @property
    def total_reused(self) -> int:
        return sum(e.reused for e in self.nodes)

    @property
    def total_baseline(self) -> int:
        return sum(e.baseline for e in self.nodes)


@dataclass(frozen=True)
class Transaction:
    """One applied edit: old snapshot, the operation, new snapshot, report."""

    before: Network
    op: EditOp
    after: Network
    report: AssessmentReport
    factors: RescaleFactors | None = None


def bump_label(label: str) -> str:
    """Advance a version label's numeric suffix: E -> E.1 -> E.2 -> ..."""
    base, dot, suffix = label.rpartition(".")
    if dot and suffix.isdigit():
        return f"{base}.{int(suffix) + 1}"
    return f"{label}.1"


# ---------------------------------------------------------------------------
# assessment counting
# ---------------------------------------------------------------------------


def pending_label_split(
    net: Network, successor: str
) -> tuple[list[str], dict[str, int]]:
    """For a node pending re-encoding, classify the changed parent's current
    outcomes: returns (labels needing elicited rows, labels whose rows are
    inherited mapped to their old outcome index).

    Old labels still present are always inherited. A split into a single
    part is a pure relabel, so the part inherits the vanished outcome's rows.
    """
    info = net.stale[successor]
    parent_var = net.variable(info.parent)
    old_index = {l: i for i, l in enumerate(info.old_outcomes)}
    inherited = {l: old_index[l] for l in parent_var.outcomes if l in old_index}
    new_labels = [l for l in parent_var.outcomes if l not in old_index]
    if info.cause == KIND_SPLIT_OUTCOME:
        vanished = [l for l in info.old_outcomes if l not in set(parent_var.outcomes)]
        if (
            len(new_labels) == 1
            and len(vanished) == 1
            and len(parent_var.outcomes) == len(info.old_outcomes)
        ):
            inherited[new_labels[0]] = old_index[vanished[0]]
            new_labels = []
    return new_labels, inherited


def count_assessments(before: Network, op: EditOp, after: Network) -> AssessmentReport:
    """Count one edit's elicited and reused free parameters from its concrete
    before/after tables; every transaction's report comes from here.

    Each touched node's baseline is the free-parameter count of its new
    table. On homogeneous conditioning sets the elicited counts reduce to
    the closed forms of :func:`bnmaint.cost.assessment_cost`; in general they
    use the product of the actual radices. Only the nodes recorded here are
    listed, in the order they are recorded.
    """
    entries: dict[str, NodeAssessment] = {}
    notes: list[str] = []

    def record(node: str, elicited: int | None = None) -> None:
        """Elicited defaults to the whole table; the rest is reused."""
        baseline = (len(after.outcomes(node)) - 1) * len(after.cpt(node).rows)
        elicited = baseline if elicited is None else elicited
        entries[node] = NodeAssessment(node, elicited, baseline - elicited, baseline)

    def record_given(node: str, parent: str, labels: int) -> None:
        """Only the rows conditioned on `labels` of `parent`'s outcomes are
        elicited."""
        width = len(after.outcomes(node))
        rows_per_label = len(after.cpt(node).rows) // len(after.outcomes(parent))
        record(node, (width - 1) * labels * rows_per_label)

    if op.kind in (KIND_ADD_OUTCOMES, KIND_SPLIT_OUTCOME):
        # k new outcomes add k columns; k parts replacing one add k - 1
        added = len(after.outcomes(op.node)) - len(before.outcomes(op.node))
        if added or op.kind == KIND_SPLIT_OUTCOME or op.mode == MODE_GENERAL:
            rows = len(after.cpt(op.node).rows)
            record(op.node, None if op.mode == MODE_GENERAL else added * rows)
    elif op.kind == KIND_REUSE_SUCCESSOR_ROWS:
        if op.node in before.stale:
            needed, _ = pending_label_split(before, op.node)
            record_given(op.node, op.source, len(needed))
    elif op.kind in (KIND_ADD_ARC, KIND_ADD_VARIABLE):
        if op.kind == KIND_ADD_ARC:
            src, successors = op.source, (op.node,)
        else:
            record(op.node)
            src, successors = op.node, after.children(op.node)
        for s in successors:
            if op.mode == MODE_ASSUMED_CONSTANT:
                record_given(s, src, len(after.outcomes(src)) - 1)
            else:
                record(s)
    elif op.kind in (KIND_REPLACE_CPT, KIND_REMOVE_ARC):
        record(op.node)
    else:  # KIND_REMOVE_OUTCOME
        for node in (op.node, *before.children(op.node)):
            record(node, 0 if op.renormalize else None)
        if op.renormalize:
            notes.append(
                f"NON-PAPER: rows of {op.node} renormalized after dropping "
                f"{op.labels[0]!r}"
            )
            notes.append(
                "NON-PAPER: successor rows conditioned on the dropped outcome deleted"
            )

    return AssessmentReport(tuple(entries.values()), tuple(notes))


# ---------------------------------------------------------------------------
# shared checks and builders
# ---------------------------------------------------------------------------


def require_variable(net: Network, node: str) -> Variable:
    """`node`'s variable in the valid `net`; every edit but `add_variable`
    calls this first, so it refuses an invalid input before reading any.
    Change scripts resolve the ids their blocks name through it too."""
    require_valid(net)
    try:
        return net.variable(node)
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise MaintenanceError(f"unknown variable {node!r}") from None


def _require_not_stale(net: Network, nodes: Sequence[str]) -> None:
    pending = [n for n in nodes if n in net.stale]
    if pending:
        raise MaintenanceError(
            "nodes pending re-encoding must be completed first: "
            + ", ".join(pending)
        )


_INVALID_RESULT = "edit would produce an invalid network: "


def require_valid(net: Network) -> None:
    """Refuse an invalid input network, naming its first finding."""
    if net.findings:
        raise MaintenanceError("cannot edit an invalid network: " + net.findings[0].message)


def _finish(
    before: Network,
    op: EditOp,
    tables: Mapping[str, tuple[tuple[float, ...], ...]],
    *,
    written: Mapping[str, tuple[int, ...]] | None = None,
    outcomes: tuple[str, ...] | None = None,
    parents: Mapping[str, tuple[str, ...]] | None = None,
    variable: Variable | None = None,
    factors: RescaleFactors | None = None,
) -> Transaction:
    """Build and check the edited snapshot; every edit ends here.

    `tables` gives each touched node its new rows in stored form, a tuple of
    float tuples: elicited whole and converted once at the edit's boundary,
    or computed from such numbers and the old rows. A table re-keyed by
    :func:`_rekey_rows` keeps rows of its old table as the same objects;
    `written` gives the indexes of its other rows.
    `parents` gives the parent lists that changed, `outcomes` a new outcome
    space for `op.node`, and `variable` a variable to append. When
    `op.node`'s outcome space changes, its children keep their old tables
    and become pending; a node given a new table is no longer pending.
    :meth:`Network._derive` builds the snapshot from `before` and these
    changes at a cost that follows the touched nodes.

    It trusts `before` to be valid (:attr:`Network.findings`): every edit
    has refused an invalid input before reading it. Each node given a
    new table gets every per-node rule, its values judged only in the rows
    the edit wrote: a row carried over into a re-keyed table, like the
    unchanged table of a child marked pending, passed the same rules when
    `before` was checked. The global rules an edit can break, a repeated id
    and a cycle, it checks before it builds. Edits keep what they need to
    compute and what a valid result hides: the nodes and pending state they
    read, an existing arc, baselines, split inputs and the last outcome.
    """
    stale = before.stale.copy()
    if outcomes is not None:
        old_outcomes = before.outcomes(op.node)
        if outcomes != old_outcomes:
            for child in before.children(op.node):
                stale[child] = StaleParent(op.node, old_outcomes, op.kind)
    for node in tables:
        stale.pop(node, None)
    after = before._derive(
        bump_label(before.version_label), tables, stale,
        variable=variable, parents=parents,
        outcomes=None if outcomes is None else {op.node: outcomes},
    )
    written = written or {}
    report = validate_network(after, nodes={n: written.get(n) for n in tables})
    if not report.ok:
        raise MaintenanceError(_INVALID_RESULT + report.findings[0].message)
    after.__dict__["findings"] = ()
    return Transaction(before, op, after, count_assessments(before, op, after), factors)


def _rekey_rows(
    net: Network,
    node: str,
    parent: str,
    labels: Sequence[str],
    inherited: Mapping[str, int],
    rows_by_label: Mapping[str, Sequence[Sequence[float]]],
) -> tuple[tuple[tuple[float, ...], ...], tuple[int, ...]]:
    """Re-key `node`'s table on one parent whose outcomes become `labels`.

    Each label either copies the rows its `inherited` old index conditioned
    on or takes elicited rows, which `rows_by_label` must supply for exactly
    the labels not inherited, one per configuration of the other parents;
    a bad row is named by its index within its label's block. Returns the
    new rows and the indexes of the elicited ones among them. Elicited cells
    are converted once, here; copied rows are the old row objects, which
    passed the local check when the old table was written, so
    :func:`_finish` judges only the elicited rows.
    A `parent` that `node` does not have yet becomes its new last parent,
    of old radix 1. Rows are in mixed-radix order, last parent fastest: with
    the parent's old radix r and `block` the product of the radices after
    it, old outcome i in higher configuration hi owns the rows
    [(hi*r + i)*block, (hi*r + i + 1)*block).
    The copy runs along the shorter axis, as slices the interpreter copies
    in C: when `block` is at most the count `outer` of higher
    configurations, one strided slice per (label, offset within block),
    else one contiguous slice per (higher configuration, label). Either way
    a carried row is the old row object itself, never a copy.
    """
    what = f"rows for {node} given {parent}"
    if not isinstance(rows_by_label, Mapping):
        raise MaintenanceError(f"{what}: expected rows keyed by outcome label")
    needed = [l for l in labels if l not in inherited]
    if set(rows_by_label) != set(needed):
        raise MaintenanceError(
            f"{what}: elicited rows required for outcomes ({', '.join(needed)}), "
            f"got ({', '.join(sorted(rows_by_label))})"
        )
    parent_order = net.parents_of(node)
    radices = net.table_radices(node) + (1,)
    pos = parent_order.index(parent) if parent in parent_order else len(parent_order)
    r = radices[pos]
    outer, block = math.prod(radices[:pos]), math.prod(radices[pos + 1:])
    elicited = {label: _float_rows(node, rows_by_label[label]) for label in needed}
    for label, rows in elicited.items():
        if len(rows) != outer * block:
            raise MaintenanceError(
                f"{what}={label}: expected {outer * block} rows, got {len(rows)}"
            )
    old_rows = net.cpt(node).rows
    stride = len(labels) * block  # new rows per higher configuration
    new_rows: list = [None] * (outer * stride)
    for k, label in enumerate(labels):
        # the label's block in configuration hi is rows[start + hi*step:][:block]
        if label in inherited:
            rows, start, step = old_rows, inherited[label] * block, r * block
        else:
            rows, start, step = elicited[label], 0, block
        if block <= outer:  # one strided copy per offset within the block
            for j in range(block):
                new_rows[k * block + j::stride] = rows[start + j::step]
        else:  # one contiguous copy per higher configuration
            for hi in range(outer):
                at, src = hi * stride + k * block, start + hi * step
                new_rows[at:at + block] = rows[src:src + block]
    # one flag per row: whether its label was elicited, the same for each hi
    fresh = [*chain.from_iterable([label not in inherited] * block for label in labels)]
    return tuple(new_rows), tuple(compress(range(len(new_rows)), fresh * outer))


def _float_rows(node: str, rows: Sequence) -> tuple[tuple[float, ...], ...]:
    """Rows of `node`'s new table, or the inputs they are computed from, as
    floats: the one conversion of the numbers a caller supplies."""
    try:
        return float_rows(node, rows)
    except CellError as e:
        raise MaintenanceError(str(e)) from None


def _require_outcome_change(net: Network, node: str) -> Variable:
    """An outcome-space change needs the node and its children complete."""
    var = require_variable(net, node)
    _require_not_stale(net, (node, *net.children(node)))
    return var


def _split_labels(
    var: Variable, split_label: str, parts: Sequence[str]
) -> tuple[int, tuple[str, ...], tuple[str, ...]]:
    """The split outcome's index, the part labels and the new outcome space."""
    if split_label not in var.outcomes:
        raise MaintenanceError(f"unknown outcome {split_label!r} of {var.id}")
    parts = label_tuple(parts, f"parts of {split_label} of {var.id}", MaintenanceError)
    if not parts:
        raise MaintenanceError("a split needs at least one part")
    if split_label in parts:  # valid labels, but successors would reuse its rows
        raise MaintenanceError(f"part labels already exist on {var.id}: {split_label}")
    s = var.outcomes.index(split_label)
    return s, parts, var.outcomes[:s] + parts + var.outcomes[s + 1:]


def _require_new_arc(net: Network, src: str, dst: str) -> Variable:
    src_var = require_variable(net, src)
    require_variable(net, dst)
    _require_not_stale(net, (src, dst))
    if src in net.parents_of(dst):
        raise MaintenanceError(f"arc {src}->{dst} already exists")
    if would_create_cycle(net, src, dst):
        raise MaintenanceError(f"arc {src}->{dst} would create a cycle")
    return src_var


# ---------------------------------------------------------------------------
# outcome-space growth
# ---------------------------------------------------------------------------


def add_outcomes_ignored(
    net: Network,
    node: str,
    new_outcomes: Sequence[str],
    new_probs: Sequence[Sequence[float]],
) -> Transaction:
    """Append newly recognized outcomes to `node`, reusing the old rows.

    `new_probs` supplies, for each parent configuration in row order, the
    probabilities of the new outcomes. Each old row is scaled by the leftover
    mass (one minus the new outcomes' total) and the new entries appended, so
    only the new outcomes' probabilities are elicited.
    """
    var = _require_outcome_change(net, node)
    labels = label_tuple(new_outcomes, f"new outcomes of {node}", MaintenanceError)
    rows = net.cpt(node).rows
    blocks = _float_rows(node, new_probs)
    if len(blocks) != len(rows):
        raise MaintenanceError(
            f"expected {len(rows)} new-outcome blocks for {node}, got {len(blocks)}"
        )
    lambdas: list[float] = []
    new_rows: list[tuple[float, ...]] = []
    for row, block in zip(rows, blocks):
        # a bad width, entry or mass shows as that finding on the new row
        lam = max(0.0, 1.0 - row_total(block))  # 0 for a nan mass
        lambdas.append(lam)
        new_rows.append(tuple(lam * x for x in row) + block)

    op = EditOp(KIND_ADD_OUTCOMES, MODE_IGNORED, node, labels=labels)
    factors = RescaleFactors("ignored", tuple(lambdas))
    return _finish(
        net, op, {node: tuple(new_rows)}, outcomes=var.outcomes + labels, factors=factors
    )


def add_outcomes_general(
    net: Network,
    node: str,
    new_outcomes: Sequence[str],
    replacement_rows: Sequence[Sequence[float]],
) -> Transaction:
    """Append outcomes with the node's whole new table supplied (no reuse)."""
    var = _require_outcome_change(net, node)
    labels = label_tuple(new_outcomes, f"new outcomes of {node}", MaintenanceError)
    op = EditOp(KIND_ADD_OUTCOMES, MODE_GENERAL, node, labels=labels)
    rows = _float_rows(node, replacement_rows)
    return _finish(net, op, {node: rows}, outcomes=var.outcomes + labels)


def split_outcome(
    net: Network,
    node: str,
    split_label: str,
    parts: Sequence[str],
    values: Sequence[Sequence[float]],
    form: str = "weights",
) -> Transaction:
    """Refine one outcome of `node` into `parts`, partitioning its mass.

    `values` gives one vector per parent configuration in row order: either
    weights summing to one (``form="weights"``) or the parts' probabilities
    summing to the outcome's old probability (``form="probs"``). Every other
    entry of the table is kept bit-for-bit.
    """
    var = _require_outcome_change(net, node)
    if form not in ("weights", "probs"):
        raise MaintenanceError(f"unknown split input form {form!r}")
    s, part_labels, outcomes = _split_labels(var, split_label, parts)
    rows = net.cpt(node).rows
    vectors = _float_rows(node, values)
    if len(vectors) != len(rows):
        raise MaintenanceError(
            f"expected {len(rows)} split vectors for {node}, got {len(vectors)}"
        )
    k = len(part_labels)
    weights_per_config: list[tuple[float, ...]] = []
    new_rows: list[tuple[float, ...]] = []
    for j, (row, vec) in enumerate(zip(rows, vectors)):
        if len(vec) != k:
            raise MaintenanceError(
                f"config {j} of {node}: expected {k} split values, got {len(vec)}"
            )
        old_value = row[s]
        if form == "weights":
            for w in vec:
                if not 0.0 <= w <= 1.0:
                    raise MaintenanceError(
                        f"config {j} of {node}: weight {w!r} outside [0, 1]"
                    )
            total = math.fsum(vec)
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                raise MaintenanceError(
                    f"config {j} of {node}: weights sum to {total!r}, expected 1"
                )
            weights = vec
        else:
            for x in vec:
                if not x >= 0.0:  # also rejects NaN
                    raise MaintenanceError(
                        f"config {j} of {node}: probability {x!r} is not >= 0"
                    )
            total = math.fsum(vec)
            if abs(total - old_value) > ROW_SUM_TOLERANCE:
                raise MaintenanceError(
                    f"config {j} of {node}: part probabilities sum to {total!r}, "
                    f"expected the outcome's old probability {old_value!r}"
                )
            if old_value == 0.0:
                weights = tuple(1.0 / k for _ in range(k))
            else:
                weights = tuple(min(1.0, x / old_value) for x in vec)
        weights_per_config.append(weights)
        part_values = tuple(w * old_value for w in weights)
        new_rows.append(row[:s] + part_values + row[s + 1:])

    op = EditOp(KIND_SPLIT_OUTCOME, MODE_SPLIT, node, labels=(split_label, *part_labels))
    factors = RescaleFactors("split", tuple(weights_per_config))
    return _finish(net, op, {node: tuple(new_rows)}, outcomes=outcomes, factors=factors)


def split_outcome_general(
    net: Network,
    node: str,
    split_label: str,
    parts: Sequence[str],
    replacement_rows: Sequence[Sequence[float]],
) -> Transaction:
    """Refine an outcome but re-elicit the node's whole table (no reuse)."""
    var = _require_outcome_change(net, node)
    _, part_labels, outcomes = _split_labels(var, split_label, parts)
    op = EditOp(
        KIND_SPLIT_OUTCOME, MODE_GENERAL, node, labels=(split_label,) + part_labels
    )
    rows = _float_rows(node, replacement_rows)
    return _finish(net, op, {node: rows}, outcomes=outcomes)


# ---------------------------------------------------------------------------
# successor completion after an outcome-space change
# ---------------------------------------------------------------------------


def _reuse_successor_rows(
    net: Network,
    successor: str,
    changed_parent: str,
    rows_by_label: Mapping[str, Sequence[Sequence[float]]],
    expected_cause: str,
    mode: str,
) -> Transaction:
    require_variable(net, successor)
    require_variable(net, changed_parent)
    if changed_parent not in net.parents_of(successor):
        raise MaintenanceError(f"{changed_parent} is not a parent of {successor}")
    if successor not in net.stale:
        if rows_by_label:
            raise MaintenanceError(f"{successor} has no pending re-encoding")
        op = EditOp(
            KIND_REUSE_SUCCESSOR_ROWS, mode, successor, source=changed_parent
        )
        return _finish(net, op, {})  # degenerate: nothing changed

    info = net.stale[successor]
    if info.parent != changed_parent:
        raise MaintenanceError(
            f"pending change on {successor} concerns parent {info.parent}, "
            f"not {changed_parent}"
        )
    if info.cause != expected_cause:
        raise MaintenanceError(
            f"pending change on {successor} came from {info.cause}; "
            "use the matching reuse operation"
        )

    needed, inherited = pending_label_split(net, successor)
    new_rows, fresh = _rekey_rows(
        net,
        successor,
        changed_parent,
        net.outcomes(changed_parent),
        inherited,
        rows_by_label,
    )
    op = EditOp(
        KIND_REUSE_SUCCESSOR_ROWS,
        mode,
        successor,
        source=changed_parent,
        labels=tuple(needed),
    )
    return _finish(net, op, {successor: new_rows}, written={successor: fresh})


def reuse_successor_rows_ignored(
    net: Network,
    successor: str,
    changed_parent: str,
    rows_for_new_outcomes: Mapping[str, Sequence[Sequence[float]]],
) -> Transaction:
    """Complete a successor after its parent gained outcomes: rows conditioned
    on the parent's old outcomes are copied verbatim from the previous state;
    only rows conditioned on the new outcomes are taken from elicitation.

    `rows_for_new_outcomes` maps each new outcome label to that outcome's
    rows, one per configuration of the successor's other parents in row
    order.
    """
    return _reuse_successor_rows(
        net,
        successor,
        changed_parent,
        rows_for_new_outcomes,
        KIND_ADD_OUTCOMES,
        MODE_IGNORED,
    )


def reuse_successor_rows_split(
    net: Network,
    successor: str,
    changed_parent: str,
    rows_for_parts: Mapping[str, Sequence[Sequence[float]]],
) -> Transaction:
    """Complete a successor after its parent's outcome was split: rows for the
    untouched outcomes are copied verbatim; rows for the parts are elicited.
    A single-part split is a relabel and needs no rows at all."""
    return _reuse_successor_rows(
        net, successor, changed_parent, rows_for_parts, KIND_SPLIT_OUTCOME, MODE_SPLIT
    )


# ---------------------------------------------------------------------------
# conditioning changes
# ---------------------------------------------------------------------------


def add_arc_assumed_constant(
    net: Network,
    src: str,
    dst: str,
    baseline: str,
    rows_for_other_outcomes: Mapping[str, Sequence[Sequence[float]]],
) -> Transaction:
    """Condition `dst` on `src`, treating `src` = `baseline` as the outcome
    that reproduces the previous state of knowledge: for every configuration
    of the other parents, the baseline-conditioned row is the old row
    verbatim; rows for the remaining outcomes are elicited."""
    src_var = _require_new_arc(net, src, dst)
    if baseline not in src_var.outcomes:
        raise MaintenanceError(f"baseline {baseline!r} is not an outcome of {src}")

    new_rows, fresh = _rekey_rows(
        net, dst, src, src_var.outcomes, {baseline: 0}, rows_for_other_outcomes
    )
    op = EditOp(
        KIND_ADD_ARC, MODE_ASSUMED_CONSTANT, dst, source=src, baseline=baseline
    )
    parents = {dst: net.parents_of(dst) + (src,)}
    return _finish(net, op, {dst: new_rows}, written={dst: fresh}, parents=parents)


def add_arc_general(
    net: Network,
    src: str,
    dst: str,
    replacement_rows: Sequence[Sequence[float]],
) -> Transaction:
    """Condition `dst` on `src` with its whole new table supplied.

    `src` becomes the last parent, so its outcome varies fastest in the new
    row order."""
    _require_new_arc(net, src, dst)
    op = EditOp(KIND_ADD_ARC, MODE_GENERAL, dst, source=src)
    parents = {dst: net.parents_of(dst) + (src,)}
    rows = _float_rows(dst, replacement_rows)
    return _finish(net, op, {dst: rows}, parents=parents)


def add_variable(
    net: Network,
    variable: Variable,
    parents: Sequence[str],
    cpt_rows: Sequence[Sequence[float]],
    *,
    mode: str = MODE_GENERAL,
    baseline: str | None = None,
    successors: Mapping[str, object] | None = None,
) -> Transaction:
    """Introduce a new variable; its own table is always fully elicited.

    `successors` names existing nodes that gain the variable as their new
    last parent. In assumed-constant mode each maps to
    ``{outcome label: rows}`` for the non-baseline outcomes (the baseline
    block reuses the old table verbatim); in general mode each maps to the
    full replacement row list.
    """
    require_valid(net)
    if not isinstance(variable, Variable):
        raise MaintenanceError(f"variable must be a Variable, not {type(variable).__name__}")
    try:  # the first lookups of the new id and of its parents
        if net.has_variable(variable.id):
            raise MaintenanceError(f"variable id {variable.id!r} already exists")
        parent_ids = label_tuple(parents, f"parents of {variable.id}", MaintenanceError)
        hash(parent_ids)
    except TypeError:  # an unhashable id; a valid network holds only strings
        raise MaintenanceError(
            f"ids of {variable.id!r} and its parents must be strings"
        ) from None
    successors = successors or {}
    if not isinstance(successors, Mapping):
        raise MaintenanceError("successors must map nodes to rows")
    for s in successors:
        require_variable(net, s)
    _require_not_stale(net, tuple(successors))
    # rejects a mode that is not legal for add_variable
    op = EditOp(
        KIND_ADD_VARIABLE, mode, variable.id, labels=variable.outcomes, baseline=baseline
    )
    if mode == MODE_ASSUMED_CONSTANT:
        if baseline is None:
            raise MaintenanceError("assumed-constant mode needs a baseline outcome")
        if baseline not in variable.outcomes:
            raise MaintenanceError(
                f"baseline {baseline!r} is not an outcome of {variable.id}"
            )
    if variable.id in parent_ids:  # the one cycle no successor path shows
        raise MaintenanceError(f"{variable.id} cannot be its own parent")
    for s in successors:
        for p in parent_ids:
            if has_path(net, s, p):
                raise MaintenanceError(
                    f"successor {s} reaches parent {p}; adding {variable.id} "
                    "would create a cycle"
                )

    if mode == MODE_ASSUMED_CONSTANT:
        # its labels key the successors' re-keyed rows, so judge the variable
        # first, as the local check in _finish would
        bad = variable_findings(variable)
        if bad:
            raise MaintenanceError(_INVALID_RESULT + bad[0].message)
    new_parents = {variable.id: parent_ids}
    for s in successors:
        new_parents[s] = net.parents_of(s) + (variable.id,)
    tables, written = {variable.id: _float_rows(variable.id, cpt_rows)}, {}
    for s, payload in successors.items():
        if mode == MODE_ASSUMED_CONSTANT:
            tables[s], written[s] = _rekey_rows(
                net, s, variable.id, variable.outcomes, {baseline: 0}, payload
            )
        else:
            tables[s] = _float_rows(s, payload)

    return _finish(net, op, tables, written=written, parents=new_parents, variable=variable)


# ---------------------------------------------------------------------------
# general reassessment edits (no reuse rule applies)
# ---------------------------------------------------------------------------


def replace_cpt(net: Network, node: str, rows: Sequence[Sequence[float]]) -> Transaction:
    """Swap one node's table for a fully elicited one.

    On a node pending re-encoding, the rows must fit the parents' current
    outcome spaces and the pending marker is cleared.
    """
    require_variable(net, node)
    op = EditOp(KIND_REPLACE_CPT, MODE_GENERAL, node)
    return _finish(net, op, {node: _float_rows(node, rows)})


def remove_arc(
    net: Network, src: str, dst: str, replacement_rows: Sequence[Sequence[float]]
) -> Transaction:
    """Drop arc src -> dst; `dst` gets a fully elicited replacement table."""
    require_variable(net, src)
    require_variable(net, dst)
    _require_not_stale(net, (dst,))
    if src not in net.parents_of(dst):
        raise MaintenanceError(f"no arc {src}->{dst}")
    parents = {dst: tuple(p for p in net.parents_of(dst) if p != src)}
    op = EditOp(KIND_REMOVE_ARC, MODE_GENERAL, dst, source=src)
    rows = _float_rows(dst, replacement_rows)
    return _finish(net, op, {dst: rows}, parents=parents)


def remove_outcome(
    net: Network,
    node: str,
    outcome: str,
    *,
    replacement_rows: Sequence[Sequence[float]] | None = None,
    successor_replacements: Mapping[str, Sequence[Sequence[float]]] | None = None,
    renormalize: bool = False,
) -> Transaction:
    """Delete an outcome. General reassessment: replacement tables must be
    supplied for the node and all of its direct successors.

    With ``renormalize=True`` (a convenience outside the reuse rules, flagged
    as such in the report) the node's rows drop the outcome's column and are
    rescaled to sum to one, and successors drop the rows conditioned on the
    removed outcome verbatim; no replacements may be supplied.
    """
    var = _require_outcome_change(net, node)
    children = net.children(node)
    if outcome not in var.outcomes:
        raise MaintenanceError(f"unknown outcome {outcome!r} of {node}")
    if len(var.outcomes) < 2:
        raise MaintenanceError(f"cannot remove the only outcome of {node}")
    idx = var.outcomes.index(outcome)
    kept = var.outcomes[:idx] + var.outcomes[idx + 1:]

    if renormalize:
        if replacement_rows is not None or successor_replacements:
            raise MaintenanceError(
                "renormalize and replacement tables are mutually exclusive"
            )
        new_rows = []
        for j, row in enumerate(net.cpt(node).rows):
            rest = row[:idx] + row[idx + 1:]
            total = math.fsum(rest)
            if total <= 0.0:
                raise MaintenanceError(
                    f"cannot renormalize row {j} of {node}: remaining mass is 0"
                )
            new_rows.append(tuple(x / total for x in rest))
        tables, written = {node: tuple(new_rows)}, {}
        inherited = {label: i for i, label in enumerate(var.outcomes) if i != idx}
        for s in children:
            tables[s], written[s] = _rekey_rows(net, s, node, kept, inherited, {})
    else:
        if replacement_rows is None:
            raise MaintenanceError(f"replacement CPT required for {node}")
        provided = successor_replacements or {}
        if not isinstance(provided, Mapping):
            raise MaintenanceError("successor_replacements must map nodes to rows")
        missing = [s for s in children if s not in provided]
        if missing:
            raise MaintenanceError(
                "replacement CPTs required for successors: " + ", ".join(missing)
            )
        unknown = [s for s in provided if s not in children]
        if unknown:
            raise MaintenanceError(
                "replacements supplied for non-successors: " + ", ".join(unknown)
            )
        tables = {node: _float_rows(node, replacement_rows)}
        tables.update((s, _float_rows(s, provided[s])) for s in children)
        written = {}

    op = EditOp(
        KIND_REMOVE_OUTCOME,
        MODE_GENERAL,
        node,
        labels=(outcome,),
        renormalize=renormalize,
    )
    return _finish(net, op, tables, written=written, outcomes=kept)
