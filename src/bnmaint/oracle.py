"""Exhaustive joint-distribution enumeration, used as independent ground truth.

The joint table is the plain chain-rule product over every full outcome
assignment; no factorization tricks, no approximation. The product starts
from one cell that each table, in declaration order, broadcasts up to the
axes seen so far; every cell still gets 1.0 times each table in that order,
so the joint is bit-identical to a full-size start of ones. A table built by
:func:`joint_distribution` holds its network and builds that product on the
first read of ``probs``. :func:`conditional` enumerates the same product over
only the ancestral closure of its query and evidence (every other node is
barren: its rows sum out to 1), cut to the observed outcome of each evidence
variable. The oracle exists to cross-check the edit operations and is never
used on the editing path itself. Networks with nodes pending re-encoding have
no joint distribution and are refused.

Enumeration needs a structurally sound network. The oracle trusts one fact
from outside: a snapshot whose :attr:`Network.findings` is already known
empty, an edit's checked result or a network whose full findings were
computed, has no structural findings, so it is not walked again
(:func:`bnmaint.network.structural_findings_unless_valid`). Every other
network is walked and refused on its first structural finding; row findings
alone do not stop enumeration. The identities themselves read only the
tables and their product, never an edit's arithmetic or counts, so they
stay independent of the editing code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .network import Network, structural_findings_unless_valid

CELL_CAP = 10**6
TOLERANCE = 1e-8  # the largest deviation either identity allows in one cell


class OracleError(ValueError):
    """The network cannot be enumerated (shape problem or pending edits)."""


class JointSizeError(OracleError):
    """The joint table would exceed the cell cap."""


class ZeroEvidenceError(OracleError):
    """Conditioning on an event of probability zero."""


@dataclass(frozen=True)
class JointTable:
    """Full joint distribution: one probability per complete assignment.

    `probs` has one axis per variable, in network declaration order; entry
    [i1, ..., in] is the probability that each variable takes its i-th
    outcome. A table given `network` and no `probs` builds them from that
    network on first read and keeps them; until then, :func:`conditional`
    enumerates only the slice of that product a query reads.
    """

    variables: tuple[str, ...]
    outcomes: tuple[tuple[str, ...], ...]
    probs: np.ndarray | None
    network: Network | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.probs is None:
            if self.network is None:
                raise OracleError("a joint table needs probs or a network")
            object.__delattr__(self, "probs")  # so the first read reaches __getattr__

    def __getattr__(self, name: str) -> np.ndarray:
        if name != "probs" or "network" not in vars(self):
            raise AttributeError(name)
        probs = _product(self.network, self.variables)
        object.__setattr__(self, "probs", probs)
        return probs

    def total(self) -> float:
        return float(self.probs.sum())

    def prob(self, assignment: Mapping[str, str]) -> float:
        for var in assignment:
            if var not in self.variables:
                raise OracleError(f"unknown variable {var!r}")
        idx = []
        for var, outs in zip(self.variables, self.outcomes):
            if var not in assignment:
                raise OracleError(f"assignment missing variable {var}")
            try:
                idx.append(outs.index(assignment[var]))
            except ValueError:
                raise OracleError(
                    f"unknown outcome {assignment[var]!r} of {var}"
                ) from None
        return float(self.probs[tuple(idx)])


def joint_distribution(net: Network) -> JointTable:
    """The full joint of a structurally sound, complete network, whose
    product is built on the first read of `probs`. A network known valid
    is not walked again; any other is checked for structural findings."""
    if net.stale:
        raise OracleError(
            "network has nodes pending re-encoding: " + ", ".join(sorted(net.stale))
        )
    findings = structural_findings_unless_valid(net)
    if findings:
        raise OracleError("network is not enumerable: " + findings[0].message)

    size = math.prod(len(v.outcomes) for v in net.variables)
    if size > CELL_CAP:
        raise JointSizeError(f"joint table would hold {size} cells (cap {CELL_CAP})")
    return JointTable(net.ids(), tuple(v.outcomes for v in net.variables), None, net)


def _product(net: Network, ids: Sequence[str], chosen: Mapping[str, int] = {}) -> np.ndarray:
    """The chain-rule product over `ids`, ancestrally closed and in
    declaration order, with one axis per id; the axis of each id in
    `chosen` is cut in every table to extent 1, at that outcome index."""
    pos = {v: i for i, v in enumerate(ids)}
    counts = {v: len(net.outcomes(v)) for v in ids}
    cuts = {v: slice(k, k + 1) for v, k in chosen.items()}
    joint = np.ones((1,) * len(ids), dtype=float)
    for v in ids:
        cpt = net.cpt(v)
        family = (*cpt.parent_order, v)
        rows = cpt.rows  # read flat: faster than np.asarray on nested tuples
        cells = np.fromiter(chain.from_iterable(rows), float, len(rows) * len(rows[0]))
        table = cells.reshape([counts[u] for u in family])
        if cuts:
            table = table[tuple(cuts.get(u, slice(None)) for u in family)]
        axes = [pos[u] for u in family]
        shape = [1] * len(ids)
        for a, n in zip(axes, table.shape):
            shape[a] = n
        order = sorted(range(len(axes)), key=axes.__getitem__)
        if order != sorted(order):
            table = np.transpose(table, order)
        joint = joint * table.reshape(shape)
    return joint


def conditional(
    joint: JointTable,
    query_vars: Sequence[str],
    evidence: Mapping[str, str],
) -> np.ndarray:
    """Distribution over joint assignments of `query_vars` given `evidence`.

    Returned flat, enumerated over the query variables in the order given
    (last variable varying fastest), and normalized. Evidence maps variable
    ids to outcome labels; conditioning on nothing yields the marginal.
    A table whose product is not yet built is enumerated over only the
    evidence slice of the ancestral closure of the query and evidence: one
    outcome of each evidence variable, every outcome of the other nodes.
    """
    query = list(query_vars)
    keep = set(query)
    if not query:
        raise OracleError("query must name at least one variable")
    if len(keep) != len(query):
        raise OracleError("duplicate variable in query")
    pos = {v: i for i, v in enumerate(joint.variables)}
    for v in query:
        if v not in pos:
            raise OracleError(f"unknown variable {v!r}")
        if v in evidence:
            raise OracleError(f"variable {v} appears in both query and evidence")
    chosen = {}
    for var, label in evidence.items():
        if var not in pos:
            raise OracleError(f"unknown variable {var!r}")
        try:
            chosen[var] = joint.outcomes[pos[var]].index(label)
        except ValueError:
            raise OracleError(f"unknown outcome {label!r} of {var}") from None

    variables, at = joint.variables, chosen
    if "probs" in vars(joint):
        probs = joint.probs
    else:
        net, closed = joint.network, keep | chosen.keys()
        frontier = list(closed)
        while frontier:
            new = set(net.parents_of(frontier.pop())) - closed
            closed |= new
            frontier += new
        variables = tuple(v for v in variables if v in closed)
        probs, at = _product(net, variables, chosen), dict.fromkeys(chosen, 0)

    sub = probs[tuple([at.get(v, slice(None)) for v in variables])] if at else probs
    remaining = [v for v in variables if v not in chosen]
    sum_axes = tuple(i for i, v in enumerate(remaining) if v not in keep)
    marg = sub.sum(axis=sum_axes) if sum_axes else sub
    total = float(marg.sum())
    if total <= 0.0:
        raise ZeroEvidenceError("evidence has probability zero")
    kept_order = [v for v in remaining if v in keep]
    perm = [kept_order.index(v) for v in query]
    return np.transpose(marg, perm).ravel() / total


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_ignored_identity(
    before: Network, after: Network, node: str, new_outcomes: Sequence[str]
) -> CheckResult:
    """Verify from the joint, enumerated over the ancestral closure of the
    node's family, that, conditioned on the new outcomes not occurring, the
    node's distribution under the new state of information equals the old
    one to within :data:`TOLERANCE`, for every parent configuration.

    Configurations whose old-outcome mass is zero carry no information about
    the old distribution and are skipped.
    """
    old = before.outcomes(node)
    m = len(old)
    expected = old + tuple(new_outcomes)
    if after.outcomes(node) != expected:
        raise OracleError(
            f"{node} does not extend its old outcome space by {tuple(new_outcomes)}"
        )
    # P(parents, node), one row per configuration in the table's row order
    query = [*after.cpt(node).parent_order, node]
    marg = conditional(joint_distribution(after), query, {}).reshape(-1, len(expected))
    old_block = marg[:, :m]
    totals = old_block.sum(axis=1)
    before_rows = np.asarray(before.cpt(node).rows, dtype=float)

    mask = totals > 0.0
    failures: list[str] = []
    if mask.any():
        cond = old_block[mask] / totals[mask, None]
        devs = np.abs(cond - before_rows[mask]).max(axis=1)
        config_ids = np.nonzero(mask)[0]
        for j, dev in zip(config_ids, devs):
            if dev > TOLERANCE:
                failures.append(f"config {int(j)}: deviation {float(dev):.3g}")
    return CheckResult(not failures, tuple(failures))


def check_assumed_constant_identity(
    before: Network, after: Network, var: str, baseline: str
) -> CheckResult:
    """Verify from the joints (every other variable is queried, so the
    closure is the whole network) that conditioning the edited network on
    `var` = `baseline` reproduces the original network's distribution over
    every other variable to within :data:`TOLERANCE` in each cell.

    `var` must be a root in `after`. When `var` is new, the reference is the
    old joint. When `var` already existed (the arc-addition flow), the edit
    leaves P(rest, `var` = `baseline`) unchanged, so the reference is the old
    joint conditioned on `var` = `baseline` as well.
    """
    if after.parents_of(var):
        raise OracleError(f"{var} is not a root in the edited network")
    jt_after = joint_distribution(after)
    rest = [v for v in jt_after.variables if v != var]
    if not rest:
        return CheckResult(True)
    cond = conditional(jt_after, rest, {var: baseline})

    jt_before = joint_distribution(before)
    evidence = {var: baseline} if var in jt_before.variables else {}
    ref = conditional(jt_before, rest, evidence)

    devs = np.abs(cond - ref)
    failures = []
    bad = np.nonzero(devs > TOLERANCE)[0]
    rest_counts = [len(jt_after.outcomes[jt_after.variables.index(v)]) for v in rest]
    for flat in bad[:10]:
        idx = np.unravel_index(int(flat), rest_counts)  # last variable fastest
        at = ",".join(f"{v}={int(i)}" for v, i in zip(rest, idx))
        failures.append("deviation %.3g at %s" % (float(devs[flat]), at))
    if len(bad) > 10:
        failures.append(f"... {len(bad) - 10} more cells")
    return CheckResult(not failures, tuple(failures))
