"""Output checks, computed apart from ``bnmaint.edits`` and ``bnmaint.cost``.

Table checks compare each transaction's before and after tables through the
benchmark's own index arithmetic and the generator's closed-form counts.
Oracle checks rebuild conditionals from ``bnmaint.oracle``'s joint
enumeration, on the whole network when its joint is small and on the edited
node's family (its parents made uniform roots) otherwise; a family carries
exactly the conditional the reuse rule speaks of.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from bnmaint import oracle
from bnmaint.network import Cpt, Network, Variable

import gen

REL_TOL = 1e-12
ROW_TOL = 1e-9
ORACLE_TOL = 1e-9


class CheckFailure(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _index(config: Sequence[int], radices: Sequence[int]) -> int:
    i = 0
    for c, r in zip(config, radices):
        i = i * r + c
    return i


def _configs(radices: Sequence[int]):
    return itertools.product(*(range(r) for r in radices))


# ---------------------------------------------------------------------------
# table checks on one transaction
# ---------------------------------------------------------------------------


def supplied_tables(op: gen.Op) -> dict[str, list[list[float]]]:
    """Whole tables an op supplies verbatim, by node."""
    a, kw = op.args, op.kwargs
    if op.call in ("add_outcomes_general", "add_arc_general", "remove_arc"):
        return {a[0] if op.call == "add_outcomes_general" else a[1]: a[2]}
    if op.call == "split_outcome_general":
        return {a[0]: a[3]}
    if op.call == "replace_cpt":
        return {a[0]: a[1]}
    if op.call == "add_variable":
        out = {a[0]["id"]: a[2]}
        if kw["mode"] == "general":
            out.update(kw["successors"])
        return out
    if op.call == "remove_outcome" and not kw.get("renormalize"):
        return {a[0]: kw["replacement_rows"], **kw["successor_replacements"]}
    return {}


def _baseline_block(before: Network, after: Network, node: str, var: str, baseline: str):
    """Rows of `node` conditioned on `var` = `baseline` (var is the last
    parent in `after`) must be the old rows verbatim."""
    old = before.cpt(node).rows
    width = len(after.outcomes(var))
    b = after.outcomes(var).index(baseline)
    new = after.cpt(node).rows
    require(len(new) == len(old) * width, f"{node}: table size after adding {var}")
    for j, row in enumerate(old):
        require(new[j * width + b] == row, f"{node}: baseline row {j} not copied verbatim")


def check_tables(op: gen.Op, before: Network, after: Network) -> int:
    """Check one transaction's tables; returns the cells copied verbatim."""
    touched = set(op.expect)
    for vid in before.ids():
        if vid not in touched:
            require(
                after.cpt(vid).rows == before.cpt(vid).rows,
                f"{op.call}: untouched node {vid} changed",
            )
    complete = [n for n in touched if n not in after.stale]
    for n in complete:
        for j, row in enumerate(after.cpt(n).rows):
            require(abs(math.fsum(row) - 1.0) <= ROW_TOL, f"{n}: row {j} off normalization")
    for node, rows in supplied_tables(op).items():
        require(
            after.cpt(node).rows == tuple(tuple(r) for r in rows),
            f"{op.call}: table of {node} is not the supplied one",
        )

    rule, node = op.check["rule"], op.check["node"]
    copied = 0
    if rule == "ignored":
        m = op.check["m"]
        for old, new in zip(before.cpt(node).rows, after.cpt(node).rows):
            lam = 1.0 - math.fsum(new[m:])
            for x, y in zip(old, new[:m]):
                require(abs(y - lam * x) <= REL_TOL, f"{node}: old entry not λ·old")
    elif rule == "split":
        s, k = op.check["s"], op.check["k"]
        for old, new in zip(before.cpt(node).rows, after.cpt(node).rows):
            require(new[:s] == old[:s] and new[s + k:] == old[s + 1:],
                    f"{node}: unsplit entries not copied verbatim")
            require(abs(math.fsum(new[s:s + k]) - old[s]) <= REL_TOL,
                    f"{node}: parts do not sum to the split outcome")
            copied += len(old) - 1
    elif rule == "successor":
        parent, old_labels = op.check["parent"], op.check["old"]
        ps = after.parents_of(node)
        pos = ps.index(parent)
        new_radices = after.radices(node)
        old_radices = list(new_radices)
        old_radices[pos] = len(old_labels)
        labels = after.outcomes(parent)
        old_rows, new_rows = before.cpt(node).rows, after.cpt(node).rows
        for cfg in _configs(new_radices):
            label = labels[cfg[pos]]
            if label in old_labels:
                old_cfg = list(cfg)
                old_cfg[pos] = old_labels.index(label)
                require(
                    new_rows[_index(cfg, new_radices)] == old_rows[_index(old_cfg, old_radices)],
                    f"{node}: row for old outcome {label} of {parent} not reused verbatim",
                )
                copied += len(new_rows[0])
    elif rule == "assumed-constant":
        var, baseline = op.check["var"], op.check["baseline"]
        for s in op.check.get("successors", [node]):
            _baseline_block(before, after, s, var, baseline)
            copied += sum(len(r) for r in before.cpt(s).rows)
    elif rule == "renormalize":
        idx = op.check["idx"]
        for old, new in zip(before.cpt(node).rows, after.cpt(node).rows):
            rest = old[:idx] + old[idx + 1:]
            total = math.fsum(rest)
            for x, y in zip(rest, new):
                require(abs(y - x / total) <= REL_TOL, f"{node}: row not renormalized")
        for s in op.check["successors"]:
            radices = before.radices(s)
            pos = before.parents_of(s).index(node)
            kept = [
                before.cpt(s).rows[_index(cfg, radices)]
                for cfg in _configs(radices)
                if cfg[pos] != idx
            ]
            require(tuple(kept) == after.cpt(s).rows, f"{s}: kept rows altered")
            copied += sum(len(r) for r in kept)
    return copied


def check_report(op: gen.Op, report) -> None:
    for entry in report.nodes:
        got = (entry.elicited, entry.reused, entry.baseline)
        want = op.expect.get(entry.node, (0, 0, 0))
        require(got == want, f"{op.call}: counts for {entry.node} {got} != closed form {want}")


# ---------------------------------------------------------------------------
# oracle checks
# ---------------------------------------------------------------------------


def family(net: Network, node: str, extra_roots: Sequence[str] = ()) -> Network:
    """`node` with its parents (and `extra_roots`) as uniform roots."""
    roots = [*net.parents_of(node), *extra_roots]
    variables = [net.variable(r) for r in roots] + [net.variable(node)]
    parents = {r: () for r in roots}
    parents[node] = net.parents_of(node)
    cpts = {
        r: Cpt(r, (), ((1.0 / len(net.outcomes(r)),) * len(net.outcomes(r)),))
        for r in roots
    }
    cpts[node] = net.cpt(node)
    return Network(net.version_label, tuple(variables), parents, cpts)


def conditional_rows(net: Network, node: str) -> list[list[float]]:
    """P(node | parents) in table row order, read off the joint."""
    joint = oracle.joint_distribution(net)
    ps = list(net.parents_of(node))
    flat = oracle.conditional(joint, ps + [node], {})
    width = len(net.outcomes(node))
    rows = []
    for j in range(len(flat) // width):
        row = [float(x) for x in flat[j * width:(j + 1) * width]]
        total = math.fsum(row)
        rows.append([x / total for x in row])
    return rows


def _close_rows(got, want, what: str) -> None:
    require(len(got) == len(want), f"{what}: row count")
    for j, (g, w) in enumerate(zip(got, want)):
        require(
            all(abs(a - b) <= ORACLE_TOL for a, b in zip(g, w)) and len(g) == len(w),
            f"{what}: row {j} deviates from the joint's conditional",
        )


Task = Callable[[], None]


def oracle_tasks(
    ops: Sequence[gen.Op],
    befores: Sequence[Network],
    afters: Sequence[Network],
    local: bool,
) -> list[Task]:
    """One or more closures per transaction; each raises CheckFailure.

    Outcome-space edits leave successors pending, so their identities are
    checked on the network after the last successor completion of the group.
    """
    tasks: list[Task] = []
    complete_after: list[Network] = []
    nxt = None
    for a in reversed(afters):
        if not a.stale:
            nxt = a
        complete_after.append(nxt)
    complete_after.reverse()
    group_before: list[Network] = []
    start = None
    for b in befores:
        if not b.stale:
            start = b
        group_before.append(start)

    def scope(net: Network, node: str, extra: Sequence[str] = ()) -> Network:
        return family(net, node, extra) if local else net

    for op, before, after, gb, ga in zip(ops, befores, afters, group_before, complete_after):
        rule, node = op.check["rule"], op.check["node"]
        if rule == "ignored":
            labels = tuple(op.args[1])

            def t(gb=gb, ga=ga, node=node, labels=labels):
                res = oracle.check_ignored_identity(scope(gb, node), scope(ga, node), node, labels)
                require(res.ok, f"{node}: ignored-outcome identity fails: {res.failures[:1]}")
            tasks.append(t)
        elif rule == "split":
            s, k = op.check["s"], op.check["k"]

            def t(gb=gb, ga=ga, node=node, s=s, k=k):
                got = conditional_rows(scope(ga, node), node)
                for j, old in enumerate(gb.cpt(node).rows):
                    row = got[j]
                    merged = row[:s] + [math.fsum(row[s:s + k])] + row[s + k:]
                    require(all(abs(x - y) <= ORACLE_TOL for x, y in zip(merged, old)),
                            f"{node}: split does not conserve row {j}")
            tasks.append(t)
        elif rule == "successor":
            parent, old_labels = op.check["parent"], op.check["old"]

            def t(gb=gb, ga=ga, node=node, parent=parent, old_labels=old_labels):
                check_successor_oracle(gb, scope(ga, node), node, parent, old_labels)
            tasks.append(t)
        elif rule == "assumed-constant":
            var, baseline = op.check["var"], op.check["baseline"]
            for s in op.check.get("successors", [node]):
                def t(before=before, after=after, s=s, var=var, baseline=baseline):
                    # an arc's source may have other children, which
                    # conditioning on it would move: its identity is the
                    # one on the target's family, where the source is a root
                    if local or before.has_variable(var):
                        extra = (var,) if before.has_variable(var) else ()
                        b_net, a_net = family(before, s, extra), family(after, s)
                    else:
                        b_net, a_net = before, after
                    res = oracle.check_assumed_constant_identity(b_net, a_net, var, baseline)
                    require(res.ok, f"{s}: assumed-constant identity fails given {var}")
                tasks.append(t)
        elif rule == "renormalize":
            idx = op.check["idx"]

            def t(before=before, after=after, node=node, idx=idx):
                got = conditional_rows(scope(after, node), node)
                want = []
                for old in before.cpt(node).rows:
                    rest = old[:idx] + old[idx + 1:]
                    want.append([x / math.fsum(rest) for x in rest])
                _close_rows(got, want, node)
            tasks.append(t)
        for target, rows in supplied_tables(op).items():
            def t(after=after, target=target, rows=rows):
                _close_rows(conditional_rows(scope(after, target), target), rows, target)
            tasks.append(t)
    return tasks


def check_successor_oracle(
    before: Network, after: Network, node: str, parent: str, old_labels: Sequence[str]
) -> None:
    """P(node | parents) on the parent's old outcomes equals the old rows."""
    got = conditional_rows(after, node)
    pos = after.parents_of(node).index(parent)
    radices = after.radices(node)
    old_radices = list(radices)
    old_radices[pos] = len(old_labels)
    labels = after.outcomes(parent)
    old_rows = before.cpt(node).rows
    for cfg in _configs(radices):
        label = labels[cfg[pos]]
        if label in old_labels:
            old_cfg = list(cfg)
            old_cfg[pos] = old_labels.index(label)
            row, old = got[_index(cfg, radices)], old_rows[_index(old_cfg, old_radices)]
            require(
                all(abs(x - y) <= ORACLE_TOL for x, y in zip(row, old)),
                f"{node}: conditional on old outcome {label} of {parent} changed",
            )


def chain_rule_joint(net: Network) -> dict[tuple[int, ...], float]:
    """The joint by the plain chain rule, in pure Python, keyed by outcome
    indices in declaration order."""
    ids = net.ids()
    pos = {v: i for i, v in enumerate(ids)}
    widths = [len(net.outcomes(v)) for v in ids]
    out = {}
    for assignment in itertools.product(*(range(w) for w in widths)):
        p = 1.0
        for v in ids:
            ps = net.parents_of(v)
            row = net.cpt(v).rows[_index([assignment[pos[q]] for q in ps],
                                         [widths[pos[q]] for q in ps])]
            p *= row[assignment[pos[v]]]
        out[assignment] = p
    return out


def check_joint_against_chain_rule(net: Network) -> None:
    table = oracle.joint_distribution(net)
    for assignment, p in chain_rule_joint(net).items():
        require(abs(float(table.probs[assignment]) - p) <= REL_TOL,
                f"joint cell {assignment} differs from the chain-rule product")


def with_perturbed_cell(net: Network, node: str, row: int, delta: float = 1e-3) -> Network:
    """Move `delta` of mass between the first two cells of one row, so the
    network stays valid but one reused cell is wrong."""
    rows = [list(r) for r in net.cpt(node).rows]
    rows[row][0] += delta
    rows[row][1] -= delta
    cpts = dict(net.cpts)
    cpts[node] = Cpt(node, net.parents_of(node), tuple(tuple(r) for r in rows))
    return Network(net.version_label, net.variables, net.parents, cpts, net.stale)


def diff_nodes(lines: Sequence[str]) -> set[str]:
    """Nodes named by ``bnmaint diff`` output: variables added or removed,
    outcome changes, the child end of arc changes, and table cells."""
    named = set()
    for line in lines:
        if line.startswith("version_label"):
            continue
        if line.startswith(("outcomes[", "cpt[")):
            named.add(line[line.index("[") + 1:line.index("]")])
        elif "->" in line.split(" ", 1)[1]:
            named.add(line.split("->", 1)[1].strip())
        else:
            named.add(line.split(" ", 1)[1].strip())
    return named


def silent_in_diff(case: gen.Case) -> set[str]:
    """Touched nodes whose own outcomes and parents are unchanged but which
    sit under a parent whose outcome space changed; diff skips their tables."""
    start, final = case.net, case.final
    out = set()
    for v in case.touched:
        if v not in start.outcomes:
            continue
        same = start.outcomes[v] == final.outcomes[v] and start.parents[v] == final.parents[v]
        moved = any(start.outcomes[p] != final.outcomes[p] for p in start.parents[v])
        if same and moved:
            out.add(v)
    return out


def variable_of(spec: dict) -> Variable:
    return Variable(spec["id"], spec["name"], tuple(spec["outcomes"]))
