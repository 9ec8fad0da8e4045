"""Seeded benchmark inputs: layered networks and change scripts.

Everything here is a pure function of its arguments; the same seed gives
byte-identical network files and scripts. The module does not import bnmaint:
inputs are described as plain JSON documents and plain argument tuples, so
the program under test only ever sees generated files and objects.

Layered DAG: `n` nodes in layers of `width`; every node outside layer 0 has
exactly `fan_in` parents in the previous layer and every node outside the
last layer has exactly `fan_in` children (a circulant wiring under a random
permutation per layer). Every node has `arity` outcomes. All nodes in one
layer therefore cost the same to edit, whatever the seed.

A change script is a list of :class:`Op`. Each op carries the label-keyed
JSON record for ``bnmaint apply`` and the row-ordered arguments of the
matching direct library call, both built from the same numbers, plus the
closed-form assessment counts each touched node must report.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field


def _rng(*parts: object) -> random.Random:
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def _row(rng: random.Random, width: int) -> list[float]:
    xs = [rng.uniform(0.05, 1.0) for _ in range(width)]
    total = sum(xs)
    return [x / total for x in xs]


@dataclass
class Net:
    """Plain description of a network: ids in declaration order, outcome
    labels, parent lists and row-ordered tables (last parent fastest)."""

    ids: list[str]
    outcomes: dict[str, list[str]]
    parents: dict[str, list[str]]
    cpts: dict[str, list[list[float]]]
    layer: dict[str, int] = field(default_factory=dict)
    label: str = "E"

    def children(self, node: str) -> list[str]:
        return [c for c in self.ids if node in self.parents[c]]

    def configs(self, parent_ids: list[str]) -> list[dict[str, str]]:
        """Parent assignments as label dicts, in table row order."""
        labels = [self.outcomes[p] for p in parent_ids]
        return [dict(zip(parent_ids, combo)) for combo in itertools.product(*labels)]

    def rows(self, node: str) -> int:
        return math.prod(len(self.outcomes[p]) for p in self.parents[node])

    def cells(self) -> int:
        return sum(len(r) for rows in self.cpts.values() for r in rows)

    def copy_structure(self) -> "Net":
        return Net(
            list(self.ids),
            {k: list(v) for k, v in self.outcomes.items()},
            {k: list(v) for k, v in self.parents.items()},
            dict(self.cpts),
            dict(self.layer),
            self.label,
        )

    def document(self) -> dict:
        """The network file's document, keys in the file format's order."""
        return {
            "format_version": 1,
            "version_label": self.label,
            "variables": [
                {"id": v, "name": v, "outcomes": list(self.outcomes[v])}
                for v in self.ids
            ],
            "parents": {v: list(self.parents[v]) for v in self.ids},
            "cpts": {v: [list(r) for r in self.cpts[v]] for v in self.ids},
        }

    def text(self) -> str:
        return json.dumps(self.document(), indent=2, ensure_ascii=False) + "\n"


def layered_dag(
    n: int,
    fan_in: int,
    arity: int,
    seed: int,
    width: int | None = None,
    prefix: str = "X",
) -> Net:
    """A seeded layered DAG with constant in- and out-degree (see module doc)."""
    width = width or max(fan_in, round(math.sqrt(n)))
    if n % width or width < fan_in:
        raise ValueError(f"n={n} must be a multiple of width={width} >= fan_in")
    rng = _rng("dag", n, fan_in, arity, width, seed)
    digits = max(2, len(str(n - 1)))
    layers = [
        [f"{prefix}{l * width + i:0{digits}d}" for i in range(width)]
        for l in range(n // width)
    ]
    ids = [v for layer in layers for v in layer]
    outcomes = {v: [f"s{i}" for i in range(arity)] for v in ids}
    parents: dict[str, list[str]] = {v: [] for v in ids}
    layer_of = {v: l for l, layer in enumerate(layers) for v in layer}
    for prev, cur in zip(layers, layers[1:]):
        perm = rng.sample(prev, width)
        order = rng.sample(cur, width)
        for j, child in enumerate(order):
            parents[child] = [perm[(j + t) % width] for t in range(fan_in)]
    cpts = {
        v: [_row(rng, arity) for _ in range(arity ** len(parents[v]))] for v in ids
    }
    return Net(ids, outcomes, parents, cpts, layer_of)


@dataclass
class Op:
    """One script operation in both forms.

    `record` is the label-keyed ``bnmaint apply`` record. `call` names the
    bnmaint.edits function and `args`/`kwargs` are its row-ordered arguments
    after the network (an ``add_variable`` variable is a plain dict).
    `expect` maps every touched node to closed-form (elicited, reused,
    baseline) counts; `check` describes the reuse rule the op must obey.
    """

    kind: str
    mode: str
    record: dict
    call: str
    args: tuple
    kwargs: dict
    expect: dict[str, tuple[int, int, int]]
    check: dict
    elicited_cells: int


def _blocks(configs: list[dict], values: list[list[float]]) -> list[dict]:
    return [{"given": g, "values": v} for g, v in zip(configs, values)]


def _labeled_blocks(configs: list[dict], by_label: dict[str, list[list[float]]]):
    return [
        {"outcome": lab, "given": g, "values": v}
        for lab, rows in by_label.items()
        for g, v in zip(configs, rows)
    ]


def _cells(rows) -> int:
    if isinstance(rows, dict):
        return sum(_cells(v) for v in rows.values())
    return sum(len(r) for r in rows)


class ScriptBuilder:
    """Builds a script against a running copy of the network's structure.

    Only outcome spaces and parent lists are tracked; tables are read from
    the input network, so ops that need table values (split in ``probs``
    form, renormalizing removal) must target nodes no earlier op touched.
    """

    def __init__(self, net: Net, rng: random.Random):
        self.input = net
        self.net = net.copy_structure()
        self.rng = rng
        self.ops: list[Op] = []
        self.touched: set[str] = set()
        self._serial = 0

    def _fresh(self, stem: str) -> str:
        self._serial += 1
        return f"{stem}{self._serial}"

    def _touch(self, *nodes: str) -> None:
        self.touched.update(nodes)

    def _full_rows(self, parent_ids: list[str], width: int) -> list[list[float]]:
        return [_row(self.rng, width) for _ in self.net.configs(parent_ids)]

    def _emit(self, op: Op) -> Op:
        self.ops.append(op)
        return op

    # -- outcome-space growth --------------------------------------------

    def add_outcomes(self, node: str, k: int, mode: str) -> None:
        net = self.net
        old = list(net.outcomes[node])
        m, rows_n = len(old), net.rows(node)
        labels = [self._fresh("n") for _ in range(k)]
        configs = net.configs(net.parents[node])
        if mode == "ignored":
            values = []
            for _ in configs:
                mass = self.rng.uniform(0.1, 0.4)
                values.append([mass * w for w in _row(self.rng, k)])
            call = "add_outcomes_ignored"
            expect = (k * rows_n, (m - 1) * rows_n, (m + k - 1) * rows_n)
            check = {"rule": "ignored", "node": node, "m": m, "k": k}
        else:
            values = self._full_rows(net.parents[node], m + k)
            call = "add_outcomes_general"
            cost = (m + k - 1) * rows_n
            expect = (cost, 0, cost)
            check = {"rule": "rows", "node": node}
        record = {
            "op": "add_outcomes",
            "mode": mode,
            "node": node,
            "outcomes": labels,
            "blocks": _blocks(configs, values),
        }
        self._emit(
            Op("add_outcomes", mode, record, call, (node, labels, values), {},
               {node: expect}, check, _cells(values))
        )
        self._touch(node)
        net.outcomes[node] = old + labels
        self._complete_successors(node, old, labels, "ignored")

    def split_outcome(self, node: str, k: int, mode: str, form: str = "weights") -> None:
        net = self.net
        old = list(net.outcomes[node])
        m, rows_n = len(old), net.rows(node)
        s = self.rng.randrange(m)
        parts = [self._fresh("p") for _ in range(k)]
        configs = net.configs(net.parents[node])
        if mode == "split":
            weights = [_row(self.rng, k) for _ in configs]
            if form == "probs":
                if node in self.touched:
                    raise ValueError(f"probs-form split needs an untouched node, not {node}")
                table = self.input.cpts[node]
                values = [[w * table[j][s] for w in ws] for j, ws in enumerate(weights)]
            else:
                values = weights
            call, kwargs = "split_outcome", {"form": form}
            expect = ((k - 1) * rows_n, (m - 1) * rows_n, (m + k - 2) * rows_n)
            check = {"rule": "split", "node": node, "s": s, "k": k}
            record = {"op": "split_outcome", "mode": "split", "form": form}
        else:
            values = self._full_rows(net.parents[node], m + k - 1)
            call, kwargs = "split_outcome_general", {}
            cost = (m + k - 2) * rows_n
            expect = (cost, 0, cost)
            check = {"rule": "rows", "node": node}
            record = {"op": "split_outcome", "mode": "general"}
        record.update(
            node=node, outcome=old[s], parts=parts, blocks=_blocks(configs, values)
        )
        self._emit(
            Op("split_outcome", mode, record, call, (node, old[s], parts, values),
               kwargs, {node: expect}, check, _cells(values))
        )
        self._touch(node)
        net.outcomes[node] = old[:s] + parts + old[s + 1:]
        self._complete_successors(node, old, parts, "split")

    def _complete_successors(
        self, parent: str, old: list[str], needed: list[str], mode: str
    ) -> None:
        """One reuse_successor_rows op per child, rows for the new labels."""
        net = self.net
        for child in net.children(parent):
            others = [p for p in net.parents[child] if p != parent]
            configs = net.configs(others)
            p_width = len(net.outcomes[child])
            by_label = {
                lab: [_row(self.rng, p_width) for _ in configs] for lab in needed
            }
            rows_other = len(configs)
            baseline = (p_width - 1) * len(net.outcomes[parent]) * rows_other
            elicited = (p_width - 1) * len(needed) * rows_other
            record = {
                "op": "reuse_successor_rows",
                "node": child,
                "parent": parent,
                "blocks": _labeled_blocks(configs, by_label),
            }
            self._emit(
                Op("reuse_successor_rows", mode, record,
                   f"reuse_successor_rows_{mode}", (child, parent, by_label), {},
                   {child: (elicited, baseline - elicited, baseline)},
                   {"rule": "successor", "node": child, "parent": parent,
                    "old": list(old)},
                   _cells(by_label))
            )
            self._touch(child)

    # -- conditioning changes --------------------------------------------

    def add_arc(self, src: str, dst: str, mode: str) -> None:
        net = self.net
        src_outs = net.outcomes[src]
        ka, p_width = len(src_outs), len(net.outcomes[dst])
        configs = net.configs(net.parents[dst])
        rows_other = len(configs)
        if mode == "assumed-constant":
            baseline = self.rng.choice(src_outs)
            by_label = {
                lab: [_row(self.rng, p_width) for _ in configs]
                for lab in src_outs
                if lab != baseline
            }
            record = {
                "op": "add_arc", "mode": mode, "from": src, "to": dst,
                "baseline": baseline, "blocks": _labeled_blocks(configs, by_label),
            }
            call, args = "add_arc_assumed_constant", (src, dst, baseline, by_label)
            expect = (
                (p_width - 1) * (ka - 1) * rows_other,
                (p_width - 1) * rows_other,
                (p_width - 1) * ka * rows_other,
            )
            check = {"rule": "assumed-constant", "node": dst, "var": src,
                     "baseline": baseline}
            cells = _cells(by_label)
        else:
            values = self._full_rows(net.parents[dst] + [src], p_width)
            record = {
                "op": "add_arc", "mode": mode, "from": src, "to": dst,
                "blocks": _blocks(net.configs(net.parents[dst] + [src]), values),
            }
            call, args = "add_arc_general", (src, dst, values)
            cost = (p_width - 1) * ka * rows_other
            expect = (cost, 0, cost)
            check = {"rule": "rows", "node": dst}
            cells = _cells(values)
        self._emit(Op("add_arc", mode, record, call, args, {}, {dst: expect}, check, cells))
        self._touch(dst)
        net.parents[dst] = net.parents[dst] + [src]

    def add_variable(
        self, arity: int, parents: list[str], successors: list[str], mode: str
    ) -> str:
        net = self.net
        vid = self._fresh("V")
        outs = [f"{vid.lower()}o{i}" for i in range(arity)]
        own = self._full_rows(parents, arity)
        own_configs = net.configs(parents)
        expect = {vid: ((arity - 1) * len(own), 0, (arity - 1) * len(own))}
        record = {
            "op": "add_variable",
            "mode": mode,
            "variable": {"id": vid, "name": vid, "outcomes": outs},
            "parents": list(parents),
            "blocks": _blocks(own_configs, own),
        }
        baseline = None
        if mode == "assumed-constant":
            baseline = self.rng.choice(outs)
            record["baseline"] = baseline
        succ_args: dict = {}
        succ_records = []
        cells = _cells(own)
        # the new variable's outcomes are visible to successor blocks
        net.outcomes[vid] = outs
        for s in successors:
            p_width = len(net.outcomes[s])
            configs = net.configs(net.parents[s])
            rows_other = len(configs)
            if mode == "assumed-constant":
                by_label = {
                    lab: [_row(self.rng, p_width) for _ in configs]
                    for lab in outs
                    if lab != baseline
                }
                succ_args[s] = by_label
                succ_records.append({"node": s, "blocks": _labeled_blocks(configs, by_label)})
                expect[s] = (
                    (p_width - 1) * (arity - 1) * rows_other,
                    (p_width - 1) * rows_other,
                    (p_width - 1) * arity * rows_other,
                )
                cells += _cells(by_label)
            else:
                values = self._full_rows(net.parents[s] + [vid], p_width)
                succ_args[s] = values
                succ_records.append(
                    {"node": s, "blocks": _blocks(net.configs(net.parents[s] + [vid]), values)}
                )
                cost = (p_width - 1) * arity * rows_other
                expect[s] = (cost, 0, cost)
                cells += _cells(values)
        record["successors"] = succ_records
        variable = {"id": vid, "name": vid, "outcomes": outs}
        kwargs = {"mode": mode, "baseline": baseline, "successors": succ_args}
        check = {"rule": "assumed-constant" if mode == "assumed-constant" else "rows",
                 "node": vid, "var": vid, "baseline": baseline,
                 "successors": list(successors)}
        self._emit(
            Op("add_variable", mode, record, "add_variable",
               (variable, list(parents), own), kwargs, expect, check, cells)
        )
        net.ids.append(vid)
        net.parents[vid] = list(parents)
        net.layer[vid] = -1
        for s in successors:
            net.parents[s] = net.parents[s] + [vid]
        self._touch(vid, *successors)
        return vid

    # -- general reassessment ---------------------------------------------

    def remove_arc(self, src: str, dst: str) -> None:
        net = self.net
        remaining = [p for p in net.parents[dst] if p != src]
        values = self._full_rows(remaining, len(net.outcomes[dst]))
        cost = (len(net.outcomes[dst]) - 1) * len(values)
        record = {
            "op": "remove_arc", "from": src, "to": dst,
            "blocks": _blocks(net.configs(remaining), values),
        }
        self._emit(
            Op("remove_arc", "general", record, "remove_arc", (src, dst, values), {},
               {dst: (cost, 0, cost)}, {"rule": "rows", "node": dst}, _cells(values))
        )
        self._touch(dst)
        net.parents[dst] = remaining

    def remove_outcome(self, node: str, renormalize: bool) -> None:
        net = self.net
        old = list(net.outcomes[node])
        idx = self.rng.randrange(len(old))
        m, rows_n = len(old), net.rows(node)
        children = net.children(node)
        record = {"op": "remove_outcome", "node": node, "outcome": old[idx]}
        reduced = old[:idx] + old[idx + 1:]
        net.outcomes[node] = reduced  # successor configs see the reduced space
        expect = {}
        if renormalize:
            if node in self.touched:
                raise ValueError(f"renormalizing removal needs an untouched node, not {node}")
            record["renormalize"] = True
            args, kwargs, cells = (node, old[idx]), {"renormalize": True}, 0
            expect[node] = (0, (m - 2) * rows_n, (m - 2) * rows_n)
            for s in children:
                c = (len(net.outcomes[s]) - 1) * net.rows(s)
                expect[s] = (0, c, c)
            check = {"rule": "renormalize", "node": node, "idx": idx,
                     "successors": children}
        else:
            values = self._full_rows(net.parents[node], m - 1)
            record["blocks"] = _blocks(net.configs(net.parents[node]), values)
            succ = {}
            succ_records = []
            for s in children:
                rows = self._full_rows(net.parents[s], len(net.outcomes[s]))
                succ[s] = rows
                succ_records.append({"node": s, "blocks": _blocks(net.configs(net.parents[s]), rows)})
                c = (len(net.outcomes[s]) - 1) * len(rows)
                expect[s] = (c, 0, c)
            record["successors"] = succ_records
            args = (node, old[idx])
            kwargs = {"replacement_rows": values, "successor_replacements": succ}
            expect[node] = ((m - 2) * rows_n, 0, (m - 2) * rows_n)
            cells = _cells(values) + _cells(succ)
            check = {"rule": "rows", "node": node, "successors": children}
        self._emit(
            Op("remove_outcome", "general", record, "remove_outcome", args, kwargs,
               expect, check, cells)
        )
        self._touch(node, *children)

    def replace_cpt(self, node: str) -> None:
        net = self.net
        values = self._full_rows(net.parents[node], len(net.outcomes[node]))
        cost = (len(net.outcomes[node]) - 1) * len(values)
        record = {
            "op": "replace_cpt", "node": node,
            "blocks": _blocks(net.configs(net.parents[node]), values),
        }
        self._emit(
            Op("replace_cpt", "general", record, "replace_cpt", (node, values), {},
               {node: (cost, 0, cost)}, {"rule": "rows", "node": node}, _cells(values))
        )
        self._touch(node)


@dataclass
class Case:
    """One network file with its script, ready to run."""

    name: str
    net: Net
    text: str
    ops: list[Op]
    final: Net  # structure after the script (tables not tracked)
    touched: set[str]

    @property
    def script_text(self) -> str:
        return json.dumps([op.record for op in self.ops], indent=1) + "\n"


class _Picker:
    """Draws nodes from given layers whose neighbourhoods (the node, its
    parents and children) are disjoint from every earlier pick."""

    def __init__(self, net: Net, rng: random.Random):
        self.net, self.rng = net, rng
        self.used: set[str] = set()
        self.by_layer: dict[int, list[str]] = {}
        for v in net.ids:
            self.by_layer.setdefault(net.layer[v], []).append(v)

    def __call__(self, layer: int, alone: bool = False) -> str:
        """With `alone`, only the node itself must be unused: enough for an
        arc's ends, whose edit leaves the neighbours' tables alone."""
        def hood(v: str) -> set[str]:
            return {v} if alone else {v, *self.net.parents[v], *self.net.children(v)}

        pool = [v for v in self.by_layer[layer] if not hood(v) & self.used]
        v = self.rng.choice(pool)
        self.used.update(hood(v))
        return v


def _case(name: str, net: Net, builder: ScriptBuilder) -> Case:
    return Case(name, net, net.text(), builder.ops, builder.net, builder.touched)


def edit_case(seed: int, n: int = 1600, fan_in: int = 3, arity: int = 3) -> Case:
    """Every op kind and mode on a large layered DAG.

    Outcome-space edits are followed by their successor completions. Arc and
    variable additions all land in the layer three quarters deep, so every
    cycle check walks the same number of descendants (about a quarter of the
    network); they make up a fifth of the ops so that the 90th percentile of
    op latency falls well inside their group.
    """
    net = layered_dag(n, fan_in, arity, seed)
    rng = _rng("edit-script", n, fan_in, arity, seed)
    depth = max(net.layer.values()) + 1
    mid = depth * 3 // 4
    early = mid - 4
    pick = _Picker(net, rng)
    fast_layers = [l for l in range(1, depth - 1) if abs(l - mid) > 1 and abs(l - early) > 1]
    fast = lambda: pick(rng.choice(fast_layers))  # noqa: E731
    b = ScriptBuilder(net, rng)
    b.add_outcomes(fast(), 1, "ignored")
    b.split_outcome(fast(), 2, "split", "weights")
    b.add_arc(pick(early, True), pick(mid, True), "assumed-constant")
    b.add_outcomes(fast(), 2, "ignored")
    b.split_outcome(fast(), 2, "split", "probs")
    b.add_arc(pick(early, True), pick(mid, True), "general")
    b.add_variable(2, [pick(early, True)], [pick(mid, True)], "assumed-constant")
    b.add_outcomes(fast(), 1, "general")
    b.split_outcome(fast(), 3, "general")
    b.add_arc(pick(early, True), pick(mid, True), "assumed-constant")
    b.remove_outcome(fast(), renormalize=False)
    b.remove_outcome(fast(), renormalize=True)
    b.add_arc(pick(early, True), pick(mid, True), "general")
    dst = fast()
    b.remove_arc(rng.choice(net.parents[dst]), dst)
    b.replace_cpt(fast())
    b.add_variable(3, [pick(early, True)], [pick(mid, True)], "general")
    b.add_arc(pick(early, True), pick(mid, True), "assumed-constant")
    dst = fast()
    b.remove_arc(rng.choice(net.parents[dst]), dst)
    b.replace_cpt(fast())
    b.add_variable(2, [pick(early, True)], [pick(mid, True)], "assumed-constant")
    return _case("edit-large", net, b)


def io_case(seed: int, n: int = 200, fan_in: int = 4, arity: int = 4) -> Case:
    """Large tables, a few ops of every kind. Most edits target the last
    layers, so cycle checks and successor completions stay short; three arcs
    from layer 0 into layer 2 make every cycle check walk most of the network.
    Those three are a fifth of the ops, so the 90th percentile of op latency
    falls inside their group rather than between two op kinds."""
    net = layered_dag(n, fan_in, arity, seed, width=20)
    rng = _rng("io-script", n, fan_in, arity, seed)
    depth = max(net.layer.values()) + 1
    last, prev, before_prev = depth - 1, depth - 2, depth - 3
    pick = _Picker(net, rng)
    b = ScriptBuilder(net, rng)
    deep_arc = lambda: b.add_arc(pick(0, True), pick(2, True), "assumed-constant")  # noqa: E731
    b.add_outcomes(pick(prev), 1, "ignored")
    deep_arc()
    b.split_outcome(pick(last, True), 2, "split", "probs")
    b.add_arc(pick(before_prev, True), pick(last, True), "assumed-constant")
    b.add_variable(2, [pick(before_prev, True)], [pick(last, True)], "assumed-constant")
    deep_arc()
    dst = pick(last, True)
    b.remove_arc(rng.choice(net.parents[dst]), dst)
    b.remove_outcome(pick(last, True), renormalize=True)
    b.replace_cpt(pick(last, True))
    deep_arc()
    return _case("io-large", net, b)


def small_case(seed: int, index: int) -> Case:
    """A 9-node, 3-layer network (fan-in 2, three outcomes) and a script of
    the reuse edits plus one of each general edit; its joint stays far
    under the oracle's cell cap."""
    net = layered_dag(9, 2, 3, f"{seed}.{index}", width=3, prefix=f"S{index}_")
    rng = _rng("small-script", seed, index)
    layer = {l: [v for v in net.ids if net.layer[v] == l] for l in range(3)}
    b = ScriptBuilder(net, rng)
    x, y = rng.sample(layer[1], 2)
    b.add_outcomes(x, 1, "ignored")
    b.split_outcome(y, 2, "split", "weights")
    src, dst = rng.choice(layer[0]), rng.choice(layer[2])
    b.add_arc(src, dst, "assumed-constant")
    b.add_variable(2, [], [rng.choice(layer[2])], "assumed-constant")
    arc_dst = rng.choice(layer[2])
    b.remove_arc(rng.choice(b.net.parents[arc_dst]), arc_dst)
    b.replace_cpt(rng.choice(layer[2]))
    b.remove_outcome(rng.choice(layer[0]), renormalize=False)
    return _case(f"small-{index}", net, b)


def small_cases(seed: int, count: int) -> list[Case]:
    return [small_case(seed, i) for i in range(count)]


def faulted_text(net: Net, seed: int) -> tuple[str, list[tuple[str, str]]]:
    """A copy of `net`'s file with three planted faults, and the (node, kind)
    findings they must produce: one row off normalization, one negative entry
    with its row still summing to one, and one table missing."""
    rng = _rng("faults", seed)
    doc = net.document()
    a, b, c = rng.sample(net.ids, 3)
    row = doc["cpts"][a][rng.randrange(len(doc["cpts"][a]))]
    row[0] = row[0] / 2  # every entry is >= 0.0125, so the sum drops clearly
    row = doc["cpts"][b][rng.randrange(len(doc["cpts"][b]))]
    row[0], row[1] = -0.01, row[1] + row[0] + 0.01  # stays <= 1: others >= 0.0125
    del doc["cpts"][c]
    text = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    return text, [(a, "sums to"), (b, "outside [0, 1]"), (c, "no CPT")]
