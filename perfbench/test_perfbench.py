"""Tests of the benchmark itself: seeded inputs are reproducible, and every
output check fails on a planted fault.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from bnmaint import oracle  # noqa: E402
from bnmaint.network import Cpt  # noqa: E402


def _workload(tmp_path, cases, local=False, faulted=False):
    spec = workloads.Spec("test", lambda seed: cases, local_oracle=local, faulted=faulted)
    return workloads.Workload(spec, 7, tmp_path)


@pytest.fixture
def applied(tmp_path):
    case = gen.small_case(5, 0)
    w = _workload(tmp_path, [case])
    transactions, _ = w._ops()
    return case, transactions[0]


def _with_rows(net, node, rows):
    cpts = dict(net.cpts)
    cpts[node] = Cpt(node, net.parents_of(node), tuple(tuple(r) for r in rows))
    return replace(net, cpts=cpts)


def _nudged(net, node, row, col, eps=None):
    """One cell moved by `eps`, or by one unit in the last place."""
    rows = [list(r) for r in net.cpt(node).rows]
    x = rows[row][col]
    rows[row][col] = math.nextafter(x, 2.0) if eps is None else x + eps
    return _with_rows(net, node, rows)


def _first(case, rule):
    return next(i for i, op in enumerate(case.ops) if op.check["rule"] == rule)


# -- reproducible inputs ------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [lambda s: gen.edit_case(s), lambda s: gen.io_case(s), lambda s: gen.small_case(s, 3)],
    ids=["edit-large", "io-large", "verify-small"],
)
def test_same_seed_gives_byte_identical_inputs(make):
    a, b = make(11), make(11)
    assert a.text == b.text
    assert a.script_text == b.script_text
    assert [op.args for op in a.ops] == [op.args for op in b.ops]
    c = make(12)
    assert c.text != a.text and c.script_text != a.script_text


def test_faulted_copy_is_reproducible():
    net = gen.layered_dag(100, 3, 3, 4)
    assert gen.faulted_text(net, 4) == gen.faulted_text(net, 4)


def test_layered_dag_has_constant_degrees():
    net = gen.layered_dag(400, 3, 3, 9)
    last = max(net.layer.values())
    for v in net.ids:
        assert len(net.parents[v]) == (0 if net.layer[v] == 0 else 3)
        assert len(net.children(v)) == (0 if net.layer[v] == last else 3)


def test_edit_case_shape_does_not_depend_on_seed():
    shapes = {
        tuple((op.kind, op.mode, tuple(sorted(op.expect.values()))) for op in gen.edit_case(s).ops)
        for s in (1, 2)
    }
    assert len(shapes) == 1


# -- table checks -------------------------------------------------------------


def test_clean_transactions_pass_every_check(applied):
    case, done = applied
    for op, t in zip(case.ops, done):
        checks.check_tables(op, t.before, t.after)
        checks.check_report(op, t.report)


def test_ignored_rescale_off_by_more_than_tolerance_fails(applied):
    case, done = applied
    i = _first(case, "ignored")
    t = done[i]
    bad = checks.with_perturbed_cell(t.after, case.ops[i].check["node"], 0, 1e-10)
    with pytest.raises(checks.CheckFailure, match="λ"):
        checks.check_tables(case.ops[i], t.before, bad)


def test_one_perturbed_unsplit_entry_fails(applied):
    case, done = applied
    i = _first(case, "split")
    op, t = case.ops[i], done[i]
    col = 0 if op.check["s"] else op.check["k"]
    bad = _nudged(t.after, op.check["node"], 0, col)
    with pytest.raises(checks.CheckFailure, match="verbatim"):
        checks.check_tables(op, t.before, bad)


def test_one_perturbed_successor_row_fails(applied):
    case, done = applied
    i = _first(case, "successor")
    op, t = case.ops[i], done[i]
    bad = _nudged(t.after, op.check["node"], 0, 1)
    with pytest.raises(checks.CheckFailure, match="reused verbatim"):
        checks.check_tables(op, t.before, bad)


def test_one_perturbed_baseline_cell_fails(applied):
    case, done = applied
    i = _first(case, "assumed-constant")
    op, t = case.ops[i], done[i]
    node = op.check.get("successors", [op.check["node"]])[0]
    width = len(t.after.outcomes(op.check["var"]))
    b = t.after.outcomes(op.check["var"]).index(op.check["baseline"])
    bad = _nudged(t.after, node, b + width, 0)
    with pytest.raises(checks.CheckFailure, match="baseline row"):
        checks.check_tables(op, t.before, bad)


def test_row_off_normalization_fails(applied):
    case, done = applied
    i = len(case.ops) - 1
    op, t = case.ops[i], done[i]
    bad = _nudged(t.after, op.check["node"], 0, 0, 1e-6)
    with pytest.raises(checks.CheckFailure):
        checks.check_tables(op, t.before, bad)


def test_changed_untouched_table_fails(applied):
    case, done = applied
    op, t = case.ops[0], done[0]
    other = next(v for v in t.before.ids() if v not in op.expect)
    bad = _nudged(t.after, other, 0, 0)
    with pytest.raises(checks.CheckFailure, match="untouched"):
        checks.check_tables(op, t.before, bad)


def test_altered_count_fails(applied):
    case, done = applied
    op, t = case.ops[0], done[0]
    entry = t.report.for_node(op.check["node"])
    nodes = tuple(replace(e, reused=e.reused + 1) if e is entry else e for e in t.report.nodes)
    with pytest.raises(checks.CheckFailure, match="closed form"):
        checks.check_report(op, replace(t.report, nodes=nodes))


def test_renormalized_row_and_kept_rows_are_checked(tmp_path):
    case = gen.io_case(3)
    i = _first(case, "renormalize")
    w = _workload(tmp_path, [case])
    done = w._ops()[0][0]
    op, t = case.ops[i], done[i]
    checks.check_tables(op, t.before, t.after)
    bad = checks.with_perturbed_cell(t.after, op.check["node"], 0, 1e-10)
    with pytest.raises(checks.CheckFailure, match="renormalized"):
        checks.check_tables(op, t.before, bad)


# -- oracle checks ------------------------------------------------------------


@pytest.mark.parametrize("local", [False, True], ids=["joint", "family"])
def test_oracle_tasks_pass_on_clean_output(applied, local):
    case, done = applied
    tasks = checks.oracle_tasks(case.ops, [t.before for t in done], [t.after for t in done], local)
    assert len(tasks) >= len(case.ops)
    for task in tasks:
        task()


def test_perturbed_reused_cell_fails_the_oracle_check(applied):
    case, done = applied
    i = _first(case, "successor")
    op = case.ops[i]
    complete = next(t.after for t in done[i:] if not t.after.stale)
    before = done[_first(case, "ignored")].before
    args = (op.check["node"], op.check["parent"], op.check["old"])
    checks.check_successor_oracle(before, complete, *args)
    bad = checks.with_perturbed_cell(complete, op.check["node"], 0)
    with pytest.raises(checks.CheckFailure, match="changed"):
        checks.check_successor_oracle(before, bad, *args)


def test_perturbed_rescaled_cell_fails_the_ignored_identity(applied):
    case, done = applied
    i = _first(case, "ignored")
    complete = next(t.after for t in done[i:] if not t.after.stale)
    bad_done = list(done)
    node = case.ops[i].check["node"]
    bad_done[i + 1] = replace(done[i + 1], after=checks.with_perturbed_cell(complete, node, 0))
    tasks = checks.oracle_tasks(
        case.ops[:i + 2], [t.before for t in done[:i + 2]],
        [t.after for t in bad_done[:i + 2]], local=False,
    )
    with pytest.raises(checks.CheckFailure, match="ignored-outcome"):
        tasks[0]()


def test_chain_rule_check_catches_a_wrong_joint_cell(applied, monkeypatch):
    _, done = applied
    net = done[-1].after
    checks.check_joint_against_chain_rule(net)
    real = oracle.joint_distribution

    def off_by_one_cell(n, *a, **k):
        table = real(n, *a, **k)
        probs = table.probs.copy()
        probs.flat[7] += 1e-9
        return replace(table, probs=probs)

    monkeypatch.setattr(oracle, "joint_distribution", off_by_one_cell)
    with pytest.raises(checks.CheckFailure, match="chain-rule"):
        checks.check_joint_against_chain_rule(net)


# -- whole rounds -------------------------------------------------------------


def test_round_checks_cli_outputs_and_planted_findings(tmp_path):
    w = _workload(tmp_path, [gen.small_case(2, 0), gen.small_case(2, 1)], faulted=True)
    first = w.round()
    assert first["attempted"] > 0 and first["cells_copied"] > 0
    assert len(w.planted) == 3
    second = w.round()
    assert second["cells_elicited"] == first["cells_elicited"]


def test_round_fails_when_apply_output_is_altered(tmp_path, monkeypatch):
    w = _workload(tmp_path, [gen.small_case(2, 0)])
    real = workloads.run_cli

    def tampering(args, tracer, name):
        code, out = real(args, tracer, name)
        if args[0] == "apply":
            path = Path(args[args.index("-o") + 1])
            path.write_text(path.read_text().replace('"E.', '"F.', 1))
        return code, out

    monkeypatch.setattr(workloads, "run_cli", tampering)
    with pytest.raises(checks.CheckFailure, match="library result"):
        w.round()


def test_round_fails_when_diff_omits_a_touched_node(tmp_path, monkeypatch):
    w = _workload(tmp_path, [gen.small_case(2, 0)])
    real = workloads.run_cli

    def dropping(args, tracer, name):
        code, out = real(args, tracer, name)
        if args[0] == "diff":
            out = "\n".join(l for l in out.splitlines() if not l.startswith("outcomes[")) + "\n"
        return code, out

    monkeypatch.setattr(workloads, "run_cli", dropping)
    with pytest.raises(checks.CheckFailure, match="diff"):
        w.round()


def _diff_adding(monkeypatch, node):
    """Make every ``bnmaint diff`` also report a changed cell of `node`."""
    real = workloads.run_cli

    def adding(args, tracer, name):
        code, out = real(args, tracer, name)
        if args[0] == "diff":
            out += f"cpt[{node}] row 0 (x=s0) [s0]: 0.1 -> 0.2\n"
        return code, out

    monkeypatch.setattr(workloads, "run_cli", adding)


def test_round_fails_when_diff_names_an_untouched_node(tmp_path, monkeypatch):
    case = gen.small_case(2, 0)
    w = _workload(tmp_path, [case])
    _diff_adding(monkeypatch, sorted(set(case.net.ids) - case.touched)[0])
    with pytest.raises(checks.CheckFailure, match="names untouched"):
        w.round()


def test_round_passes_when_diff_names_a_reencoded_successor(tmp_path, monkeypatch):
    # a diff that also names the successors an outcome edit re-encoded is right
    case = gen.small_case(2, 0)
    silent = checks.silent_in_diff(case)
    assert silent
    w = _workload(tmp_path, [case])
    _diff_adding(monkeypatch, sorted(silent)[0])
    w.round()


def test_round_fails_when_a_planted_finding_is_missed(tmp_path, monkeypatch):
    w = _workload(tmp_path, [gen.small_case(2, 0)], faulted=True)
    w.planted = w.planted[:2] + [("S0_00", "no CPT")]
    with pytest.raises(checks.CheckFailure, match="planted|findings"):
        w.round()


def test_diff_names_parse():
    lines = [
        'version_label "E" -> "E.3"',
        "added V1",
        "outcomes[X01]: added n1",
        "added X02->X07",
        "removed X03->X08",
        "cpt[X09] row 0 (X03=s0) [s1]: 0.1 -> 0.2",
    ]
    assert checks.diff_nodes(lines) == {"V1", "X01", "X07", "X08", "X09"}


@pytest.mark.parametrize(
    "make, is_slow",
    [
        (gen.edit_case, lambda case, op: op.kind in ("add_arc", "add_variable")),
        (gen.io_case, lambda case, op: op.kind == "add_arc"
         and case.net.layer[op.record["to"]] == 2),
    ],
    ids=["edit-large", "io-large"],
)
def test_p90_sits_inside_the_slow_group(make, is_slow):
    case = make(1)
    share = sum(is_slow(case, op) for op in case.ops) / len(case.ops)
    assert 0.15 < share < 0.3  # the 90th percentile is well inside the slow group
