"""Command-line interface.

Exit codes: 0 success, 1 domain failure (validation findings, rejected op,
differences found), 2 usage, parse or write failure.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import os
import sys
from typing import NoReturn

import click

from . import __version__, netio
from . import cost as costmod
from .diff import diff_networks, format_diff
from .network import validate_network
from .script import ScriptError, apply_script, parse_script

def _fail(message: object, code: int = 2) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str, script: bool = False):
    try:
        if script:
            return parse_script(netio.parse_json(netio.read_text(path)))
        return netio.load_network(path)
    except netio.ParseError as e:
        _fail(f"{path}: {e}")


def _write(path: str, save, *args):
    """`save(*args)`, which writes `path`, and its result; a failure is one
    `error:` line."""
    try:
        return save(*args)
    except OSError as e:
        _fail(f"{path}: {e.strerror or e}")


def _parse_range(ctx, param, text: str) -> list[int]:
    """Option callback: N or LO:HI as the integers it spans."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            return list(range(lo_i, hi_i + 1))
        return [int(text)]
    except ValueError:
        raise click.BadParameter(f"expected N or LO:HI, got {text!r}") from None


def _parse_radices(ctx, param, text: str) -> tuple[int, ...]:
    """Option callback: comma-separated integers as a tuple."""
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.BadParameter(
            f"expected comma-separated integers, got {text!r}"
        ) from None


@click.group()
@click.version_option(version=__version__, prog_name="bnmaint")
def main() -> None:
    """Maintain discrete probabilistic networks as transactional edits."""


@main.command()
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
def validate(network_file: str) -> None:
    """Check a network file; print one finding per line."""
    net = _load(network_file)
    report = validate_network(net)
    for finding in report.findings:
        click.echo(finding.message)
    sys.exit(0 if report.ok else 1)


@main.command()
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("script_file", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "-o",
    "--out",
    "out_file",
    required=True,
    type=click.Path(dir_okay=False),
    help="Where to write the edited network (only on full success).",
)
@click.option(
    "--report",
    "report_file",
    type=click.Path(dir_okay=False),
    default=None,
    help="Also write the aggregated assessment counts as CSV.",
)
def apply(network_file: str, script_file: str, out_file: str, report_file: str | None) -> None:
    """Apply a change script; all ops succeed or nothing is written. Each op
    lists only the nodes it assessed."""
    # before any work, so a path that cannot be written leaves nothing behind
    if report_file is not None and os.path.realpath(report_file) == os.path.realpath(out_file):
        _fail(f"{report_file}: -o and --report must name different files")
    for path in (out_file, report_file):
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            _fail(f"{path}: {os.strerror(errno.ENOENT)}")
    net = _load(network_file)
    if net.findings:
        for finding in net.findings:
            click.echo(finding.message, err=True)
        _fail("input network is invalid", 1)
    ops = _load(script_file, script=True)
    try:
        result = apply_script(net, ops)
    except ScriptError as e:
        _fail(e, 1)

    lines = []
    for i, t in enumerate(result.transactions, 1):
        header = f"op {i}: {t.op.kind} mode={t.op.mode} node={t.op.node}"
        if t.op.source:
            header += f" from={t.op.source}"
        lines.append(header)
        lines += [
            f"  {e.node}: elicited={e.elicited} reused={e.reused} baseline={e.baseline}"
            for e in t.report.nodes
        ]
        lines += [f"  note: {note}" for note in t.report.notes]
    reports = [t.report for t in result.transactions]
    total = costmod.aggregate_reports(reports, result.final.ids())
    lines.append(
        f"total: elicited={total.total_elicited} reused={total.total_reused} "
        f"baseline={total.total_baseline}"
    )
    click.echo("\n".join(lines))
    # both files are written in full before either is renamed into place
    staged = None
    if report_file is not None:
        staged = _write(report_file, netio.stage_text, report_file, costmod.audit_csv(total))
    try:
        _write(out_file, netio.save_network, result.final, out_file)
        if staged is not None:
            _write(report_file, os.replace, staged, report_file)
            staged = None
    finally:
        if staged is not None:
            with contextlib.suppress(OSError):
                os.unlink(staged)
    click.echo(f"wrote {out_file} (version {result.final.version_label})")


@main.command()
@click.option("--case", "case_", type=click.Choice(costmod.CASES), required=True)
@click.option("--role", type=click.Choice(costmod.ROLES), required=True)
@click.option("--m", type=int, default=1, show_default=True, help="Old outcome count.")
@click.option("--k", type=int, default=1, show_default=True, help="New/added outcome count.")
@click.option(
    "--p", type=int, default=2, show_default=True, help="Successor outcome count."
)
@click.option(
    "--radices",
    default="",
    callback=_parse_radices,
    help="Comma-separated outcome counts of the conditioning set, e.g. 2,3.",
)
def cost(case_: str, role: str, m: int, k: int, p: int, radices: tuple[int, ...]) -> None:
    """Print general/special assessment counts and their ratio."""
    query = costmod.CostQuery(case_, role, m, k, p, radices)
    try:
        result = costmod.assessment_cost(query)
    except ValueError as e:
        _fail(e)
    ratio = "undefined" if result.ratio is None else f"{result.ratio}"
    click.echo(f"general={result.general}, special={result.special}, ratio={ratio}")


@main.command()
@click.option("--case", "case_", type=click.Choice(costmod.CASES), required=True)
@click.option("--role", type=click.Choice(costmod.ROLES), required=True)
@click.option(
    "--m-range",
    default="1:6",
    show_default=True,
    callback=_parse_range,
    help="N or LO:HI.",
)
@click.option(
    "--k-range",
    default="1:10",
    show_default=True,
    callback=_parse_range,
    help="N or LO:HI.",
)
@click.option(
    "--out",
    "out_file",
    type=click.Path(dir_okay=False),
    default=None,
    help="CSV output path (stdout when omitted).",
)
def curves(
    case_: str, role: str, m_range: list[int], k_range: list[int], out_file: str | None
) -> None:
    """Emit the special/general ratio surface as CSV."""
    try:
        points = costmod.ratio_curves(case_, role, m_range, k_range)
    except ValueError as e:
        _fail(e)
    text = costmod.curves_csv(case_, role, points)
    if out_file is None:
        click.echo(text, nl=False)
    else:
        _write(out_file, netio.write_text_atomic, out_file, text)


@main.command("diff")
@click.argument("file_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_b", type=click.Path(exists=True, dir_okay=False))
def diff_cmd(file_a: str, file_b: str) -> None:
    """Compare two network files; exit 0 only when identical."""
    a = _load(file_a)
    b = _load(file_b)
    entries = diff_networks(a, b)
    if entries:
        click.echo(format_diff(entries))
    sys.exit(1 if entries else 0)


@main.group("oracle", hidden=True)
def oracle_group() -> None:
    """Debugging helpers."""


@oracle_group.command("joint")
@click.argument("network_file", type=click.Path(exists=True, dir_okay=False))
def oracle_joint(network_file: str) -> None:
    """Dump the full joint distribution, one assignment per line."""
    from . import oracle  # numpy loads only for the oracle

    net = _load(network_file)
    try:
        table = oracle.joint_distribution(net)
    except oracle.OracleError as e:
        _fail(e, 1)
    ranges = [range(len(outs)) for outs in table.outcomes]
    for assignment in itertools.product(*ranges):
        labels = " ".join(
            f"{var}={outs[i]}"
            for var, outs, i in zip(table.variables, table.outcomes, assignment)
        )
        click.echo(f"{labels}\t{float(table.probs[assignment])}")


if __name__ == "__main__":
    main()
