"""Command-line interface, on the standard library's argparse.

The parser is built once, at import, and each command imports only the
modules it runs. Exit codes: 0 success, 1 domain failure
(validation findings, rejected op, differences found), 2 usage, parse or
write failure; every exit 2 prints one ``error:`` line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import os
import sys
from typing import NoReturn

from . import __version__, netio
from . import cost as costmod  # the parser's --case and --role choices
from .network import validate_network


def _fail(message: object, code: int = 2) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _load(path: str, parse=None):
    """The network file at `path`, or the document `parse` makes of it."""
    try:
        if parse is not None:
            return parse(netio.parse_json(netio.read_text(path)))
        return netio.load_network(path)
    except OSError as e:
        _fail(f"{path}: {e.strerror or e}")
    except netio.ParseError as e:
        _fail(f"{path}: {e}")


def _write(path: str, save, *args):
    """`save(*args)`, which writes `path`, and its result; a failure is one
    `error:` line."""
    try:
        return save(*args)
    except OSError as e:
        _fail(f"{path}: {e.strerror or e}")


def _parse_range(text: str) -> list[int]:
    """Option type: N or LO:HI as the integers it spans."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            return list(range(lo_i, hi_i + 1))
        return [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO:HI, got {text!r}") from None


def _parse_radices(text: str) -> tuple[int, ...]:
    """Option type: comma-separated integers as a tuple."""
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


# the commands call these through this module, where a tracer can wrap them
def apply_script(net, ops):
    """:func:`bnmaint.script.apply_script`, imported on the first call."""
    from .script import apply_script

    return apply_script(net, ops)


def diff_networks(a, b):
    """:func:`bnmaint.diff.diff_networks`, imported on the first call."""
    from .diff import diff_networks

    return diff_networks(a, b)


def validate(network_file: str) -> int:
    """Check a network file; print one finding per line."""
    report = validate_network(_load(network_file))
    for finding in report.findings:
        print(finding.message)
    return 0 if report.ok else 1


def apply(network_file: str, script_file: str, out_file: str, report_file: str | None) -> None:
    """Apply a change script; all ops succeed or nothing is written. Each op
    lists only the nodes it assessed."""
    from .script import ScriptError, parse_script

    # before any work, so a path that cannot be written leaves nothing behind
    if report_file is not None and os.path.realpath(report_file) == os.path.realpath(out_file):
        _fail(f"{report_file}: -o and --report must name different files")
    for path in filter(None, (out_file, report_file)):
        if os.path.isdir(path):
            _fail(f"{path}: {os.strerror(errno.EISDIR)}")
        if not os.path.isdir(os.path.dirname(path) or "."):
            _fail(f"{path}: {os.strerror(errno.ENOENT)}")
    # both inputs are read before either is judged, so exit 2 comes before 1
    net = _load(network_file)
    ops = _load(script_file, parse_script)
    if net.findings:
        for finding in net.findings:
            print(finding.message, file=sys.stderr)
        _fail("input network is invalid", 1)
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
    print("\n".join(lines))
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
    print(f"wrote {out_file} (version {result.final.version_label})")


def cost(case_: str, role: str, m: int, k: int, p: int, radices: tuple[int, ...]) -> None:
    """Print general/special assessment counts and their ratio."""
    query = costmod.CostQuery(case_, role, m, k, p, radices)
    try:
        result = costmod.assessment_cost(query)
    except ValueError as e:
        _fail(e)
    ratio = "undefined" if result.ratio is None else f"{result.ratio}"
    print(f"general={result.general}, special={result.special}, ratio={ratio}")


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
        sys.stdout.write(text)
    else:
        _write(out_file, netio.write_text_atomic, out_file, text)


def diff(file_a: str, file_b: str) -> int:
    """Compare two network files; exit 0 only when identical."""
    from .diff import format_diff

    entries = diff_networks(_load(file_a), _load(file_b))
    if entries:
        print(format_diff(entries))
    return 1 if entries else 0


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
        print(f"{labels}\t{float(table.probs[assignment])}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # one line, no usage block
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The public commands' parser, and the hidden ``oracle`` helpers' own,
    so that neither the help nor an error's choices name them."""
    parser = _Parser(prog="bnmaint", allow_abbrev=False, description=(
        "Maintain discrete probabilistic networks as transactional edits."))
    parser.add_argument("--version", action="version", version=f"bnmaint, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, *files: str, group=commands, name: str = "") -> argparse.ArgumentParser:
        sub = group.add_parser(name or run.__name__, allow_abbrev=False, help=run.__doc__,
                               description=run.__doc__)
        sub.set_defaults(run=run)
        for file in files:
            sub.add_argument(file)
        return sub

    command(validate, "network_file")
    sub = command(apply, "network_file", "script_file")
    sub.add_argument("-o", "--out", dest="out_file", required=True,
                     help="Where to write the edited network (only on full success).")
    sub.add_argument("--report", dest="report_file",
                     help="Also write the aggregated assessment counts as CSV.")
    cost_, curves_ = command(cost), command(curves)
    for sub in (cost_, curves_):
        sub.add_argument("--case", dest="case_", choices=costmod.CASES, required=True)
        sub.add_argument("--role", choices=costmod.ROLES, required=True)
    cost_.add_argument("--m", type=int, default=1, help="Old outcome count (default: 1).")
    cost_.add_argument("--k", type=int, default=1, help="New/added outcome count (default: 1).")
    cost_.add_argument("--p", type=int, default=2, help="Successor outcome count (default: 2).")
    cost_.add_argument("--radices", type=_parse_radices, default="", help=(
        "Comma-separated outcome counts of the conditioning set, e.g. 2,3."))
    for option, default in [("--m-range", "1:6"), ("--k-range", "1:10")]:
        curves_.add_argument(option, type=_parse_range, default=default,
                             help=f"N or LO:HI (default: {default}).")
    curves_.add_argument("--out", dest="out_file", help="CSV output path (stdout when omitted).")
    command(diff, "file_a", "file_b")
    oracle = _Parser(prog="bnmaint oracle", allow_abbrev=False, description="Debugging helpers.")
    helpers = oracle.add_subparsers(metavar="COMMAND", required=True)
    command(oracle_joint, "network_file", group=helpers, name="joint")
    return parser, oracle


PARSER, ORACLE_PARSER = _build_parsers()


def main(args: list[str] | None = None, prog_name: str = "bnmaint",
         standalone_mode: bool = True) -> None:
    """The ``bnmaint`` console script: run the command `args` (default: the
    process's arguments) names and exit with its code, but return on success
    when `standalone_mode` is false. `prog_name` is ignored."""
    args = sys.argv[1:] if args is None else list(args)
    if args[:1] == ["oracle"]:
        options = vars(ORACLE_PARSER.parse_args(args[1:]))
    else:
        options = vars(PARSER.parse_args(args))
    run = options.pop("run")
    try:
        code = run(**options) or 0
        sys.stdout.flush()
    except BrokenPipeError:  # the reader, say `head`, stopped early
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if code or standalone_mode:
        sys.exit(code)


main.main = main  # the spelling in-process callers use: main.main(args=...)


if __name__ == "__main__":
    main()
