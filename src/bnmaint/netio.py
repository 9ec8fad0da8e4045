"""JSON file format for network snapshots.

The on-disk document is deterministic: fixed key order, maps keyed in
variable declaration order, floats rendered as their shortest round-trip
decimal (Python's default). Serialization therefore yields byte-identical
output for equal networks.

The layout is ``json.dumps(doc, indent=2, ensure_ascii=False)`` plus a
newline. :func:`dumps` writes it in one pass with ``str.join``: each string
through ``encode_basestring`` and the tables, which hold nearly every byte,
over ``float.__repr__``. A document that pass cannot spell, one holding a
value that is not a string, an empty row, or a cell that is ``nan`` or an
infinity (which ``json`` spells ``NaN`` and ``Infinity``), goes through
``json.dumps`` whole.
The bytes are those of that one ``json.dumps`` call (``tests/test_netio.py``
checks this); only the time differs, since ``indent`` sends ``json.dumps``
to its pure-Python encoder.

A file is written whole or not at all: its text goes to a temp file beside
it, made by exclusive create so that the umask sets its mode as for any
plain ``open``, which ``os.replace`` then renames onto the path.
"""

from __future__ import annotations

import json
import os
from itertools import repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable

from .network import CellError, Cpt, Network, Variable, is_number

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed network or script file: bad JSON or wrong document shape."""


def _expect(condition: bool, message: str, *args: object) -> None:
    """Raise `message % args` unless `condition` holds, formatting only then."""
    if not condition:
        raise ParseError(message % args)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate object key {key!r}")
        obj[key] = value
    return obj


def read_text(path: str | Path) -> str:
    """A network or script file's text; bytes that are not UTF-8 are a
    parse error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}") from None


def parse_json(text: str) -> Any:
    """Parse a network or script document; duplicate object keys are an
    error rather than last-one-wins, and nesting too deep to parse is an
    error too."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"parse error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except RecursionError:
        raise ParseError("parse error: document nested too deeply") from None


def from_document(doc: Any) -> Network:
    """Build a Network from a parsed JSON document.

    Only the document *shape* is enforced here; invariant violations (bad row
    sums, cycles, dangling references) are left for validate_network so that
    broken files can still be loaded and reported on.
    """
    _expect(isinstance(doc, dict), "network document must be a JSON object")
    _expect("format_version" in doc, "missing required field format_version")
    fv = doc["format_version"]
    _expect(
        is_number(fv) and fv == FORMAT_VERSION,
        "unsupported format_version %r (expected %s)",
        fv,
        FORMAT_VERSION,
    )
    label = doc.get("version_label")
    _expect(isinstance(label, str), "version_label must be a string")

    raw_vars = doc.get("variables")
    _expect(isinstance(raw_vars, list), "variables must be an array")
    variables = []
    for i, rv in enumerate(raw_vars):
        _expect(isinstance(rv, dict), "variables[%d] must be an object", i)
        vid = rv.get("id")
        name = rv.get("name")
        outs = rv.get("outcomes")
        _expect(isinstance(vid, str), "variables[%d].id must be a string", i)
        _expect(isinstance(name, str), "variables[%d].name must be a string", i)
        _expect(
            isinstance(outs, list) and all(isinstance(o, str) for o in outs),
            "variables[%d].outcomes must be an array of strings",
            i,
        )
        variables.append(Variable(vid, name, tuple(outs)))

    raw_parents = doc.get("parents")
    _expect(isinstance(raw_parents, dict), "parents must be an object")
    parents: dict[str, tuple[str, ...]] = {}
    for key, val in raw_parents.items():
        _expect(
            isinstance(val, list) and all(isinstance(p, str) for p in val),
            "parents.%s must be an array of variable ids",
            key,
        )
        parents[key] = tuple(val)
    for v in variables:
        parents.setdefault(v.id, ())

    raw_cpts = doc.get("cpts")
    _expect(isinstance(raw_cpts, dict), "cpts must be an object")
    cpts: dict[str, Cpt] = {}
    for key, rows in raw_cpts.items():
        _expect(isinstance(rows, list), "cpts.%s must be an array of rows", key)
        try:
            cpts[key] = Cpt(key, parents.get(key, ()), rows)
        except CellError as e:
            message = f"cpts.{key}[{e.row}] must be an array of numbers"
            raise ParseError(message) from None

    return Network(label, tuple(variables), parents, cpts)


def _require_complete(net: Network) -> None:
    """A network with nodes pending re-encoding has no document."""
    if net.stale:
        raise ValueError(
            "cannot serialize network with nodes pending re-encoding: "
            + ", ".join(sorted(net.stale))
        )


def _tables(net: Network) -> dict[str, tuple[tuple[float, ...], ...]]:
    """The rows of each table, keyed in variable declaration order."""
    return {v.id: net.cpts[v.id].rows for v in net.variables if v.id in net.cpts}


def to_document(net: Network) -> dict[str, Any]:
    """Canonical JSON document for a complete (non-pending) network."""
    _require_complete(net)
    return {
        "format_version": FORMAT_VERSION,
        "version_label": net.version_label,
        "variables": [
            {"id": v.id, "name": v.name, "outcomes": list(v.outcomes)}
            for v in net.variables
        ],
        "parents": {v.id: list(net.parents_of(v.id)) for v in net.variables},
        "cpts": {key: [list(row) for row in rows] for key, rows in _tables(net).items()},
    }


def _container_text(items: Iterable[str], indent: str, brackets: str = "[]") -> str:
    """Item texts laid out as ``json.dumps(..., indent=2)`` lays out a list
    (or, with ``"{}"``, an object) whose closing bracket is at `indent`."""
    sep = ",\n  " + indent
    body = sep.join(items)
    return f"{brackets[0]}{sep[1:]}{body}\n{indent}{brackets[1]}" if body else brackets


# the layout json.dumps(..., indent=2) gives a table's rows: one cell per line
_CELL_SEP = ",\n        "
_ROW_SEP = "\n      ],\n      [\n        "


def _table_text(rows: tuple[tuple[float, ...], ...]) -> str:
    """The rows as ``json.dumps`` writes them; ValueError for an empty row,
    which it writes as ``[]``, and for a cell that is not finite, which it
    spells ``NaN`` or ``Infinity``."""
    if not rows:
        return "[]"
    if not all(rows):
        raise ValueError("an empty row")
    text = _ROW_SEP.join(map(_CELL_SEP.join, map(map, repeat(float.__repr__), rows)))
    if "n" in text:  # nan or inf: no finite float's repr holds an "n"
        raise ValueError("a cell that is not finite")
    return f"[\n      [\n        {text}\n      ]\n    ]"


def _document_text(net: Network) -> str:
    """The document as :func:`dumps` writes it, laid out with ``str.join``;
    TypeError for a value that is not a string, ValueError for a cell that
    is not finite."""
    s = encode_basestring
    variables = (
        _container_text((
            f'"id": {s(v.id)}',
            f'"name": {s(v.name)}',
            f'"outcomes": {_container_text(map(s, v.outcomes), "      ")}',
        ), "    ", "{}")
        for v in net.variables
    )
    parents = (
        f"{s(n)}: {_container_text(map(s, net.parents_of(n)), '    ')}"
        for n in dict.fromkeys(v.id for v in net.variables)
    )
    cpts = (f"{s(key)}: {_table_text(rows)}" for key, rows in _tables(net).items())
    head = ",\n  ".join((
        f'"format_version": {FORMAT_VERSION}',
        f'"version_label": {s(net.version_label)}',
        f'"variables": {_container_text(variables, "  ")}',
        f'"parents": {_container_text(parents, "  ", "{}")}',
        '"cpts": ',
    ))
    # the tables hold nearly every byte: one join copies them into the document,
    # where each further copy of the whole costs time and peak memory
    return "".join(("{\n  ", head, _container_text(cpts, "  ", "{}"), "\n}\n"))


def dumps(net: Network) -> str:
    """The network's document as ``json.dumps(to_document(net), indent=2,
    ensure_ascii=False)`` writes it, plus a newline."""
    _require_complete(net)
    try:
        return _document_text(net)
    except (TypeError, ValueError):  # json spells such a value, or rejects it
        return json.dumps(to_document(net), indent=2, ensure_ascii=False) + "\n"


def loads(text: str) -> Network:
    return from_document(parse_json(text))


def load_network(path: str | Path) -> Network:
    return loads(read_text(path))


def stage_text(path: str | Path, text: str) -> str:
    """Write `text` to a new temp file in `path`'s directory and return its
    name; ``os.replace`` of it onto `path` then writes `path` atomically.
    The file is made by exclusive create (``open(..., "x")``), so the umask
    gives it the mode a plain ``open`` of `path` would. A failed write or
    close leaves no temp file."""
    path = Path(path)
    tmp = str(path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # a name already taken is not ours to discard
    try:
        with fh:
            fh.write(text)
    except BaseException:
        _discard(tmp)
        raise
    return tmp


def _discard(tmp: str) -> None:
    try:
        os.unlink(tmp)
    except OSError:
        pass


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename over `path`."""
    tmp = stage_text(path, text)
    try:
        os.replace(tmp, path)
    except BaseException:
        _discard(tmp)
        raise


def save_network(net: Network, path: str | Path) -> None:
    write_text_atomic(path, dumps(net))
