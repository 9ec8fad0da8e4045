"""File format: round trip, determinism, schema and parse errors."""

from __future__ import annotations

import errno
import json
import math
import os
import random
import stat
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnmaint import netio
from bnmaint.network import Cpt, Network, StaleParent, Variable

from conftest import make_net, random_network


def test_round_trip_is_identity(chain_net):
    assert netio.loads(netio.dumps(chain_net)) == chain_net


def test_round_trip_random_networks():
    rng = random.Random(23)
    for _ in range(30):
        net = random_network(rng)
        assert netio.loads(netio.dumps(net)) == net


def test_serialization_is_byte_deterministic(chain_net):
    text = netio.dumps(chain_net)
    assert text == netio.dumps(netio.loads(text))
    assert text == netio.dumps(chain_net)


def _stdlib_text(net):
    return json.dumps(netio.to_document(net), indent=2, ensure_ascii=False) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dumps_matches_the_stdlib_encoder_on_random_networks(seed):
    net = random_network(random.Random(seed), max_nodes=6)
    assert netio.dumps(net) == _stdlib_text(net)


ODD_TEXT = 'é∂"\\\x01\t\x7f\u2028'


def _odd_text_net():
    a, b = f"A{ODD_TEXT}", f"B{ODD_TEXT}"
    variables = (
        Variable(a, f"name {ODD_TEXT}", (f"x{ODD_TEXT}", "y")),
        Variable(b, "B", ("u", f"v{ODD_TEXT}")),
    )
    parents = {a: (), b: (a,)}
    cpts = {
        a: Cpt(a, (), ((0.5, 0.5),)),
        b: Cpt(b, (a,), ((0.9, 0.1), (0.3, 0.7))),
    }
    return Network(f"E{ODD_TEXT}", variables, parents, cpts)


DUMPS_CASES = {
    "non-finite-mixed": make_net(
        [("A", ["a1", "a2", "a3"])],
        cpts={"A": [(math.nan, 0.5, math.inf), (0.25, -math.inf, 0.75)]},
    ),
    "awkward-floats": make_net(
        [("A", ["a1", "a2", "a3", "a4", "a5"])],
        cpts={"A": [(-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2)]},
    ),
    "no-tables": make_net([("A", ["a1"]), ("B", ["b1"])], parents={"B": ["A"]}),
    "no-variables": make_net([]),
    "no-parents": make_net(
        [("A", ["a1", "a2"]), ("B", ["b1", "b2"])],
        cpts={"A": [(0.5, 0.5)], "B": [(0.2, 0.8)]},
    ),
    "empty-table-and-rows": make_net(
        [("A", []), ("B", ["b1"])], parents={"B": ["A"]}, cpts={"A": [(), ()], "B": []}
    ),
    "odd-text": _odd_text_net(),
    "quotes-and-backslashes": make_net(
        [('"', ['\\', '"\\"']), ("\\", ["é", "ü\"x"]), ("R", ["\\n", "/"])],
        parents={"\\": ['"', "R"]},
        cpts={'"': [(0.5, 0.5)], "R": [(0.5, 0.5)], "\\": [(0.5, 0.5)] * 4},
    ),
    "roots-between-children": make_net(
        [("R1", ["r"]), ("C1", ["c"]), ("R2", ["s"]), ("C2", ["d"]), ("R3", ["t"])],
        parents={"C1": ["R1", "R2"], "C2": ["C1", "R3", "R1"]},
    ),
    "empty-strings": make_net([("", [""]), ("B", ["", "b"])], parents={"B": [""]}),
    "duplicate-ids-and-parents": make_net(
        [("A", ["a1"]), ("B", ["b1"]), ("A", ["a2"])], parents={"B": ["A", "A"]}
    ),
    # a value that is not a string sends the head through json.dumps whole
    "non-string-labels": Network(
        "E", (Variable("A", None, (1, 2.5, "x")), Variable("B", "B", ("b",))),
        {"B": ("A",)}, {},
    ),
    # json writes a key that is not a string as its value's text: "true", "7"
    "non-string-ids": make_net(
        [(True, ["a1"]), (7, ["b1"])], parents={7: [True]}, cpts={True: [(1.0,)], 7: [(1.0,)]}
    ),
    # both reasons to write the document through json.dumps, in one document
    "non-finite-cell-under-non-string-id": make_net(
        [("A", ["a1", "a2"]), (7, ["b1", "b2"])],
        parents={7: ["A"]},
        cpts={"A": [(0.5, 0.5)], 7: [(math.nan, 1.0), (0.25, math.inf)]},
    ),
}


@pytest.mark.parametrize("net", DUMPS_CASES.values(), ids=DUMPS_CASES.keys())
def test_dumps_matches_the_stdlib_encoder_on_edge_cases(net):
    assert netio.dumps(net) == _stdlib_text(net)


# strings that hold the "n" of "nan" and "inf", or spell them, are no cells
N_TEXT_NET = make_net(
    [("n", ["N0", "nan"]), ("inf", ["Infinity", "n"]), ("Infinity", ["-inf", "NaN"])],
    parents={"inf": ["n"], "Infinity": ["n", "inf"]},
    cpts={"n": [(0.5, 0.5)], "inf": [(0.25, 0.75)] * 2, "Infinity": [(1.0, 0.0)] * 4},
    label="nan",
)


def test_dumps_writes_a_head_of_strings_without_the_stdlib_encoder(monkeypatch):
    nets = [_odd_text_net(), N_TEXT_NET]
    expected = [_stdlib_text(net) for net in nets]

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(netio.json, "dumps", refuse)
    assert [netio.dumps(net) for net in nets] == expected


def test_file_round_trip(tmp_path, chain_net):
    path = tmp_path / "net.json"
    netio.save_network(chain_net, path)
    assert netio.load_network(path) == chain_net
    first = path.read_bytes()
    netio.save_network(chain_net, path)
    assert path.read_bytes() == first


@pytest.mark.parametrize(
    "umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
)
def test_written_file_mode_follows_umask(tmp_path, chain_net, umask, mode):
    # the mode a plain open gives under the umask, whatever the temp file's
    path = tmp_path / "net.json"
    previous = os.umask(umask)
    try:
        netio.save_network(chain_net, path)
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_saving_never_sets_the_umask(tmp_path, chain_net, monkeypatch):
    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    netio.save_network(chain_net, tmp_path / "net.json")
    assert netio.load_network(tmp_path / "net.json") == chain_net


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        netio.stage_text(tmp_path / "net.json", object())
    assert list(tmp_path.iterdir()) == []


def test_a_failed_discard_lets_the_write_error_through(tmp_path, monkeypatch):
    def refuse(path):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "unlink", refuse)
    with pytest.raises(TypeError):
        netio.stage_text(tmp_path / "net.json", object())
    assert [p.name.startswith(".net.json.") for p in tmp_path.iterdir()] == [True]


def test_a_failed_rename_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        netio.write_text_atomic(target, "x")
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_parents_map_may_omit_roots(chain_net):
    doc = netio.to_document(chain_net)
    del doc["parents"]["A"]
    assert netio.from_document(doc) == chain_net


def test_missing_format_version():
    with pytest.raises(netio.ParseError, match="format_version"):
        netio.loads('{"version_label": "E", "variables": [], "parents": {}, "cpts": {}}')


def test_unsupported_format_version(chain_net):
    doc = netio.to_document(chain_net)
    doc["format_version"] = 99
    with pytest.raises(netio.ParseError, match="unsupported format_version"):
        netio.from_document(doc)


def test_malformed_json_reports_position():
    with pytest.raises(netio.ParseError, match=r"line 1 column"):
        netio.loads("{not json")


def test_duplicate_keys_rejected(chain_net):
    text = netio.dumps(chain_net).replace('"B": [\n', '"B": [],\n    "B": [\n', 1)
    with pytest.raises(netio.ParseError, match="duplicate object key 'B'"):
        netio.loads(text)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(variables={}), "variables must be an array"),
        (lambda d: d["variables"][0].update(outcomes=[1, 2]), "array of strings"),
        (lambda d: d.update(parents=[]), "parents must be an object"),
        (lambda d: d["parents"].update(B="A"), "array of variable ids"),
        (lambda d: d["cpts"].update(A=[[True, False]]), "array of numbers"),
        pytest.param(
            lambda d: d["cpts"].update(A=[["0.5", 0.5]]),
            r"^cpts\.A\[0\] must be an array of numbers$",
            id="string-cell",
        ),
        pytest.param(
            lambda d: d["cpts"].update(B=[[0.9, 0.1], 0.5]),
            r"^cpts\.B\[1\] must be an array of numbers$",
            id="number-row",
        ),
        pytest.param(
            lambda d: d["cpts"].update(A=[[10**400, 0.5]]),
            r"^cpts\.A\[0\] must be an array of numbers$",
            id="int-past-float-range",
        ),
        (lambda d: d.update(version_label=7), "version_label must be a string"),
    ],
)
def test_schema_violations(chain_net, mutate, needle):
    doc = netio.to_document(chain_net)
    mutate(doc)
    with pytest.raises(netio.ParseError, match=needle):
        netio.from_document(doc)


def test_integer_probabilities_accepted():
    net = make_net(
        [("A", ["x", "y"])],
        cpts={"A": [(1, 0)]},
    )
    text = netio.dumps(net)
    assert netio.loads(text) == net


def test_save_refuses_pending_networks(tmp_path, chain_net):
    marked = replace(
        chain_net, stale={"B": StaleParent("A", ("a1", "a2"), "add_outcomes")}
    )
    with pytest.raises(ValueError, match="pending re-encoding"):
        netio.save_network(marked, tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()
