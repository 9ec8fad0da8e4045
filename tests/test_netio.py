"""File format: round trip, determinism, schema and parse errors."""

from __future__ import annotations

import os
import random
import stat
from dataclasses import replace

import pytest

from bnmaint import netio
from bnmaint.network import StaleParent

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


def test_file_round_trip(tmp_path, chain_net):
    path = tmp_path / "net.json"
    netio.save_network(chain_net, path)
    assert netio.load_network(path) == chain_net
    first = path.read_bytes()
    netio.save_network(chain_net, path)
    assert path.read_bytes() == first


def test_written_file_mode_follows_umask(tmp_path, chain_net):
    # a plain open under umask 022 gives 0o644, not the temp file's 0o600
    path = tmp_path / "net.json"
    previous = os.umask(0o022)
    try:
        netio.save_network(chain_net, path)
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


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
