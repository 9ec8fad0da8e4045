"""The traced benchmark run's hooks (``perfbench/spans.py``): each wraps a
name bnmaint still has, and leaving the run puts every original back."""

from __future__ import annotations

from pathlib import Path

from bnmaint import cli, cost, edits, netio, network, oracle

OWNERS = (cli, cost, edits, netio, network, network.Network, oracle)


def test_instrumented_wraps_live_names_and_restores_them(monkeypatch, tmp_path, chain_net):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import spans

    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer()
    # a renamed or removed name fails here, at the wrapper's getattr
    with spans.instrumented(tracer):
        during = [dict(vars(owner)) for owner in OWNERS]
        netio.save_network(chain_net, tmp_path / "net.json")
    wrapped = [
        (owner, name, old[name])
        for owner, old, new in zip(OWNERS, before, during)
        for name in old
        if new[name] is not old[name]
    ]
    assert wrapped
    for owner, name, original in wrapped:
        assert during[OWNERS.index(owner)][name].__wrapped__ is original, name
        assert vars(owner)[name] is original, name
    assert [s["name"] for s in tracer.spans] == ["netio.save_network", "netio.dumps"]
