"""Structural and numeric comparison of two network snapshots.

Two snapshots are identical when they differ in no version label, variable,
outcome, arc or CPT cell beyond :data:`TOLERANCE`. Keys of ``parents`` and
``cpts`` that no variable declares are compared after the declared ids.

A differing CPT cell is named by its row, the row's parent configuration and
the node's outcome: ``cpt[B] row 1 (A=a2) [b1]: 0.3 -> 0.25``. The
configurations come from :func:`bnmaint.network.enumerate_configs`, so a
row's configuration is named only when the node and every parent are
declared and the table holds one row per configuration; otherwise the cell
reads by its row alone, ``cpt[B] row 3 [b1]: ...``. A column past the node's
outcomes reads ``[column i]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import Network, enumerate_configs

TOLERANCE = 1e-9  # the largest difference two cells called equal may have


@dataclass(frozen=True)
class DiffEntry:
    section: str  # meta | variables | outcomes | arcs | cpts
    message: str


def _keys(net: Network) -> dict[str, None]:
    """Each declared id once, in declaration order, then each key of
    `parents` and `cpts` that no variable declares, in file order."""
    return dict.fromkeys((*net.ids(), *net.parents, *net.cpts))


def _arcs(net: Network, keys: dict[str, None]) -> dict[tuple[str, str], None]:
    return dict.fromkeys((p, c) for c in keys for p in net.parents_of(c))


def diff_networks(a: Network, b: Network) -> tuple[DiffEntry, ...]:
    """All differences between two snapshots; empty means identical."""
    out: list[DiffEntry] = []
    if a.version_label != b.version_label:
        out.append(
            DiffEntry(
                "meta",
                f'version_label "{a.version_label}" -> "{b.version_label}"',
            )
        )

    a_ids, b_ids = dict.fromkeys(a.ids()), dict.fromkeys(b.ids())
    for vid in a_ids:
        if vid not in b_ids:
            out.append(DiffEntry("variables", f"removed {vid}"))
    for vid in b_ids:
        if vid not in a_ids:
            out.append(DiffEntry("variables", f"added {vid}"))
    common = [vid for vid in a_ids if vid in b_ids]
    for vid in common:
        va, vb = a.variable(vid), b.variable(vid)
        if va.name != vb.name:
            out.append(
                DiffEntry("variables", f"name of {vid} changed: {va.name} -> {vb.name}")
            )
        if va.outcomes != vb.outcomes:
            sa, sb = set(va.outcomes), set(vb.outcomes)
            for o in va.outcomes:
                if o not in sb:
                    out.append(DiffEntry("outcomes", f"outcomes[{vid}]: removed {o}"))
            for o in vb.outcomes:
                if o not in sa:
                    out.append(DiffEntry("outcomes", f"outcomes[{vid}]: added {o}"))
            if sa == sb:
                out.append(DiffEntry("outcomes", f"outcomes[{vid}]: reordered"))

    keys_a, keys_b = _keys(a), _keys(b)
    arcs_a, arcs_b = _arcs(a, keys_a), _arcs(b, keys_b)
    for p, c in arcs_a:
        if (p, c) not in arcs_b:
            out.append(DiffEntry("arcs", f"removed {p}->{c}"))
    for p, c in arcs_b:
        if (p, c) not in arcs_a:
            out.append(DiffEntry("arcs", f"added {p}->{c}"))
    # the ids both files declare, then the keys neither declares
    compared = [k for k in {**keys_a, **keys_b} if (k in a_ids) == (k in b_ids)]
    for vid in compared:
        pa, pb = a.parents_of(vid), b.parents_of(vid)
        if pa != pb and sorted(pa) == sorted(pb):
            out.append(DiffEntry("arcs", f"parents[{vid}]: reordered"))

    for vid in compared:
        outcomes = a.outcomes(vid) if vid in a_ids else ()
        b_outcomes = b.outcomes(vid) if vid in b_ids else ()
        if outcomes != b_outcomes or a.parents_of(vid) != b.parents_of(vid):
            continue  # structure changed; covered above
        ca = a.cpts.get(vid)
        cb = b.cpts.get(vid)
        if ca is None or cb is None:
            if ca is not cb:
                out.append(DiffEntry("cpts", f"cpt[{vid}]: present in only one file"))
            continue
        if len(ca.rows) != len(cb.rows):
            out.append(
                DiffEntry(
                    "cpts",
                    f"cpt[{vid}]: row count {len(ca.rows)} -> {len(cb.rows)}",
                )
            )
            continue
        if ca.rows == cb.rows and math.isfinite(sum(map(sum, ca.rows))):
            continue  # equal finite cells; the loop below would find nothing
        # rows are named by configuration only in a table of one row per
        # configuration, which also bounds the list built here
        parents, configs = a.parents_of(vid), ()
        if parents and all(map(a.has_variable, (vid, *parents))):
            if math.prod(a.radices(vid)) == len(ca.rows):
                configs = enumerate_configs(a, vid)
        for j, (ra, rb) in enumerate(zip(ca.rows, cb.rows)):
            if len(ra) != len(rb):
                out.append(
                    DiffEntry("cpts", f"cpt[{vid}] row {j}: width {len(ra)} -> {len(rb)}")
                )
                continue
            for i, (xa, xb) in enumerate(zip(ra, rb)):
                if not abs(xa - xb) <= TOLERANCE:  # a NaN cell differs
                    config = ""
                    if configs:
                        config = " (" + ",".join(
                            f"{p}={a.outcomes(p)[k]}" for p, k in zip(parents, configs[j])
                        ) + ")"
                    column = outcomes[i] if i < len(outcomes) else f"column {i}"
                    out.append(
                        DiffEntry("cpts", f"cpt[{vid}] row {j}{config} [{column}]: {xa} -> {xb}")
                    )
    return tuple(out)


def format_diff(entries: tuple[DiffEntry, ...]) -> str:
    return "\n".join(e.message for e in entries)
