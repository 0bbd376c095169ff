"""Forbidden-sublattice search, a reference for the lattice law scans.

forbidden_sublattices looks for a diamond M3 and a pentagon N5 among the
elements of a poset, reading only its order and its meet and join tables. A
lattice is distributive exactly when it contains neither, and modular
exactly when it contains no pentagon, so it cross-checks the distributivity
and modularity verdicts of order.lattice_report, which scans triples for the
laws themselves. It is pure Python, n^3 per search, and meant for small
posets.
"""
from __future__ import annotations

from typing import Optional

from projlat import ProjectionPoset


def forbidden_sublattices(
    poset: ProjectionPoset,
) -> tuple[Optional[tuple[str, ...]], Optional[tuple[str, ...]]]:
    """Search for a diamond M3 and a pentagon N5; independent of the triple scan.

    Returns (m3_witness, n5_witness) as name tuples or None. A lattice is
    distributive exactly when it contains neither, and modular exactly when
    it contains no pentagon, so this cross-checks the law scans.
    """
    order = sorted(range(poset.n), key=lambda k: poset.names[k])
    leq, meets, joins = poset.leq, poset.meet, poset.join
    m3 = None
    for a in order:
        for b in order:
            if b == a or leq[a, b] or leq[b, a]:
                continue
            for c in order:
                if c in (a, b) or leq[a, c] or leq[c, a]:
                    continue
                if leq[b, c] or leq[c, b]:
                    continue
                if min(meets[a, b], meets[a, c], meets[b, c]) < 0:
                    continue
                if min(joins[a, b], joins[a, c], joins[b, c]) < 0:
                    continue
                if meets[a, b] == meets[a, c] == meets[b, c] and (
                    joins[a, b] == joins[a, c] == joins[b, c]
                ):
                    m3 = (poset.names[a], poset.names[b], poset.names[c])
                    break
            if m3:
                break
        if m3:
            break
    n5 = None
    for a in order:
        for c in order:
            if a == c or not leq[a, c]:
                continue
            for b in order:
                if b in (a, c) or leq[b, a] or leq[a, b]:
                    continue
                if leq[b, c] or leq[c, b]:
                    continue
                if meets[b, a] < 0 or joins[b, a] < 0:
                    continue
                if meets[b, a] == meets[b, c] and joins[b, a] == joins[b, c]:
                    n5 = (poset.names[a], poset.names[b], poset.names[c])
                    break
            if n5:
                break
        if n5:
            break
    return m3, n5
