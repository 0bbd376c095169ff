"""References for the lattice tables and law verdicts of projlat.order.

bound_table is the greatest-element search that ProjectionPoset.meet and
join used before the down-set lookup: for each i, the greatest common bound
of i and every j, row by row. law_scans is the full triple scan of both
laws in name order that lattice_report used before its certificates; it
returns each law's verdict and its first failing triple. forbidden_sublattices
looks for a diamond M3 and a pentagon N5 among the elements of a poset,
reading only its order and its meet and join tables: a lattice is
distributive exactly when it contains neither, and modular exactly when it
contains no pentagon. All three are slow (n^3) and meant for small posets.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from projlat import ProjectionPoset
from projlat.order import _greatest


def bound_table(bound: np.ndarray) -> np.ndarray:
    """[i, j]: the best common bound of i and j, -1 if none.

    bound[i, k] says k bounds i. The best bound is the greatest in the
    order bound.T, which is leq for lower bounds and its reverse for upper.
    """
    return np.stack([_greatest(bound[i] & bound, bound.T) for i in range(len(bound))])


def _first_true(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    hits = np.argwhere(mask)
    return tuple(int(k) for k in hits[0]) if len(hits) else None


def law_scans(poset: ProjectionPoset):
    """(distributive, witness, modular, witness) by scanning every triple in
    name order, with tables from bound_table; all None when some pair has no
    meet or no join."""
    order = sorted(range(poset.n), key=lambda k: poset.names[k])
    leq = poset.leq[np.ix_(order, order)]
    meet = bound_table(np.ascontiguousarray(leq.T))
    join = bound_table(leq)
    if (meet < 0).any() or (join < 0).any():
        return None, None, None, None
    dist_wit = mod_wit = None
    for a in range(poset.n):
        # [b, c]: a ^ (b v c) against (a ^ b) v (a ^ c), and for a <= c,
        # a v (b ^ c) against (a v b) ^ c
        hit = _first_true(meet[a][join] != join[meet[a][:, None], meet[a][None, :]])
        if dist_wit is None and hit:
            dist_wit = (a, *hit)
        hit = _first_true(leq[a][None, :] & (join[a][meet] != meet[join[a]]))
        if mod_wit is None and hit:
            mod_wit = (a, *hit)
    names = [poset.names[k] for k in order]
    dist_wit, mod_wit = (tuple(names[k] for k in w) if w else None for w in (dist_wit, mod_wit))
    return dist_wit is None, dist_wit, mod_wit is None, mod_wit


def forbidden_sublattices(
    poset: ProjectionPoset,
) -> tuple[Optional[tuple[str, ...]], Optional[tuple[str, ...]]]:
    """Search for a diamond M3 and a pentagon N5; independent of the law scans.

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
