"""Loop-by-loop references for the groupoid law check, the copyables scan
and the Next-Closure closure.

associativity_violations walks every composable triple (f, g, h) in three
nested loops over the document's morphisms and compares (f.g).h with
f.(g.h) by name. copyable_masks tests one support bitmask at a time, product
by product, with Python integers. PairClosure closes a set member by member,
testing each product pair of the structure tensor. So they share neither the
int composition table of groupoid._law_check, nor the uint64 mask arrays of
groupoid.enumerate_copyables, nor the packed support masks and byte tables
of groupoid._Closure. They are slow and meant for small inputs.
"""
from __future__ import annotations

import numpy as np

from projlat import Violation, related_pairs

BRUTE_FORCE_LIMIT = 16


def associativity_violations(doc: dict) -> list[Violation]:
    """The associativity violations of a document that passes the
    composability, typing and totality checks, in (f, g, h) loop order."""
    names = [str(m["name"]) for m in doc["morphisms"]]
    table = {(str(f), str(g)): str(h) for f, g, h in doc["compose"]}
    out = []
    for f in names:
        for g in names:
            if (f, g) not in table:
                continue
            for h in names:
                if (g, h) not in table:
                    continue
                lhs = table[(table[(f, g)], h)]
                rhs = table[(f, table[(g, h)])]
                if lhs != rhs:
                    witness = (f, g, h, lhs, rhs)
                    out.append(Violation("associativity", witness, "(f.g).h != f.(g.h)"))
    return out


def products(alg) -> list[tuple[int, int, int]]:
    """(i, j, k) for every product e_i e_j related to e_k."""
    n = alg.carrier.size
    return [(pair // n, pair % n, k) for pair, k in related_pairs(alg.mult)]


def component_masks(alg) -> set[int]:
    """The support of each block of the carrier linked by products, by repeated merging."""
    blocks = [1 << i for i in range(alg.carrier.size)]
    for i, j, k in products(alg):
        link = 1 << i | 1 << j | 1 << k
        merged = 0
        for b in [b for b in blocks if b & link]:
            blocks.remove(b)
            merged |= b
        blocks.append(merged)
    return set(blocks)


def copyable(mask: int, prods, comp_with) -> bool:
    for i, j, k in prods:
        inside = bool(mask >> i & 1 and mask >> j & 1)
        if bool(mask >> k & 1) != inside:
            return False  # product membership must match pair membership both ways
    rest = mask
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        rest &= rest - 1
        if mask & ~comp_with[i]:
            return False  # a pair of members is not composable
    return True


def copyable_masks(alg) -> list[int]:
    """The copyable supports in lectic order: among all 2^n masks up to
    BRUTE_FORCE_LIMIT, else among the empty set, the blocks and their union."""
    n = alg.carrier.size
    prods = products(alg)
    comp_with = [0] * n
    for i, j, _ in prods:
        comp_with[i] |= 1 << j
    if n <= BRUTE_FORCE_LIMIT:
        candidates = range(1 << n)
    else:
        blocks = component_masks(alg)
        candidates = {0, sum(blocks), *blocks}
    found = [m for m in candidates if copyable(m, prods, comp_with)]
    return sorted(found, key=lambda m: [m >> i & 1 for i in range(n)])


class PairClosure:
    """Closure under conjugates (cup[i, j]) and products (M[k, i, j]) by a
    queue of members: each new member x adds, for each member y, every k of
    x.y and y.x, read from per-element lists of product pairs."""

    def __init__(self, alg):
        n = alg.carrier.size
        self.n = n
        self.require = [
            sum(1 << j for j in np.flatnonzero(row).tolist()) for row in alg.cup_matrix > 0
        ]
        self.by_left = [[] for _ in range(n)]
        self.by_right = [[] for _ in range(n)]
        for k, i, j in np.argwhere(alg.structure).tolist():
            self.by_left[i].append((j, k))
            self.by_right[j].append((i, k))

    def close(self, mask: int) -> int:
        queue = [i for i in range(self.n) if mask >> i & 1]
        closed = mask
        while queue:
            x = queue.pop()
            new = self.require[x] & ~closed
            for j, k in self.by_left[x]:
                if closed >> j & 1 and not closed >> k & 1:
                    new |= 1 << k
            for i, k in self.by_right[x]:
                if closed >> i & 1 and not closed >> k & 1:
                    new |= 1 << k
            while new:
                low = new & -new
                closed |= low
                queue.append(low.bit_length() - 1)
                new &= new - 1
        return closed
