"""Loop-by-loop references for the groupoid law check and the copyables scan.

associativity_violations walks every composable triple (f, g, h) in three
nested loops over the document's morphisms and compares (f.g).h with
f.(g.h) by name. copyable_masks tests one support bitmask at a time, product
by product, with Python integers. So they share neither the int composition
table of groupoid._law_check nor the uint64 mask arrays of
groupoid.enumerate_copyables. They are slow and meant for small inputs.
"""
from __future__ import annotations

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
