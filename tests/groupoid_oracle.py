"""Loop-by-loop references for the groupoid law check, products and
disjoint unions, the group predicates, the copyables scan and the
Next-Closure closure.

law_violations is the name-keyed law check: it walks the compose list, the
pairs of morphisms and each object's and morphism's candidates with dict
lookups by name, and associativity_violations walks every composable triple
(f, g, h) in three nested loops and compares (f.g).h with f.(g.h) by name.
product_doc and disjoint_union_doc format every compose triple of a product
or union as a string document, and is_abelian and element_order walk a
name-keyed table. _component_name_sets joins objects with a union-find
and groups morphism names by root. copyable_masks tests one support bitmask at a time,
product by product, with Python integers. PairClosure closes a set member
by member, testing each product pair of the structure tensor. So they share
neither the int arrays of groupoid._laws, nor the uint64 mask arrays of
groupoid.enumerate_copyables, nor the packed support masks and byte tables
of groupoid._Closure. They are slow and meant for small inputs.
"""
from __future__ import annotations

import numpy as np

from projlat import ParseError, Violation, related_pairs

BRUTE_FORCE_LIMIT = 16


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{what} {value!r} is not a string")
    return value


def _parse(doc: dict) -> tuple[tuple, list[tuple[str, str, str]], dict]:
    """(objects, morphisms as (name, dom, cod), {(f, g): h}); ParseError at
    the first defect, in document order."""
    if not isinstance(doc, dict):
        raise ParseError("groupoid document must be a mapping")
    for key in ("objects", "morphisms", "compose"):
        if key not in doc:
            raise ParseError(f"groupoid document missing field {key!r}")
        if not isinstance(doc[key], (list, tuple)):
            raise ParseError(f"groupoid document field {key!r} is not a list")
    objects = tuple(_string(x, "object name") for x in doc["objects"])
    if len(set(objects)) != len(objects):
        raise ParseError("duplicate object names")
    morphisms = []
    for entry in doc["morphisms"]:
        try:
            m = tuple(_string(entry[k], f"morphism {k}") for k in ("name", "dom", "cod"))
        except (TypeError, KeyError) as exc:
            raise ParseError(f"malformed morphism entry {entry!r}") from exc
        if m[1] not in objects or m[2] not in objects:
            raise ParseError(f"morphism {m[0]!r} references unknown object")
        morphisms.append(m)
    names = {m[0] for m in morphisms}
    if len(names) != len(morphisms):
        raise ParseError("duplicate morphism names")
    table = {}
    for entry in doc["compose"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ParseError(f"compose entry {entry!r} is not a triple")
        f, g, h = entry
        for nm in entry:
            if _string(nm, "compose entry name") not in names:
                raise ParseError(f"compose entry references unknown morphism {nm!r}")
        if (f, g) in table:
            raise ParseError(f"duplicate compose entry for ({f!r}, {g!r})")
        table[(f, g)] = h
    return objects, morphisms, table


def _declared(doc: dict, key: str):
    value = doc.get(key)
    if value is not None and not isinstance(value, dict):
        raise ParseError(f"groupoid document field {key!r} is not a mapping")
    return value


def law_violations(doc: dict) -> list[Violation]:
    """Every law violation of a groupoid document, by name: structure first
    (then nothing else), then associativity, identities and inverses."""
    objects, morphisms, table = _parse(doc)
    types = {name: (dom, cod) for name, dom, cod in morphisms}
    out = []
    for (f, g), h in table.items():
        if types[f][0] != types[g][1]:
            out.append(Violation("composability", (f, g), "table entry for a non-composable pair"))
        elif types[h] != (types[g][0], types[f][1]):
            out.append(Violation("composition-typing", (f, g, h), "composite has wrong dom/cod"))
    for f, fdom, _ in morphisms:
        for g, _, gcod in morphisms:
            if fdom == gcod and (f, g) not in table:
                out.append(Violation("totality", (f, g), "composable pair missing from table"))
    if out:
        return out
    out += associativity_violations(doc)
    declared = _declared(doc, "identities")
    identities = {}
    for x in objects:
        if declared is not None:
            if x not in declared:
                raise ParseError(f"declared identities missing object {x!r}")
            candidates = [_string(declared[x], "declared identity")]
            if candidates[0] not in types:
                raise ParseError(f"declared identity {candidates[0]!r} unknown")
        else:
            candidates = [name for name, dom, cod in morphisms if dom == cod == x]
        for e in candidates:
            if types[e] == (x, x) and all(
                table.get((m, e)) == m for m, dom, _ in morphisms if dom == x
            ) and all(table.get((e, m)) == m for m, _, cod in morphisms if cod == x):
                identities[x] = e
                break
        else:
            out.append(Violation("identity", (x,), "object has no two-sided identity"))
    declared = _declared(doc, "inverses")
    for m, dom, cod in morphisms:
        if dom not in identities or cod not in identities:
            continue
        if declared is not None:
            if m not in declared:
                raise ParseError(f"declared inverses missing morphism {m!r}")
            candidates = [_string(declared[m], "declared inverse")]
            if candidates[0] not in types:
                raise ParseError(f"declared inverse {candidates[0]!r} unknown")
        else:
            candidates = [g for g, gdom, gcod in morphisms if gdom == cod and gcod == dom]
        if not any(
            table.get((g, m)) == identities[dom] and table.get((m, g)) == identities[cod]
            for g in candidates
        ):
            out.append(Violation("inverse", (m,), "morphism has no two-sided inverse"))
    return out


def associativity_violations(doc: dict) -> list[Violation]:
    """The associativity violations of a document that passes the
    composability, typing and totality checks, in (f, g, h) loop order."""
    names = [m["name"] for m in doc["morphisms"]]
    table = {(f, g): h for f, g, h in doc["compose"]}
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


def _table(g) -> dict[tuple[str, str], str]:
    """{(f, g): f after g} of a groupoid, by name, read from its document."""
    return {(f, gg): h for f, gg, h in g.to_doc()["compose"]}


def product_doc(g, h) -> dict:
    """The componentwise product as a string document: morphism order
    row-major over (g, h) pairs, every pair of compose entries formatted."""
    return {
        "objects": [f"({x},{u})" for x in g.objects for u in h.objects],
        "morphisms": [
            {
                "name": f"({a.name},{b.name})",
                "dom": f"({a.dom},{b.dom})",
                "cod": f"({a.cod},{b.cod})",
            }
            for a in g.morphisms
            for b in h.morphisms
        ],
        "compose": [
            [f"({f1},{g1})", f"({f2},{g2})", f"({h1},{h2})"]
            for (f1, f2), h1 in _table(g).items()
            for (g1, g2), h2 in _table(h).items()
        ],
    }


def disjoint_union_doc(g, h) -> dict:
    """The side-by-side union as a string document, names prefixed L. and R."""
    return {
        "objects": [f"{side}.{x}" for side, k in (("L", g), ("R", h)) for x in k.objects],
        "morphisms": [
            {"name": f"{side}.{m.name}", "dom": f"{side}.{m.dom}", "cod": f"{side}.{m.cod}"}
            for side, k in (("L", g), ("R", h))
            for m in k.morphisms
        ],
        "compose": [
            [f"{side}.{f}", f"{side}.{f2}", f"{side}.{h2}"]
            for side, k in (("L", g), ("R", h))
            for (f, f2), h2 in _table(k).items()
        ],
    }


def is_abelian(g) -> bool:
    """Every composable pair commutes, composability included, by name."""
    table = _table(g)
    return all(table.get((b, a)) == h for (a, b), h in table.items())


def element_order(g, name: str) -> int:
    """The least k with name^k the identity, by repeated composition by name."""
    table = _table(g)
    (e,) = g.identities.values()
    k, acc = 1, name
    while acc != e:
        acc = table[(name, acc)]
        k += 1
    return k


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _component_name_sets(g: Groupoid) -> list[frozenset[str]]:
    uf = _UnionFind(len(g.objects))
    for a, b in zip(g.dom.tolist(), g.cod.tolist()):
        uf.union(a, b)
    blocks: dict[int, set[str]] = {}
    for m, x in zip(g.morphisms, g.dom.tolist()):
        blocks.setdefault(uf.find(x), set()).add(m.name)
    ordered = sorted(blocks.items(), key=lambda kv: kv[0])
    return [frozenset(names) for _, names in ordered]


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
