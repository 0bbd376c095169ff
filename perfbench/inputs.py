"""Input documents for the benchmark, built without projlat.

Every groupoid here is written out from its own multiplication rule, and
every expected fact (subgroupoid counts, cyclicity, components) comes from
a closed formula or from the composition table itself, so the output
checks never compare projlat against projlat.

Morphism names use letters, digits and "_" only: the CLI names a subset
"{a,b,c}", and names without commas keep such a name splittable.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


@dataclass
class Gpd:
    """A finite groupoid: morphisms as (name, dom, cod), table (f, g) -> f after g."""

    objects: list
    morphisms: list
    table: dict
    subgroupoids: int | None = None  # number of subgroupoids, the empty one included
    cyclic_group: bool = False
    identities: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, dom, cod in self.morphisms:
            if dom == cod and all(
                self.table.get((name, g)) == g for g, _, c in self.morphisms if c == dom
            ):
                self.identities.setdefault(dom, name)

    def doc(self, rng: random.Random) -> dict:
        """The projlat groupoid document; the seed only orders the compose list."""
        entries = [[f, g, h] for (f, g), h in self.table.items()]
        rng.shuffle(entries)
        return {
            "objects": list(self.objects),
            "morphisms": [{"name": n, "dom": d, "cod": c} for n, d, c in self.morphisms],
            "compose": entries,
        }

    def components(self) -> list:
        """Morphism-name blocks of the object-connectivity partition, with object sets."""
        parent = {x: x for x in self.objects}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for _, d, c in self.morphisms:
            parent[find(d)] = find(c)
        blocks: dict = {}
        for name, d, c in self.morphisms:
            objs, names = blocks.setdefault(find(d), (set(), set()))
            objs.update((d, c))
            names.add(name)
        return [(frozenset(o), frozenset(n)) for o, n in blocks.values()]


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def group(names: list, op, subgroups: int, cyclic_group: bool = False) -> Gpd:
    table = {(a, b): op(a, b) for a in names for b in names}
    return Gpd(["o"], [(n, "o", "o") for n in names], table, subgroups + 1, cyclic_group)


def cyclic(n: int) -> Gpd:
    """C_n has one subgroup per divisor of n."""
    names = [f"c{i}" for i in range(n)]
    return group(
        names,
        lambda a, b: f"c{(int(a[1:]) + int(b[1:])) % n}",
        len(_divisors(n)),
        cyclic_group=True,
    )


def dihedral(n: int) -> Gpd:
    """D_n of order 2n: r_k r_m = r_{k+m}, r_k s_m = s_{k+m}, s_k r_m = s_{k-m},
    s_k s_m = r_{k-m}. It has tau(n) + sigma(n) subgroups."""

    def op(a, b):
        k, m = int(a[1:]), int(b[1:])
        if a[0] == "r":
            return f"{b[0]}{(k + m) % n}"
        return f"{'s' if b[0] == 'r' else 'r'}{(k - m) % n}"

    names = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]
    divs = _divisors(n)
    return group(names, op, len(divs) + sum(divs))


def gaussian_binomial_2(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n."""
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def elementary_2(k: int) -> Gpd:
    """(Z_2)^k: its subgroups are the subspaces of GF(2)^k."""
    names = [f"v{m:0{k}b}" for m in range(2**k)]
    return group(
        names,
        lambda a, b: f"v{int(a[1:], 2) ^ int(b[1:], 2):0{k}b}",
        sum(gaussian_binomial_2(k, j) for j in range(k + 1)),
    )


def subgroup_indices_2(k: int) -> int:
    """Sum of [G:H] over the subgroups H of (Z_2)^k."""
    return sum(gaussian_binomial_2(k, j) * 2 ** (k - j) for j in range(k + 1))


def interval() -> Gpd:
    """Two objects x, y joined by f: x -> y and its inverse g."""
    morphisms = [("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "y"), ("g", "y", "x")]
    table = {
        ("ix", "ix"): "ix", ("iy", "iy"): "iy",
        ("f", "ix"): "f", ("iy", "f"): "f",
        ("g", "iy"): "g", ("ix", "g"): "g",
        ("g", "f"): "ix", ("f", "g"): "iy",
    }
    return Gpd(["x", "y"], morphisms, table, 5)


def product(a: Gpd, b: Gpd, subgroupoids: int | None = None) -> Gpd:
    """Componentwise product; a caller that needs the subgroupoid count supplies it."""
    objects = [f"{x}_{y}" for x in a.objects for y in b.objects]
    morphisms = [
        (f"{m}_{n}", f"{dm}_{dn}", f"{cm}_{cn}")
        for m, dm, cm in a.morphisms
        for n, dn, cn in b.morphisms
    ]
    table = {
        (f"{f1}_{f2}", f"{g1}_{g2}"): f"{h1}_{h2}"
        for (f1, g1), h1 in a.table.items()
        for (f2, g2), h2 in b.table.items()
    }
    return Gpd(objects, morphisms, table, subgroupoids)


def disjoint_union(a: Gpd, b: Gpd) -> Gpd:
    def tag(p, g):
        return (
            [f"{p}{x}" for x in g.objects],
            [(f"{p}{n}", f"{p}{d}", f"{p}{c}") for n, d, c in g.morphisms],
            {(f"{p}{f}", f"{p}{gg}"): f"{p}{h}" for (f, gg), h in g.table.items()},
        )

    oa, ma, ta = tag("L", a)
    ob, mb, tb = tag("R", b)
    # a subgroupoid is one of each side, the empty ones included
    return Gpd(oa + ob, ma + mb, {**ta, **tb}, a.subgroupoids * b.subgroupoids)


def interval_times_klein4() -> Gpd:
    """A connected groupoid on two objects with vertex group G = (Z_2)^2.

    Its subgroupoids: the empty one, a subgroup at one object (2s), a
    subgroup at each object (s^2), and the connected ones, [G:H] for each
    subgroup H. With s = 5 subgroups that is 1 + 10 + 25 + 11 = 47.
    """
    k4 = elementary_2(2)
    s = k4.subgroupoids - 1
    return product(interval(), k4, 1 + 2 * s + s * s + subgroup_indices_2(2))


# -- algebra documents --------------------------------------------------------


def _object(backend: str, size: int, labels=None) -> dict:
    doc = {"backend": backend, "size": size}
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def _morphism(backend: str, dom: dict, cod: dict, payload) -> dict:
    return {"kind": "morphism", "backend": backend, "dom": dom, "cod": cod, "payload": payload}


def direct_sum_doc(blocks: list) -> dict:
    """The fhilb algebra M_b1 + ... + M_bk: e_ij e_jl = e_il inside each block."""
    d = sum(b * b for b in blocks)
    mult = [[[0.0, 0.0] for _ in range(d * d)] for _ in range(d)]
    unit = [[[0.0, 0.0]] for _ in range(d)]
    off = 0
    for b in blocks:
        for i in range(b):
            unit[off + i * b + i][0][0] = 1.0
            for j in range(b):
                for l in range(b):
                    mult[off + i * b + l][(off + i * b + j) * d + off + j * b + l][0] = 1.0
        off += b * b
    carrier = _object("fhilb", d)
    return {
        "kind": "algebra",
        "backend": "fhilb",
        "carrier": carrier,
        "mult": _morphism("fhilb", _object("fhilb", d * d), carrier, mult),
        "unit": _morphism("fhilb", _object("fhilb", 1), carrier, unit),
    }


def rel_algebra_doc(g: Gpd) -> dict:
    """The groupoid algebra on rel: (f, g) relates to f after g, the unit to every identity."""
    names = [n for n, _, _ in g.morphisms]
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    mult = sorted([index[f] * n + index[gg], index[h]] for (f, gg), h in g.table.items())
    unit = sorted([0, index[e]] for e in g.identities.values())
    carrier = _object("rel", n, names)
    return {
        "kind": "algebra",
        "backend": "rel",
        "carrier": carrier,
        "mult": _morphism("rel", _object("rel", n * n), carrier, mult),
        "unit": _morphism("rel", _object("rel", 1), carrier, unit),
    }


def carrier_mismatch_doc() -> dict:
    """The Z_2 rel algebra with its carrier declared as size 3 (mult says 2)."""
    doc = rel_algebra_doc(cyclic(2))
    doc["carrier"] = _object("rel", 3)
    return doc


def bad_compose_entry_doc(rng: random.Random) -> dict:
    """The Z_2 groupoid document with compose[0] replaced by the number 5."""
    doc = cyclic(2).doc(rng)
    doc["compose"][0] = 5
    return doc


def write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
