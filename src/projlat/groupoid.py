"""Finite groupoids, their relational algebras, and subgroupoid enumeration.

A groupoid document lists objects, morphisms with dom/cod, and a composition
table [[f, g, h], ...] meaning f after g equals h (defined exactly when
dom f = cod g). Identities and inverses are inferred and validated, or
declared and cross-checked; every law failure is reported with a witness.
A Groupoid is held as int arrays alone: dom and cod over object indices
and comp[f, g], -1 where the pair does not compose. A document's names are
mapped to indices once; products, disjoint unions and the builtin groups
build the arrays directly, and all of them pass the same law check, _laws.

to_algebra turns a groupoid into a symmetric dagger Frobenius algebra on the
rel backend: the carrier is the morphism set, multiplication relates the
pair (f, g) to f after g on composable pairs, and the unit relates the
monoidal point to every identity. Projections of that algebra are exactly
the subgroupoids, so one path serves both: enumerate_projections lists the
projections of any rel algebra, a groupoid's and a rel algebra document's
alike, by Ganter-style Next-Closure (enumerate_subgroupoids names them as
subgroupoids); max_closed caps its closed sets. It lists those of a real
fhilb algebra with nonnegative structure constants too (closure_applies
says which), keeping the closed sets that projection_mask passes. The
supports of every basis product e_i e_j and of every conjugate are packed
once into int bitmasks: the closure reads them through byte tables, one
lookup per byte of a closed set for each new member, and on rel the same
tables decide exactly which closed sets are projections. Small carriers are
cross-checked by a 0/1 projection scan: on fhilb zero_one_projections, on
rel one (also brute_force_subgroupoids) that squares all 2^n supports at
once by a highest-bit recurrence on a uint64 array. Associativity is
checked on an int composition table, and copyables by filtering an array of
support bitmasks, both with numpy array operations.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .backend import (
    DEFAULT_TOL,
    REL,
    Morphism,
    Tolerance,
    rel_morphism,
    rel_object,
    related_pairs,
    unit_object,
)
from .errors import (
    BackendMismatch,
    LawViolation,
    ParseError,
    Report,
    ResourceLimit,
    Violation,
)
from .frobenius import (
    _BLOCK_ENTRIES,
    FrobeniusAlgebra,
    Point,
    canonical_subset_name,
    check_scan_size,
    mask_points,
    projection_mask,
    zero_one_projections,
)

MAX_CARRIER = 64
MAX_CLOSED_SETS = 1_000_000
BRUTE_FORCE_LIMIT = 16
_MASK_TESTS = 1 << 12  # mask-by-product tests per step of the copyables scan


@dataclass(frozen=True)
class Mor:
    name: str
    dom: str
    cod: str


class Groupoid:
    """A validated finite groupoid, held as int arrays over morphism indices:
    dom[m] and cod[m] index objects, and comp[f, g] is f after g, -1 where
    dom f != cod g. Construct via validate(), product(), disjoint_union() or
    a fixture."""

    def __init__(
        self,
        objects: tuple[str, ...],
        morphisms: tuple[Mor, ...],
        dom: np.ndarray,
        cod: np.ndarray,
        comp: np.ndarray,
        identities: dict[str, str],
        inverses: dict[str, str],
    ):
        self.objects = objects
        self.morphisms = morphisms
        self.dom, self.cod, self.comp = dom, cod, comp
        self.identities = identities
        self.inverses = inverses
        self.index = {m.name: i for i, m in enumerate(morphisms)}

    def mor(self, name: str) -> Mor:
        return self.morphisms[self.index[name]]

    def morphism_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.morphisms)

    def compose(self, f: str, g: str) -> str:
        """f after g."""
        i, j = self.index.get(f), self.index.get(g)
        if i is None or j is None or self.comp[i, j] < 0:
            raise ParseError(f"morphisms {f!r} and {g!r} are not composable")
        return self.morphisms[self.comp[i, j]].name

    @property
    def is_group(self) -> bool:
        return len(self.objects) == 1

    def to_doc(self) -> dict:
        names = self.morphism_names()
        return {
            "objects": list(self.objects),
            "morphisms": [
                {"name": m.name, "dom": m.dom, "cod": m.cod} for m in self.morphisms
            ],
            "compose": sorted([names[i] for i in entry] for entry in _entries(self.comp).tolist()),
            "identities": dict(sorted(self.identities.items())),
            "inverses": dict(sorted(self.inverses.items())),
        }

    def __repr__(self):
        return f"Groupoid({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


def _entries(comp: np.ndarray) -> np.ndarray:
    """The rows (f, g, f after g) of a composition table, in row-major order."""
    f, g = np.nonzero(comp >= 0)
    return np.stack([f, g, comp[f, g]], axis=1)


# -- document validation ----------------------------------------------------


def _name(value, what: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{what} {value!r} is not a string")
    return value


def _distinct(names, what: str) -> dict[str, int]:
    """The index of each name; ParseError if two are equal."""
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise ParseError(f"duplicate {what} names")
    return index


def _parse_structure(doc: dict) -> tuple:
    """(objects, morphisms, dom, cod, entries), names mapped to indices once:
    dom and cod index objects, and row k of entries is the k-th compose
    entry as morphism indices (f, g, h). ParseError at the first defect, in
    document order."""
    if not isinstance(doc, dict):
        raise ParseError("groupoid document must be a mapping")
    for key in ("objects", "morphisms", "compose"):
        if key not in doc:
            raise ParseError(f"groupoid document missing field {key!r}")
        if not isinstance(doc[key], (list, tuple)):
            raise ParseError(f"groupoid document field {key!r} is not a list")
    objects = tuple(_name(x, "object name") for x in doc["objects"])
    where = _distinct(objects, "object")
    morphisms = []
    for entry in doc["morphisms"]:
        try:
            m = Mor(*(_name(entry[k], f"morphism {k}") for k in ("name", "dom", "cod")))
        except (TypeError, KeyError) as exc:
            raise ParseError(f"malformed morphism entry {entry!r}") from exc
        if m.dom not in where or m.cod not in where:
            raise ParseError(f"morphism {m.name!r} references unknown object")
        morphisms.append(m)
    index = _distinct([m.name for m in morphisms], "morphism")
    seen = set()
    for entry in doc["compose"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ParseError(f"compose entry {entry!r} is not a triple")
        f, g, h = entry
        for nm in entry:
            if not isinstance(nm, str):
                raise ParseError(f"compose entry name {nm!r} is not a string")
            if nm not in index:
                raise ParseError(f"compose entry references unknown morphism {nm!r}")
        if (f, g) in seen:
            raise ParseError(f"duplicate compose entry for ({f!r}, {g!r})")
        seen.add((f, g))
    ids = map(index.__getitem__, chain.from_iterable(doc["compose"]))
    entries = np.fromiter(ids, dtype=np.intp, count=3 * len(seen)).reshape(-1, 3)
    dom = np.array([where[m.dom] for m in morphisms], dtype=np.intp)
    cod = np.array([where[m.cod] for m in morphisms], dtype=np.intp)
    return objects, tuple(morphisms), dom, cod, entries


def _declared(value, key: str) -> Optional[dict]:
    if value is not None and not isinstance(value, dict):
        raise ParseError(f"groupoid document field {key!r} is not a mapping")
    return value


_DECLARED = {"identities": ("object", "identity"), "inverses": ("morphism", "inverse")}


def _declared_index(declared: dict, field: str, key: str, index: dict[str, int]) -> int:
    """The index of the morphism declared for key; ParseError if none, not a
    string or unknown."""
    owner, what = _DECLARED[field]
    if key not in declared:
        raise ParseError(f"declared {field} missing {owner} {key!r}")
    name = _name(declared[key], f"declared {what}")
    if name not in index:
        raise ParseError(f"declared {what} {name!r} unknown")
    return index[name]


def _laws(
    objects: tuple[str, ...],
    morphisms: tuple[Mor, ...],
    dom: np.ndarray,
    cod: np.ndarray,
    entries: np.ndarray,
    declared_ids=None,
    declared_inv=None,
) -> tuple[list[Violation], Optional[Groupoid]]:
    """One search: the violations, and the groupoid when there are none.

    Every law is decided on int arrays (dom, cod, the rows (f, g, h) of
    entries and the composition table comp[f, g] built from them), and a
    Violation is built only for a hit, in the order of a loop over the
    entries. declared_ids and declared_inv are a document's identities and
    inverses fields, None where it has none.
    """
    names = [m.name for m in morphisms]
    n = len(names)
    f, g, h = entries.T
    loose = dom[f] != cod[g]
    mistyped = ~loose & ((dom[h] != dom[g]) | (cod[h] != cod[f]))
    violations: list[Violation] = []
    for k in np.flatnonzero(loose | mistyped).tolist():
        fg = names[f[k]], names[g[k]]
        if loose[k]:
            violations.append(Violation("composability", fg, "table entry for a non-composable pair"))
        else:
            violations.append(
                Violation("composition-typing", (*fg, names[h[k]]), "composite has wrong dom/cod")
            )
    comp = np.full((n, n), -1, dtype=np.min_scalar_type(-n * n - 1))  # f after g, -1 where none
    comp[f, g] = h
    missing = (dom[:, None] == cod[None, :]) & (comp < 0)
    violations += [
        Violation("totality", (names[a], names[b]), "composable pair missing from table")
        for a, b in np.argwhere(missing).tolist()
    ]
    if violations:
        return violations, None  # structural defects make the remaining laws unstatable

    rows = max(1, _BLOCK_ENTRIES // max(1, n * n))
    flat = comp.ravel()
    for start in range(0, n, rows):
        fs = np.arange(start, min(n, start + rows), dtype=comp.dtype)
        lhs = comp.take(comp[fs], axis=0)  # (f.g).h; entries read through a -1 are masked out below
        rhs = flat.take(fs[:, None, None] * n + comp[None])  # f.(g.h)
        bad = (comp[fs] >= 0)[:, :, None] & (comp >= 0)[None] & (lhs != rhs)
        for a, b, c in np.argwhere(bad).tolist():  # row-major: the order of a loop over f, g, h
            ends = names[lhs[a, b, c]], names[rhs[a, b, c]]
            witness = (names[start + a], names[b], names[c], *ends)
            violations.append(Violation("associativity", witness, "(f.g).h != f.(g.h)"))

    # e is an identity of its object x when m.e = m for every m out of x and
    # e.m = m for every m into x (with totality, all those pairs compose)
    ar = np.arange(n)
    is_unit = (
        (dom == cod)
        & ((comp == ar[:, None]) | (dom[:, None] != cod[None, :])).all(axis=0)
        & ((comp == ar[None, :]) | (cod[None, :] != dom[:, None])).all(axis=1)
    )
    first_unit: dict[int, int] = {}
    for e in np.flatnonzero(is_unit).tolist():
        first_unit.setdefault(int(dom[e]), e)
    index = dict(zip(names, range(n)))
    declared_ids = _declared(declared_ids, "identities")
    identities: dict[str, str] = {}
    unit_of = np.full(len(objects), -1, dtype=np.intp)
    for x, obj in enumerate(objects):
        if declared_ids is not None:
            e = _declared_index(declared_ids, "identities", obj, index)
            found = e if is_unit[e] and dom[e] == x else None
        else:
            found = first_unit.get(x)
        if found is None:
            violations.append(Violation("identity", (obj,), "object has no two-sided identity"))
        else:
            identities[obj] = names[found]
            unit_of[x] = found

    # inverts[m, g]: g.m is the identity of dom m and m.g that of cod m
    id_dom, id_cod = unit_of[dom], unit_of[cod]
    inverts = (comp.T == id_dom[:, None]) & (comp == id_cod[:, None])
    declared_inv = _declared(declared_inv, "inverses")
    inverses: dict[str, str] = {}
    for m in np.flatnonzero((id_dom >= 0) & (id_cod >= 0)).tolist():  # else an identity violation
        if declared_inv is not None:
            found = _declared_index(declared_inv, "inverses", names[m], index)
        else:
            found = int(inverts[m].argmax())  # the first candidate that inverts m
        if inverts[m, found]:
            inverses[names[m]] = names[found]
        else:
            violations.append(Violation("inverse", (names[m],), "morphism has no two-sided inverse"))
    if violations:
        return violations, None
    return [], Groupoid(objects, morphisms, dom, cod, comp, identities, inverses)


def _law_check(doc: dict) -> tuple[list[Violation], Optional[Groupoid]]:
    """One parse and one search: the violations, and the groupoid when there are none."""
    structure = _parse_structure(doc)
    return _laws(*structure, doc.get("identities"), doc.get("inverses"))


def groupoid_violations(doc: dict | Groupoid) -> list[Violation]:
    """All law violations of a structurally well-formed document, or of a
    groupoid's arrays with its identities and inverses as declared."""
    if isinstance(doc, Groupoid):
        g, entries = doc, _entries(doc.comp)
        return _laws(g.objects, g.morphisms, g.dom, g.cod, entries, g.identities, g.inverses)[0]
    return _law_check(doc)[0]


def _lawful(violations: list[Violation], g: Optional[Groupoid]) -> Groupoid:
    if violations:
        raise LawViolation(
            f"groupoid document breaks {len(violations)} law(s): "
            + ", ".join(sorted({v.law for v in violations})),
            violations,
        )
    return g


def validate(doc: dict) -> Groupoid:
    """Parse and law-check a groupoid document; raise LawViolation on failure."""
    return _lawful(*_law_check(doc))


# -- fixtures ---------------------------------------------------------------


def _group(names: list[str], prod: Callable[[int, int], int]) -> Groupoid:
    """The one-object groupoid on names where names[i] after names[j] is names[prod(i, j)]."""
    n = len(names)
    entries = np.array([(i, j, prod(i, j)) for i in range(n) for j in range(n)], dtype=np.intp)
    loops = np.zeros(n, dtype=np.intp)  # dom and cod: the one object
    morphisms = tuple(Mor(x, "*", "*") for x in names)
    return _lawful(*_laws(("*",), morphisms, loops, loops, entries))


def cyclic(n: int) -> Groupoid:
    """The cyclic group of order n as a one-object groupoid."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    return _group([str(i) for i in range(n)], lambda a, b: (a + b) % n)


def klein4() -> Groupoid:
    """Z2 x Z2 with elements named as pairs, componentwise addition."""
    names = [f"({a},{b})" for a in (0, 1) for b in (0, 1)]
    return _group(names, lambda x, y: x ^ y)  # index 2a + b


def dihedral(n: int) -> Groupoid:
    """The dihedral group of order 2n: r{k} rotations and s{k} reflections."""
    if n < 1:
        raise ValueError("dihedral parameter must be >= 1")

    def prod(x: int, y: int) -> int:  # index e * n + k for r{k} (e = 0) and s{k} (e = 1)
        (e, k), (f, m) = divmod(x, n), divmod(y, n)
        return f * n + (k + m) % n if e == 0 else (1 - f) * n + (k - m) % n

    return _group([f"{'rs'[e]}{k}" for e in (0, 1) for k in range(n)], prod)


def quaternion8() -> Groupoid:
    """The quaternion group {1, -1, i, -i, j, -j, k, -k}."""

    def prod(x: int, y: int) -> int:  # index 2 * unit + sign for the units 1, i, j, k
        (a, s), (b, t) = divmod(x, 2), divmod(y, 2)
        if a == 0 or b == 0:
            c, sign = a + b, 0
        elif a == b:
            c, sign = 0, 1  # i^2 = j^2 = k^2 = -1
        else:
            c, sign = 6 - a - b, int((b - a) % 3 != 1)  # ij = k, jk = i, ki = j; reversed, -
        return 2 * c + (s ^ t ^ sign)

    return _group([f"{s}{u}" for u in "1ijk" for s in ("", "-")], prod)


def symmetric3() -> Groupoid:
    """S3 as permutations of {0,1,2}; composition applies the right factor first."""
    perms = {
        "e": (0, 1, 2),
        "(01)": (1, 0, 2),
        "(02)": (2, 1, 0),
        "(12)": (0, 2, 1),
        "(012)": (1, 2, 0),
        "(021)": (2, 0, 1),
    }
    maps = list(perms.values())

    def prod(x: int, y: int) -> int:
        f, g = maps[x], maps[y]
        return maps.index(tuple(f[g[i]] for i in range(3)))

    return _group(list(perms), prod)


def interval() -> Groupoid:
    """Two isomorphic objects x, y joined by f: x -> y and its inverse."""
    return validate(
        {
            "objects": ["x", "y"],
            "morphisms": [
                {"name": "id_x", "dom": "x", "cod": "x"},
                {"name": "id_y", "dom": "y", "cod": "y"},
                {"name": "f", "dom": "x", "cod": "y"},
                {"name": "f_inv", "dom": "y", "cod": "x"},
            ],
            "compose": [
                ["id_x", "id_x", "id_x"],
                ["id_y", "id_y", "id_y"],
                ["f", "id_x", "f"],
                ["id_y", "f", "f"],
                ["f_inv", "id_y", "f_inv"],
                ["id_x", "f_inv", "f_inv"],
                ["f_inv", "f", "id_x"],
                ["f", "f_inv", "id_y"],
            ],
        }
    )


def product(g: Groupoid, h: Groupoid) -> Groupoid:
    """Componentwise product; morphism order is row-major over (g, h) pairs."""
    objects = tuple(f"({x},{u})" for x in g.objects for u in h.objects)
    morphisms = tuple(
        Mor(f"({a.name},{b.name})", f"({a.dom},{b.dom})", f"({a.cod},{b.cod})")
        for a in g.morphisms
        for b in h.morphisms
    )
    _distinct(objects, "object")
    _distinct([m.name for m in morphisms], "morphism")
    width, size = len(h.objects), len(h.morphisms)  # (x, u) sits at x * width + u
    dom = (g.dom[:, None] * width + h.dom).ravel()
    cod = (g.cod[:, None] * width + h.cod).ravel()
    entries = (_entries(g.comp)[:, None] * size + _entries(h.comp)).reshape(-1, 3)  # all pairs
    return _lawful(*_laws(objects, morphisms, dom, cod, entries))


def disjoint_union(g: Groupoid, h: Groupoid) -> Groupoid:
    """Side-by-side union with L./R. prefixes to keep names apart."""
    objects = tuple(f"L.{x}" for x in g.objects) + tuple(f"R.{x}" for x in h.objects)
    morphisms = tuple(
        Mor(f"{side}.{m.name}", f"{side}.{m.dom}", f"{side}.{m.cod}")
        for side, k in (("L", g), ("R", h))
        for m in k.morphisms
    )
    shift = len(g.objects)
    dom, cod = np.concatenate([g.dom, h.dom + shift]), np.concatenate([g.cod, h.cod + shift])
    entries = np.concatenate([_entries(g.comp), _entries(h.comp) + len(g.morphisms)])
    return _lawful(*_laws(objects, morphisms, dom, cod, entries))


# -- the relational algebra -------------------------------------------------


def to_algebra(g: Groupoid) -> FrobeniusAlgebra:
    """The groupoid algebra on rel; carrier labels are the morphism names."""
    n = len(g.morphisms)
    carrier = rel_object(n, g.morphism_names())
    flat = g.comp.ravel()  # the pair (f, g) sits at f * n + g
    pairs = np.flatnonzero(flat >= 0)
    mult = np.zeros((n, n * n), dtype=bool)
    mult[flat[pairs], pairs] = True  # e_f e_g = e_(f after g)
    unit_pairs = {(0, g.index[e]) for e in g.identities.values()}
    return FrobeniusAlgebra(
        carrier,
        Morphism(rel_object(n * n), carrier, mult),  # A (x) A, without d^2 labels
        rel_morphism(unit_object(REL), carrier, unit_pairs),
    )


def subset_points(alg: FrobeniusAlgebra, name_sets: Iterable[Iterable[str]]) -> list[Point]:
    """Subsets of the carrier, by label, as rel points, in one mask_points call."""
    if alg.backend != REL:
        raise BackendMismatch("subset points only exist on the rel backend")
    labels = alg.carrier.labels
    if labels is None:
        raise ValueError("carrier has no labels to resolve subset names")
    bit = {label: 1 << i for i, label in enumerate(labels)}
    masks = []
    for names in name_sets:
        wanted = set(names)
        if not wanted <= bit.keys():
            raise ValueError(f"unknown carrier labels: {sorted(wanted - bit.keys())}")
        masks.append(sum(map(bit.__getitem__, wanted)))
    return mask_points(alg, masks)


def subset_point(alg: FrobeniusAlgebra, names: Iterable[str], name: str | None = None) -> Point:
    """The subset of the carrier, by label, as a rel point."""
    (point,) = subset_points(alg, [names])
    return point if name is None else point.renamed(name)


def point_names(p: Point) -> frozenset[str]:
    labels = p.algebra.carrier.labels
    if labels is None:
        raise ValueError("carrier has no labels")
    return frozenset(labels[j] for _, j in related_pairs(p.morphism))


@dataclass(frozen=True)
class Subgroupoid:
    """A subset of morphism names closed under identities, inverses, composition."""

    members: frozenset[str]

    @property
    def name(self) -> str:
        return canonical_subset_name(self.members)


# -- projection enumeration ------------------------------------------------


def _support_masks(alg: FrobeniusAlgebra) -> tuple[list[list[int]], list[int]]:
    """(both, conj) as Python int bitmasks at any width: both[i][j] is the
    support of e_i e_j together with e_j e_i (M[:, i, j] | M[:, j, i]), and
    conj[i] that of the conjugate of e_i (cup[i, :]). A set is closed under
    products exactly when it holds both[i][j] for every pair of members."""
    n = alg.carrier.size
    nbytes = (n + 7) // 8

    def pack(rows: np.ndarray) -> list[int]:  # bit b of row r is rows[r, b]
        data = np.packbits(rows, axis=-1, bitorder="little").tobytes()
        return [int.from_bytes(data[r * nbytes : (r + 1) * nbytes], "little") for r in range(len(rows))]

    support = alg.structure > 0
    both = pack((support | support.transpose(0, 2, 1)).transpose(1, 2, 0).reshape(n * n, n))
    return [both[i * n : (i + 1) * n] for i in range(n)], pack(alg.cup_matrix > 0)


class _Closure:
    """Bit-level closure over carrier indices, read from the supports of M
    and the cup alone: a closed set holds the conjugates of each member and
    every product of two members. table[x][b][v] is the union of x.y and y.x
    over the members y of byte b whose bits are v, so a new member costs one
    lookup per byte."""

    def __init__(self, alg: FrobeniusAlgebra):
        n = alg.carrier.size
        self.n, self.nbytes = n, (n + 7) // 8
        self.supports = _support_masks(alg)
        pairs, self.require = self.supports
        both = np.zeros((n, self.nbytes * 8), dtype=object)
        both[:, :n] = np.array(pairs, dtype=object).reshape(n, n)
        both = both.reshape(n, self.nbytes, 8)
        table = np.zeros((n, self.nbytes, 256), dtype=object)
        for t in range(8):  # the values with highest bit t add member t of the byte
            table[:, :, 1 << t : 2 << t] = table[:, :, : 1 << t] | both[:, :, t, None]
        self.table = table.tolist()

    def close(self, mask: int) -> int:
        closed = queue = mask
        while queue:
            low = queue & -queue
            queue ^= low
            x = low.bit_length() - 1
            new = self.require[x]
            for row, v in zip(self.table[x], closed.to_bytes(self.nbytes, "little")):
                new |= row[v]
            new &= ~closed
            closed |= new
            queue |= new
        return closed

    def is_projection(self, mask: int) -> bool:
        """On rel, exactly S.S = S and conj(S) = S, read from the same
        tables: the union of x.y over members x and y of S, and of their
        conjugates."""
        square = conj = 0
        data = mask.to_bytes(self.nbytes, "little")
        queue = mask
        while queue:
            low = queue & -queue
            queue ^= low
            x = low.bit_length() - 1
            conj |= self.require[x]
            for row, v in zip(self.table[x], data):
                square |= row[v]
        return square == mask == conj


def _bits(mask: int, n: int) -> list[int]:
    """The 0/1 coordinates of a support bitmask; as a sort key, lectic order."""
    return [mask >> i & 1 for i in range(n)]


def _next_closure_masks(ctx: _Closure, max_closed: int) -> Iterator[int]:
    """All closed sets in lectic order (Ganter's Next-Closure)."""
    n = ctx.n
    a = ctx.close(0)
    yield a
    count = 1
    while True:
        nxt = None
        for i in range(n - 1, -1, -1):
            if a >> i & 1:
                continue
            below = (1 << i) - 1
            b = ctx.close((a & below) | (1 << i))
            if (b & below) == (a & below):
                nxt = b
                break
        if nxt is None:
            return
        a = nxt
        count += 1
        if count > max_closed:
            raise ResourceLimit(f"more than {max_closed} closed sets")
        yield a


def _scanned_masks(alg: FrobeniusAlgebra, supports=None) -> list[int]:
    """The 0/1 projection scan, in lectic order: every support S with
    S.S = S and conj(S) = S. Both are built over all 2^n masks at once, a
    mask S + t with highest bit t from S: sq(S + t) = sq(S) | t.t | the
    union over a in S of t.a | a.t, and conj(S + t) = conj(S) | conj(t).
    supports is _support_masks(alg) where the caller already holds it."""
    n = alg.carrier.size
    check_scan_size(n, 2**BRUTE_FORCE_LIMIT)
    both, conj = supports or _support_masks(alg)
    sq = np.zeros(1 << n, np.uint64)
    cj = np.zeros(1 << n, np.uint64)
    for t in range(n):
        cross = np.zeros(1 << t, np.uint64)  # cross[S] = the union over a in S of t.a | a.t
        for a in range(t):
            cross[1 << a : 2 << a] = cross[: 1 << a] | np.uint64(both[t][a])
        sq[1 << t : 2 << t] = sq[: 1 << t] | cross | np.uint64(both[t][t])
        cj[1 << t : 2 << t] = cj[: 1 << t] | np.uint64(conj[t])
    masks = np.arange(1 << n, dtype=np.uint64)
    found = np.flatnonzero((sq == masks) & (cj == masks)).tolist()
    return sorted(found, key=lambda m: _bits(m, n))


def closure_applies(alg: FrobeniusAlgebra, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether Next-Closure finds every projection of alg: always on rel; on
    fhilb when M and the cup are real and entrywise >= 0, every positive
    entry exceeds eps/(1-eps), and eps < 1.

    If the 0/1 point 1_S passes projection_mask, its square's scale is at
    most 1/(1-eps), so (1_S.1_S)_k <= eps/(1-eps) for k outside S. With no
    negative entries nothing cancels, (1_S.1_S)_k >= M[k, i, j] for all i
    and j in S, so S holds the support of every product of members, and
    likewise of every conjugate: S is a closed set.
    """
    if alg.backend == REL:
        return True
    if tol.epsilon >= 1:
        return False
    floor = tol.epsilon / (1 - tol.epsilon)
    return all(
        arr.dtype.kind != "c" and (arr >= 0).all() and not ((arr > 0) & (arr <= floor)).any()
        for arr in (alg.structure, alg.cup_matrix)
    )


def enumerate_projections(
    alg: FrobeniusAlgebra,
    *,
    max_closed: int = MAX_CLOSED_SETS,
    max_carrier: int = MAX_CARRIER,
    cross_check: Optional[bool] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> list[int]:
    """The projections of a rel algebra as support bitmasks, in lectic order,
    or of an fhilb algebra that closure_applies admits, in increasing order
    (that of zero_one_projections).

    Every projection is closed under conjugates and products, so Next-Closure
    lists the closed sets. On rel, _Closure.is_projection keeps, exactly, the
    projections among them (on a groupoid algebra, all of them: the
    subgroupoids); on fhilb, projection_mask at tol does. When the carrier
    is small (or cross_check is forced on) the 0/1 projection scan must give
    the identical list, or a LawViolation is raised.
    """
    if not closure_applies(alg, tol):
        raise BackendMismatch(
            "Next-Closure enumerates fhilb projections only when M and the cup "
            "are real, nonnegative and above the tolerance where nonzero"
        )
    n = alg.carrier.size
    if n > max_carrier:
        raise ResourceLimit(f"carrier {n} exceeds cap {max_carrier}")
    ctx = _Closure(alg)
    if alg.backend == REL:
        masks = [m for m in _next_closure_masks(ctx, max_closed) if ctx.is_projection(m)]
    else:
        closed = sorted(_next_closure_masks(ctx, max_closed))
        rows = np.array([_bits(m, n) for m in closed], dtype=alg.structure.dtype)
        keep = projection_mask(alg, rows, tol)
        masks = [m for m, ok in zip(closed, keep.tolist()) if ok]
    if cross_check or cross_check is None and n <= BRUTE_FORCE_LIMIT:
        if alg.backend == REL:
            oracle = _scanned_masks(alg, ctx.supports)
        else:
            oracle = zero_one_projections(alg, tol, 2**BRUTE_FORCE_LIMIT)
        if oracle != masks:
            raise LawViolation(
                "Next-Closure enumeration disagrees with the 0/1 projection scan",
                [Violation("enumeration", (len(masks), len(oracle)))],
            )
    return masks


def _mask_to_subgroupoid(g: Groupoid, mask: int) -> Subgroupoid:
    return Subgroupoid(
        frozenset(m.name for i, m in enumerate(g.morphisms) if mask >> i & 1)
    )


def brute_force_subgroupoids(g: Groupoid) -> list[Subgroupoid]:
    """Independent oracle: the 0/1 projection scan of the groupoid algebra."""
    return [_mask_to_subgroupoid(g, m) for m in _scanned_masks(to_algebra(g))]


def enumerate_subgroupoids(g: Groupoid, alg=None, **caps) -> list[Subgroupoid]:
    """All subgroupoids, in lectic order, the empty one included: the
    projections of the groupoid algebra alg (to_algebra(g), built here when
    not given), by enumerate_projections, which takes the keyword arguments
    (max_closed, max_carrier, cross_check)."""
    alg = to_algebra(g) if alg is None else alg
    return [_mask_to_subgroupoid(g, m) for m in enumerate_projections(alg, **caps)]


def subgroupoid_points(alg: FrobeniusAlgebra, subs: Iterable[Subgroupoid]) -> list[Point]:
    return subset_points(alg, (s.members for s in subs))


# -- components and copyables ----------------------------------------------


def connected_components(g: Groupoid) -> list[Point]:
    """Morphism blocks of the object-connectivity partition, as points."""
    alg = to_algebra(g)
    return mask_points(alg, _component_masks(alg))


def _component_masks(alg: FrobeniusAlgebra) -> list[int]:
    """The support of each block, by lowest member, where each product
    e_i e_j containing e_k links i, j and k."""
    n = alg.carrier.size
    if not n:
        return []
    m = alg.mult.payload.reshape(n, n, n)  # [k, i, j]
    link = m.any(0) | m.any(2).T | m.any(1).T  # i-j, i-k, j-k
    reach = (link | link.T | np.eye(n, dtype=bool)).astype(np.float32)
    while True:  # square until closed under paths; counts <= n are exact
        wider = (reach @ reach > 0).astype(np.float32)
        if (wider == reach).all():
            break
        reach = wider
    masks: dict[int, int] = {}
    for i, lowest in enumerate((reach > 0).argmax(axis=0).tolist()):
        masks[lowest] = masks.get(lowest, 0) | 1 << i
    return list(masks.values())


def _is_special(alg: FrobeniusAlgebra) -> bool:
    """m . m^dagger = id for a rel algebra, read off M: every product e_i e_j
    has at most one member and every element is some product."""
    payload = alg.mult.payload
    return bool((payload.sum(axis=0) <= 1).all() and payload.any(axis=1).all())


def enumerate_copyables(alg: FrobeniusAlgebra) -> list[Point]:
    """All rel points satisfying the copying equation, in lectic order."""
    return mask_points(alg, _copyable_masks(alg)[0])


def _copyable_masks(alg: FrobeniusAlgebra) -> tuple[list[int], list[int]]:
    """(the copyables' support masks in lectic order, the block masks).

    A set S is copyable when, for every product e_i e_j containing e_k, k is
    in S exactly when i and j are, and every pair of members composes. Each
    block passes the first clause. On a special algebra, a groupoid by
    Heunen-Contreras-Cattaneo, the copyables are exactly the empty set and
    the blocks whose members all compose (single-object components; see
    copyables_report), at every size. Otherwise each test filters a uint64
    array of all 2^n support bitmasks, so a carrier above BRUTE_FORCE_LIMIT
    raises ResourceLimit.
    """
    if alg.backend != REL:
        raise BackendMismatch("copyable enumeration is a rel operation")
    n = alg.carrier.size
    blocks = _component_masks(alg)
    if _is_special(alg):
        composes = alg.mult.payload.any(axis=0).reshape(n, n)
        copyable = [0]
        for block in blocks:
            members = np.flatnonzero(_bits(block, n))
            if composes[np.ix_(members, members)].all():
                copyable.append(block)
        return sorted(copyable, key=lambda m: _bits(m, n)), blocks
    if n > BRUTE_FORCE_LIMIT:
        raise ResourceLimit(f"non-special copyables scan 2^{n} sets, cap 2^{BRUTE_FORCE_LIMIT}")
    products = [(pair // n, pair % n, k) for pair, k in related_pairs(alg.mult)]
    # A step tests one product while the array is long, many once it is short.
    # It shrinks fastest if early products reject independently: x e = x and
    # e x = x rarely break a mask and go last; along the diagonals of
    # (i + k) mod n, neighbours differ in i and k.
    products.sort(key=lambda p: (p[2] in p[:2], (p[0] + p[2]) % n, p[0]))
    bits = np.arange(n, dtype=np.uint64)
    comp_with = (alg.structure.any(0).astype(np.uint64) << bits).sum(1)  # j composable after i
    masks = np.arange(1 << n, dtype=np.uint64)
    ijk, done = np.array(products, dtype=np.uint64).reshape(-1, 3), 0
    while done < len(ijk):  # product membership must match pair membership
        i, j, k = ijk[done : done + max(1, _MASK_TESTS // max(1, len(masks)))].T
        col = masks[:, None]
        masks = masks[(col >> k & 1 == col >> i & col >> j & 1).all(1)]
        done += len(i)
    col = masks[:, None]
    masks = masks[((col >> bits & 1 == 0) | (col & ~comp_with == 0)).all(1)]  # members compose
    return sorted(masks.tolist(), key=lambda m: _bits(m, n)), blocks


@dataclass(frozen=True)
class CopyablesReport(Report):
    """Copyable enumeration cross-checked against connectivity blocks.

    lemma_holds tests the naive claim that the copyables are exactly the
    blocks plus the empty set. The true copyables are the empty set plus
    each block whose component has a single object, so the claim holds
    exactly when every component has one object; otherwise missing lists
    the multi-object components and extra stays empty.
    """

    copyables: tuple[str, ...]
    components: tuple[str, ...]
    missing: tuple[str, ...]  # expected (blocks or empty set) but not copyable
    extra: tuple[str, ...]  # copyable but neither a block nor empty

    kind = "copyables_report"
    doc_keys = ("copyables", "components", "missing", "extra", "lemma_holds")

    @property
    def lemma_holds(self) -> bool:
        return not self.missing and not self.extra


def copyables_report(alg: FrobeniusAlgebra) -> CopyablesReport:
    """Compare the enumerated copyables with the naive "blocks plus empty" claim.

    Copying needs every pair of members to be composable, which puts them
    all on one object; closure under factorisation then forces the whole
    component, which can have no other object. A multi-object component is
    therefore reported as missing, not as a law violation.
    """
    copyable, blocks = _copyable_masks(alg)
    found, expected = set(copyable), {0, *blocks}
    masks = sorted(found | expected)
    name = dict(zip(masks, (p.name for p in mask_points(alg, masks))))

    def names(masks) -> tuple[str, ...]:
        return tuple(sorted(name[m] for m in masks))

    return CopyablesReport(
        copyables=names(found),
        components=names(expected - {0}),
        missing=names(expected - found),
        extra=names(found - expected),
    )


# -- group predicates -------------------------------------------------------


def is_abelian(g: Groupoid) -> bool:
    """Every composable pair commutes, composability included."""
    return bool((g.comp == g.comp.T).all())


def element_order(g: Groupoid, name: str) -> int:
    if not g.is_group:
        raise ValueError("element orders are defined for one-object groupoids")
    e = g.index[next(iter(g.identities.values()))]
    row = g.comp[g.index[name]].tolist()  # row[m] is name after m
    k, acc = 1, g.index[name]
    while acc != e:
        acc = row[acc]
        k += 1
        if k > len(g.morphisms):
            raise LawViolation("element order exceeds group order", [])
    return k


def is_cyclic_group(g: Groupoid) -> bool:
    """True iff some element's order equals the group order."""
    if not g.is_group:
        raise ValueError("cyclicity is a one-object (group) question")
    n = len(g.morphisms)
    return any(element_order(g, m.name) == n for m in g.morphisms)
