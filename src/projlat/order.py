"""Partial orders and lattice analytics for finite projection families.

The multiplication order p <= q iff p.q = p and the orthogonality p _|_ q
iff p.q = 0 are computed pairwise and then verified, never assumed: a family
whose products break reflexivity, antisymmetry, transitivity, or the three
orthogonality axioms (symmetry, antireflexivity above zero, downward
closure) raises LawViolation with witnesses. A family of 0/1 rel points
(on a groupoid algebra, its subgroupoids) also gets the subset-inclusion
order, and compare_orders documents how the two relate (for one-object
groupoids the multiplication order is dual to inclusion above the empty
set). A poset holds its elements in name order, so every analytic lists
them in index order.

Meets and joins are looked up: the meet of i and j is the element whose
down-set is the intersection of theirs, found by binary search among the
sorted packed down-sets (joins likewise with up-sets). The top and the
maximum orthogonal elements come from one greatest-element routine. All of
these, and the cover relation, are cached on the poset, so every analytic
reads the same tables. The lattice report decides modularity and
distributivity by O(n^2) certificates from lattice theory (a graded height
that is a valuation; every join-irreducible join-prime) and scans triples
only to find the first witness when a certificate fails. The
orthocomplement probe measures, per element, whether a maximum orthogonal
element exists and which complementation clauses it satisfies.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .backend import DEFAULT_TOL, REL, Tolerance
from .errors import BackendMismatch, LawViolation, Report, Violation
from .frobenius import (
    _BLOCK_ENTRIES,
    FrobeniusAlgebra,
    Point,
    is_projection,
    mask_points,
    mult_points,
    points_equal,
    zero_point,
)
from .groupoid import Groupoid, is_cyclic_group


# -- poset construction -----------------------------------------------------


def _poset_violations(leq: np.ndarray, names: Sequence[str]) -> list[Violation]:
    out = [Violation("reflexivity", (names[i],)) for i in np.flatnonzero(~leq.diagonal())]
    anti = leq & leq.T & ~np.eye(leq.shape[0], dtype=bool)
    out += [Violation("antisymmetry", (names[i], names[j])) for i, j in np.argwhere(anti)]
    out += [
        Violation("transitivity", (names[i], names[j]))
        for i, j in np.argwhere((leq @ leq) & ~leq)
    ]
    return out


def _orthogonality_violations(
    leq: np.ndarray, orth: np.ndarray, zero_index: int, names: Sequence[str]
) -> list[Violation]:
    n = leq.shape[0]
    out = [
        Violation("orth-symmetry", (names[i], names[j]))
        for i, j in np.argwhere(np.triu(orth != orth.T, 1))
    ]
    out += [
        Violation("orth-antireflexivity", (names[i],), "self-orthogonal above zero")
        for i in np.flatnonzero(orth.diagonal() & (np.arange(n) != zero_index))
    ]
    # column a of leq @ orth marks every c below some b _|_ a
    for a in np.flatnonzero(((leq @ orth) & ~orth).any(axis=0)):
        bad = orth[:, a, None] & leq.T & ~orth[None, :, a]  # [b, c]
        out += [
            Violation(
                "orth-downward-closure",
                (names[c], names[b], names[a]),
                "c <= b and b _|_ a but not c _|_ a",
            )
            for b, c in np.argwhere(bad)
        ]
    out += [
        Violation("zero-bottom", (names[i],), "zero not below element")
        for i in np.flatnonzero(~leq[zero_index])
    ]
    return out


def _greatest(sets: np.ndarray, leq: np.ndarray) -> np.ndarray:
    """Greatest member of each row of a boolean (m, n) membership matrix, or -1.

    In a finite poset a greatest member has strictly the largest down-set
    of its set, so the argmax of down-set size is the only candidate; one
    pass then checks that every member lies below it.
    """
    candidate = np.where(sets, leq.sum(axis=0), -1).argmax(axis=1)
    below = leq[:, candidate].T  # [row, k]: k <= candidate of row
    found = sets.any(axis=1) & ~(sets & ~below).any(axis=1)
    return np.where(found, candidate, -1)


def _bound_lookup(bound: np.ndarray) -> np.ndarray:
    """[i, j]: the k whose row of bound is the AND of rows i and j, -1 if none.

    With bound[i] the down-set of i, that k is the meet of i and j: the
    meet's down-set is exactly the set of common lower bounds, and distinct
    elements have distinct down-sets. Rows are packed into byte strings and
    sorted once; the AND of each pair of rows is found by binary search.
    """
    n = bound.shape[0]
    packed = np.packbits(bound, axis=1)
    key = np.dtype(f"V{packed.shape[1]}")
    owner = np.argsort(packed.view(key).ravel())
    rows = packed.view(key).ravel()[owner]
    table = np.empty((n, n), dtype=np.intp)
    step = max(1, _BLOCK_ENTRIES // max(1, n * packed.shape[1]))
    for start in range(0, n, step):
        anded = np.ascontiguousarray(packed[start : start + step, None] & packed[None])
        anded = anded.view(key)[..., 0]
        at = np.minimum(np.searchsorted(rows, anded), n - 1)
        table[start : start + step] = np.where(rows[at] == anded, owner[at], -1)
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class ProjectionPoset:
    """A verified finite projection order with orthogonality and a zero,
    its elements in strictly increasing name order."""

    points: tuple[Point, ...]
    names: tuple[str, ...]
    leq: np.ndarray
    orth: np.ndarray
    zero_index: int

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.names, self.names[1:])):
            raise ValueError("poset elements must be in strictly increasing name order")
        self.leq.setflags(write=False)
        self.orth.setflags(write=False)

    @classmethod
    def from_relations(
        cls,
        points: Sequence[Point],
        names: Sequence[str],
        leq: np.ndarray,
        orth: np.ndarray,
        zero_index: int,
    ) -> "ProjectionPoset":
        """The poset of relations given in any element order: the laws are
        checked, and witnesses named, in that order; the poset then holds
        its elements in name order."""
        leq = np.asarray(leq, dtype=bool)
        orth = np.asarray(orth, dtype=bool)
        violations = _poset_violations(leq, names)
        violations += _orthogonality_violations(leq, orth, zero_index, names)
        if violations:
            raise LawViolation(f"projection order breaks {len(violations)} law(s)", violations)
        order = sorted(range(len(names)), key=names.__getitem__)
        ix = np.ix_(order, order)
        points, names = tuple(points[k] for k in order), tuple(names[k] for k in order)
        return cls(points, names, leq[ix], orth[ix], order.index(zero_index))

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def is_leq(self, a: str, b: str) -> bool:
        return bool(self.leq[self.index(a), self.index(b)])

    @functools.cached_property
    def meet(self) -> np.ndarray:
        """meet[i, j]: index of the greatest lower bound of i and j, -1 if none."""
        return _bound_lookup(np.ascontiguousarray(self.leq.T))

    @functools.cached_property
    def join(self) -> np.ndarray:
        """join[i, j]: index of the least upper bound of i and j, -1 if none."""
        return _bound_lookup(self.leq)

    @functools.cached_property
    def covers(self) -> np.ndarray:
        """covers[a, b]: a < b with nothing strictly between."""
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        through = strict.astype(np.float32) @ strict.astype(np.float32)  # counts <= n, exact
        covers = strict & (through == 0)
        covers.setflags(write=False)
        return covers

    @functools.cached_property
    def complement(self) -> np.ndarray:
        """complement[a]: the maximum element orthogonal to a, -1 if none."""
        comp = _greatest(self.orth, self.leq)
        comp.setflags(write=False)
        return comp

    def meet_index(self, i: int, j: int) -> Optional[int]:
        m = int(self.meet[i, j])
        return m if m >= 0 else None

    def join_index(self, i: int, j: int) -> Optional[int]:
        m = int(self.join[i, j])
        return m if m >= 0 else None

    def top_index(self) -> Optional[int]:
        top = int(_greatest(np.ones((1, self.n), dtype=bool), self.leq)[0])
        return top if top >= 0 else None


def build_poset(
    alg: FrobeniusAlgebra, family: Sequence[Point], tol: Tolerance = DEFAULT_TOL
) -> ProjectionPoset:
    """The multiplication order on a projection family, verified.

    Every member must pass is_projection; a zero element is adjoined when
    missing. Law failures raise LawViolation rather than returning a poset.
    """
    points = list(family)
    names = []
    for k, p in enumerate(points):
        if not p.algebra.same_algebra(alg):
            raise ValueError(f"family member {k} lives on a different algebra")
        if not is_projection(p, tol):
            label = p.name if p.name is not None else f"#{k}"
            raise ValueError(f"family member {label} fails the projection test")
        names.append(p.name if p.name is not None else f"p{k}")
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise ValueError(f"duplicate element names: {dupes}")
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if points_equal(points[a], points[b], tol):
                raise ValueError(
                    f"elements {names[a]} and {names[b]} are the same projection"
                )
    zero = zero_point(alg)
    zero_index = next(
        (k for k, p in enumerate(points) if points_equal(p, zero, tol)), None
    )
    if zero_index is None:
        zero_name = "0"
        while zero_name in names:
            zero_name += "'"
        points.append(zero.renamed(zero_name))
        names.append(zero_name)
        zero_index = len(points) - 1
    n = len(points)
    leq = np.zeros((n, n), dtype=bool)
    orth = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            prod = mult_points(points[i], points[j])
            leq[i, j] = points_equal(prod, points[i], tol)
            orth[i, j] = points_equal(prod, zero, tol)
    return ProjectionPoset.from_relations(points, names, leq, orth, zero_index)


def inclusion_poset(
    alg: FrobeniusAlgebra, family: Sequence[Point], tol: Tolerance = DEFAULT_TOL
) -> ProjectionPoset:
    """Subset-inclusion order on a family of 0/1 rel points, the family that
    build_poset takes (on a groupoid algebra, the subgroupoids); the empty
    set is adjoined when missing, and orthogonality is disjointness.

    Both come from one product of the 0/1 support rows: with
    common[i, j] = |S_i & S_j|, S_i <= S_j iff common[i, j] = |S_i|, and
    S_i, S_j are disjoint iff common[i, j] = 0 (counts of at most the
    carrier size are exact in float32).
    """
    if alg.backend != REL:
        raise BackendMismatch("the inclusion order lives on the rel backend")
    points = list(family)
    if any(not p.algebra.same_algebra(alg) for p in points):
        raise ValueError("a family member lives on a different algebra")
    if all(p.morphism.payload.any() for p in points):
        points += mask_points(alg, [0])
    rows = np.array([p.morphism.payload[:, 0] for p in points], np.float32)
    common = rows @ rows.T
    leq, orth = common == common.diagonal()[:, None], common == 0
    if np.count_nonzero(leq & leq.T) > len(rows):  # two equal rows include each other
        raise ValueError("duplicate subgroupoids in family")
    names = [p.name if p.name is not None else f"p{k}" for k, p in enumerate(points)]
    zero_index = int(np.flatnonzero(common.diagonal() == 0)[0])
    return ProjectionPoset.from_relations(points, names, leq, orth, zero_index)


# -- orthogonality re-check (report form) -----------------------------------


@dataclass(frozen=True)
class OrthogonalityReport(Report):
    violations: tuple[Violation, ...]

    kind = "orthogonality_report"
    doc_keys = ("passed", "violations")

    @property
    def passed(self) -> bool:
        return not self.violations


def check_orthogonality_axioms(poset: ProjectionPoset) -> OrthogonalityReport:
    """Re-run the three orthogonality axioms, returning witnesses, not raising."""
    violations = _orthogonality_violations(
        poset.leq, poset.orth, poset.zero_index, poset.names
    )
    return OrthogonalityReport(tuple(v for v in violations if v.law != "zero-bottom"))


# -- commuting products and greatest lower bounds ---------------------------


@dataclass(frozen=True)
class PairCheck(Report):
    left: str
    right: str
    commute: bool
    product_is_projection: bool
    product_is_glb: bool

    doc_keys = ("left", "right", "commute", "product_is_projection", "product_is_glb",
                "consistent")

    @property
    def consistent(self) -> bool:
        return self.commute == self.product_is_projection == self.product_is_glb


@dataclass(frozen=True)
class EquivalenceReport(Report):
    pairs: tuple[PairCheck, ...]

    kind = "equivalence_report"
    doc_keys = ("consistent", "pairs")

    @property
    def consistent(self) -> bool:
        return all(p.consistent for p in self.pairs)

    def disagreements(self) -> list[PairCheck]:
        return [p for p in self.pairs if not p.consistent]


def commute_glb_equivalence(
    alg: FrobeniusAlgebra, poset: ProjectionPoset, tol: Tolerance = DEFAULT_TOL
) -> EquivalenceReport:
    """Per pair: commuting, product-is-projection, product-is-glb flags.

    The three agree on sound families (a commuting product is a projection
    and realizes the greatest lower bound); any pair where they differ is
    surfaced for inspection.
    """
    pairs = []
    for a in range(poset.n):
        for b in range(a + 1, poset.n):
            p, q = poset.points[a], poset.points[b]
            pq = mult_points(p, q)
            qp = mult_points(q, p)
            commute = points_equal(pq, qp, tol)
            proj = is_projection(pq, tol)
            m = poset.meet[a, b]
            glb = bool(m >= 0) and points_equal(pq, poset.points[m], tol)
            pairs.append(
                PairCheck(poset.names[a], poset.names[b], commute, proj, glb)
            )
    return EquivalenceReport(tuple(pairs))


# -- lattice analytics ------------------------------------------------------


@dataclass(frozen=True)
class ProbeEntry(Report):
    element: str
    has_max_orthogonal: bool
    complement: Optional[str]
    meet_is_zero: Optional[bool]
    join_is_top: Optional[bool]
    double_complement: Optional[bool]
    order_reversing: Optional[bool]

    doc_keys = ("element", "has_max_orthogonal", "complement", "meet_is_zero", "join_is_top",
                "double_complement", "order_reversing", "passes")

    @property
    def passes(self) -> bool:
        return bool(
            self.has_max_orthogonal
            and self.meet_is_zero
            and self.join_is_top
            and self.double_complement
            and self.order_reversing
        )


@dataclass(frozen=True)
class ProbeReport(Report):
    applicable: bool
    entries: tuple[ProbeEntry, ...]

    kind = "probe_report"
    doc_keys = ("applicable", "all_pass", "entries")

    @property
    def all_pass(self) -> bool:
        return self.applicable and all(e.passes for e in self.entries)


def orthocomplement_probe(poset: ProjectionPoset) -> ProbeReport:
    """Measure, per element, how close orthogonality comes to complementation.

    For each a the probe takes the maximum m of {b : b _|_ a} when one
    exists and checks a meet m = 0, a join m = top, m's own complement
    returning a, and order reversal against every element whose complement
    exists. No clause is required to hold; the report just records them.
    """
    top = poset.top_index()
    if top is None:
        return ProbeReport(False, ())
    comp = poset.complement
    has = comp >= 0
    m = np.where(has, comp, 0)  # rows without a complement are reported as such below
    each = np.arange(poset.n)
    # reversing[a]: m(b) <= m(a) for every b >= a that has a complement
    reversing = ~(poset.leq & has[None, :] & ~poset.leq[m[None, :], m[:, None]]).any(axis=1)
    clauses = zip(
        (poset.meet[each, m] == poset.zero_index).tolist(),
        (poset.join[each, m] == top).tolist(),
        (comp[m] == each).tolist(),
        reversing.tolist(),
    )
    names = poset.names
    entries = [
        ProbeEntry(names[a], True, names[c], *flags) if c >= 0
        else ProbeEntry(names[a], False, None, None, None, None, None)
        for a, c, flags in zip(each.tolist(), comp.tolist(), clauses)
    ]
    return ProbeReport(True, tuple(entries))


@dataclass(frozen=True)
class LatticeReport(Report):
    names: tuple[str, ...]
    is_lattice: bool
    missing_meets: tuple[tuple[str, str], ...]
    missing_joins: tuple[tuple[str, str], ...]
    meet_table: dict[str, dict[str, Optional[str]]] = field(repr=False)
    join_table: dict[str, dict[str, Optional[str]]] = field(repr=False)
    distributive: Optional[bool]
    distributive_witness: Optional[tuple[str, str, str]]
    modular: Optional[bool]
    modular_witness: Optional[tuple[str, str, str]]
    probe: ProbeReport

    kind = "lattice_report"
    doc_keys = ("names", "is_lattice", "missing_meets", "missing_joins", "meet_table",
                "join_table", "distributive", "distributive_witness", "modular",
                "modular_witness", "probe")


def _first_true(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    hits = np.argwhere(mask)
    return tuple(int(k) for k in hits[0]) if len(hits) else None


def _graded_heights(leq: np.ndarray, covers: np.ndarray) -> Optional[np.ndarray]:
    """h with h(bottom) = 0 and h(b) = h(a) + 1 on every cover a < b, or None.

    h(x) is the length of the longest chain below x, taken in order of
    down-set size (a linear extension); it passes on every cover exactly
    when all maximal chains between two elements have one length.
    """
    h = np.zeros(len(leq), dtype=np.intp)
    for x in np.argsort(leq.sum(axis=0), kind="stable"):
        below = covers[:, x]
        if below.any():
            h[x] = h[below].max() + 1
    rise = h[None, :] - h[:, None]  # [a, b]: h(b) - h(a)
    return h if (rise[covers] == 1).all() else None


def _is_modular(leq, meet, join, covers) -> bool:
    """Birkhoff: a finite lattice is modular iff it is graded and its height
    is a valuation, h(x) + h(y) = h(x ^ y) + h(x v y)."""
    h = _graded_heights(leq, covers)
    return h is not None and bool((h[:, None] + h[None, :] == h[meet] + h[join]).all())


def _is_distributive(leq, covers) -> bool:
    """A finite lattice is distributive iff every join-irreducible a (one
    lower cover) is join-prime: a <= x v y implies a <= x or a <= y. That
    holds exactly when {x : not a <= x} is a down-set with a greatest element."""
    irreducible = covers.sum(axis=0) == 1
    return bool((_greatest(~leq[irreducible], leq) >= 0).all())


def _distributive_witness(meet, join) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c) with a ^ (b v c) != (a ^ b) v (a ^ c)."""
    for a in range(len(meet)):
        hit = _first_true(meet[a][join] != join[meet[a][:, None], meet[a][None, :]])
        if hit:
            return (a, *hit)
    return None


def _modular_witness(leq, meet, join) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c) with a <= c and a v (b ^ c) != (a v b) ^ c."""
    for a in range(len(meet)):
        hit = _first_true(leq[a][None, :] & (join[a][meet] != meet[join[a]]))
        if hit:
            return (a, *hit)
    return None


def _name_table(names: Sequence[str], t: np.ndarray) -> dict[str, dict[str, Optional[str]]]:
    label = np.array([*names, None], dtype=object)  # index -1 (no bound) reads None
    return {a: dict(zip(names, row)) for a, row in zip(names, label[t].tolist())}


def lattice_report(poset: ProjectionPoset) -> LatticeReport:
    """The cached meet/join tables, law certificates and witnesses, and the probe.

    Distributivity and modularity are decided only when every pair has both
    a meet and a join; otherwise they are reported as not applicable (None).
    When a certificate fails, the triples are scanned in name order up to
    the first failing one, which is the witness.
    """
    names, leq, meet, join = poset.names, poset.leq, poset.meet, poset.join
    missing_meets = tuple((names[a], names[b]) for a, b in np.argwhere(np.triu(meet < 0)))
    missing_joins = tuple((names[a], names[b]) for a, b in np.argwhere(np.triu(join < 0)))
    is_lattice = not missing_meets and not missing_joins
    distributive = modular = None
    dist_wit = mod_wit = None
    if is_lattice:
        modular = _is_modular(leq, meet, join, poset.covers)
        distributive = modular and _is_distributive(leq, poset.covers)
        if not distributive:
            dist_wit = _distributive_witness(meet, join)
            distributive = dist_wit is None
        if not modular:
            mod_wit = _modular_witness(leq, meet, join)
            modular = mod_wit is None
        dist_wit, mod_wit = (
            tuple(names[k] for k in w) if w else None for w in (dist_wit, mod_wit)
        )
    return LatticeReport(
        names,
        is_lattice,
        missing_meets,
        missing_joins,
        _name_table(names, meet),
        _name_table(names, join),
        distributive,
        dist_wit,
        modular,
        mod_wit,
        orthocomplement_probe(poset),
    )


# -- order comparison -------------------------------------------------------


@dataclass(frozen=True)
class OrderComparison(Report):
    equal: bool
    dual: bool
    dual_above_zero: bool
    only_in_first: tuple[tuple[str, str], ...]
    only_in_second: tuple[tuple[str, str], ...]

    kind = "order_comparison"
    doc_keys = ("equal", "dual", "dual_above_zero", "only_in_first", "only_in_second")


def compare_orders(first: ProjectionPoset, second: ProjectionPoset) -> OrderComparison:
    """How two orders on the same named elements relate: equal, dual, or neither."""
    if first.names != second.names:
        raise ValueError("posets order different element sets")
    names, f, s = first.names, first.leq, second.leq
    keep = [k for k in range(len(names)) if k not in (first.zero_index, second.zero_index)]
    fz, sz = (x[np.ix_(keep, keep)] for x in (f, s))
    return OrderComparison(
        equal=bool(np.array_equal(f, s)),
        dual=bool(np.array_equal(f, s.T)),
        dual_above_zero=bool(np.array_equal(fz, sz.T)),
        only_in_first=tuple((names[i], names[j]) for i, j in np.argwhere(f & ~s)),
        only_in_second=tuple((names[i], names[j]) for i, j in np.argwhere(s & ~f)),
    )


# -- Ore cross-validation ---------------------------------------------------


@dataclass(frozen=True)
class OreEntry(Report):
    fixture: str
    cyclic: bool
    distributive: bool

    doc_keys = ("fixture", "cyclic", "distributive", "consistent")

    @property
    def consistent(self) -> bool:
        return self.cyclic == self.distributive


@dataclass(frozen=True)
class OreReport(Report):
    entries: tuple[OreEntry, ...]

    kind = "ore_report"
    doc_keys = ("consistent", "entries")

    @property
    def consistent(self) -> bool:
        return all(e.consistent for e in self.entries)


def ore_crossvalidate(fixtures: Iterable[tuple[str, Groupoid]]) -> OreReport:
    """Finite Ore theorem check: subgroup-inclusion lattice distributive iff cyclic."""
    from .groupoid import enumerate_projections, to_algebra

    entries = []
    for name, g in fixtures:
        if not g.is_group:
            raise ValueError(f"fixture {name!r} is not a one-object groupoid")
        alg = to_algebra(g)
        rep = lattice_report(inclusion_poset(alg, mask_points(alg, enumerate_projections(alg))))
        if not rep.is_lattice:
            raise LawViolation(
                f"subgroup inclusion order of {name!r} is not a lattice",
                [Violation("lattice", (name,))],
            )
        entries.append(OreEntry(name, is_cyclic_group(g), bool(rep.distributive)))
    return OreReport(tuple(entries))


# -- Hasse diagram ----------------------------------------------------------


def hasse_edges(poset: ProjectionPoset) -> list[tuple[str, str]]:
    """Cover pairs (a, b) with a < b and nothing strictly between, name-sorted."""
    names = np.array(poset.names, dtype=object)
    below, above = np.nonzero(poset.covers)
    return list(zip(names[below].tolist(), names[above].tolist()))


def to_dot(poset: ProjectionPoset, title: str = "order") -> str:
    """Graphviz rendering of the Hasse diagram, bottom-up, deterministic."""

    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"digraph {q(title)} {{", "  rankdir=BT;"]
    for name in poset.names:
        lines.append(f"  {q(name)};")
    for a, b in hasse_edges(poset):
        lines.append(f"  {q(a)} -> {q(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
