"""Partial orders and lattice analytics for finite projection families.

The multiplication order p <= q iff p.q = p and the orthogonality p _|_ q
iff p.q = 0 are computed pairwise and then verified, never assumed: a family
whose products break reflexivity, antisymmetry, transitivity, or the three
orthogonality axioms (symmetry, antireflexivity above zero, downward
closure) raises LawViolation with witnesses. Subgroupoid families also get
the subset-inclusion order, and compare_orders documents how the two relate
(for one-object groupoids the multiplication order is dual to inclusion
above the empty set).

Lattice analytics compute meets and joins by bounded search over the finite
poset, then scan triples for distributivity and modularity. A second,
independent route decides distributivity by forbidden-sublattice detection
(diamond M3 / pentagon N5) so the two can cross-check each other. The
orthocomplement probe measures, per element, whether a maximum orthogonal
element exists and which complementation clauses it satisfies.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .backend import DEFAULT_TOL, REL, Tolerance
from .errors import LawViolation, Report, Violation
from .frobenius import (
    FrobeniusAlgebra,
    Point,
    is_projection,
    mult_points,
    points_equal,
    zero_point,
)
from .groupoid import Groupoid, Subgroupoid, is_cyclic_group, subset_point


# -- poset construction -----------------------------------------------------


def _poset_violations(leq: np.ndarray, names: Sequence[str]) -> list[Violation]:
    n = leq.shape[0]
    out = []
    for i in range(n):
        if not leq[i, i]:
            out.append(Violation("reflexivity", (names[i],)))
    for i in range(n):
        for j in range(n):
            if i != j and leq[i, j] and leq[j, i]:
                out.append(Violation("antisymmetry", (names[i], names[j])))
    closure = leq @ leq
    for i in range(n):
        for j in range(n):
            if closure[i, j] and not leq[i, j]:
                out.append(Violation("transitivity", (names[i], names[j])))
    return out


def _orthogonality_violations(
    leq: np.ndarray, orth: np.ndarray, zero_index: int, names: Sequence[str]
) -> list[Violation]:
    n = leq.shape[0]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if orth[i, j] != orth[j, i]:
                out.append(Violation("orth-symmetry", (names[i], names[j])))
    for i in range(n):
        if orth[i, i] and i != zero_index:
            out.append(
                Violation("orth-antireflexivity", (names[i],), "self-orthogonal above zero")
            )
    for a in range(n):
        for b in range(n):
            if not orth[b, a]:
                continue
            for c in range(n):
                if leq[c, b] and not orth[c, a]:
                    out.append(
                        Violation(
                            "orth-downward-closure",
                            (names[c], names[b], names[a]),
                            "c <= b and b _|_ a but not c _|_ a",
                        )
                    )
    for i in range(n):
        if not leq[zero_index, i]:
            out.append(Violation("zero-bottom", (names[i],), "zero not below element"))
    return out


@dataclass(frozen=True, eq=False)
class ProjectionPoset:
    """A verified finite projection order with orthogonality and a zero."""

    points: tuple[Point, ...]
    names: tuple[str, ...]
    leq: np.ndarray
    orth: np.ndarray
    zero_index: int

    def __post_init__(self):
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
        verify: bool = True,
    ) -> "ProjectionPoset":
        leq = np.asarray(leq, dtype=bool).copy()
        orth = np.asarray(orth, dtype=bool).copy()
        if verify:
            violations = _poset_violations(leq, names)
            violations += _orthogonality_violations(leq, orth, zero_index, names)
            if violations:
                raise LawViolation(
                    f"projection order breaks {len(violations)} law(s)", violations
                )
        return cls(tuple(points), tuple(names), leq, orth, zero_index)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def is_leq(self, a: str, b: str) -> bool:
        return bool(self.leq[self.index(a), self.index(b)])

    def meet_index(self, i: int, j: int) -> Optional[int]:
        lower = [k for k in range(self.n) if self.leq[k, i] and self.leq[k, j]]
        best = [m for m in lower if all(self.leq[l, m] for l in lower)]
        return best[0] if best else None

    def join_index(self, i: int, j: int) -> Optional[int]:
        upper = [k for k in range(self.n) if self.leq[i, k] and self.leq[j, k]]
        best = [m for m in upper if all(self.leq[m, l] for l in upper)]
        return best[0] if best else None

    def top_index(self) -> Optional[int]:
        tops = [i for i in range(self.n) if all(self.leq[j, i] for j in range(self.n))]
        return tops[0] if tops else None


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
        if p.algebra is not alg and not p.algebra.same_algebra(alg):
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
    alg: FrobeniusAlgebra, subgroupoids: Sequence[Subgroupoid], tol: Tolerance = DEFAULT_TOL
) -> ProjectionPoset:
    """Subset-inclusion order on subgroupoid points; orthogonality is disjointness."""
    subs = list(subgroupoids)
    if all(s.members for s in subs):
        subs.append(Subgroupoid(frozenset()))
    members = [s.members for s in subs]
    if len(set(members)) != len(members):
        raise ValueError("duplicate subgroupoids in family")
    points = [subset_point(alg, m) for m in members]
    names = [s.name for s in subs]
    zero_index = members.index(frozenset())
    n = len(subs)
    leq = np.zeros((n, n), dtype=bool)
    orth = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            leq[i, j] = members[i] <= members[j]
            orth[i, j] = not (members[i] & members[j])
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

    def laws_broken(self) -> list[str]:
        return sorted({v.law for v in self.violations})


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
    order = sorted(range(poset.n), key=lambda k: poset.names[k])
    pairs = []
    for a in order:
        for b in order:
            if poset.names[a] >= poset.names[b]:
                continue
            p, q = poset.points[a], poset.points[b]
            pq = mult_points(p, q)
            qp = mult_points(q, p)
            commute = points_equal(pq, qp, tol)
            proj = is_projection(pq, tol)
            m = poset.meet_index(a, b)
            glb = m is not None and points_equal(pq, poset.points[m], tol)
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


def _max_orthogonal(poset: ProjectionPoset, a: int) -> Optional[int]:
    ortho = [b for b in range(poset.n) if poset.orth[a, b]]
    best = [m for m in ortho if all(poset.leq[b, m] for b in ortho)]
    return best[0] if best else None


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
    comp = {a: _max_orthogonal(poset, a) for a in range(poset.n)}
    entries = []
    for a in sorted(range(poset.n), key=lambda k: poset.names[k]):
        m = comp[a]
        if m is None:
            entries.append(ProbeEntry(poset.names[a], False, None, None, None, None, None))
            continue
        meet = poset.meet_index(a, m)
        join = poset.join_index(a, m)
        meet_zero = meet == poset.zero_index
        join_top = join == top
        double = comp[m] == a
        reversing = True
        for b in range(poset.n):
            if poset.leq[a, b] and comp[b] is not None:
                if not poset.leq[comp[b], m]:
                    reversing = False
                    break
        entries.append(
            ProbeEntry(
                poset.names[a], True, poset.names[m], meet_zero, join_top, double, reversing
            )
        )
    return ProbeReport(True, tuple(entries))


@dataclass(frozen=True)
class LatticeReport(Report):
    names: tuple[str, ...]
    is_lattice: bool
    missing_meets: tuple[tuple[str, str], ...]
    missing_joins: tuple[tuple[str, str], ...]
    meet_table: dict[tuple[str, str], Optional[str]] = field(repr=False)
    join_table: dict[tuple[str, str], Optional[str]] = field(repr=False)
    distributive: Optional[bool]
    distributive_witness: Optional[tuple[str, str, str]]
    modular: Optional[bool]
    modular_witness: Optional[tuple[str, str, str]]
    probe: ProbeReport

    kind = "lattice_report"
    doc_keys = ("names", "is_lattice", "missing_meets", "missing_joins", "meet_table",
                "join_table", "distributive", "distributive_witness", "modular",
                "modular_witness", "probe")


def lattice_report(poset: ProjectionPoset) -> LatticeReport:
    """Meet/join tables by bounded search, law scans, and the probe.

    Distributivity and modularity are scanned only when every pair has both
    a meet and a join; otherwise they are reported as not applicable (None).
    Witnesses are the first failing triple in name order.
    """
    n = poset.n
    order = sorted(range(n), key=lambda k: poset.names[k])
    meets: dict[tuple[int, int], Optional[int]] = {}
    joins: dict[tuple[int, int], Optional[int]] = {}
    missing_meets, missing_joins = [], []
    for a in order:
        for b in order:
            if poset.names[a] > poset.names[b]:
                continue
            m = poset.meet_index(a, b)
            j = poset.join_index(a, b)
            meets[(a, b)] = meets[(b, a)] = m
            joins[(a, b)] = joins[(b, a)] = j
            if m is None:
                missing_meets.append((poset.names[a], poset.names[b]))
            if j is None:
                missing_joins.append((poset.names[a], poset.names[b]))
    is_lattice = not missing_meets and not missing_joins
    distributive = modular = None
    dist_wit = mod_wit = None
    if is_lattice:
        distributive, modular = True, True
        for a in order:
            for b in order:
                for c in order:
                    lhs = meets[(a, joins[(b, c)])]
                    rhs = joins[(meets[(a, b)], meets[(a, c)])]
                    if lhs != rhs and dist_wit is None:
                        distributive = False
                        dist_wit = (poset.names[a], poset.names[b], poset.names[c])
                    if poset.leq[a, c]:
                        ml = joins[(a, meets[(b, c)])]
                        mr = meets[(joins[(a, b)], c)]
                        if ml != mr and mod_wit is None:
                            modular = False
                            mod_wit = (poset.names[a], poset.names[b], poset.names[c])
    def name_of(k):
        return poset.names[k] if k is not None else None

    meet_table = {
        (poset.names[a], poset.names[b]): name_of(m) for (a, b), m in meets.items()
    }
    join_table = {
        (poset.names[a], poset.names[b]): name_of(j) for (a, b), j in joins.items()
    }
    return LatticeReport(
        tuple(sorted(poset.names)),
        is_lattice,
        tuple(missing_meets),
        tuple(missing_joins),
        meet_table,
        join_table,
        distributive,
        dist_wit,
        modular,
        mod_wit,
        orthocomplement_probe(poset),
    )


def forbidden_sublattices(
    poset: ProjectionPoset,
) -> tuple[Optional[tuple[str, ...]], Optional[tuple[str, ...]]]:
    """Search for a diamond M3 and a pentagon N5; independent of the triple scan.

    Returns (m3_witness, n5_witness) as name tuples or None. A lattice is
    distributive exactly when it contains neither, and modular exactly when
    it contains no pentagon, so this cross-checks the law scans.
    """
    n = poset.n
    order = sorted(range(n), key=lambda k: poset.names[k])
    meets = {}
    joins = {}
    for a in range(n):
        for b in range(n):
            meets[(a, b)] = poset.meet_index(a, b)
            joins[(a, b)] = poset.join_index(a, b)
    m3 = None
    for a in order:
        for b in order:
            if b == a or poset.leq[a, b] or poset.leq[b, a]:
                continue
            for c in order:
                if c in (a, b) or poset.leq[a, c] or poset.leq[c, a]:
                    continue
                if poset.leq[b, c] or poset.leq[c, b]:
                    continue
                if None in (meets[(a, b)], meets[(a, c)], meets[(b, c)]):
                    continue
                if None in (joins[(a, b)], joins[(a, c)], joins[(b, c)]):
                    continue
                if meets[(a, b)] == meets[(a, c)] == meets[(b, c)] and (
                    joins[(a, b)] == joins[(a, c)] == joins[(b, c)]
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
            if a == c or not poset.leq[a, c]:
                continue
            for b in order:
                if b in (a, c) or poset.leq[b, a] or poset.leq[a, b]:
                    continue
                if poset.leq[b, c] or poset.leq[c, b]:
                    continue
                if meets[(b, a)] is None or joins[(b, a)] is None:
                    continue
                if meets[(b, a)] == meets[(b, c)] and joins[(b, a)] == joins[(b, c)]:
                    n5 = (poset.names[a], poset.names[b], poset.names[c])
                    break
            if n5:
                break
        if n5:
            break
    return m3, n5


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
    if set(first.names) != set(second.names):
        raise ValueError("posets order different element sets")
    names = sorted(first.names)
    f = np.zeros((len(names), len(names)), dtype=bool)
    s = np.zeros_like(f)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            f[i, j] = first.is_leq(a, b)
            s[i, j] = second.is_leq(a, b)
    only_f = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(len(names))
        if f[i, j] and not s[i, j]
    ]
    only_s = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(len(names))
        if s[i, j] and not f[i, j]
    ]
    zeros = {first.names[first.zero_index], second.names[second.zero_index]}
    keep = [i for i, nm in enumerate(names) if nm not in zeros]
    fz = f[np.ix_(keep, keep)]
    sz = s[np.ix_(keep, keep)]
    return OrderComparison(
        equal=bool(np.array_equal(f, s)),
        dual=bool(np.array_equal(f, s.T)),
        dual_above_zero=bool(np.array_equal(fz, sz.T)),
        only_in_first=tuple(only_f),
        only_in_second=tuple(only_s),
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
    from .groupoid import enumerate_subgroupoids, to_algebra

    entries = []
    for name, g in fixtures:
        if not g.is_group:
            raise ValueError(f"fixture {name!r} is not a one-object groupoid")
        subs = enumerate_subgroupoids(g)
        rep = lattice_report(inclusion_poset(to_algebra(g), subs))
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
    strict = poset.leq & ~np.eye(poset.n, dtype=bool)
    covers = strict & ~(strict @ strict)
    edges = [
        (poset.names[i], poset.names[j])
        for i in range(poset.n)
        for j in range(poset.n)
        if covers[i, j]
    ]
    return sorted(edges)


def to_dot(poset: ProjectionPoset, title: str = "order") -> str:
    """Graphviz rendering of the Hasse diagram, bottom-up, deterministic."""

    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"digraph {q(title)} {{", "  rankdir=BT;"]
    for name in sorted(poset.names):
        lines.append(f"  {q(name)};")
    for a, b in hasse_edges(poset):
        lines.append(f"  {q(a)} -> {q(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
