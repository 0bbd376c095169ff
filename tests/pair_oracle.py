"""Pair-by-pair references for the point relations.

build_poset, commute_glb_equivalence and bi_order_check decide the
projection order, orthogonality, distinctness, the zero, the commute/glb
flags and the tensor interchange from products of points, and
inclusion_poset the subset order and disjointness of subgroupoids. These
functions do the same work one pair at a time, in the loops the definitions
read as: every product is mult after (p (x) q) through the backend
(kron_oracle), and every comparison is the scalar rule below. So they share
neither the package's contraction (frobenius.products) nor its row
comparison (backend.row_defects). They are slow and meant for small
families.
"""
from __future__ import annotations

import numpy as np

import kron_oracle
from projlat import (
    DEFAULT_TOL,
    REL,
    BiOrderReport,
    EquivalenceReport,
    FrobeniusAlgebra,
    PairCheck,
    Point,
    ProjectionPoset,
    Subgroupoid,
    Tolerance,
    Violation,
    derived_zero_point,
    subset_point,
    tensor_points,
    zero_point,
)


def defect(backend: str, lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, float]:
    """The comparison rule on two whole arrays: (residual, scale)."""
    if backend == REL:
        return float(np.count_nonzero(lhs.astype(bool) != rhs.astype(bool))), 1.0
    if not np.size(lhs):
        return 0.0, 1.0
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))), scale


def passes(backend: str, residual: float, scale: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    return residual == 0 if backend == REL else residual <= tol.epsilon * scale


def points_equal(p: Point, q: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    backend = p.algebra.backend
    return passes(backend, *defect(backend, p.morphism.payload, q.morphism.payload), tol)


mult_points = kron_oracle.mult_points


def is_projection(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    return points_equal(mult_points(p, p), p, tol) and points_equal(
        kron_oracle.conjugate_point(p), p, tol
    )


def build_poset(alg: FrobeniusAlgebra, family, tol: Tolerance = DEFAULT_TOL) -> ProjectionPoset:
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


def inclusion_poset(alg: FrobeniusAlgebra, subgroupoids) -> ProjectionPoset:
    """Subset inclusion and disjointness, one frozenset pair at a time."""
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


def commute_glb_equivalence(
    alg: FrobeniusAlgebra, poset: ProjectionPoset, tol: Tolerance = DEFAULT_TOL
) -> EquivalenceReport:
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
            m = poset.meet[a, b]
            glb = bool(m >= 0) and points_equal(pq, poset.points[m], tol)
            pairs.append(PairCheck(poset.names[a], poset.names[b], commute, proj, glb))
    return EquivalenceReport(tuple(pairs))


def bi_order_check(ta, fam_a, fam_b, tol: Tolerance = DEFAULT_TOL) -> BiOrderReport:
    def nm(pt: Point, side: str, k: int) -> str:
        return pt.name if pt.name is not None else f"{side}{k}"

    violations = []
    zero_t = zero_point(ta.algebra)
    if not points_equal(derived_zero_point(ta.algebra), zero_t, tol):
        violations.append(Violation("zero-scalar", ("derived", "direct")))

    za, zb = zero_point(ta.left), zero_point(ta.right)
    tensored = {}
    for i, p in enumerate(fam_a):
        for j, q in enumerate(fam_b):
            tensored[(i, j)] = tensor_points(ta, p, q)

    interchange = 0
    for i, p in enumerate(fam_a):
        for i2, p2 in enumerate(fam_a):
            pa = mult_points(p, p2)
            for j, q in enumerate(fam_b):
                for j2, q2 in enumerate(fam_b):
                    qb = mult_points(q, q2)
                    lhs = mult_points(tensored[(i, j)], tensored[(i2, j2)])
                    rhs = tensor_points(ta, pa, qb)
                    interchange += 1
                    if not points_equal(lhs, rhs, tol):
                        violations.append(
                            Violation(
                                "interchange",
                                (nm(p, "A", i), nm(q, "B", j), nm(p2, "A", i2), nm(q2, "B", j2)),
                            )
                        )

    def leq(x: Point, y: Point) -> bool:
        return points_equal(mult_points(x, y), x, tol)

    order = 0
    for i, p in enumerate(fam_a):
        for i2, p2 in enumerate(fam_a):
            if not leq(p, p2):
                continue
            for j, q in enumerate(fam_b):
                order += 1
                if not leq(tensored[(i, j)], tensored[(i2, j)]):
                    violations.append(
                        Violation("left-order", (nm(p, "A", i), nm(p2, "A", i2), nm(q, "B", j)))
                    )
    for j, q in enumerate(fam_b):
        for j2, q2 in enumerate(fam_b):
            if not leq(q, q2):
                continue
            for i, p in enumerate(fam_a):
                order += 1
                if not leq(tensored[(i, j)], tensored[(i, j2)]):
                    violations.append(
                        Violation("right-order", (nm(q, "B", j), nm(q2, "B", j2), nm(p, "A", i)))
                    )

    orth = 0
    for i, p in enumerate(fam_a):
        for i2, p2 in enumerate(fam_a):
            if not points_equal(mult_points(p, p2), za, tol):
                continue
            for j, q in enumerate(fam_b):
                for j2, q2 in enumerate(fam_b):
                    orth += 1
                    prod = mult_points(tensored[(i, j)], tensored[(i2, j2)])
                    if not points_equal(prod, zero_t, tol):
                        violations.append(
                            Violation(
                                "left-orthogonality",
                                (nm(p, "A", i), nm(p2, "A", i2), nm(q, "B", j), nm(q2, "B", j2)),
                            )
                        )
    for j, q in enumerate(fam_b):
        for j2, q2 in enumerate(fam_b):
            if not points_equal(mult_points(q, q2), zb, tol):
                continue
            for i, p in enumerate(fam_a):
                for i2, p2 in enumerate(fam_a):
                    orth += 1
                    prod = mult_points(tensored[(i, j)], tensored[(i2, j2)])
                    if not points_equal(prod, zero_t, tol):
                        violations.append(
                            Violation(
                                "right-orthogonality",
                                (nm(q, "B", j), nm(q2, "B", j2), nm(p, "A", i), nm(p2, "A", i2)),
                            )
                        )
    return BiOrderReport(interchange, order, orth, tuple(violations))
