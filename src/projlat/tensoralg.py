"""Tensor composition of algebras and the bi-order map on projections.

The composed multiplication is (mult_A tensor mult_B) after the middle swap
(A@B)@(A@B) -> (A@A)@(B@B), that is M[(k,l), (i,j), (i',j')] =
M_A[k,i,i'] M_B[l,j,j']; the unit is unit_A tensor unit_B. The composed
algebra inherits all axioms from its components, which is checked (not
assumed) and attached to the result.

bi_order_check verifies the interchange law
(p tensor q).(p' tensor q') = (p.p') tensor (q.q') exhaustively over given
projection families, then the induced order and orthogonality preservation
in each slot. Zero handling goes through the zero scalar I -> I: tensoring
any point against a zero yields the zero point of the composed algebra.
"""
from __future__ import annotations

from dataclasses import dataclass

from .backend import (
    DEFAULT_TOL,
    Morphism,
    ObjectRef,
    Tolerance,
    compose,
    identity,
    tensor,
    tensor_objects,
    unit_object,
    zero_morphism,
)
import numpy as np

from .errors import BackendMismatch, LawViolation, Report, Violation
from .frobenius import (
    AxiomReport,
    FrobeniusAlgebra,
    Point,
    check_axioms,
    mult_points,
    points_equal,
    zero_point,
)


def zero_scalar(backend: str) -> Morphism:
    """The zero endomorphism of the monoidal unit."""
    return zero_morphism(unit_object(backend), unit_object(backend))


def zero_endo(obj: ObjectRef) -> Morphism:
    """The zero endomorphism of obj, derived from the zero scalar by unitors."""
    z = tensor(zero_scalar(obj.backend), identity(obj))
    return Morphism(obj, obj, z.payload)


def derived_zero_point(alg: FrobeniusAlgebra) -> Point:
    """zero_endo applied to the unit point; should coincide with zero_point."""
    return Point(alg, compose(zero_endo(alg.carrier), alg.unit), "0")


@dataclass(frozen=True, eq=False)
class TensorAlgebra:
    """A composed algebra together with its components and axiom report."""

    left: FrobeniusAlgebra
    right: FrobeniusAlgebra
    algebra: FrobeniusAlgebra
    axioms: AxiomReport


def tensor_algebras(
    a: FrobeniusAlgebra, b: FrobeniusAlgebra, tol: Tolerance = DEFAULT_TOL
) -> TensorAlgebra:
    """Compose two algebras on the same backend; components must pass axioms."""
    if a.backend != b.backend:
        raise BackendMismatch(f"cannot tensor {a.backend} with {b.backend}")
    for side, alg in (("left", a), ("right", b)):
        rep = check_axioms(alg, tol)
        if not rep.passed:
            raise LawViolation(
                f"{side} component fails axioms: {rep.failed_axioms()}",
                [Violation("component-axioms", (side, ax)) for ax in rep.failed_axioms()],
            )
    carrier = tensor_objects(a.carrier, b.carrier)
    pair = tensor_objects(carrier, carrier)
    n = carrier.size
    table = np.einsum("kip,ljq->klijpq", a.structure, b.structure).reshape(n, n * n)
    mult = Morphism(pair, carrier, table)
    raw_unit = tensor(a.unit, b.unit)
    unit = Morphism(unit_object(a.backend), carrier, raw_unit.payload)
    composed = FrobeniusAlgebra(carrier, mult, unit)
    return TensorAlgebra(a, b, composed, check_axioms(composed, tol))


def tensor_points(ta: TensorAlgebra, p: Point, q: Point) -> Point:
    """p tensor q as a point of the composed algebra."""
    if not p.algebra.same_algebra(ta.left):
        raise ValueError("left point does not live on the left component")
    if not q.algebra.same_algebra(ta.right):
        raise ValueError("right point does not live on the right component")
    raw = tensor(p.morphism, q.morphism)
    name = None
    if p.name is not None and q.name is not None:
        name = f"({p.name},{q.name})"
    return Point(
        ta.algebra,
        Morphism(unit_object(ta.algebra.backend), ta.algebra.carrier, raw.payload),
        name,
    )


@dataclass(frozen=True)
class BiOrderReport(Report):
    """Exhaustive verification of the bi-order map over two families."""

    interchange_checked: int
    order_checked: int
    orthogonality_checked: int
    violations: tuple[Violation, ...]

    kind = "bi_order_report"
    doc_keys = ("passed", "interchange_checked", "order_checked", "orthogonality_checked",
                "violations")

    @property
    def passed(self) -> bool:
        return not self.violations


def bi_order_check(
    ta: TensorAlgebra,
    fam_a: list[Point],
    fam_b: list[Point],
    tol: Tolerance = DEFAULT_TOL,
) -> BiOrderReport:
    """Interchange, then slotwise order and orthogonality preservation.

    All checks are exhaustive over the given families. Orthogonality on the
    composed algebra is tested against its zero point, which the zero-scalar
    derivation must reproduce (checked first).
    """

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
