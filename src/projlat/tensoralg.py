"""Tensor composition of algebras and the bi-order map on projections.

The composed multiplication is (mult_A tensor mult_B) after the middle swap
(A@B)@(A@B) -> (A@A)@(B@B), that is M[(k,l), (i,j), (i',j')] =
M_A[k,i,i'] M_B[l,j,j']; the unit is unit_A tensor unit_B. The composed
algebra inherits all axioms from its components, which is checked (not
assumed) and attached to the result.

bi_order_check verifies the interchange law
(p tensor q).(p' tensor q') = (p.p') tensor (q.q') exhaustively over given
projection families, then the induced order and orthogonality preservation
in each slot, all read from one table of products of the tensored points.
Zero handling goes through the zero scalar I -> I: tensoring any point
against a zero yields the zero point of the composed algebra.
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
    rows_equal,
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
    point_vectors,
    points_equal,
    products,
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
    n = carrier.size
    pair = ObjectRef(a.backend, n * n)  # A (x) A, without d^2 labels nothing reads
    mult = Morphism(
        pair, carrier, np.einsum("kip,ljq->klijpq", a.structure, b.structure).reshape(n, n * n)
    )
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
    derivation must reproduce (checked first). With an empty family there
    is nothing to check and every count is 0.
    """
    violations = []
    zero_t = zero_point(ta.algebra)
    if not points_equal(derived_zero_point(ta.algebra), zero_t, tol):
        violations.append(Violation("zero-scalar", ("derived", "direct")))
    if not (fam_a and fam_b):
        return BiOrderReport(0, 0, 0, tuple(violations))
    for side, family, alg in (("left", fam_a, ta.left), ("right", fam_b, ta.right)):
        if not all(p.algebra.same_algebra(alg) for p in family):
            raise ValueError(f"{side} point does not live on the {side} component")
    na, nb, d, backend = len(fam_a), len(fam_b), ta.algebra.carrier.size, ta.algebra.backend
    a_names = [p.name if p.name is not None else f"A{i}" for i, p in enumerate(fam_a)]
    b_names = [q.name if q.name is not None else f"B{j}" for j, q in enumerate(fam_b)]
    va, vb = point_vectors(ta.left, fam_a), point_vectors(ta.right, fam_b)
    pa, pb = products(ta.left, va, va), products(ta.right, vb, vb)
    # p_i (x) q_j has coordinate va[i, k] vb[j, l] at the composite index k * d_b + l
    dtype = np.result_type(ta.algebra.structure, va, vb)
    vt = (va[:, None, :, None] * vb[None, :, None, :]).astype(dtype, copy=False).reshape(na, nb, d)
    flat = vt.reshape(na * nb, d)
    # every table is indexed in scan order [i, i2, j, j2]
    pt = products(ta.algebra, flat, flat).reshape(na, nb, na, nb, d).transpose(0, 2, 1, 3, 4)

    # interchange: (p (x) q).(p2 (x) q2) against (p.p2) (x) (q.q2)
    factorwise = pa[:, :, None, None, :, None] * pb[None, None, :, :, None, :]
    same = rows_equal(backend, pt, factorwise.reshape(pt.shape), tol)
    violations += [
        Violation("interchange", (a_names[i], b_names[j], a_names[i2], b_names[j2]))
        for i, i2, j, j2 in np.argwhere(~same)
    ]
    leq_a = rows_equal(backend, pa, va[:, None], tol)
    leq_b = rows_equal(backend, pb, vb[:, None], tol)
    leq_t = rows_equal(backend, pt, vt[:, None, :, None], tol)
    orth_a = rows_equal(backend, pa, zero_point(ta.left).vector, tol)
    orth_b = rows_equal(backend, pb, zero_point(ta.right).vector, tol)
    orth_t = rows_equal(backend, pt, zero_t.vector, tol)
    a, b = a_names, b_names
    for law, failed, sides in (  # failures with axes in scan order, and the names of each axis
        ("left-order", leq_a[:, :, None] & ~np.diagonal(leq_t, axis1=2, axis2=3), (a, a, b)),
        ("right-order", leq_b[:, :, None] & ~np.diagonal(leq_t, axis1=0, axis2=1), (b, b, a)),
        ("left-orthogonality", orth_a[:, :, None, None] & ~orth_t, (a, a, b, b)),
        ("right-orthogonality", orth_b[:, :, None, None] & ~orth_t.transpose(2, 3, 0, 1),
         (b, b, a, a)),
    ):
        violations += [
            Violation(law, tuple(s[k] for s, k in zip(sides, idx))) for idx in np.argwhere(failed)
        ]
    order = int(leq_a.sum()) * nb + int(leq_b.sum()) * na
    orth = int(orth_a.sum()) * nb * nb + int(orth_b.sum()) * na * na
    return BiOrderReport(na * na * nb * nb, order, orth, tuple(violations))
