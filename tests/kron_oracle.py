"""Diagram-by-diagram references for the structure-tensor code.

Each function evaluates its law or product the way the string diagram
reads: build the Kronecker products of the morphisms (tensor(m, id) and
friends), compose, then compare with backend.equal/residual. This costs
d^5 entries per law, so these references are only for small carriers; the
package itself contracts the structure tensor M[k, i, j] instead.
"""
from __future__ import annotations

from projlat import (
    DEFAULT_TOL,
    AXIOM_NAMES,
    AxiomReport,
    FrobeniusAlgebra,
    Morphism,
    Point,
    Tolerance,
    compose,
    dagger,
    equal,
    identity,
    residual,
    swap,
    tensor,
    tensor_objects,
    unit_object,
)
from projlat.errors import CompositionTypeError


def check_axioms(alg: FrobeniusAlgebra, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """All eleven laws, each as two composites of Kronecker products."""
    a = alg.carrier
    one = identity(a)
    m, u = alg.mult, alg.unit
    d, e = alg.comult, alg.counit
    cup = compose(d, u)
    cap = compose(e, m)

    def pair(name, lhs_fn, rhs_fn):
        try:
            return name, lhs_fn(), rhs_fn()
        except (CompositionTypeError, ValueError) as exc:
            raise CompositionTypeError(f"axiom {name}: {exc}") from exc

    checks = [
        pair(
            "associativity",
            lambda: compose(m, tensor(m, one)),
            lambda: compose(m, tensor(one, m)),
        ),
        pair(
            "coassociativity",
            lambda: compose(tensor(d, one), d),
            lambda: compose(tensor(one, d), d),
        ),
        pair("unitality_left", lambda: compose(m, tensor(u, one)), lambda: one),
        pair("unitality_right", lambda: compose(m, tensor(one, u)), lambda: one),
        pair("counitality_left", lambda: compose(tensor(e, one), d), lambda: one),
        pair("counitality_right", lambda: compose(tensor(one, e), d), lambda: one),
        pair(
            "frobenius_left",
            lambda: compose(tensor(one, m), tensor(d, one)),
            lambda: compose(d, m),
        ),
        pair(
            "frobenius_right",
            lambda: compose(tensor(m, one), tensor(one, d)),
            lambda: compose(d, m),
        ),
        pair("symmetry", lambda: compose(cap, swap(a, a)), lambda: cap),
        pair(
            "yanking_left",
            lambda: compose(tensor(cap, one), tensor(one, cup)),
            lambda: one,
        ),
        pair(
            "yanking_right",
            lambda: compose(tensor(one, cap), tensor(cup, one)),
            lambda: one,
        ),
    ]
    assert tuple(name for name, _, _ in checks) == AXIOM_NAMES
    results = {}
    residuals = {}
    for name, lhs, rhs in checks:
        lhs = Morphism(rhs.dom, rhs.cod, lhs.payload)  # unitor re-tag
        results[name] = equal(lhs, rhs, tol)
        residuals[name] = residual(lhs, rhs)
    return AxiomReport(results=results, residuals=residuals)


def _as_point(alg: FrobeniusAlgebra, m: Morphism) -> Point:
    return Point(alg, Morphism(unit_object(alg.backend), alg.carrier, m.payload))


def mult_points(p: Point, q: Point) -> Point:
    """mult after (p (x) q)."""
    return _as_point(p.algebra, compose(p.algebra.mult, tensor(p.morphism, q.morphism)))


def conjugate_point(p: Point) -> Point:
    """(dagger(p) (x) id) after the induced cup."""
    alg = p.algebra
    cup = compose(alg.comult, alg.unit)
    return _as_point(alg, compose(tensor(dagger(p.morphism), identity(alg.carrier)), cup))


def is_copyable(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    alg = p.algebra
    lhs = compose(alg.comult, p.morphism)
    rhs = tensor(p.morphism, p.morphism)
    return equal(Morphism(rhs.dom, rhs.cod, lhs.payload), rhs, tol)


def is_central(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    alg = p.algebra
    one = identity(alg.carrier)
    left = compose(alg.mult, tensor(p.morphism, one))
    right = compose(alg.mult, tensor(one, p.morphism))
    return equal(
        Morphism(alg.carrier, alg.carrier, left.payload),
        Morphism(alg.carrier, alg.carrier, right.payload),
        tol,
    )


def is_commutative(alg: FrobeniusAlgebra, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = alg.carrier
    return equal(compose(alg.mult, swap(a, a)), alg.mult, tol)


def commutativity_defect(alg: FrobeniusAlgebra) -> float:
    return residual(compose(alg.mult, swap(alg.carrier, alg.carrier)), alg.mult)


def middle_swap(a, b) -> Morphism:
    """The permutation (A@B)@(A@B) -> (A@A)@(B@B): 1_A @ swap(B,A) @ 1_B.

    On indices: (a1, b1, a2, b2) -> (a1, a2, b1, b2) in row-major packing.
    """
    return tensor(tensor(identity(a), swap(b, a)), identity(b))


def composed_mult(a: FrobeniusAlgebra, b: FrobeniusAlgebra) -> Morphism:
    """(mult_A (x) mult_B) after the middle swap, retagged onto the composed carrier."""
    carrier = tensor_objects(a.carrier, b.carrier)
    raw = compose(tensor(a.mult, b.mult), middle_swap(a.carrier, b.carrier))
    return Morphism(tensor_objects(carrier, carrier), carrier, raw.payload)
