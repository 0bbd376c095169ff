"""Symmetric dagger Frobenius algebras and their points.

An algebra is a carrier object with a multiplication A (x) A -> A and a unit
I -> A. The comultiplication and counit are never stored: they are always the
daggers of multiplication and unit, recomputed on access. The induced compact
structure (cup = comult after unit, cap = counit after mult) makes every such
algebra self-dual, which is what the conjugation and yanking checks exercise.

Points I -> A multiply through the algebra; projections are the points that
are idempotent and self-conjugate. All predicates take an explicit tolerance
and are exact on the rel backend.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .backend import (
    DEFAULT_TOL,
    FHILB,
    Morphism,
    ObjectRef,
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
    zero_morphism,
)
from .errors import CompositionTypeError, Report

AXIOM_NAMES = (
    "associativity",
    "coassociativity",
    "unitality_left",
    "unitality_right",
    "counitality_left",
    "counitality_right",
    "frobenius_left",
    "frobenius_right",
    "symmetry",
    "yanking_left",
    "yanking_right",
)


@dataclass(frozen=True, eq=False)
class FrobeniusAlgebra:
    """Carrier plus multiplication and unit; construction checks types only.

    Whether the data actually satisfies the algebra laws is the job of
    check_axioms, so deliberately broken inputs (say, a zero unit) can be
    represented and diagnosed.
    """

    carrier: ObjectRef
    mult: Morphism
    unit: Morphism

    def __post_init__(self):
        square = tensor_objects(self.carrier, self.carrier)
        if self.mult.dom != square or self.mult.cod != self.carrier:
            raise CompositionTypeError(
                f"mult must map {square} -> {self.carrier}, got {self.mult}"
            )
        i = unit_object(self.carrier.backend)
        if self.unit.dom != i or self.unit.cod != self.carrier:
            raise CompositionTypeError(
                f"unit must map {i} -> {self.carrier}, got {self.unit}"
            )

    @property
    def backend(self) -> str:
        return self.carrier.backend

    @property
    def comult(self) -> Morphism:
        return dagger(self.mult)

    @property
    def counit(self) -> Morphism:
        return dagger(self.unit)

    def same_algebra(self, other: "FrobeniusAlgebra") -> bool:
        """Structural identity: same carrier size and identical payloads."""
        return (
            self.backend == other.backend
            and self.carrier == other.carrier
            and self.mult == other.mult
            and self.unit == other.unit
        )


@dataclass(frozen=True, eq=False)
class Point:
    """A point I -> A of an algebra, optionally named for reports."""

    algebra: FrobeniusAlgebra
    morphism: Morphism
    name: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        i = unit_object(self.algebra.backend)
        if self.morphism.dom != i or self.morphism.cod != self.algebra.carrier:
            raise CompositionTypeError(
                f"point must map {i} -> {self.algebra.carrier}, got {self.morphism}"
            )

    def renamed(self, name: str) -> "Point":
        return Point(self.algebra, self.morphism, name)


def _as_point(alg: FrobeniusAlgebra, m: Morphism, name: str | None = None) -> Point:
    # re-tag dom/cod after unitor index collapses (sizes already agree)
    return Point(alg, Morphism(unit_object(alg.backend), alg.carrier, m.payload), name)


def _check_same_algebra(p: Point, q: Point):
    if not p.algebra.same_algebra(q.algebra):
        raise CompositionTypeError("points live on different algebras")


def induced_cup(alg: FrobeniusAlgebra) -> Morphism:
    """comult after unit: I -> A (x) A."""
    return compose(alg.comult, alg.unit)


def induced_cap(alg: FrobeniusAlgebra) -> Morphism:
    """counit after mult: A (x) A -> I."""
    return compose(alg.counit, alg.mult)


@dataclass(frozen=True)
class AxiomReport(Report):
    """Pass/fail per algebra law plus the numeric defect of each check.

    Residuals are max entrywise differences on fhilb and violating pair
    counts on rel, so a passing rel axiom always reports exactly 0.
    """

    results: dict
    residuals: dict

    kind = "axiom_report"
    doc_keys = ("passed", "results", "residuals")

    @property
    def passed(self) -> bool:
        return all(self.results[name] for name in AXIOM_NAMES)

    def failed_axioms(self) -> list[str]:
        return [name for name in AXIOM_NAMES if not self.results[name]]


def check_axioms(alg: FrobeniusAlgebra, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Evaluate all eleven algebra laws and report residuals.

    Checked: associativity, coassociativity, left/right unitality, left/right
    counitality, both Frobenius moves, symmetry of the induced bilinear form
    (cap after swap = cap), and both yanking zig-zags of the induced
    cup/cap. The dagger condition is structural (comult is defined as the
    dagger of mult) and needs no separate check.
    """
    a = alg.carrier
    one = identity(a)
    m, u = alg.mult, alg.unit
    d, e = alg.comult, alg.counit
    cup = compose(d, u)
    cap = compose(e, m)

    def pair(name, lhs_fn, rhs_fn):
        try:
            lhs = lhs_fn()
            rhs = rhs_fn()
            return name, lhs, rhs
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

    results = {}
    residuals = {}
    for name, lhs, rhs in checks:
        lhs = Morphism(rhs.dom, rhs.cod, lhs.payload)  # unitor re-tag
        results[name] = equal(lhs, rhs, tol)
        residuals[name] = residual(lhs, rhs)
    return AxiomReport(results=results, residuals=residuals)


def mult_points(p: Point, q: Point) -> Point:
    """p . q = mult after (p (x) q); the unitor on I (x) I is an index no-op."""
    _check_same_algebra(p, q)
    m = compose(p.algebra.mult, tensor(p.morphism, q.morphism))
    return _as_point(p.algebra, m)


def conjugate_point(p: Point) -> Point:
    """Bend p through the induced cup: (dagger(p) (x) id) after cup."""
    alg = p.algebra
    m = compose(tensor(dagger(p.morphism), identity(alg.carrier)), induced_cup(alg))
    return _as_point(alg, m)


def zero_point(alg: FrobeniusAlgebra, name: str | None = None) -> Point:
    """The zero vector (fhilb) or the empty subset (rel) as a point."""
    return Point(
        alg, zero_morphism(unit_object(alg.backend), alg.carrier), name
    )


def unit_point(alg: FrobeniusAlgebra, name: str | None = None) -> Point:
    return Point(alg, alg.unit, name)


def points_equal(p: Point, q: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    _check_same_algebra(p, q)
    return equal(p.morphism, q.morphism, tol)


def is_projection(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Idempotent (p.p = p) and self-conjugate (p* = p)."""
    return points_equal(mult_points(p, p), p, tol) and points_equal(
        conjugate_point(p), p, tol
    )


def is_copyable(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """comult after p equals p (x) p, with the I (x) I unitor as an index no-op."""
    alg = p.algebra
    lhs = compose(alg.comult, p.morphism)
    rhs = tensor(p.morphism, p.morphism)
    lhs = Morphism(rhs.dom, rhs.cod, lhs.payload)
    return equal(lhs, rhs, tol)


def is_central(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """mult(p (x) -) and mult(- (x) p) agree as endomorphisms of the carrier."""
    alg = p.algebra
    one = identity(alg.carrier)
    left = compose(alg.mult, tensor(p.morphism, one))
    right = compose(alg.mult, tensor(one, p.morphism))
    left = Morphism(alg.carrier, alg.carrier, left.payload)
    right = Morphism(alg.carrier, alg.carrier, right.payload)
    return equal(left, right, tol)


def is_commutative(alg: FrobeniusAlgebra, tol: Tolerance = DEFAULT_TOL) -> bool:
    """mult after swap = mult."""
    a = alg.carrier
    return equal(compose(alg.mult, swap(a, a)), alg.mult, tol)


def commutativity_defect(alg: FrobeniusAlgebra) -> float:
    return residual(compose(alg.mult, swap(alg.carrier, alg.carrier)), alg.mult)


def is_zero_projection(
    p: Point, family: list[Point], tol: Tolerance = DEFAULT_TOL
) -> bool:
    """A projection that multiplicatively annihilates every family member."""
    if not is_projection(p, tol):
        return False
    z = zero_point(p.algebra)
    return all(
        points_equal(mult_points(p, q), z, tol)
        and points_equal(mult_points(q, p), z, tol)
        for q in family
    )
