"""Composite algebras: middle swap, interchange, and bi-order preservation."""

import numpy as np
import pytest

from projlat import (
    BackendMismatch,
    FrobeniusAlgebra,
    LawViolation,
    Tolerance,
    basis_algebra,
    bi_order_check,
    check_axioms,
    compose,
    cyclic,
    derived_zero_point,
    enumerate_subgroupoids,
    fhilb_morphism,
    fhilb_object,
    is_projection,
    klein4,
    mult_points,
    pants_algebra,
    points_equal,
    product,
    rel_morphism,
    rel_object,
    related_pairs,
    subgroupoid_points,
    tensor_algebras,
    tensor_points,
    to_algebra,
    unit_object,
    unit_point,
    vector_point,
    zero_endo,
    zero_point,
    zero_scalar,
    zero_one_points,
)

from kron_oracle import middle_swap

TOL = Tolerance(1e-9)


def test_middle_swap_reorders_slots():
    a, b = rel_object(2), rel_object(3)
    sw = middle_swap(a, b)
    # index (a1, b1, a2, b2) -> (a1, a2, b1, b2), all row-major
    for a1 in range(2):
        for b1 in range(3):
            for a2 in range(2):
                for b2 in range(3):
                    src = ((a1 * 3 + b1) * 2 + a2) * 3 + b2
                    dst = ((a1 * 2 + a2) * 3 + b1) * 3 + b2
                    assert (src, dst) in frozenset(related_pairs(sw))
    assert len(related_pairs(sw)) == 36


def test_composite_rel_algebra_matches_product_groupoid():
    za = to_algebra(cyclic(2))
    ta = tensor_algebras(za, za, TOL)
    assert ta.axioms.passed
    direct = to_algebra(product(cyclic(2), cyclic(2)))
    assert ta.algebra.same_algebra(direct)
    assert ta.algebra.carrier.labels == direct.carrier.labels


def test_composite_matrix_algebras_pass_axioms():
    for left, right in [
        (basis_algebra(2), basis_algebra(2)),
        (pants_algebra(2), basis_algebra(2)),
        (pants_algebra(2), pants_algebra(2)),
    ]:
        ta = tensor_algebras(left, right, TOL)
        assert ta.axioms.passed, ta.axioms.failed_axioms()


def test_tensor_of_basis_algebras_is_basis():
    ta = tensor_algebras(basis_algebra(2), basis_algebra(3), TOL)
    want = basis_algebra(6)
    assert np.array_equal(ta.algebra.mult.payload, want.mult.payload)
    assert np.array_equal(ta.algebra.unit.payload, want.unit.payload)


def test_backend_mix_is_rejected():
    with pytest.raises(BackendMismatch):
        tensor_algebras(basis_algebra(2), to_algebra(cyclic(2)), TOL)


def test_broken_component_is_rejected():
    carrier = rel_object(2, ("a", "b"))
    silly = FrobeniusAlgebra(
        carrier,
        rel_morphism(rel_object(4, None), carrier, frozenset()),
        rel_morphism(unit_object("rel"), carrier, frozenset()),
    )
    with pytest.raises(LawViolation):
        tensor_algebras(silly, to_algebra(cyclic(2)), TOL)


def test_tensor_points_names_and_projections():
    za = to_algebra(cyclic(2))
    ta = tensor_algebras(za, za, TOL)
    subs = enumerate_subgroupoids(cyclic(2))
    pts = subgroupoid_points(za, subs)
    for p in pts:
        for q in pts:
            t = tensor_points(ta, p, q)
            assert t.name == f"({p.name},{q.name})"
            assert is_projection(t, TOL)
    e = unit_point(za)
    assert points_equal(
        tensor_points(ta, e, e), unit_point(ta.algebra), TOL
    )


def test_tensor_point_multiplication_is_slotwise():
    ta = tensor_algebras(basis_algebra(2), basis_algebra(2), TOL)
    a = basis_algebra(2)
    v = vector_point(a, np.array([1.0, 2.0]), "v")
    w = vector_point(a, np.array([0.5, 1.0]), "w")
    lhs = mult_points(tensor_points(ta, v, w), tensor_points(ta, w, v))
    rhs = tensor_points(ta, mult_points(v, w), mult_points(w, v))
    assert points_equal(lhs, rhs, TOL)


def test_zero_scalar_generates_zero_everywhere():
    z = zero_scalar("fhilb")
    assert z.payload.shape == (1, 1) and z.payload[0, 0] == 0
    obj = fhilb_object(3)
    ze = zero_endo(obj)
    f = fhilb_morphism(obj, obj, np.arange(9).reshape(3, 3))
    assert np.all(compose(ze, f).payload == 0)
    for alg in (basis_algebra(2), to_algebra(klein4())):
        assert points_equal(derived_zero_point(alg), zero_point(alg), TOL)


def test_bi_order_check_passes_and_counts():
    za = to_algebra(cyclic(2))
    ta = tensor_algebras(za, za, TOL)
    fam = subgroupoid_points(za, enumerate_subgroupoids(cyclic(2)))
    rep = bi_order_check(ta, fam, fam, TOL)
    assert rep.passed
    assert rep.interchange_checked == len(fam) ** 4
    assert rep.order_checked > 0 and rep.orthogonality_checked > 0

    bb = basis_algebra(2)
    tb = tensor_algebras(bb, bb, TOL)
    fam_b = zero_one_points(bb)
    rep_b = bi_order_check(tb, fam_b, fam_b, TOL)
    assert rep_b.passed
    assert rep_b.interchange_checked == len(fam_b) ** 4


def test_mult_domains_carry_no_pair_labels():
    """A (x) A is typed by size alone; the carriers keep their labels."""
    k4 = to_algebra(klein4())
    composite = tensor_algebras(k4, to_algebra(cyclic(3))).algebra
    for alg in (k4, composite):
        assert alg.mult.dom.labels is None
        assert alg.mult.dom.size == alg.carrier.size**2
        assert alg.carrier.labels is not None
