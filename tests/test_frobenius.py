"""Algebra axioms, induced compact structure, and point predicates."""

import numpy as np
import pytest

from projlat import (
    AXIOM_NAMES,
    AxiomReport,
    CompositionTypeError,
    FrobeniusAlgebra,
    Morphism,
    Tolerance,
    basis_algebra,
    check_axioms,
    commutativity_defect,
    compose,
    conjugate_point,
    cyclic,
    dagger,
    equal,
    fhilb_morphism,
    fhilb_object,
    induced_cap,
    induced_cup,
    interval,
    is_central,
    is_commutative,
    is_copyable,
    is_projection,
    klein4,
    mult_points,
    pants_algebra,
    points_equal,
    rel_morphism,
    rel_object,
    related_pairs,
    subset_point,
    to_algebra,
    unit_object,
    unit_point,
    vector_point,
    zero_point,
)
from projlat.backend import PAYLOAD_DTYPE

Z2 = to_algebra(cyclic(2))
K4 = to_algebra(klein4())
IV = to_algebra(interval())


def test_axiom_names_cover_eleven_laws():
    assert len(AXIOM_NAMES) == 11
    assert len(set(AXIOM_NAMES)) == 11


@pytest.mark.parametrize(
    "alg",
    [Z2, K4, IV, pants_algebra(2), basis_algebra(1), basis_algebra(3)],
    ids=["z2", "klein4", "interval", "pants2", "basis1", "basis3"],
)
def test_fixture_algebras_pass_all_axioms(alg):
    rep = check_axioms(alg)
    assert rep.passed, rep.failed_axioms()
    assert set(rep.results) == set(AXIOM_NAMES)
    assert max(rep.residuals.values()) < 1e-9


def test_comult_and_counit_are_daggers():
    for alg in (Z2, pants_algebra(2)):
        assert equal(alg.comult, dagger(alg.mult))
        assert equal(alg.counit, dagger(alg.unit))


def test_group_algebra_cup_pairs_inverses():
    # carrier indices 0, 1; the cup relates the unit to (g, g^-1) slots
    cup = induced_cup(Z2)
    assert frozenset(related_pairs(cup)) == frozenset({(0, 0), (0, 3)})
    cap = induced_cap(Z2)
    assert frozenset(related_pairs(cap)) == frozenset({(0, 0), (3, 0)})


def test_basis_algebra_cup_is_diagonal_sum():
    cup = induced_cup(basis_algebra(2))
    assert np.array_equal(cup.payload[:, 0], np.array([1, 0, 0, 1]))


def test_zero_unit_breaks_unitality_only():
    carrier = Z2.carrier
    broken = FrobeniusAlgebra(
        carrier, Z2.mult, rel_morphism(unit_object("rel"), carrier, frozenset())
    )
    rep = check_axioms(broken)
    assert not rep.passed
    assert rep.results["associativity"]
    assert rep.results["coassociativity"]
    assert not rep.results["unitality_left"]
    assert not rep.results["unitality_right"]


def test_one_sided_unit_is_localized():
    # e0 is a left unit for this mult but not a right one: e1*e0 = 0
    a = fhilb_object(2)
    aa = fhilb_object(4)
    mult = np.zeros((2, 4))
    mult[0, 0] = 1.0
    mult[1, 1] = 1.0
    alg = FrobeniusAlgebra(
        a,
        fhilb_morphism(aa, a, mult),
        fhilb_morphism(fhilb_object(1), a, [[1], [0]]),
    )
    rep = check_axioms(alg)
    assert not rep.passed
    failed = rep.failed_axioms()
    assert "unitality_right" in failed
    assert "unitality_left" not in failed
    assert rep.results["associativity"]
    assert rep.residuals["unitality_right"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "carrier,dom",
    [
        (fhilb_object(2), fhilb_object(3)),
        (fhilb_object(2), fhilb_object(8)),
        (rel_object(2, ("x", "y")), rel_object(3)),
        (rel_object(3, ("x", "y", "z")), rel_object(4, ("a", "b", "c", "d"))),
    ],
    ids=["fhilb3", "fhilb8", "rel3", "rel4-labelled"],
)
def test_mult_with_a_wrongly_sized_domain_is_refused(carrier, dom):
    payload = np.zeros((carrier.size, dom.size), dtype=PAYLOAD_DTYPE[carrier.backend])
    unit = Morphism(unit_object(carrier.backend), carrier, np.ones((carrier.size, 1), payload.dtype))
    with pytest.raises(CompositionTypeError, match="mult must map"):
        FrobeniusAlgebra(carrier, Morphism(dom, carrier, payload), unit)


def test_mult_domain_labels_play_no_part():
    two = rel_object(2, ("x", "y"))
    pairs = rel_object(4, ("p", "q", "r", "s"))
    alg = FrobeniusAlgebra(
        two,
        rel_morphism(pairs, two, {(0, 0), (3, 1)}),
        rel_morphism(unit_object("rel"), two, {(0, 0), (0, 1)}),
    )
    assert alg.mult.dom.labels == ("p", "q", "r", "s")


def test_axiom_report_round_trip():
    rep = check_axioms(Z2)
    again = AxiomReport.from_dict(rep.to_dict())
    assert again.results == rep.results
    assert again.residuals == rep.residuals
    assert again.to_dict() == rep.to_dict()


# -- points -----------------------------------------------------------------


def test_subset_points_multiply_setwise():
    u = subset_point(IV, ["id_x", "id_y", "f", "f_inv"])
    idx = subset_point(IV, ["id_x"])
    left = mult_points(u, idx)
    right = mult_points(idx, u)
    assert points_equal(left, subset_point(IV, ["id_x", "f"]))
    assert points_equal(right, subset_point(IV, ["id_x", "f_inv"]))
    assert not points_equal(left, right)


def test_conjugate_point_inverts_group_subsets():
    g = cyclic(4)
    alg = to_algebra(g)
    p = subset_point(alg, ["1"])
    assert points_equal(conjugate_point(p), subset_point(alg, ["3"]))
    q = subset_point(alg, ["0", "2"])
    assert points_equal(conjugate_point(q), q)


def test_points_equal_ignores_names():
    p = subset_point(K4, ["(0,0)"], name="one")
    q = subset_point(K4, ["(0,0)"], name="other")
    assert points_equal(p, q)
    assert p != q  # dataclass equality keeps the morphism, drops the name
    assert points_equal(p.renamed("third"), q)


def test_projection_predicate_matches_closure():
    assert is_projection(subset_point(IV, []))
    assert is_projection(subset_point(IV, ["id_x"]))
    assert is_projection(subset_point(IV, ["id_x", "id_y", "f", "f_inv"]))
    # not closed under composition with inverses present
    assert not is_projection(subset_point(IV, ["f"]))
    assert not is_projection(subset_point(IV, ["id_x", "f"]))


def test_copyable_points_of_basis_algebra_are_basis_vectors():
    alg = basis_algebra(3)
    for i in range(3):
        v = np.eye(3)[i]
        assert is_copyable(vector_point(alg, v, f"e{i}"))
    assert is_copyable(zero_point(alg))
    assert not is_copyable(vector_point(alg, np.array([1.0, 1.0, 0.0]), "e0+e1"))
    assert not is_copyable(vector_point(alg, np.array([0.5, 0.0, 0.0]), "e0/2"))


def test_central_and_commutative_line_up():
    assert is_commutative(K4)
    assert not is_commutative(IV)
    assert commutativity_defect(IV) > 0
    assert commutativity_defect(K4) == 0
    # the full carrier is central in a commutative algebra
    assert is_central(subset_point(K4, ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]))
    # a one-object identity stays central even in the noncommutative interval
    assert not is_central(subset_point(IV, ["id_x"]))


def test_unit_point_is_identity_for_mult():
    for alg in (Z2, basis_algebra(2)):
        e = unit_point(alg)
        p = (
            subset_point(alg, ["1"])
            if alg.backend == "rel"
            else vector_point(alg, np.array([1.0, 0.0]), "e0")
        )
        assert points_equal(mult_points(e, p), p)
        assert points_equal(mult_points(p, e), p)


def test_pants_is_noncommutative_for_n_at_least_2():
    assert not is_commutative(pants_algebra(2))
    assert is_commutative(pants_algebra(1))
    assert is_commutative(basis_algebra(4))


def test_tolerance_threshold_is_respected():
    alg = basis_algebra(2)
    v = vector_point(alg, np.array([1.0, 1e-12]), "almost-e0")
    assert is_copyable(v)  # below default tolerance
    assert not is_copyable(v, Tolerance(1e-15))
