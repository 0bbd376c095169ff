"""Point relations against the pair-by-pair references in pair_oracle.

build_poset, commute_glb_equivalence and bi_order_check must give exactly
what the references give, violation and error order included. The batched
products and the row comparison must agree with pair products and the
scalar comparison rule entry for entry.
"""

import numpy as np
import pytest

import pair_oracle as oracle
from projlat import (
    FHILB,
    REL,
    FrobeniusAlgebra,
    Morphism,
    Point,
    TensorAlgebra,
    Tolerance,
    basis_algebra,
    bi_order_check,
    build_poset,
    commute_glb_equivalence,
    cyclic,
    enumerate_subgroupoids,
    inclusion_poset,
    interval,
    klein4,
    pants_algebra,
    subgroupoid_points,
    tensor_algebras,
    to_algebra,
    unit_object,
    zero_one_points,
)
from projlat.backend import Defect, row_defects, rows_equal
from projlat import frobenius
from projlat.frobenius import products, projection_mask
from test_groupoid import _ALL as GROUPOIDS
from test_order import oracle_posets

TOL = Tolerance(1e-9)


def _outcome(fn, *args):
    """What a call returns or raises, in a form two implementations can share."""
    try:
        poset = fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return poset.names, poset.leq.tolist(), poset.orth.tolist(), poset.zero_index


def _point(alg, vec, name=None):
    column = np.reshape(vec, (-1, 1))
    return Point(alg, Morphism(unit_object(alg.backend), alg.carrier, column), name)


def _non_projection(alg):
    """The first one-coordinate 0/1 point that fails the reference projection test."""
    for k in range(alg.carrier.size):
        p = _point(alg, np.eye(alg.carrier.size)[k], "bad")
        if not oracle.is_projection(p, TOL):
            return p
    return None


# -- inclusion_poset --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_inclusion_poset_matches_pair_loop(name):
    g = GROUPOIDS[name]
    alg = to_algebra(g)
    subs = enumerate_subgroupoids(g, max_carrier=alg.carrier.size)
    for family in (subs, subs[::-1], subs[1:], subs[:0:-1], subs + subs[-1:]):
        got = _outcome(inclusion_poset, alg, subgroupoid_points(alg, family), TOL)
        assert got == _outcome(oracle.inclusion_poset, alg, family)


# -- build_poset ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(oracle_posets()))
def test_build_poset_matches_pair_loops(name):
    poset = oracle_posets()[name]
    fam = list(poset.points)
    alg = fam[0].algebra
    without_zero = [p for k, p in enumerate(fam) if k != poset.zero_index]
    for family in (fam, fam[::-1], without_zero, without_zero[::-1]):
        got = _outcome(build_poset, alg, family, TOL)
        assert got == _outcome(oracle.build_poset, alg, family, TOL)
        assert not isinstance(got[0], str)


@pytest.mark.parametrize("name", sorted(oracle_posets()))
def test_build_poset_errors_match_pair_loops(name):
    fam = list(oracle_posets()[name].points)
    alg = fam[0].algebra
    foreign = zero_one_points(basis_algebra(2))[1]
    bad = _non_projection(alg)
    cases = [
        fam + [fam[-1].renamed("again")],  # the same projection twice
        fam[:2] + [fam[0].renamed("again")] + fam[2:],
        fam + [fam[2].renamed("x"), fam[1].renamed("y")],  # two such pairs
        fam + [fam[0]],  # a repeated name
        fam[:1] + [foreign] + fam[1:],
        [p.renamed(None) for p in fam[:2]] + [foreign],
    ]
    if bad is not None:
        cases += [
            fam[:1] + [bad] + fam[1:],
            fam[:1] + [bad.renamed("bad1"), bad.renamed("bad2")],
            fam[:1] + [bad.renamed(None)] + [foreign],
            fam[:1] + [foreign, bad],
            [bad, fam[0]],
        ]
    for family in cases:
        got = _outcome(build_poset, alg, family, TOL)
        assert isinstance(got[0], str)
        assert got == _outcome(oracle.build_poset, alg, family, TOL)


# -- commute_glb_equivalence --------------------------------------------------


@pytest.mark.parametrize("name", sorted(oracle_posets()))
def test_pair_checks_match_pair_loops(name):
    poset = oracle_posets()[name]
    alg = poset.points[0].algebra
    got = commute_glb_equivalence(alg, poset, TOL).pairs
    assert got == oracle.commute_glb_equivalence(alg, poset, TOL).pairs
    assert len(got) == poset.n * (poset.n - 1) // 2


# -- bi_order_check -----------------------------------------------------------


def _subgroupoids(g):
    alg = to_algebra(g)
    return alg, subgroupoid_points(alg, enumerate_subgroupoids(g))


def _zero_one(alg):
    return alg, [p for p in zero_one_points(alg) if oracle.is_projection(p, TOL)]


def _tensor_cases():
    return {
        "cyclic2-cyclic2": (_subgroupoids(cyclic(2)), _subgroupoids(cyclic(2))),
        "klein4-interval": (_subgroupoids(klein4()), _subgroupoids(interval())),
        "interval-cyclic3": (_subgroupoids(interval()), _subgroupoids(cyclic(3))),
        "pants2-basis2": (_zero_one(pants_algebra(2)), _zero_one(basis_algebra(2))),
        "basis3-pants2": (_zero_one(basis_algebra(3)), _zero_one(pants_algebra(2))),
    }


@pytest.mark.parametrize("name", sorted(_tensor_cases()))
def test_bi_order_report_matches_pair_loops(name):
    (a, fam_a), (b, fam_b) = _tensor_cases()[name]
    ta = tensor_algebras(a, b, TOL)
    got = bi_order_check(ta, fam_a, fam_b, TOL)
    assert got == oracle.bi_order_check(ta, fam_a, fam_b, TOL)
    assert got.passed and got.interchange_checked == len(fam_a) ** 2 * len(fam_b) ** 2
    unnamed = bi_order_check(ta, [p.renamed(None) for p in fam_a], fam_b, TOL)
    assert unnamed.violations == () and unnamed.order_checked == got.order_checked


def _bumped(ta, flat_index):
    """ta with one entry of its composed multiplication raised."""
    payload = ta.algebra.mult.payload.copy()
    k, ij = np.unravel_index(flat_index, payload.shape)
    payload[k, ij] = True if ta.algebra.backend == REL else payload[k, ij] + 0.5
    mult = Morphism(ta.algebra.mult.dom, ta.algebra.mult.cod, payload)
    composed = FrobeniusAlgebra(ta.algebra.carrier, mult, ta.algebra.unit)
    return TensorAlgebra(ta.left, ta.right, composed, ta.axioms)


@pytest.mark.parametrize("name", ["klein4-interval", "pants2-basis2", "basis3-pants2"])
def test_bi_order_violations_match_pair_loops(name):
    (a, fam_a), (b, fam_b) = _tensor_cases()[name]
    ta = tensor_algebras(a, b, TOL)
    # one bumped rel entry breaks orthogonality in one slot only; on fhilb, in both
    orth = {"left-orthogonality", "right-orthogonality"}
    wanted = {"interchange"} | (orth if a.backend == FHILB else set())
    zeros = np.flatnonzero(ta.algebra.mult.payload.ravel() == 0)
    for flat_index in zeros:  # the first zero entry whose bump breaks the wanted laws
        bumped = _bumped(ta, flat_index)
        got = bi_order_check(bumped, fam_a, fam_b, TOL)
        laws = {v.law for v in got.violations}
        if wanted <= laws and laws & orth:
            break
    else:
        pytest.fail(f"no single bumped entry breaks {sorted(wanted)} and orthogonality")
    assert got == oracle.bi_order_check(bumped, fam_a, fam_b, TOL)


# -- the comparison rule --------------------------------------------------------


@pytest.mark.parametrize("scale", [1e-13, 1e-6, 1.0])
def test_row_rule_matches_scalar_defect_on_fhilb(scale):
    rng = np.random.default_rng(int(-np.log10(scale)) + 7)
    lhs = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    lhs[::5] *= 1e3  # some rows whose scale is not 1
    rhs = lhs + scale * (rng.standard_normal(lhs.shape) + 1j * rng.standard_normal(lhs.shape))
    rhs[::3] = lhs[::3]
    residuals, scales = row_defects(FHILB, lhs, rhs)
    passed = rows_equal(FHILB, lhs, rhs, TOL)
    for k in range(len(lhs)):
        assert (residuals[k], scales[k]) == oracle.defect(FHILB, lhs[k], rhs[k])
        assert passed[k] == oracle.passes(FHILB, residuals[k], scales[k], TOL)
        assert passed[k] == Defect(FHILB).add(lhs[k], rhs[k]).passed(TOL)


def test_row_rule_at_the_threshold():
    lhs = np.zeros((3, 4), dtype=complex)
    lhs[:, 0] = [2.0, 0.5, 2.0]  # scales 2, 1 and 2
    rhs = lhs.copy()
    at = np.array([TOL.epsilon * 2.0, TOL.epsilon * 1.0, np.nextafter(TOL.epsilon * 2.0, 1.0)])
    rhs[:, 1] = at
    assert rows_equal(FHILB, lhs, rhs, TOL).tolist() == [True, True, False]
    for k in range(3):
        assert Defect(FHILB).add(lhs[k], rhs[k]).passed(TOL) == (k < 2)
        assert oracle.passes(FHILB, *oracle.defect(FHILB, lhs[k], rhs[k]), TOL) == (k < 2)


def test_row_rule_matches_scalar_defect_on_rel():
    rng = np.random.default_rng(11)
    lhs = rng.integers(0, 3, size=(30, 8)).astype(np.float32)  # path counts
    rhs = lhs > 0
    flips = rng.integers(0, 2, size=lhs.shape) & (rng.random(lhs.shape) < 0.1)
    rhs = rhs ^ flips.astype(bool)
    residuals, _ = row_defects(REL, lhs, rhs)
    passed = rows_equal(REL, lhs, rhs, TOL)
    assert 0 < passed.sum() < len(lhs)
    for k in range(len(lhs)):
        assert residuals[k] == oracle.defect(REL, lhs[k], rhs[k])[0]
        assert passed[k] == Defect(REL).add(lhs[k], rhs[k]).passed(TOL)


def test_products_match_pair_products():
    for alg in (pants_algebra(2), to_algebra(interval())):
        rng = np.random.default_rng(3)
        d = alg.carrier.size
        if alg.backend == FHILB:
            xs = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
        else:
            xs = (rng.random((5, d)) < 0.5).astype(np.float32)
        table = products(alg, xs, xs[::-1])
        for a in range(5):
            for b in range(5):
                want = oracle.mult_points(_point(alg, xs[a]), _point(alg, xs[::-1][b]))
                assert oracle.points_equal(_point(alg, table[a, b]), want, TOL)


def test_blocked_contractions_match_one_block(monkeypatch):
    alg = pants_algebra(3)
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((11, 9)) + 1j * rng.standard_normal((11, 9))
    xs[::2] = [p.vector for p in zero_one_points(alg)[:6]]  # some projections among them
    whole, whole_mask = products(alg, xs, xs[:4]), projection_mask(alg, xs, TOL)
    monkeypatch.setattr(frobenius, "_BLOCK_ENTRIES", 2 * 81)  # blocks of two rows
    np.testing.assert_allclose(products(alg, xs, xs[:4]), whole, rtol=0, atol=1e-12)
    assert np.array_equal(projection_mask(alg, xs, TOL), whole_mask)
    assert 0 < whole_mask.sum() < len(xs)
