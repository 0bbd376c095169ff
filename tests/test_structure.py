"""Structure-tensor laws and products against their Kronecker references.

kron_oracle evaluates every law and product diagram by diagram, with
Kronecker products of morphisms. The package contracts M[k, i, j] instead;
here both must give the same verdicts, residuals within 1e-12 on fhilb and
equal on rel, and the same points.
"""

import numpy as np
import pytest

import kron_oracle as kron
import pair_oracle
from contraction_oracle import law_path
from projlat import (
    AXIOM_NAMES,
    FrobeniusAlgebra,
    Morphism,
    Point,
    Tolerance,
    check_axioms,
    commutativity_defect,
    conjugate_point,
    cyclic,
    direct_sum,
    interval,
    is_central,
    is_commutative,
    is_copyable,
    klein4,
    mult_points,
    pants_algebra,
    basis_algebra,
    rel_morphism,
    related_pairs,
    tensor_algebras,
    to_algebra,
    unit_object,
    unit_point,
    vector_point,
    zero_point,
)
from projlat import cli, frobenius
from projlat.backend import Defect
from projlat.groupoid import Groupoid

GAP = 1e-12


def _builtin_algebras(max_carrier=9):
    """Every builtin fixture that is an algebra with carrier <= max_carrier."""
    out = {}
    names = sorted(cli._FIXED_BUILTINS)
    for pattern, _, lo, hi in cli._FAMILY_BUILTINS:
        stem = pattern.pattern.strip("^$").replace(r"(\d+)", "")
        names += [f"{stem}{n}" for n in range(lo, hi + 1)]
    for name in names:
        raw = cli._builtin(name)
        if isinstance(raw, dict):
            continue  # a malformed groupoid document, not an algebra
        alg = to_algebra(raw) if isinstance(raw, Groupoid) else raw
        if alg.carrier.size <= max_carrier:
            out[name] = alg
    return out


BUILTINS = _builtin_algebras()


def _with_mult(alg, payload) -> FrobeniusAlgebra:
    return FrobeniusAlgebra(alg.carrier, Morphism(alg.mult.dom, alg.carrier, payload), alg.unit)


def _with_unit(alg, payload) -> FrobeniusAlgebra:
    return FrobeniusAlgebra(alg.carrier, alg.mult, Morphism(alg.unit.dom, alg.carrier, payload))


def _relation(like: Morphism, pairs):
    """The bool payload, typed like `like`, relating exactly `pairs`."""
    return rel_morphism(like.dom, like.cod, pairs).payload


def _broken():
    z2, k4, p2 = to_algebra(cyclic(2)), to_algebra(klein4()), pants_algebra(2)
    bumped = p2.mult.payload.copy()
    bumped[1, 6] += 0.25
    products = frozenset(related_pairs(k4.mult))
    extra = sorted(products)[0]
    return {
        "rel-zero-unit": _with_unit(z2, _relation(z2.unit, frozenset())),
        "fhilb-zero-unit": _with_unit(p2, np.zeros((4, 1))),
        "rel-extra-product": _with_mult(
            k4, _relation(k4.mult, products | {(extra[0], (extra[1] + 1) % 4)})
        ),
        "rel-missing-product": _with_mult(k4, _relation(k4.mult, products - {extra})),
        "fhilb-bumped-entry": _with_mult(p2, bumped),
        "interval": to_algebra(interval()),
    }


def _perturbed(bases, seed):
    """Seeded complex perturbations of mult and unit, at scales on both sides of 1e-9."""
    rng = np.random.default_rng(seed)
    out = {}
    for base_name, base in bases:
        for scale in (1e-13, 1e-6, 1.0):
            noise = lambda shape: scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            mult = base.mult.payload + noise(base.mult.payload.shape)
            unit = base.unit.payload + noise(base.unit.payload.shape)
            out[f"{base_name}-{scale:g}"] = _with_unit(_with_mult(base, mult), unit)
    return out


PERTURBED = _perturbed(
    (("pants2", pants_algebra(2)), ("basis3", basis_algebra(3)), ("sum21", direct_sum([2, 1]))),
    20130219,
)
CASES = {**BUILTINS, "direct-sum-3321": direct_sum([3, 3, 2, 1]), **_broken(), **PERTURBED}


def _assert_same_axioms(alg):
    new, old = check_axioms(alg), kron.check_axioms(alg)
    assert new.results == old.results
    for name in AXIOM_NAMES:
        if alg.backend == "rel":
            assert new.residuals[name] == old.residuals[name], name
        else:
            assert abs(new.residuals[name] - old.residuals[name]) <= GAP, name


def test_cases_cover_every_small_builtin_and_failing_laws():
    assert {"pants3", "basis9", "cyclic9", "dihedral4", "quaternion8", "two-intervals"} <= set(BUILTINS)
    assert "pants4" not in BUILTINS and "broken-inverse" not in BUILTINS
    failing = {name for name, alg in CASES.items() if not kron.check_axioms(alg).passed}
    assert failing == set(_broken()) - {"interval"} | {
        f"{b}-{s:g}" for b in ("pants2", "basis3", "sum21") for s in (1e-6, 1.0)
    }


def test_cases_take_every_law_path():
    """Builtins, direct sums and the broken variants that stay tables take
    the table path; a second product in one column sends rel to the packed
    path and fhilb to the contraction, as complex perturbations do."""
    packed, contraction = {"rel-extra-product"}, {"fhilb-bumped-entry", *PERTURBED}
    paths = {name: law_path(alg) for name, alg in CASES.items()}
    assert paths == {
        name: "packed" if name in packed else "contraction" if name in contraction else "table"
        for name in CASES
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_axioms_match_diagram_reference(name):
    _assert_same_axioms(CASES[name])


@pytest.mark.parametrize(
    "name", ["pants2", "klein4", "interval", "rel-extra-product", "fhilb-bumped-entry",
             "pants2-1e-06", "sum21-1"]
)
def test_axioms_match_reference_one_row_per_block(name, monkeypatch):
    monkeypatch.setattr(frobenius, "_BLOCK_ENTRIES", 1)
    _assert_same_axioms(CASES[name])


# every rel case above, and pants2, pants3 and M3+M3+M2+M1 perturbed at three scales
TWIN_CASES = {
    **{name: alg for name, alg in CASES.items() if alg.backend == "rel"},
    **_perturbed(
        (("pants2", pants_algebra(2)), ("pants3", pants_algebra(3)),
         ("sum3321", direct_sum([3, 3, 2, 1]))),
        20131112,
    ),
}


@pytest.mark.parametrize("name", sorted(TWIN_CASES))
def test_dagger_twin_laws_match_their_own_contraction(name):
    """coassociativity, counitality and frobenius_right, reported from their
    dagger twins, against the einsum of each law's own two composites."""
    alg = TWIN_CASES[name]
    m, e = alg.structure, unit_point(alg).vector.conj()
    c, one = m.conj(), np.eye(alg.carrier.size)
    sides = {
        "coassociativity": (np.einsum("lpk,pij->lijk", c, c), np.einsum("lip,pjk->lijk", c, c)),
        "counitality_left": (np.einsum("i,kij->jk", e, c), one),
        "counitality_right": (np.einsum("j,kij->ik", e, c), one),
        "frobenius_right": (np.einsum("lpi,kij->ljpk", m, c), np.einsum("qlj,qpk->ljpk", c, m)),
    }
    report = check_axioms(alg)
    for law, (lhs, rhs) in sides.items():
        residual, scale = pair_oracle.defect(alg.backend, lhs, rhs)
        assert report.results[law] == pair_oracle.passes(alg.backend, residual, scale), law
        if alg.backend == "rel":
            assert report.residuals[law] == residual, law
        else:
            assert abs(report.residuals[law] - residual) <= GAP, law
    if name.endswith("-1"):
        assert not any(report.results[law] for law in sides)


def _points(alg, rng, count=8):
    """Unit, zero and seeded random points: 0/1 subsets on rel, complex vectors on fhilb."""
    d = alg.carrier.size
    pts = [unit_point(alg), zero_point(alg)]
    for _ in range(count):
        if alg.backend == "rel":
            pairs = {(0, k) for k in np.flatnonzero(rng.random(d) < 0.4).tolist()}
            pts.append(Point(alg, rel_morphism(unit_object("rel"), alg.carrier, pairs)))
        else:
            pts.append(vector_point(alg, rng.standard_normal(d) + 1j * rng.standard_normal(d)))
            pts.append(vector_point(alg, np.eye(d)[rng.integers(d)]))  # copyable in basis algebras
    return pts


def _assert_same_point(p: Point, q: Point):
    if p.algebra.backend == "rel":
        assert frozenset(related_pairs(p.morphism)) == frozenset(related_pairs(q.morphism))
    else:
        assert np.max(np.abs(p.morphism.payload - q.morphism.payload)) <= GAP


@pytest.mark.parametrize("name", sorted(set(BUILTINS) | set(_broken()) | {"pants2-1e-06"}))
def test_point_operations_match_diagram_reference(name):
    alg = CASES[name]
    pts = _points(alg, np.random.default_rng(len(name)))
    for p in pts:
        _assert_same_point(conjugate_point(p), kron.conjugate_point(p))
        assert is_copyable(p) == kron.is_copyable(p)
        assert is_central(p) == kron.is_central(p)
        for q in pts:
            _assert_same_point(mult_points(p, q), kron.mult_points(p, q))
    assert is_commutative(alg) == kron.is_commutative(alg)
    want = kron.commutativity_defect(alg)
    assert abs(commutativity_defect(alg) - want) <= (0 if alg.backend == "rel" else GAP)


@pytest.mark.parametrize("seed", range(6))
def test_defect_over_blocks_equals_the_rule_on_the_whole(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 5)), 3)
    lhs = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    rhs = lhs + rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 1, shape)
    if seed % 2:
        lhs, rhs = rhs * 0, rhs  # the scale comes from one side only
    for eps in (1e-9, 1e-3, 1.0):
        defect = Defect("fhilb")
        for k in range(shape[0]):
            defect.add(lhs[k], rhs[k])
        gap = np.max(np.abs(lhs - rhs))
        assert defect.residual == gap
        scale = max(1.0, np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        assert defect.passed(Tolerance(eps)) == (gap <= eps * scale)
    counts_l, counts_r = rng.integers(0, 3, shape), rng.integers(0, 3, shape)
    exact = Defect("rel")
    for k in range(shape[0]):
        exact.add(counts_l[k], counts_r[k])
    assert exact.residual == np.count_nonzero((counts_l > 0) != (counts_r > 0))
    assert exact.passed() == (exact.residual == 0)


def test_threshold_matches_reference_near_the_boundary():
    near = vector_point(basis_algebra(2), [1.0, 1e-10])
    bumped = CASES["pants2-1e-13"]
    for tol in (Tolerance(1e-9), Tolerance(1e-11), Tolerance(1e-14)):
        assert is_copyable(near, tol) == kron.is_copyable(near, tol)
        assert is_central(near, tol) == kron.is_central(near, tol)
        assert check_axioms(bumped, tol).results == kron.check_axioms(bumped, tol).results


@pytest.mark.parametrize(
    "left, right",
    [
        (to_algebra(cyclic(2)), to_algebra(interval())),
        (to_algebra(klein4()), to_algebra(cyclic(3))),
        (pants_algebra(2), basis_algebra(2)),
        (basis_algebra(3), pants_algebra(2)),
    ],
    ids=["c2-interval", "klein4-c3", "pants2-basis2", "basis3-pants2"],
)
def test_composed_mult_matches_middle_swap_reference(left, right):
    ta = tensor_algebras(left, right)
    assert ta.algebra.mult == kron.composed_mult(left, right)
    _assert_same_axioms(ta.algebra)


def test_same_algebra_short_circuits_on_identity(monkeypatch):
    alg = pants_algebra(3)
    p = unit_point(alg)

    def no_payload_comparison(self, other):
        raise AssertionError("payloads compared")

    monkeypatch.setattr(Morphism, "__eq__", no_payload_comparison)
    assert alg.same_algebra(alg)
    mult_points(p, p)
    with pytest.raises(AssertionError):
        alg.same_algebra(pants_algebra(3))
