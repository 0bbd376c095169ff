"""fhilb projection families by Next-Closure, against the 0/1 scan.

enumerate_projections lists the projections of a real fhilb algebra whose
structure constants and cup are nonnegative and clear of the tolerance, by
Next-Closure and projection_mask; closure_applies says which algebras those
are. Every other fhilb algebra keeps zero_one_projections, the definitional
scan of all 2^d 0/1 points, which is also the oracle here.
"""

import itertools

import numpy as np
import pytest

from projlat import (
    BackendMismatch,
    FrobeniusAlgebra,
    LawViolation,
    Morphism,
    ResourceLimit,
    Tolerance,
    basis_algebra,
    check_axioms,
    direct_sum,
    pants_algebra,
)
from projlat import cli, groupoid
from projlat.frobenius import mask_points, zero_one_projections
from projlat.groupoid import closure_applies, enumerate_projections

TOL = Tolerance(1e-9)


def _square_sums(limit: int) -> list[list[int]]:
    """Every nonincreasing block list whose carrier sum(b^2) is at most limit."""
    out = []

    def extend(blocks, total):
        if blocks:
            out.append(list(blocks))
        for b in range(blocks[-1] if blocks else 4, 0, -1):
            if total + b * b <= limit:
                extend(blocks + [b], total + b * b)

    extend([], 0)
    return out


SMALL = (
    [(f"pants{n}", pants_algebra(n)) for n in range(1, 5)]
    + [(f"basis{n}", basis_algebra(n)) for n in range(1, 11)]
    + [(f"sum{b}", direct_sum(b)) for b in _square_sums(16) if 1 < len(b) <= 5]
    + [("sum[1, 2, 1]", direct_sum([1, 2, 1])), ("sum[1, 3]", direct_sum([1, 3]))]
)


def _diagonal_masks(blocks: list[int]) -> list[int]:
    """The 0/1 projections of a direct sum: subsets of the diagonal units."""
    units, off = [], 0
    for b in blocks:
        units += [off + i * b + i for i in range(b)]
        off += b * b
    return sorted(
        sum(1 << u for u in chosen)
        for r in range(len(units) + 1)
        for chosen in itertools.combinations(units, r)
    )


def _rebased(alg: FrobeniusAlgebra, v) -> FrobeniusAlgebra:
    """The algebra in the basis v_k e_k for a diagonal unitary or sign change
    v: mult' = V mult (V* (x) V*) and unit' = V unit, so every law holds."""
    v = np.asarray(v, dtype=np.complex128)
    mult = v[:, None] * alg.mult.payload * np.kron(v, v).conj()[None, :]
    return FrobeniusAlgebra(
        alg.carrier,
        Morphism(alg.mult.dom, alg.carrier, mult),
        Morphism(alg.unit.dom, alg.carrier, v[:, None] * alg.unit.payload),
    )


def _noisy(alg: FrobeniusAlgebra, noise: float) -> FrobeniusAlgebra:
    """alg with noise added to every zero structure constant."""
    mult = alg.mult.payload + noise * (alg.mult.payload == 0)
    return FrobeniusAlgebra(alg.carrier, Morphism(alg.mult.dom, alg.carrier, mult), alg.unit)


@pytest.mark.parametrize("name,alg", SMALL, ids=[name for name, _ in SMALL])
def test_closure_family_is_the_zero_one_scan(name, alg):
    assert closure_applies(alg, TOL)
    want = zero_one_projections(alg, TOL, 2**alg.carrier.size)
    assert enumerate_projections(alg, cross_check=False, tol=TOL) == want


@pytest.mark.parametrize("blocks", [[5], [6], [3, 3, 2, 1], [4, 2, 1]])
def test_closure_family_past_the_scan(blocks):
    """Carriers 25, 36, 23 and 21: exactly the 2^(sum b) diagonal masks."""
    alg = direct_sum(blocks)
    assert enumerate_projections(alg, tol=TOL) == _diagonal_masks(blocks)


def test_pants_closed_sets_are_bell_numbers():
    """The closed sets of M_n's matrix units are the partial equivalence
    relations on n points: Bell(n + 1) of them."""
    for n, bell in zip(range(1, 7), (2, 5, 15, 52, 203, 877)):
        ctx = groupoid._Closure(pants_algebra(n))
        assert sum(1 for _ in groupoid._next_closure_masks(ctx, 10**6)) == bell


def test_closed_set_cap_on_fhilb():
    with pytest.raises(ResourceLimit, match="more than 14 closed sets"):
        enumerate_projections(pants_algebra(3), max_closed=14, tol=TOL)
    assert len(enumerate_projections(pants_algebra(3), max_closed=15, tol=TOL)) == 8
    with pytest.raises(ResourceLimit, match="carrier 25 exceeds cap 24"):
        enumerate_projections(pants_algebra(5), max_carrier=24, tol=TOL)


def test_cross_check_disagreement_raises(monkeypatch):
    monkeypatch.setattr(groupoid, "zero_one_projections", lambda alg, tol, cap: [0])
    with pytest.raises(LawViolation, match="disagrees"):
        enumerate_projections(pants_algebra(2), tol=TOL)


def _scan_cases():
    phase, half = np.exp(0.25j * np.pi), np.exp(0.125j * np.pi)
    return [
        # complex structure constants: e_01 and e_10 pick up a phase
        ("complex", _rebased(pants_algebra(2), [1, phase, phase, 1]), [0, 1, 8, 9]),
        # every entry 1 or exp(-i pi/4): real parts all positive, still complex
        ("complex-positive", _rebased(pants_algebra(2), [1, half, half, 1]), [0, 1, 8, 9]),
        # M[1, 1, 1] = -1: e_1 is no 0/1 projection any more
        ("negative", _rebased(basis_algebra(2), [1, -1]), [0, 1]),
        ("negative-pants", _rebased(pants_algebra(2), [1, -1, 1, 1]), [0, 1, 8, 9]),
        # 1e-12 is below eps / (1 - eps): the support of every product is
        # the whole carrier, so Next-Closure would keep only 0 and 1111
        ("noise", _noisy(pants_algebra(2), 1e-12), [0, 1, 8, 9]),
    ]


@pytest.mark.parametrize("name,alg,want", _scan_cases(), ids=[c[0] for c in _scan_cases()])
def test_other_fhilb_algebras_take_the_scan(name, alg, want):
    assert check_axioms(alg, TOL).passed
    assert not closure_applies(alg, TOL)
    with pytest.raises(BackendMismatch):
        enumerate_projections(alg, tol=TOL)
    assert zero_one_projections(alg, TOL, 2**alg.carrier.size) == want
    family = cli._family(alg, TOL, 10**6)
    assert [p.name for p in family] == [p.name for p in mask_points(alg, want)]


def test_noise_above_the_tolerance_is_support():
    """At eps = 1e-13 the 1e-12 entries are real support: Next-Closure
    applies, and both paths find that only 0 is a projection."""
    alg, tol = _noisy(pants_algebra(2), 1e-12), Tolerance(1e-13)
    assert closure_applies(alg, tol)
    assert enumerate_projections(alg, tol=tol) == zero_one_projections(alg, tol, 16) == [0]


def test_closure_needs_entries_above_the_tolerance_floor():
    eps = TOL.epsilon
    floor = eps / (1 - eps)
    at_floor = _noisy(pants_algebra(2), floor)
    above = _noisy(pants_algebra(2), 2 * floor)
    assert not closure_applies(at_floor, TOL)
    assert closure_applies(above, TOL)
    assert enumerate_projections(above, tol=TOL) == zero_one_projections(above, TOL, 16)
    for eps_big in (1.0, 2.0):
        assert not closure_applies(pants_algebra(2), Tolerance(eps_big))
