"""The rel laws on packed supports against the path-count contraction.

On rel, check_axioms decides associativity and frobenius_left (and their
dagger twins) from bitmasks of product supports. contraction_oracle
contracts the float32 0/1 structure tensor instead, law by law. Both must
give the same AxiomReport, residuals and their types included, on passing
and failing algebras, across a uint64 word boundary and in one-row blocks.
"""

import numpy as np
import pytest

import contraction_oracle as oracle
from projlat import (
    REL,
    FrobeniusAlgebra,
    Morphism,
    check_axioms,
    cyclic,
    product,
    rel_object,
    tensor_objects,
    to_algebra,
    unit_object,
)
from projlat import cli, frobenius
from projlat.groupoid import Groupoid
from test_cli import _CARRIER_TWO, _carrier_two_algebra


def _assert_same_report(alg):
    got, want = check_axioms(alg), oracle.check_axioms(alg)
    assert got.results == want.results
    assert got.residuals == want.residuals
    assert [type(v) for v in got.residuals.values()] == [float] * len(want.residuals)
    return want


def _random_algebra(d: int, seed: int) -> FrobeniusAlgebra:
    """A 0/1 mult and unit of seeded densities; almost every law fails."""
    rng = np.random.default_rng(seed)
    carrier = rel_object(d)
    mult = rng.random((d, d * d)) < rng.uniform(0.02, 0.6)
    unit = rng.random((d, 1)) < rng.uniform(0.0, 1.0)
    return FrobeniusAlgebra(
        carrier,
        Morphism(tensor_objects(carrier, carrier), carrier, mult),
        Morphism(unit_object(REL), carrier, unit),
    )


def _rel_builtins():
    """Every builtin fixture that is a rel algebra: the groupoids, up to D_12."""
    names = sorted(cli._FIXED_BUILTINS)
    for pattern, _, lo, hi in cli._FAMILY_BUILTINS:
        stem = pattern.pattern.strip("^$").replace(r"(\d+)", "")
        names += [f"{stem}{n}" for n in range(lo, hi + 1)]
    return {name: to_algebra(raw) for name in names if isinstance(raw := cli._builtin(name), Groupoid)}


REL_BUILTINS = _rel_builtins()


@pytest.mark.parametrize("seed", range(40))
def test_random_tensors_match_contraction(seed):
    reports = [_assert_same_report(_random_algebra(d, 100 * seed + d)) for d in range(1, 14)]
    residuals = [r.residuals["associativity"] for r in reports]
    assert max(residuals) > 1000  # large counts, not only near misses


def test_carrier_65_crosses_a_word_boundary():
    """Masks of 65 bits take two uint64 words; the last bit sits alone in the second."""
    _assert_same_report(to_algebra(product(cyclic(13), cyclic(5))))
    rep = _assert_same_report(_random_algebra(65, 7))
    assert rep.residuals["frobenius_left"] > 0


@pytest.mark.parametrize("name", sorted(REL_BUILTINS))
def test_rel_builtins_match_contraction(name):
    assert _assert_same_report(REL_BUILTINS[name]).passed


@pytest.mark.parametrize("other", [None, "cyclic2", "interval", "klein4"])
@pytest.mark.parametrize("index", range(len(_CARRIER_TWO)))
def test_carrier_two_algebras_match_contraction(index, other):
    """Special and non-special carrier-2 algebras, alone and tensored."""
    assert _assert_same_report(_carrier_two_algebra(index, other)).passed


def test_one_row_blocks_match_contraction(monkeypatch):
    algs = [_random_algebra(d, d) for d in (1, 5, 13, 65)]
    algs += [to_algebra(cli._builtin("dihedral6")), _carrier_two_algebra(3, "klein4")]
    monkeypatch.setattr(frobenius, "_BLOCK_ENTRIES", 1)
    for alg in algs:
        _assert_same_report(alg)


def test_empty_carrier_passes():
    empty = rel_object(0)
    alg = FrobeniusAlgebra(
        empty,
        Morphism(tensor_objects(empty, empty), empty, np.zeros((0, 0), bool)),
        Morphism(unit_object(REL), empty, np.zeros((0, 1), bool)),
    )
    assert _assert_same_report(alg).passed


def test_popcount_counts_every_bit():
    words = np.array([0, 1, 2**63, 2**64 - 1, 0x0123456789ABCDEF], np.uint64)
    assert frobenius._popcount(words) == sum(bin(int(w)).count("1") for w in words)
