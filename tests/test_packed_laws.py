"""The rel laws from product tables and on packed supports against the
path-count contraction.

On rel, check_axioms decides associativity and frobenius_left (and their
dagger twins) from product tables when M is a table (every groupoid
algebra and seeded random tables) and from bitmasks of product supports
otherwise. contraction_oracle contracts the float32 0/1 structure tensor
instead, law by law. Both must give the same AxiomReport, residuals and
their types included, on passing and failing algebras, across a uint64
word boundary and in one-row blocks; each case asserts its path.
"""

import numpy as np
import pytest

import contraction_oracle as oracle
from projlat import (
    FHILB,
    REL,
    FrobeniusAlgebra,
    Morphism,
    check_axioms,
    cyclic,
    fhilb_object,
    product,
    rel_object,
    tensor_objects,
    to_algebra,
    unit_object,
)
from projlat import cli, frobenius
from projlat.groupoid import Groupoid
from test_cli import _CARRIER_TWO, _carrier_two_algebra


def _assert_same_report(alg, path):
    assert oracle.law_path(alg) == path
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


def random_table(d: int, seed: int, backend: str = REL) -> FrobeniusAlgebra:
    """A seeded table algebra on d >= 1 basis elements.

    Odd seeds relabel Z_d by a random permutation: e_a e_b = e_(a + b), unit
    e_0, so on rel every law passes. Even seeds map each i by a random
    partial injection j -> t[i, j] with a random unit basis vector, so the
    laws mostly fail. On fhilb the coefficients are not 1: on Z_d they are
    f_a f_b / f_(a + b) with unit 1 / f_0, for random signs f (every law
    passes exactly) or, when seed % 4 == 3, signed f of random size
    (associativity passes up to rounding, Frobenius fails); on the
    injections they are normal, and scaled by 2^-30 when seed % 4 == 2.
    The unit has one nonzero, so every sum the small laws take has at most
    one nonzero term.
    """
    rng = np.random.default_rng(seed)
    m, unit = np.zeros((d, d, d)), np.zeros(d)
    if seed % 2:
        label = rng.permutation(d)
        a, b = np.divmod(np.arange(d * d), d)
        i, j, k = label[a], label[b], label[(a + b) % d]
        f = rng.choice([-1.0, 1.0], d) * (rng.uniform(0.3, 3.0, d) if seed % 4 == 3 else 1.0)
        coef, unit[label[0]] = f[a] * f[b] / f[(a + b) % d], 1 / f[0]
    else:
        i, j = np.divmod(np.arange(d * d), d)
        k = np.concatenate([rng.permutation(d) for _ in range(d)])
        keep = rng.random(d * d) < rng.uniform(0.2, 1.0)
        i, j, k = i[keep], j[keep], k[keep]
        coef = rng.standard_normal(len(k)) * (2.0**-30 if seed % 4 == 2 else 1.0)
        unit[rng.integers(d)] = rng.standard_normal()
    m[k, i, j] = coef if backend == FHILB else 1.0
    carrier = fhilb_object(d) if backend == FHILB else rel_object(d)
    return FrobeniusAlgebra(
        carrier,
        Morphism(tensor_objects(carrier, carrier), carrier, m.reshape(d, d * d)),
        Morphism(unit_object(backend), carrier, unit.reshape(d, 1)),
    )


@pytest.mark.parametrize("seed", range(40))
def test_random_tensors_match_contraction(seed):
    """d = 1 is always a table; from d = 7 on, no seed draws one."""
    algs = [_random_algebra(d, 100 * seed + d) for d in range(1, 14)]
    paths = [oracle.law_path(alg) for alg in algs]
    assert paths[0] == "table" and set(paths[6:]) == {"packed"}
    reports = [_assert_same_report(alg, path) for alg, path in zip(algs, paths)]
    residuals = [r.residuals["associativity"] for r in reports]
    assert max(residuals) > 1000  # large counts, not only near misses


@pytest.mark.parametrize("seed", range(16))
def test_random_tables_match_contraction(seed):
    algs = {d: random_table(d, 16 * seed + d) for d in range(1, 12)}
    reports = {d: _assert_same_report(alg, "table") for d, alg in algs.items()}
    assert all(rep.passed for d, rep in reports.items() if (16 * seed + d) % 2)  # relabelled Z_d
    assert sum(rep.residuals["associativity"] for rep in reports.values()) > 0
    assert sum(rep.residuals["frobenius_left"] for rep in reports.values()) > 0


def test_carrier_65_crosses_a_word_boundary():
    """Masks of 65 bits take two uint64 words; the last bit sits alone in the second."""
    _assert_same_report(to_algebra(product(cyclic(13), cyclic(5))), "table")
    rep = _assert_same_report(_random_algebra(65, 7), "packed")
    assert rep.residuals["frobenius_left"] > 0


@pytest.mark.parametrize("name", sorted(REL_BUILTINS))
def test_rel_builtins_match_contraction(name):
    """Every builtin is a table; the packed laws, off its path, still agree."""
    alg = REL_BUILTINS[name]
    want = _assert_same_report(alg, "table")
    assert want.passed
    for law, defect in frobenius._packed_laws(alg).items():
        assert defect.residual == want.residuals[law], law


@pytest.mark.parametrize("other", [None, "cyclic2", "interval", "klein4"])
@pytest.mark.parametrize("index", range(len(_CARRIER_TWO)))
def test_carrier_two_algebras_match_contraction(index, other):
    """Special (tables) and non-special (packed) carrier-2 algebras, alone and tensored."""
    path = "table" if index < 3 else "packed"
    assert _assert_same_report(_carrier_two_algebra(index, other), path).passed


def test_one_row_blocks_match_contraction(monkeypatch):
    algs = [(_random_algebra(d, d), "packed" if d > 1 else "table") for d in (1, 5, 13, 65)]
    algs += [(random_table(d, d), "table") for d in (1, 5, 8, 13)]
    algs += [(to_algebra(cli._builtin("dihedral6")), "table")]
    algs += [(_carrier_two_algebra(3, "klein4"), "packed")]
    monkeypatch.setattr(frobenius, "_BLOCK_ENTRIES", 1)
    for alg, path in algs:
        _assert_same_report(alg, path)


def test_empty_carrier_passes():
    empty = rel_object(0)
    alg = FrobeniusAlgebra(
        empty,
        Morphism(tensor_objects(empty, empty), empty, np.zeros((0, 0), bool)),
        Morphism(unit_object(REL), empty, np.zeros((0, 1), bool)),
    )
    assert _assert_same_report(alg, "table").passed


def test_popcount_counts_every_bit():
    words = np.array([0, 1, 2**63, 2**64 - 1, 0x0123456789ABCDEF], np.uint64)
    assert frobenius._popcount(words) == sum(bin(int(w)).count("1") for w in words)
