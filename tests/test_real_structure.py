"""The real float64 path of fhilb algebras against the complex contraction.

numeric hands every fhilb payload whose imaginary part is all zero to the
contractions as float64, and row_defects compares real operands without
|x| arrays. A real table algebra (every builtin, and seeded random tables
with non-integer, negative and 2^-30-scale coefficients) decides
associativity and frobenius_left from product tables. Here the real path
must give the same AxiomReport, bit for bit, as the same algebra contracted
in complex128, stay within 1e-12 of the Kronecker reference on real
perturbations (which are contracted), and keep complex data complex: a
rotated algebra with imaginary entries, and complex points on a real
algebra. Each case asserts its path.
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
    Tolerance,
    basis_algebra,
    bi_order_check,
    check_axioms,
    direct_sum,
    pants_algebra,
    point_from_matrix,
    tensor_algebras,
)
from projlat import frobenius
from projlat.backend import _ABS_COPY_ENTRIES, FHILB, numeric, row_defects, rows_equal
from projlat.frobenius import mask_points, point_vectors, products, projection_mask
from test_packed_laws import random_table

GAP = 1e-12

REAL_ALGEBRAS = {
    **{f"pants{n}": (direct_sum, [n]) for n in range(1, 7)},
    **{f"basis{n}": (basis_algebra, n) for n in range(1, 11)},
    **{f"sum{''.join(map(str, b))}": (direct_sum, b) for b in ([1, 1], [2, 1], [3, 3, 2, 1])},
}


def _complex_numeric(payload):
    """numeric as it was before the real path: complex payloads stay complex."""
    return payload.astype(np.result_type(payload, np.float32), copy=False)


def _assert_same_report(got, want):
    assert got.results == want.results
    assert got.residuals == want.residuals
    for name in AXIOM_NAMES:
        assert type(got.residuals[name]) is type(want.residuals[name]), name


def _assert_complex_report(alg, monkeypatch):
    """The real table path against the complex contraction of the same data."""
    assert alg.structure.dtype == np.float64 and alg.structure.flags.c_contiguous
    assert law_path(alg) == "table"
    real = check_axioms(alg)
    with monkeypatch.context() as patch:
        patch.setattr(frobenius, "numeric", _complex_numeric)
        forced = FrobeniusAlgebra(alg.carrier, alg.mult, alg.unit)
        assert forced.structure.dtype == np.complex128
        assert law_path(forced) == "contraction"
        _assert_same_report(real, check_axioms(forced))
    return real


@pytest.mark.parametrize("name", sorted(REAL_ALGEBRAS))
def test_real_structure_gives_the_complex_report(name, monkeypatch):
    build, arg = REAL_ALGEBRAS[name]
    _assert_complex_report(build(arg), monkeypatch)


@pytest.mark.parametrize("seed", range(16))
def test_random_real_tables_give_the_complex_report(seed, monkeypatch):
    kinds = {d: (16 * seed + d) % 4 for d in range(1, 10)}
    algs = {d: random_table(d, 16 * seed + d, FHILB) for d in kinds}
    reports = {d: _assert_complex_report(alg, monkeypatch) for d, alg in algs.items()}
    assert all(rep.passed for d, rep in reports.items() if kinds[d] == 1)  # signed Z_d
    for d, rep in reports.items():
        if kinds[d] == 3 and d > 2:  # Z_d with coefficients of random size
            assert rep.results["associativity"] and not rep.results["frobenius_left"]
    injections = [rep for d, rep in reports.items() if kinds[d] == 0 and d > 2]
    assert any(not rep.results["associativity"] for rep in injections)


def test_random_real_tables_in_one_row_blocks(monkeypatch):
    algs = [random_table(d, 4 * d + kind, FHILB) for d in (1, 3, 6) for kind in range(4)]
    monkeypatch.setattr(frobenius, "_BLOCK_ENTRIES", 1)
    for alg in algs:
        _assert_complex_report(alg, monkeypatch)


def _real_perturbed(seed):
    """Seeded real perturbations of mult and unit, at scales on both sides of 1e-9."""
    rng = np.random.default_rng(seed)
    out = {}
    for base_name, base in (
        ("pants2", pants_algebra(2)),
        ("basis3", basis_algebra(3)),
        ("sum21", direct_sum([2, 1])),
    ):
        for scale in (1e-13, 1e-6, 1.0):
            mult = base.mult.payload + scale * rng.standard_normal(base.mult.payload.shape)
            unit = base.unit.payload + scale * rng.standard_normal(base.unit.payload.shape)
            out[f"{base_name}-{scale:g}"] = FrobeniusAlgebra(
                base.carrier,
                Morphism(base.mult.dom, base.carrier, mult),
                Morphism(base.unit.dom, base.carrier, unit),
            )
    return out


REAL_PERTURBED = _real_perturbed(20130219)


@pytest.mark.parametrize("name", sorted(REAL_PERTURBED))
def test_real_perturbations_match_the_kronecker_reference(name):
    alg = REAL_PERTURBED[name]
    assert alg.structure.dtype == np.float64
    assert law_path(alg) == "contraction"
    got, want = check_axioms(alg), kron.check_axioms(alg)
    assert got.results == want.results
    for law in AXIOM_NAMES:
        assert abs(got.residuals[law] - want.residuals[law]) <= GAP, law
    if name.endswith("-1"):
        assert not got.passed


def test_perturbations_cover_passing_and_failing_laws():
    verdicts = {name: check_axioms(alg).passed for name, alg in REAL_PERTURBED.items()}
    assert all(verdicts[f"{base}-1e-13"] for base in ("pants2", "basis3", "sum21"))
    assert not any(verdicts[f"{base}-1e-06"] for base in ("pants2", "basis3", "sum21"))


def test_rotated_pants_keeps_a_complex_structure():
    """mult' = V mult (V* (x) V*), unit' = V unit for a unitary V: the same
    algebra in another orthonormal basis, with imaginary structure constants."""
    p2 = pants_algebra(2)
    rng = np.random.default_rng(7)
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    mult = v @ p2.mult.payload @ np.kron(v, v).conj().T
    rotated = FrobeniusAlgebra(
        p2.carrier,
        Morphism(p2.mult.dom, p2.carrier, mult),
        Morphism(p2.unit.dom, p2.carrier, v @ p2.unit.payload),
    )
    assert np.abs(mult.imag).max() > 0.1
    assert rotated.structure.dtype == np.complex128
    assert law_path(rotated) == "contraction"
    got, want = check_axioms(rotated), kron.check_axioms(rotated)
    assert got.passed and want.passed
    for law in AXIOM_NAMES:
        assert abs(got.residuals[law] - want.residuals[law]) <= GAP, law


HALF = np.array([[1, 1j], [-1j, 1]]) / 2  # a projection of M_2 with imaginary entries


def _pants2_family():
    """0, 1, the diagonal units, two complex projections and a complex non-projection."""
    p2 = pants_algebra(2)
    mats = {
        "0": np.zeros((2, 2)),
        "1": np.eye(2),
        "e00": np.diag([1.0, 0.0]),
        "e11": np.diag([0.0, 1.0]),
        "half": HALF,
        "half-perp": np.eye(2) - HALF,
        "skew": np.array([[1, 1j], [0, 0]]),
    }
    return p2, [point_from_matrix(p2, m, name) for name, m in mats.items()]


def test_complex_points_on_a_real_algebra_keep_their_imaginary_part():
    p2, family = _pants2_family()
    assert p2.structure.dtype == np.float64
    xs = point_vectors(p2, family)
    assert xs.dtype == np.complex128
    assert np.array_equal(xs, np.array([p.morphism.payload[:, 0] for p in family]))
    assert point_vectors(p2, family[:4]).dtype == np.float64
    assert projection_mask(p2, xs).tolist() == [pair_oracle.is_projection(p) for p in family]
    assert projection_mask(p2, xs).tolist() == [True] * 6 + [False]
    table = products(p2, xs, xs)
    for a, p in enumerate(family):
        for b, q in enumerate(family):
            want = kron.mult_points(p, q).morphism.payload[:, 0]
            assert np.abs(table[a, b] - want).max() <= GAP, (p.name, q.name)


def test_bi_order_with_complex_projections_on_real_factors():
    p2, family = _pants2_family()
    b2 = basis_algebra(2)
    fam_a = family[:6]  # the projections
    fam_b = mask_points(b2, range(4))
    ta = tensor_algebras(p2, b2)
    assert ta.algebra.structure.dtype == np.float64
    got = bi_order_check(ta, fam_a, fam_b)
    assert got == pair_oracle.bi_order_check(ta, fam_a, fam_b)
    assert got.passed and got.order_checked > 0 and got.orthogonality_checked > 0


def test_numeric_takes_the_real_part_only_when_the_imaginary_part_is_zero():
    real = np.array([[1.0 + 0j, -2.0 + 0j]])
    assert numeric(real).dtype == np.float64 and numeric(real).flags.c_contiguous
    assert np.array_equal(numeric(real), [[1.0, -2.0]])
    tiny = real + np.array([[0, 1e-300j]])
    assert numeric(tiny).dtype == np.complex128
    assert numeric(np.array([[True, False]])).dtype == np.float32


def _row_cases(rows, width):
    """Real operand pairs of rows x width entries, besides the edge cases."""
    rng = np.random.default_rng(3)
    lhs = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-3, 4, (rows, width))
    rhs = lhs + rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-12, 1, (rows, width))
    rhs[1] = -lhs[1]  # the scale from the negative side
    return [
        (lhs, rhs),
        (-np.abs(lhs), np.zeros(width)),  # all negative against a broadcast zero row
        (np.zeros((3, 0)), np.zeros((3, 0))),  # empty rows
        (np.zeros((0, width)), np.zeros((0, width))),  # no rows
        (np.array([[-4.0, -1.0], [0.5, 0.25]]), np.array([[-4.0, 0.0], [0.5, -0.25]])),
    ]


# small operands take np.abs, large ones their max and min: (5, 4) and
# (2, width) are at most _ABS_COPY_ENTRIES, (3, width) is past it
WIDTH = _ABS_COPY_ENTRIES // 2


@pytest.mark.parametrize("axis", [None, -1])
@pytest.mark.parametrize("case", range(5))
@pytest.mark.parametrize("rows, width", [(5, 4), (2, WIDTH), (3, WIDTH)])
def test_real_row_defects_follow_the_complex_rule(rows, width, case, axis):
    lhs, rhs = _row_cases(rows, width)[case]
    got = row_defects(FHILB, lhs, rhs, axis)
    want = row_defects(FHILB, lhs.astype(complex), rhs.astype(complex), axis)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(g, w)
        assert np.asarray(g).dtype == np.asarray(w).dtype == np.float64


def test_real_rows_pass_exactly_at_the_threshold():
    lhs = np.array([[-4.0, -1.0], [-4.0, -1.0], [4.0, 1.0]])
    rhs = np.array([[-4.0, 0.0], [-4.0, 0.0], [4.0, 2.0]])  # gaps 1, 1 and 1 at scale 4
    for tol, want in ((Tolerance(0.25), [True] * 3), (Tolerance(0.2499), [False] * 3)):
        assert rows_equal(FHILB, lhs, rhs, tol).tolist() == want
        assert rows_equal(FHILB, lhs.astype(complex), rhs.astype(complex), tol).tolist() == want
