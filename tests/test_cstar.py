"""Matrix-backed algebras: pants, basis, direct sums, subspace lattice ops."""

import numpy as np
import pytest

from projlat import (
    Tolerance,
    basis_algebra,
    check_axioms,
    direct_sum,
    is_matrix_projection,
    is_projection,
    matrix_from_point,
    matrix_projection_mask,
    mult_points,
    pants_algebra,
    point_from_matrix,
    points_equal,
    random_projection,
    random_projections,
    subspace_join,
    subspace_meet,
    vector_point,
    zero_one_points,
)

TOL = Tolerance(1e-9)


@pytest.mark.parametrize(
    "alg",
    [pants_algebra(2), pants_algebra(3), basis_algebra(1), basis_algebra(4), direct_sum([2, 1])],
    ids=["pants2", "pants3", "basis1", "basis4", "ds21"],
)
def test_matrix_algebras_pass_axioms(alg):
    rep = check_axioms(alg, TOL)
    assert rep.passed, rep.failed_axioms()
    assert max(rep.residuals.values()) < 1e-9


def test_pants_one_coincides_with_basis_one():
    p1, b1 = pants_algebra(1), basis_algebra(1)
    assert np.array_equal(p1.mult.payload, b1.mult.payload)
    assert np.array_equal(p1.unit.payload, b1.unit.payload)


def test_direct_sum_of_units_is_pants():
    assert np.array_equal(direct_sum([2]).mult.payload, pants_algebra(2).mult.payload)
    assert np.array_equal(direct_sum([1, 1]).mult.payload, basis_algebra(2).mult.payload)
    assert np.array_equal(direct_sum([2, 1]).unit.payload[:, 0], [1, 0, 0, 1, 1])


def test_pants_multiplication_is_matrix_product():
    alg = pants_algebra(2)
    rng = np.random.default_rng(11)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    prod = mult_points(point_from_matrix(alg, A), point_from_matrix(alg, B))
    assert np.allclose(matrix_from_point(prod), A @ B)


def test_direct_sum_multiplies_blockwise():
    alg = direct_sum([2, 1])

    def pt(mat, s):
        return vector_point(alg, np.concatenate([np.asarray(mat).ravel(), [s]]), None)

    A = np.array([[1, 2], [3, 4]], dtype=float)
    B = np.array([[0, 1], [1, 0]], dtype=float)
    out = mult_points(pt(A, 2.0), pt(B, 5.0))
    want = np.concatenate([(A @ B).ravel(), [10.0]])
    assert np.allclose(np.asarray(out.morphism.payload).ravel(), want)


def test_matrix_point_round_trip():
    alg = pants_algebra(3)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(matrix_from_point(point_from_matrix(alg, M)), M)
    with pytest.raises(ValueError):
        point_from_matrix(alg, np.ones((2, 2)))


# -- projections ------------------------------------------------------------


def test_zero_one_points_enumerate_the_cube():
    alg = basis_algebra(3)
    pts = zero_one_points(alg)
    assert len(pts) == 8
    assert [p.name for p in pts] == [f"b{m:03b}" for m in range(8)]
    assert all(is_projection(p, TOL) for p in pts)


def test_pants_zero_one_projections_are_diagonal():
    alg = pants_algebra(2)
    good = [p for p in zero_one_points(alg) if is_projection(p, TOL)]
    mats = sorted(tuple(matrix_from_point(p).real.ravel()) for p in good)
    assert mats == [
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 1.0),
    ]


def test_is_matrix_projection_needs_both_halves():
    assert is_matrix_projection(np.full((2, 2), 0.5), TOL)
    assert not is_matrix_projection(np.array([[1.0, 0.0], [1.0, 0.0]]), TOL)  # not hermitian
    assert not is_matrix_projection(np.diag([1.0, 0.5]), TOL)  # not idempotent
    assert is_matrix_projection(np.zeros((3, 3)), TOL)


def test_projection_correspondence_sampled():
    for n in (2, 3):
        alg = pants_algebra(n)
        rng = np.random.default_rng(100 + n)
        for k in range(25):
            if k % 2 == 0:
                M = random_projection(n, k % (n + 1), seed=1000 + k)
            else:
                M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert is_matrix_projection(M, TOL) == is_projection(point_from_matrix(alg, M), TOL)


def test_conjugation_matches_adjoint():
    from projlat import conjugate_point

    alg = pants_algebra(2)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    conj = conjugate_point(point_from_matrix(alg, M))
    assert np.allclose(matrix_from_point(conj), M.conj().T)


# -- subspace operations ----------------------------------------------------

E1 = np.diag([1.0, 0.0]).astype(complex)
E2 = np.diag([0.0, 1.0]).astype(complex)
DIAGONAL = np.full((2, 2), 0.5, dtype=complex)


def test_meet_join_on_known_lines():
    assert np.allclose(subspace_meet(E1, E2), np.zeros((2, 2)), atol=1e-12)
    assert np.allclose(subspace_join(E1, E2), np.eye(2), atol=1e-12)
    assert np.allclose(subspace_join(E2, DIAGONAL), np.eye(2), atol=1e-12)
    assert np.allclose(subspace_meet(E1, subspace_join(E2, DIAGONAL)), E1, atol=1e-12)


def test_meet_join_are_idempotent_and_commutative():
    for p, q in [(E1, E2), (E1, DIAGONAL), (E2, DIAGONAL)]:
        assert np.allclose(subspace_meet(p, p), p, atol=1e-12)
        assert np.allclose(subspace_join(p, p), p, atol=1e-12)
        assert np.allclose(subspace_meet(p, q), subspace_meet(q, p), atol=1e-12)
        assert np.allclose(subspace_join(p, q), subspace_join(q, p), atol=1e-12)


def test_meet_join_reject_non_projections():
    with pytest.raises(ValueError):
        subspace_meet(np.array([[1.0, 0.0], [1.0, 0.0]]), E1)
    with pytest.raises(ValueError):
        subspace_join(E1, np.diag([2.0, 0.0]))


def test_random_projection_properties():
    for n, rank in [(2, 1), (3, 2), (4, 0), (4, 4)]:
        P = random_projection(n, rank, seed=42)
        assert is_matrix_projection(P, TOL)
        assert np.trace(P).real == pytest.approx(rank, abs=1e-9)
    with pytest.raises(ValueError):
        random_projection(2, 3, seed=0)


def test_random_projection_is_deterministic():
    a = random_projection(3, 2, seed=7)
    b = random_projection(3, 2, seed=7)
    c = random_projection(3, 2, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_projections_stack_the_one_seed_case():
    for n in range(1, 5):
        for rank in range(n + 1):
            seeds = [3, 0, 2**40, 3]
            stack = random_projections(n, rank, seeds)
            assert stack.shape == (4, n, n)
            for mat, seed in zip(stack, seeds):
                assert np.array_equal(mat, random_projection(n, rank, seed))
                assert np.trace(mat).real == pytest.approx(rank, abs=1e-9)
    assert random_projections(3, 2, []).shape == (0, 3, 3)


def test_random_projections_reject_negative_seeds():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        random_projections(3, 1, [0, -1])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        random_projection(2, 2, -5)


def _non_hermitian_idempotent(n: int, rank: int, seed: int) -> np.ndarray:
    """S P S^-1 for a projection P and a random invertible, non-unitary S."""
    rng = np.random.default_rng(seed)
    s = np.eye(n) + 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return s @ random_projection(n, rank, seed) @ np.linalg.inv(s)


def test_matrix_projection_mask_matches_one_matrix_at_a_time():
    """The stacked test against is_matrix_projection matrix by matrix: random
    projections of every rank, scalings and non-Hermitian shifts at half and
    twice the threshold, and non-Hermitian idempotents."""
    eps = TOL.epsilon
    mats = []
    for n in range(1, 6):
        for rank in range(n + 1):
            for seed in range(3):
                p = random_projection(n, rank, 100 * n + 10 * rank + seed)
                top = max(np.abs(p).max(), 1.0)
                mats.append(p)
                for c in (0.5, 2.0):
                    mats.append((1 + c * eps / top) * p)  # x^2 - x is c * eps * p / top
                    mats.append(p + 0.5j * c * eps * np.eye(n))  # m^H - m is c * eps * I
                if 0 < rank < n:
                    mats.append(_non_hermitian_idempotent(n, rank, seed))
        stack = np.array([m for m in mats if m.shape == (n, n)])
        got = matrix_projection_mask(stack, TOL)
        want = [is_matrix_projection(m, TOL) for m in stack]
        assert got.tolist() == want
        if n > 1:
            assert any(want) and not all(want)
    assert matrix_projection_mask(np.zeros((0, 3, 3)), TOL).shape == (0,)


def test_matrix_projection_mask_thresholds():
    eps = TOL.epsilon
    p = np.diag([1.0, 0.0]).astype(np.complex128)
    shift = 1j * eps * np.eye(2)
    got = matrix_projection_mask(
        [(1 + 0.5 * eps) * p, (1 + 2 * eps) * p, p + 0.25 * shift, p + shift], TOL
    )
    assert got.tolist() == [True, False, True, False]


def test_meet_of_random_pair_is_contained_in_both():
    p = random_projection(4, 2, seed=1)
    q = random_projection(4, 3, seed=2)
    m = subspace_meet(p, q)
    assert is_matrix_projection(m, TOL)
    assert np.allclose(p @ m, m, atol=1e-8)
    assert np.allclose(q @ m, m, atol=1e-8)
    j = subspace_join(p, q)
    assert np.allclose(j @ p, p, atol=1e-8)
    assert np.allclose(j @ q, q, atol=1e-8)


def test_generic_rank_counting():
    # dims add up: rank(p join q) + rank(p meet q) = rank p + rank q generically
    p = random_projection(5, 2, seed=21)
    q = random_projection(5, 4, seed=22)
    rj = round(np.trace(subspace_join(p, q)).real)
    rm = round(np.trace(subspace_meet(p, q)).real)
    assert rj + rm == 6
