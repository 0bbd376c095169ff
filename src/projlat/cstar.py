"""Finite-dimensional C*-algebras on the matrix backend.

pants_algebra(n) is the endomorphism algebra of an n-dimensional space,
carried on C^(n*n) with basis e_{ij} at index i*n+j; basis_algebra(n) is the
commutative copy-multiplication algebra of the standard basis; direct_sum
glues pants blocks along a block-dimension list, which covers every
finite-dimensional C*-algebra up to iso.

Matrix elements rho travel to points p_rho by row-major flattening
(point_from_matrix / matrix_from_point); the correspondence sends matrix
product to point multiplication and adjoint to point conjugation, so the
abstract projection test agrees with "idempotent and self-adjoint" on
matrices. subspace_meet / subspace_join are the L(H) lattice operations on
projection matrices, by rank-revealing SVD with a scaled cutoff.

random_projections draws its Gaussians from the standard library's
random.Random(seed).gauss, one generator per seed, and orthonormalises the
whole stack by one batched QR; matrix_projection_mask tests a stack of
matrices at once. Neither imports numpy.random.
"""
from __future__ import annotations

import math
import random

import numpy as np

from .backend import (
    DEFAULT_TOL,
    FHILB,
    Tolerance,
    fhilb_morphism,
    fhilb_object,
    rows_equal,
    tensor_objects,
    unit_object,
)
from .errors import BackendMismatch
from .frobenius import FrobeniusAlgebra, Point, mask_points


def _matrix_algebra(m: np.ndarray, u: np.ndarray) -> FrobeniusAlgebra:
    """The fhilb algebra with structure tensor m (d x d x d) and unit vector u."""
    d = len(u)
    carrier = fhilb_object(d)
    return FrobeniusAlgebra(
        carrier,
        fhilb_morphism(tensor_objects(carrier, carrier), carrier, m.reshape(d, d * d)),
        fhilb_morphism(unit_object(FHILB), carrier, u.reshape(d, 1)),
    )


def pants_algebra(n: int) -> FrobeniusAlgebra:
    """The matrix algebra M_n as a symmetric dagger Frobenius algebra."""
    if n < 1:
        raise ValueError("pants algebra needs dimension >= 1")
    return direct_sum([n])


def basis_algebra(n: int) -> FrobeniusAlgebra:
    """Copy multiplication of the standard basis of C^n; commutative."""
    if n < 1:
        raise ValueError("basis algebra needs dimension >= 1")
    m = np.zeros((n, n, n), dtype=np.complex128)
    m[range(n), range(n), range(n)] = 1.0
    return _matrix_algebra(m, np.ones(n))


def direct_sum(blocks: list[int]) -> FrobeniusAlgebra:
    """Block-diagonal sum of pants algebras (e_ij e_jl = e_il), carrier ordered by block."""
    if not blocks:
        raise ValueError("direct sum needs at least one block")
    if any(b < 1 for b in blocks):
        raise ValueError("block dimensions must be >= 1")
    total = sum(b * b for b in blocks)
    m = np.zeros((total, total, total), dtype=np.complex128)
    u = np.zeros(total)
    off = 0
    for b in blocks:
        for i in range(b):
            u[off + i * b + i] = 1.0
            for j in range(b):
                for l in range(b):
                    m[off + i * b + l, off + i * b + j, off + j * b + l] = 1.0
        off += b * b
    return _matrix_algebra(m, u)


# -- the rho <-> p_rho correspondence ---------------------------------------


def _square_side(size: int) -> int:
    n = math.isqrt(size)
    if n * n != size:
        raise ValueError(f"carrier size {size} is not a square")
    return n


def vector_point(alg: FrobeniusAlgebra, vec, name: str | None = None) -> Point:
    """Any complex vector of carrier length as a point."""
    if alg.backend != FHILB:
        raise BackendMismatch("vector points live on the matrix backend")
    arr = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if arr.shape[0] != alg.carrier.size:
        raise ValueError(
            f"vector length {arr.shape[0]} != carrier size {alg.carrier.size}"
        )
    return Point(
        alg,
        fhilb_morphism(unit_object(FHILB), alg.carrier, arr.reshape(-1, 1)),
        name,
    )


def point_from_matrix(alg: FrobeniusAlgebra, rho, name: str | None = None) -> Point:
    """Row-major flattening of an n x n matrix into a pants-carrier point."""
    mat = np.asarray(rho, dtype=np.complex128)
    n = _square_side(alg.carrier.size)
    if mat.shape != (n, n):
        raise ValueError(f"matrix shape {mat.shape} does not match side {n}")
    return vector_point(alg, mat.reshape(-1), name)


def matrix_from_point(p: Point) -> np.ndarray:
    """Inverse of point_from_matrix."""
    n = _square_side(p.algebra.carrier.size)
    return p.morphism.payload.reshape(n, n).copy()


def zero_one_points(alg: FrobeniusAlgebra) -> list[Point]:
    """All 2^n points of a basis algebra with 0/1 coordinates, bitmask order."""
    return mask_points(alg, range(1 << alg.carrier.size))


# -- projection matrices and the L(H) lattice -------------------------------


def matrix_projection_mask(mats, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Per matrix of a (k, n, n) stack: idempotent and self-adjoint, each
    compared as one flattened row under Defect's rule."""
    m = np.asarray(mats, dtype=np.complex128)
    rows = m.reshape(len(m), m.shape[1] * m.shape[2])
    square = (m @ m).reshape(rows.shape)
    adjoint = m.conj().transpose(0, 2, 1).reshape(rows.shape)
    return rows_equal(FHILB, square, rows, tol) & rows_equal(FHILB, adjoint, rows, tol)


def is_matrix_projection(mat, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Idempotent and self-adjoint, directly on the matrix."""
    m = np.asarray(mat, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(matrix_projection_mask(m[None], tol)[0])


def _require_projections(p: np.ndarray, q: np.ndarray, tol: Tolerance):
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")
    for name, m in (("left", p), ("right", q)):
        if not is_matrix_projection(m, tol):
            raise ValueError(f"{name} argument fails the projection test")


def _rank_cutoff(s: np.ndarray, n: int, tol: Tolerance) -> float:
    top = float(s[0]) if s.size else 0.0
    return tol.epsilon * math.sqrt(n) * top


def subspace_meet(p, q, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projection onto im(p) & im(q), via the joint kernel of I-p and I-q."""
    pm = np.asarray(p, dtype=np.complex128)
    qm = np.asarray(q, dtype=np.complex128)
    _require_projections(pm, qm, tol)
    n = pm.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    stacked = np.vstack([eye - pm, eye - qm])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > _rank_cutoff(s, n, tol)))
    basis = vh[rank:].conj().T
    return basis @ basis.conj().T


def subspace_join(p, q, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Projection onto im(p) + im(q), via the column span of [p q]."""
    pm = np.asarray(p, dtype=np.complex128)
    qm = np.asarray(q, dtype=np.complex128)
    _require_projections(pm, qm, tol)
    n = pm.shape[0]
    u, s, _ = np.linalg.svd(np.hstack([pm, qm]), full_matrices=False)
    rank = int(np.sum(s > _rank_cutoff(s, n, tol)))
    basis = u[:, :rank]
    return basis @ basis.conj().T


def random_projections(n: int, rank: int, seeds) -> np.ndarray:
    """Seed-deterministic rank-r orthogonal projections on C^n, one per seed,
    as a (len(seeds), n, n) stack. Seed s fills an n x r complex Gaussian
    matrix from random.Random(s).gauss, real parts first, row by row; one
    batched QR then spans all of them. Rank 0 draws nothing; any other rank
    raises ValueError for a negative seed."""
    if not 0 <= rank <= n:
        raise ValueError(f"rank {rank} out of range for dimension {n}")
    seeds = list(seeds)
    if rank == 0:
        return np.zeros((len(seeds), n, n), dtype=np.complex128)
    if any(s < 0 for s in seeds):
        raise ValueError("expected non-negative integer")
    size = n * rank
    draws = np.empty((len(seeds), 2 * size))
    for row, s in zip(draws, seeds):
        gauss = random.Random(s).gauss
        row[:] = [gauss() for _ in range(2 * size)]
    a = (draws[:, :size] + 1j * draws[:, size:]).reshape(len(seeds), n, rank)
    qmat, _ = np.linalg.qr(a)
    proj = qmat @ qmat.conj().transpose(0, 2, 1)
    return (proj + proj.conj().transpose(0, 2, 1)) / 2.0


def random_projection(n: int, rank: int, seed: int) -> np.ndarray:
    """Seed-deterministic rank-r orthogonal projection on C^n."""
    return random_projections(n, rank, [seed])[0]
