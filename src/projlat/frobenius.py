"""Symmetric dagger Frobenius algebras and their points.

An algebra is a carrier object with a multiplication A (x) A -> A and a unit
I -> A. The comultiplication and counit are never stored: they are always the
daggers of multiplication and unit, recomputed on access. The induced compact
structure (cup = comult after unit, cap = counit after mult) makes every such
algebra self-dual, which is what the conjugation and yanking checks exercise.

Laws and products contract the structure tensor M[k, i, j] (the coefficient
of e_k in e_i e_j) and the unit vector u. On rel both are 0/1 arrays and a
contraction counts paths, so reading it with > 0 is relational composition.
The two d^4 laws, associativity and frobenius_left, take one of three paths.
When M is a table (real, with at most one nonzero per column M[:, i, j]
and per row M[k, i, :], as in matrix-unit and groupoid algebras), each entry
of a side is one product of two entries of M, gathered from product tables
at d^3 cost. Any other rel algebra is decided exactly on packed supports of
M: each side is an OR of gathered uint64 rows, and the residual is the
popcount of their XOR. Complex and other real fhilb algebras are contracted.
check_axioms takes coassociativity, both counitality laws and
frobenius_right from their dagger twins.

Points I -> A multiply through the algebra; projections are the points that
are idempotent and self-conjugate. products and projection_mask do both for
whole stacks of points, with mult_points and is_projection as one-row cases.
zero_one_projections, the scan of all 2^d points with 0/1 coordinates (the
cheap conjugacy test first), is the fhilb projection family; on rel it is
the test oracle of groupoid's bitmask scan. All predicates take an explicit
tolerance and are exact on the rel backend.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Optional

import numpy as np

from .backend import (
    DEFAULT_TOL,
    REL,
    Defect,
    Morphism,
    ObjectRef,
    Tolerance,
    compose,
    dagger,
    equal,
    numeric,
    rows_equal,
    unit_object,
    zero_morphism,
)
from .errors import CompositionTypeError, Report, ResourceLimit

AXIOM_NAMES = (
    "associativity",
    "coassociativity",
    "unitality_left",
    "unitality_right",
    "counitality_left",
    "counitality_right",
    "frobenius_left",
    "frobenius_right",
    "symmetry",
    "yanking_left",
    "yanking_right",
)


@dataclass(frozen=True, eq=False)
class FrobeniusAlgebra:
    """Carrier plus multiplication and unit; construction checks types only.

    Whether the data actually satisfies the algebra laws is the job of
    check_axioms, so deliberately broken inputs (say, a zero unit) can be
    represented and diagnosed.
    """

    carrier: ObjectRef
    mult: Morphism
    unit: Morphism

    def __post_init__(self):
        # A (x) A compared by backend and size, as ObjectRef equality does,
        # without building its d^2 labels.
        square = ObjectRef(self.carrier.backend, self.carrier.size**2)
        if self.mult.dom != square or self.mult.cod != self.carrier:
            raise CompositionTypeError(
                f"mult must map {square} -> {self.carrier}, got {self.mult}"
            )
        i = unit_object(self.carrier.backend)
        if self.unit.dom != i or self.unit.cod != self.carrier:
            raise CompositionTypeError(
                f"unit must map {i} -> {self.carrier}, got {self.unit}"
            )

    @property
    def backend(self) -> str:
        return self.carrier.backend

    @property
    def comult(self) -> Morphism:
        return dagger(self.mult)

    @property
    def counit(self) -> Morphism:
        return dagger(self.unit)

    @cached_property
    def structure(self) -> np.ndarray:
        """M[k, i, j]: float64 when real, else complex128, on fhilb; a float32 0/1 array on rel."""
        d = self.carrier.size
        return numeric(self.mult.payload).reshape(d, d, d)

    @cached_property
    def left_structure(self) -> np.ndarray:
        """M as a d x d^2 matrix L[i, (k, j)], so that xs @ L contracts M with rows xs."""
        d = self.carrier.size
        return np.ascontiguousarray(self.structure.transpose(1, 0, 2)).reshape(d, d * d)

    @cached_property
    def cup_matrix(self) -> np.ndarray:
        """The induced cup I -> A (x) A as a d x d array: sum_k conj(M[k, i, j]) u[k]."""
        return np.tensordot(unit_point(self).vector.conj(), self.structure, 1).conj()

    def same_algebra(self, other: "FrobeniusAlgebra") -> bool:
        """Structural identity: same carrier size and identical payloads."""
        if self is other:
            return True
        return (
            self.backend == other.backend
            and self.carrier == other.carrier
            and self.mult == other.mult
            and self.unit == other.unit
        )


@dataclass(frozen=True, eq=False)
class Point:
    """A point I -> A of an algebra, optionally named for reports."""

    algebra: FrobeniusAlgebra
    morphism: Morphism
    name: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        i = unit_object(self.algebra.backend)
        if self.morphism.dom != i or self.morphism.cod != self.algebra.carrier:
            raise CompositionTypeError(
                f"point must map {i} -> {self.algebra.carrier}, got {self.morphism}"
            )

    def renamed(self, name: str) -> "Point":
        return Point(self.algebra, self.morphism, name)

    @cached_property
    def vector(self) -> np.ndarray:
        """Coordinates: float64 when real, else complex128, on fhilb; a 0/1 float32 array on rel."""
        return numeric(self.morphism.payload)[:, 0]


def _vector_point(alg: FrobeniusAlgebra, vec: np.ndarray) -> Point:
    """The point with coordinates vec; on rel, the cast to bool reads counts > 0."""
    return Point(alg, Morphism(alg.unit.dom, alg.carrier, vec.reshape(-1, 1)))


def _check_same_algebra(p: Point, q: Point):
    if not p.algebra.same_algebra(q.algebra):
        raise CompositionTypeError("points live on different algebras")


def induced_cup(alg: FrobeniusAlgebra) -> Morphism:
    """comult after unit: I -> A (x) A."""
    return compose(alg.comult, alg.unit)


def induced_cap(alg: FrobeniusAlgebra) -> Morphism:
    """counit after mult: A (x) A -> I."""
    return compose(alg.counit, alg.mult)


@dataclass(frozen=True)
class AxiomReport(Report):
    """Pass/fail per algebra law plus the numeric defect of each check.

    Residuals are max entrywise differences on fhilb and violating pair
    counts on rel, so a passing rel axiom always reports exactly 0.
    """

    results: dict
    residuals: dict

    kind = "axiom_report"
    doc_keys = ("passed", "results", "residuals")

    @property
    def passed(self) -> bool:
        return all(self.results[name] for name in AXIOM_NAMES)

    def failed_axioms(self) -> list[str]:
        return [name for name in AXIOM_NAMES if not self.results[name]]


_DAGGER_TWINS = {
    "coassociativity": "associativity",
    "counitality_left": "unitality_left",
    "counitality_right": "unitality_right",
    "frobenius_right": "frobenius_left",
}
_BLOCK_ENTRIES = 1 << 18  # output entries (or words) per block; bounds a law's temporaries
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], np.uint8)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bool rows (..., d) as (..., ceil(d / 64)) uint64 words. Only OR, XOR
    and popcount read the words, so the byte order inside a word is free."""
    d = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (-(-d // 64) * 8,), np.uint8)
    out[..., : -(-d // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view(np.uint64)


def _ranks(support: np.ndarray) -> np.ndarray:
    """The rank table of a bool (d, d, d) array: [r, a, b] is the r-th index
    c with support[a, b, c], or d (an empty padding row) past the last."""
    d = support.shape[-1]
    a, b, c = np.nonzero(support)  # in row-major order, so a * d + b is sorted
    pair = a * d + b
    rank = np.arange(len(pair)) - np.searchsorted(pair, pair)
    table = np.full((max(1, rank.max(initial=0) + 1), d, d), d, np.intp)
    table[rank, a, b] = c
    return table


def _gather_or(rows: np.ndarray, ranks: np.ndarray, out: np.ndarray, part: np.ndarray):
    """out = the OR over r of rows[ranks[r]] (a take along axis 0), with part
    as scratch. Taking into blocks allocated once spares every gather the
    page faults of a fresh array; mode "clip" keeps take from buffering out."""
    np.take(rows, ranks[0], axis=0, out=out, mode="clip")
    for r in ranks[1:]:
        np.take(rows, r, axis=0, out=part, mode="clip")
        out |= part


def _popcount(words: np.ndarray) -> int:
    """The number of set bits in an array of uint64 words, by byte table."""
    if not words.any():
        return 0
    nonzero = words[words != 0]
    return int(_POPCOUNT[nonzero.view(np.uint8)].sum())


def _packed_laws(alg: FrobeniusAlgebra) -> dict:
    """associativity and frobenius_left of a rel algebra, each as a Defect
    counting the entries where its two sides differ.

    S[i, j] packs the support of e_i e_j, T[q, i] that of M[q, i, :]. Each
    side, in blocks of its first index i, is the OR of gathered rows (index
    d is an empty row), one gather per rank of the rank tables (per i, too,
    on the right, where the rows come from S[i] or T[:, i]):
      (e_i e_j) e_k = OR over p in S[i, j] of S[p, k],
      e_i (e_j e_k) = OR over p in S[j, k] of S[i, p],
      sum_j M[l, j, k] M[p, i, j] = OR over j in T[p, i] of S[j, k],
      sum_q M[q, i, l] M[q, p, k] = OR over q in S[p, k] of T[q, i],
    all as bitmasks over the output index l.
    """
    d = alg.carrier.size
    support = alg.mult.payload.reshape(d, d, d)  # [k, i, j]
    products = support.transpose(1, 2, 0)  # [i, j, k]
    words = -(-d // 64)
    s = np.zeros((d + 1, d + 1, words), np.uint64)
    s[:d, :d] = _pack(products)
    s_rows = np.ascontiguousarray(s[:, :d])  # [p, k]: S[p, k], p = d empty
    t_by_i = np.zeros((d, d + 1, words), np.uint64)  # [i, q]: T[q, i]
    t_by_i[:, :d] = _pack(support).transpose(1, 0, 2)
    rank_s = _ranks(products)  # [r, i, j] -> the r-th k in S[i, j]
    rank_t = _ranks(support).transpose(0, 2, 1)  # [r, i, q] -> the r-th j in T[q, i]
    rows = max(1, _BLOCK_ENTRIES // max(1, d * d * words))
    lhs, rhs, part = (np.empty((min(rows, d), d, d, words), np.uint64) for _ in range(3))
    counts = {"associativity": 0, "frobenius_left": 0}
    for start in range(0, d, rows):
        stop = min(d, start + rows)
        n = stop - start
        for name, left_ranks, right in (
            ("associativity", rank_s, s),  # [i, j, k]: left S[p, k], right S[i, p]
            ("frobenius_left", rank_t, t_by_i),  # [i, p, k]: left S[j, k], right T[q, i]
        ):
            _gather_or(s_rows, left_ranks[:, start:stop], lhs[:n], part[:n])
            for i in range(start, stop):
                _gather_or(right[i], rank_s, rhs[i - start], part[0])
            np.bitwise_xor(lhs[:n], rhs[:n], out=lhs[:n])
            counts[name] += _popcount(lhs[:n])
    return {name: Defect(REL, float(count)) for name, count in counts.items()}


def _product_tables(alg: FrobeniusAlgebra):
    """((t, c), (r, w)) when M is a table, else None.

    M is a table when it is real with at most one nonzero per column
    M[:, i, j] and per row M[k, i, :]: then e_i e_j = c[i, j] e_t[i, j] and
    e_i e_r[i, k] = w[i, k] e_k. All four are (d + 1, d + 1) arrays, and a
    product or quotient that does not exist reads index d, coefficient 0,
    as does every entry of row and column d, so gathers through them stay
    inside. The index tables are the smallest unsigned type that holds d.
    """
    m, d = alg.structure, alg.carrier.size
    support = alg.mult.payload if alg.backend == REL else m  # rel: bool, a quarter of M's bytes
    if m.dtype.kind == "c" or np.count_nonzero(support) > d * d:
        return None
    flat = np.flatnonzero(support)  # k * d^2 + i * d + j
    k, ij = np.divmod(flat, d * d)
    i, j = np.divmod(ij, d)
    for a, b in ((i, j), (i, k)):
        seen = np.zeros((d, d), bool)
        seen[a, b] = True
        if np.count_nonzero(seen) < len(flat):
            return None
    values, tables = m.reshape(-1)[flat], []
    for a, b in ((j, k), (k, j)):  # t[i, j] = k, then r[i, k] = j
        index = np.full((d + 1, d + 1), d, np.min_scalar_type(d))
        coef = np.zeros((d + 1, d + 1), m.dtype)
        index[i, a] = b
        coef[i, a] = values
        tables.append((index, coef))
    return tables


def _table_laws(alg: FrobeniusAlgebra, tables) -> dict:
    """associativity and frobenius_left of a table algebra, each as the
    Defect the contraction gives, from d^3 gathered products.

    On a table, every entry of a side is a sum of d products of which at
    most one is not an exact zero, so it equals that one product in any
    summation order. With (f, g) = (t, c) for associativity and (r, w) for
    frobenius_left, the two sides at (i, x, k) are
      lhs = g[i, x] c[f[i, x], k] at l1 = t[f[i, x], k],
      rhs = c[x, k] g[i, t[x, k]] at l2 = f[i, t[x, k]]
    (x = j and (e_i e_j) e_k against e_i (e_j e_k); x = p and
    sum_j M[l, j, k] M[p, i, j] against sum_q M[q, i, l] M[q, p, k]), and
    zero at every other l. Comparing lhs with rhs where l1 = l2 and each
    with zero where not is the rule applied to the whole sides. The left
    side gathers rows of (t, c) by f, the right one columns of (f, g) by t,
    in blocks of i.
    """
    (t, c), _ = tables
    d = alg.carrier.size
    inner = t[:d, :d].astype(np.intp)  # [x, k] -> t[x, k]
    t_rows, c_rows = np.ascontiguousarray(t[:, :d]), np.ascontiguousarray(c[:, :d])
    rows = max(1, _BLOCK_ENTRIES // max(1, d * d))
    zero = np.zeros((), c.dtype)
    defects = {}
    for name, (f, g) in zip(("associativity", "frobenius_left"), tables):
        defect = defects[name] = Defect(alg.backend)
        for start in range(0, d, rows):
            stop = min(d, start + rows)
            middle = f[start:stop, :d]
            l1 = np.take(t_rows, middle, axis=0)
            lhs = np.take(c_rows, middle, axis=0)
            lhs *= g[start:stop, :d, None]
            l2 = np.take(f[start:stop], inner, axis=1)
            rhs = np.take(g[start:stop], inner, axis=1)
            rhs *= c[:d, :d]
            met = np.where(l1 == l2, rhs, zero)  # rhs where both sides land on one entry
            defect.add(lhs, met)
            rhs -= met
            defect.add(zero, rhs)
    return defects


def _blocks(spec: str, *ops: np.ndarray):
    """einsum(spec, *ops) in blocks of rows of its first output index, each
    near _BLOCK_ENTRIES entries; every output index has the carrier's size."""
    inputs, out = spec.split("->")
    d = ops[0].shape[0]
    rows = max(1, _BLOCK_ENTRIES // max(1, d ** (len(out) - 1)))
    for start in range(0, d, rows):
        cut = slice(start, start + rows)
        block = [
            op[(slice(None),) * sub.index(out[0]) + (cut,)] if out[0] in sub else op
            for sub, op in zip(inputs.split(","), ops)
        ]
        yield np.einsum(spec, *block, optimize=True)


def check_axioms(alg: FrobeniusAlgebra, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Evaluate all eleven algebra laws and report residuals.

    Checked: associativity, coassociativity, left/right unitality, left/right
    counitality, both Frobenius moves, symmetry of the induced bilinear form
    (cap after swap = cap), and both yanking zig-zags of the induced
    cup/cap. The dagger condition is structural (comult is defined as the
    dagger of mult) and needs no separate check.

    Each side of a law contracts M (mult), conj(M) (comult), u (unit) and
    conj(u) (counit) to the entries of its composite, and its residual is
    Defect's rule on the two sides. The unitality sides are u @ M and M @ u.
    associativity and frobenius_left, the d^4 laws, reach the same residual
    by one of three paths:
    - table (_product_tables is not None: every builtin, direct sum and
      groupoid algebra, and their tensors): _table_laws gathers each entry
      of each side as one product of two entries of M. The contraction
      returns that product exactly, because every other term it sums is an
      exact zero and adding zeros is exact in any order, so the floats (and
      the rel counts) are the same, at d^3 instead of d^5 cost;
    - packed (any other rel algebra): _packed_laws ORs packed product
      supports into the relation of each side and counts the differing
      entries by popcount, the residual a contraction read with > 0 gives;
    - contraction (complex and other real fhilb algebras), in blocks.
    coassociativity, counitality and frobenius_right take the verdict and
    residual of their dagger twins: each side of coassociativity is the
    conjugate of that of associativity (conj(M) for M), each counitality
    side is the conjugate transpose of the unitality side of its hand
    (conj(u) @ conj(M) for u @ M) against the identity, which is real and
    symmetric, and each side FR of frobenius_right has
    FR[l, j, p, k] = conj(FL[k, p, l, j]) for that side FL of frobenius_left
    (on the left, both are sum_i M[l, p, i] conj(M[k, i, j])). Defect's rule
    (a count of differing entries on rel; the maxima of |lhs - rhs|, |lhs|
    and |rhs| on fhilb) is unchanged when both sides are conjugated and
    permuted alike.
    """
    m, u = alg.structure, unit_point(alg).vector
    c = m.conj()  # M itself when M is real
    one = np.eye(alg.carrier.size, dtype=m.dtype)
    cap = np.tensordot(u.conj(), m, 1)  # counit after mult, [i, j]
    cup = alg.cup_matrix  # comult after unit, [i, j]
    laws = {
        "associativity": (("lpk,pij->lijk", m, m), ("lip,pjk->lijk", m, m)),
        "frobenius_left": (("ljk,pij->lipk", m, c), ("qil,qpk->lipk", c, m)),
        "symmetry": (("ji->ij", cap), ("ij->ij", cap)),
        "yanking_left": (("ai,ij->ja", cap, cup), ("ja->ja", one)),
        "yanking_right": (("ij,ja->ia", cup, cap), ("ia->ia", one)),
    }
    tables = _product_tables(alg)
    if tables is not None:
        defects = _table_laws(alg, tables)
    else:
        defects = _packed_laws(alg) if alg.backend == REL else {}
    defects["unitality_left"] = Defect(alg.backend).add(u @ m, one)  # [k, j]
    defects["unitality_right"] = Defect(alg.backend).add(m @ u, one)  # [k, i]
    for name, (lhs, rhs) in laws.items():
        if name not in defects:
            defects[name] = Defect(alg.backend)
            for left, right in zip(_blocks(*lhs), _blocks(*rhs)):
                defects[name].add(left, right)
    every = {name: defects[_DAGGER_TWINS.get(name, name)] for name in AXIOM_NAMES}
    return AxiomReport(
        results={name: d.passed(tol) for name, d in every.items()},
        residuals={name: d.residual for name, d in every.items()},
    )


def point_vectors(alg: FrobeniusAlgebra, points) -> np.ndarray:
    """The points' coordinates as the rows of one (len, d) array, complex if any of M or them is."""
    dtype = np.result_type(alg.structure, *{p.vector.dtype for p in points})
    rows = np.array([p.vector for p in points], dtype=dtype)
    return rows.reshape(len(points), alg.carrier.size)


def _left_blocks(alg: FrobeniusAlgebra, xs: np.ndarray):
    """(rows, T[a, k, j] = sum_i M[k, i, j] xs[a, i]) in blocks of near _BLOCK_ENTRIES."""
    d = alg.carrier.size
    rows = max(1, _BLOCK_ENTRIES // max(1, d * d))
    for start in range(0, len(xs), rows):
        cut = slice(start, start + rows)
        yield cut, (xs[cut] @ alg.left_structure).reshape(len(xs[cut]), d, d)


def products(alg: FrobeniusAlgebra, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """[a, b]: the coordinates of x_a . y_b, for rows xs (n, d) and ys (m, d).

    M is contracted with xs first (n d^2 entries, in blocks), then with ys;
    the (n m, d^2) outer products of point pairs are never formed.
    """
    d = alg.carrier.size
    out = np.empty((len(xs), len(ys), d), np.result_type(alg.structure, xs, ys))
    for cut, t in _left_blocks(alg, xs):
        out[cut] = (t.reshape(len(t) * d, d) @ ys.T).reshape(len(t), d, len(ys)).transpose(0, 2, 1)
    return out


def projection_mask(alg: FrobeniusAlgebra, xs: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Per row of xs: is that point idempotent (x.x = x) and self-conjugate?"""
    idempotent = np.empty(len(xs), dtype=bool)
    for cut, t in _left_blocks(alg, xs):
        square = np.einsum("akj,aj->ak", t, xs[cut])
        idempotent[cut] = rows_equal(alg.backend, square, xs[cut], tol)
    conjugate = xs.conj() @ alg.cup_matrix
    return idempotent & rows_equal(alg.backend, conjugate, xs, tol)


_SCAN_ROWS = 1 << 12  # 0/1 candidates per block of the projection scan


def check_scan_size(d: int, max_candidates: int):
    """Raise ResourceLimit if a scan of all 2^d 0/1 points exceeds max_candidates."""
    if 2**d > max_candidates:
        raise ResourceLimit(f"0/1 scan needs {2**d} candidates, cap is {max_candidates}")


def zero_one_projections(alg: FrobeniusAlgebra, tol: Tolerance, max_candidates: int) -> list[int]:
    """Every 0/1 coordinate vector that is a projection, as the bitmask of its
    support, in increasing order; more than max_candidates of the 2^d
    candidates raise ResourceLimit. The self-conjugacy test (n d^2 work for
    n rows) runs first, and projection_mask squares only the rows it keeps."""
    n = alg.carrier.size
    check_scan_size(n, max_candidates)
    found = []
    for start in range(0, 2**n, _SCAN_ROWS):
        masks = np.arange(start, min(2**n, start + _SCAN_ROWS))
        columns = (masks[:, None] >> np.arange(n) & 1).astype(alg.structure.dtype)
        keep = rows_equal(alg.backend, columns.conj() @ alg.cup_matrix, columns, tol)
        found += masks[keep][projection_mask(alg, columns[keep], tol)].tolist()
    return found


def canonical_subset_name(names: Iterable[str]) -> str:
    return "{" + ",".join(sorted(names)) + "}"


def mask_points(alg: FrobeniusAlgebra, masks: Iterable[int]) -> list[Point]:
    """The 0/1 points with these support bitmasks, named by the canonical set
    of their labels, or on a carrier without labels by the bit string
    (coordinate 0 last) after "s" on rel and "b" on fhilb."""
    masks = [int(m) for m in masks]
    n, labels = alg.carrier.size, alg.carrier.labels
    nbytes = (n + 7) // 8
    data = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    rows = np.unpackbits(
        np.frombuffer(data, np.uint8).reshape(len(masks), nbytes), axis=1, count=n, bitorder="little"
    ).reshape(len(masks), n, 1)
    if labels is None:
        prefix = "s" if alg.backend == REL else "b"
        names = [f"{prefix}{m:0{n}b}" for m in masks]
    else:
        names = [canonical_subset_name(compress(labels, row)) for row in rows[:, :, 0].tolist()]
    return [
        Point(alg, Morphism(alg.unit.dom, alg.carrier, row), name) for row, name in zip(rows, names)
    ]


def mult_points(p: Point, q: Point) -> Point:
    """p . q = mult after (p (x) q): sum_ij M[k, i, j] p[i] q[j]."""
    _check_same_algebra(p, q)
    return _vector_point(p.algebra, products(p.algebra, p.vector[None], q.vector[None])[0, 0])


def conjugate_point(p: Point) -> Point:
    """Bend p through the induced cup: sum_i conj(p[i]) cup[i, j]."""
    return _vector_point(p.algebra, p.vector.conj() @ p.algebra.cup_matrix)


def zero_point(alg: FrobeniusAlgebra, name: str | None = None) -> Point:
    """The zero vector (fhilb) or the empty subset (rel) as a point."""
    return Point(
        alg, zero_morphism(unit_object(alg.backend), alg.carrier), name
    )


def unit_point(alg: FrobeniusAlgebra, name: str | None = None) -> Point:
    return Point(alg, alg.unit, name)


def points_equal(p: Point, q: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    _check_same_algebra(p, q)
    return equal(p.morphism, q.morphism, tol)


def is_projection(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Idempotent (p.p = p) and self-conjugate (p* = p)."""
    return bool(projection_mask(p.algebra, p.vector[None], tol)[0])


def is_copyable(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """comult after p equals p (x) p: sum_k conj(M[k, i, j]) p[k] = p[i] p[j]."""
    v = p.vector
    lhs = np.tensordot(v.conj(), p.algebra.structure, 1).conj()
    return Defect(p.algebra.backend).add(lhs, np.outer(v, v)).passed(tol)


def is_central(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """mult(p (x) -) and mult(- (x) p) agree as endomorphisms of the carrier."""
    m, v = p.algebra.structure, p.vector
    left = np.einsum("kij,i->kj", m, v)
    return Defect(p.algebra.backend).add(left, m @ v).passed(tol)


def _commutator(alg: FrobeniusAlgebra) -> Defect:
    """mult after swap against mult: M[k, j, i] against M[k, i, j]."""
    return Defect(alg.backend).add(alg.structure.transpose(0, 2, 1), alg.structure)


def is_commutative(alg: FrobeniusAlgebra, tol: Tolerance = DEFAULT_TOL) -> bool:
    """mult after swap = mult."""
    return _commutator(alg).passed(tol)


def commutativity_defect(alg: FrobeniusAlgebra) -> float:
    return _commutator(alg).residual

