"""Two executable dagger symmetric monoidal backends on one array payload.

A morphism A -> B is an array of shape (size B, size A) and of the dtype
PAYLOAD_DTYPE gives its backend, so every operation is one array expression.

fhilb: finite-dimensional complex linear maps; dagger is the conjugate
transpose and tensor is the Kronecker product.

rel: finite sets and relations as bool matrices, entry [j, i] saying that i
is related to j; composition is boolean matrix multiplication (OR of ANDs),
dagger is the converse and tensor is the cartesian product of carriers.

Both share one index convention: the tensor pair (i, j) on A (x) B sits at
flat index i * size(B) + j. Associated flattenings compose, so unitors and
associators never need to be materialized; a size-1 object is the monoidal
unit. Morphisms are immutable values with write-protected payloads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BackendMismatch, CompositionTypeError

FHILB = "fhilb"
REL = "rel"
PAYLOAD_DTYPE = {FHILB: np.dtype(np.complex128), REL: np.dtype(np.bool_)}
_ABS_COPY_ENTRIES = 1 << 13  # past this, a real max and min cost less than an |x| copy


@dataclass(frozen=True)
class Tolerance:
    """Numeric comparison policy. rel comparisons are exact and ignore it."""

    epsilon: float = 1e-9

    def __post_init__(self):
        if not (self.epsilon >= 0.0):
            raise ValueError("epsilon must be a nonnegative float")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class ObjectRef:
    """A backend object: C^size for fhilb, a finite carrier for rel.

    labels are display metadata (rel only) and never take part in equality:
    unitor bookkeeping relies on every size-1 rel object comparing equal to
    the monoidal unit.
    """

    backend: str
    size: int
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.backend not in PAYLOAD_DTYPE:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == FHILB:
            if self.size < 1:
                raise ValueError("fhilb objects need dimension >= 1")
            if self.labels is not None:
                raise ValueError("labels are a rel-only annotation")
        elif self.size < 0:
            raise ValueError("rel carrier size must be >= 0")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ValueError("label count must equal carrier size")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("carrier labels must not repeat")

    def __repr__(self):
        return f"ObjectRef({self.backend}, {self.size})"


def fhilb_object(dim: int) -> ObjectRef:
    return ObjectRef(FHILB, dim)


def rel_object(size: int, labels: tuple[str, ...] | None = None) -> ObjectRef:
    return ObjectRef(REL, size, labels)


def unit_object(backend: str) -> ObjectRef:
    """The monoidal unit: C^1, or a one-point carrier."""
    return ObjectRef(backend, 1)


@dataclass(frozen=True, eq=False)
class Morphism:
    """An immutable backend morphism dom -> cod.

    payload: a write-protected (cod.size, dom.size) array of PAYLOAD_DTYPE,
    complex on fhilb and bool on rel (any nonzero entry converts to True).
    """

    dom: ObjectRef
    cod: ObjectRef
    payload: np.ndarray

    def __post_init__(self):
        if self.dom.backend != self.cod.backend:
            raise BackendMismatch(f"dom {self.dom} and cod {self.cod} disagree")
        arr = np.array(self.payload, dtype=PAYLOAD_DTYPE[self.backend], order="C")
        if arr.shape != (self.cod.size, self.dom.size):
            raise CompositionTypeError(
                f"payload shape {arr.shape} does not match {self.cod.size}x{self.dom.size}"
            )
        if self.backend == FHILB and not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("fhilb payload entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "payload", arr)

    @property
    def backend(self) -> str:
        return self.dom.backend

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        same_type = self.dom == other.dom and self.cod == other.cod  # backends included
        return same_type and np.array_equal(self.payload, other.payload)

    __hash__ = None  # value type compared via equal(); not hashable

    def __repr__(self):
        return f"Morphism({self.backend}: {self.dom.size} -> {self.cod.size})"


def fhilb_morphism(dom: ObjectRef, cod: ObjectRef, entries) -> Morphism:
    return Morphism(dom, cod, entries)


def is_index(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def rel_morphism(dom: ObjectRef, cod: ObjectRef, pairs) -> Morphism:
    """The relation on exactly the given (dom index, cod index) pairs, whose
    indices must be integers inside the carriers."""
    arr = np.zeros((cod.size, dom.size), dtype=np.bool_)
    for i, j in pairs:
        if not (is_index(i) and is_index(j)):
            raise CompositionTypeError(f"pair ({i!r}, {j!r}) has a non-integer index")
        if not (0 <= i < dom.size and 0 <= j < cod.size):
            raise CompositionTypeError(f"pair ({i}, {j}) outside {dom.size}x{cod.size} carrier")
        arr[j, i] = True
    return Morphism(dom, cod, arr)


def related_pairs(f: Morphism) -> list[tuple[int, int]]:
    """The (dom index, cod index) pairs a rel morphism relates, ordered by
    cod index, then dom index; the inverse of rel_morphism."""
    return [(i, j) for j, i in np.argwhere(f.payload).tolist()]


def numeric(payload: np.ndarray) -> np.ndarray:
    """A payload as numbers for BLAS to contract: complex with an all-zero imaginary part
    as its float64 real part, other complex as it is, rel bool as a float32 0/1 array."""
    if payload.dtype.kind == "c" and not np.count_nonzero(payload.imag):
        return np.ascontiguousarray(payload.real)
    return payload.astype(np.result_type(payload, np.float32), copy=False)


def _require_same_backend(f: Morphism, g: Morphism):
    if f.backend != g.backend:
        raise BackendMismatch(f"mixed backends {f.backend!r} and {g.backend!r}")


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g. Requires dom(f) = cod(g)."""
    _require_same_backend(f, g)
    if f.dom != g.cod:
        raise CompositionTypeError(f"cannot compose: dom {f.dom} != cod {g.cod}")
    return Morphism(g.dom, f.cod, f.payload @ g.payload)


def tensor_objects(a: ObjectRef, b: ObjectRef) -> ObjectRef:
    if a.backend != b.backend:
        raise BackendMismatch(f"mixed backends {a.backend!r} and {b.backend!r}")
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(f"({x},{y})" for x in a.labels for y in b.labels)
    return ObjectRef(a.backend, a.size * b.size, labels)


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Monoidal product, row-major index pairing on both sides.

    One broadcast product, because np.kron costs far more per small call.
    """
    _require_same_backend(f, g)
    dom = tensor_objects(f.dom, g.dom)
    cod = tensor_objects(f.cod, g.cod)
    prod = f.payload[:, None, :, None] * g.payload[None, :, None, :]
    return Morphism(dom, cod, prod.reshape(cod.size, dom.size))


def dagger(f: Morphism) -> Morphism:
    return Morphism(f.cod, f.dom, f.payload.conj().T)


def identity(a: ObjectRef) -> Morphism:
    return Morphism(a, a, np.eye(a.size, dtype=PAYLOAD_DTYPE[a.backend]))


def swap(a: ObjectRef, b: ObjectRef) -> Morphism:
    """The symmetry A (x) B -> B (x) A: index i*size(B)+j goes to j*size(A)+i."""
    dom = tensor_objects(a, b)
    cod = tensor_objects(b, a)
    source = np.arange(dom.size).reshape(a.size, b.size).T.ravel()  # dom index of each cod index
    return Morphism(dom, cod, np.eye(dom.size, dtype=PAYLOAD_DTYPE[a.backend])[source])


def zero_morphism(dom: ObjectRef, cod: ObjectRef) -> Morphism:
    return Morphism(dom, cod, np.zeros((cod.size, dom.size), dtype=PAYLOAD_DTYPE[dom.backend]))


def _real_max_abs(x: np.ndarray, axis, floor: float):
    """max(floor, max |x|) along axis for real x, from its max and min when x is large."""
    if x.size <= _ABS_COPY_ENTRIES:
        return np.abs(x).max(axis, initial=floor)
    return np.maximum(x.max(axis, initial=floor), -x.min(axis, initial=-floor))


def row_defects(backend: str, lhs: np.ndarray, rhs: np.ndarray, axis=-1):
    """The residual and scale of Defect's rule along one axis of two
    broadcastable arrays (all axes if axis is None), one pair per row.

    fhilb: residual = max |lhs - rhs|, scale = max(1, max |lhs|, max |rhs|).
    rel: entries are bool payloads or nonnegative path counts, read as
    nonzero; residual counts the entries where the two relations differ.
    """
    if backend == REL:
        differ = lhs.astype(bool, copy=False) != rhs.astype(bool, copy=False)
        return np.count_nonzero(differ, axis=axis), 1.0
    if lhs.dtype.kind != "c" and rhs.dtype.kind != "c":
        gap = _real_max_abs(lhs - rhs, axis, 0.0)
        return gap, np.maximum(_real_max_abs(lhs, axis, 1.0), _real_max_abs(rhs, axis, 1.0))
    gap = np.abs(lhs - rhs).max(axis=axis, initial=0.0)
    scale = np.maximum(
        np.abs(lhs).max(axis=axis, initial=1.0), np.abs(rhs).max(axis=axis, initial=1.0)
    )
    return gap, scale


@dataclass
class Defect:
    """The one comparison rule: rel passes only at residual 0, fhilb at
    residual <= epsilon * scale. add accumulates row_defects over blocks
    (rel residuals add up, fhilb residuals and scales take their maximum);
    rows_equal holds one residual and scale per row instead."""

    backend: str
    residual: float = 0.0
    scale: float = 1.0

    def add(self, lhs: np.ndarray, rhs: np.ndarray) -> "Defect":
        residual, scale = row_defects(self.backend, lhs, rhs, axis=None)
        if self.backend == REL:
            self.residual += float(residual)
        else:
            self.residual = max(self.residual, float(residual))
            self.scale = max(self.scale, float(scale))
        return self

    def passed(self, tol: Tolerance = DEFAULT_TOL):
        """A bool, or one bool per row when the fields are arrays."""
        if self.backend == REL:
            return self.residual == 0
        return self.residual <= tol.epsilon * self.scale


def rows_equal(backend: str, lhs: np.ndarray, rhs: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Per row of the last axis: do lhs and rhs agree under Defect's rule?"""
    return Defect(backend, *row_defects(backend, lhs, rhs)).passed(tol)


def _require_parallel(f: Morphism, g: Morphism):
    _require_same_backend(f, g)
    if f.dom != g.dom or f.cod != g.cod:
        raise CompositionTypeError(f"parallel morphisms required: {f} vs {g}")


def residual(f: Morphism, g: Morphism) -> float:
    """Defect between two parallel morphisms.

    fhilb: max entrywise absolute difference. rel: the number of pairs in
    one relation but not the other.
    """
    _require_parallel(f, g)
    return Defect(f.backend).add(f.payload, g.payload).residual


def equal(f: Morphism, g: Morphism, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Semantic equality: exact for rel, Defect's scaled threshold for fhilb."""
    _require_parallel(f, g)
    return Defect(f.backend).add(f.payload, g.payload).passed(tol)
