"""Two executable dagger symmetric monoidal backends.

fhilb: finite-dimensional complex linear maps. A morphism A -> B is a dense
complex matrix of shape (dim B, dim A); dagger is the conjugate transpose and
tensor is the Kronecker product.

rel: finite sets and relations. A morphism A -> B is a set of index pairs
(i, j) with i in the carrier of A and j in the carrier of B; dagger is the
converse relation and tensor is the cartesian product of carriers.

Both backends share one index convention: the tensor pair (i, j) on A (x) B
sits at flat index i * size(B) + j. Associated flattenings compose, so
unitors and associators never need to be materialized; a size-1 object is
the monoidal unit.

Morphisms are immutable values; every operation returns a fresh value, and
fhilb payloads are write-protected.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BackendMismatch, CompositionTypeError

FHILB = "fhilb"
REL = "rel"


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
        if self.backend not in (FHILB, REL):
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

    payload: complex matrix (cod.size, dom.size) for fhilb; frozenset of
    (dom index, cod index) pairs for rel.
    """

    dom: ObjectRef
    cod: ObjectRef
    payload: object

    def __post_init__(self):
        if self.dom.backend != self.cod.backend:
            raise BackendMismatch(f"dom {self.dom} and cod {self.cod} disagree")
        if self.backend == FHILB:
            arr = np.array(self.payload, dtype=np.complex128, order="C")
            if arr.shape != (self.cod.size, self.dom.size):
                raise CompositionTypeError(
                    f"payload shape {arr.shape} does not match {self.cod.size}x{self.dom.size}"
                )
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise ValueError("fhilb payload entries must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, "payload", arr)
        else:
            pairs = frozenset((int(i), int(j)) for i, j in self.payload)
            for i, j in pairs:
                if not (0 <= i < self.dom.size and 0 <= j < self.cod.size):
                    raise CompositionTypeError(
                        f"pair ({i}, {j}) outside {self.dom.size}x{self.cod.size} carrier"
                    )
            object.__setattr__(self, "payload", pairs)

    @property
    def backend(self) -> str:
        return self.dom.backend

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        if self.backend != other.backend or self.dom != other.dom or self.cod != other.cod:
            return False
        if self.backend == FHILB:
            return bool(np.array_equal(self.payload, other.payload))
        return self.payload == other.payload

    __hash__ = None  # value type compared via equal(); not hashable

    def __repr__(self):
        return f"Morphism({self.backend}: {self.dom.size} -> {self.cod.size})"


def fhilb_morphism(dom: ObjectRef, cod: ObjectRef, entries) -> Morphism:
    return Morphism(dom, cod, entries)


def rel_morphism(dom: ObjectRef, cod: ObjectRef, pairs) -> Morphism:
    return Morphism(dom, cod, pairs)


def _require_same_backend(f: Morphism, g: Morphism):
    if f.backend != g.backend:
        raise BackendMismatch(f"mixed backends {f.backend!r} and {g.backend!r}")


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g. Requires dom(f) = cod(g)."""
    _require_same_backend(f, g)
    if f.dom != g.cod:
        raise CompositionTypeError(f"cannot compose: dom {f.dom} != cod {g.cod}")
    if f.backend == FHILB:
        return Morphism(g.dom, f.cod, f.payload @ g.payload)
    by_mid: dict[int, list[int]] = {}
    for b, c in f.payload:
        by_mid.setdefault(b, []).append(c)
    pairs = {(a, c) for a, b in g.payload for c in by_mid.get(b, ())}
    return Morphism(g.dom, f.cod, pairs)


def tensor_objects(a: ObjectRef, b: ObjectRef) -> ObjectRef:
    if a.backend != b.backend:
        raise BackendMismatch(f"mixed backends {a.backend!r} and {b.backend!r}")
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(f"({x},{y})" for x in a.labels for y in b.labels)
    return ObjectRef(a.backend, a.size * b.size, labels)


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Monoidal product, row-major index pairing on both sides."""
    _require_same_backend(f, g)
    dom = tensor_objects(f.dom, g.dom)
    cod = tensor_objects(f.cod, g.cod)
    if f.backend == FHILB:
        return Morphism(dom, cod, np.kron(f.payload, g.payload))
    gd, gc = g.dom.size, g.cod.size
    pairs = {
        (i1 * gd + i2, j1 * gc + j2)
        for i1, j1 in f.payload
        for i2, j2 in g.payload
    }
    return Morphism(dom, cod, pairs)


def dagger(f: Morphism) -> Morphism:
    if f.backend == FHILB:
        return Morphism(f.cod, f.dom, f.payload.conj().T)
    return Morphism(f.cod, f.dom, {(j, i) for i, j in f.payload})


def identity(a: ObjectRef) -> Morphism:
    if a.backend == FHILB:
        return Morphism(a, a, np.eye(a.size, dtype=np.complex128))
    return Morphism(a, a, {(i, i) for i in range(a.size)})


def swap(a: ObjectRef, b: ObjectRef) -> Morphism:
    """The symmetry A (x) B -> B (x) A: index i*size(B)+j goes to j*size(A)+i."""
    dom = tensor_objects(a, b)
    cod = tensor_objects(b, a)
    if a.backend == FHILB:
        mat = np.zeros((cod.size, dom.size), dtype=np.complex128)
        for i in range(a.size):
            for j in range(b.size):
                mat[j * a.size + i, i * b.size + j] = 1.0
        return Morphism(dom, cod, mat)
    pairs = {
        (i * b.size + j, j * a.size + i)
        for i in range(a.size)
        for j in range(b.size)
    }
    return Morphism(dom, cod, pairs)


def zero_morphism(dom: ObjectRef, cod: ObjectRef) -> Morphism:
    if dom.backend != cod.backend:
        raise BackendMismatch(f"mixed backends {dom.backend!r} and {cod.backend!r}")
    if dom.backend == FHILB:
        return Morphism(dom, cod, np.zeros((cod.size, dom.size), dtype=np.complex128))
    return Morphism(dom, cod, frozenset())


@dataclass
class Defect:
    """The one comparison rule, accumulated over blocks of two parallel arrays.

    fhilb: residual = max |lhs - rhs|, passing when it is at most epsilon *
    max(1, max |lhs|, max |rhs|), maxima over all blocks. rel: blocks are
    path counts read with > 0; residual counts the entries where the two
    relations differ, and only 0 passes.
    """

    backend: str
    residual: float = 0.0
    scale: float = 1.0

    def add(self, lhs: np.ndarray, rhs: np.ndarray) -> "Defect":
        if self.backend == REL:
            self.residual += float(np.count_nonzero((lhs > 0) != (rhs > 0)))
        elif np.size(lhs):
            self.residual = max(self.residual, float(np.max(np.abs(lhs - rhs))))
            self.scale = max(self.scale, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        return self

    def passed(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.backend == REL:
            return self.residual == 0
        return self.residual <= tol.epsilon * self.scale


def _require_parallel(f: Morphism, g: Morphism):
    _require_same_backend(f, g)
    if f.dom != g.dom or f.cod != g.cod:
        raise CompositionTypeError(f"parallel morphisms required: {f} vs {g}")


def residual(f: Morphism, g: Morphism) -> float:
    """Defect between two parallel morphisms.

    fhilb: max entrywise absolute difference. rel: symmetric difference size.
    """
    _require_parallel(f, g)
    if f.backend == REL:
        return float(len(f.payload ^ g.payload))
    return Defect(FHILB).add(f.payload, g.payload).residual


def equal(f: Morphism, g: Morphism, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Semantic equality: exact for rel, Defect's scaled threshold for fhilb."""
    _require_parallel(f, g)
    if f.backend == REL:
        return f.payload == g.payload
    return Defect(FHILB).add(f.payload, g.payload).passed(tol)
