"""JSON document formats for every shared data shape.

Morphism payloads serialize as rows of [re, im] pairs on the matrix backend
and as the sorted [i, j] pairs of a bool matrix on the relational one, so
documents are exact and byte-stable; loading takes only integer indices and
the declared shape. Reports round-trip through a kind-tagged registry;
groupoid documents are re-validated on load, which makes loading a law check.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Optional, TextIO

import numpy as np

from .backend import (
    FHILB,
    REL,
    Morphism,
    ObjectRef,
    fhilb_morphism,
    fhilb_object,
    is_index,
    rel_morphism,
    rel_object,
    related_pairs,
)
from .errors import CompositionTypeError, ParseError, Report
from .frobenius import AxiomReport, FrobeniusAlgebra
from .groupoid import CopyablesReport, Groupoid, validate
from .order import (
    EquivalenceReport,
    LatticeReport,
    OrderComparison,
    OreReport,
    OrthogonalityReport,
    ProbeReport,
)
from .tensoralg import BiOrderReport


def object_to_doc(obj: ObjectRef) -> dict:
    doc: dict[str, Any] = {"backend": obj.backend, "size": obj.size}
    if obj.labels is not None:
        doc["labels"] = list(obj.labels)
    return doc


def object_from_doc(doc: dict) -> ObjectRef:
    try:
        backend, size = doc["backend"], doc["size"]
        labels = doc.get("labels")
        labels = tuple(labels) if labels is not None else None
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed object document {doc!r}") from exc
    if not is_index(size):
        raise ParseError(f"object size {size!r} is not an integer")
    if labels is not None and not all(isinstance(x, str) for x in labels):
        raise ParseError("carrier labels must be strings")
    if backend == FHILB:
        if labels is not None:
            raise ParseError("labels are a rel-only field")
        return fhilb_object(size)
    if backend == REL:
        return rel_object(size, labels)
    raise ParseError(f"unknown backend {backend!r}")


def morphism_to_doc(m: Morphism) -> dict:
    if m.dom.backend == FHILB:
        payload = [[[float(z.real), float(z.imag)] for z in row] for row in m.payload]
    else:
        payload = sorted([i, j] for i, j in related_pairs(m))
    return {
        "kind": "morphism",
        "backend": m.dom.backend,
        "dom": object_to_doc(m.dom),
        "cod": object_to_doc(m.cod),
        "payload": payload,
    }


def morphism_from_doc(doc: dict) -> Morphism:
    try:
        backend = doc["backend"]
        dom = object_from_doc(doc["dom"])
        cod = object_from_doc(doc["cod"])
        payload = doc["payload"]
    except KeyError as exc:
        raise ParseError(f"morphism document missing field {exc}") from exc
    except TypeError as exc:
        raise ParseError("morphism document is not a mapping") from exc
    if backend != dom.backend:
        raise ParseError("backend tag disagrees with dom object")
    try:
        if backend == FHILB:
            return fhilb_morphism(dom, cod, [[complex(re, im) for re, im in row] for row in payload])
        return rel_morphism(dom, cod, payload)
    except (TypeError, ValueError) as exc:  # CompositionTypeError included
        raise ParseError(f"malformed {backend} payload: {exc}") from exc


def algebra_to_doc(alg: FrobeniusAlgebra) -> dict:
    return {
        "kind": "algebra",
        "backend": alg.backend,
        "carrier": object_to_doc(alg.carrier),
        "mult": morphism_to_doc(alg.mult),
        "unit": morphism_to_doc(alg.unit),
    }


def algebra_from_doc(doc: dict) -> FrobeniusAlgebra:
    for key in ("carrier", "mult", "unit"):
        if key not in doc:
            raise ParseError(f"algebra document missing field {key!r}")
    carrier = object_from_doc(doc["carrier"])
    mult, unit = morphism_from_doc(doc["mult"]), morphism_from_doc(doc["unit"])
    try:
        return FrobeniusAlgebra(carrier, mult, unit)
    except CompositionTypeError as exc:
        raise ParseError(f"algebra document does not type-check: {exc}") from exc


def matrix_to_doc(mat: np.ndarray) -> dict:
    m = np.asarray(mat, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix document needs a square matrix, got {m.shape}")
    return {
        "kind": "matrix",
        "n": m.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }


def matrix_from_doc(doc: dict) -> np.ndarray:
    try:
        n = int(doc["n"])
        arr = np.array(
            [[complex(re, im) for re, im in row] for row in doc["entries"]],
            dtype=np.complex128,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix document") from exc
    if arr.shape != (n, n):
        raise ParseError(f"matrix entries shape {arr.shape} does not match n={n}")
    return arr


def groupoid_to_doc(g: Groupoid) -> dict:
    return g.to_doc()


def groupoid_from_doc(doc: dict) -> Groupoid:
    return validate(doc)


@dataclass(frozen=True)
class CliReport(Report):
    """Envelope for command-level output: a command name plus nested reports."""

    command: str
    data: dict

    kind = "cli_report"
    doc_keys = ("command", "data")


REPORT_KINDS = {
    "cli_report": CliReport,
    "axiom_report": AxiomReport,
    "copyables_report": CopyablesReport,
    "orthogonality_report": OrthogonalityReport,
    "equivalence_report": EquivalenceReport,
    "probe_report": ProbeReport,
    "lattice_report": LatticeReport,
    "order_comparison": OrderComparison,
    "ore_report": OreReport,
    "bi_order_report": BiOrderReport,
}


def parse_report(doc: dict):
    """Rebuild a report object from its kind-tagged document.

    A missing or wrongly typed field raises ParseError, like any other
    malformed document.
    """
    kind = doc.get("kind")
    cls = REPORT_KINDS.get(kind)
    if cls is None:
        raise ParseError(f"unknown report kind {kind!r}")
    try:
        return cls.from_dict(doc)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {kind} document: {exc}") from exc


def detect_document(doc: dict) -> str:
    """Classify a loaded document: groupoid, algebra, matrix, morphism, report."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a mapping")
    kind = doc.get("kind")
    if kind is not None and not isinstance(kind, str):
        raise ParseError(f"document kind must be a string, got {kind!r}")
    if kind in ("algebra", "matrix", "morphism"):
        return kind
    if kind in REPORT_KINDS:
        return "report"
    if {"objects", "morphisms", "compose"} <= doc.keys():
        return "groupoid"
    raise ParseError("unrecognized document shape")


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _key_text(key) -> str:
    """A mapping key as json.dumps writes it: numbers, booleans and None as text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return encode_basestring_ascii(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def dump_json(doc: dict, out: Optional[TextIO] = None) -> Optional[str]:
    """Exactly json.dumps(doc, indent=2, sort_keys=True) + "\n", written to out
    piece by piece, or returned as a string when out is None.

    json.dumps runs its pure-Python encoder whenever indent is set. Here only
    containers that nest others are walked in Python; a container of scalars
    (a row of a meet table, say) takes one pass of the C encoder with the
    separators of its depth.
    """
    if out is None:
        buf = io.StringIO()
        dump_json(doc, buf)
        return buf.getvalue()
    write = out.write
    one_line: dict[int, json.JSONEncoder] = {}

    def emit(value, level: int) -> None:
        is_dict = isinstance(value, dict)
        if not (is_dict or isinstance(value, (list, tuple))):
            write(encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value))
            return
        ends = "{}" if is_dict else "[]"
        if not value:
            write(ends)
            return
        pad = "\n" + "  " * (level + 1)
        sep = "," + pad
        if set(map(type, value.values() if is_dict else value)) <= _SCALARS:
            if level not in one_line:
                one_line[level] = json.JSONEncoder(
                    sort_keys=True, check_circular=False, separators=(sep, ": ")
                )
            text = one_line[level].encode(value)
            write(f"{ends[0]}{pad}{text[1:-1]}{pad[:-2]}{ends[1]}")
        else:
            write(ends[0])
            lead = pad
            for item in sorted(value.items()) if is_dict else value:
                write(lead)
                lead = sep
                if is_dict:
                    write(_key_text(item[0]) + ": ")
                    item = item[1]
                emit(item, level + 1)
            write(pad[:-2] + ends[1])

    emit(doc, 0)
    write("\n")
    return None


def load_json(text: str) -> dict:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting is a RecursionError
        raise ParseError(f"invalid JSON: {exc}") from exc
