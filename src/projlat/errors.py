"""Shared exception types and the report document codec.

Law violations carry structured witnesses so callers can render them;
everything else is a plain typed error. Every report dataclass inherits
Report, which encodes it as a document and decodes it back.
"""
from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Optional


class BackendMismatch(TypeError):
    """Operands live in different backends (fhilb vs rel)."""


class CompositionTypeError(TypeError):
    """Domain/codomain objects do not line up; message names both refs."""


class ResourceLimit(RuntimeError):
    """An enumeration exceeded its configured cap."""


class ParseError(ValueError):
    """A document could not be decoded into the data model."""


class Report:
    """Document codec shared by every report dataclass.

    A subclass declares its kind tag (None for reports that only appear
    nested in others) and doc_keys, the document keys in output order;
    a key may name a derived property such as passed, which is written but
    not read back. Encoding works from the values: tuples become lists,
    nested reports become documents, and mappings keep their keys and
    order. Decoding rebuilds each field from its annotation, so a round
    trip yields an equal report.
    """

    kind: ClassVar[Optional[str]] = None
    doc_keys: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind} if self.kind else {}
        for key in self.doc_keys:
            doc[key] = _encode(getattr(self, key))
        return doc

    @classmethod
    def from_dict(cls, doc: dict):
        types = _field_types(cls)
        return cls(**{k: _decode(types[k], v) for k, v in doc.items() if k in types})


@functools.cache
def _field_types(cls) -> dict[str, Any]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_SCALARS = (str, int, float, type(None))  # bool is an int


def _encode(value):
    """value as a document; scalar items are copied without a call each."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [x if isinstance(x, _SCALARS) else _encode(x) for x in value]
    if isinstance(value, dict):
        return {k: v if isinstance(v, _SCALARS) else _encode(v) for k, v in value.items()}
    return value


def _freeze(x):
    return tuple(_freeze(y) for y in x) if isinstance(x, list) else x


def _decode(hint, value):
    if value is None:
        return None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        return _decode(args[0], value)
    if hint is tuple:
        return _freeze(value)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], x) for x in value)
        return tuple(_decode(h, x) for h, x in zip(args, value))
    if origin is dict:
        return {k: _decode(args[1], v) for k, v in value.items()}
    if origin is None and issubclass(hint, Report):
        return hint.from_dict(value)
    return value


@dataclass(frozen=True)
class Violation(Report):
    """One broken law with a concrete witness.

    witness is a tuple of plain values (names, indices, small tuples) so it
    can be serialized and re-checked.
    """

    law: str
    witness: tuple = ()
    detail: str = ""

    doc_keys = ("law", "witness", "detail")


class LawViolation(Exception):
    """Raised when validated structure breaks its laws; carries witnesses."""

    def __init__(self, message: str, violations: list[Violation] | None = None):
        super().__init__(message)
        self.violations: list[Violation] = list(violations or [])
