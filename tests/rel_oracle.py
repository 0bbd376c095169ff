"""Pair-set references for the rel backend.

The package holds a relation A -> B as a bool matrix and computes with
array expressions. These functions hold it as a frozenset of (dom index,
cod index) pairs and compute the way the relational definitions read, so
that tests can compare the two on random relations. Sizes are passed where
a pair set alone cannot tell them.
"""
from __future__ import annotations

Pairs = frozenset[tuple[int, int]]


def compose(f: Pairs, g: Pairs) -> Pairs:
    """f after g: a -> c whenever g relates a to some b and f relates b to c."""
    by_mid: dict[int, list[int]] = {}
    for b, c in f:
        by_mid.setdefault(b, []).append(c)
    return frozenset((a, c) for a, b in g for c in by_mid.get(b, ()))


def tensor(f: Pairs, g: Pairs, g_dom: int, g_cod: int) -> Pairs:
    """Cartesian product of relations, row-major index pairing on both sides."""
    return frozenset(
        (i1 * g_dom + i2, j1 * g_cod + j2) for i1, j1 in f for i2, j2 in g
    )


def dagger(f: Pairs) -> Pairs:
    """The converse relation."""
    return frozenset((j, i) for i, j in f)


def identity(size: int) -> Pairs:
    return frozenset((i, i) for i in range(size))


def swap(a: int, b: int) -> Pairs:
    """A (x) B -> B (x) A: index i*b + j goes to j*a + i."""
    return frozenset((i * b + j, j * a + i) for i in range(a) for j in range(b))


def zero() -> Pairs:
    return frozenset()


def residual(f: Pairs, g: Pairs) -> float:
    """Size of the symmetric difference."""
    return float(len(f ^ g))


def equal(f: Pairs, g: Pairs) -> bool:
    return f == g
