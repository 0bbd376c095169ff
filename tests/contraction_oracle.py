"""The rel algebra laws as path-count contractions, the reference for the
packed-support laws.

Every law side is an einsum of the float32 0/1 structure tensor M[k, i, j]
and the unit vector, as the string diagram reads, and a rel side is the
relation of its nonzero entries: a residual counts the entries where the
two sides differ, one value of the first output index at a time. The
package decides associativity and frobenius_left from product tables or on
packed supports instead; this evaluates all eleven laws the slow way, at
d^5 cost. law_path says which of its paths check_axioms takes.
"""
from __future__ import annotations

import numpy as np

from projlat import AXIOM_NAMES, REL, AxiomReport, FrobeniusAlgebra
from projlat import frobenius


def _rows(spec: str, *ops: np.ndarray):
    """np.einsum(spec, *ops), one value of its first output index at a time."""
    inputs, out = spec.split("->")
    first, subs = out[0], inputs.split(",")
    sliced_spec = ",".join(s.replace(first, "") for s in subs) + "->" + out[1:]
    for v in range(ops[0].shape[0]):
        sliced = [np.take(op, v, axis=s.index(first)) if first in s else op for s, op in zip(subs, ops)]
        yield np.einsum(sliced_spec, *sliced, optimize=True)


def law_sides(alg: FrobeniusAlgebra) -> dict:
    """Each law's two sides as (einsum spec, operands); on rel conj is the identity."""
    m = alg.structure
    u = alg.unit.payload[:, 0].astype(m.dtype)
    one = np.eye(alg.carrier.size, dtype=m.dtype)
    cap = cup = np.tensordot(u, m, 1)  # counit after mult, and comult after unit, [i, j]
    return {
        "associativity": (("lpk,pij->lijk", m, m), ("lip,pjk->lijk", m, m)),
        # (delta (x) 1) delta and (1 (x) delta) delta have the associativity
        # sides as their entries, read with l as the input index
        "coassociativity": (("lpk,pij->lijk", m, m), ("lip,pjk->lijk", m, m)),
        "unitality_left": (("kij,i->kj", m, u), ("kj->kj", one)),
        "unitality_right": (("kij,j->ki", m, u), ("ki->ki", one)),
        "counitality_left": (("i,kij->jk", u, m), ("jk->jk", one)),
        "counitality_right": (("j,kij->ik", u, m), ("ik->ik", one)),
        "frobenius_left": (("ljk,pij->lipk", m, m), ("qil,qpk->lipk", m, m)),
        "frobenius_right": (("lpi,kij->ljpk", m, m), ("qlj,qpk->ljpk", m, m)),
        "symmetry": (("ji->ij", cap), ("ij->ij", cap)),
        "yanking_left": (("ai,ij->ja", cap, cup), ("ja->ja", one)),
        "yanking_right": (("ij,ja->ia", cup, cap), ("ia->ia", one)),
    }


def residual(lhs: tuple, rhs: tuple) -> float:
    """The number of entries where the relations of two sides differ."""
    count = 0
    for left, right in zip(_rows(*lhs), _rows(*rhs)):
        count += int(np.count_nonzero((left > 0) != (right > 0)))
    return float(count)


def check_axioms(alg: FrobeniusAlgebra) -> AxiomReport:
    """All eleven laws of a rel algebra, each contracted on its own."""
    assert alg.backend == REL
    residuals = {name: residual(*law_sides(alg)[name]) for name in AXIOM_NAMES}
    return AxiomReport(
        results={name: residuals[name] == 0 for name in AXIOM_NAMES},
        residuals=residuals,
    )


def law_path(alg: FrobeniusAlgebra) -> str:
    """The path on which check_axioms decides associativity and
    frobenius_left: "table", "packed" or, when it calls neither,
    "contraction"."""
    taken = []
    originals = {"table": frobenius._table_laws, "packed": frobenius._packed_laws}

    def spy(path):
        def laws(*args):
            taken.append(path)
            return originals[path](*args)
        return laws

    try:
        for path in originals:
            setattr(frobenius, f"_{path}_laws", spy(path))
        frobenius.check_axioms(alg)
    finally:
        for path, original in originals.items():
            setattr(frobenius, f"_{path}_laws", original)
    assert len(taken) <= 1, taken
    return taken[0] if taken else "contraction"
