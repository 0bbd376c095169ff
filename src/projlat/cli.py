"""Command line front end.

Subcommands:

  validate         law-check a groupoid document or an algebra
  projections      enumerate a projection family and verify its orthogonality
  lattice          order analytics under the mult or inclusion order
  copyables        copyable enumeration against connected components (rel only)
  tensor           compose two algebras and check the product structure
  counterexamples  self-contained bundles whose claims are re-verified on the spot

Inputs are either paths to JSON documents or builtin fixture names; a path
that does not exist falls back to the builtin named by its basename, so
"fixtures/klein4" and "klein4" both work without any files on disk.

Every rel input, and every fhilb algebra whose structure constants and cup
are real, nonnegative and above eps/(1-eps) where nonzero (each builtin and
direct sum), takes one Next-Closure path to its projections, with
--max-enum capping the closed sets; on carriers of at most 16 a scan of all
2^d 0/1 points cross-checks the family. Any other fhilb algebra takes that
scan, with --max-enum capping its candidates.

Exit codes: 0 when every law and claim checked out, 1 when a law or claim
failed (resource caps included), 2 for usage and parse errors.
"""

import os
import re
import sys
import types

import numpy as np

from .backend import DEFAULT_TOL, FHILB, REL, Tolerance
from .cstar import (
    basis_algebra,
    direct_sum,
    matrix_projection_mask,
    pants_algebra,
    random_projections,
    subspace_join,
    subspace_meet,
)
from .errors import BackendMismatch, LawViolation, ParseError, ResourceLimit, Violation
from .frobenius import (
    FrobeniusAlgebra,
    Point,
    check_axioms,
    is_commutative,
    mask_points,
    projection_mask,
    zero_one_projections,
)
from .groupoid import (
    MAX_CLOSED_SETS,
    Groupoid,
    closure_applies,
    copyables_report,
    cyclic,
    dihedral,
    disjoint_union,
    enumerate_projections,
    groupoid_violations,
    interval,
    klein4,
    product,
    quaternion8,
    symmetric3,
    to_algebra,
    validate,
)
from .order import (
    build_poset,
    check_orthogonality_axioms,
    commute_glb_equivalence,
    compare_orders,
    hasse_edges,
    inclusion_poset,
    lattice_report,
    to_dot,
)
from .serialize import (
    CliReport,
    algebra_from_doc,
    detect_document,
    dump_json,
    load_json,
    matrix_to_doc,
)
from .tensoralg import bi_order_check, tensor_algebras

# Upper bound on points tensored per side before bi-order checks are skipped;
# interchange cost is quadratic in the pair count.
BI_ORDER_PAIR_CAP = 64

_SAMPLES_PER_RANK = 20


# -- input resolution -------------------------------------------------------

_BROKEN_INVERSE_DOC = {
    "objects": ["x"],
    "morphisms": [
        {"name": "e", "dom": "x", "cod": "x"},
        {"name": "a", "dom": "x", "cod": "x"},
    ],
    "compose": [
        ["e", "e", "e"],
        ["e", "a", "a"],
        ["a", "e", "a"],
        ["a", "a", "a"],
    ],
    "identities": {"x": "e"},
    "inverses": {"e": "e", "a": "a"},
}

_FIXED_BUILTINS = {
    "klein4": klein4,
    "interval": interval,
    "symmetric3": symmetric3,
    "quaternion8": quaternion8,
    "z2xz4": lambda: product(cyclic(2), cyclic(4)),
    "two-intervals": lambda: disjoint_union(interval(), interval()),
    "broken-inverse": lambda: dict(_BROKEN_INVERSE_DOC),
}

_FAMILY_BUILTINS = (
    (re.compile(r"^cyclic(\d+)$"), cyclic, 1, 16),
    (re.compile(r"^dihedral(\d+)$"), dihedral, 3, 12),
    (re.compile(r"^pants(\d+)$"), pants_algebra, 1, 6),
    (re.compile(r"^basis(\d+)$"), basis_algebra, 1, 10),
)


def builtin_names() -> list[str]:
    """Fixed builtin fixture names plus the parameterized family patterns."""
    return sorted(_FIXED_BUILTINS) + ["cyclicN", "dihedralN", "pantsN", "basisN"]


def _builtin(name: str):
    maker = _FIXED_BUILTINS.get(name)
    if maker is not None:
        return maker()
    for pattern, make, lo, hi in _FAMILY_BUILTINS:
        m = pattern.match(name)
        if m:
            n = int(m.group(1))
            if not lo <= n <= hi:
                raise ParseError(
                    f"builtin {name!r} out of range; supported {pattern.pattern} "
                    f"with {lo} <= N <= {hi}"
                )
            return make(n)
    return None


def _resolve_raw(spec: str):
    """A (display name, payload) pair; payload is a dict document, a
    Groupoid, or a FrobeniusAlgebra, not yet law-checked."""
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                doc = load_json(fh.read())
        except OSError as exc:
            raise ParseError(f"cannot read {spec!r}: {exc.strerror or exc}") from exc
        kind = detect_document(doc)
        if kind == "groupoid":
            return spec, doc
        if kind == "algebra":
            return spec, algebra_from_doc(doc)
        raise ParseError(f"input {spec!r} is a {kind} document, need groupoid or algebra")
    name = os.path.basename(spec)
    payload = _builtin(name)
    if payload is None:
        raise ParseError(
            f"no such file or builtin fixture: {spec!r} "
            f"(builtins: {', '.join(builtin_names())})"
        )
    return name, payload


def _resolved(raw) -> tuple:
    """A raw payload as (groupoid or None, algebra). A groupoid document is
    law-checked here; an algebra's axioms are not."""
    if isinstance(raw, dict):
        raw = validate(raw)
    if isinstance(raw, Groupoid):
        return raw, to_algebra(raw)
    return None, raw


def _checked(raw, tol: Tolerance) -> tuple:
    """Law-check a raw payload into (groupoid or None, algebra)."""
    g, alg = _resolved(raw)
    failed = [] if g is not None else check_axioms(alg, tol).failed_axioms()
    if failed:
        raise LawViolation(
            f"algebra fails axioms: {failed}", [Violation("algebra-axioms", (a,)) for a in failed]
        )
    return g, alg


# -- output rendering -------------------------------------------------------


def _scalar(v) -> str:
    if v is True:
        return "yes"
    if v is False:
        return "no"
    if v is None:
        return "-"
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def _scalar_list(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _render(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _scalar_list(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_render(v, indent + 1))
            elif _scalar_list(v) and v:
                lines.append(f"{pad}{k}: [{', '.join(_scalar(x) for x in v)}]")
            elif isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}: (none)")
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _emit(command: str, data: dict, args) -> None:
    doc = CliReport(command, data).to_dict()
    if args.format == "structured":
        dump_json(doc, sys.stdout)
    else:
        sys.stdout.write("\n".join(_render(doc)) + "\n")


# -- projection families ----------------------------------------------------


def _family(alg: FrobeniusAlgebra, tol: Tolerance, max_enum: int) -> list[Point]:
    """The projection family of any algebra; on a groupoid's, its subgroupoids."""
    if closure_applies(alg, tol):
        return mask_points(alg, enumerate_projections(alg, max_closed=max_enum, tol=tol))
    return mask_points(alg, zero_one_projections(alg, tol, max_enum))


def _sampled_matrices(n: int, seed: int) -> np.ndarray:
    """The sampled projections on C^n: sample t has rank t % (n + 1) and seed seed + t."""
    count = _SAMPLES_PER_RANK * (n + 1)
    mats = np.empty((count, n, n), dtype=np.complex128)
    for rank in range(n + 1):
        mats[rank :: n + 1] = random_projections(n, rank, range(seed + rank, seed + count, n + 1))
    return mats


def _sample_matrix_projections(alg: FrobeniusAlgebra, tol: Tolerance, seed: int) -> dict:
    """Seeded random projections checked through the vectorized embedding."""
    d = alg.carrier.size
    n = int(round(d**0.5))
    if n * n != d:
        return {"sampled": 0, "skipped": "carrier is not a full matrix block"}
    mats = _sampled_matrices(n, seed)
    count = len(mats)
    ok_point = projection_mask(alg, mats.reshape(count, d), tol)
    agreements = int(np.count_nonzero(matrix_projection_mask(mats, tol) & ok_point))
    return {"sampled": count, "agreements": agreements, "all_agree": agreements == count}


# -- subcommands ------------------------------------------------------------


def cmd_validate(args, tol: Tolerance) -> int:
    name, raw = _resolve_raw(args.input)
    if isinstance(raw, (dict, Groupoid)):
        backend = REL
        violations = groupoid_violations(raw)
        data = {
            "input": name,
            "target": "groupoid",
            "backend": backend,
            "passed": not violations,
            "violations": violations,
        }
        code = 0 if not violations else 1
    else:
        backend = raw.backend
        rep = check_axioms(raw, tol)
        data = {
            "input": name,
            "target": "algebra",
            "backend": backend,
            "passed": rep.passed,
            "axioms": rep,
        }
        code = 0 if rep.passed else 1
    if args.backend is not None and args.backend != backend:
        raise ParseError(f"input {name!r} lives on {backend}, not {args.backend}")
    _emit("validate", data, args)
    return code


def cmd_projections(args, tol: Tolerance) -> int:
    name, raw = _resolve_raw(args.input)
    _, alg = _checked(raw, tol)
    points = _family(alg, tol, args.max_enum)
    poset = build_poset(alg, points, tol)
    orth = check_orthogonality_axioms(poset)
    data = {
        "input": name,
        "backend": alg.backend,
        "carrier": alg.carrier.size,
        "count": poset.n,
        "elements": list(poset.names),
        "orthogonality": orth,
    }
    if args.seed is not None and alg.backend == FHILB:
        data["sampling"] = _sample_matrix_projections(alg, tol, args.seed)
    _emit("projections", data, args)
    ok = orth.passed and data.get("sampling", {}).get("all_agree", True)
    return 0 if ok else 1


def cmd_lattice(args, tol: Tolerance) -> int:
    name, raw = _resolve_raw(args.input)
    g, alg = _checked(raw, tol)
    if args.order == "inclusion" and g is None:
        raise ParseError("the inclusion order needs a groupoid input")
    make = inclusion_poset if args.order == "inclusion" else build_poset
    poset = make(alg, _family(alg, tol, args.max_enum), tol)
    if args.format == "dot":
        sys.stdout.write(to_dot(poset, title=f"{os.path.basename(name)} {args.order}"))
        return 0
    rep = lattice_report(poset)
    data = {
        "input": name,
        "order": args.order,
        "elements": poset.n,
        "lattice": rep,
        "hasse": hasse_edges(poset),
    }
    code = 0
    if args.order == "mult":
        equiv = commute_glb_equivalence(alg, poset, tol)
        data["equivalence"] = equiv
        if not equiv.consistent:
            code = 1
    _emit("lattice", data, args)
    return code


def cmd_copyables(args, tol: Tolerance) -> int:
    name, raw = _resolve_raw(args.input)
    if getattr(raw, "backend", REL) != REL:  # groupoids live on rel
        raise ParseError("copyable enumeration is defined on the rel backend only")
    rep = copyables_report(_checked(raw, tol)[1])
    data = {"input": name, "report": rep}
    _emit("copyables", data, args)
    return 0 if rep.lemma_holds else 1


def cmd_tensor(args, tol: Tolerance) -> int:
    name_a, raw_a = _resolve_raw(args.left)
    name_b, raw_b = _resolve_raw(args.right)
    alga, algb = _resolved(raw_a)[1], _resolved(raw_b)[1]
    ta = tensor_algebras(alga, algb, tol)  # law-checks each component once
    data = {
        "left": name_a,
        "right": name_b,
        "backend": ta.algebra.backend,
        "carrier": ta.algebra.carrier.size,
        "axioms": ta.axioms,
    }
    ok = ta.axioms.passed
    fam_a = _family(alga, tol, args.max_enum)
    fam_b = _family(algb, tol, args.max_enum)
    if len(fam_a) * len(fam_b) <= BI_ORDER_PAIR_CAP:
        bi = bi_order_check(ta, fam_a, fam_b, tol)
        data["bi_order"] = bi
        ok = ok and bi.passed
    else:
        data["bi_order"] = {
            "skipped": f"{len(fam_a)}x{len(fam_b)} pairs exceed cap {BI_ORDER_PAIR_CAP}"
        }
    _emit("tensor", data, args)
    return 0 if ok else 1


# -- counterexample bundles -------------------------------------------------


def _bundle_klein4(tol: Tolerance) -> tuple[dict, bool]:
    g = klein4()
    alg = to_algebra(g)
    commutative = is_commutative(alg, tol)
    family = _family(alg, tol, MAX_CLOSED_SETS)
    rep = lattice_report(inclusion_poset(alg, family, tol))
    a, b, c = rep.distributive_witness
    lhs = rep.meet_table[a][rep.join_table[b][c]]
    rhs = rep.join_table[rep.meet_table[a][b]][rep.meet_table[a][c]]
    witness_ok = lhs == a and lhs != rhs
    ok = (
        commutative
        and len(family) == 6
        and rep.distributive is False
        and rep.modular is True
        and witness_ok
    )
    data = {
        "claim": "a commutative rel algebra with a non-distributive projection lattice",
        "groupoid": "klein4",
        "order": "inclusion",
        "commutative": commutative,
        "subgroupoid_count": len(family),
        "distributive": rep.distributive,
        "modular": rep.modular,
        "witness": {
            "elements": [a, b, c],
            "meet_with_join": lhs,
            "join_of_meets": rhs,
        },
        "verified": ok,
    }
    return data, ok


def _bundle_interval(tol: Tolerance) -> tuple[dict, bool]:
    g = interval()
    alg = to_algebra(g)
    commutative = is_commutative(alg, tol)
    fwd = g.compose("f", "f_inv")
    back = g.compose("f_inv", "f")
    family = _family(alg, tol, MAX_CLOSED_SETS)
    inc = inclusion_poset(alg, family, tol)
    inc_rep = lattice_report(inc)
    mult = build_poset(alg, family, tol)
    mult_rep = lattice_report(mult)
    cmp = compare_orders(mult, inc)
    ok = (
        not commutative
        and fwd != back
        and len(family) == 5
        and inc_rep.distributive is True
        and mult_rep.distributive is False
        and mult_rep.modular is True
        and not cmp.equal
        and not cmp.dual
    )
    data = {
        "claim": "a noncommutative groupoid algebra where mult and inclusion orders split",
        "groupoid": "interval",
        "commutative": commutative,
        "noncommuting_witness": {
            "pair": ["f", "f_inv"],
            "f_after_f_inv": fwd,
            "f_inv_after_f": back,
        },
        "subgroupoid_count": len(family),
        "inclusion": {"distributive": inc_rep.distributive, "modular": inc_rep.modular},
        "mult": {"distributive": mult_rep.distributive, "modular": mult_rep.modular},
        "order_comparison": cmp,
        "verified": ok,
    }
    return data, ok


def _bundle_fhilb(tol: Tolerance) -> tuple[dict, bool]:
    a = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    b = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    c = np.full((2, 2), 0.5, dtype=np.complex128)
    lhs = subspace_meet(a, subspace_join(b, c, tol), tol)
    rhs = subspace_join(subspace_meet(a, b, tol), subspace_meet(a, c, tol), tol)
    dev_lhs = float(np.max(np.abs(lhs - a)))
    dev_rhs = float(np.max(np.abs(rhs)))
    ok = dev_lhs <= tol.epsilon and dev_rhs <= tol.epsilon
    data = {
        "claim": "three lines in the 2x2 matrix backend break distributivity",
        "projections": {
            "a": matrix_to_doc(a),
            "b": matrix_to_doc(b),
            "c": matrix_to_doc(c),
        },
        "meet_with_join": matrix_to_doc(lhs),
        "join_of_meets": matrix_to_doc(rhs),
        "deviation_from_a": dev_lhs,
        "deviation_from_zero": dev_rhs,
        "verified": ok,
    }
    return data, ok


def _bundle_boolean(tol: Tolerance) -> tuple[dict, bool]:
    alg = basis_algebra(3)
    points = _family(alg, tol, 2**alg.carrier.size)
    poset = build_poset(alg, points, tol)
    rep = lattice_report(poset)
    masks = {p.name: k for k, p in enumerate(points)}
    bit_ok = len(points) == 8
    for na, ia in masks.items():
        for nb, ib in masks.items():
            want_meet = f"b{ia & ib:03b}"
            want_join = f"b{ia | ib:03b}"
            if rep.meet_table[na][nb] != want_meet or rep.join_table[na][nb] != want_join:
                bit_ok = False
    complement_ok = all(
        e.complement == f"b{~masks[e.element] & 7:03b}" for e in rep.probe.entries
    )
    ok = (
        bit_ok
        and rep.is_lattice
        and rep.distributive is True
        and rep.probe.applicable
        and rep.probe.all_pass
        and complement_ok
    )
    data = {
        "claim": "the rank-3 basis algebra carries the Boolean cube with complements",
        "algebra": "basis3",
        "projection_count": len(points),
        "distributive": rep.distributive,
        "modular": rep.modular,
        "meets_are_bitwise_and": bit_ok,
        "joins_are_bitwise_or": bit_ok,
        "complements_are_bitwise_not": complement_ok,
        "probe": rep.probe,
        "verified": ok,
    }
    return data, ok


_BUNDLES = {
    "klein4-nondistributive": _bundle_klein4,
    "interval-noncommutative": _bundle_interval,
    "fhilb-nondistributive": _bundle_fhilb,
    "boolean-basis": _bundle_boolean,
}


def cmd_counterexamples(args, tol: Tolerance) -> int:
    names = list(_BUNDLES) if args.bundle == "all" else [args.bundle]
    bundles = {}
    all_ok = True
    for nm in names:
        data, ok = _BUNDLES[nm](tol)
        bundles[nm] = data
        all_ok = all_ok and ok
    _emit("counterexamples", {"bundles": bundles, "verified": all_ok}, args)
    return 0 if all_ok else 1


# -- command line grammar ---------------------------------------------------

# (name, add_argument keywords). Every subcommand takes the common options
# first, then its own arguments, in this order in its help.
_COMMON_ARGS = (
    ("--tolerance", dict(dest="tolerance", type=float, default=DEFAULT_TOL.epsilon,
                         help="numeric tolerance")),
    ("--format", dict(dest="format", choices=["text", "structured", "dot"], default="text",
                      help="output format (dot applies to lattice only)")),
    ("--max-enum", dict(dest="max_enum", type=int, default=1_000_000,
                        help="cap on enumerated candidates before giving up")),
    ("--seed", dict(dest="seed", type=int, default=None, help="seed for sampling checks")),
)
_INPUT = ("input", {})

# subcommand -> (handler, help, own arguments)
_COMMANDS = {
    "validate": (cmd_validate, "law-check one input", (
        ("input", dict(help="path to a JSON document, or a builtin fixture name")),
        ("--backend", dict(dest="backend", choices=[REL, FHILB], default=None,
                           help="assert the input lives on this backend")),
    )),
    "projections": (cmd_projections, "enumerate the projection family", (_INPUT,)),
    "lattice": (cmd_lattice, "order and lattice analytics", (
        _INPUT,
        ("--order", dict(dest="order", choices=["mult", "inclusion"], required=True,
                         help="which order to analyze")),
    )),
    "copyables": (cmd_copyables, "copyables versus connected components", (_INPUT,)),
    "tensor": (cmd_tensor, "compose two algebras", (("left", {}), ("right", {}))),
    "counterexamples": (cmd_counterexamples, "verified counterexample bundles",
                        (("bundle", dict(choices=sorted(_BUNDLES) + ["all"])),)),
}


def build_parser():
    """The argparse parser of the grammar; it writes every help text and usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="projlat",
        description="Projection order analytics for groupoid and matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kw in _COMMON_ARGS + own:
            p.add_argument(name, **kw)
        p.set_defaults(func=func)
    return parser


def _value(kw: dict, text: str):
    """text read by the argument's type and checked against its choices; ValueError if not."""
    value = kw.get("type", str)(text)
    if "choices" in kw and value not in kw["choices"]:
        raise ValueError(text)
    return value


def _read_argv(argv: list[str]):
    """The namespace argparse gives for a canonical argv, else None (argparse reads it).

    Canonical: an exact subcommand, its positionals, and exact long options
    each followed by a value not starting with "-"; every value passes its
    type and choices, and every positional and required option is given."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    func, _, own = entry
    options = {name: kw for name, kw in _COMMON_ARGS + own if name.startswith("-")}
    positionals = [(name, kw) for name, kw in own if not name.startswith("-")]
    values = {kw["dest"]: kw.get("default") for kw in options.values()}
    missing = {name for name, kw in options.items() if kw.get("required")}
    texts = []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                texts.append(token)
                continue
            kw, text = options.get(token), next(tokens, "-")
            if kw is None or text.startswith("-"):
                return None
            values[kw["dest"]] = _value(kw, text)
            missing.discard(token)
        if missing or len(texts) != len(positionals):
            return None
        values.update((name, _value(kw, text)) for (name, kw), text in zip(positionals, texts))
    except ValueError:
        return None
    return types.SimpleNamespace(command=argv[0], **values, func=func)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        if args.format == "dot" and args.command != "lattice":
            raise ParseError("dot output is only available for the lattice subcommand")
        return args.func(args, Tolerance(args.tolerance))
    except LawViolation as exc:
        print(f"law violation: {exc}", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v.law}: {v.witness}", file=sys.stderr)
        return 1
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1
    except (BackendMismatch, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
