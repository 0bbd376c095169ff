"""Output checks made apart from projlat.

Each check takes the parsed structured output of one CLI job and the facts
known about its input (from inputs.py), and returns a list of problems; an
empty list means the output is right. None of them compares against a stored
copy of earlier output.
"""
from __future__ import annotations

from math import comb

AXIOMS = (
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

# the CLI's default --tolerance; pants and direct-sum structure constants are
# 0/1, so every fhilb residual of a lawful algebra sits well inside it
FHILB_TOL = 1e-9


def _data(out: dict, command: str) -> dict:
    if out.get("kind") != "cli_report" or out.get("command") != command:
        raise KeyError(f"not a {command} report")
    return out["data"]


def check_axiom_report(rep: dict, backend: str) -> list:
    problems = []
    results, residuals = rep.get("results", {}), rep.get("residuals", {})
    if set(results) != set(AXIOMS) or set(residuals) != set(AXIOMS):
        return [f"axiom names {sorted(results)} are not the eleven laws"]
    for name in AXIOMS:
        if results[name] is not True:
            problems.append(f"axiom {name} fails")
        r = residuals[name]
        if backend == "rel" and r != 0.0:
            problems.append(f"rel residual of {name} is {r}, not exactly 0")
        if backend == "fhilb" and not 0.0 <= r <= FHILB_TOL:
            problems.append(f"fhilb residual of {name} is {r}, above {FHILB_TOL}")
    if rep.get("passed") is not True:
        problems.append("axiom report does not pass")
    return problems


def check_validate_algebra(out: dict, backend: str) -> list:
    data = _data(out, "validate")
    if data["target"] != "algebra" or data["backend"] != backend:
        return [f"validated a {data['target']} on {data['backend']}, want a {backend} algebra"]
    problems = check_axiom_report(data["axioms"], backend)
    if data["passed"] is not True:
        problems.append("validate does not pass")
    return problems


def check_validate_groupoid(out: dict) -> list:
    data = _data(out, "validate")
    if data["target"] != "groupoid" or data["backend"] != "rel":
        return [f"validated a {data['target']} on {data['backend']}, want a groupoid"]
    if data["passed"] is not True or data["violations"]:
        return [f"a lawful groupoid reported {len(data['violations'])} violations"]
    return []


def _mask(name: str, bits: int) -> int:
    if len(name) != bits + 1 or name[0] != "b" or set(name[1:]) - {"0", "1"}:
        raise ValueError(f"{name!r} is not a {bits}-bit basis name")
    return int(name[1:], 2)


def check_projections_pants(out: dict, n: int) -> list:
    """M_n: the 0/1 projections are the 2^n diagonal ones; 20 samples per rank."""
    data = _data(out, "projections")
    d = n * n
    diagonal = sum(1 << (i * n + i) for i in range(n))
    problems = []
    masks = [_mask(e, d) for e in data["elements"]]
    if data["count"] != 2**n or len(set(masks)) != 2**n:
        problems.append(f"{data['count']} projections, want {2**n}")
    off = [e for e, m in zip(data["elements"], masks) if m & ~diagonal]
    if off:
        problems.append(f"non-diagonal projections {off[:3]}")
    if data["orthogonality"]["passed"] is not True:
        problems.append("orthogonality axioms fail")
    s = data.get("sampling", {})
    want = 20 * (n + 1)
    if not (s.get("sampled") == s.get("agreements") == want and s.get("all_agree") is True):
        problems.append(f"sampling {s}, want {want} agreeing samples")
    return problems


def check_tensor(out: dict, backend: str, carrier: int, fam_a: int, fam_b: int) -> list:
    data = _data(out, "tensor")
    problems = []
    if data["backend"] != backend or data["carrier"] != carrier:
        problems.append(
            f"carrier {data['carrier']} on {data['backend']}, want {carrier} on {backend}"
        )
    problems += check_axiom_report(data["axioms"], backend)
    bi = data["bi_order"]
    if bi.get("passed") is not True or bi.get("violations"):
        problems.append(f"bi-order check {bi}")
    want = fam_a**2 * fam_b**2
    if bi.get("interchange_checked") != want:
        problems.append(f"interchange_checked {bi.get('interchange_checked')}, want {want}")
    return problems


def check_basis_lattice(out: dict, n: int) -> list:
    """The mult order of basis_n is the Boolean lattice on n bits."""
    data = _data(out, "lattice")
    lat = data["lattice"]
    size = 2**n
    problems = []
    name = {m: f"b{m:0{n}b}" for m in range(size)}
    if data["elements"] != size or sorted(lat["names"]) != sorted(name.values()):
        return [f"{data['elements']} elements, want the {size} {n}-bit masks"]
    if not (lat["is_lattice"] is True and lat["distributive"] is True and lat["modular"] is True):
        problems.append("not a distributive lattice")
    for a in range(size):
        meets, joins = lat["meet_table"][name[a]], lat["join_table"][name[a]]
        for b in range(size):
            if meets[name[b]] != name[a & b]:
                problems.append(f"meet {name[a]} {name[b]} is {meets[name[b]]}")
            if joins[name[b]] != name[a | b]:
                problems.append(f"join {name[a]} {name[b]} is {joins[name[b]]}")
    edges = data["hasse"]
    if len(edges) != n * 2 ** (n - 1):
        problems.append(f"{len(edges)} Hasse edges, want {n * 2 ** (n - 1)}")
    for lo, hi in edges:
        a, b = _mask(lo, n), _mask(hi, n)
        if a & ~b or bin(b ^ a).count("1") != 1:
            problems.append(f"{lo} -> {hi} is not a cover")
    eq = data["equivalence"]
    pairs = eq["pairs"]
    if len(pairs) != comb(size, 2):
        problems.append(f"{len(pairs)} equivalence pairs, want {comb(size, 2)}")
    bad = [
        p for p in pairs
        if not (p["commute"] and p["product_is_projection"] and p["product_is_glb"])
    ]
    if bad or eq["consistent"] is not True:
        problems.append(f"{len(bad)} pairs fail the commute/glb equivalence")
    return problems


def _members(name: str) -> frozenset:
    if not (name.startswith("{") and name.endswith("}")):
        raise ValueError(f"{name!r} is not a subset name")
    inner = name[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def subset_name(names) -> str:
    return "{" + ",".join(sorted(names)) + "}"


def closure_problems(g, members: frozenset) -> list:
    """Closed under composition, identities and inverses, by the groupoid's table."""
    dom = {n: d for n, d, _ in g.morphisms}
    cod = {n: c for n, _, c in g.morphisms}
    if not members <= dom.keys():
        return [f"unknown morphisms {sorted(members - dom.keys())[:3]}"]
    for f in members:
        if g.identities[dom[f]] not in members or g.identities[cod[f]] not in members:
            return [f"{subset_name(members)} lacks an identity of {f}"]
        inverse = next(h for h in dom if g.table.get((h, f)) == g.identities[dom[f]])
        if inverse not in members:
            return [f"{subset_name(members)} lacks the inverse of {f}"]
        for h in members:
            if (f, h) in g.table and g.table[(f, h)] not in members:
                return [f"{subset_name(members)} is not closed under {f} after {h}"]
    return []


def check_groupoid_lattice(out: dict, g, order: str) -> list:
    """Elements are exactly the subgroupoids: the right number, each one closed.

    Under the inclusion order of a group the lattice is distributive exactly
    when the group is cyclic (Ore); under the mult order every pair passes the
    commute/glb equivalence.
    """
    data = _data(out, "lattice")
    lat = data["lattice"]
    problems = []
    sets = [_members(n) for n in lat["names"]]
    if data["elements"] != g.subgroupoids or len(set(sets)) != g.subgroupoids:
        problems.append(f"{data['elements']} elements, want {g.subgroupoids} subgroupoids")
    if frozenset() not in sets:
        problems.append("the empty subgroupoid is missing")
    for s in sets:
        problems += closure_problems(g, s)
    if data["order"] != order:
        problems.append(f"order {data['order']}, want {order}")
    if order == "inclusion" and len(g.objects) == 1:
        if lat["is_lattice"] is not True or lat["distributive"] is not g.cyclic_group:
            problems.append(
                f"distributive={lat['distributive']} for a group with cyclic={g.cyclic_group}"
            )
    if order == "mult" and data["equivalence"]["consistent"] is not True:
        problems.append("the commute/glb equivalence fails")
    return problems


def expected_copyables(g) -> tuple:
    """The empty set plus every component on a single object, and whether that
    covers every component (which is when the CLI exits 0)."""
    blocks = g.components()
    single = [names for objs, names in blocks if len(objs) == 1]
    return sorted([subset_name(())] + [subset_name(b) for b in single]), len(single) == len(blocks)


def check_copyables(out: dict, g) -> list:
    data = _data(out, "copyables")
    want, _ = expected_copyables(g)
    got = data["report"]["copyables"]
    if sorted(got) != want:
        return [f"copyables {got}, want {want}"]
    return []


def check_error_line(stderr: str) -> list:
    if not any(line.startswith("error:") for line in stderr.splitlines()):
        return ["no 'error:' line on stderr"]
    return []
