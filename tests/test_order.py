"""Projection orders: construction, laws, lattices, probes, comparisons."""

import functools
import itertools

import numpy as np
import pytest

from lattice_oracle import bound_table, forbidden_sublattices, law_scans
from projlat import cli, order
from projlat import (
    LawViolation,
    ProjectionPoset,
    Tolerance,
    basis_algebra,
    build_poset,
    check_orthogonality_axioms,
    commute_glb_equivalence,
    compare_orders,
    cyclic,
    dihedral,
    enumerate_subgroupoids,
    hasse_edges,
    inclusion_poset,
    interval,
    is_projection,
    klein4,
    lattice_report,
    ore_crossvalidate,
    orthocomplement_probe,
    pants_algebra,
    product,
    quaternion8,
    random_projection,
    point_from_matrix,
    subgroupoid_points,
    subset_point,
    symmetric3,
    to_algebra,
    to_dot,
    zero_one_points,
    Violation,
)
from projlat.order import _orthogonality_violations, _poset_violations

TOL = Tolerance(1e-9)


def groupoid_posets(g):
    alg = to_algebra(g)
    subs = enumerate_subgroupoids(g)
    mult = build_poset(alg, subgroupoid_points(alg, subs), TOL)
    incl = inclusion_poset(alg, subgroupoid_points(alg, subs), TOL)
    return alg, mult, incl


# -- construction and verification ------------------------------------------


def test_build_poset_adjoins_zero_when_missing():
    alg = basis_algebra(2)
    nonzero = [p for p in zero_one_points(alg) if p.name != "b00"]
    poset = build_poset(alg, nonzero, TOL)
    assert poset.n == 4
    assert poset.names[poset.zero_index] == "0"
    assert all(poset.leq[poset.zero_index, i] for i in range(poset.n))


def test_build_poset_rejects_non_projections():
    alg = to_algebra(interval())
    bad = subset_point(alg, ["f"], name="just-f")
    with pytest.raises(ValueError, match="just-f"):
        build_poset(alg, [bad], TOL)


def test_build_poset_rejects_duplicates():
    alg = basis_algebra(2)
    pts = zero_one_points(alg)
    with pytest.raises(ValueError, match="duplicate"):
        build_poset(alg, pts + [pts[1]], TOL)
    with pytest.raises(ValueError, match="same projection"):
        build_poset(alg, pts + [pts[1].renamed("other")], TOL)


def test_inclusion_poset_takes_its_family_like_build_poset():
    """A point of another algebra with the same carrier size is refused, and
    unnamed points get build_poset's names."""
    alg, other = to_algebra(klein4()), to_algebra(cyclic(4))
    assert alg.carrier.size == other.carrier.size
    family = cli._family(alg, TOL, 10**6)
    with pytest.raises(ValueError, match="different algebra"):
        inclusion_poset(alg, family + cli._family(other, TOL, 10**6)[1:2], TOL)
    unnamed = [p.renamed(None) for p in family]
    assert inclusion_poset(alg, unnamed, TOL).names == build_poset(alg, unnamed, TOL).names


def test_tampered_relations_raise():
    alg, mult, _ = groupoid_posets(cyclic(2))
    leq = mult.leq.copy()
    # break antisymmetry between two distinct elements
    leq[0, 1] = leq[1, 0] = True
    with pytest.raises(LawViolation) as exc:
        ProjectionPoset.from_relations(mult.points, mult.names, leq, mult.orth, mult.zero_index)
    assert any(v.law == "antisymmetry" for v in exc.value.violations)

    orth = mult.orth.copy()
    top = mult.top_index()
    orth[top, top] = True
    with pytest.raises(LawViolation) as exc:
        ProjectionPoset.from_relations(mult.points, mult.names, mult.leq, orth, mult.zero_index)
    assert any(v.law == "orth-antireflexivity" for v in exc.value.violations)


def test_orthogonality_axioms_pass_on_fixtures():
    for g in (klein4(), interval(), symmetric3()):
        _, mult, incl = groupoid_posets(g)
        assert check_orthogonality_axioms(mult).passed
        assert check_orthogonality_axioms(incl).passed


# -- group mult order is reverse inclusion above zero ------------------------


def test_group_mult_order_reverses_inclusion():
    alg, mult, incl = groupoid_posets(cyclic(4))
    # trivial subgroup is the top of the mult order, whole group lowest nonzero
    top = mult.names[mult.top_index()]
    assert top == "{0}"
    assert mult.is_leq("{0,1,2,3}", "{0,2}")
    assert incl.is_leq("{0,2}", "{0,1,2,3}")
    cmp = compare_orders(mult, incl)
    assert not cmp.equal
    assert cmp.dual_above_zero
    assert not cmp.dual  # both keep the same zero at the bottom


def test_interval_orders_are_neither_equal_nor_dual():
    alg, mult, incl = groupoid_posets(interval())
    cmp = compare_orders(mult, incl)
    assert not cmp.equal and not cmp.dual and not cmp.dual_above_zero
    full = "{f,f_inv,id_x,id_y}"
    pair = "{id_x,id_y}"
    assert (full, pair) in cmp.only_in_first
    assert (pair, full) in cmp.only_in_second
    assert len(cmp.only_in_first) == 1
    assert len(cmp.only_in_second) == 3


def test_compare_orders_requires_same_elements():
    _, mult, _ = groupoid_posets(cyclic(2))
    _, other, _ = groupoid_posets(cyclic(3))
    with pytest.raises(ValueError):
        compare_orders(mult, other)


# -- lattice analytics ------------------------------------------------------


def test_interval_mult_order_is_a_diamond():
    _, mult, incl = groupoid_posets(interval())
    rep = lattice_report(mult)
    assert rep.is_lattice
    assert rep.distributive is False and rep.modular is True
    m3, n5 = forbidden_sublattices(mult)
    assert m3 is not None and n5 is None
    # the three middle elements of the diamond are pairwise incomparable
    a, b, c = m3
    for x, y in [(a, b), (a, c), (b, c)]:
        assert not mult.is_leq(x, y) and not mult.is_leq(y, x)

    inc_rep = lattice_report(incl)
    assert inc_rep.distributive is True and inc_rep.modular is True
    assert forbidden_sublattices(incl) == (None, None)


def test_klein4_inclusion_is_m3_plus_tail():
    _, _, incl = groupoid_posets(klein4())
    rep = lattice_report(incl)
    assert rep.is_lattice and rep.distributive is False and rep.modular is True
    m3, n5 = forbidden_sublattices(incl)
    assert m3 is not None and n5 is None
    wa, wb, wc = rep.distributive_witness
    lhs = rep.meet_table[wa][rep.join_table[wb][wc]]
    rhs = rep.join_table[rep.meet_table[wa][wb]][rep.meet_table[wa][wc]]
    assert lhs == wa and lhs != rhs


def test_dihedral4_inclusion_is_not_modular():
    _, _, incl = groupoid_posets(dihedral(4))
    rep = lattice_report(incl)
    assert rep.modular is False and rep.distributive is False
    m3, n5 = forbidden_sublattices(incl)
    assert n5 is not None
    a, b, c = n5  # a < c, b incomparable to both, common meet and join
    assert incl.is_leq(a, c) and a != c
    for x in (a, c):
        assert not incl.is_leq(b, x) and not incl.is_leq(x, b)


def test_quaternion8_inclusion_is_modular_not_distributive():
    _, _, incl = groupoid_posets(quaternion8())
    rep = lattice_report(incl)
    assert rep.distributive is False and rep.modular is True


def test_forbidden_sublattices_agree_with_law_scan():
    fixtures = [cyclic(6), klein4(), symmetric3(), dihedral(4), quaternion8(),
                product(cyclic(2), cyclic(4)), interval()]
    for g in fixtures:
        _, mult, incl = groupoid_posets(g)
        for poset in (mult, incl):
            rep = lattice_report(poset)
            if not rep.is_lattice:
                continue
            m3, n5 = forbidden_sublattices(poset)
            assert rep.distributive == (m3 is None and n5 is None)
            assert rep.modular == (n5 is None)


def test_non_lattice_reports_missing_pairs():
    # two generic rank-2 projections in 4 dims plus zero: join of the pair
    # has no least upper bound inside the family
    alg = pants_algebra(4)
    fam = [
        point_from_matrix(alg, random_projection(4, 2, seed=31), "r0"),
        point_from_matrix(alg, random_projection(4, 2, seed=32), "r1"),
    ]
    poset = build_poset(alg, fam, TOL)
    rep = lattice_report(poset)
    assert not rep.is_lattice
    assert ("r0", "r1") in rep.missing_joins
    assert rep.distributive is None and rep.modular is None


# -- orthocomplement probe --------------------------------------------------


def test_boolean_probe_passes_everywhere():
    alg = basis_algebra(3)
    poset = build_poset(alg, zero_one_points(alg), TOL)
    probe = orthocomplement_probe(poset)
    assert probe.applicable and probe.all_pass
    comp = {e.element: e.complement for e in probe.entries}
    assert comp["b101"] == "b010"
    assert comp["b000"] == "b111"


def test_klein4_inclusion_probe_fails_join_clause():
    _, _, incl = groupoid_posets(klein4())
    probe = orthocomplement_probe(incl)
    assert probe.applicable and not probe.all_pass
    by_el = {e.element: e for e in probe.entries}
    whole = "{(0,0),(0,1),(1,0),(1,1)}"
    trivial = "{(0,0)}"
    # disjointness-orthogonality gives every nonzero element the same
    # maximal orthogonal element, the empty set, so joins cannot reach the top
    assert by_el[trivial].has_max_orthogonal
    assert by_el[trivial].complement == "{}"
    assert by_el[trivial].join_is_top is False
    assert by_el[whole].meet_is_zero is True


# -- three-way equivalence --------------------------------------------------


def test_equivalence_consistent_on_fixture_families():
    for g in (klein4(), interval(), symmetric3()):
        alg, mult, _ = groupoid_posets(g)
        rep = commute_glb_equivalence(alg, mult, TOL)
        assert rep.consistent, rep.disagreements()


def test_interval_has_noncommuting_pair():
    alg, mult, _ = groupoid_posets(interval())
    rep = commute_glb_equivalence(alg, mult, TOL)
    negative = [p for p in rep.pairs if not p.commute]
    assert negative
    assert all(not p.product_is_projection and not p.product_is_glb for p in negative)


def test_equivalence_on_matrix_family_with_random_members():
    alg = pants_algebra(2)
    fam = [p for p in zero_one_points(alg) if is_projection(p, TOL)]
    fam.append(point_from_matrix(alg, random_projection(2, 1, seed=9), "r0"))
    poset = build_poset(alg, fam, TOL)
    rep = commute_glb_equivalence(alg, poset, TOL)
    assert rep.consistent
    assert any(not p.commute for p in rep.pairs)


# -- Ore cross-validation ---------------------------------------------------


def test_ore_table_over_group_fixtures():
    fixtures = [(f"cyclic{n}", cyclic(n)) for n in range(1, 9)]
    fixtures += [
        ("klein4", klein4()),
        ("z2xz4", product(cyclic(2), cyclic(4))),
        ("symmetric3", symmetric3()),
        ("dihedral4", dihedral(4)),
        ("quaternion8", quaternion8()),
    ]
    rep = ore_crossvalidate(fixtures)
    assert rep.consistent
    flags = {e.fixture: (e.cyclic, e.distributive) for e in rep.entries}
    assert flags["cyclic8"] == (True, True)
    assert flags["klein4"] == (False, False)
    assert flags["quaternion8"] == (False, False)


def test_ore_rejects_multi_object_input():
    with pytest.raises(ValueError):
        ore_crossvalidate([("interval", interval())])


# -- Hasse diagrams and DOT -------------------------------------------------


def test_hasse_edges_are_transitive_reduction():
    _, _, incl = groupoid_posets(symmetric3())
    edges = set(hasse_edges(incl))
    # edges regenerate the full strict order by transitive closure
    reach = {n: {n} for n in incl.names}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            new = reach[b] - reach[a]
            if new:
                reach[a] |= new
                changed = True
    for a in incl.names:
        for b in incl.names:
            want = incl.is_leq(a, b)
            assert (b in reach[a]) == want
    # no edge is implied by two others
    for a, b in edges:
        mids = [c for c in incl.names if c not in (a, b)
                and incl.is_leq(a, c) and incl.is_leq(c, b)]
        assert not mids


def test_dot_output_is_stable_and_quoted():
    _, _, incl = groupoid_posets(klein4())
    out1 = to_dot(incl, title="k4")
    out2 = to_dot(incl, title="k4")
    assert out1 == out2
    assert out1.startswith('digraph "k4" {\n  rankdir=BT;')
    assert out1.endswith("}\n")
    assert '"{(0,0)}" -> "{(0,0),(0,1)}"' in out1


# -- cached tables and vectorised law scans against slow references ----------


ORACLE_GROUPOIDS = {
    "cyclic2": cyclic(2),
    "cyclic3": cyclic(3),
    "cyclic4": cyclic(4),
    "cyclic6": cyclic(6),
    "klein4": klein4(),
    "z2xz4": product(cyclic(2), cyclic(4)),
    "symmetric3": symmetric3(),
    "dihedral4": dihedral(4),
    "quaternion8": quaternion8(),
    "interval": interval(),
}


def _pants3_mixed_rank():
    # five projections of ranks 1 and 2 with one order and one orthogonality
    # relation among them, so the family is neither an antichain nor a lattice
    alg = pants_algebra(3)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))

    def span(*cols):
        b = q[:, list(cols)]
        return b @ b.conj().T

    mats = {
        "e0": span(0),
        "e01": span(0, 1),
        "e12": span(1, 2),
        "r1": random_projection(3, 1, seed=41),
        "r2": random_projection(3, 2, seed=42),
    }
    return build_poset(alg, [point_from_matrix(alg, m, k) for k, m in mats.items()], TOL)


def _pants4_rank2():
    alg = pants_algebra(4)
    fam = [
        point_from_matrix(alg, random_projection(4, 2, seed=s), f"r{s}") for s in range(31, 35)
    ]
    return build_poset(alg, fam, TOL)


@functools.cache
def oracle_posets():
    out = {}
    for name, g in ORACLE_GROUPOIDS.items():
        _, mult, incl = groupoid_posets(g)
        out[f"{name}-mult"] = mult
        out[f"{name}-inclusion"] = incl
    out["pants3-mixed-rank"] = _pants3_mixed_rank()
    out["pants4-rank2"] = _pants4_rank2()
    return out


def _ref_greatest(leq, members):
    best = [m for m in members if all(leq[k, m] for k in members)]
    return best[0] if best else -1


def ref_order_tables(poset):
    """Bounded search: every candidate of every set checked against every member."""
    n, leq = poset.n, poset.leq
    meet = np.full((n, n), -1)
    join = np.full((n, n), -1)
    for i in range(n):
        for j in range(n):
            lower = [k for k in range(n) if leq[k, i] and leq[k, j]]
            upper = [k for k in range(n) if leq[i, k] and leq[j, k]]
            meet[i, j] = _ref_greatest(leq, lower)
            join[i, j] = _ref_greatest(leq.T, upper)
    top = _ref_greatest(leq, range(n))
    comp = [_ref_greatest(leq, [b for b in range(n) if poset.orth[a, b]]) for a in range(n)]
    return meet, join, (top if top >= 0 else None), np.array(comp)


@pytest.mark.parametrize("name", sorted(oracle_posets()))
def test_cached_tables_match_bounded_search(name):
    poset = oracle_posets()[name]
    meet, join, top, comp = ref_order_tables(poset)
    assert np.array_equal(poset.meet, meet)
    assert np.array_equal(poset.join, join)
    assert poset.top_index() == top
    assert np.array_equal(poset.complement, comp)


def test_oracle_families_include_non_lattices():
    posets = oracle_posets()
    for name in ("pants3-mixed-rank", "pants4-rank2"):
        assert not lattice_report(posets[name]).is_lattice
    mixed = posets["pants3-mixed-rank"]
    assert mixed.is_leq("e0", "e01") and mixed.orth[mixed.index("e0"), mixed.index("e12")]


def ref_poset_violations(leq, names):
    n = leq.shape[0]
    out = []
    for i in range(n):
        if not leq[i, i]:
            out.append(Violation("reflexivity", (names[i],)))
    for i in range(n):
        for j in range(n):
            if i != j and leq[i, j] and leq[j, i]:
                out.append(Violation("antisymmetry", (names[i], names[j])))
    closure = leq @ leq
    for i in range(n):
        for j in range(n):
            if closure[i, j] and not leq[i, j]:
                out.append(Violation("transitivity", (names[i], names[j])))
    return out


def ref_orthogonality_violations(leq, orth, zero_index, names):
    n = leq.shape[0]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if orth[i, j] != orth[j, i]:
                out.append(Violation("orth-symmetry", (names[i], names[j])))
    for i in range(n):
        if orth[i, i] and i != zero_index:
            out.append(
                Violation("orth-antireflexivity", (names[i],), "self-orthogonal above zero")
            )
    for a in range(n):
        for b in range(n):
            if not orth[b, a]:
                continue
            for c in range(n):
                if leq[c, b] and not orth[c, a]:
                    out.append(
                        Violation(
                            "orth-downward-closure",
                            (names[c], names[b], names[a]),
                            "c <= b and b _|_ a but not c _|_ a",
                        )
                    )
    for i in range(n):
        if not leq[zero_index, i]:
            out.append(Violation("zero-bottom", (names[i],), "zero not below element"))
    return out


@pytest.mark.parametrize("name", sorted(oracle_posets()))
def test_vectorised_law_scans_match_loops_on_bit_flips(name):
    poset = oracle_posets()[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    assert _poset_violations(poset.leq, poset.names) == []
    assert _orthogonality_violations(poset.leq, poset.orth, poset.zero_index, poset.names) == []
    n = poset.n
    for flips in (1, 2, 3, 5, 8):
        leq, orth = poset.leq.copy(), poset.orth.copy()
        for rel in rng.choice(2, size=flips):
            target = leq if rel == 0 else orth
            i, j = rng.integers(n, size=2)
            target[i, j] = not target[i, j]
        got = _poset_violations(leq, poset.names)
        assert got == ref_poset_violations(leq, poset.names)
        got = _orthogonality_violations(leq, orth, poset.zero_index, poset.names)
        assert got == ref_orthogonality_violations(leq, orth, poset.zero_index, poset.names)


# -- down-set lookup and law certificates against the oracles ---------------


def _subset_order(masks) -> np.ndarray:
    m = np.array(masks, dtype=np.int64)
    return (m[:, None] & ~m[None, :]) == 0


def _intersection_closed(rng, k: int, count: int) -> list[int]:
    """A random family of subsets of range(k) with the full set, closed under
    intersection: a lattice under inclusion (join = closure of the union)."""
    family = {(1 << k) - 1, *(int(x) for x in rng.integers(0, 1 << k, size=count))}
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            return sorted(family)
        family |= more


def _chain_product(lengths) -> np.ndarray:
    points = list(itertools.product(*(range(n) for n in lengths)))
    return np.array([[all(x <= y for x, y in zip(p, q)) for q in points] for p in points])


def _subspaces_gf2(k: int) -> np.ndarray:
    """The subspaces of GF(2)^k under inclusion, each a bitmask over the 2^k
    vectors closed under xor: modular, not distributive."""
    vectors = range(1 << k)
    subs = [m for m in range(1, 1 << (1 << k), 2)  # odd: the zero vector is in every subspace
            if all(m >> (a ^ b) & 1 for a in vectors if m >> a & 1 for b in vectors if m >> b & 1)]
    return _subset_order(subs)


def _partitions(n: int) -> np.ndarray:
    """The partition lattice Pi_n under refinement: graded, not modular for n >= 4."""
    def blocks(rest):
        if not rest:
            yield []
            return
        first, *others = rest
        for part in blocks(others):
            yield [[first], *part]
            for i in range(len(part)):
                yield [*part[:i], [first, *part[i]], *part[i + 1:]]
    parts = [frozenset(frozenset(b) for b in p) for p in blocks(list(range(n)))]
    return np.array([[all(any(b <= c for c in q) for b in p) for q in parts] for p in parts])


def _random_order(rng, m: int, density: float) -> np.ndarray:
    """The transitive closure of a random DAG on m elements, plus a bottom."""
    rel = np.triu(rng.random((m, m)) < density, 1) | np.eye(m, dtype=bool)
    while True:
        wider = (rel.astype(np.int64) @ rel.astype(np.int64)) > 0
        if (wider == rel).all():
            break
        rel = wider
    leq = np.ones((m + 1, m + 1), dtype=bool)
    leq[1:] = False
    leq[1:, 1:] = rel
    return leq


def _as_poset(leq: np.ndarray, rng) -> ProjectionPoset:
    """leq under a random relabelling, with names out of index order; its
    bottom is the zero and orthogonal to everything."""
    n = len(leq)
    perm = rng.permutation(n)
    leq = leq[np.ix_(perm, perm)]
    bottom = int(np.flatnonzero(leq.all(axis=1))[0])
    orth = np.zeros((n, n), dtype=bool)
    orth[bottom], orth[:, bottom] = True, True
    names = [f"x{k:03d}" for k in rng.permutation(n)]
    return ProjectionPoset.from_relations([None] * n, names, leq, orth, bottom)


M3 = _subset_order([0b000, 0b011, 0b101, 0b110, 0b111])
N5 = _subset_order([0b000, 0b001, 0b011, 0b100, 0b111])


@functools.cache
def random_posets() -> dict:
    rng = np.random.default_rng(17)
    orders = {
        "m3": M3, "n5": N5, "chain1": np.ones((1, 1), dtype=bool),
        "chain-2x3x2": _chain_product([2, 3, 2]), "chain-4x4": _chain_product([4, 4]),
        "boolean5": _subset_order(range(32)), "subspaces-gf2-3": _subspaces_gf2(3),
        "partitions4": _partitions(4),
    }
    for k in range(24):
        orders[f"closure{k}"] = _subset_order(_intersection_closed(rng, int(rng.integers(3, 7)), int(rng.integers(2, 9))))
    for k in range(12):
        orders[f"dag{k}"] = _random_order(rng, int(rng.integers(3, 14)), float(rng.uniform(0.1, 0.5)))
    return {name: _as_poset(leq, rng) for name, leq in orders.items()}


@functools.cache
def builtin_posets() -> dict:
    """The mult order of every builtin family of at most 64 projections, and
    the inclusion order of every builtin groupoid."""
    out = {}
    for name in ["klein4", "interval", "symmetric3", "quaternion8", "z2xz4", "two-intervals",
                 *(f"cyclic{n}" for n in range(1, 17)), *(f"dihedral{n}" for n in range(3, 13)),
                 *(f"pants{n}" for n in range(1, 7)), *(f"basis{n}" for n in range(1, 7))]:
        g, alg = cli._resolved(cli._builtin(name))
        family = cli._family(alg, TOL, 10**6)
        if g is not None:
            out[f"{name}-inclusion"] = inclusion_poset(alg, family, TOL)
        if len(family) <= 64:
            out[f"{name}-mult"] = build_poset(alg, family, TOL)
    return out


def _all_posets() -> dict:
    return {**random_posets(), **builtin_posets(), **oracle_posets()}


@pytest.mark.parametrize("name", sorted(_all_posets()))
def test_lookup_tables_and_certificates_match_oracles(name):
    poset = _all_posets()[name]
    assert np.array_equal(poset.meet, bound_table(np.ascontiguousarray(poset.leq.T)))
    assert np.array_equal(poset.join, bound_table(poset.leq))
    rep = lattice_report(poset)
    want = law_scans(poset)
    assert (rep.distributive, rep.distributive_witness, rep.modular, rep.modular_witness) == want
    assert rep.is_lattice == (want[0] is not None)
    if rep.is_lattice:  # each certificate on its own, without the witness scan behind it
        assert order._is_modular(poset.leq, poset.meet, poset.join, poset.covers) == want[2]
        assert order._is_distributive(poset.leq, poset.covers) == want[0]
    assert set(hasse_edges(poset)) == {
        (poset.names[a], poset.names[b])
        for a in range(poset.n) for b in range(poset.n)
        if a != b and poset.leq[a, b]
        and not any(poset.leq[a, c] and poset.leq[c, b] for c in range(poset.n) if c not in (a, b))
    }


def test_oracle_posets_cover_every_kind_of_lattice():
    kinds = set()
    for poset in random_posets().values():
        dist, _, mod, _ = law_scans(poset)
        graded = order._graded_heights(poset.leq, poset.covers) is not None
        kinds.add("not a lattice" if dist is None else
                  "distributive" if dist else "modular only" if mod else
                  "graded, not modular" if graded else "ungraded")
    assert kinds == {"not a lattice", "distributive", "modular only", "graded, not modular",
                     "ungraded"}


# -- name order -------------------------------------------------------------


def _views(poset, alg=None) -> list:
    """What the analytics print of a poset; the pair checks when it has points."""
    views = [lattice_report(poset).to_dict(), hasse_edges(poset), to_dot(poset)]
    if alg is not None:
        views.append(commute_glb_equivalence(alg, poset, TOL).to_dict())
    return views


def _name_order_families() -> dict:
    """name -> (algebra, poset builder, family in its enumeration order)."""
    out = {}
    for name, make in (("basis4", build_poset), ("klein4", inclusion_poset),
                       ("z2xz4", inclusion_poset)):
        _, alg = cli._resolved(cli._builtin(name))
        out[f"{name}-{make.__name__}"] = (alg, make, cli._family(alg, TOL, 10**6))
    return out


@pytest.mark.parametrize("name", sorted(_name_order_families()))
def test_shuffled_families_give_the_same_poset(name):
    alg, make, family = _name_order_families()[name]
    want = _views(make(alg, family, TOL), alg)
    rng = np.random.default_rng(3)
    for _ in range(3):
        poset = make(alg, [family[k] for k in rng.permutation(len(family))], TOL)
        assert list(poset.names) == sorted(poset.names)
        assert [p.name for p in poset.points] == list(poset.names)
        assert _views(poset, alg) == want


@pytest.mark.parametrize("name", ["dag3", "dag7", "closure5", "m3"])
def test_relations_in_any_index_order_give_the_same_poset(name):
    """A random poset, its names drawn out of index order, rebuilt from its
    relations under shuffled indices."""
    base = random_posets()[name]
    assert list(base.names) == sorted(base.names)
    want = _views(base)
    rng = np.random.default_rng(11)
    for _ in range(3):
        perm = rng.permutation(base.n)
        ix = np.ix_(perm, perm)
        poset = ProjectionPoset.from_relations(
            [base.points[k] for k in perm], [base.names[k] for k in perm],
            base.leq[ix], base.orth[ix], int(np.flatnonzero(perm == base.zero_index)[0]),
        )
        assert poset.names == base.names
        assert np.array_equal(poset.leq, base.leq) and np.array_equal(poset.orth, base.orth)
        assert _views(poset) == want


def test_poset_refuses_names_out_of_order():
    leq = np.array([[1, 1], [0, 1]], dtype=bool)
    orth = np.array([[1, 1], [1, 0]], dtype=bool)
    ProjectionPoset((None, None), ("a", "b"), leq, orth, 0)
    for names in (("b", "a"), ("a", "a")):
        with pytest.raises(ValueError, match="name order"):
            ProjectionPoset((None, None), names, leq, orth, 0)
