"""Acceptance gate: twelve end-to-end criteria, one printed line each.

Each test computes its criterion from scratch, prints a single PASS/FAIL
line through the shared recorder, and asserts the verdict. Criterion 7
checks the exact copyables of each groupoid algebra: the empty set plus
every connected component that has a single object. A component spanning
two objects x and y is never copyable, because copying needs every pair of
members to be composable, so the naive "components plus empty" identity
holds only on groupoids whose components are all groups.
"""

import time

import numpy as np
import pytest
from conftest import record_criterion

from projlat import (
    Tolerance,
    basis_algebra,
    bi_order_check,
    build_poset,
    canonical_subset_name,
    check_axioms,
    check_orthogonality_axioms,
    commutativity_defect,
    commute_glb_equivalence,
    compare_orders,
    conjugate_point,
    copyables_report,
    cyclic,
    dihedral,
    direct_sum,
    disjoint_union,
    enumerate_copyables,
    enumerate_subgroupoids,
    brute_force_subgroupoids,
    inclusion_poset,
    interval,
    is_central,
    is_commutative,
    is_copyable,
    is_matrix_projection,
    is_projection,
    klein4,
    lattice_report,
    mult_points,
    ore_crossvalidate,
    pants_algebra,
    point_from_matrix,
    point_names,
    points_equal,
    product,
    quaternion8,
    random_projection,
    subgroupoid_points,
    subset_point,
    subspace_join,
    subspace_meet,
    symmetric3,
    tensor_algebras,
    to_algebra,
    vector_point,
    zero_one_points,
    zero_point,
)
from groupoid_oracle import _component_name_sets

TOL = Tolerance(1e-9)

GROUPOID_FIXTURES = [
    *[(f"cyclic{n}", cyclic(n)) for n in range(1, 9)],
    ("klein4", klein4()),
    ("z2xz4", product(cyclic(2), cyclic(4))),
    ("symmetric3", symmetric3()),
    ("dihedral4", dihedral(4)),
    ("quaternion8", quaternion8()),
    ("interval", interval()),
    ("two-intervals", disjoint_union(interval(), interval())),
    ("two-cyclic2", disjoint_union(cyclic(2), cyclic(2))),
    ("interval-x-cyclic2", product(interval(), cyclic(2))),
    ("interval-x-interval", product(interval(), interval())),
]

MATRIX_FIXTURES = [
    ("pants2", pants_algebra(2)),
    ("pants3", pants_algebra(3)),
    ("basis1", basis_algebra(1)),
    ("basis2", basis_algebra(2)),
    ("basis3", basis_algebra(3)),
    ("basis4", basis_algebra(4)),
    ("direct-sum-2-1", direct_sum([2, 1])),
]


def groupoid_family(g):
    alg = to_algebra(g)
    return alg, subgroupoid_points(alg, enumerate_subgroupoids(g))


def matrix_family(alg, extra_random=0):
    pts = [p for p in zero_one_points(alg) if is_projection(p, TOL)]
    d = alg.carrier.size
    n = int(round(d**0.5))
    if extra_random and n * n == d:
        for k in range(extra_random):
            pts.append(
                point_from_matrix(alg, random_projection(n, 1 + k % max(1, n - 1), seed=60 + k), f"r{k}")
            )
    return alg, pts


def all_families():
    out = [(name, *groupoid_family(g)) for name, g in GROUPOID_FIXTURES]
    for name, alg in MATRIX_FIXTURES:
        extra = 2 if name.startswith("pants") else 0
        out.append((name, *matrix_family(alg, extra_random=extra)))
    return out


def test_criterion_01_quartic_group_lattice():
    t0 = time.perf_counter()
    g = klein4()
    alg = to_algebra(g)
    subs = enumerate_subgroupoids(g)
    proper = [s for s in subs if 1 < len(s.members) < 4]
    commutative = is_commutative(alg, TOL)
    rep = lattice_report(inclusion_poset(alg, subgroupoid_points(alg, subs), TOL))
    witness_ok = False
    if rep.distributive is False and rep.distributive_witness:
        a, b, c = rep.distributive_witness
        lhs = rep.meet_table[a][rep.join_table[b][c]]
        rhs = rep.join_table[rep.meet_table[a][b]][rep.meet_table[a][c]]
        witness_ok = lhs == a and lhs != rhs
    dt = time.perf_counter() - t0
    ok = len(subs) == 6 and len(proper) == 3 and commutative and witness_ok and dt < 1.0
    record_criterion(
        1, ok,
        f"klein four-group: 6 subgroupoids, 3 proper nontrivial, commutative, "
        f"non-distributive inclusion lattice with verified witness ({dt:.3f}s)",
    )
    assert ok


def test_criterion_02_interval_groupoid():
    t0 = time.perf_counter()
    g = interval()
    alg = to_algebra(g)
    subs = enumerate_subgroupoids(g)
    noncomm = not is_commutative(alg, TOL) and commutativity_defect(alg) > 0
    explicit = g.compose("f", "f_inv") != g.compose("f_inv", "f")
    incl = inclusion_poset(alg, subgroupoid_points(alg, subs), TOL)
    rep = lattice_report(incl)
    mult = build_poset(alg, subgroupoid_points(alg, subs), TOL)
    cmp = compare_orders(mult, incl)
    emitted = isinstance(cmp.to_dict(), dict) and not cmp.equal and cmp.only_in_second
    dt = time.perf_counter() - t0
    ok = bool(
        len(subs) == 5 and noncomm and explicit and rep.distributive is True
        and emitted and dt < 1.0
    )
    record_criterion(
        2, ok,
        f"interval groupoid: 5 subgroupoids, noncommutative, distributive inclusion "
        f"lattice, order comparison emitted ({dt:.3f}s)",
    )
    assert ok


def test_criterion_03_matrix_algebra_axioms():
    worst = 0.0
    ok = True
    for name, alg in MATRIX_FIXTURES:
        rep = check_axioms(alg, TOL)
        worst = max(worst, max(rep.residuals.values()))
        ok = ok and rep.passed
    record_criterion(
        3, ok,
        f"matrix algebras (pants 2-3, basis 1-4, direct sum [2,1]) pass all axioms, "
        f"worst residual {worst:.2e}",
    )
    assert ok and worst < 1e-9


def test_criterion_04_projection_correspondence():
    disagreements = 0
    for n in (2, 3):
        alg = pants_algebra(n)
        rng = np.random.default_rng(4000 + n)
        for k in range(100):
            style = k % 4
            if style == 0:
                mat = random_projection(n, k % (n + 1), seed=5000 + 10 * k + n)
            elif style == 1:
                mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            elif style == 2:
                h = rng.standard_normal((n, n))
                mat = (h + h.T).astype(complex)
            else:
                mat = np.zeros((n, n), dtype=complex)
                mat[0, 0] = 1.0
                mat[1, 0] = rng.standard_normal()
            concrete = is_matrix_projection(mat, TOL)
            abstract = is_projection(point_from_matrix(alg, mat), TOL)
            if concrete != abstract:
                disagreements += 1
    ok = disagreements == 0
    record_criterion(
        4, ok,
        f"abstract vs concrete projection test agrees on 100 seeded matrices "
        f"for each of n=2,3 ({disagreements} disagreements)",
    )
    assert ok


def test_criterion_05_boolean_cube():
    ok = True
    detail = []
    for n in range(1, 5):
        alg = basis_algebra(n)
        pts = [p for p in zero_one_points(alg) if is_projection(p, TOL)]
        good = len(pts) == 2**n
        poset = build_poset(alg, pts, TOL)
        rep = lattice_report(poset)
        masks = {p.name: int(p.name[1:], 2) for p in pts}
        for na, ia in masks.items():
            for nb, ib in masks.items():
                if rep.meet_table[na][nb] != f"b{ia & ib:0{n}b}":
                    good = False
                if rep.join_table[na][nb] != f"b{ia | ib:0{n}b}":
                    good = False
        good = good and rep.is_lattice and rep.distributive is True
        good = good and rep.probe.applicable and rep.probe.all_pass
        good = good and all(e.passes for e in rep.probe.entries)
        detail.append(f"n={n}:{'ok' if good else 'BAD'}")
        ok = ok and good
    record_criterion(
        5, ok,
        f"basis algebras carry Boolean cubes with bitwise meet/join and total "
        f"orthocomplement probe ({', '.join(detail)})",
    )
    assert ok


def test_criterion_06_two_dim_nondistributivity():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    c = np.full((2, 2), 0.5, dtype=complex)
    lhs = subspace_meet(a, subspace_join(b, c, TOL), TOL)
    rhs = subspace_join(subspace_meet(a, b, TOL), subspace_meet(a, c, TOL), TOL)
    dev_a = float(np.max(np.abs(lhs - a)))
    dev_0 = float(np.max(np.abs(rhs)))
    ok = dev_a <= 1e-9 and dev_0 <= 1e-9
    record_criterion(
        6, ok,
        f"rank-1 triple in 2 dims: meet-with-join returns the line ({dev_a:.1e}), "
        f"join-of-meets returns zero ({dev_0:.1e})",
    )
    assert ok


def test_criterion_07_copyables_are_components():
    # Copying (comult . p = p (x) p) needs every pair of members of p to be
    # composable, which puts all of them on one object x; closure under
    # factorisation then forces p to be the whole component of x, and that
    # component can have no other object.
    mismatches = []
    multi_object = []
    central_ok = True
    for name, g in GROUPOID_FIXTURES:
        alg = to_algebra(g)
        touched = {
            block: {end for m in block for end in (g.mor(m).dom, g.mor(m).cod)}
            for block in _component_name_sets(g)
        }
        single = {block for block, objs in touched.items() if len(objs) == 1}
        multi = set(touched) - single
        if multi:
            multi_object.append(name)
        copyables = enumerate_copyables(alg)
        found = [point_names(p) for p in copyables]
        rep = copyables_report(alg)
        pointwise = is_copyable(subset_point(alg, ()), TOL) and all(
            is_copyable(subset_point(alg, block), TOL) == (block in single)
            for block in touched
        )
        exact = (
            len(found) == len(set(found))
            and set(found) == {frozenset()} | single
            and rep.extra == ()
            and rep.missing == tuple(sorted(canonical_subset_name(b) for b in multi))
            and pointwise
        )
        if not exact:
            mismatches.append(name)
        for p in copyables:
            central_ok = central_ok and is_central(p, TOL)
    alg2 = pants_algebra(2)
    rng = np.random.default_rng(777)
    vecs = rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))
    random_ok = all(
        not is_copyable(vector_point(alg2, v, None), TOL) for v in vecs
    )
    zero_ok = is_copyable(zero_point(alg2), TOL)
    ok = not mismatches and central_ok and random_ok and zero_ok
    suffix = f"; copyables mismatch on: {', '.join(mismatches)}" if mismatches else ""
    record_criterion(
        7, ok,
        f"copyables are exactly the empty set plus the single-object components on "
        f"{len(GROUPOID_FIXTURES) - len(mismatches)}/{len(GROUPOID_FIXTURES)} groupoid "
        f"fixtures ({len(GROUPOID_FIXTURES) - len(multi_object)} with only single-object "
        f"components, {len(multi_object)} with a multi-object one); centrality and "
        f"matrix-side checks "
        f"{'pass' if central_ok and random_ok and zero_ok else 'fail'}{suffix}",
    )
    assert ok


def test_criterion_08_order_laws_and_conjugation():
    families = all_families()
    law_failures = 0
    pair_failures = 0
    pairs_checked = 0
    for name, alg, pts in families:
        poset = build_poset(alg, pts, TOL)
        if not check_orthogonality_axioms(poset).passed:
            law_failures += 1
        for p in poset.points:
            for q in poset.points:
                lhs = conjugate_point(mult_points(p, q))
                anti = mult_points(conjugate_point(q), conjugate_point(p))
                flip = mult_points(q, p)
                if not points_equal(lhs, anti, TOL) or not points_equal(lhs, flip, TOL):
                    pair_failures += 1
                pairs_checked += 1
    ok = law_failures == 0 and pair_failures == 0
    record_criterion(
        8, ok,
        f"order and orthogonality laws verified on {len(families)} families; "
        f"conjugation antihomomorphism holds on {pairs_checked} pairs "
        f"({law_failures} law, {pair_failures} pair failures)",
    )
    assert ok


def test_criterion_09_three_way_equivalence():
    families = all_families()
    inconsistent = 0
    negatives = 0
    interval_negative = False
    for name, alg, pts in families:
        poset = build_poset(alg, pts, TOL)
        rep = commute_glb_equivalence(alg, poset, TOL)
        if not rep.consistent:
            inconsistent += 1
        non = sum(1 for p in rep.pairs if not p.commute)
        negatives += non
        if name == "interval" and non:
            interval_negative = True
    ok = inconsistent == 0 and interval_negative
    record_criterion(
        9, ok,
        f"commuting, product-is-projection, product-is-glb agree three ways on all "
        f"{len(families)} families ({negatives} non-commuting pairs, interval "
        f"{'included' if interval_negative else 'MISSING'})",
    )
    assert ok


def test_criterion_10_tensor_composition():
    za = to_algebra(cyclic(2))
    ta = tensor_algebras(za, za, TOL)
    fam = subgroupoid_points(za, enumerate_subgroupoids(cyclic(2)))
    rel_rep = bi_order_check(ta, fam, fam, TOL)
    bb = basis_algebra(2)
    tb = tensor_algebras(bb, bb, TOL)
    famb = zero_one_points(bb)
    mat_rep = bi_order_check(tb, famb, famb, TOL)
    direct = to_algebra(product(cyclic(2), cyclic(2)))
    exact = ta.algebra.same_algebra(direct) and (
        ta.algebra.carrier.labels == direct.carrier.labels
    )
    ok = bool(
        ta.axioms.passed and tb.axioms.passed and rel_rep.passed and mat_rep.passed
        and exact
    )
    record_criterion(
        10, ok,
        f"interchange and bi-order pass on both backends "
        f"({rel_rep.interchange_checked}+{mat_rep.interchange_checked} interchange "
        f"checks); composite of two 2-cycles equals the product groupoid algebra exactly",
    )
    assert ok


def test_criterion_11_distributive_iff_cyclic():
    t0 = time.perf_counter()
    fixtures = [(f"cyclic{n}", cyclic(n)) for n in range(1, 9)]
    fixtures += [
        ("klein4", klein4()),
        ("z2xz4", product(cyclic(2), cyclic(4))),
        ("symmetric3", symmetric3()),
        ("dihedral4", dihedral(4)),
        ("quaternion8", quaternion8()),
    ]
    rep = ore_crossvalidate(fixtures)
    dt = time.perf_counter() - t0
    agree = sum(1 for e in rep.entries if e.consistent)
    ok = rep.consistent and len(rep.entries) == 13 and dt < 10.0
    record_criterion(
        11, ok,
        f"subgroup lattice distributive iff cyclic: {agree}/13 group fixtures agree "
        f"({dt:.2f}s)",
    )
    assert ok


def test_criterion_12_enumeration_oracle():
    checked = 0
    mismatches = 0
    for name, g in GROUPOID_FIXTURES:
        if len(g.morphisms) > 16:
            continue
        fast = enumerate_subgroupoids(g, cross_check=False)
        slow = brute_force_subgroupoids(g)
        if [s.members for s in fast] != [s.members for s in slow]:
            mismatches += 1
        checked += 1
    ok = mismatches == 0 and checked >= 10
    record_criterion(
        12, ok,
        f"lectic enumeration equals brute-force subset scan on {checked} fixtures "
        f"with at most 16 morphisms ({mismatches} mismatches)",
    )
    assert ok
