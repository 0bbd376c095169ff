"""Groupoid documents, fixtures, subgroupoid enumeration, copyables."""

import random

import numpy as np
import pytest

import groupoid_oracle
from projlat import (
    CopyablesReport,
    LawViolation,
    ParseError,
    ResourceLimit,
    Subgroupoid,
    brute_force_subgroupoids,
    canonical_subset_name,
    connected_components,
    copyables_report,
    cyclic,
    dihedral,
    disjoint_union,
    element_order,
    enumerate_copyables,
    enumerate_subgroupoids,
    groupoid_violations,
    interval,
    is_abelian,
    is_cyclic_group,
    klein4,
    point_names,
    product,
    quaternion8,
    subset_point,
    symmetric3,
    to_algebra,
    validate,
)
from projlat import DEFAULT_TOL, FrobeniusAlgebra, Morphism, compose, equal, groupoid, identity
from projlat.frobenius import mask_points, projection_mask, zero_one_projections


def small_doc():
    return {
        "objects": ["x"],
        "morphisms": [
            {"name": "e", "dom": "x", "cod": "x"},
            {"name": "a", "dom": "x", "cod": "x"},
        ],
        "compose": [
            ["e", "e", "e"],
            ["e", "a", "a"],
            ["a", "e", "a"],
            ["a", "a", "e"],
        ],
    }


# -- document validation ----------------------------------------------------


def test_validate_accepts_group_doc_and_infers_structure():
    g = validate(small_doc())
    assert g.is_group
    assert g.identities == {"x": "e"}
    assert g.inverses == {"e": "e", "a": "a"}


def test_missing_fields_are_parse_errors():
    for field in ("objects", "morphisms", "compose"):
        doc = small_doc()
        del doc[field]
        with pytest.raises(ParseError):
            validate(doc)


def test_unknown_names_are_parse_errors():
    doc = small_doc()
    doc["compose"].append(["a", "b", "e"])
    with pytest.raises(ParseError):
        validate(doc)
    doc = small_doc()
    doc["morphisms"].append({"name": "b", "dom": "x", "cod": "nowhere"})
    with pytest.raises(ParseError):
        validate(doc)


@pytest.mark.parametrize("value", [1, ["x"], None], ids=["int", "list", "null"])
@pytest.mark.parametrize(
    "field", ["object", "name", "dom", "cod", "compose", "identity", "inverse"]
)
def test_non_string_names_are_parse_errors(field, value):
    """Names are never coerced: 1 is not the name "1", nor ["x"] the name "['x']"."""
    doc = small_doc()
    if field == "object":
        doc["objects"].append(value)
    elif field == "compose":
        doc["compose"][0][1] = value
    elif field in ("identity", "inverse"):  # declared on a group whose one morphism is str(value)
        name = str(value)
        doc = {
            "objects": ["x"],
            "morphisms": [{"name": name, "dom": "x", "cod": "x"}],
            "compose": [[name, name, name]],
            "identities": {"x": value if field == "identity" else name},
            "inverses": {name: value},
        }
    else:
        doc["morphisms"][1][field] = value
    for check in (validate, groupoid_violations, groupoid_oracle.law_violations):
        with pytest.raises(ParseError, match="is not a string"):
            check(doc)


def test_empty_groupoid_has_one_subgroupoid_and_one_copyable():
    g = validate({"objects": [], "morphisms": [], "compose": []})
    alg = to_algebra(g)
    assert alg.carrier.labels == ()
    assert enumerate_subgroupoids(g) == brute_force_subgroupoids(g) == [Subgroupoid(frozenset())]
    assert [p.name for p in enumerate_copyables(alg)] == ["{}"]
    assert copyables_report(alg).lemma_holds


def test_partial_table_is_a_totality_violation():
    doc = small_doc()
    doc["compose"] = doc["compose"][:3]
    laws = {v.law for v in groupoid_violations(doc)}
    assert "totality" in laws


def test_non_composable_entry_is_flagged():
    doc = {
        "objects": ["x", "y"],
        "morphisms": [
            {"name": "id_x", "dom": "x", "cod": "x"},
            {"name": "id_y", "dom": "y", "cod": "y"},
        ],
        "compose": [
            ["id_x", "id_x", "id_x"],
            ["id_y", "id_y", "id_y"],
            ["id_x", "id_y", "id_x"],
        ],
    }
    laws = {v.law for v in groupoid_violations(doc)}
    assert "composability" in laws


def test_wrong_composite_typing_is_flagged():
    doc = {
        "objects": ["x", "y"],
        "morphisms": [
            {"name": "id_x", "dom": "x", "cod": "x"},
            {"name": "id_y", "dom": "y", "cod": "y"},
        ],
        "compose": [
            ["id_x", "id_x", "id_y"],
            ["id_y", "id_y", "id_y"],
        ],
    }
    laws = {v.law for v in groupoid_violations(doc)}
    assert "composition-typing" in laws


def test_broken_associativity_is_flagged_with_witness():
    doc = {
        "objects": ["x"],
        "morphisms": [
            {"name": "e", "dom": "x", "cod": "x"},
            {"name": "a", "dom": "x", "cod": "x"},
            {"name": "b", "dom": "x", "cod": "x"},
        ],
        "compose": [
            ["e", "e", "e"], ["e", "a", "a"], ["e", "b", "b"],
            ["a", "e", "a"], ["a", "a", "b"], ["a", "b", "e"],
            ["b", "e", "b"], ["b", "a", "e"], ["b", "b", "b"],
        ],
    }
    violations = groupoid_violations(doc)
    assoc = [v for v in violations if v.law == "associativity"]
    # witness carries the triple plus the two disagreeing composites
    assert assoc and assoc[0].witness[:3] == ("a", "a", "b")
    assert assoc[0].witness[3] != assoc[0].witness[4]


def test_missing_inverse_is_flagged():
    doc = small_doc()
    doc["compose"][-1] = ["a", "a", "a"]  # a absorbs; no inverse exists
    violations = groupoid_violations(doc)
    assert any(v.law == "inverse" and "a" in v.witness for v in violations)
    with pytest.raises(LawViolation):
        validate(doc)


def test_wrong_declared_identity_is_flagged():
    doc = small_doc()
    doc["identities"] = {"x": "a"}
    assert any(v.law == "identity" for v in groupoid_violations(doc))


# -- fixtures ---------------------------------------------------------------


def test_fixture_shapes():
    assert len(cyclic(6).morphisms) == 6
    assert len(klein4().morphisms) == 4
    assert len(interval().morphisms) == 4
    assert len(symmetric3().morphisms) == 6
    assert len(dihedral(4).morphisms) == 8
    assert len(quaternion8().morphisms) == 8
    assert len(product(interval(), cyclic(2)).morphisms) == 8
    assert len(disjoint_union(interval(), interval()).morphisms) == 8


def test_fixture_group_theory():
    assert is_cyclic_group(cyclic(8))
    assert is_abelian(klein4()) and not is_cyclic_group(klein4())
    assert not is_abelian(symmetric3())
    assert not is_abelian(quaternion8())
    assert not is_abelian(dihedral(4))
    assert element_order(quaternion8(), "-1") == 2
    assert not is_abelian(interval())  # composability asymmetry counts


def test_compose_is_f_after_g():
    g = interval()
    assert g.compose("f", "id_x") == "f"
    assert g.compose("id_y", "f") == "f"
    assert g.compose("f", "f_inv") == "id_y"
    assert g.compose("f_inv", "f") == "id_x"
    with pytest.raises(ParseError):
        g.compose("f", "f")


_BUILT = {
    "interval-x-interval": (product, interval(), interval()),
    "cyclic2-x-cyclic4": (product, cyclic(2), cyclic(4)),
    "two-intervals": (disjoint_union, interval(), interval()),
    "cyclic8-plus-cyclic8": (disjoint_union, cyclic(8), cyclic(8)),
}


@pytest.mark.parametrize("name", sorted(_BUILT))
def test_array_products_and_unions_match_string_documents(name):
    """product and disjoint_union build index arrays; the reference formats
    every compose triple as a string document and validates it."""
    build, a, b = _BUILT[name]
    reference = {
        product: groupoid_oracle.product_doc,
        disjoint_union: groupoid_oracle.disjoint_union_doc,
    }[build]
    got, want = build(a, b), validate(reference(a, b))
    assert got.to_doc() == want.to_doc()
    assert (got.identities, got.inverses) == (want.identities, want.inverses)
    assert np.array_equal(got.comp, want.comp)
    alg, ref = to_algebra(got), to_algebra(want)
    assert alg.carrier.labels == ref.carrier.labels
    for mine, theirs in [(alg.mult, ref.mult), (alg.unit, ref.unit)]:
        assert np.array_equal(mine.payload, theirs.payload)


def test_product_names_and_structure():
    p = product(cyclic(2), cyclic(3))
    assert p.is_group
    assert is_cyclic_group(p)  # Z2 x Z3 is Z6
    assert set(p.morphism_names()) == {f"({a},{b})" for a in "01" for b in "012"}


def test_disjoint_union_prefixes_and_components():
    u = disjoint_union(cyclic(2), cyclic(3))
    assert not u.is_group
    comps = connected_components(u)
    assert sorted(point_names(c) for c in comps) == [
        frozenset({"L.0", "L.1"}),
        frozenset({"R.0", "R.1", "R.2"}),
    ]


# -- subgroupoid enumeration ------------------------------------------------

SUBGROUPOID_COUNTS = [
    (cyclic(1), 2),
    (cyclic(2), 3),
    (cyclic(6), 5),  # one per divisor, plus empty
    (cyclic(8), 5),
    (klein4(), 6),
    (interval(), 5),
    (symmetric3(), 7),
    (dihedral(4), 11),
    (quaternion8(), 7),
    (product(cyclic(2), cyclic(4)), 9),
    (disjoint_union(interval(), interval()), 25),
    (product(interval(), interval()), 52),
]


@pytest.mark.parametrize(
    "g,count", SUBGROUPOID_COUNTS, ids=[f"case{i}" for i in range(len(SUBGROUPOID_COUNTS))]
)
def test_subgroupoid_counts(g, count):
    subs = enumerate_subgroupoids(g)
    assert len(subs) == count
    assert subs[0].members == frozenset()
    full = frozenset(g.morphism_names())
    assert any(s.members == full for s in subs)


@pytest.mark.parametrize(
    "g",
    [cyclic(5), klein4(), interval(), symmetric3(), dihedral(4), quaternion8(),
     product(interval(), interval()), disjoint_union(cyclic(2), cyclic(2))],
    ids=["c5", "k4", "iv", "s3", "d4", "q8", "iv2", "c2+c2"],
)
def test_enumeration_matches_brute_force(g):
    fast = enumerate_subgroupoids(g, cross_check=False)
    slow = brute_force_subgroupoids(g)
    assert [s.members for s in fast] == [s.members for s in slow]


def test_enumeration_cap_raises():
    with pytest.raises(ResourceLimit):
        enumerate_subgroupoids(dihedral(4), max_closed=3)
    with pytest.raises(ResourceLimit):
        enumerate_subgroupoids(dihedral(4), max_carrier=4)


def test_subgroupoids_are_projections_are_subgroupoids():
    from projlat import is_projection

    g = symmetric3()
    alg = to_algebra(g)
    members = {s.members for s in enumerate_subgroupoids(g)}
    names = g.morphism_names()
    for mask in range(2 ** len(names)):
        subset = frozenset(names[i] for i in range(len(names)) if mask >> i & 1)
        p = subset_point(alg, subset)
        assert is_projection(p) == (subset in members)


# -- copyables --------------------------------------------------------------


def test_group_copyables_are_empty_and_whole():
    alg = to_algebra(klein4())
    names = {point_names(p) for p in enumerate_copyables(alg)}
    assert names == {frozenset(), frozenset({"(0,0)", "(0,1)", "(1,0)", "(1,1)"})}
    rep = copyables_report(alg)
    assert rep.lemma_holds
    assert rep.missing == () and rep.extra == ()


def test_disjoint_groups_copyables_are_blocks():
    alg = to_algebra(disjoint_union(cyclic(2), cyclic(3)))
    names = {point_names(p) for p in enumerate_copyables(alg)}
    assert names == {
        frozenset(),
        frozenset({"L.0", "L.1"}),
        frozenset({"R.0", "R.1", "R.2"}),
    }
    assert copyables_report(alg).lemma_holds


def test_interval_component_is_not_copyable():
    # the connected component contains non-composable pairs, so copying fails
    alg = to_algebra(interval())
    names = {point_names(p) for p in enumerate_copyables(alg)}
    assert names == {frozenset()}
    rep = copyables_report(alg)
    assert not rep.lemma_holds
    assert rep.missing == ("{f,f_inv,id_x,id_y}",)
    assert rep.extra == ()


def test_copyables_report_round_trip():
    rep = copyables_report(to_algebra(interval()))
    again = CopyablesReport.from_dict(rep.to_dict())
    assert again == rep
    assert again.lemma_holds == rep.lemma_holds


def test_canonical_subset_names_sort():
    assert canonical_subset_name(["b", "a"]) == "{a,b}"
    assert canonical_subset_name([]) == "{}"


# -- array scans against the loop references -------------------------------

# every builtin groupoid with at most 16 morphisms, and the products and unions
# of the acceptance fixtures and the benchmark's copyables documents
_SMALL = {
    **{f"cyclic{n}": cyclic(n) for n in range(1, 17)},
    **{f"dihedral{n}": dihedral(n) for n in range(3, 9)},
    "klein4": klein4(),
    "symmetric3": symmetric3(),
    "quaternion8": quaternion8(),
    "interval": interval(),
    "z2xz4": product(cyclic(2), cyclic(4)),
    "z2x4": product(klein4(), klein4()),
    "two-intervals": disjoint_union(interval(), interval()),
    "two-cyclic2": disjoint_union(cyclic(2), cyclic(2)),
    "cyclic8-plus-cyclic8": disjoint_union(cyclic(8), cyclic(8)),
    "interval-x-cyclic2": product(interval(), cyclic(2)),
    "interval-x-interval": product(interval(), interval()),
    "interval-x-klein4": product(interval(), klein4()),
}

# carriers above BRUTE_FORCE_LIMIT: one and several objects and components
_LARGE = {
    "dihedral12": dihedral(12),
    "dihedral12-x-cyclic2": product(dihedral(12), cyclic(2)),
    "interval-x-dihedral6": product(interval(), dihedral(6)),
    "cyclic32-plus-cyclic32": disjoint_union(cyclic(32), cyclic(32)),
    "interval-x-cyclic16": product(interval(), cyclic(16)),
}


@pytest.mark.parametrize("name", sorted(_SMALL) + sorted(_LARGE))
def test_copyables_match_per_mask_reference(name):
    g = _SMALL.get(name) or _LARGE[name]
    alg = to_algebra(g)
    masks = groupoid_oracle.copyable_masks(alg)
    assert [p.name for p in enumerate_copyables(alg)] == [p.name for p in mask_points(alg, masks)]
    if name == "cyclic32-plus-cyclic32":
        assert any(m >> 63 for m in masks)  # the R block sits on bits 32..63


@pytest.mark.parametrize("name", sorted(_SMALL) + sorted(_LARGE))
def test_group_predicates_match_name_keyed_loops(name):
    g = _SMALL.get(name) or _LARGE[name]
    assert is_abelian(g) == groupoid_oracle.is_abelian(g)
    if g.is_group:
        orders = [element_order(g, m) for m in g.morphism_names()]
        assert orders == [groupoid_oracle.element_order(g, m) for m in g.morphism_names()]


def _speciality(alg) -> bool:
    """m . m^dagger = id, composed on the backend."""
    return equal(compose(alg.mult, alg.comult), identity(alg.carrier))


@pytest.mark.parametrize("name", sorted(_SMALL) + sorted(_LARGE))
def test_groupoid_algebras_are_special_and_copyables_skip_the_scan(name, monkeypatch):
    alg = to_algebra(_SMALL.get(name) or _LARGE[name])
    assert groupoid._is_special(alg) and _speciality(alg)
    fast = [p.name for p in enumerate_copyables(alg)]
    if alg.carrier.size <= groupoid.BRUTE_FORCE_LIMIT:  # the mask scan is the reference
        monkeypatch.setattr(groupoid, "_is_special", lambda alg: False)
        assert fast == [p.name for p in enumerate_copyables(alg)]


@pytest.mark.parametrize("seed", range(8))
def test_speciality_read_off_m_matches_composition(seed):
    """Perturbed and random algebras are rarely special; they keep the mask
    scan, which must agree with the per-mask reference."""
    verdicts = set()
    for alg in _perturbed_algebras(seed):
        special = groupoid._is_special(alg)
        assert special == _speciality(alg)
        verdicts.add(special)
        masks = groupoid_oracle.copyable_masks(alg)
        assert [p.name for p in enumerate_copyables(alg)] == [p.name for p in mask_points(alg, masks)]
    assert False in verdicts


def _mutations(doc: dict, seed: int, count: int = 3) -> dict:
    """doc with `count` composites swapped for another morphism of the same
    dom and cod, so typing and totality still hold."""
    rng = random.Random(seed)
    types = {m["name"]: (m["dom"], m["cod"]) for m in doc["morphisms"]}
    compose = [list(entry) for entry in doc["compose"]]
    rng.shuffle(compose)
    for entry in rng.sample(compose, count):
        entry[2] = rng.choice([m for m, t in types.items() if t == types[entry[2]]])
    return {**doc, "compose": compose}


@pytest.mark.parametrize("block_entries", [None, 1])
@pytest.mark.parametrize(
    "name", ["symmetric3", "quaternion8", "dihedral8", "interval-x-klein4", "dihedral12-x-cyclic2",
             "interval-x-cyclic16"]
)
def test_associativity_violations_match_triple_loop(name, block_entries, monkeypatch):
    if block_entries is not None:
        monkeypatch.setattr(groupoid, "_BLOCK_ENTRIES", block_entries)
    base = (_SMALL.get(name) or _LARGE[name]).to_doc()
    seen = 0
    for seed in range(4):
        doc = _mutations(base, seed)
        want = groupoid_oracle.associativity_violations(doc)
        got = [v for v in groupoid_violations(doc) if v.law == "associativity"]
        assert got == want
        seen += len(want)
    assert seen > 0


# -- Next-Closure and the 0/1 scan against the references ------------------

# carrier 65: the closure's masks and tables are wider than one uint64
_WIDE = {"cyclic13-x-cyclic5": product(cyclic(13), cyclic(5))}
_ALL = {**_SMALL, **_LARGE, **_WIDE}


@pytest.mark.parametrize("name", sorted(_ALL))
def test_components_match_union_find_reference(name):
    g = _ALL[name]
    got = [point_names(p) for p in connected_components(g)]
    assert len(got) == len(set(got))
    assert set(got) == set(groupoid_oracle._component_name_sets(g))


def _lectic(masks, n):
    return sorted(masks, key=lambda m: [m >> i & 1 for i in range(n)])


@pytest.mark.parametrize("name", sorted(_ALL))
def test_closure_matches_pair_reference(name):
    alg = to_algebra(_ALL[name])
    n = alg.carrier.size
    rng = random.Random(f"closure-{name}")
    masks = [0, 1 << n - 1, (1 << n) - 1]
    if n > 1:
        masks += [1 << i | 1 << j for i, j in (rng.sample(range(n), 2) for _ in range(8))]
    masks += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(16)]
    fast, slow = groupoid._Closure(alg), groupoid_oracle.PairClosure(alg)
    assert [fast.close(m) for m in masks] == [slow.close(m) for m in masks]
    if n >= 64:
        assert any(m >> 63 & 1 for m in masks)


@pytest.mark.parametrize("name", ["dihedral12-x-cyclic2", "cyclic13-x-cyclic5"])
def test_next_closure_lists_match_pair_reference(name):
    alg = to_algebra(_ALL[name])
    cap = groupoid.MAX_CLOSED_SETS
    fast = list(groupoid._next_closure_masks(groupoid._Closure(alg), cap))
    assert fast == list(groupoid._next_closure_masks(groupoid_oracle.PairClosure(alg), cap))
    assert fast[-1] == (1 << alg.carrier.size) - 1


def test_subgroupoids_above_64_morphisms():
    g = _WIDE["cyclic13-x-cyclic5"]  # cyclic of order 65: one subgroup per divisor
    subs = enumerate_subgroupoids(g, max_carrier=65)
    assert [len(s.members) for s in subs] == [0, 1, 13, 5, 65]
    assert subs[-1].members == frozenset(g.morphism_names())


@pytest.mark.parametrize("name", sorted(_SMALL))
def test_scan_matches_zero_one_projections(name):
    alg = to_algebra(_SMALL[name])
    n = alg.carrier.size
    want = _lectic(zero_one_projections(alg, DEFAULT_TOL, 2**n), n)
    assert groupoid._scanned_masks(alg) == want


def test_cross_checked_enumeration_packs_the_supports_once(monkeypatch):
    calls = []
    pack = groupoid._support_masks
    monkeypatch.setattr(groupoid, "_support_masks", lambda alg: calls.append(alg) or pack(alg))
    alg = to_algebra(dihedral(4))
    assert groupoid.enumerate_projections(alg, cross_check=True) == groupoid._scanned_masks(alg)
    assert len(calls) == 2  # one for the enumeration with its cross-check, one for the scan


def test_forced_cross_check_above_limit_raises_the_scan_limit():
    alg = to_algebra(cyclic(groupoid.BRUTE_FORCE_LIMIT + 1))
    with pytest.raises(ResourceLimit) as want:
        zero_one_projections(alg, DEFAULT_TOL, 2**groupoid.BRUTE_FORCE_LIMIT)
    with pytest.raises(ResourceLimit) as got:
        groupoid.enumerate_projections(alg, cross_check=True)
    assert str(got.value) == str(want.value)
    with pytest.raises(ResourceLimit):
        brute_force_subgroupoids(cyclic(groupoid.BRUTE_FORCE_LIMIT + 1))


def _perturbed_algebras(seed: int) -> list:
    """Groupoid algebras with a few mult pairs flipped, and sparse random rel
    algebras: their closed sets are often not projections."""
    rng = np.random.default_rng(seed)
    out = []
    for g in (cyclic(6), dihedral(4), product(interval(), cyclic(2))):
        alg = to_algebra(g)
        mult = alg.mult.payload.copy()
        flips = rng.integers(0, mult.size, size=int(rng.integers(1, 4)))
        mult.flat[flips] = ~mult.flat[flips]
        out.append(FrobeniusAlgebra(alg.carrier, Morphism(alg.mult.dom, alg.carrier, mult), alg.unit))
    for d in (3, 6, 8):
        alg = to_algebra(cyclic(d))
        mult = rng.random(alg.mult.payload.shape) < rng.uniform(0.02, 0.2)
        unit = rng.random((d, 1)) < 0.5
        out.append(FrobeniusAlgebra(
            alg.carrier, Morphism(alg.mult.dom, alg.carrier, mult),
            Morphism(alg.unit.dom, alg.carrier, unit),
        ))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_exact_projection_test_matches_float_products(seed):
    """_Closure.is_projection, read from the byte tables, against the float32
    projection_mask on every mask, and the filtered Next-Closure list
    against the 0/1 scan."""
    verdicts = set()
    for alg in _perturbed_algebras(seed):
        n = alg.carrier.size
        ctx = groupoid._Closure(alg)
        rows = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(np.float32)
        want = projection_mask(alg, rows).tolist()
        assert [ctx.is_projection(m) for m in range(1 << n)] == want
        closed = list(groupoid._next_closure_masks(ctx, groupoid.MAX_CLOSED_SETS))
        verdicts.update(ctx.is_projection(m) for m in closed)
        assert groupoid.enumerate_projections(alg, cross_check=True) == [
            m for m in closed if want[m]
        ]
    assert verdicts == {True, False}  # some closed sets are not projections


# -- the int law check against the name-keyed reference --------------------


def _corrupted(doc: dict, rng: random.Random) -> dict:
    """doc with one to three random defects: a wrong composite, a missing,
    extra, repeated, unknown or short entry, a retyped morphism, or a
    changed, missing or undeclared identity or inverse."""
    doc = {
        **doc,
        "morphisms": [dict(m) for m in doc["morphisms"]],
        "compose": [list(entry) for entry in doc["compose"]],
    }
    names = [m["name"] for m in doc["morphisms"]]
    compose = doc["compose"]
    rng.shuffle(compose)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["composite"] * 4 + ["drop"] * 2 + [
            "extra", "retype", "identity", "inverse", "undeclare", "repeat", "unknown", "short",
        ])
        entry = rng.choice([e for e in compose if len(e) == 3] or [None])
        if kind == "composite" and entry:
            entry[2] = rng.choice(names)
        elif kind == "drop" and entry:
            compose.remove(entry)
        elif kind == "extra":
            taken = {tuple(e[:2]) for e in compose}
            free = [(f, g) for f in names for g in names if (f, g) not in taken]
            if free:
                compose.append([*rng.choice(free), rng.choice(names)])
        elif kind == "retype":
            m = rng.choice(doc["morphisms"])
            m[rng.choice(["dom", "cod"])] = rng.choice(doc["objects"])
        elif kind in ("identity", "inverse"):
            field = "identities" if kind == "identity" else "inverses"
            declared = dict(doc.get(field) or {})
            if declared:
                key = rng.choice(sorted(declared))
                choice = rng.random()
                if choice < 0.15:
                    del declared[key]
                else:
                    declared[key] = "nowhere" if choice < 0.3 else rng.choice(names)
                doc[field] = declared
        elif kind == "undeclare":
            doc.pop(rng.choice(["identities", "inverses"]), None)
        elif kind == "repeat" and entry:
            compose.append([entry[0], entry[1], rng.choice(names)])
        elif kind == "unknown" and entry:
            entry[rng.randrange(3)] = "nowhere"
        elif kind == "short" and entry:
            compose[compose.index(entry)] = entry[:2]
    return doc


def _law_outcome(check, doc):
    try:
        return check(doc)
    except ParseError as exc:
        return ("ParseError", str(exc))


def test_law_check_matches_name_keyed_reference():
    fixtures = ["cyclic1", "cyclic3", "cyclic6", "klein4", "symmetric3", "quaternion8",
                "dihedral4", "interval", "two-intervals", "interval-x-cyclic2",
                "interval-x-interval", "cyclic8-plus-cyclic8"]
    seen = set()
    for name in fixtures:
        base = _SMALL[name].to_doc()
        for seed in range(30):
            rng = random.Random(f"laws-{name}-{seed}")
            doc = _corrupted(base, rng)
            if seed % 2:
                doc.pop("identities", None)
                doc.pop("inverses", None)
            want = _law_outcome(groupoid_oracle.law_violations, doc)
            assert _law_outcome(groupoid_violations, doc) == want, (name, seed)
            seen.update([want[0]] if isinstance(want, tuple) else {v.law for v in want} or {"none"})
    assert seen >= {"ParseError", "composability", "composition-typing", "totality",
                    "associativity", "identity", "inverse", "none"}


@pytest.mark.parametrize("name", sorted(_SMALL) + sorted(_LARGE))
def test_law_check_passes_every_fixture_like_the_reference(name):
    doc = (_SMALL.get(name) or _LARGE[name]).to_doc()
    assert groupoid_violations(doc) == groupoid_oracle.law_violations(doc) == []
    undeclared = {k: v for k, v in doc.items() if k not in ("identities", "inverses")}
    assert validate(undeclared).inverses == validate(doc).inverses
