"""Document round-trips for every value and report kind."""

import functools
import io
import json
import random

import numpy as np
import pytest

from projlat import (
    ParseError,
    ProjectionPoset,
    REPORT_KINDS,
    Tolerance,
    algebra_from_doc,
    algebra_to_doc,
    basis_algebra,
    bi_order_check,
    build_poset,
    check_axioms,
    check_orthogonality_axioms,
    commute_glb_equivalence,
    compare_orders,
    copyables_report,
    cyclic,
    detect_document,
    dihedral,
    dump_json,
    enumerate_subgroupoids,
    fhilb_morphism,
    fhilb_object,
    groupoid_from_doc,
    groupoid_to_doc,
    inclusion_poset,
    interval,
    klein4,
    lattice_report,
    load_json,
    matrix_from_doc,
    matrix_to_doc,
    morphism_from_doc,
    morphism_to_doc,
    object_from_doc,
    object_to_doc,
    ore_crossvalidate,
    orthocomplement_probe,
    pants_algebra,
    parse_report,
    point_from_matrix,
    product,
    random_projection,
    rel_morphism,
    rel_object,
    related_pairs,
    subgroupoid_points,
    tensor_algebras,
    to_algebra,
    zero_one_points,
)
from lattice_oracle import bound_table
from projlat import errors
from projlat.errors import Report

TOL = Tolerance(1e-9)


def through_json(doc: dict) -> dict:
    return load_json(dump_json(doc))


def test_object_docs_round_trip():
    for obj in (fhilb_object(3), rel_object(2, ("a", "b")), rel_object(4)):
        back = object_from_doc(through_json(object_to_doc(obj)))
        assert back == obj
        assert back.labels == obj.labels


def test_rel_labels_rejected_on_fhilb():
    doc = object_to_doc(fhilb_object(2))
    doc["labels"] = ["x", "y"]
    with pytest.raises(ParseError):
        object_from_doc(doc)


def test_morphism_docs_round_trip_exactly():
    m = fhilb_morphism(
        fhilb_object(2), fhilb_object(2), np.array([[1 + 2j, 0], [0.5, -1j]])
    )
    back = morphism_from_doc(through_json(morphism_to_doc(m)))
    assert np.array_equal(back.payload, m.payload)

    r = rel_morphism(rel_object(3), rel_object(2), {(0, 1), (2, 0)})
    back = morphism_from_doc(through_json(morphism_to_doc(r)))
    assert frozenset(related_pairs(back)) == frozenset(related_pairs(r))


def test_algebra_docs_round_trip():
    for alg in (to_algebra(klein4()), pants_algebra(2)):
        back = algebra_from_doc(through_json(algebra_to_doc(alg)))
        assert back.same_algebra(alg)
        assert back.carrier.labels == alg.carrier.labels


def test_groupoid_docs_round_trip_through_validation():
    g = product(interval(), cyclic(2))
    back = groupoid_from_doc(through_json(groupoid_to_doc(g)))
    assert back.to_doc() == g.to_doc()


def test_matrix_docs_round_trip():
    m = np.array([[0.5, 1j], [-1j, 0.25]])
    assert np.array_equal(matrix_from_doc(through_json(matrix_to_doc(m))), m)


def test_detect_document_classifies():
    assert detect_document(groupoid_to_doc(klein4())) == "groupoid"
    assert detect_document(algebra_to_doc(pants_algebra(2))) == "algebra"
    assert detect_document(matrix_to_doc(np.eye(2))) == "matrix"
    assert detect_document(check_axioms(pants_algebra(2)).to_dict()) == "report"
    with pytest.raises(ParseError):
        detect_document({"stuff": 1})
    with pytest.raises(ParseError):
        load_json("{not json")


def all_reports():
    g = interval()
    alg = to_algebra(g)
    subs = enumerate_subgroupoids(g)
    mult = build_poset(alg, subgroupoid_points(alg, subs), TOL)
    incl = inclusion_poset(alg, subgroupoid_points(alg, subs), TOL)
    bb = basis_algebra(2)
    tb = tensor_algebras(bb, bb, TOL)
    fam = zero_one_points(bb)
    return [
        check_axioms(alg),
        copyables_report(alg),
        check_orthogonality_axioms(mult),
        commute_glb_equivalence(alg, mult, TOL),
        orthocomplement_probe(incl),
        lattice_report(incl),
        compare_orders(mult, incl),
        ore_crossvalidate([("klein4", klein4()), ("dihedral4", dihedral(4))]),
        bi_order_check(tb, fam, fam, TOL),
    ]


def test_every_report_kind_round_trips_losslessly():
    reports = all_reports()
    seen = set()
    for rep in reports:
        doc = rep.to_dict()
        seen.add(doc["kind"])
        again = parse_report(through_json(doc))
        assert again == rep
        assert again.to_dict() == doc
    assert seen == set(REPORT_KINDS) - {"cli_report"}


def _cellwise(value):
    """The report encoding with one call per cell: reports become documents,
    tuples lists, and mappings keep their keys and order."""
    if isinstance(value, Report):
        doc = {"kind": value.kind} if value.kind else {}
        return {**doc, **{k: _cellwise(getattr(value, k)) for k in value.doc_keys}}
    if isinstance(value, (tuple, list)):
        return [_cellwise(x) for x in value]
    if isinstance(value, dict):
        return {k: _cellwise(v) for k, v in value.items()}
    return value


def test_encoding_copies_scalar_rows_like_the_cellwise_reference(monkeypatch):
    g = product(klein4(), klein4())
    alg = to_algebra(g)
    big = lattice_report(inclusion_poset(alg, subgroupoid_points(alg, enumerate_subgroupoids(g))))
    for rep in all_reports() + [big]:
        assert rep.to_dict() == _cellwise(rep)
    doc = big.to_dict()
    a, b = big.names[1], big.names[2]
    doc["meet_table"][a][b] = doc["names"][0] = "changed"
    assert big.meet_table[a][b] != "changed" and big.names[0] != "changed"
    calls = []
    encode = errors._encode
    monkeypatch.setattr(errors, "_encode", lambda v: calls.append(1) or encode(v))
    big.to_dict()
    n = len(big.names)
    assert n == 68 and len(calls) < 20 * n  # the cell-by-cell encoding makes over 2 * n * n


def _named_bounds(poset, bound) -> dict:
    """bound_table's rows keyed by name, in name order, None for no bound."""
    names = sorted(poset.names)
    at = {name: k for k, name in enumerate(poset.names)}
    table = bound_table(np.ascontiguousarray(bound))
    return {a: {b: poset.names[m] if (m := table[at[a], at[b]]) >= 0 else None for b in names}
            for a in names}


def table_posets():
    g = interval()
    alg = to_algebra(g)
    subs = enumerate_subgroupoids(g)
    pants = pants_algebra(4)
    rank2 = [point_from_matrix(pants, random_projection(4, 2, seed=s), f"r{s}") for s in (31, 32)]
    vee = np.array([[1, 1, 1], [0, 1, 0], [0, 0, 1]], dtype=bool)  # two atoms, no join
    orth = np.zeros((3, 3), dtype=bool)
    orth[0], orth[:, 0] = True, True
    return [
        build_poset(alg, subgroupoid_points(alg, subs), TOL),
        inclusion_poset(alg, subgroupoid_points(alg, subs), TOL),
        build_poset(pants, rank2, TOL),
        ProjectionPoset.from_relations([None] * 3, ["z", "b", "a"], vee, orth, 0),
    ]


def test_lattice_tables_are_name_rows():
    """meet_table and join_table are rows in name order that equal the
    oracle's bounds, and they come back equal through a document."""
    for poset in table_posets():
        rep = lattice_report(poset)
        names = sorted(poset.names)
        for table, want in ((rep.meet_table, _named_bounds(poset, poset.leq.T)),
                            (rep.join_table, _named_bounds(poset, poset.leq))):
            assert list(table) == names
            assert all(list(row) == names for row in table.values())
            assert table == want
        again = parse_report(through_json(rep.to_dict()))
        assert again.meet_table == rep.meet_table and again.join_table == rep.join_table


def test_cli_report_kind_round_trips():
    doc = {"kind": "cli_report", "command": "validate", "data": {"passed": True}}
    assert parse_report(doc).to_dict() == doc


def test_unknown_kind_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_report({"kind": "mystery"})


@functools.cache
def report_docs():
    return {rep.kind: through_json(rep.to_dict()) for rep in all_reports()}


@pytest.mark.parametrize(
    "bad",
    [
        lambda docs: {"kind": "axiom_report"},
        lambda docs: {**docs["lattice_report"], "names": 5},
        lambda docs: {**docs["lattice_report"], "meet_table": 5},
        lambda docs: {**docs["lattice_report"], "join_table": {"a": 5}},
        lambda docs: {**docs["probe_report"], "entries": [5]},
        lambda docs: {**docs["equivalence_report"], "pairs": [{"left": "a"}]},
    ],
    ids=["fields-missing", "names-not-a-list", "table-not-a-mapping", "row-not-a-mapping",
         "entry-not-a-mapping", "nested-fields-missing"],
)
def test_malformed_report_is_a_parse_error(bad):
    with pytest.raises(ParseError):
        parse_report(bad(report_docs()))


def test_dump_json_is_deterministic():
    doc = check_axioms(to_algebra(klein4())).to_dict()
    assert dump_json(doc) == dump_json(json.loads(json.dumps(doc)))
    assert dump_json(doc).endswith("\n")


# -- the row-wise writer against json.dumps ----------------------------------


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_writer_matches_json_dumps_on_every_report_kind():
    reports = all_reports() + [lattice_report(build_poset(basis_algebra(3), zero_one_points(basis_algebra(3)), TOL))]
    for rep in reports:
        doc = rep.to_dict()
        assert dump_json(doc) == _reference(doc), doc["kind"]
    envelope = {"kind": "cli_report", "command": "lattice", "data": {r.kind: r.to_dict() for r in reports}}
    assert dump_json(envelope) == _reference(envelope)


_SPECIAL = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308,
    2**63, -(2**64) - 1, 10**40, True, False, None, 0, -1, "", "é中", "\U0001f600",
    "tab\tnew\nline\x00\x1f\x7f", 'quote" back\\slash', "{a,b}", "plain",
]


def _random_value(rng: random.Random, depth: int):
    roll = rng.random()
    if depth >= 4 or roll < 0.35:
        return rng.choice(_SPECIAL + [rng.uniform(-1e6, 1e6), rng.randint(-(10**30), 10**30)])
    keys = [rng.choice(["a", "b", "zz", "é", "", "k1", "K", "{x}", "\n"]) for _ in range(rng.randint(0, 5))]
    if roll < 0.5:  # a row of names, as in a meet table
        names = [rng.choice(_SPECIAL[16:]) for _ in range(rng.randint(0, 6))]
        return dict(zip(keys, names)) if rng.random() < 0.5 else names
    if roll < 0.75:
        return {k: _random_value(rng, depth + 1) for k in keys}
    return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 5))]


@pytest.mark.parametrize("seed", range(40))
def test_writer_matches_json_dumps_on_random_documents(seed):
    rng = random.Random(seed)
    doc = {"root": _random_value(rng, 0), "rows": {k: _random_value(rng, 1) for k in "abc"}}
    want = _reference(doc)
    assert dump_json(doc) == want
    out = io.StringIO()
    assert dump_json(doc, out) is None
    assert out.getvalue() == want


@pytest.mark.parametrize(
    "doc",
    [{}, [], "text", 3, None, {"a": {}}, [[]], [[], {}], {"x": [None]}, {"t": (1, (2, "b"))},
     {1: "int key", 2.5: "float key"}, {True: 1}, {None: [1]}, {"é": {"\x01": "\x02"}}],
    ids=repr,
)
def test_writer_matches_json_dumps_on_edge_documents(doc):
    assert dump_json(doc) == _reference(doc)


def test_writer_rejects_what_json_dumps_rejects():
    for doc in ({"a": 1, 2: "b", "c": [1]}, {"a": {1, 2}}, {"a": [object()]}):
        with pytest.raises(TypeError):
            _reference(doc)
        with pytest.raises(TypeError):
            dump_json(doc)
