"""Command line behavior: exit codes, formats, bundles, file inputs."""

import contextlib
import copy
import io
import json
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupoid_oracle
from projlat import (
    DEFAULT_TOL,
    REL,
    FrobeniusAlgebra,
    ResourceLimit,
    check_axioms,
    cyclic,
    dihedral,
    dump_json,
    enumerate_subgroupoids,
    interval,
    klein4,
    load_json,
    pants_algebra,
    parse_report,
    product,
    random_projection,
    rel_morphism,
    rel_object,
    subgroupoid_points,
    tensor_objects,
    to_algebra,
    unit_object,
)
from projlat import cli, groupoid
from projlat.backend import is_index
from projlat.cli import main
from projlat.frobenius import zero_one_projections
from projlat.groupoid import enumerate_projections
from projlat.serialize import algebra_to_doc, groupoid_to_doc
from projlat.tensoralg import tensor_algebras
from test_golden import ARGPARSE_OWNED, GOLDEN


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- validate ---------------------------------------------------------------


def test_validate_builtin_groupoid(capsys):
    code, out, _ = run(["validate", "klein4"], capsys)
    assert code == 0
    assert "passed: yes" in out


def test_validate_broken_builtin_names_the_law(capsys):
    code, out, _ = run(["validate", "broken-inverse"], capsys)
    assert code == 1
    assert "inverse" in out


def test_validate_algebra_reports_residuals(capsys):
    code, out, _ = run(["validate", "pants2", "--backend", "fhilb"], capsys)
    assert code == 0
    assert "associativity" in out


def test_validate_pants6_residuals_are_exact_zeros(capsys):
    code, out, _ = run(["validate", "pants6", "--format", "structured"], capsys)
    assert code == 0
    axioms = parse_report(load_json(out)).data["axioms"]
    assert len(axioms["residuals"]) == 11
    assert all(r == 0.0 for r in axioms["residuals"].values())


def test_backend_assertion_mismatch(capsys):
    code, _, err = run(["validate", "pants2", "--backend", "rel"], capsys)
    assert code == 2
    assert "fhilb" in err


def test_unknown_input_lists_builtins(capsys):
    code, _, err = run(["validate", "nope"], capsys)
    assert code == 2
    assert "builtin" in err


def test_malformed_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(["validate", str(bad)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv", [["validate"], ["lattice", "--order", "mult"], ["tensor", "klein4"]], ids=lambda a: a[0]
)
def test_unreadable_input_is_exit_2(tmp_path, capsys, argv):
    code, out, err = run([*argv, str(tmp_path)], capsys)  # a directory
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_deeply_nested_json_is_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(["validate", str(deep)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth") and err.count("\n") == 1


def _bad_carrier(doc):
    doc["carrier"] = {"backend": "rel", "size": 3}  # mult and unit say 2


def _pair_outside_carrier(doc):
    doc["unit"]["payload"].append([0, 5])


def _unit_index_is_a_float(doc):
    doc["unit"]["payload"] = [[0.7, 1]]


def _unit_index_is_a_string(doc):
    doc["unit"]["payload"] = [["0", 1]]


def _unit_index_is_a_bool(doc):
    doc["unit"]["payload"] = [[False, 0]]


def _unit_index_is_negative(doc):
    doc["unit"]["payload"] = [[0, -1]]


def _unit_is_one_row(doc):
    doc["unit"]["payload"] = [[row[0] for row in doc["unit"]["payload"]]]


def _mult_not_a_mapping(doc):
    doc["mult"] = 5


def _unit_not_a_mapping(doc):
    doc["unit"] = [1]


def _labels_not_a_list(doc):
    doc["carrier"]["labels"] = 5


def _labels_are_lists(doc):
    doc["carrier"]["labels"] = [[1], [2]]


def _kind_is_a_list(doc):
    doc["kind"] = ["algebra"]


def _compose_entry_not_a_list(doc):
    doc["compose"][0] = 5


def _objects_not_a_list(doc):
    doc["objects"] = 7


def _morphisms_not_a_list(doc):
    doc["morphisms"] = 7


def _identities_not_a_mapping(doc):
    doc["identities"] = 5


def _inverses_not_a_mapping(doc):
    doc["inverses"] = 5


def _sizes_are_floats(doc):
    doc["carrier"]["size"] = 2.5
    doc["mult"]["dom"]["size"] = 4.99
    doc["unit"]["dom"]["size"] = 1.9


def _size_is_a_string(doc):
    doc["carrier"]["size"] = "2"


@pytest.mark.parametrize(
    "target, mutate",
    [
        ("algebra", _bad_carrier),
        ("algebra", _pair_outside_carrier),
        ("algebra", _mult_not_a_mapping),
        ("algebra", _unit_not_a_mapping),
        ("algebra", _labels_not_a_list),
        ("algebra", _labels_are_lists),
        ("algebra", _kind_is_a_list),
        ("algebra", _unit_index_is_a_float),
        ("algebra", _unit_index_is_a_string),
        ("algebra", _unit_index_is_a_bool),
        ("algebra", _unit_index_is_negative),
        ("algebra", _sizes_are_floats),
        ("algebra", _size_is_a_string),
        ("pants2", _unit_is_one_row),
        ("groupoid", _compose_entry_not_a_list),
        ("groupoid", _objects_not_a_list),
        ("groupoid", _morphisms_not_a_list),
        ("groupoid", _identities_not_a_mapping),
        ("groupoid", _inverses_not_a_mapping),
    ],
    ids=lambda x: x if isinstance(x, str) else x.__name__.strip("_"),
)
def test_malformed_document_is_a_parse_error(target, mutate, tmp_path, capsys):
    doc = {
        "algebra": lambda: algebra_to_doc(to_algebra(cyclic(2))),
        "pants2": lambda: algebra_to_doc(pants_algebra(2)),
        "groupoid": lambda: groupoid_to_doc(cyclic(2)),
    }[target]()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(dump_json(doc))
    code, _, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_groupoid_file_input(tmp_path, capsys):
    path = tmp_path / "k4.json"
    path.write_text(dump_json(groupoid_to_doc(klein4())))
    code, out, _ = run(["validate", str(path)], capsys)
    assert code == 0


def test_algebra_file_input(tmp_path, capsys):
    path = tmp_path / "pants.json"
    path.write_text(dump_json(algebra_to_doc(pants_algebra(2))))
    code, out, _ = run(["projections", str(path)], capsys)
    assert code == 0
    assert "count: 4" in out


def test_missing_path_falls_back_to_basename(capsys):
    code, _, _ = run(["validate", "fixtures/klein4"], capsys)
    assert code == 0


@pytest.mark.parametrize("name", ["dihedral4", "cyclic4", "klein4", "dihedral12"])
@pytest.mark.parametrize(
    "command", [["lattice", "--order", "mult"], ["projections"], ["copyables"]],
    ids=lambda c: c[0],
)
def test_algebra_document_gives_the_groupoid_output(command, name, tmp_path, capsys):
    """A builtin groupoid and its algebra document take different enumeration
    paths (Next-Closure against the subset scan) but must report the same."""
    path = tmp_path / f"{name}.json"
    path.write_text(dump_json(algebra_to_doc(to_algebra(cli._builtin(name)))))
    outputs = []
    for source in (name, str(path)):
        code, out, _ = run([command[0], source, *command[1:], "--format", "structured"], capsys)
        doc = load_json(out)
        assert doc["data"].pop("input") == source
        outputs.append((code, doc))
    assert outputs[0] == outputs[1]


# every builtin groupoid, and the groupoid documents of the benchmark's mult
# lattices, each with its compose list shuffled
_GROUPOID_BUILTINS = ["klein4", "interval", "symmetric3", "quaternion8", "z2xz4", "two-intervals",
                      *(f"cyclic{n}" for n in range(1, 17)), *(f"dihedral{n}" for n in range(3, 13))]
_GROUPOID_DOCUMENTS = {
    "z2x4.json": product(klein4(), klein4()),
    "interval-x-klein4.json": product(interval(), klein4()),
    "dihedral12.json": dihedral(12),
}


@pytest.mark.parametrize("name", _GROUPOID_BUILTINS + sorted(_GROUPOID_DOCUMENTS))
def test_groupoid_family_is_its_subgroupoids(name, tmp_path):
    """A groupoid's family is read off its algebra, as a rel algebra
    document's is: its subgroupoids, point for point, in lectic order."""
    spec = name
    if name in _GROUPOID_DOCUMENTS:
        doc = groupoid_to_doc(_GROUPOID_DOCUMENTS[name])
        random.Random(name).shuffle(doc["compose"])
        spec = str(tmp_path / name)
        (tmp_path / name).write_text(dump_json(doc))
    g, alg = cli._resolved(cli._resolve_raw(spec)[1])
    want = subgroupoid_points(alg, enumerate_subgroupoids(g, alg))
    got = cli._family(alg, DEFAULT_TOL, 10**6)
    assert [p.name for p in got] == [p.name for p in want]
    assert all(np.array_equal(p.vector, q.vector) for p, q in zip(got, want))


@pytest.mark.parametrize(
    "command",
    [["validate"], ["projections"], ["lattice", "--order", "mult"], ["copyables"],
     ["tensor", "cyclic2"]],
    ids=lambda c: c[0],
)
def test_algebra_document_failing_its_axioms_is_exit_1(command, tmp_path, capsys):
    """A C3 rel algebra whose unit relates nothing breaks unitality, so no
    subcommand may analyse it as an algebra."""
    doc = algebra_to_doc(to_algebra(cyclic(3)))
    doc["unit"]["payload"] = []
    path = tmp_path / "c3-empty-unit.json"
    path.write_text(dump_json(doc))
    code, out, err = run([command[0], str(path), *command[1:]], capsys)
    assert code == 1
    assert "unitality_left" in out + err


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("slot", ["left", "right"])
def test_tensor_checks_each_component_once(slot, broken, tmp_path, capsys, monkeypatch):
    """tensor law-checks an algebra document once, in either slot; a failing
    one exits 1 naming its slot and its failing axioms."""
    from projlat import tensoralg

    doc = algebra_to_doc(to_algebra(cyclic(3)))
    if broken:
        doc["unit"]["payload"] = []
    path = tmp_path / "c3.json"
    path.write_text(dump_json(doc))
    checked = []

    def counting(alg, tol=DEFAULT_TOL):
        checked.append(alg.carrier.size)
        return check_axioms(alg, tol)

    monkeypatch.setattr(cli, "check_axioms", counting)
    monkeypatch.setattr(tensoralg, "check_axioms", counting)
    args = [str(path), "cyclic2"] if slot == "left" else ["cyclic2", str(path)]
    code, out, err = run(["tensor", *args], capsys)
    if broken:
        assert code == 1
        assert f"{slot} component fails axioms" in out + err
        assert "unitality_left" in out + err
        assert checked == ([3] if slot == "left" else [2, 3])
    else:
        assert code == 0
        assert checked == ([3, 2, 6] if slot == "left" else [2, 3, 6])


@pytest.mark.parametrize(
    "command",
    [["projections"], ["lattice", "--order", "mult"], ["tensor", "cyclic2"], ["copyables"],
     ["validate"]],
    ids=lambda c: c[0],
)
def test_empty_carrier_algebra_document(command, tmp_path, capsys):
    """The rel algebra on the empty carrier passes its axioms and has one
    projection, the empty one, so batched products must handle d = 0."""
    empty = rel_object(0)
    alg = FrobeniusAlgebra(
        empty,
        rel_morphism(tensor_objects(empty, empty), empty, []),
        rel_morphism(unit_object(REL), empty, []),
    )
    path = tmp_path / "empty.json"
    path.write_text(dump_json(algebra_to_doc(alg)))
    code, out, _ = run([command[0], str(path), *command[1:]], capsys)
    assert code == 0
    if command[0] == "projections":
        assert "count: 1" in out
    if command[0] == "copyables":  # the empty set, named by its bits
        assert "copyables: [s0]" in out and "lemma_holds: yes" in out


_EMPTY_GROUPOID = {"objects": [], "morphisms": [], "compose": []}


@pytest.mark.parametrize(
    "command",
    [["validate"], ["projections"], ["lattice", "--order", "mult"],
     ["lattice", "--order", "inclusion"], ["lattice", "--order", "mult", "--format", "dot"],
     ["lattice", "--order", "inclusion", "--format", "dot"], ["copyables"], ["tensor", "klein4"]],
    ids=" ".join,
)
def test_empty_groupoid(command, tmp_path, capsys):
    """The groupoid with no objects is valid; its one subgroupoid and one
    copyable is the empty set {}, named by its (empty) set of labels."""
    path = tmp_path / "empty.json"
    path.write_text(dump_json(_EMPTY_GROUPOID))
    code, out, err = run([command[0], str(path), *command[1:]], capsys)
    assert (code, err) == (0, "")
    if command[0] == "projections":
        assert "count: 1" in out and "elements: [{}]" in out
    if command[0] == "copyables":
        assert "copyables: [{}]" in out and "lemma_holds: yes" in out
    if "dot" in command:
        assert '"{}";' in out


@pytest.mark.parametrize(
    "doc",
    [
        {"objects": [["x"]], "morphisms": [], "compose": []},
        {"objects": [5], "morphisms": [], "compose": []},
        {"objects": ["x"], "morphisms": [{"name": 1, "dom": "x", "cod": "x"}],
         "compose": [[1, 1, 1]]},
        {"objects": ["x"], "morphisms": [{"name": ["e"], "dom": "x", "cod": "x"}],
         "compose": [[["e"], ["e"], ["e"]]]},
    ],
    ids=["object-list", "object-int", "morphism-int", "morphism-list"],
)
@pytest.mark.parametrize("command", ["validate", "projections", "copyables"])
def test_non_string_groupoid_names_are_parse_errors(command, doc, tmp_path, capsys):
    """Names are never coerced: a name 1 is not the name "1"."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run([command, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "is not a string" in err


# The five rel algebras on carrier 2 that pass check_axioms: (mult pairs, unit pairs).
_CARRIER_TWO = [
    ([(0, 0), (1, 1), (2, 1), (3, 0)], [(0, 0)]),  # C2 with unit 0
    ([(0, 1), (1, 0), (2, 0), (3, 1)], [(0, 1)]),  # C2 with unit 1
    ([(0, 0), (3, 1)], [(0, 0), (0, 1)]),  # two objects, identities only
    ([(0, 0), (1, 1), (2, 1), (3, 0), (3, 1)], [(0, 0)]),  # 1.1 = {0, 1}: not special
    ([(0, 0), (0, 1), (1, 0), (2, 0), (3, 1)], [(0, 1)]),  # 0.0 = {0, 1}: not special
]


def _carrier_two_algebra(index, other):
    """A carrier-two rel algebra, tensored with a builtin unless other is None."""
    two = rel_object(2)
    mult, unit = _CARRIER_TWO[index]
    alg = FrobeniusAlgebra(
        two,
        rel_morphism(tensor_objects(two, two), two, mult),
        rel_morphism(unit_object(REL), two, unit),
    )
    if other is not None:
        alg = tensor_algebras(alg, to_algebra(cli._builtin(other))).algebra
    return alg


@pytest.mark.parametrize("other", [None, "cyclic2", "interval", "klein4"])
@pytest.mark.parametrize("index", range(len(_CARRIER_TWO)))
def test_rel_algebra_projections_are_the_zero_one_scan(index, other, tmp_path, capsys):
    """Next-Closure with the projection filter lists what the definitional
    scan finds, in lectic order, on special and non-special rel algebras."""
    alg = _carrier_two_algebra(index, other)
    assert check_axioms(alg).passed
    n = alg.carrier.size
    scanned = zero_one_projections(alg, DEFAULT_TOL, 2**n)
    lectic = sorted(scanned, key=lambda m: [m >> i & 1 for i in range(n)])
    assert enumerate_projections(alg, cross_check=False) == lectic
    path = tmp_path / "alg.json"
    path.write_text(dump_json(algebra_to_doc(alg)))
    code, out, _ = run(["projections", str(path), "--format", "structured"], capsys)
    assert code == 0
    assert load_json(out)["data"]["elements"] == sorted(f"s{m:0{n}b}" for m in lectic)
    for command in (["lattice", str(path), "--order", "mult"], ["tensor", str(path), "cyclic2"]):
        assert run(command, capsys)[0] == 0


@pytest.mark.parametrize("other", [None, "cyclic2", "interval", "klein4"])
@pytest.mark.parametrize("index", range(len(_CARRIER_TWO)))
def test_rel_scan_matches_zero_one_projections(index, other):
    """The bitmask scan of groupoid's cross-check against the 0/1 scan, on
    special and non-special rel algebras."""
    alg = _carrier_two_algebra(index, other)
    n = alg.carrier.size
    scanned = zero_one_projections(alg, DEFAULT_TOL, 2**n)
    assert groupoid._scanned_masks(alg) == sorted(scanned, key=lambda m: [m >> i & 1 for i in range(n)])


@pytest.mark.parametrize("other", [None, "cyclic2", "interval", "klein4"])
@pytest.mark.parametrize("index", range(len(_CARRIER_TWO)))
def test_copyables_on_unlabeled_rel_algebras(index, other, tmp_path, capsys):
    """copyables names the points of a carrier without labels by bit string,
    as projections does, and matches the per-mask reference."""
    alg = _carrier_two_algebra(index, other)
    assert alg.carrier.labels is None
    n = alg.carrier.size
    found = set(groupoid_oracle.copyable_masks(alg))
    expected = {0} | groupoid_oracle.component_masks(alg)
    path = tmp_path / "alg.json"
    path.write_text(dump_json(algebra_to_doc(alg)))
    code, out, _ = run(["copyables", str(path), "--format", "structured"], capsys)
    report = load_json(out)["data"]["report"]

    def names(masks):
        return sorted(f"s{m:0{n}b}" for m in masks)

    assert report["copyables"] == names(found)
    assert report["components"] == names(expected - {0})
    assert report["missing"] == names(expected - found)
    assert report["extra"] == names(found - expected)
    assert code == (0 if found == expected else 1)


def test_non_special_copyables_above_the_scan_limit_are_a_resource_limit(tmp_path, capsys):
    """An 18-element non-special algebra cannot be scanned exhaustively, so
    copyables refuses it instead of checking a few candidates."""
    alg = _carrier_two_algebra(3, "cyclic9")
    assert alg.carrier.size > groupoid.BRUTE_FORCE_LIMIT and not groupoid._is_special(alg)
    assert check_axioms(alg).passed
    for enumerate_ in (groupoid.enumerate_copyables, groupoid.copyables_report):
        with pytest.raises(ResourceLimit, match="2\\^18"):
            enumerate_(alg)
    path = tmp_path / "alg.json"
    path.write_text(dump_json(algebra_to_doc(alg)))
    code, out, err = run(["copyables", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "resource limit: non-special copyables scan 2^18 sets, cap 2^16\n"


def test_copyables_on_c2_document_without_labels(tmp_path, capsys):
    doc = algebra_to_doc(to_algebra(cyclic(2)))
    del doc["carrier"]["labels"]
    path = tmp_path / "c2.json"
    path.write_text(dump_json(doc))
    code, out, err = run(["copyables", str(path), "--format", "structured"], capsys)
    assert (code, err) == (0, "")
    report = load_json(out)["data"]["report"]
    assert report["copyables"] == ["s00", "s11"] and report["components"] == ["s11"]
    assert run(["projections", str(path)], capsys)[0] == 0


def test_rel_algebra_over_the_closed_set_cap(tmp_path, capsys):
    path = tmp_path / "c16.json"
    path.write_text(dump_json(algebra_to_doc(to_algebra(cyclic(16)))))
    code, _, err = run(["projections", str(path), "--max-enum", "3"], capsys)
    assert code == 1
    assert "more than 3 closed sets" in err


# -- projections ------------------------------------------------------------


def test_projections_counts_subgroupoids(capsys):
    code, out, _ = run(["projections", "klein4"], capsys)
    assert code == 0
    assert "count: 6" in out


def test_projections_sampling_agrees(capsys):
    code, out, _ = run(["projections", "pants2", "--seed", "3"], capsys)
    assert code == 0
    assert "all_agree: yes" in out


def test_projections_resource_cap(capsys):
    code, _, err = run(["projections", "pants3", "--max-enum", "10"], capsys)
    assert code == 1
    assert "resource" in err.lower() or "cap" in err


def test_projections_cap_counts_closed_sets(capsys):
    """--max-enum caps the closed sets of the fhilb closure path: pants3 has 15."""
    code, _, err = run(["projections", "pants3", "--max-enum", "10"], capsys)
    assert (code, err) == (1, "resource limit: more than 10 closed sets\n")
    assert run(["projections", "pants3", "--max-enum", "15"], capsys)[0] == 0


def test_projections_negative_seed_is_a_usage_error(capsys):
    code, out, err = run(["projections", "pants3", "--seed", "-5"], capsys)
    assert (code, out, err) == (2, "", "error: expected non-negative integer\n")


@pytest.mark.parametrize("n", [5, 6])
def test_projections_of_large_pants_by_closure(n, capsys):
    """M_5 and M_6 are past the 0/1 scan's cap; their families are the 2^n
    diagonal 0/1 projections."""
    code, out, _ = run(["projections", f"pants{n}", "--format", "structured"], capsys)
    assert code == 0
    data = load_json(out)["data"]
    diagonal = sum(1 << (i * n + i) for i in range(n))
    assert data["count"] == 2**n
    assert all(int(e[1:], 2) & ~diagonal == 0 for e in data["elements"])


def test_sampled_matrices_keep_the_rank_and_seed_rule():
    for n, seed in ((1, 0), (3, 11), (4, 2**33)):
        mats = cli._sampled_matrices(n, seed)
        assert len(mats) == 20 * (n + 1)
        for t, mat in enumerate(mats):
            assert np.array_equal(mat, random_projection(n, t % (n + 1), seed + t))


def test_projections_sampling_leaves_numpy_random_unimported():
    code = (
        "import contextlib, io, sys\n"
        "from projlat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['projections', 'pants3', '--seed', '1']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "False\n")


# -- lattice ----------------------------------------------------------------


def test_lattice_requires_order_flag(capsys):
    assert main(["lattice", "klein4"]) == 2


def test_lattice_inclusion_needs_groupoid(capsys):
    code, _, err = run(["lattice", "pants2", "--order", "inclusion"], capsys)
    assert code == 2
    assert "groupoid" in err


def test_lattice_structured_round_trips(capsys):
    code, out, _ = run(
        ["lattice", "klein4", "--order", "inclusion", "--format", "structured"], capsys
    )
    assert code == 0
    rep = parse_report(load_json(out))
    assert rep.command == "lattice"
    inner = parse_report(rep.data["lattice"])
    assert inner.distributive is False
    assert rep.data["hasse"]


def test_lattice_dot_is_deterministic(capsys):
    code1, out1, _ = run(["lattice", "symmetric3", "--order", "inclusion", "--format", "dot"], capsys)
    code2, out2, _ = run(["lattice", "symmetric3", "--order", "inclusion", "--format", "dot"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("digraph")
    assert "rankdir=BT" in out1


def test_lattice_mult_includes_equivalence(capsys):
    code, out, _ = run(["lattice", "interval", "--order", "mult", "--format", "structured"], capsys)
    assert code == 0
    rep = parse_report(load_json(out))
    assert rep.data["equivalence"]["consistent"] is True


def test_dot_rejected_outside_lattice(capsys):
    code, _, err = run(["validate", "klein4", "--format", "dot"], capsys)
    assert code == 2
    assert "dot" in err


_NOT_LATTICE = [["validate", "nosuch"], ["projections", "nosuch"], ["copyables", "nosuch"],
                ["tensor", "nosuch", "nosuch"], ["counterexamples", "all"]]


@pytest.mark.parametrize("command", _NOT_LATTICE, ids=lambda c: c[0])
def test_option_rules_come_before_any_input(command, capsys):
    """--format dot is refused on every subcommand but lattice, and then an
    invalid --tolerance, both before any input is read."""
    code, out, err = run([*command, "--tolerance", "-1", "--format", "dot"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: dot output is only available for the lattice subcommand\n"
    code, out, err = run([*command, "--tolerance", "-1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: epsilon must be a nonnegative float\n"


# -- copyables --------------------------------------------------------------


def test_copyables_lemma_failure_is_exit_1(capsys):
    code, out, _ = run(["copyables", "interval"], capsys)
    assert code == 1
    assert "lemma_holds: no" in out


def test_copyables_on_group_is_exit_0(capsys):
    code, out, _ = run(["copyables", "klein4"], capsys)
    assert code == 0
    assert "lemma_holds: yes" in out


def test_copyables_rejects_matrix_backend(capsys):
    code, _, err = run(["copyables", "basis2"], capsys)
    assert code == 2
    assert "rel" in err


# -- tensor -----------------------------------------------------------------


def test_tensor_rel_inputs(capsys):
    code, out, _ = run(["tensor", "cyclic2", "cyclic2", "--format", "structured"], capsys)
    assert code == 0
    rep = parse_report(load_json(out))
    assert rep.data["axioms"]["passed"] is True
    assert rep.data["bi_order"]["passed"] is True


def test_tensor_backend_mismatch(capsys):
    code, _, err = run(["tensor", "pants2", "klein4"], capsys)
    assert code == 2
    assert "tensor" in err


def test_tensor_large_family_skips_bi_order(capsys):
    code, out, _ = run(["tensor", "basis4", "basis3", "--format", "structured"], capsys)
    assert code == 0
    rep = parse_report(load_json(out))
    assert "skipped" in rep.data["bi_order"]


# -- counterexamples --------------------------------------------------------


@pytest.mark.parametrize(
    "bundle",
    ["klein4-nondistributive", "interval-noncommutative", "fhilb-nondistributive", "boolean-basis"],
)
def test_counterexample_bundles_verify(bundle, capsys):
    code, out, _ = run(["counterexamples", bundle], capsys)
    assert code == 0
    assert "verified: yes" in out


def test_counterexamples_all(capsys):
    code, out, _ = run(["counterexamples", "all", "--format", "structured"], capsys)
    assert code == 0
    doc = load_json(out)
    assert doc["data"]["verified"] is True
    assert len(doc["data"]["bundles"]) == 4


def test_unknown_bundle_is_usage_error(capsys):
    assert main(["counterexamples", "nope"]) == 2


# -- robustness -------------------------------------------------------------


_OTHER_VALUES = (None, True, 0, 2.5, "1", [], {})


@st.composite
def _mutated(draw, value):
    """value with one change at a drawn place: a value of another type, a key
    or item dropped, an integer pushed out of range, or a value nested in a list."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)) > 0:
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        value[key] = draw(_mutated(value[key]))
        return value
    kind = draw(st.sampled_from(["type", "drop", "range", "nest"]))
    if kind == "drop" and isinstance(value, (dict, list)) and value:
        del value[draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))]
        return value
    if kind == "range" and is_index(value):
        return value + draw(st.integers(1, 4)) if draw(st.booleans()) else -1 - value
    if kind == "nest":
        return [value]
    others = [v for v in _OTHER_VALUES if type(v) is not type(value)]
    return copy.deepcopy(draw(st.sampled_from(others)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_documents_end_with_an_exit_code(tmp_path_factory, data):
    """validate ends every mutated document with exit code 0, 1 or 2."""
    which = data.draw(st.sampled_from(["algebra", "pants2", "groupoid"]))
    doc = {
        "algebra": lambda: algebra_to_doc(to_algebra(cyclic(2))),
        "pants2": lambda: algebra_to_doc(pants_algebra(2)),
        "groupoid": lambda: groupoid_to_doc(cyclic(2)),
    }[which]()
    for _ in range(data.draw(st.integers(1, 3))):
        doc = data.draw(_mutated(doc))
    path = tmp_path_factory.mktemp("mutated") / "doc.json"
    path.write_text(dump_json(doc))
    assert main(["validate", str(path)]) in (0, 1, 2)


# -- wiring -----------------------------------------------------------------


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "projlat.cli", "validate", "cyclic3"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0


def test_structured_output_is_valid_sorted_json(capsys):
    code, out, _ = run(["validate", "klein4", "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "cli_report"
    assert out == dump_json(doc)


def test_groupoid_algebra_is_built_once_per_input(monkeypatch, capsys):
    """Each groupoid input's algebra is built once and handed to _family."""
    built = []

    def counted(g):
        built.append(g)
        return real(g)

    real = groupoid.to_algebra
    monkeypatch.setattr(groupoid, "to_algebra", counted)
    monkeypatch.setattr(cli, "to_algebra", counted)
    for argv, inputs in (
        (["lattice", "klein4", "--order", "inclusion"], 1),
        (["lattice", "interval", "--order", "mult"], 1),
        (["projections", "dihedral4"], 1),
        (["tensor", "klein4", "interval"], 2),
        (["counterexamples", "klein4-nondistributive"], 1),
        (["counterexamples", "interval-noncommutative"], 1),
    ):
        built.clear()
        assert main(argv) == 0
        assert len(built) == inputs, argv
    capsys.readouterr()


def test_validate_checks_a_builtin_groupoid_without_a_document(monkeypatch, capsys):
    """validate on a builtin groupoid law-checks its arrays; it neither
    writes the groupoid out as a document nor parses one."""

    def refused(*args):
        raise AssertionError("string document round trip")

    monkeypatch.setattr(groupoid.Groupoid, "to_doc", refused)
    monkeypatch.setattr(groupoid, "_parse_structure", refused)
    for name in ("klein4", "z2xz4", "dihedral12"):  # groups and a product, built as arrays
        assert main(["validate", name, "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["data"]["passed"] is True


# -- the command line reader against argparse --------------------------------


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _same_vars(got, want):
    # repr tells 1 from 1.0 and compares nan to nan
    return {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}


_COMMAND_TOKENS = (*cli._COMMANDS, "valid", "Validate", "lattices", "tensors", "nope", "")
_OPTION_TOKENS = (
    "--tolerance", "--tol", "--format", "--form", "--f", "--max-enum", "--max", "--max_enum",
    "--seed", "--s", "--backend", "--back", "--order", "--ord", "--tolerance=0.5",
    "--format=structured", "--max-enum=5", "--seed=3", "--backend=rel", "--order=mult",
    "-h", "--help", "--", "-", "-x", "--nope",
)
_VALUE_TOKENS = (
    "text", "structured", "dot", "xml", "mult", "inclusion", "rel", "fhilb", "0", "3", "1_000",
    "1.5", "1e-9", "nan", "inf", "abc", "", "-5", "-1e-9", "-inf", "a b",
    "klein4", "pants3", "dihedral4", "nope", "all", "klein4-nondistributive", "boolean-basis",
)
# (good, bad) values for each argument, keyed by option name or positional
# dest; the bad ones fail its type or choices, or argparse reads them as options
_VALUES = {
    "--tolerance": (("1e-9", "0.5", "nan", "3"), ("-1e-9", "-inf", "abc", "")),
    "--format": (("text", "structured", "dot"), ("xml", "-h")),
    "--max-enum": (("0", "5", "1_000"), ("-5", "1.5", "x")),
    "--seed": (("0", "3", "1_000"), ("-1", "1.5", "--")),
    "--backend": (("rel", "fhilb"), ("xml", "--help")),
    "--order": (("mult", "inclusion"), ("xml", "-")),
    "input": (("klein4", "pants3", "nope", "a b", ""), ("-", "--", "-x")),
    "left": (("klein4", "pants2"), ("-",)),
    "right": (("interval", "basis2"), ("--seed",)),
    "bundle": (("all", "klein4-nondistributive", "boolean-basis"), ("nope", "-h")),
}
_ANY_TOKEN = st.sampled_from(_COMMAND_TOKENS + _OPTION_TOKENS + _VALUE_TOKENS)


@st.composite
def _argv(draw):
    """An argv near the grammar: a well-formed one, with values drawn for
    each argument and up to three token edits, or a list of tokens drawn
    from commands, options and values."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(_ANY_TOKEN, max_size=8))
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, _, own = cli._COMMANDS[command]

    def value(name):
        good, bad = _VALUES[name]
        pick = draw(st.integers(0, 6))  # good 5 times in 7, bad once, any token once
        return draw(st.sampled_from(good if pick < 5 else bad) if pick < 6 else _ANY_TOKEN)

    parts = [[value(name)] for name, _ in own if not name.startswith("-")]
    for name, kw in cli._COMMON_ARGS + own:
        if name.startswith("-") and (kw.get("required") or draw(st.booleans())):
            parts.append([name, value(name)])
    argv = [command] + [t for part in draw(st.permutations(parts)) for t in part]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "repeat"]))
        if edit == "insert":
            argv.insert(at, draw(_ANY_TOKEN))
        elif at < len(argv) and edit == "replace":
            argv[at] = draw(_ANY_TOKEN)
        elif at < len(argv) and edit == "delete":
            del argv[at]
        elif at < len(argv):
            argv.append(argv[at])
    return argv


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(_argv())
def test_reader_agrees_with_argparse(argv):
    """The reader gives argparse's namespace, func included, or None."""
    got = cli._read_argv(argv)
    if got is not None:
        want = _argparse_vars(argv)
        assert want is not None, argv
        assert _same_vars(vars(got), want), argv


# the argv shapes of perfbench/run.py's jobs, which append --format structured
PERFBENCH_ARGV = (
    "validate pants5",
    "validate perfbench/_work/docs/direct-sum.json",
    "projections pants3 --seed 1804289383",
    "tensor pants2 basis2",
    "lattice basis5 --order mult",
    "lattice perfbench/_work/docs/z2x4.json --order mult",
    "lattice perfbench/_work/docs/z2x4.json --order inclusion",
    "copyables perfbench/_work/docs/copyables-z2x4.json",
    "tensor klein4 interval",
)


@pytest.mark.parametrize(
    "argv",
    [f"{c} --format {f}".split() for c in sorted(GOLDEN) for f in ("text", "structured")]
    + [f"{c} --format structured".split() for c in PERFBENCH_ARGV],
    ids=" ".join,
)
def test_golden_and_benchmark_argv_take_the_reader(argv):
    got = cli._read_argv(argv)
    assert got is not None
    assert _same_vars(vars(got), _argparse_vars(argv))


def test_reader_declines_what_argparse_owns():
    """Help, usage errors and argparse-only spellings all go to argparse."""
    for command in ARGPARSE_OWNED:
        assert cli._read_argv(command.split()) is None, command


def test_cli_import_and_canonical_run_leave_argparse_unloaded():
    code = (
        "import contextlib, io, sys\n"
        "import projlat.cli\n"
        "unwanted = ('argparse', 'gettext', 'locale')\n"
        "print([m for m in unwanted if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert projlat.cli.main(['lattice', 'klein4', '--order', 'inclusion']) == 0\n"
        "print([m for m in unwanted if m in sys.modules])\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n[]\n", "")

