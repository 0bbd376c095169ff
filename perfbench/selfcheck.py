"""Show that every output check rejects a deliberately wrong output.

usage: python3 perfbench/selfcheck.py

Runs each job of every workload once, untimed, checks that its real output
passes, then applies each mutation listed for the job to a copy of that
output and checks that the job's check now reports a problem. Exits 1 if a
real output fails or a mutation slips through.
"""
from __future__ import annotations

import copy
import json
import os
import random
import shutil
import sys

import run


def _interchange(delta):
    return _set(["data", "bi_order", "interchange_checked"], lambda n: n + delta)


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        return doc

    return mutate


def _break_meet(doc):
    """Change one entry of the meet table to another element's name."""
    table = doc["data"]["lattice"]["meet_table"]
    a = sorted(table)[-1]
    b = sorted(table[a])[-2]
    table[a][b] = a if table[a][b] != a else sorted(table)[0]
    return doc


def _drop_element(doc):
    lat = doc["data"]["lattice"]
    lat["names"] = lat["names"][:-1]
    doc["data"]["elements"] -= 1
    return doc


def _unclosed_element(doc):
    """Replace the largest element with itself minus one morphism."""
    names = doc["data"]["lattice"]["names"]
    k = max(range(len(names)), key=lambda i: len(names[i]))
    members = names[k][1:-1].split(",")
    names[k] = "{" + ",".join(sorted(members[1:])) + "}"
    return doc


def _add_components(doc):
    rep = doc["data"]["report"]
    rep["copyables"] = sorted(set(rep["copyables"]) | set(rep["components"]))
    return doc


def _off_diagonal(doc):
    """Replace the last projection with the matrix unit e_01 (bit 1 of the mask)."""
    elements = doc["data"]["elements"]
    elements[-1] = f"b{2:0{len(elements[-1]) - 1}b}"
    return doc


AXIOM_MUTATIONS = [
    ("an axiom fails", _set(["data", "axioms", "results", "symmetry"], False)),
    ("a residual of 1e-6", _set(["data", "axioms", "residuals", "associativity"], 1e-6)),
]

MUTATIONS = {
    "validate-pants5": AXIOM_MUTATIONS,
    "validate-pants4": AXIOM_MUTATIONS,
    "validate-direct-sum": AXIOM_MUTATIONS
    + [("an axiom missing", _set(
        ["data", "axioms", "results"],
        lambda r: {k: v for k, v in r.items() if k != "yanking_left"},
    ))],
    "validate-interval-x-dihedral6-algebra": AXIOM_MUTATIONS
    + [("a rel residual of 1", _set(["data", "axioms", "residuals", "symmetry"], 1.0))],
    "validate-dihedral12-x-cyclic2": [
        ("a violation", _set(["data", "violations"], [{"law": "associativity", "witness": []}])),
    ],
    "projections-pants3": [
        ("one fewer projection", _set(["data", "count"], lambda c: c - 1)),
        ("a non-diagonal projection", _off_diagonal),
        ("one disagreeing sample", _set(["data", "sampling", "agreements"], lambda a: a - 1)),
    ],
    "tensor-pants2-basis2": [
        ("interchange count off by one", _interchange(1)),
        ("wrong carrier", _set(["data", "carrier"], 9)),
    ],
    "tensor-dihedral6-cyclic2": [
        ("interchange count off by one", _interchange(-1)),
    ],
    "tensor-klein4-interval": [
        ("bi-order skipped", _set(["data", "bi_order"], {"skipped": "cap"})),
    ],
    "lattice-basis5-mult": [
        ("one changed meet entry", _break_meet),
        ("a Hasse edge missing", _set(["data", "hasse"], lambda e: e[1:])),
        ("not distributive", _set(["data", "lattice", "distributive"], False)),
    ],
    "lattice-basis6-mult": [
        ("one changed meet entry", _break_meet),
        ("one pair not commuting", _set(["data", "equivalence", "pairs", 0, "commute"], False)),
    ],
    "lattice-z2x4-mult": [
        ("subgroup count off by one", _drop_element),
        ("an element not closed", _unclosed_element),
    ],
    "lattice-dihedral12-mult": [("subgroup count off by one", _drop_element)],
    "lattice-interval-x-klein4-mult": [("an element not closed", _unclosed_element)],
    "lattice-z2x4-inclusion": [
        ("distributive for a non-cyclic group", _set(["data", "lattice", "distributive"], True)),
        ("subgroup count off by one", _drop_element),
    ],
    "lattice-cyclic16-inclusion": [
        ("not distributive for a cyclic group", _set(["data", "lattice", "distributive"], False)),
        ("an element not closed", _unclosed_element),
    ],
    "lattice-dihedral12-inclusion": [("subgroup count off by one", _drop_element)],
    "copyables-interval-x-klein4": [("a multi-object component added", _add_components)],
    "copyables-z2x4": [("the whole group dropped", _set(["data", "report", "copyables"], ["{}"]))],
    "copyables-cyclic8-plus-cyclic8": [
        ("one component dropped", _set(["data", "report", "copyables"], lambda c: c[:-1])),
    ],
    "copyables-dihedral12": [
        ("an extra subset", _set(["data", "report", "copyables"], lambda c: c + ["{r0}"])),
    ],
}


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "projlat", "cli.py")):
        print(f"no projlat sources under {run.SRC}", file=sys.stderr)
        return 2
    env = run._env()
    bad = 0
    try:
        for workload, make in run.WORKLOADS.items():
            shutil.rmtree(run.WORK, ignore_errors=True)
            os.makedirs(os.path.join(run.WORK, "docs"))
            os.makedirs(os.path.join(run.WORK, "out"))
            for job in make(random.Random(f"{workload}:1")):
                rec = run.run_job(job, 0, env)
                if job.known_fault:
                    print(f"{workload} {job.name}: known fault, {'; '.join(rec['problems'])[:120]}")
                    if not run.check_output(job, b"", "Traceback (most recent call last):\n"):
                        print(f"  NOT REJECTED: a traceback without an error line")
                        bad += 1
                    continue
                if rec["problems"]:
                    print(f"{workload} {job.name}: real output fails: {rec['problems'][:3]}")
                    bad += 1
                    continue
                out = json.loads(rec["output"])
                mutations = MUTATIONS.get(job.name, [])
                for label, mutate in mutations:
                    wrong = json.dumps(mutate(copy.deepcopy(out))).encode()
                    problems = run.check_output(job, wrong, "")
                    verdict = "rejected" if problems else "NOT REJECTED"
                    bad += not problems
                    first = problems[0][:90] if problems else ""
                    print(f"{workload} {job.name}: {label}: {verdict} ({first})")
                if not mutations:
                    print(f"{workload} {job.name}: real output passes (no mutation listed)")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print(f"{bad} check(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
