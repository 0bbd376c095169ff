"""The projlat benchmark: CLI jobs, each in a fresh interpreter, with checked outputs.

usage: python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; projlat is imported from its src/. The
benchmark writes the workload's input documents from --seed, then runs whole
rounds of the workload's jobs, one after the other, until --seconds have
passed (at least one round). Every job's output is checked against facts
computed apart from projlat (checks.py). The last line printed is one JSON
object: correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones,
from a run whose jobs carry the spans of tracing.py.

See README.md for the workloads, the metrics and reference figures.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
JOB_TIMEOUT_S = 120


class HarnessError(RuntimeError):
    """The benchmark itself could not run a job; no result is printed."""


@dataclass
class Job:
    name: str
    argv: list
    exit: int  # the exit code a correct program gives
    check: Callable  # (parsed structured output or None, stderr text) -> problems
    known_fault: bool = False  # fails today because of a fault named in CHANGES.md


def _doc(name: str, doc: dict) -> str:
    """Write a document under the work directory; returns its path from the root."""
    path = os.path.join(WORK, "docs", f"{name}.json")
    inputs.write(path, doc)
    return os.path.relpath(path, ROOT)


def _algebra(backend):
    return lambda out, err: checks.check_validate_algebra(out, backend)


def fhilb_laws(rng: random.Random) -> list:
    """Dense Kronecker temporaries in check_axioms; almost no order work."""
    blocks = [3, 3, 2, 1]
    rng.shuffle(blocks)
    ds = _doc("direct-sum", inputs.direct_sum_doc(blocks))
    sample_seed = rng.randrange(2**31)
    return [
        Job("validate-pants5", ["validate", "pants5"], 0, _algebra("fhilb")),
        Job("validate-pants4", ["validate", "pants4"], 0, _algebra("fhilb")),
        Job("validate-direct-sum", ["validate", ds], 0, _algebra("fhilb")),
        Job(
            "projections-pants3",
            ["projections", "pants3", "--seed", str(sample_seed)],
            0,
            lambda out, err: checks.check_projections_pants(out, 3),
        ),
        # both families are the 2^2 diagonal 0/1 projections
        Job(
            "tensor-pants2-basis2",
            ["tensor", "pants2", "basis2"],
            0,
            lambda out, err: checks.check_tensor(out, "fhilb", 4 * 2, 2**2, 2**2),
        ),
    ]


def mult_lattices(rng: random.Random) -> list:
    """Many small mult_points calls, n^2/n^3 scans in order, megabytes of output."""
    jobs = [
        Job(
            f"lattice-basis{n}-mult",
            ["lattice", f"basis{n}", "--order", "mult"],
            0,
            lambda out, err, n=n: checks.check_basis_lattice(out, n),
        )
        for n in (5, 6)
    ]
    for name, g in (
        ("z2x4", inputs.elementary_2(4)),
        ("interval-x-klein4", inputs.interval_times_klein4()),
        ("dihedral12", inputs.dihedral(12)),
    ):
        path = _doc(name, g.doc(rng))
        jobs.append(
            Job(
                f"lattice-{name}-mult",
                ["lattice", path, "--order", "mult"],
                0,
                lambda out, err, g=g: checks.check_groupoid_lattice(out, g, "mult"),
            )
        )
    return jobs


def rel_groupoids(rng: random.Random) -> list:
    """The rel backend's frozensets, Next-Closure with its cross-check, tensoralg."""
    jobs = []
    for name, g in (
        ("z2x4", inputs.elementary_2(4)),
        ("dihedral12", inputs.dihedral(12)),
        ("cyclic16", inputs.cyclic(16)),
    ):
        path = _doc(name, g.doc(rng))
        jobs.append(
            Job(
                f"lattice-{name}-inclusion",
                ["lattice", path, "--order", "inclusion"],
                0,
                lambda out, err, g=g: checks.check_groupoid_lattice(out, g, "inclusion"),
            )
        )
    for name, g in (
        ("z2x4", inputs.elementary_2(4)),
        ("interval-x-klein4", inputs.interval_times_klein4()),
        ("cyclic8-plus-cyclic8", inputs.disjoint_union(inputs.cyclic(8), inputs.cyclic(8))),
        ("dihedral12", inputs.dihedral(12)),
    ):
        path = _doc(f"copyables-{name}", g.doc(rng))
        _, all_single = checks.expected_copyables(g)
        jobs.append(
            Job(
                f"copyables-{name}",
                ["copyables", path],
                0 if all_single else 1,
                lambda out, err, g=g: checks.check_copyables(out, g),
            )
        )
    # |family| is the subgroupoid count: klein4 6, interval 5, D6 4+12+1, C2 3
    for left, right, carrier, fam_a, fam_b in (
        ("klein4", "interval", 4 * 4, 6, 5),
        ("dihedral6", "cyclic2", 12 * 2, 17, 3),
    ):
        jobs.append(
            Job(
                f"tensor-{left}-{right}",
                ["tensor", left, right],
                0,
                lambda out, err, c=carrier, a=fam_a, b=fam_b: checks.check_tensor(
                    out, "rel", c, a, b
                ),
            )
        )
    rel_alg = _doc(
        "interval-x-dihedral6-algebra",
        inputs.rel_algebra_doc(inputs.product(inputs.interval(), inputs.dihedral(6))),
    )
    d12xc2 = inputs.product(inputs.dihedral(12), inputs.cyclic(2))
    gpd = _doc("dihedral12-x-cyclic2", d12xc2.doc(rng))
    bad_carrier = _doc("bad-carrier", inputs.carrier_mismatch_doc())
    bad_compose = _doc("bad-compose-entry", inputs.bad_compose_entry_doc(rng))
    jobs += [
        Job("validate-interval-x-dihedral6-algebra", ["validate", rel_alg], 0, _algebra("rel")),
        Job(
            "validate-dihedral12-x-cyclic2",
            ["validate", gpd],
            0,
            lambda out, err: checks.check_validate_groupoid(out),
        ),
        Job("validate-bad-carrier", ["validate", bad_carrier], 2,
            lambda out, err: checks.check_error_line(err), known_fault=True),
        Job("validate-bad-compose-entry", ["validate", bad_compose], 2,
            lambda out, err: checks.check_error_line(err), known_fault=True),
    ]
    return jobs


WORKLOADS = {
    "fhilb-laws": fhilb_laws,
    "mult-lattices": mult_lattices,
    "rel-groupoids": rel_groupoids,
}


def _env() -> dict:
    env = dict(os.environ)
    # users import projlat from cached byte code; the warm-up import writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_job(job: Job, trace: int, env: dict) -> dict:
    out_path = os.path.join(WORK, "out", f"{job.name}.out")
    err_path = os.path.join(WORK, "out", f"{job.name}.err")
    cmd = [sys.executable, os.path.join(HERE, "job.py"), SRC, str(trace), out_path, err_path, "--"]
    try:
        proc = subprocess.run(
            cmd + job.argv + ["--format", "structured"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"job {job.name} gave no result within {JOB_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"job {job.name} did not run: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    with open(out_path, "rb") as fh:
        record["output"] = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    if record["exception"] is not None:
        record["problems"] = [f"exception escaped main: {record['exception']}"]
    elif record["exit"] != job.exit:
        tail = stderr.strip()[-300:]
        record["problems"] = [f"exit code {record['exit']}, want {job.exit}: {tail}"]
    else:
        record["problems"] = check_output(job, record["output"], stderr)
    return record


def check_output(job: Job, output: bytes, stderr: str) -> list:
    """The job's check on its structured output; output it cannot read is a problem too."""
    try:
        return job.check(json.loads(output) if output else None, stderr)
    except (KeyError, TypeError, ValueError, IndexError, StopIteration) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _rounds(jobs, trace, seconds, env, reference=None) -> list:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        records = []
        for job in jobs:
            rec = run_job(job, trace, env)
            if reference is not None and rec["output"] != reference[job.name]:
                rec["problems"].append("traced output differs from the untraced output")
            records.append(rec)
        rounds.append(records)
    return rounds


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(rounds) -> dict:
    return {
        # per-job medians over the rounds, summed over the workload's jobs
        "wall_s": sum(statistics.median(r["main_s"] for r in recs) for recs in zip(*rounds)),
        "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in rnd) for rnd in rounds),
        "setup_s": statistics.median(r["import_s"] for rnd in rounds for r in rnd),
    }


def per_layer(rounds, counts: set) -> dict:
    totals = []
    for rnd in rounds:
        t: dict = {}
        for rec in rnd:
            for k, v in rec["trace"].items():
                t[k] = t.get(k, 0) + v
            t["process.cpu_s"] = t.get("process.cpu_s", 0.0) + rec["cpu_s"]
            t["cli.output_mb"] = t.get("cli.output_mb", 0.0) + len(rec["output"]) / 1e6
        pairs = t.get("order.poset_pairs", 0)
        t["order.meet_join.per_pair"] = t.get("order.meet_join.calls", 0) / pairs if pairs else 0.0
        totals.append(t)
    names = set().union(*totals)
    # counts repeat exactly from round to round; median_low keeps them whole numbers
    return {
        k: (statistics.median_low if k in counts else statistics.median)([t[k] for t in totals])
        for k in names
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "docs"))
    os.makedirs(os.path.join(WORK, "out"))
    jobs = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    env = _env()
    warm = subprocess.run([sys.executable, "-c", "import projlat.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if warm.returncode != 0:
        raise HarnessError(f"projlat does not import from {SRC}: {warm.stderr.strip()[-2000:]}")
    spec = _spec()
    reference = None
    if trace:
        ref = _rounds(jobs, 0, 0, env)
        reference = {job.name: rec["output"] for job, rec in zip(jobs, ref[0])}
    rounds = _rounds(jobs, trace, seconds, env, reference)
    if trace:
        rounds_all = ref + rounds
        wanted = spec["per_layer"]
        counts = {m["name"] for m in wanted if m["unit"] == "count"}
        values = per_layer(rounds, counts)
    else:
        rounds_all = rounds
        wanted = spec["end_to_end"]
        values = end_to_end(rounds)
    failed = [(job, rec) for rnd in rounds_all for job, rec in zip(jobs, rnd) if rec["problems"]]
    print(f"workload {name} seed {seed}: {len(rounds)} rounds of {len(jobs)} jobs, "
          f"trace {trace}, attempted {len(rounds_all) * len(jobs)}, failed {len(failed)}")
    for job in jobs:
        problems = [rec["problems"] for j, rec in failed if j is job]
        if problems:
            tag = "known fault" if job.known_fault else "FAILED"
            print(f"  {tag} {job.name}, {len(problems)} times: {'; '.join(problems[0])[:400]}")
    for job, recs in zip(jobs, zip(*rounds)):
        times = [r["main_s"] for r in recs]
        print(f"  job {job.name}: median main {statistics.median(times):.4f} s over {len(times)}")
    if trace:
        print(f"  traced wall_s {end_to_end(rounds)['wall_s']:.4f} s")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for k, v in metrics.items():
        print(f"  {k} {v['value']} {v['unit']}")
    return {
        "correct": all(job.known_fault for job, _ in failed),
        "attempted": len(rounds_all) * len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "projlat", "cli.py")):
        print(f"no projlat sources under {SRC}; run from the root of a projlat checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
