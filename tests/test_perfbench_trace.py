"""The benchmark's traced jobs behave like its untraced ones.

perfbench/job.py runs one CLI job in a fresh interpreter, and with TRACE 1
perfbench/tracing.py first wraps projlat functions by name. A renamed or
moved function would make that mode crash or change what the job prints;
these tests run each job both ways and compare.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _job(tmp_path, trace: str, argv: list[str]) -> tuple[dict, bytes, bytes]:
    out, err = tmp_path / f"out{trace}", tmp_path / f"err{trace}"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "job.py"), str(SRC), trace, str(out), str(err),
         "--", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (r.returncode, r.stderr) == (0, "")
    return json.loads(r.stdout.splitlines()[-1]), out.read_bytes(), err.read_bytes()


@pytest.mark.parametrize(
    "argv, span",
    [
        (["lattice", "basis4", "--order", "mult"], "order.lattice_report"),
        (["validate", "klein4"], "groupoid.validate"),
    ],
    ids=["lattice", "validate"],
)
def test_traced_job_matches_untraced(tmp_path, argv, span):
    argv = [*argv, "--format", "structured"]
    plain, plain_out, plain_err = _job(tmp_path, "0", argv)
    traced, traced_out, traced_err = _job(tmp_path, "1", argv)
    assert plain["exception"] is None and traced["exception"] is None
    assert plain["exit"] == traced["exit"] == 0
    assert (traced_out, traced_err) == (plain_out, plain_err)
    assert plain["trace"] is None
    assert traced["trace"][f"{span}.calls"] >= 1 and traced["trace"]["cli.calls"] == 1
