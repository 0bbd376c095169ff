"""Run one projlat CLI job in this fresh interpreter and report how it went.

usage: python3 perfbench/job.py SRC TRACE OUT ERR -- CLI-ARGS...

SRC is the directory that must provide projlat, TRACE is 0 or 1, and the
job's standard output and error go to the files OUT and ERR. The last line
printed is one JSON record: the time to import projlat.cli, the time of
projlat.cli.main from argument parsing to the flushed last byte of output,
the exit code or the exception that escaped main, the peak resident set and
the CPU time of this interpreter, and with TRACE 1 the layer figures.
"""
import sys
import time

t_start = time.perf_counter()
import projlat.cli  # noqa: E402  (timed: this is the set-up a user waits for)

t_imported = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    src, trace, out_path, err_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    where = os.path.realpath(projlat.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        print(f"projlat was imported from {where}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.install()
        run = tracer.wrap(tracing.ROOT, projlat.cli.main)
    else:
        run = projlat.cli.main
    exception = None
    code = None
    real_out, real_err = sys.stdout, sys.stderr
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        sys.stdout, sys.stderr = out, err
        t0 = time.perf_counter()
        try:
            code = run(argv)
        except Exception as exc:  # the job's outcome is reported, not raised
            exception = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        out.flush()
        t1 = time.perf_counter()
        sys.stdout, sys.stderr = real_out, real_err
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "import_s": t_imported - t_start,
        "main_s": t1 - t0,
        "exit": code,
        "exception": exception,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "trace": tracing.report(tracer) if tracer is not None else None,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
