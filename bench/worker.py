"""One workload process: set up, then run operations through ``bellkit.cli.main``.

``run.py`` starts this in a fresh interpreter for every measurement, so the
program's ``lru_cache`` state never carries over from one workload, or one
pass, to the next.  Protocol on standard output: the line ``READY <t>`` once
the first operation's inputs exist, then, unless ``--setup-only``, one JSON
object with the raw measurements.

All times, and the ``--seconds`` budget, are CPU time of this process
(``time.process_time``).  The loop is single-threaded, works in memory and
waits on nothing, so on an idle machine that equals wall time; on a shared
virtual machine it leaves out the time other tenants take, which otherwise
moves run-to-run figures by 10-20%.  ``t`` is the CPU time from the start of
the process, interpreter start-up included, until the first op is ready.  The program's own output is captured per
operation and never reaches this stream.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_bellkit():
    sys.path.insert(0, str(ROOT / "src"))
    from bellkit import cli

    expected = (ROOT / "src" / "bellkit").resolve()
    if Path(cli.__file__).resolve().parent != expected:
        raise SystemExit(f"worker: imported bellkit from {cli.__file__}, not {expected}")
    return cli


def call(cli, argv: list[str]) -> tuple[object, str, str]:
    """Run ``bellkit.cli.main(argv)``; return its status and captured output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:  # argparse exits instead of returning 2
        status = f"SystemExit({exc.code})"
    except Exception as exc:  # a failed op is counted, and the run goes on
        status = repr(exc)
    return status, out.getvalue(), err.getvalue()


def problem_with(op, status, out: str, err: str) -> str | None:
    """None if the op exited 0 and its output passes the op's check."""
    if status != 0:
        problem = f"exit {status}: {err[-200:]}"
    else:
        try:
            problem = op.check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
    return problem and f"{' '.join(op.argv)}: {problem}"


def measure(cli, ops: list, stream, seconds: float | None, limit: int | None) -> dict:
    """Run whole rounds until ``seconds`` of CPU time or ``limit`` ops."""
    latencies, failures, out_bytes = [], [], 0
    rounds_done = []  # [ops passed, busy seconds] per round
    limit = limit if limit is not None else float("inf")
    deadline = process_time() + (seconds if seconds is not None else float("inf"))
    busy = 0.0
    # Whole rounds only, so every run has the same mix of operations.
    while True:
        passed = 0
        for op in ops:
            if len(latencies) >= limit:
                break
            called = process_time()
            status, out, err = call(cli, op.argv)
            latency = process_time() - called
            latencies.append(latency)
            busy += latency
            out_bytes += len(out.encode())
            problem = problem_with(op, status, out, err)
            if problem:
                failures.append(problem)
            else:
                passed += 1
        rounds_done.append([passed, busy])
        if len(latencies) >= limit or process_time() >= deadline:
            break
        # writing the next round's inputs counts as that round's work
        begin = process_time()
        ops = next(stream)
        busy = process_time() - begin
    return {
        "latencies": latencies,
        "rounds": rounds_done,
        "failed": len(failures),
        "failures": failures[:5],
        "out_bytes": out_bytes,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="stop after this much CPU time")
    parser.add_argument("--ops", type=int, help="stop after this many operations")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = _import_bellkit()
    from tracer import Tracer
    from workloads import rounds

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        stream = rounds(args.workload, args.seed, workdir)
        ops = next(stream)
        print(f"READY {process_time()!r}", flush=True)
        if args.setup_only:
            return 0
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            result = measure(cli, ops, stream, args.seconds, args.ops)
        finally:
            if tracer:
                tracer.remove()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            result["layers"] = tracer.metrics()
            result["patched"] = tracer.patched
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
