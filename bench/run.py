"""The bellkit benchmark: a closed loop of CLI operations, one client.

    python3 bench/run.py --workload roundtrip|certify|series --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Every measurement happens in a fresh
interpreter (``bench/worker.py``) that imports ``bellkit`` from ``src/`` and
calls ``bellkit.cli.main(argv)`` in-process, one operation after another,
checking each output (see ``bench/workloads.py``).  A run executes whole
rounds of its workload until ``--seconds`` of CPU time have passed.  There is no
concurrency, so no layer waits on another and no waiting time is reported.

``--trace 0`` reports the end-to-end metrics, with tracing off.  Times are
CPU time of the workload process, which for this single-threaded in-memory
loop is wall time less what other tenants of the machine take (see
``bench/worker.py``):

* ``ops_per_s``: operations that passed their check per second spent in
  ``cli.main`` and in writing inputs (the benchmark's own output checks
  excluded), taken per round of the workload; the median over the rounds.
* ``latency_p50_ms``: median time of one ``cli.main`` call.
* ``latency_tail_ms``: the highest latency with at least 10 samples above
  it (the median below 20 samples); its percentile and the sample count
  above it are printed in the context line.
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process at the end.
* ``setup_s``: from the start of the interpreter until the first operation
  is ready (``import bellkit`` plus generating and writing the first
  inputs); the median of five starts.

``--trace 1`` reports the per-layer metrics.  It alternates untraced and
traced passes over a fixed number of operations (whole rounds, so counts
repeat exactly for a seed), each in a fresh worker, until ``--seconds`` have
passed.  Layers are the modules ``cli``, ``identities``, ``transforms``,
``egf``, ``bell``, ``partitions`` and ``rationals`` (see ``bench/tracer.py``):
``<layer>.calls`` counts calls entering the layer from another one and
``<layer>.self_s`` is the time inside it less the time in the layers it
calls.  Times are medians over the traced passes, counts come from the
first; ``trace.overhead_ops_per_s`` is the untraced minus the traced median
``ops_per_s``.

The error rate is ``failed / attempted`` in the result line of every run, and
the ``error_rate`` metric of traced runs; it is not an end-to-end metric in
BENCHMARK.json because those must never read 0.  The line before the
result is a JSON object with the run's context: git sha, Python version,
nproc, op count, seed and generator parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import GENERATORS, TRACE_ROUNDS  # noqa: E402

SETUP_SAMPLES = 5
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not measure: the program is missing or a worker died."""


def worker(workload: str, seed: int, *flags: str) -> tuple[float, dict | None]:
    """Start a fresh worker; return its set-up time and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline().split()
            result = proc.stdout.readline()
            proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "READY":
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}")
    return float(ready[1]), json.loads(result) if result else None


def ops_per_s(result: dict) -> float:
    """Median over rounds of the ops that passed per second of work.

    Every round has the same mix, so each is one sample of the throughput;
    the median keeps a burst of load from a neighbour on the machine, or the
    first round's cold caches, from moving the figure.
    """
    return statistics.median(passed / busy for passed, busy in result["rounds"])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest latency with at least TAIL_BEYOND samples above it.

    Returns the latency, its percentile and the number of samples above.
    Below 2 * TAIL_BEYOND samples that would fall under the median, so the
    median is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(args) -> tuple[dict, dict, int, int]:
    setups = [worker(args.workload, args.seed, "--setup-only")[0]
              for _ in range(SETUP_SAMPLES - 1)]
    flags = ["--seconds", str(args.seconds)]
    if args.max_ops:
        flags += ["--ops", str(args.max_ops)]
    setup_s, result = worker(args.workload, args.seed, *flags)
    setups.append(setup_s)
    lat = result["latencies"]
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "ops_per_s": ops_per_s(result),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    context = {
        "ops": len(lat),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_samples_s": setups,
        "failures": result["failures"],
    }
    return metrics, context, len(lat), result["failed"]


def per_layer(args) -> tuple[dict, dict, int, int]:
    ops = GENERATORS[args.workload]["ops_per_round"] * TRACE_ROUNDS[args.workload]
    if args.max_ops:
        ops = min(ops, args.max_ops)
    passes = {False: [], True: []}
    start = perf_counter()
    while not passes[True] or perf_counter() - start < args.seconds:
        for traced in (False, True):
            flags = ["--ops", str(ops)] + (["--trace"] if traced else [])
            passes[traced].append(worker(args.workload, args.seed, *flags)[1])
    traced = passes[True]
    first = traced[0]
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        if name.endswith(".self_s") else value
        for name, value in first["layers"].items()
    }
    metrics["cli.out_bytes"] = first["out_bytes"]
    attempted = sum(len(p["latencies"]) for ps in passes.values() for p in ps)
    failed = sum(p["failed"] for ps in passes.values() for p in ps)
    metrics["error_rate"] = failed / attempted
    overhead = (statistics.median(ops_per_s(p) for p in passes[False])
                - statistics.median(ops_per_s(p) for p in traced))
    metrics["trace.overhead_ops_per_s"] = overhead
    context = {
        "ops": ops,
        "passes": len(traced),
        "patched_names": first["patched"],
        "untraced_ops_per_s": [ops_per_s(p) for p in passes[False]],
        "traced_ops_per_s": [ops_per_s(p) for p in traced],
        "failures": [f for ps in passes.values() for p in ps for f in p["failures"]][:5],
    }
    return metrics, context, attempted, failed


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref[5:]:
            return sha
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bellkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, help="stop each pass after this many ops")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "bellkit" / "cli.py").is_file():
        print(f"run.py: no bellkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, context, attempted, failed = measure(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        work = ROOT / ".bench_work"
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()
    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "generator": GENERATORS[args.workload],
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # names and units as BENCHMARK.json lists them; a missing one is a KeyError
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
