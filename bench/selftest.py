"""Self-test of the benchmark: a few ops of every workload, traced and not.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
no op fails on the current code, that each workload's output check rejects
a corrupted output, and that the benchmark refuses to run without the
program's sources.  Takes about 20 seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from bellkit import cli  # noqa: E402

from workloads import rounds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OPS = 4


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--max-ops", str(OPS)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(workload: str, trace: int) -> None:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, context["failures"]
    assert result["attempted"] >= OPS
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, (workload, trace, set(got) ^ set(wanted))
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0
        assert result["metrics"]["cli.calls"]["value"] == OPS
        assert context["patched_names"] > 0
    for key in ("git_sha", "python", "nproc", "ops", "seed", "generator"):
        assert key in context, key


def corrupt(text: str) -> str:
    """Change one exact value, or drop one report, in a CLI output."""
    payload = json.loads(text)
    if "recovered" in payload:
        payload["recovered"][-1] += "1"
    elif "output" in payload:
        payload["output"]["coeffs"][-1] += "1"
    elif payload["reports"]:
        payload["reports"].pop()
    else:
        payload["summary"]["checked"] += 1
    return json.dumps(payload)


def check_checks_bite(workload: str) -> None:
    workdir = ROOT / ".bench_work" / f"selftest-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for op in next(rounds(workload, 3, workdir))[:3]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(op.argv) == 0
            assert op.check(out.getvalue()) is None, op.argv
            assert op.check(corrupt(out.getvalue())), (op.argv, "corrupted output passed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_refuses_without_program() -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("series", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace)
        check_checks_bite(workload)
        print(f"{workload}: ok")
    check_refuses_without_program()
    print("without the program: refused")
    work = ROOT / ".bench_work"
    if work.is_dir() and not any(work.iterdir()):
        work.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
