"""Byte-identity guard for the double-sum certifier behind ``bellkit verify``.

Each case runs ``bellkit.cli.main(argv)`` in-process and hashes the argv,
the exit status, stdout and stderr together.  The expected digests in
``golden_verify.json`` were recorded from a commit whose output is trusted;
record them again only from such a commit, with

    PYTHONPATH=src python tests/test_golden_verify.py > tests/golden_verify.json

The cases cover the th1a/b/c grids at n = 5..7 and the negative-one grid at
n = 7..8, each with the stock alphas and with three fixed --alpha forms (two
of them vanish inside the summation range, so pairs are skipped as poles),
explicit --tau calls including pole errors (exit 2), and CSV output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from bellkit.cli import main

GOLDEN = Path(__file__).with_name("golden_verify.json")

#: c0 = -1 or -2 with c1 = 1 vanish at contributing (l, m); the third never does
ALPHAS = (None, "-1,1,0", "-2,1,-1/3", "1/2,-1,2")

GRID_CASES = [
    ["verify", identity, "--n", str(n)] + ([f"--alpha={alpha}"] if alpha else [])
    for identity, ns in (
        ("th1a", (5, 6, 7)),
        ("th1b", (5, 6, 7)),
        ("th1c", (5, 6, 7)),
        ("negative-one", (7, 8)),
    )
    for n in ns
    for alpha in ALPHAS
]

EXPLICIT_CASES = [
    ["verify", "th1a", "--n", "4", "--tau", "7/3"],
    ["verify", "th1b", "--v", "2,1", "--alpha", "1,1,1", "--tau=-5/2"],
    ["verify", "th1c", "--n", "4", "--tau", "3/2"],
    ["verify", "th1c", "--n", "5", "--k", "3", "--tau=-1/3", "--alpha=1/2,-1,2"],
    # alpha(1, m) = 2 = tau: PoleError, exit 2
    ["verify", "th1c", "--v", "2,1", "--alpha", "1,1", "--tau", "2"],
    # tau = alpha(0, 0)
    ["verify", "th1c", "--v", "2,1", "--alpha", "1,1", "--tau", "1"],
    # alpha(k, n) = alpha(3, 4) = 0
    ["verify", "th1c", "--v", "2,1", "--alpha=-3,1", "--tau", "5"],
    # alpha vanishes at (1, 1) before it meets tau = 1 at (2, 2)
    ["verify", "th1c", "--v", "2,1", "--alpha=-1,1", "--tau", "1"],
    # alpha meets tau = 1 at (1, 1) before it vanishes at (2, 2)
    ["verify", "th1c", "--v", "2,1", "--alpha", "2,-1", "--tau", "1"],
    # alpha = l vanishes at (0, 0)
    ["verify", "th1a", "--v", "2,1", "--alpha", "0,1", "--tau", "5"],
    ["verify", "th1b", "--n", "5", "--alpha=-2,1,-1/3", "--tau", "7/2"],
    ["verify", "negative-one", "--v", "2,1", "--alpha", "0,1"],
    ["verify", "negative-one", "--v", "2,1", "--alpha", "2,1"],
    ["verify", "negative-one", "--n", "6", "--k", "3"],
]

CSV_CASES = [
    ["verify", "th1c", "--n", "5", "--format", "csv"],
    ["verify", "th1a", "--n", "6", "--alpha=-2,1,-1/3", "--format", "csv"],
    ["verify", "negative-one", "--n", "7", "--format", "csv"],
    ["verify", "th1b", "--v", "2,1", "--tau", "5", "--format", "csv"],
]

CASES = GRID_CASES + EXPLICIT_CASES + CSV_CASES


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    blob = json.dumps([argv, status, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def _key(argv: list[str]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_output_is_byte_identical(argv, golden):
    assert digest(argv) == golden[_key(argv)]


if __name__ == "__main__":
    json.dump({_key(argv): digest(argv) for argv in CASES}, sys.stdout, indent=1)
    sys.stdout.write("\n")
