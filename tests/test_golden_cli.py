"""Byte-identity guard for every ``bellkit`` subcommand.

Each case runs ``bellkit.cli.main(argv)`` in-process, with ``COLUMNS``
pinned to 80 and argparse's ``SystemExit`` caught, and hashes the argv, the
exit status, stdout and stderr together.  The expected digests in
``golden_cli.json`` were recorded from a commit whose output is trusted;
record them again only from such a commit, with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json

Sequence files are written to a temporary directory; ``{DIR}`` stands for
it in the argv and in the hashed output, so digests do not depend on where
the directory is.

The cases cover every subcommand and mode, every ``verify`` identity with
its defaults and with explicit flags, JSON and CSV output, usage and input
errors, and ``--help`` of the program, of each subcommand and of one
``verify`` identity.  Left out on purpose: empty or zero flag values and
negative lengths, which used to fall back to a default or slice a sequence.
The double-sum grids are guarded in more depth by ``test_golden_verify.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from bellkit.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

def _tall_entry(j: int) -> str:
    """x_j of tall.json: numerator and denominator up to 10^6; zero when j % 7 == 1, as x_1."""
    if j % 7 == 1:
        return "0"
    return f"{(j * 7_919_993) % 2_000_001 - 1_000_000}/{(j * 104_729) % 1_000_000 + 1}"


#: file name -> content, written under {DIR}
FILES = {
    "seq3.json": '["1/2", "3", "-2/5"]',
    "seq4.json": '["1", "-1/3", "2", "5/7"]',
    "nested.json": '[["2", "1/3", "-1"]]',
    "bad.json": '["1", "x/y"]',
    "notjson.json": "[1, 2",
    "obj.json": '{"a": 1}',
    "bool.json": '[true, "1/2", 3]',
    "tall.json": json.dumps([_tall_entry(j) for j in range(1, 41)]),
}

BELL = [
    "bell --n 4 --k 2 --symbolic",
    "bell --n 5 --k 3 --symbolic --format csv",
    "bell --n 4 --k 2",
    "bell --n 4 --k 2 --x ones",
    "bell --n 6 --k 3 --x factorials",
    "bell --n 5 --k 2 --x identity-j --format csv",
    "bell --n 5 --k 2 --x random --seed 3",
    "bell --n 3 --k 1 --x {DIR}/seq3.json",
    "bell --n 4 --k 2 --x {DIR}/nested.json",
    "bell --n 4 --k 2 --x {DIR}/seq3.json --n-max 4",
    "bell --k 2",
    "bell --n 3",
    "bell --n 3 --k 2 --x random",
    "bell --n 3 --k 2 --x /nope/missing.json",
    "bell --n 3 --k 2 --x {DIR}/bad.json",
    "bell --n 3 --k 2 --x {DIR}/notjson.json",
    "bell --n 3 --k 2 --x {DIR}/obj.json",
    "bell --n 3 --k 2 --x {DIR}/bool.json",
    "bell --n x --k 2",
]

STIRLING = [
    "stirling --n 5 --k 2",
    "stirling --kind first --n 6 --k 3",
    "stirling --kind second --n 7 --k 4 --format csv",
    "stirling --n 5",
    "stirling --kind third --n 3 --k 1",
]

Q = [
    "q --n 2 --b 1 --lambda 2 --x ones",
    "q --n 3 --lambda 2",
    "q --n 4 --lambda=-3/2 --x random --seed 2",
    "q --n 3 --b 2 --lambda 1/2 --x {DIR}/seq3.json --format csv",
    "q --n 3",
    "q --n 3 --lambda 1..2",
    "q --lambda 2",
]

TRANSFORM = [
    "transform forward --a 1 --b 1 --n-max 4 --x random --seed 5",
    "transform forward --a 2 --b 3 --x {DIR}/seq3.json",
    "transform forward --n 3 --x ones",
    "transform forward --n-max 3 --x factorials --format csv",
    "transform forward --n-max 5 --x {DIR}/seq3.json",
    "transform forward",
    "transform forward --x ones",
    "transform inverse --a 1 --b 1 --n-max 4 --x {DIR}/seq4.json",
    "transform inverse --b 1 --x {DIR}/seq3.json --format csv",
    "transform inverse --a 1 --b 2 --n-max 4 --x identity-j",
    "transform roundtrip --a 2 --b 3 --n-max 6 --x random --seed 7",
    "transform roundtrip --n-max 5 --x factorials --format csv",
    "transform roundtrip --a 1 --x {DIR}/seq4.json",
    "transform roundtrip --a 1 --b 1 --n-max 4 --x factorials --format csv",
    "transform lambda --a 1 --b 1 --n 3 --lambda 5/2 --k0 2 --x random --seed 3",
    "transform lambda --n 4 --lambda 2 --x ones",
    "transform lambda --n 3 --lambda 2 --k0 3 --format csv",
    "transform lambda --n 3",
    "transform lambda --lambda 2 --n-max 3",
    "transform lambda --n 3 --lambda a/b",
    "transform bogus --n 3",
]

SERIES = [
    "series log --n-max 4 --x random --seed 2",
    "series log --n-max 3 --x {DIR}/seq3.json",
    "series log --n-max 5 --x ones --format csv",
    "series pow --r 1/2 --n-max 5 --x random --seed 4",
    "series pow --r=-2 --n-max 4 --x factorials",
    "series pow --r 3 --n-max 4 --x {DIR}/seq4.json --format csv",
    "series pow --n-max 4",
    "series pow --r 1/0 --n-max 4",
    "series apply-poly --coeffs 3 --a 1 --b 1 --n-max 4 --x random --seed 6",
    "series apply-poly --coeffs 1,2,-1/2 --a 2 --b 3 --n-max 5 --x identity-j",
    "series apply-poly --coeffs 0,1 --n-max 3 --x {DIR}/seq3.json --format csv",
    "series apply-poly --coeffs 1,x --n-max 3",
    "series apply-poly --n-max 3",
    "series log",
    "series log --n-max 5 --x {DIR}/seq3.json",
    # numerators and denominators up to 10^6, zero entries, larger orders
    "series log --n-max 40 --x {DIR}/tall.json",
    "series pow --r=-5/2 --n-max 40 --x {DIR}/tall.json",
    "series pow --r 999983/1000003 --n-max 30 --x random --seed 3",
    "series log --n-max 40 --x {DIR}/tall.json --format csv",
    "series pow --r 5/3 --n-max 40 --x {DIR}/tall.json --format csv",
    "series apply-poly --coeffs 1,-2,1/3 --a 1 --b 1 --n-max 12 --x {DIR}/tall.json --format csv",
]

VERIFY = [
    "verify th1a --n 3",
    "verify th1a --n 4 --k 2",
    "verify th1a --v 2,1 --alpha 1,1 --tau 5",
    "verify th1a --v 2,1 --alpha 1,1 --tau 5..2",
    "verify th1a --v 2,1 --alpha 0,1 --tau 5",
    "verify th1a --v 2,1 --alpha 1,x",
    "verify th1a --v 2,a",
    "verify th1a",
    "verify th1b --n 3",
    "verify th1b --v 1,1 --tau 3/2",
    "verify th1b --n 3 --alpha 1,0,1 --format csv",
    "verify th1c --n 3 --format csv",
    "verify th1c --v 2 --alpha 1,2,3 --tau 1/2",
    "verify th1c --n 3 --k 9",
    "verify hagen-rothe",
    "verify hagen-rothe --k 3",
    "verify hagen-rothe --variant asymmetric --k 2",
    "verify hagen-rothe --variant symmetric --xp 1/2 --yp 3 --zp 2 --k 3",
    "verify hagen-rothe --xp 1 --yp 2 --k 2 --format csv",
    "verify hagen-rothe --variant bogus --k 2",
    "verify hagen-rothe --xp 1 --k 2",
    "verify hagen-rothe --xp 1 --yp=-1 --zp 0 --k 2",
    "verify chu-vandermonde",
    "verify chu-vandermonde --xp 1 --yp 1 --k 2",
    "verify chu-vandermonde --xp 1/2 --yp 2 --zp 1 --k 3 --format csv",
    "verify negative-one --n 4",
    "verify negative-one --v 2,1 --alpha 0,1",
    "verify negative-one --v 3,1 --alpha 1,1,1",
    "verify negative-one --n 5 --k 2 --format csv",
    "verify negative-one",
    "verify vanishing-sum --v 2,1",
    "verify vanishing-sum --v 1,0,1",
    "verify vanishing-sum --v 1,1 --format csv",
    "verify vanishing-sum --v 0,0",
    "verify vanishing-sum",
    "verify vanishing-sum --v 1,a",
    "verify bell-conv --n 4 --k 2 --x random --seed 12",
    "verify bell-conv --n 5 --k 3 --variant cor34 --alpha 1,2 --tau 7/2",
    "verify bell-conv --n 4 --k 2 --variant cor33_first --x {DIR}/seq4.json --format csv",
    "verify bell-conv --n 4 --k 2 --variant bogus",
    "verify bell-conv --n 4 --k 2 --alpha 0,1",
    "verify bell-conv --n 4 --k 2 --alpha 2,1 --tau 2",
    "verify bell-conv --n 4",
    "verify alpha-constant --n 5 --k 3 --r 2 --x random --seed 1",
    "verify alpha-constant --n 4 --k 2 --r 1 --format csv",
    "verify alpha-constant --n 5 --k 3",
    "verify alpha-constant --n 5 --k 3 --r 1/2",
    "verify alpha-constant --n 5 --k 3 --r 9",
    "verify zerosum --n 5 --k 3 --x ones",
    "verify zerosum --n 4 --k 2 --x random --seed 2 --format csv",
    "verify zerosum --n 1 --k 1",
    "verify zerosum --n 6 --k 3 --x {DIR}/seq3.json",
    "verify stirling-rec --n 6 --k 3 --r 2",
    "verify stirling-rec --n 6 --k 3 --r 1 --kind first --format csv",
    "verify stirling-rec --n 6 --k 3",
    "verify q-recurrence --n 4 --lambda 2 --x random --seed 5",
    "verify q-recurrence --n 3 --lambda=-1 --format csv",
    "verify q-recurrence --n 4 --lambda 1/2",
    "verify q-recurrence --n 4",
    "verify q-product --n 2 --n2 2 --b 1 --b2 -1 --lambda 3/7 --lambda2=-2/5 --x random --seed 1",
    "verify q-product --n 3 --lambda 2 --x ones",
    "verify q-product --n 2 --n2 3 --lambda 1 --lambda2 2 --format csv",
    "verify q-product --n 2 --lambda=-1",
    "verify q-product --n 2",
    "verify general-binomial-demo",
    "verify general-binomial-demo --counterexample",
    "verify general-binomial-demo --v 3,1 --alpha 1,2 --tau 7/2",
    "verify general-binomial-demo --format csv",
    "verify general-binomial-demo --v 2,1,0 --counterexample --format csv",
    "verify general-binomial-demo --v 2,1 --alpha 0,1",
]

HELP = [
    "--help",
    "bell --help",
    "stirling --help",
    "q --help",
    "transform --help",
    "series --help",
    "verify --help",
    "verify th1a --help",
]

CASES = [line.split() for line in BELL + STIRLING + Q + TRANSFORM + SERIES + VERIFY + HELP]


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text)


def digest(argv: list[str], directory: Path) -> str:
    real = [arg.replace("{DIR}", str(directory)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(real)
            except SystemExit as exc:
                status = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    texts = [s.getvalue().replace(str(directory), "{DIR}") for s in (out, err)]
    blob = json.dumps([argv, status, *texts])
    return hashlib.sha256(blob.encode()).hexdigest()


def _key(argv: list[str]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def directory(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden_cli")
    write_files(path)
    return path


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_output_is_byte_identical(argv, golden, directory):
    assert digest(argv, directory) == golden[_key(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        json.dump({_key(argv): digest(argv, Path(tmp)) for argv in CASES}, sys.stdout, indent=1)
    sys.stdout.write("\n")
