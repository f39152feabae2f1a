"""Seeded operation streams for the three workloads, and their output checks.

Each workload is an endless stream of operations, produced one round at a
time, and a run executes whole rounds.  A round has a fixed shape (which
subcommands, which sizes, in which order) and seeded contents (sequence
values, k, coefficients).  Choices that move an op's cost a lot, such as
the (a, b) pair, the alpha form or the exponent r, take turns instead of
being drawn afresh, so the seed moves the inputs but not the run's mix of
cheap and expensive operations.

Round r of workload w with seed s draws from ``random.Random(f"{w}/{s}/{r}")``,
so the same seed always gives the same inputs, and round r can be built
without building rounds 0..r-1.

The checks use the standard library only; they never import bellkit, so a
bug in the program cannot also hide in its own check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Iterator

# --- generator parameters ----------------------------------------------------
#
# ``run.py`` prints these beside every result, and BENCHMARK.json summarises
# them in each workload's "why".

#: transform roundtrip: N from 18 to 26, so the p(n) growth of the Bell
#: definition sum shows; the fixed order pairs cheap sizes with dear ones.
ROUNDTRIP_N_ORDER = (18, 26, 19, 25, 20, 24, 21, 23, 22)
#: (a, b) pairs with a*n + b != 0 for every n >= 1, so the inverse has no
#: pole.  They take turns rather than being drawn: the pair moves an op's
#: cost by up to 2x, and a seeded draw would move the median with it.
ROUNDTRIP_AB = ((0, 1), (1, 1), (2, 3), (1, 0))
#: "small": numerator in [-9, 9] less 0, denominator in [1, 9], as in the
#: acceptance suite; "large": denominator up to 10^6, so a kernel whose cost depends on
#: the lcm of the denominators shows it.
HEIGHTS = {"small": 9, "large": 10**6}

#: certify: the th1 grids at n = 5..7 and the negative-one grid at n = 7..8.
CERTIFY_GRIDS = (
    ("th1a", 5), ("th1a", 6), ("th1a", 7),
    ("th1b", 5), ("th1b", 6), ("th1b", 7),
    ("th1c", 5), ("th1c", 6), ("th1c", 7),
    ("negative-one", 7), ("negative-one", 8),
)
#: Each grid runs twice per round: once with the stock alphas (work that
#: repeats from round to round, so caches help) and once with one seeded
#: alpha from this pool (work that changes from op to op, including pole
#: skips: c0 = -1 or -2 with c1 = 1 vanishes inside the summation range).
ALPHA_C0 = ("-2", "-1", "-1/2", "1/2", "1", "3/2", "3")
ALPHA_C1 = ("-1", "0", "1/2", "1")
ALPHA_C2 = ("-1/3", "0", "1", "2")
ALPHA_POOL = tuple(f"{a},{b},{c}" for a in ALPHA_C0 for b in ALPHA_C1 for c in ALPHA_C2)

#: series: EGF log and pow at this order, apply-poly at APPLY_N, and the
#: Bell-table identities for n = 2..12, all on one sequence per round.
SERIES_N = 120
APPLY_N = 12
SERIES_VERIFY_N = tuple(range(2, 13))
SERIES_IDENTITIES = ("bell-conv", "alpha-constant", "zerosum")
#: exponents r for ``series pow``, negative ones passed as --r=-3/2
SERIES_POWERS = ("-5/2", "-3/2", "-2/3", "-1/4", "1/3", "1/2", "3/4", "5/3", "2", "7/2")

#: Reports per call of the series verify ops: bell-conv runs its three
#: variants, the other two are single checks.
SERIES_CHECKED = {"bell-conv": 3, "alpha-constant": 1, "zerosum": 1}

GENERATORS = {
    "roundtrip": {
        "command": "transform roundtrip",
        "n_order": list(ROUNDTRIP_N_ORDER),
        "ab_pairs": [list(p) for p in ROUNDTRIP_AB],
        "heights": "per round each N once with denominators <= 9 and once <= 10^6",
        "ops_per_round": 2 * len(ROUNDTRIP_N_ORDER),
    },
    "certify": {
        "command": "verify",
        "grids": [f"{i} --n {n}" for i, n in CERTIFY_GRIDS],
        "alphas": "per grid one op with DEFAULT_ALPHAS and one with a seeded "
        f"--alpha from {len(ALPHA_POOL)} forms c0 in {ALPHA_C0}, c1 in {ALPHA_C1}, c2 in {ALPHA_C2}",
        "ops_per_round": 2 * len(CERTIFY_GRIDS),
    },
    "series": {
        "command": "series log|pow, series apply-poly, verify",
        "order": SERIES_N,
        "apply_poly_order": APPLY_N,
        "verify_n": [SERIES_VERIFY_N[0], SERIES_VERIFY_N[-1]],
        "identities": list(SERIES_IDENTITIES),
        "pow_r": list(SERIES_POWERS),
        "apply_poly_ab": [list(p) for p in ROUNDTRIP_AB],
        "heights": "denominators <= 9, one fresh sequence per round",
        "ops_per_round": 3 + len(SERIES_VERIFY_N),
    },
}

#: Operations in one traced pass: whole rounds, so the counts repeat exactly.
TRACE_ROUNDS = {"roundtrip": 1, "certify": 2, "series": 20}


@dataclass
class Op:
    """One CLI call and the function that checks its standard output."""

    argv: list[str]
    check: Callable[[str], str | None]  # returns None if the output is right


def _turn(pool: tuple, key: str, i: int):
    """Item i, cycling, of a permutation of ``pool`` seeded by ``key``.

    Used where the choice moves an op's cost a lot: over a run every item
    comes up about equally often, so the seed moves the inputs but not the
    run's mix of cheap and dear ops.
    """
    order = list(pool)
    random.Random(key).shuffle(order)
    return order[i % len(order)]


def rat_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _rationals(rng: random.Random, n: int, max_den: int) -> list[Fraction]:
    # no zero entries: a zero x_j drops whole terms, so the cost of an op
    # would swing with how many zeros the seed happens to draw
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, max_den))
            for _ in range(n)]


def _write(path: Path, values: list[Fraction]) -> list[str]:
    text = [rat_str(v) for v in values]
    path.write_text(json.dumps(text))
    return text


def _summary_check(payload: dict, checked: int) -> str | None:
    """Work conservation for verify: every expected instance ran and passed."""
    summary = payload["summary"]
    reports = payload["reports"]
    if summary["failed"] != 0 or summary["passed"] != summary["checked"]:
        return f"{summary['failed']} failed checks"
    if summary["checked"] != checked or len(reports) != checked:
        return f"checked {summary['checked']} instances, expected {checked}"
    if not all(r["pass"] and r["lhs"] == r["rhs"] for r in reports):
        return "a report does not pass"
    return None


# --- roundtrip ---------------------------------------------------------------


def _roundtrip_round(seed: int, r: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"roundtrip/{seed}/{r}")
    ops = []
    for i, n in enumerate(ROUNDTRIP_N_ORDER * 2):
        j, second_half = i % len(ROUNDTRIP_N_ORDER), i >= len(ROUNDTRIP_N_ORDER)
        height = "small" if (j % 2 == 0) != second_half else "large"
        a, b = ROUNDTRIP_AB[(i + r) % len(ROUNDTRIP_AB)]
        path = workdir / f"rt-{r}-{i}.json"
        text = _write(path, _rationals(rng, n, HEIGHTS[height]))
        argv = ["transform", "roundtrip", "--x", str(path), "--n-max", str(n),
                "--a", str(a), "--b", str(b)]
        ops.append(Op(argv, _roundtrip_check(text)))
    return ops


def _roundtrip_check(expected: list[str]):
    def check(out: str) -> str | None:
        payload = json.loads(out)
        if payload["exact_match"] is not True:
            return "exact_match is not true"
        if payload["recovered"] != expected or payload["x"] != expected:
            return "recovered sequence differs from the input"
        if len(payload["forward"]) != len(expected):
            return "forward transform has the wrong length"
        return None

    return check


# --- certify -----------------------------------------------------------------


def load_certify_counts() -> dict[str, int]:
    """Instances checked per certify op, recorded by record_counts.py."""
    return json.loads((Path(__file__).parent / "certify_counts.json").read_text())


def certify_key(identity: str, n: int, alpha: str | None) -> str:
    return f"{identity}|{n}|{alpha or 'stock'}"


def certify_argv(identity: str, n: int, alpha: str | None) -> list[str]:
    argv = ["verify", identity, "--n", str(n)]
    if alpha is not None:
        # "--alpha -1,1,0" is read by argparse as a missing value
        argv.append(f"--alpha={alpha}")
    return argv


def _certify_round(seed: int, r: int, workdir: Path, counts: dict[str, int]) -> list[Op]:
    ops = []
    for g, (identity, n) in enumerate(CERTIFY_GRIDS):
        seeded = _turn(ALPHA_POOL, f"certify/{seed}", r * len(CERTIFY_GRIDS) + g)
        for alpha in (None, seeded):
            expected = counts[certify_key(identity, n, alpha)]
            ops.append(Op(certify_argv(identity, n, alpha), _verify_check(expected)))
    return ops


def _verify_check(checked: int):
    def check(out: str) -> str | None:
        return _summary_check(json.loads(out), checked)

    return check


# --- series ------------------------------------------------------------------

#: Outputs of the EGF ops are checked modulo this prime against the defining
#: derivative recurrences; every denominator here is a product of small
#: primes, so none vanishes modulo it.
P = 2**61 - 1


def _mod(text: str) -> int:
    num, _, den = text.partition("/")
    return int(num) * pow(int(den or 1), -1, P) % P


def _series_round(seed: int, r: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"series/{seed}/{r}")
    path = workdir / f"series-{r}.json"
    text = _write(path, _rationals(rng, SERIES_N, HEIGHTS["small"]))
    z = ["1"] + text
    x_args = ["--x", str(path)]
    rr = Fraction(_turn(SERIES_POWERS, f"series/{seed}", r))
    a, b = ROUNDTRIP_AB[r % len(ROUNDTRIP_AB)]
    coeffs = [rat_str(c) for c in _rationals(rng, 3, HEIGHTS["small"])]
    ops = [
        Op(["series", "log", *x_args, "--n-max", str(SERIES_N)], _log_check(z)),
        Op(["series", "pow", f"--r={rat_str(rr)}", *x_args, "--n-max", str(SERIES_N)],
           _pow_check(z, rr)),
        Op(["series", "apply-poly", f"--coeffs={','.join(coeffs)}", "--a", str(a),
            "--b", str(b), *x_args, "--n-max", str(APPLY_N)], _apply_poly_check(coeffs)),
    ]
    for n in SERIES_VERIFY_N:
        # bell-conv costs about 4x the others, so the identities take turns
        identity = SERIES_IDENTITIES[(n + r) % len(SERIES_IDENTITIES)]
        k = rng.randint(1, n)
        argv = ["verify", identity, "--n", str(n), "--k", str(k), *x_args]
        if identity == "alpha-constant":
            argv += ["--r", str(rng.randint(1, k))]
        ops.append(Op(argv, _verify_check(SERIES_CHECKED[identity])))
    return ops


def _egf_payload(out: str, z: list[str]) -> list[int] | str:
    payload = json.loads(out)
    if payload["input"]["coeffs"] != z:
        return "input series differs from the sequence"
    coeffs = payload["output"]["coeffs"]
    if len(coeffs) != len(z):
        return "output has the wrong order"
    return [_mod(c) for c in coeffs]


def _log_check(z: list[str]):
    zm = [_mod(c) for c in z]

    def check(out: str) -> str | None:
        lg = _egf_payload(out, z)
        if isinstance(lg, str):
            return lg
        if lg[0] != 0:
            return "log has a nonzero constant"
        # Z' = Z * (log Z)': z_{n+1} = sum_m C(n, m) z_m l_{n+1-m}
        for n in range(len(z) - 1):
            acc = sum(comb(n, m) * zm[m] * lg[n + 1 - m] for m in range(n + 1))
            if (acc - zm[n + 1]) % P:
                return f"log breaks Z' = Z L' at order {n + 1}"
        return None

    return check


def _pow_check(z: list[str], r: Fraction):
    zm = [_mod(c) for c in z]
    rm = _mod(rat_str(r))

    def check(out: str) -> str | None:
        w = _egf_payload(out, z)
        if isinstance(w, str):
            return w
        if w[0] != 1:
            return "power has constant coefficient other than 1"
        # W' Z = r Z' W for W = Z^r
        for n in range(len(z) - 1):
            lhs = sum(comb(n, m) * w[m + 1] * zm[n - m] for m in range(n + 1))
            rhs = rm * sum(comb(n, m) * zm[m + 1] * w[n - m] for m in range(n + 1))
            if (lhs - rhs) % P:
                return f"power breaks W' Z = r Z' W at order {n + 1}"
        return None

    return check


def _apply_poly_check(coeffs: list[str]):
    cm = [_mod(c) for c in coeffs]

    def check(out: str) -> str | None:
        payload = json.loads(out)
        zs = payload["series"]["coeffs"]
        got = payload["output"]["coeffs"]
        if len(zs) != APPLY_N + 1 or len(got) != APPLY_N + 1 or zs[0] != "1":
            return "series has the wrong shape"
        zm = [_mod(c) for c in zs]
        # F(Z) by Horner's rule, with the EGF (binomial) product
        acc = [cm[-1]] + [0] * APPLY_N
        for c in reversed(cm[:-1]):
            acc = [sum(comb(n, m) * acc[m] * zm[n - m] for m in range(n + 1)) % P
                   for n in range(APPLY_N + 1)]
            acc[0] = (acc[0] + c) % P
        if acc != [_mod(c) for c in got]:
            return "output differs from F(Z) evaluated on the series"
        return None

    return check


# --- streams -----------------------------------------------------------------


def rounds(workload: str, seed: int, workdir: Path) -> Iterator[list[Op]]:
    """Rounds 0, 1, 2, ... of a workload; input files go to ``workdir``."""
    counts = load_certify_counts() if workload == "certify" else None
    r = 0
    while True:
        if workload == "roundtrip":
            yield _roundtrip_round(seed, r, workdir)
        elif workload == "certify":
            yield _certify_round(seed, r, workdir, counts)
        elif workload == "series":
            yield _series_round(seed, r, workdir)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        r += 1
