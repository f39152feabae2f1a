"""sympy as a third oracle for the Bell kernel and for the EGF log and pow.

sympy is independent of all bellkit code.

Runs only where sympy is installed; the package itself stays stdlib-only.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from bellkit.bell import bell_symbolic, bell_table, stirling1_unsigned, stirling2  # noqa: E402
from bellkit.egf import TruncatedEGF, egf_log, egf_pow  # noqa: E402
from bellkit.sequences import SequenceSpec  # noqa: E402

N_MAX = 10


def _seeded(seed, max_den):
    rng = random.Random(seed)
    return SequenceSpec(
        tuple(
            Fraction(rng.randint(-3 * max_den, 3 * max_den), rng.randint(1, max_den))
            for _ in range(N_MAX)
        )
    )


def _to_fraction(value):
    return Fraction(int(value.p), int(value.q))


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_symbolic_matches_sympy(n):
    for k in range(1, n + 1):
        xs = sympy.symbols(f"x1:{n - k + 2}")
        terms = sympy.Poly(sympy.bell(n, k, xs), *xs).terms()
        expected = {tuple(exps): Fraction(int(c)) for exps, c in terms}
        got = {
            exps + (0,) * (len(xs) - len(exps)): c
            for exps, c in bell_symbolic(n, k).terms.items()
        }
        assert got == expected


@pytest.mark.parametrize("seed, max_den", [(1, 9), (2, 9), (3, 10**6)])
def test_table_matches_sympy_at_rationals(seed, max_den):
    x = _seeded(seed, max_den)
    bell = bell_table(x, N_MAX)
    for n in range(1, N_MAX + 1):
        for k in range(1, n + 1):
            args = [sympy.Rational(v.numerator, v.denominator) for v in x.values[: n - k + 1]]
            assert bell(n, k) == _to_fraction(sympy.bell(n, k, args))


def test_stirling_numbers_match_sympy():
    for n in range(N_MAX + 1):
        for k in range(n + 1):
            assert stirling2(n, k) == int(stirling(n, k, kind=2))
            assert stirling1_unsigned(n, k) == int(stirling(n, k, kind=1))


EGF_ORDER = 8


@pytest.mark.parametrize("seed, max_den", [(4, 9), (5, 10**6)])
@pytest.mark.parametrize("r", [None, Fraction(-5, 2), Fraction(1, 3), Fraction(3)], ids=str)
def test_egf_log_and_pow_match_sympy_series(seed, max_den, r):
    # r=None stands for log Z
    x = _seeded(seed, max_den).prefix(EGF_ORDER)
    z = TruncatedEGF.from_sequence(x)
    t = sympy.Symbol("t")
    series = 1 + sum(
        sympy.Rational(v.numerator, v.denominator) * t**n / sympy.factorial(n)
        for n, v in enumerate(x.values, start=1)
    )
    if r is None:
        expr, got = sympy.log(series), egf_log(z)
    else:
        expr, got = series ** sympy.Rational(r.numerator, r.denominator), egf_pow(z, r)
    poly = sympy.series(expr, t, 0, EGF_ORDER + 1).removeO()
    expected = [_to_fraction(poly.coeff(t, n) * sympy.factorial(n)) for n in range(EGF_ORDER + 1)]
    assert list(got.coeffs) == expected
