"""Exact scalar arithmetic: rationals and generalized binomials.

Every scalar in this package is an exact rational (``fractions.Fraction``)
or an arbitrary-precision ``int``.  There is no floating point anywhere, so
every identity check downstream is an exact equality with zero tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .reports import InputError


def rat(value) -> Fraction:
    """Parse a rational from "p/q" or "p" strings, ints, or Fractions.

    Tolerates a unicode minus sign in string input.  Floats and booleans
    are refused rather than coerced.
    """
    if isinstance(value, str):
        value = value.replace("−", "-").strip()
    if isinstance(value, (float, bool)):
        kind = type(value).__name__
        raise InputError(f"refusing {kind} input {value!r}; pass a string or int")
    return Fraction(value)


def rat_str(value) -> str:
    """Serialize as "p/q", or just "p" when the denominator is 1."""
    f = value if isinstance(value, (int, Fraction)) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def falling(p: int, j: int, q: int = 1) -> int:
    """p (p - q) (p - 2q) ... (p - (j-1)q), in ints: q^j times the falling factorial of p/q."""
    if q == 1:
        return math.perm(p, j) if p >= 0 else (-1) ** j * math.perm(j - 1 - p, j)
    out = 1
    for i in range(j):
        out *= p - i * q
    return out


def binomial_general(t, j: int):
    """Generalized binomial coefficient t(t-1)...(t-j+1) / j!.

    Defined for any rational (or integer) upper argument t and any
    nonnegative integer lower argument j; total on that domain.  Returns an
    int when t is an integer, a Fraction otherwise.  For t = p/q the value
    is falling(p, j, q) / (q^j j!), computed in ints.
    """
    if j < 0:
        raise InputError(f"lower index must be nonnegative, got {j}")
    p, q = t.numerator, t.denominator
    if q == 1:
        if p >= 0:
            return math.comb(p, j)
        # falling factorial of a negative integer, flipped upward
        return (-1) ** j * math.comb(-p + j - 1, j)
    return Fraction(falling(p, j, q), q**j * math.factorial(j))
