"""Partial Bell polynomials: one production kernel and two independent oracles.

The polynomial B(n, k) in the variables x_1, ..., x_{n-k+1} is the sum,
over all index vectors i with entry sum k and weighted sum n, of

    n!/(i_1! i_2! ...) * (x_1/1!)^{i_1} * (x_2/2!)^{i_2} * ...

``bell_table`` is the kernel every Bell consumer in the package reads.  It
builds the whole triangle B(n, k)(x), 0 <= k <= n <= n_max, in one pass of
the row recurrence

    B(n, k) = sum_{m=1}^{n-k+1} C(n-1, m-1) x_m B(n-m, k-1)

(Comtet, *Advanced Combinatorics*, ch. 3), in integer arithmetic.  The
other two routes are oracles, kept for the tests and sharing no code with
the table or with each other: ``bell_eval`` evaluates the definition sum
above at a concrete sequence (``bell_symbolic`` expands it into a
polynomial), and ``bell_recursive`` runs a different one-step recurrence
in k with ``Fraction``s.  ``stirling2`` and ``stirling1_unsigned`` are the
classical specializations at x_j = 1 and x_j = (j-1)!.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Callable

from .partitions import enumerate_pi, strip_trailing_zeros
from .sequences import SequenceSpec, factorials, ones
from .sparsepoly import SparsePoly

#: ``bell(n, k)`` -> B(n, k)(x), as returned by ``bell_table``
BellTable = Callable[[int, int], Fraction]


def _term_coefficient(n: int, i) -> int:
    # n! / (prod i_j! * prod (j!)^{i_j}); always integral
    den = 1
    for j, ij in enumerate(i, start=1):
        if ij:
            den *= factorial(ij) * factorial(j) ** ij
    c, r = divmod(factorial(n), den)
    if r:
        raise ArithmeticError(f"non-integer coefficient at n={n}, i={i}")
    return c


def bell_table(x: SequenceSpec, n_max: int) -> BellTable:
    """Every B(n, k)(x) with 0 <= k <= n <= n_max, from one pass of the row recurrence.

    Returns ``bell(n, k)`` with the conventions of ``bell_eval``: B(0, 0) = 1,
    B(n, 0) = 0 for n > 0 and B(n, k) = 0 for k > n.  B(n, k) needs only
    x_1 ... x_{n-k+1}, so x may be shorter than n_max; reading an entry out
    of its reach raises ``SequenceTooShort``.

    All arithmetic is in ints.  With D the lcm of the denominators of x, the
    entries a_m = D x_m are integers.  Column k is kept as integer numerators
    over one denominator Q_k: a step of the recurrence puts column k over
    D Q_{k-1}, and the gcd of that and the column's numerators is divided
    out before the next step, so the numbers do not grow like D^k.
    """
    length = min(len(x), max(n_max, 0))
    xs = x.values[:length]
    d = lcm(*(v.denominator for v in xs))
    a = [v.numerator * (d // v.denominator) for v in xs]
    # weights[n][m-1] = C(n-1, m-1) a_m, the factors that do not depend on k
    weights = [
        [comb(n - 1, m) * am for m, am in enumerate(a[:n])] for n in range(n_max + 1)
    ]
    rows: list[list[Fraction | None]] = [[None] * (n + 1) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        rows[n][0] = Fraction(1 if n == 0 else 0)
    prev = [1] + [0] * n_max  # numerators of column k-1, indexed by n
    q = 1  # their common denominator
    for k in range(1, n_max + 1):
        top = min(n_max, length + k - 1)  # last row in reach of x
        if top < k:
            break
        col = [0] * (n_max + 1)
        for n in range(k, top + 1):
            # m = 1..n-k+1 pairs weights[n][m-1] with prev[n-m]
            col[n] = sum(map(mul, weights[n], reversed(prev[k - 1 : n])))
        g = gcd(d * q, *col[k : top + 1])
        q = d * q // g
        for n in range(k, top + 1):
            col[n] //= g
            rows[n][k] = Fraction(col[n], q)
        prev = col

    def bell(n: int, k: int) -> Fraction:
        if n < 0 or k < 0:
            raise ValueError(f"indices must be nonnegative, got n={n}, k={k}")
        if n > n_max:
            raise ValueError(f"table holds n <= {n_max}, got n={n}")
        if k > n:
            return Fraction(0)
        value = rows[n][k]
        if value is None:
            x.require(n - k + 1)
        return value

    return bell


def bell_symbolic(n: int, k: int) -> SparsePoly:
    """The polynomial B(n, k), with positive integer coefficients.

    Requires 1 <= k <= n; boundary cases live in ``bell_eval``.

    >>> bell_symbolic(4, 2)
    3*x2^2 + 4*x1*x3
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    terms = {}
    for i in enumerate_pi(n, k, n - k + 1):
        terms[strip_trailing_zeros(i)] = Fraction(_term_coefficient(n, i))
    return SparsePoly(terms)


def bell_eval(n: int, k: int, x: SequenceSpec) -> Fraction:
    """Value of B(n, k) at x, by the definition sum.

    Conventions: B(0, 0) = 1, B(n, 0) = 0 for n > 0, B(n, k) = 0 for k > n.
    Needs x_1 ... x_{n-k+1}.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got n={n}, k={k}")
    if k == 0:
        return Fraction(1 if n == 0 else 0)
    if k > n:
        return Fraction(0)
    need = n - k + 1
    x.require(need)
    total = Fraction(0)
    for i in enumerate_pi(n, k, need):
        term = Fraction(_term_coefficient(n, i))
        for xj, ij in zip(x.values, i):
            if ij:
                term *= xj ** ij
        total += term
    return total


def bell_recursive(n: int, k: int, x: SequenceSpec) -> Fraction:
    """Value of B(n, k) at x via the recurrence

        B(n, k) = (1/k) * sum_{m=k-1}^{n-1} C(n, m) x_{n-m} B(m, k-1)

    with base B(m, 0) = [m == 0].  Must agree with ``bell_eval`` exactly.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    x.require(n - k + 1)
    memo: dict[tuple[int, int], Fraction] = {}

    def value(nn: int, kk: int) -> Fraction:
        if kk == 0:
            return Fraction(1 if nn == 0 else 0)
        key = (nn, kk)
        if key not in memo:
            acc = Fraction(0)
            for m in range(kk - 1, nn):
                acc += comb(nn, m) * x[nn - m] * value(m, kk - 1)
            memo[key] = acc / kk
        return memo[key]

    return value(n, k)


def _integral_entry(n: int, k: int, x: SequenceSpec) -> int:
    value = bell_table(x, n)(n, k)
    if value.denominator != 1:
        raise ArithmeticError(f"B({n}, {k}) = {value} is not an integer at {x!r}")
    return value.numerator


def stirling2(n: int, k: int) -> int:
    """Stirling set number S(n, k) = B(n, k) at all-ones."""
    return _integral_entry(n, k, ones(max(n - k + 1, 0)))


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling cycle number c(n, k) = B(n, k) at x_j = (j-1)!."""
    return _integral_entry(n, k, factorials(max(n - k + 1, 0)))
