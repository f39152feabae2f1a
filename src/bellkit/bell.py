"""Partial Bell polynomials: one kernel, evaluated or symbolic.

The polynomial B(n, k) in the variables x_1, ..., x_{n-k+1} is the sum,
over all index vectors i with entry sum k and weighted sum n, of

    n!/(i_1! i_2! ...) * (x_1/1!)^{i_1} * (x_2/2!)^{i_2} * ...

``bell_columns`` is the one kernel.  It builds the whole triangle
B(n, k)(x), 0 <= k <= n <= n_max, in one pass of the row recurrence

    B(n, k) = sum_{m=1}^{n-k+1} C(n-1, m-1) x_m B(n-m, k-1)

(Comtet, *Advanced Combinatorics*, ch. 3), in integer arithmetic, and
returns each column k as integer numerators over one denominator Q_k.  Every
consumer reads these columns: the weighted sums of :mod:`bellkit.transforms`,
the Bell convolutions and the splitting identity of :mod:`bellkit.identities`,
and ``bell_value``, which returns one entry.  ``bell_symbolic`` expands the
definition sum above into a polynomial.  ``stirling2`` and
``stirling1_unsigned`` are the classical specializations at x_j = 1 and
x_j = (j-1)!.  The independent routes the tests hold the kernel against (the
definition sum at a sequence, and a one-step recurrence in k) live in
``tests/oracles.py``, outside the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul

from .partitions import enumerate_pi, strip_trailing_zeros
from .reports import InputError
from .sequences import SequenceSpec, factorials, ones
from .sparsepoly import SparsePoly


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


def bell_columns(x: SequenceSpec, n_max: int) -> tuple[list[list[int]], list[int]]:
    """``(num, q)`` with B(n, k)(x) = num[k][n] / q[k], 0 <= k <= n <= n_max, in one pass.

    All arithmetic is in ints.  With D the lcm of the denominators of x, the
    entries a_m = D x_m are integers.  A step of the recurrence puts column k
    over D Q_{k-1}, and the gcd of that and the column's numerators is
    divided out, so Q_k does not grow like D^k.  Entries out of the reach of
    x (n - k + 1 > len(x)) are held as 0.
    """
    length = min(len(x), max(n_max, 0))
    xs = x.values[:length]
    d = lcm(*(v.denominator for v in xs))
    a = [v.numerator * (d // v.denominator) for v in xs]
    # weights[n][m-1] = C(n-1, m-1) a_m, the factors that do not depend on k
    weights = [
        [comb(n - 1, m) * am for m, am in enumerate(a[:n])] for n in range(n_max + 1)
    ]
    prev = [1] + [0] * n_max  # numerators of column k-1, indexed by n
    num, q = [prev], [1]
    for k in range(1, n_max + 1):
        top = min(n_max, length + k - 1)  # last row in reach of x
        col = [0] * (n_max + 1)
        for n in range(k, top + 1):
            # m = 1..n-k+1 pairs weights[n][m-1] with prev[n-m]
            col[n] = sum(map(mul, weights[n], reversed(prev[k - 1 : n])))
        g = gcd(d * q[-1], *col[k : top + 1])
        prev = [c // g for c in col]
        num.append(prev)
        q.append(d * q[-1] // g)
    return num, q


def bell_value(x: SequenceSpec, n: int, k: int) -> Fraction:
    """B(n, k)(x), one entry read from ``bell_columns(x, n)``.

    Conventions: B(0, 0) = 1, B(n, 0) = 0 for n > 0 and B(n, k) = 0 for k > n.
    An entry out of the reach of x (n - k + 1 > len(x)) raises ``SequenceTooShort``.

    >>> bell_value(ones(4), 4, 2)
    Fraction(7, 1)
    """
    if n < 0 or k < 0:
        raise InputError(f"indices must be nonnegative, got n={n}, k={k}")
    if k > n:
        return Fraction(0)
    if k:
        x.require(n - k + 1)
    num, q = bell_columns(x, n)
    return Fraction(num[k][n], q[k])


def bell_symbolic(n: int, k: int) -> SparsePoly:
    """The polynomial B(n, k), with positive integer coefficients.

    Requires 1 <= k <= n; ``bell_value`` holds the boundary cases.

    >>> bell_symbolic(4, 2)
    3*x2^2 + 4*x1*x3
    """
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    terms = {}
    for i in enumerate_pi(n, k, n - k + 1):
        terms[strip_trailing_zeros(i)] = Fraction(_term_coefficient(n, i))
    return SparsePoly(terms)


def _integral_entry(n: int, k: int, x: SequenceSpec) -> int:
    value = bell_value(x, n, k)
    if value.denominator != 1:
        raise ArithmeticError(f"B({n}, {k}) = {value} is not an integer at {x!r}")
    return value.numerator


def stirling2(n: int, k: int) -> int:
    """Stirling set number S(n, k) = B(n, k) at all-ones."""
    return _integral_entry(n, k, ones(max(n - k + 1, 0)))


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling cycle number c(n, k) = B(n, k) at x_j = (j-1)!."""
    return _integral_entry(n, k, factorials(max(n - k + 1, 0)))
