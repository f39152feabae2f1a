"""Independent routes the tests hold the package against.

No code path of ``bellkit`` calls these.  ``bell_eval`` is the definition
sum of a partial Bell polynomial and ``bell_recursive`` a different one-step
recurrence, both checked against ``bell_columns`` and ``bell_value`` and
sharing no code with them; ``w_coefficient`` is the definition sum of
W(m, l; v), checked against the generating-function product of
``identities._w_support``; ``certify_th1_grid`` sweeps every v up to a
weighted sum through ``certify_double_sums``.

``bell_triangle`` is not an independent route: it is the ``Fraction``
triangle of one ``bell_columns`` call, for tests that read many entries of
one sequence without rebuilding the columns per entry.  The weighted Bell
sums of ``bellkit.transforms`` (``q_function``, the transform pair, the two
sides of the lambda identity, the logarithmic and potential polynomials) are
held against ``Fraction`` loops over its entries: one ``Fraction`` product
and sum per (n, k), where the package adds integers over one denominator.

Checks raise explicitly instead of using ``assert``: pytest rewrites
asserts only in test modules, and ``python -O`` strips the rest.  This
module is not collected as a test module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from bellkit.bell import bell_columns
from bellkit.identities import DEFAULT_ALPHAS, certify_double_sums, grid_vs
from bellkit.partitions import enumerate_pi, strip_trailing_zeros
from bellkit.rationals import binomial_general, rat
from bellkit.reports import GridResult, IdentityReport, InputError, PoleError
from bellkit.sequences import SequenceSpec


def bell_triangle(x: SequenceSpec, n_max: int):
    """``bell(n, k)`` -> B(n, k)(x) for n <= n_max, from one ``bell_columns(x, n_max)``.

    Same conventions and errors as ``bellkit.bell.bell_value``.
    """
    num, q = bell_columns(x, n_max)
    rows = [[Fraction(num[k][n], q[k]) for k in range(n + 1)] for n in range(n_max + 1)]

    def bell(n: int, k: int) -> Fraction:
        if n < 0 or k < 0:
            raise InputError(f"indices must be nonnegative, got n={n}, k={k}")
        if n > n_max:
            raise InputError(f"table holds n <= {n_max}, got n={n}")
        if k > n:
            return Fraction(0)
        if k:
            x.require(n - k + 1)
        return rows[n][k]

    return bell


def bell_eval(n: int, k: int, x: SequenceSpec) -> Fraction:
    """Value of B(n, k) at x, by the definition sum

        sum over i of n!/(i_1! i_2! ...) * (x_1/1!)^{i_1} * (x_2/2!)^{i_2} * ...

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
        term = Fraction(factorial(n))
        for j, (xj, ij) in enumerate(zip(x.values, i), start=1):
            if ij:
                term *= (xj / factorial(j)) ** ij / factorial(ij)
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


def w_coefficient(m: int, l: int, v) -> int:
    """Sum of products comb(v_1, i_1)...comb(v_d, i_d) over enumerate_pi(m, l, d).

    Zero when the index set is empty (in particular for l = 0 < m), and 1 at
    (m, l) = (0, 0).  Vectors equal up to trailing zeros give equal results.
    """
    v = tuple(int(e) for e in v)
    if any(e < 0 for e in v):
        raise ValueError(f"entries must be nonnegative, got {v}")
    v = strip_trailing_zeros(v)
    if not v:
        raise ValueError("v must have at least one positive entry")
    if m < 0 or l < 0:
        return 0
    total = 0
    for i in enumerate_pi(m, l, len(v)):
        p = 1
        for vj, ij in zip(v, i):
            p *= comb(vj, ij)
            if p == 0:
                break
        total += p
    return total


def certify_th1_grid(n_max: int) -> tuple[list[IdentityReport], GridResult]:
    """Certify the double-sum identities for every v with weighted sum <= n_max.

    Each (v, alpha, variant), alpha in ``DEFAULT_ALPHAS``, is checked at
    2k+2 pole-free tau values; since both sides are polynomials in tau of
    degree at most 2k+1 after clearing the finitely many linear
    denominators, passing on such a grid certifies the identity for all tau.
    Combinations where alpha vanishes at a nonzero-weight (l, m) are
    tau-independent poles: they are recorded and skipped, never checked.
    Returns every report and the result they were read from, whose counts
    and skipped pairs then cover the whole sweep.
    """
    vs = [v for n in range(1, n_max + 1) for v in grid_vs(n)]
    result = certify_double_sums(vs, DEFAULT_ALPHAS)
    return list(result), result


def q_sum(n: int, b: int, lam, bell, k0: int = 1) -> Fraction:
    """sum_{k=k0}^{n} C(lam + b*k, k-k0) (k-1)! B(n, k) over a ``bell_triangle``."""
    total = Fraction(0)
    for k in range(k0, n + 1):
        total += binomial_general(lam + b * k, k - k0) * factorial(k - 1) * bell(n, k)
    return total


def q_function(n: int, b: int, lam, z: SequenceSpec) -> Fraction:
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    z.require(n)
    return q_sum(n, b, rat(lam), bell_triangle(z, n))


def forward_transform(x: SequenceSpec, a: int, b: int, n_max: int) -> SequenceSpec:
    x.require(n_max)
    bell = bell_triangle(x, n_max)
    return SequenceSpec(tuple(q_sum(n, b, a * n, bell) for n in range(1, n_max + 1)))


def inverse_transform(y: SequenceSpec, a: int, b: int, n_max: int) -> SequenceSpec:
    """The inverse with the pole and (0, 0) errors of ``transforms.inverse_transform``."""
    if a == 0 and b == 0:
        raise InputError("(a, b) = (0, 0) has no inverse transform")
    y.require(n_max)
    bell = bell_triangle(y, n_max)
    out = []
    for n in range(1, n_max + 1):
        den = a * n + b
        if den == 0:
            raise PoleError(f"a*n + b = 0 at n = {n}", where=("n", n))
        total = Fraction(0)
        for k in range(1, n + 1):
            total += (
                Fraction(a * n + b * k, den)
                * binomial_general(-a * n - b, k - 1)
                * factorial(k - 1)
                * bell(n, k)
            )
        out.append(total)
    return SequenceSpec(tuple(out))


def lambda_identity_sides(x: SequenceSpec, a: int, b: int, n: int, lam, k0: int = 1):
    """Both sides of ``transforms.lambda_identity_check`` at n >= 1 and k0 >= 1."""
    x.require(n)
    lam = rat(lam)
    bell_y = bell_triangle(forward_transform(x, a, b, n), n)
    return q_sum(n, 0, lam, bell_y, k0), q_sum(n, b, lam + a * n, bell_triangle(x, n), k0)


def log_polynomials(z: SequenceSpec, n_max: int) -> SequenceSpec:
    z.require(n_max)
    bell = bell_triangle(z, n_max)
    return SequenceSpec(tuple(q_sum(n, 0, Fraction(-1), bell) for n in range(1, n_max + 1)))


def potential_polynomials(r, z: SequenceSpec, n_max: int) -> SequenceSpec:
    z.require(n_max)
    r = rat(r)
    bell = bell_triangle(z, n_max)
    return SequenceSpec(tuple(r * q_sum(n, 0, r - 1, bell) for n in range(1, n_max + 1)))
