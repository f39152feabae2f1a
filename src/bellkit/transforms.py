"""Weighted Bell sums and the inverse pair of sequence transforms.

The central object is the weighted sum

    q_function(n, b, lam, z) = sum_{k=1}^{n} C(lam + b*k, k-1) (k-1)! B(n, k)(z),

which packages the coefficient extraction for compositions of exponential
generating functions.  Specializing b = 0 gives the logarithmic polynomials
(lam = -1) and, after scaling by r, the potential polynomials (lam = r - 1).

``forward_transform`` maps x to y_n = q_function(n, b, a*n, x) and
``inverse_transform`` applies the companion formula with the reciprocal
binomial weights; composed in either order they give back the input,
exactly, whenever a*n + b stays away from 0.  ``lambda_identity_check``
certifies the composition identity that makes the inversion work.

Every function here reads its Bell values from one ``bell_table`` per
sequence per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .bell import BellTable, bell_table
from .identities import IdentityReport, PoleError, _report
from .rationals import binomial_general, rat
from .sequences import SequenceSpec


@dataclass(frozen=True)
class TransformParams:
    """Integer parameters (a, b) of the transform pair."""

    a: int
    b: int

    def require_invertible(self) -> None:
        if self.a == 0 and self.b == 0:
            raise ValueError("(a, b) = (0, 0) has no inverse transform")


def q_function(n: int, b: int, lam, z: SequenceSpec) -> Fraction:
    """The weighted Bell sum over k = 1..n; total in lam and b."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    z.require(n)
    return _q_sum(n, b, rat(lam), bell_table(z, n))


def _q_sum(n: int, b: int, lam, bell: BellTable) -> Fraction:
    """q_function(n, b, lam, z) from a Bell table of z."""
    total = Fraction(0)
    for k in range(1, n + 1):
        total += binomial_general(lam + b * k, k - 1) * factorial(k - 1) * bell(n, k)
    return total


def q_recurrence_check(n: int, lam: int, z: SequenceSpec) -> IdentityReport:
    """For integer lam >= 0, the b = 0 sum satisfies

        Q(n, lam) = z_n + sum_{i=1}^{lam} i/(lam+1)
                          sum_{m=1}^{n-1} C(n, m) z_{n-m} Q(m, i-1).
    """
    if lam < 0 or not isinstance(lam, int):
        raise ValueError(f"lam must be a nonnegative integer, got {lam!r}")
    z.require(n)
    bell = bell_table(z, n)
    lhs = _q_sum(n, 0, lam, bell)
    rhs = z[n]
    for i in range(1, lam + 1):
        inner = Fraction(0)
        for m in range(1, n):
            inner += comb(n, m) * z[n - m] * _q_sum(m, 0, i - 1, bell)
        rhs += Fraction(i, lam + 1) * inner
    return _report("q-recurrence", {"n": n, "lambda": lam, "z": z}, lhs, rhs)


def q_product_check(
    n1: int, n2: int, b1: int, b2: int, lam1, lam2, z: SequenceSpec
) -> IdentityReport:
    """Product of two weighted Bell sums re-expanded as a double sum.

    Terms are indexed by (k, l) with the two Bell factors nonzero, i.e.
    1 <= l <= n2 and 1 <= k - l <= n1; the two affine denominators must not
    vanish there.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"orders must be positive, got n1={n1}, n2={n2}")
    z.require(max(n1, n2))
    lam1, lam2 = rat(lam1), rat(lam2)
    bell = bell_table(z, max(n1, n2))
    lhs = _q_sum(n1, b1, lam1, bell) * _q_sum(n2, b2, lam2, bell)
    rhs = Fraction(0)
    for l in range(1, n2 + 1):
        den2 = lam2 + b2 * l + 1
        if den2 == 0:
            raise PoleError(f"lam2 + {b2}*{l} + 1 = 0", where=("l", l))
        for j in range(1, n1 + 1):  # j = k - l
            k = j + l
            den1 = lam1 + b1 * j + 1
            if den1 == 0:
                raise PoleError(f"lam1 + {b1}*{j} + 1 = 0", where=("k-l", j))
            rhs += (
                factorial(k)
                * binomial_general(den1, j)
                * binomial_general(den2, l)
                / (den1 * den2 * comb(k, l))
                * bell(n1, j)
                * bell(n2, l)
            )
    return _report(
        "q-product",
        {
            "n1": n1,
            "n2": n2,
            "b1": b1,
            "b2": b2,
            "lambda1": lam1,
            "lambda2": lam2,
            "z": z,
        },
        lhs,
        rhs,
    )


def forward_transform(
    x: SequenceSpec, params: TransformParams, n_max: int
) -> SequenceSpec:
    """y_n = sum_{k=1}^{n} C(a*n + b*k, k-1) (k-1)! B(n, k)(x), n = 1..n_max."""
    x.require(n_max)
    return _forward(params, n_max, bell_table(x, n_max))


def _forward(params: TransformParams, n_max: int, bell: BellTable) -> SequenceSpec:
    """forward_transform from a Bell table of x."""
    return SequenceSpec(
        tuple(_q_sum(n, params.b, params.a * n, bell) for n in range(1, n_max + 1))
    )


def inverse_value(y: SequenceSpec, params: TransformParams, n: int) -> Fraction:
    """Single entry of the inverse transform; needs a*n + b != 0."""
    params.require_invertible()
    y.require(n)
    return _inverse_entry(params, n, bell_table(y, n))


def _inverse_entry(params: TransformParams, n: int, bell: BellTable) -> Fraction:
    a, b = params.a, params.b
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
    return total


def inverse_transform(
    y: SequenceSpec, params: TransformParams, n_max: int
) -> SequenceSpec:
    """x_n = sum_k (a*n+b*k)/(a*n+b) C(-a*n-b, k-1) (k-1)! B(n, k)(y), n = 1..n_max.

    Raises :class:`PoleError` naming the first n <= n_max with a*n + b = 0;
    the prefactor is undefined there and no limit is taken.
    """
    params.require_invertible()
    y.require(n_max)
    bell = bell_table(y, n_max)
    return SequenceSpec(
        tuple(_inverse_entry(params, n, bell) for n in range(1, n_max + 1))
    )


def lambda_identity_check(
    x: SequenceSpec, params: TransformParams, n: int, lam, k0: int = 1
) -> IdentityReport:
    """The composition identity between x and y = forward_transform(x):

        sum_{k=k0}^{n} C(lam, k-k0) (k-1)! B(n,k)(y)
            = sum_{k=k0}^{n} C(lam + a*n + b*k, k-k0) (k-1)! B(n,k)(x).

    Passing at n+1 distinct lam certifies it for all lam, both sides being
    polynomials in lam of degree below n.
    """
    if k0 < 1:
        raise ValueError(f"k0 must be >= 1, got {k0}")
    x.require(n)
    lam = rat(lam)
    bell_x = bell_table(x, n)
    bell_y = bell_table(_forward(params, n, bell_x), n)
    lhs = Fraction(0)
    rhs = Fraction(0)
    for k in range(k0, n + 1):
        lhs += binomial_general(lam, k - k0) * factorial(k - 1) * bell_y(n, k)
        rhs += (
            binomial_general(lam + params.a * n + params.b * k, k - k0)
            * factorial(k - 1)
            * bell_x(n, k)
        )
    return _report(
        "lambda-composition",
        {"a": params.a, "b": params.b, "n": n, "lambda": lam, "k0": k0, "x": x},
        lhs,
        rhs,
    )


def log_polynomials(z: SequenceSpec, n_max: int) -> SequenceSpec:
    """Logarithmic polynomials: the b = 0 weighted sum at lam = -1."""
    z.require(n_max)
    bell = bell_table(z, n_max)
    return SequenceSpec(
        tuple(_q_sum(n, 0, Fraction(-1), bell) for n in range(1, n_max + 1))
    )


def potential_polynomials(r, z: SequenceSpec, n_max: int) -> SequenceSpec:
    """Potential polynomials: r times the b = 0 weighted sum at lam = r - 1."""
    z.require(n_max)
    r = rat(r)
    bell = bell_table(z, n_max)
    return SequenceSpec(
        tuple(r * _q_sum(n, 0, r - 1, bell) for n in range(1, n_max + 1))
    )
