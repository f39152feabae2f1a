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

Every function here, ``egf_apply_poly`` (a polynomial F applied to the
series of y) included, reads the Bell triangle of a sequence from
``bell_columns``, one build per sequence per call, as the kernel returns it:
each weighted sum is one integer sum of the numerators num[k][n] over the
row denominator h[n] (times the weights' own denominator), with one
``Fraction`` per result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm

from .bell import bell_columns
from .egf import TruncatedEGF
from .rationals import falling, rat
from .reports import IdentityReport, InputError, PoleError
from .sequences import SequenceSpec


def _require_ints(**values) -> None:
    for name, value in values.items():
        if type(value) is not int:
            raise InputError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class TransformParams:
    """Integer parameters (a, b) of the transform pair."""

    a: int
    b: int

    def __post_init__(self):
        _require_ints(a=self.a, b=self.b)

    def require_invertible(self) -> None:
        if self.a == 0 and self.b == 0:
            raise InputError("(a, b) = (0, 0) has no inverse transform")


def q_function(n: int, b: int, lam, z: SequenceSpec) -> Fraction:
    """The weighted Bell sum over k = 1..n; total in lam and b."""
    _require_ints(n=n, b=b)
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    z.require(n)
    return _q_sum(bell_columns(z, n), n, b, rat(lam))


def _q_sum(table, n: int, b: int, lam, k0: int = 1) -> Fraction:
    """sum_{k=k0}^{n} C(lam + b*k, k-k0) (k-1)! B(n, k)(z) from ``bell_columns(z, .)``,
    q_function(n, b, lam, z) at k0 = 1.  With lam = p/s each weight is an
    integer over s^(k-k0), so the sum is one integer over h_n s^(n-k0)."""
    num, h = table
    p, s = lam.numerator, lam.denominator
    total = sum(
        falling(p + b * k * s, k - k0, s) * perm(k - 1, k0 - 1) * s ** (n - k) * num[k][n]
        for k in range(k0, n + 1)
    )
    return Fraction(total, h[n] * s ** max(n - k0, 0))


def q_recurrence_check(n: int, lam: int, z: SequenceSpec) -> IdentityReport:
    """For integer lam >= 0 the b = 0 sum satisfies, with the right side in ``Fraction``s,

        Q(n, lam) = z_n + sum_{i=1}^{lam} i/(lam+1)
                          sum_{m=1}^{n-1} C(n, m) z_{n-m} Q(m, i-1).
    """
    _require_ints(n=n)
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if type(lam) is not int or lam < 0:
        raise InputError(f"lam must be a nonnegative integer, got {lam!r}")
    z.require(n)
    table = bell_columns(z, n)
    rhs = z[n] + sum(Fraction(i, lam + 1) * comb(n, m) * z[n - m] * _q_sum(table, m, 0, i - 1)
                     for i in range(1, lam + 1) for m in range(1, n))
    lhs = _q_sum(table, n, 0, lam)
    return IdentityReport("q-recurrence", {"n": n, "lambda": lam, "z": z}, lhs, rhs)


def q_product_check(
    n1: int, n2: int, b1: int, b2: int, lam1, lam2, z: SequenceSpec
) -> IdentityReport:
    """Product of two weighted Bell sums re-expanded as a double sum.

    Terms are indexed by (k, l) with the two Bell factors nonzero, i.e.
    1 <= l <= n2 and 1 <= k - l <= n1; the two affine denominators must not
    vanish there.  With j = k - l and den = lam + b*j + 1, k!/C(k, l) =
    j! l! and C(den, j) j!/den = C(lam + b*j, j-1) (j-1)!, so the right side
    is the two left factors expanded term by term: the check can fail only
    at a pole, never on a value.  Each term's coefficient is thus
    falling(lam1 + b1*j, j-1) falling(lam2 + b2*l, l-1), an integer over
    s1^(j-1) s2^(l-1) for lam1 = p1/s1 and lam2 = p2/s2, and the right side
    is one integer double sum over h_{n1} h_{n2} s1^(n1-1) s2^(n2-1).
    """
    _require_ints(n1=n1, n2=n2, b1=b1, b2=b2)
    if n1 < 1 or n2 < 1:
        raise InputError(f"orders must be positive, got n1={n1}, n2={n2}")
    z.require(max(n1, n2))
    lam1, lam2 = rat(lam1), rat(lam2)
    num, h = table = bell_columns(z, max(n1, n2))
    (p1, s1), (p2, s2) = (lam1.numerator, lam1.denominator), (lam2.numerator, lam2.denominator)
    lhs = _q_sum(table, n1, b1, lam1) * _q_sum(table, n2, b2, lam2)
    rhs = 0
    for l in range(1, n2 + 1):
        if p2 + (b2 * l + 1) * s2 == 0:
            raise PoleError(f"lam2 + {b2}*{l} + 1 = 0", where=("l", l))
        c2 = falling(p2 + b2 * l * s2, l - 1, s2) * s2 ** (n2 - l) * num[l][n2]
        for j in range(1, n1 + 1):  # j = k - l
            if p1 + (b1 * j + 1) * s1 == 0:
                raise PoleError(f"lam1 + {b1}*{j} + 1 = 0", where=("k-l", j))
            rhs += falling(p1 + b1 * j * s1, j - 1, s1) * s1 ** (n1 - j) * num[j][n1] * c2
    return IdentityReport(
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
        Fraction(rhs, h[n1] * h[n2] * s1 ** (n1 - 1) * s2 ** (n2 - 1)),
    )


def forward_transform(
    x: SequenceSpec, params: TransformParams, n_max: int
) -> SequenceSpec:
    """y_n = sum_{k=1}^{n} C(a*n + b*k, k-1) (k-1)! B(n, k)(x), n = 1..n_max."""
    _require_ints(n_max=n_max)
    x.require(n_max)
    return _forward(params, bell_columns(x, n_max), n_max)


def _forward(params: TransformParams, table, n_max: int) -> SequenceSpec:
    """forward_transform from ``table = bell_columns(x, n_max)``."""
    return SequenceSpec(
        tuple(_q_sum(table, n, params.b, params.a * n) for n in range(1, n_max + 1))
    )


def _inverse_entry(params: TransformParams, n: int, table) -> Fraction:
    """x_n from ``table = bell_columns(y, .)``: one integer sum over h_n (a*n + b)."""
    a, b = params.a, params.b
    den = a * n + b
    if den == 0:
        raise PoleError(f"a*n + b = 0 at n = {n}", where=("n", n))
    num, h = table
    total = sum((a * n + b * k) * falling(-den, k - 1) * num[k][n] for k in range(1, n + 1))
    return Fraction(total, h[n] * den)


def inverse_transform(
    y: SequenceSpec, params: TransformParams, n_max: int
) -> SequenceSpec:
    """x_n = sum_k (a*n+b*k)/(a*n+b) C(-a*n-b, k-1) (k-1)! B(n, k)(y), n = 1..n_max.

    Raises :class:`PoleError` naming the first n <= n_max with a*n + b = 0;
    the prefactor is undefined there and no limit is taken.
    """
    _require_ints(n_max=n_max)
    params.require_invertible()
    y.require(n_max)
    table = bell_columns(y, n_max)
    return SequenceSpec(
        tuple(_inverse_entry(params, n, table) for n in range(1, n_max + 1))
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
    _require_ints(n=n, k0=k0)
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if k0 < 1:
        raise InputError(f"k0 must be >= 1, got {k0}")
    x.require(n)
    lam = rat(lam)
    table_x = bell_columns(x, n)
    table_y = bell_columns(_forward(params, table_x, n), n)
    return IdentityReport(
        "lambda-composition",
        {"a": params.a, "b": params.b, "n": n, "lambda": lam, "k0": k0, "x": x},
        _q_sum(table_y, n, 0, lam, k0),
        _q_sum(table_x, n, params.b, lam + params.a * n, k0),
    )


def egf_apply_poly(
    f_coeffs, params: TransformParams, x: SequenceSpec
) -> tuple[TruncatedEGF, TruncatedEGF]:
    """The series Z = 1 + sum y_n t^n / n! of y = forward_transform(x) and F(Z).

    Both are of order len(x) and read one Bell table of x.  The n-th
    coefficient of F(Z) (n >= 1) is sum_l c_l * l * q_function(n, b,
    l-1+a*n, x) and the constant one is F(1).
    """
    n_max = len(x)
    table = bell_columns(x, n_max)
    z = TruncatedEGF.from_sequence(_forward(params, table, n_max))
    coeffs = [rat(c) for c in f_coeffs]
    out = [sum(coeffs, Fraction(0))]
    for n in range(1, n_max + 1):
        out.append(sum((c * l * _q_sum(table, n, params.b, l - 1 + params.a * n)
                        for l, c in enumerate(coeffs) if l and c), Fraction(0)))
    return z, TruncatedEGF(tuple(out))
