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

Every function here reads the Bell triangle of a sequence from
``bell_columns``, one build per sequence per call, as integer rows: row n is
over the kernel's row denominator h_n, and each weighted sum is one integer
sum over h_n (times the weights' own denominator), with one ``Fraction`` per
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm

from .bell import bell_columns
from .rationals import falling, rat
from .reports import IdentityReport, InputError, PoleError
from .sequences import SequenceSpec


@dataclass(frozen=True)
class TransformParams:
    """Integer parameters (a, b) of the transform pair."""

    a: int
    b: int

    def __post_init__(self):
        for name in ("a", "b"):
            if type(getattr(self, name)) is not int:
                raise InputError(f"{name} must be an int, got {getattr(self, name)!r}")

    def require_invertible(self) -> None:
        if self.a == 0 and self.b == 0:
            raise InputError("(a, b) = (0, 0) has no inverse transform")


def q_function(n: int, b: int, lam, z: SequenceSpec) -> Fraction:
    """The weighted Bell sum over k = 1..n; total in lam and b."""
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    z.require(n)
    return _q_sum(_rows(z, n)[n], b, rat(lam))


Row = tuple[list[int], int]


def _rows(z: SequenceSpec, n_max: int) -> list[Row]:
    """Row n of the Bell triangle of z as integers r over the row denominator
    h_n of ``bell_columns``: B(n, k)(z) = r[k] / h_n."""
    num, h = bell_columns(z, n_max)
    return [([col[n] for col in num[: n + 1]], h[n]) for n in range(n_max + 1)]


def _q_sum(row: Row, b: int, lam, k0: int = 1) -> Fraction:
    """sum_{k=k0}^{n} C(lam + b*k, k-k0) (k-1)! B(n, k)(z) from row n of ``_rows(z, .)``,
    q_function(n, b, lam, z) at k0 = 1.  With lam = p/s each weight is an
    integer over s^(k-k0), so the sum is one integer over h_n s^(n-k0)."""
    r, l = row
    n = len(r) - 1
    p, s = lam.numerator, lam.denominator
    total = sum(
        falling(p + b * k * s, k - k0, s) * perm(k - 1, k0 - 1) * s ** (n - k) * r[k]
        for k in range(k0, n + 1)
    )
    return Fraction(total, l * s ** max(n - k0, 0))


def q_recurrence_check(n: int, lam: int, z: SequenceSpec) -> IdentityReport:
    """For integer lam >= 0 the b = 0 sum satisfies, with the right side in ``Fraction``s,

        Q(n, lam) = z_n + sum_{i=1}^{lam} i/(lam+1)
                          sum_{m=1}^{n-1} C(n, m) z_{n-m} Q(m, i-1).
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if type(lam) is not int or lam < 0:
        raise InputError(f"lam must be a nonnegative integer, got {lam!r}")
    z.require(n)
    rows = _rows(z, n)
    rhs = z[n] + sum(Fraction(i, lam + 1) * comb(n, m) * z[n - m] * _q_sum(rows[m], 0, i - 1)
                     for i in range(1, lam + 1) for m in range(1, n))
    lhs = _q_sum(rows[n], 0, lam)
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
    if n1 < 1 or n2 < 1:
        raise InputError(f"orders must be positive, got n1={n1}, n2={n2}")
    z.require(max(n1, n2))
    lam1, lam2 = rat(lam1), rat(lam2)
    rows = _rows(z, max(n1, n2))
    (r1, h1), (r2, h2) = rows[n1], rows[n2]
    (p1, s1), (p2, s2) = (lam1.numerator, lam1.denominator), (lam2.numerator, lam2.denominator)
    lhs = _q_sum(rows[n1], b1, lam1) * _q_sum(rows[n2], b2, lam2)
    rhs = 0
    for l in range(1, n2 + 1):
        if p2 + (b2 * l + 1) * s2 == 0:
            raise PoleError(f"lam2 + {b2}*{l} + 1 = 0", where=("l", l))
        c2 = falling(p2 + b2 * l * s2, l - 1, s2) * s2 ** (n2 - l) * r2[l]
        for j in range(1, n1 + 1):  # j = k - l
            if p1 + (b1 * j + 1) * s1 == 0:
                raise PoleError(f"lam1 + {b1}*{j} + 1 = 0", where=("k-l", j))
            rhs += falling(p1 + b1 * j * s1, j - 1, s1) * s1 ** (n1 - j) * r1[j] * c2
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
        Fraction(rhs, h1 * h2 * s1 ** (n1 - 1) * s2 ** (n2 - 1)),
    )


def forward_transform(
    x: SequenceSpec, params: TransformParams, n_max: int
) -> SequenceSpec:
    """y_n = sum_{k=1}^{n} C(a*n + b*k, k-1) (k-1)! B(n, k)(x), n = 1..n_max."""
    x.require(n_max)
    return _forward(params, _rows(x, n_max))


def _forward(params: TransformParams, rows: list[Row]) -> SequenceSpec:
    """forward_transform from ``_rows(x, n_max)``."""
    return SequenceSpec(
        tuple(_q_sum(rows[n], params.b, params.a * n) for n in range(1, len(rows)))
    )


def _inverse_entry(params: TransformParams, n: int, row: Row) -> Fraction:
    """x_n from row n of ``_rows(y, .)``: one integer sum over h_n (a*n + b)."""
    a, b = params.a, params.b
    den = a * n + b
    if den == 0:
        raise PoleError(f"a*n + b = 0 at n = {n}", where=("n", n))
    r, l = row
    total = sum((a * n + b * k) * falling(-den, k - 1) * r[k] for k in range(1, n + 1))
    return Fraction(total, l * den)


def inverse_transform(
    y: SequenceSpec, params: TransformParams, n_max: int
) -> SequenceSpec:
    """x_n = sum_k (a*n+b*k)/(a*n+b) C(-a*n-b, k-1) (k-1)! B(n, k)(y), n = 1..n_max.

    Raises :class:`PoleError` naming the first n <= n_max with a*n + b = 0;
    the prefactor is undefined there and no limit is taken.
    """
    params.require_invertible()
    y.require(n_max)
    rows = _rows(y, n_max)
    return SequenceSpec(
        tuple(_inverse_entry(params, n, rows[n]) for n in range(1, n_max + 1))
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
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if k0 < 1:
        raise InputError(f"k0 must be >= 1, got {k0}")
    x.require(n)
    lam = rat(lam)
    rows_x = _rows(x, n)
    rows_y = _rows(_forward(params, rows_x), n)
    return IdentityReport(
        "lambda-composition",
        {"a": params.a, "b": params.b, "n": n, "lambda": lam, "k0": k0, "x": x},
        _q_sum(rows_y[n], 0, lam, k0),
        _q_sum(rows_x[n], params.b, lam + params.a * n, k0),
    )


def log_polynomials(z: SequenceSpec, n_max: int) -> SequenceSpec:
    """Logarithmic polynomials: the b = 0 weighted sum at lam = -1."""
    z.require(n_max)
    rows = _rows(z, n_max)
    return SequenceSpec(tuple(_q_sum(rows[n], 0, -1) for n in range(1, n_max + 1)))


def potential_polynomials(r, z: SequenceSpec, n_max: int) -> SequenceSpec:
    """Potential polynomials: r times the b = 0 weighted sum at lam = r - 1."""
    z.require(n_max)
    r = rat(r)
    rows = _rows(z, n_max)
    return SequenceSpec(
        tuple(r * _q_sum(rows[n], 0, r - 1) for n in range(1, n_max + 1))
    )
