"""Truncated exponential generating functions with exact coefficients.

A series of order N stores c_0, ..., c_N for sum c_n t^n / n!.
``egf_log`` and ``egf_pow`` run derivative-quotient recurrences.  The
module shares no code with the Bell-polynomial route (it imports nothing
from :mod:`bellkit.bell` or :mod:`bellkit.transforms`), so the agreement of
the two routes is itself one of the certified identities;
``egf_apply_poly``, which reads the Bell triangle, is in
:mod:`bellkit.transforms`, and the series product and Horner's rule it is
held against are in ``tests/oracles.py``.

Both recurrences run on plain integers.  With z_j = a_j/d_j in lowest terms,
every coefficient is kept as an integer numerator over one final scale
T_N = prod_{j<=N} d_j^floor(N/j) (times q^N for a power r = p/q), so a term
is a small integer times one numerator; the terms of an order are summed per
distinct d_j, each sum is divided once, exactly, and one ``Fraction`` is
built per output coefficient.  The plain ``Fraction`` recurrences they
replace are kept in ``tests/test_egf.py`` as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .rationals import rat, rat_str
from .reports import InputError
from .sequences import SequenceSpec


@dataclass(frozen=True)
class TruncatedEGF:
    """Coefficients c_0..c_N of a series sum c_n t^n / n!."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("a series needs at least the constant coefficient")
        coeffs = tuple(c if type(c) is Fraction else rat(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_sequence(cls, x: SequenceSpec) -> "TruncatedEGF":
        """The series 1 + sum_{n>=1} x_n t^n / n! of order len(x)."""
        return cls((Fraction(1),) + x.values)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def to_json_obj(self) -> dict:
        return {"order": self.order, "coeffs": list(map(str, self.coeffs))}

    def __repr__(self) -> str:
        return f"TruncatedEGF(order={self.order}, coeffs=[{', '.join(rat_str(c) for c in self.coeffs)}])"


def _require_unit_constant(z: TruncatedEGF) -> None:
    if z.coeffs[0] != 1:
        raise InputError(f"constant coefficient must be 1, got {rat_str(z.coeffs[0])}")


def _final_scale(z: TruncatedEGF, q: int) -> int:
    """T_N, for T_n = q^n prod_{j<=n} d_j^floor(n/j) and z_j = a_j/d_j in lowest terms."""
    n_max = z.order
    return q**n_max * prod(c.denominator ** (n_max // j) for j, c in enumerate(z.coeffs[1:], 1))


def _recurrence(z: TruncatedEGF, q: int, weights) -> list[Fraction]:
    """c_0 = 1 and c_k = sum_{j<=k} w_j z_j c_{k-j} / q for k = 1..N, where
    ``weights`` maps the row C(k-1, 0..k-1) to the integers w_0..w_k.

    Each c_i is kept as the integer X_i = c_i T_N over the final scale T_N
    (see ``_final_scale``), so a term is the small integer w_j a_j times
    X_{k-j}.  The terms are summed per distinct d_j, and each sum is divided
    once by q d_j.  The division is exact while each c_i has a denominator
    dividing T_i: the window (k-j, N] holds a multiple of j, so q d_j divides
    T_N / T_{k-j}, which divides X_{k-j}.  A remainder raises ArithmeticError.
    """
    scale = _final_scale(z, q)
    groups: dict[int, list[tuple[int, int]]] = {}
    for j, c in enumerate(z.coeffs[1:], start=1):
        if c:
            groups.setdefault(q * c.denominator, []).append((j, c.numerator))
    scaled, row = [scale], [1]
    for k in range(1, z.order + 1):
        w, acc = weights(row), 0
        for qd, members in groups.items():
            if members[0][0] > k:
                break  # the groups come in the order of their first j
            total = 0
            for j, a in members:
                if j > k:
                    break
                total += w[j] * a * scaled[k - j]
            total, rest = divmod(total, qd)
            if rest:
                raise ArithmeticError(f"{qd} does not divide a term sum at order {k}")
            acc += total
        scaled.append(acc)
        row = [1, *map(int.__add__, row, row[1:]), 1]
    return [Fraction(x, scale) for x in scaled]


def egf_log(z: TruncatedEGF) -> TruncatedEGF:
    """Coefficients of log(Z(t)) for Z with constant coefficient 1.

    Uses the recurrence from Z * (log Z)' = Z', term by term:
    l_k = z_k - sum_{j<k} C(k-1, j) z_j l_{k-j}, run on the integers
    l_k T_N (see ``_recurrence``, where the z_k term reads c_0 = 1).

    >>> egf_log(TruncatedEGF((1, 1, 0, 0, 0)))
    TruncatedEGF(order=4, coeffs=[0, 1, -1, 2, -6])
    """
    _require_unit_constant(z)
    logs = _recurrence(z, 1, lambda row: [*(-c for c in row), 1])
    return TruncatedEGF((Fraction(0), *logs[1:]))


def egf_pow(z: TruncatedEGF, r) -> TruncatedEGF:
    """Coefficients of Z(t)**r for any rational r and Z with constant 1.

    Uses the recurrence from (Z^r)' * Z = r * Z' * Z^r, term by term:
    w_k = sum_{j<=k} (r C(k-1, j-1) - C(k-1, j)) z_j w_{k-j}, run for r = p/q
    on the integers w_k T_N, with q^N in T_N (see ``_recurrence``).

    >>> egf_pow(TruncatedEGF((1, 1, 0, 0)), "1/2")
    TruncatedEGF(order=3, coeffs=[1, 1/2, -1/4, 3/8])
    """
    _require_unit_constant(z)
    r = rat(r)
    p, q = r.numerator, r.denominator
    return TruncatedEGF(tuple(_recurrence(
        z, q, lambda row: [p * a - q * b for a, b in zip([0, *row], [*row, 0])])))
