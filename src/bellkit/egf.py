"""Truncated exponential generating functions with exact coefficients.

A series of order N stores c_0, ..., c_N for sum c_n t^n / n!, so the
product rule is the binomial convolution.  ``egf_log`` and ``egf_pow`` run
derivative-quotient recurrences and deliberately share no code with the
Bell-polynomial route in :mod:`bellkit.transforms`; the agreement of the two
routes is itself one of the certified identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bell import bell_table
from .rationals import rat, rat_str
from .sequences import SequenceSpec
from .transforms import TransformParams, _forward, _q_sum


@dataclass(frozen=True)
class TruncatedEGF:
    """Coefficients c_0..c_N of a series sum c_n t^n / n!."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in self.coeffs))

    @classmethod
    def from_coeffs(cls, items) -> "TruncatedEGF":
        return cls(tuple(items))

    @classmethod
    def from_sequence(cls, x: SequenceSpec, constant=1) -> "TruncatedEGF":
        """The series constant + sum_{n>=1} x_n t^n / n! of order len(x)."""
        return cls((rat(constant),) + x.values)

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedEGF":
        return cls((rat(value),) + (Fraction(0),) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def tail_sequence(self) -> SequenceSpec:
        """The coefficients c_1..c_N as a sequence (drops the constant)."""
        return SequenceSpec(self.coeffs[1:])

    def __add__(self, other) -> "TruncatedEGF":
        if isinstance(other, TruncatedEGF):
            order = min(self.order, other.order)
            return TruncatedEGF(
                tuple(a + b for a, b in zip(self.coeffs, other.coeffs))[: order + 1]
            )
        c = rat(other)
        return TruncatedEGF((self.coeffs[0] + c,) + self.coeffs[1:])

    __radd__ = __add__

    def __mul__(self, other) -> "TruncatedEGF":
        if isinstance(other, TruncatedEGF):
            order = min(self.order, other.order)
            out = []
            for n in range(order + 1):
                out.append(
                    sum(
                        (
                            comb(n, m) * self.coeffs[m] * other.coeffs[n - m]
                            for m in range(n + 1)
                        ),
                        Fraction(0),
                    )
                )
            return TruncatedEGF(tuple(out))
        c = rat(other)
        return TruncatedEGF(tuple(c * v for v in self.coeffs))

    __rmul__ = __mul__

    def to_json_obj(self) -> dict:
        return {"order": self.order, "coeffs": [rat_str(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        return f"TruncatedEGF(order={self.order}, coeffs=[{', '.join(rat_str(c) for c in self.coeffs)}])"


def _require_unit_constant(z: TruncatedEGF) -> None:
    if z.coeffs[0] != 1:
        raise ValueError(f"constant coefficient must be 1, got {rat_str(z.coeffs[0])}")


def egf_log(z: TruncatedEGF) -> TruncatedEGF:
    """Coefficients of log(Z(t)) for Z with constant coefficient 1.

    Uses the recurrence from Z * (log Z)' = Z', term by term.
    """
    _require_unit_constant(z)
    n_max = z.order
    out = [Fraction(0)] * (n_max + 1)
    for n in range(n_max):
        acc = z.coeffs[n + 1]
        for m in range(1, n + 1):
            acc -= comb(n, m) * z.coeffs[m] * out[n + 1 - m]
        out[n + 1] = acc
    return TruncatedEGF(tuple(out))


def egf_pow(z: TruncatedEGF, r) -> TruncatedEGF:
    """Coefficients of Z(t)**r for any rational r and Z with constant 1.

    Uses the recurrence from (Z^r)' * Z = r * Z' * Z^r.
    """
    _require_unit_constant(z)
    r = rat(r)
    n_max = z.order
    out = [Fraction(0)] * (n_max + 1)
    out[0] = Fraction(1)
    for n in range(n_max):
        acc = r * sum(
            (comb(n, m) * z.coeffs[m + 1] * out[n - m] for m in range(n + 1)),
            Fraction(0),
        )
        for m in range(n):
            acc -= comb(n, m) * out[m + 1] * z.coeffs[n - m]
        out[n + 1] = acc
    return TruncatedEGF(tuple(out))


def egf_polyval(f_coeffs, z: TruncatedEGF) -> TruncatedEGF:
    """Horner evaluation of the polynomial F(w) = sum c_l w^l at the series z."""
    coeffs = [rat(c) for c in f_coeffs]
    if not coeffs:
        return TruncatedEGF.constant(0, z.order)
    acc = TruncatedEGF.constant(coeffs[-1], z.order)
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def egf_apply_poly(
    z: TruncatedEGF, f_coeffs, params: TransformParams, x: SequenceSpec
) -> TruncatedEGF:
    """Coefficients of F(Z(t)) when Z is the forward transform of x.

    The n-th coefficient (n >= 1) is sum_l c_l * l * q_function(n, b, l-1+a*n, x)
    and the constant one is F(1).  The series z must actually match
    forward_transform(x, params); anything else is an input error, because
    the coefficient formula is only valid for that pairing.
    """
    _require_unit_constant(z)
    n_max = z.order
    x.require(n_max)
    bell = bell_table(x, n_max)
    if z.coeffs[1:] != _forward(params, n_max, bell).values:
        raise ValueError("series does not match the forward transform of x")
    coeffs = [rat(c) for c in f_coeffs]
    out = [sum(coeffs, Fraction(0))]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for l, c in enumerate(coeffs):
            if l >= 1 and c:
                acc += c * l * _q_sum(n, params.b, l - 1 + params.a * n, bell)
        out.append(acc)
    return TruncatedEGF(tuple(out))
