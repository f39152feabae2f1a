"""Truncated exponential generating functions with exact coefficients.

A series of order N stores c_0, ..., c_N for sum c_n t^n / n!, so the
product rule is the binomial convolution.  ``egf_log`` and ``egf_pow`` run
derivative-quotient recurrences and deliberately share no code with the
Bell-polynomial route in :mod:`bellkit.transforms`; the agreement of the two
routes is itself one of the certified identities.

Both recurrences run on plain integers.  With z_j = a_j/d_j in lowest
terms, the k-th coefficient is kept as an integer numerator over the scale
S_k = prod_{j<=k} d_j^floor(k/j) (times q^k for a power r = p/q): every term
of the recurrence at order k has a denominator dividing that scale, so each
step is integer multiply-adds, and one ``Fraction`` is built per output
coefficient.  The plain ``Fraction`` recurrences they replace are kept in
``tests/test_egf.py`` as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .rationals import rat, rat_str
from .reports import InputError
from .sequences import SequenceSpec
from .transforms import TransformParams, _forward, _q_sum, _rows


@dataclass(frozen=True)
class TruncatedEGF:
    """Coefficients c_0..c_N of a series sum c_n t^n / n!."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in self.coeffs))

    @classmethod
    def from_coeffs(cls, items) -> "TruncatedEGF":
        return cls(tuple(items))

    @classmethod
    def from_sequence(cls, x: SequenceSpec) -> "TruncatedEGF":
        """The series 1 + sum_{n>=1} x_n t^n / n! of order len(x)."""
        return cls((Fraction(1),) + x.values)

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
        raise InputError(f"constant coefficient must be 1, got {rat_str(z.coeffs[0])}")


def _scaled_terms(z: TruncatedEGF, q: int = 1):
    """Integer scales for the log and power recurrences of ``z``.

    Write z_j = a_j/d_j in lowest terms, S_0 = 1 and, for k >= 1,
    S_k = prod_{j<=k} d_j^floor(k/j), so that S_k = S_{k-1} D_k with
    D_k = prod_{j | k} d_j.  For k = 1..N this yields (T_k, terms), where
    T_k = q^k S_k and ``terms`` maps each j <= k with a_j != 0 to the integer
    a_j T_k / (q d_j T_{k-j}) = a_j q^(j-1) S_k / (d_j S_{k-j}).  It is an
    integer because S_k / S_{k-j} is the product of D_{k-j+1}..D_k, in
    which d_j occurs once, for the one multiple of j in that window.

    The yielded dict is updated in place for the next k.
    """
    n_max = z.order
    den = [c.denominator for c in z.coeffs]
    step = [1] * (n_max + 1)  # D_k
    for j in range(1, n_max + 1):
        if den[j] != 1:
            for k in range(j, n_max + 1, j):
                step[k] *= den[j]
    scale, q_power = 1, 1  # S_k, q^k
    terms: dict[int, int] = {}
    for k in range(1, n_max + 1):
        for j, w in terms.items():
            # S_k / S_{k-j} = (S_{k-1} / S_{k-1-j}) * D_k / D_{k-j}
            w, rest = divmod(w * step[k], step[k - j])
            if rest:
                raise ArithmeticError(f"S_{k} / (d_{j} S_{k - j}) is not an integer")
            terms[j] = w
        scale *= step[k]
        a = z.coeffs[k].numerator
        if a:
            terms[k] = a * q_power * (scale // den[k])
        q_power *= q
        yield q_power * scale, terms


def egf_log(z: TruncatedEGF) -> TruncatedEGF:
    """Coefficients of log(Z(t)) for Z with constant coefficient 1.

    Uses the recurrence from Z * (log Z)' = Z', term by term:
    l_k = z_k - sum_{j<k} C(k-1, j) z_j l_{k-j}, run on the integers
    L_k = l_k S_k (see ``_scaled_terms``).
    """
    _require_unit_constant(z)
    out, scaled = [Fraction(0)], [0]
    for k, (scale, terms) in enumerate(_scaled_terms(z), start=1):
        acc = 0
        for j, w in terms.items():
            acc += w if j == k else -comb(k - 1, j) * w * scaled[k - j]
        scaled.append(acc)
        out.append(Fraction(acc, scale))
    return TruncatedEGF(tuple(out))


def egf_pow(z: TruncatedEGF, r) -> TruncatedEGF:
    """Coefficients of Z(t)**r for any rational r and Z with constant 1.

    Uses the recurrence from (Z^r)' * Z = r * Z' * Z^r, term by term:
    w_k = sum_{j<=k} (r C(k-1, j-1) - C(k-1, j)) z_j w_{k-j}, run on the
    integers W_k = w_k q^k S_k for r = p/q (see ``_scaled_terms``).
    """
    _require_unit_constant(z)
    r = rat(r)
    p, q = r.numerator, r.denominator
    out, scaled = [Fraction(1)], [1]
    for k, (scale, terms) in enumerate(_scaled_terms(z, q), start=1):
        acc = 0
        for j, w in terms.items():
            acc += (p * comb(k - 1, j - 1) - q * comb(k - 1, j)) * w * scaled[k - j]
        scaled.append(acc)
        out.append(Fraction(acc, scale))
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
    f_coeffs, params: TransformParams, x: SequenceSpec
) -> tuple[TruncatedEGF, TruncatedEGF]:
    """The series Z = 1 + sum y_n t^n / n! of y = forward_transform(x) and F(Z).

    Both are of order len(x) and read one Bell table of x.  The n-th
    coefficient of F(Z) (n >= 1) is sum_l c_l * l * q_function(n, b,
    l-1+a*n, x) and the constant one is F(1).
    """
    n_max = len(x)
    rows = _rows(x, n_max)
    z = TruncatedEGF.from_sequence(_forward(params, rows))
    coeffs = [rat(c) for c in f_coeffs]
    out = [sum(coeffs, Fraction(0))]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for l, c in enumerate(coeffs):
            if l >= 1 and c:
                acc += c * l * _q_sum(rows[n], params.b, l - 1 + params.a * n)
        out.append(acc)
    return z, TruncatedEGF(tuple(out))
