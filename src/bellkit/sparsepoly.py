"""Sparse multivariate polynomials over exact rationals.

A polynomial in variables x_1, x_2, ... is stored as a mapping from
canonical exponent tuples (no trailing zeros) to nonzero Fraction
coefficients, so structural equality of the term maps is polynomial
equality.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import IndexVector, strip_trailing_zeros
from .rationals import rat_str
from .reports import InputError


class SparsePoly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[IndexVector, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, coeff in items:
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                if any(e < 0 for e in exps):
                    raise InputError(f"exponents must be nonnegative, got {tuple(exps)}")
                key = strip_trailing_zeros(exps)
                acc = data.get(key, Fraction(0)) + coeff
                if acc == 0:
                    data.pop(key, None)
                else:
                    data[key] = acc
        self._terms = data

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "SparsePoly":
        return cls({(): Fraction(c)})

    @classmethod
    def monomial(cls, exps, coeff=1) -> "SparsePoly":
        return cls({tuple(exps): Fraction(coeff)})

    @classmethod
    def variable(cls, j: int) -> "SparsePoly":
        """The single variable x_j (j >= 1)."""
        if j < 1:
            raise InputError(f"variable index must be >= 1, got {j}")
        return cls({(0,) * (j - 1) + (1,): Fraction(1)})

    @property
    def terms(self) -> dict[IndexVector, Fraction]:
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == SparsePoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            acc = out.get(e, Fraction(0)) + c
            if acc == 0:
                out.pop(e, None)
            else:
                out[e] = acc
        result = SparsePoly()
        result._terms = out
        return result

    __radd__ = __add__

    def __sub__(self, other) -> "SparsePoly":
        return self + (-other if isinstance(other, SparsePoly) else SparsePoly.constant(-Fraction(other)))

    def __rsub__(self, other) -> "SparsePoly":
        return (-self) + other

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return SparsePoly()
            return SparsePoly({e: c * v for e, v in self._terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        out: dict[IndexVector, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                if len(e1) < len(e2):
                    e1p = e1 + (0,) * (len(e2) - len(e1))
                    key = tuple(a + b for a, b in zip(e1p, e2))
                else:
                    e2p = e2 + (0,) * (len(e1) - len(e2))
                    key = tuple(a + b for a, b in zip(e1, e2p))
                acc = out.get(key, Fraction(0)) + c1 * c2
                if acc == 0:
                    out.pop(key, None)
                else:
                    out[key] = acc
        result = SparsePoly()
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SparsePoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError(f"exponent must be a nonnegative int, got {exponent}")
        result = SparsePoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def total_degree(self) -> int:
        """Maximal total degree of a term; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def max_index(self) -> int:
        """Largest variable index appearing; 0 for constants."""
        if not self._terms:
            return 0
        return max((len(e) for e in self._terms), default=0)

    def evaluate(self, values):
        """Evaluate with x_j = values[j-1]; values may be ints or Fractions."""
        values = tuple(values)
        if self.max_index() > len(values):
            raise InputError(
                f"need {self.max_index()} variable values, got {len(values)}"
            )
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for j, e in enumerate(exps):
                if e:
                    term *= Fraction(values[j]) ** e
            total += term
        return total

    def sorted_terms(self) -> list[tuple[IndexVector, Fraction]]:
        """Terms in graded-lexicographic exponent order."""
        return sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": rat_str(c), "exps": list(e)} for e, c in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
                for j, e in enumerate(exps)
                if e
            ]
            body = "*".join(factors)
            if not body:
                chunks.append(rat_str(coeff))
            elif coeff == 1:
                chunks.append(body)
            elif coeff == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{rat_str(coeff)}*{body}")
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")
