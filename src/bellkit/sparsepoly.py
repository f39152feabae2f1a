"""Sparse multivariate polynomials over exact rationals.

A polynomial in variables x_1, x_2, ... is stored as a mapping from
canonical exponent tuples (no trailing zeros) to nonzero Fraction
coefficients, so structural equality of the term maps is polynomial
equality.  The constructor is the one accumulator: sums and products list
their terms and let it merge equal exponents and drop zero coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .partitions import IndexVector, strip_trailing_zeros
from .rationals import rat, rat_str
from .reports import InputError


class SparsePoly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """Sum the (exponents, coefficient) items of ``terms``, a mapping or
        an iterable of pairs; each is checked before zeros are dropped:
        exponents must be nonnegative ``int``s, coefficients pass ``rat``."""
        data: dict[IndexVector, Fraction] = {}
        for exps, coeff in terms.items() if isinstance(terms, dict) else terms or ():
            exps, coeff = tuple(exps), rat(coeff)
            if any(type(e) is not int or e < 0 for e in exps):
                raise InputError(f"exponents must be nonnegative ints, got {exps}")
            key = strip_trailing_zeros(exps)
            data[key] = data.get(key, 0) + coeff
        self._terms = {e: c for e, c in data.items() if c}

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "SparsePoly":
        return cls({(): c})

    @classmethod
    def monomial(cls, exps, coeff=1) -> "SparsePoly":
        return cls({tuple(exps): coeff})

    @classmethod
    def variable(cls, j: int) -> "SparsePoly":
        """The single variable x_j (j >= 1)."""
        if j < 1:
            raise InputError(f"variable index must be >= 1, got {j}")
        return cls({(0,) * (j - 1) + (1,): 1})

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
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            return self == SparsePoly.constant(other)
        return NotImplemented

    def __hash__(self):
        """A constant hashes like the number it equals."""
        if self._terms.keys() <= {()}:
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return SparsePoly([*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __sub__(self, other) -> "SparsePoly":
        return self + (-other)

    def __rsub__(self, other) -> "SparsePoly":
        return (-self) + other

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return SparsePoly(
            (tuple(a + b for a, b in zip_longest(e1, e2, fillvalue=0)), c1 * c2)
            for e1, c1 in self._terms.items()
            for e2, c2 in other._terms.items()
        )

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
