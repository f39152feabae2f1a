"""Sparse multivariate polynomials over exact rationals.

A polynomial in variables x_1, x_2, ... is stored as a mapping from
canonical exponent tuples (no trailing zeros) to nonzero Fraction
coefficients, so structural equality of the term maps is polynomial
equality.  The constructor merges exponents that are equal up to trailing
zeros and drops zero coefficients.  The class is the value that
``bell --symbolic`` and ``verify vanishing-sum`` print; it has no ring
operations.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import IndexVector, strip_trailing_zeros
from .rationals import rat, rat_str
from .reports import InputError


class SparsePoly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms):
        """Sum the (exponents, coefficient) items of the mapping ``terms``;
        each is checked before zeros are dropped: exponents must be
        nonnegative ``int``s, coefficients pass ``rat``."""
        data: dict[IndexVector, Fraction] = {}
        for exps, coeff in terms.items():
            exps, coeff = tuple(exps), rat(coeff)
            if any(type(e) is not int or e < 0 for e in exps):
                raise InputError(f"exponents must be nonnegative ints, got {exps}")
            key = strip_trailing_zeros(exps)
            data[key] = data.get(key, 0) + coeff
        self._terms = {e: c for e, c in data.items() if c}

    @classmethod
    def monomial(cls, exps, coeff=1) -> "SparsePoly":
        return cls({tuple(exps): coeff})

    @property
    def terms(self) -> dict[IndexVector, Fraction]:
        return dict(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self._terms == other._terms
        return NotImplemented

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
