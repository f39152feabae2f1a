"""Finite sequences of exact rationals with 1-based indexing.

A :class:`SequenceSpec` holds entry x_j as an integer pair, its numerator
and positive denominator in lowest terms, and builds a ``Fraction`` only
when one is asked for (``values``, ``x[j]``).  ``bell_columns`` and the
identity checks read the pairs.  ``SequenceSpec.from_values`` reads a list
of canonical ``rat_str`` text (``p`` or ``p/q`` with an optional ``-``, no
leading zero, no ``-0`` and q >= 2 coprime to p) in one pass: one regex
over the joined entries, ``int`` on their parts and one ``gcd`` pass; such a
sequence keeps its text and writes it back unchanged.  Any other list goes
through ``rat`` entry by entry, with the same values and refusals.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd

from .rationals import rat
from .reports import InputError

#: canonical rat_str entries, each followed by a newline; "2/4" and "0/5" pass
#: here and are caught by the gcd pass
_CANONICAL = re.compile(r"(?:(?:0|-?[1-9][0-9]*)(?:/(?:[2-9]|[1-9][0-9]+))?\n)*")


class SequenceTooShort(InputError):
    """Raised when an operation needs more sequence entries than provided."""


def require_length(n: int) -> int:
    """``n`` itself when it is a valid sequence length; InputError when negative."""
    if n < 0:
        raise InputError(f"sequence length must be nonnegative, got {n}")
    return n


def _canonical_pairs(items: list):
    """``(numerators, denominators)`` of ``items`` if every entry is canonical text, else None."""
    if not set(map(type, items)) <= {str}:
        return None
    joined = "\n".join(items) + "\n"
    # each entry is one line only if no entry holds a newline of its own
    if joined.count("\n") != len(items) or not _CANONICAL.fullmatch(joined):
        return None
    nums, dens = [], []
    for text in items:
        p, _, q = text.partition("/")
        nums.append(int(p))
        dens.append(int(q) if q else 1)
    return (nums, dens) if max(map(gcd, nums, dens)) == 1 else None


@dataclass(frozen=True, init=False, repr=False)
class SequenceSpec:
    """An immutable finite sequence x_1, x_2, ..., x_N of rationals.

    ``SequenceSpec(values)`` takes ints and Fractions only.  Two sequences
    are equal when their entries are; ``text``, the entries as read, is
    kept for output and not compared.
    """

    numerators: tuple[int, ...]
    denominators: tuple[int, ...]
    text: tuple[str, ...] | None = field(default=None, compare=False)

    def __init__(self, values):
        values = tuple(values)
        for j, v in enumerate(values, start=1):
            if type(v) not in (int, Fraction):
                raise InputError(f"sequence entry {j} must be an int or Fraction, got {v!r}")
        self._hold([v.numerator for v in values], [v.denominator for v in values], None)

    def _hold(self, nums, dens, text) -> "SequenceSpec":
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominators", tuple(dens))
        object.__setattr__(self, "text", text)
        return self

    @classmethod
    def from_values(cls, items) -> "SequenceSpec":
        items = list(items)
        pairs = _canonical_pairs(items)
        if pairs is None:
            return cls(map(rat, items))
        return cls.__new__(cls)._hold(*pairs, tuple(items))

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.numerators, self.denominators))

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, j: int) -> Fraction:
        """Entry x_j (1-based)."""
        if j < 1:
            raise InputError(f"sequence index must be >= 1, got {j}")
        if j > len(self):
            raise SequenceTooShort(f"sequence has {len(self)} entries, x_{j} requested")
        return Fraction(self.numerators[j - 1], self.denominators[j - 1])

    def require(self, n: int) -> None:
        if len(self) < require_length(n):
            raise SequenceTooShort(f"sequence has {len(self)} entries, {n} required")

    def prefix(self, n: int) -> "SequenceSpec":
        self.require(n)
        text = None if self.text is None else self.text[:n]
        return SequenceSpec.__new__(SequenceSpec)._hold(
            self.numerators[:n], self.denominators[:n], text)

    def to_json_obj(self) -> list[str]:
        """Each entry as ``rat_str`` writes it: the text read, or "p" or "p/q"."""
        if self.text is not None:
            return list(self.text)
        return [str(p) if q == 1 else f"{p}/{q}"
                for p, q in zip(self.numerators, self.denominators)]

    def __repr__(self) -> str:
        return f"SequenceSpec(({', '.join(self.to_json_obj())}))"


def ones(n: int) -> SequenceSpec:
    """x_j = 1; evaluating Bell polynomials here gives Stirling set numbers."""
    return SequenceSpec((Fraction(1),) * require_length(n))


def factorials(n: int) -> SequenceSpec:
    """x_j = (j-1)!; the cycle-number (first-kind Stirling) specialization."""
    return SequenceSpec(tuple(Fraction(factorial(j)) for j in range(require_length(n))))


def naturals(n: int) -> SequenceSpec:
    """x_j = j."""
    return SequenceSpec(tuple(Fraction(j) for j in range(1, require_length(n) + 1)))


def random_rationals(n: int, seed: int) -> SequenceSpec:
    """Seeded small random rationals: numerators in [-9, 9], denominators in [1, 9].

    Small values keep any failing identity instance checkable by hand.
    """
    rng = random.Random(seed)
    return SequenceSpec(
        tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(require_length(n))
        )
    )


NAMED_SEQUENCES = ("ones", "factorials", "identity-j", "random")


def named_sequence(keyword: str, n: int, seed: int | None = None) -> SequenceSpec:
    """Build one of the named sequences; ``random`` requires a seed."""
    if keyword == "ones":
        return ones(n)
    if keyword == "factorials":
        return factorials(n)
    if keyword == "identity-j":
        return naturals(n)
    if keyword == "random":
        if seed is None:
            raise InputError("named sequence 'random' requires a seed")
        return random_rationals(n, seed)
    raise InputError(f"unknown sequence keyword {keyword!r}")
