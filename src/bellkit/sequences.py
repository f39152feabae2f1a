"""Finite sequences of exact rationals with 1-based indexing."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .rationals import rat, rat_str
from .reports import InputError


class SequenceTooShort(InputError):
    """Raised when an operation needs more sequence entries than provided."""


def require_length(n: int) -> int:
    """``n`` itself when it is a valid sequence length; InputError when negative."""
    if n < 0:
        raise InputError(f"sequence length must be nonnegative, got {n}")
    return n


@dataclass(frozen=True)
class SequenceSpec:
    """An immutable finite sequence x_1, x_2, ..., x_N of rationals."""

    values: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, items) -> "SequenceSpec":
        return cls(tuple(rat(v) for v in items))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int) -> Fraction:
        """Entry x_j (1-based)."""
        if j < 1:
            raise InputError(f"sequence index must be >= 1, got {j}")
        if j > len(self.values):
            raise SequenceTooShort(
                f"sequence has {len(self.values)} entries, x_{j} requested"
            )
        return self.values[j - 1]

    def require(self, n: int) -> None:
        if len(self.values) < require_length(n):
            raise SequenceTooShort(
                f"sequence has {len(self.values)} entries, {n} required"
            )

    def prefix(self, n: int) -> "SequenceSpec":
        self.require(n)
        return SequenceSpec(self.values[:n])

    def to_json_obj(self) -> list[str]:
        return list(map(str, self.values))

    def __repr__(self) -> str:
        return f"SequenceSpec(({', '.join(rat_str(v) for v in self.values)}))"


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
