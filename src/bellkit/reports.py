"""What a check returns and what bad input raises.

An :class:`IdentityReport` holds both sides of one identity instance as
exact rationals; it passes when they are equal, with zero tolerance.  A
:class:`GridResult` gathers the reports of a certification sweep.

:class:`InputError` is the one type for input a function refuses: an
argument outside its domain, an unreadable file or a pole of an identity
(:class:`PoleError`).  The CLI maps it, and nothing else, to exit status 2;
any other exception is a fault of the program.  It subclasses
``ValueError``, so callers that catch that keep working.

This module imports nothing from the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class InputError(ValueError):
    """Bad arguments or unreadable input; maps to exit status 2."""


class PoleError(InputError):
    """A denominator vanished at a contributing summation term."""

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where


@dataclass
class IdentityReport:
    """Outcome of one identity check at one parameter point.

    ``lhs`` and ``rhs`` that are not ``Fraction`` already are converted, and
    ``passed`` is their exact equality; the two may be one object.
    """

    name: str
    params: dict
    lhs: Fraction
    rhs: Fraction
    passed: bool = field(init=False)
    skipped_poles: tuple = field(default=(), init=False)

    #: the keys of a report's JSON object and CSV row, in output order
    KEYS = ("identity", "params", "lhs", "rhs", "pass", "skipped_poles")

    def __post_init__(self):
        self.lhs = self.lhs if isinstance(self.lhs, Fraction) else Fraction(self.lhs)
        self.rhs = self.rhs if isinstance(self.rhs, Fraction) else Fraction(self.rhs)
        self.passed = self.lhs is self.rhs or self.lhs == self.rhs


@dataclass
class GridResult:
    """Aggregate of a certification sweep."""

    reports: list[IdentityReport] = field(default_factory=list)
    skipped_pairs: list[tuple] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.reports if not r.passed)

    def all_passed(self) -> bool:
        return self.n_failed == 0

    def summary(self) -> dict:
        return {
            "checked": len(self.reports),
            "passed": len(self.reports) - self.n_failed,
            "failed": self.n_failed,
            "skipped_pairs": [
                {"v": v, "alpha": alpha, "pole_at": where}
                for v, alpha, where in self.skipped_pairs
            ],
        }
