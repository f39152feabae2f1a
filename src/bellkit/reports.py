"""What a check returns and what bad input raises.

An :class:`IdentityReport` holds both sides of one identity instance as
exact rationals; it passes when they are equal, with zero tolerance.  A
:class:`GridResult` hands out the reports of a check or a certification
sweep as they are made, and counts them as they go by.

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
from typing import Iterable, Iterator


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

    Reports that share one ``run`` object, not None, differ only in ``lhs``,
    ``rhs``, ``passed`` and the ``Fraction`` values of ``params``: the writer
    renders the rest of their text once, for JSON and CSV alike.
    ``identities`` gives one to the reports of each (plan, variant) of the
    double sums.
    """

    name: str
    params: dict
    lhs: Fraction
    rhs: Fraction
    passed: bool = field(init=False)
    skipped_poles: tuple = field(default=(), init=False)
    run: object = field(default=None, init=False, repr=False, compare=False)

    #: the keys of a report's JSON object and CSV row, in output order
    KEYS = ("identity", "params", "lhs", "rhs", "pass", "skipped_poles")

    def __post_init__(self):
        self.lhs = self.lhs if isinstance(self.lhs, Fraction) else Fraction(self.lhs)
        self.rhs = self.rhs if isinstance(self.rhs, Fraction) else Fraction(self.rhs)
        self.passed = self.lhs is self.rhs or self.lhs == self.rhs


class GridResult:
    """The reports of a check or a sweep, made as they are read, and their summary.

    Iterating yields each report once and counts it; a second pass yields
    nothing.  ``skipped_pairs`` holds the (v, alpha, pole) pairs a sweep has
    passed over so far.  The counts and :meth:`summary` cover the reports
    read so far, so read them after the reports.
    """

    def __init__(self, reports: Iterable[IdentityReport] = (), skipped_pairs=None):
        self._reports = iter(reports)
        self.skipped_pairs: list[tuple] = [] if skipped_pairs is None else skipped_pairs
        self.checked = 0
        self.failed = 0

    def __iter__(self) -> Iterator[IdentityReport]:
        for report in self._reports:
            self.checked += 1
            if not report.passed:
                self.failed += 1
            yield report

    def all_passed(self) -> bool:
        return self.failed == 0

    def summary(self) -> dict:
        return {
            "checked": self.checked,
            "passed": self.checked - self.failed,
            "failed": self.failed,
            "skipped_pairs": [
                {"v": v, "alpha": alpha, "pole_at": where}
                for v, alpha, where in self.skipped_pairs
            ],
        }
