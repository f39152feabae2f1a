"""What a check returns and what bad input raises.

An :class:`IdentityReport` holds both sides of one identity instance as
exact rationals; it passes when they are equal, with zero tolerance.  A
:class:`ReportRun` holds the reports of one identity that differ only in
tau and their sides, such as those of one (plan, variant) of a double-sum
sweep, as one object, and makes them when it is iterated.  Two rules hold:
a run's ``params(tau)`` places tau, and a lone report is handed out, and
written, whole.  A :class:`GridResult` hands out the runs and lone reports
of a check or a certification sweep as they are made, and counts them as
they go by.

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


class ReportRun:
    """The reports of identity ``name`` at a list of taus, as one object.

    ``sides`` holds each (tau, right side) pair, and runs may share one
    list; ``params(tau)`` is the params dict at a tau, which holds that tau;
    every report of the run has the ``skipped_poles`` given.  ``lhs`` holds
    the left side at each tau, or is None when the right side is both sides
    at every tau.  ``passed`` holds each report's outcome, by default the
    exact equality of its sides, or is None when ``lhs`` is and every
    report passes; ``failed`` counts the reports that fail.  Iterating
    makes the reports, in the order of ``sides``.
    """

    __slots__ = ("name", "params", "sides", "skipped_poles", "lhs", "passed", "failed")

    def __init__(self, name: str, params, sides: list, skipped_poles: tuple = (), lhs=None,
                 passed=None):
        self.name, self.params, self.sides = name, params, sides
        self.skipped_poles, self.lhs = skipped_poles, lhs
        if lhs is not None and passed is None:
            passed = [a == rhs for a, (_, rhs) in zip(lhs, sides)]
        self.passed = passed
        self.failed = 0 if passed is None else passed.count(False)

    def __len__(self) -> int:
        return len(self.sides)

    def __iter__(self) -> Iterator[IdentityReport]:
        for i, (tau, rhs) in enumerate(self.sides):
            report = IdentityReport(self.name, self.params(tau),
                                    rhs if self.lhs is None else self.lhs[i], rhs)
            report.skipped_poles = self.skipped_poles
            yield report


class GridResult:
    """The runs and lone reports of a check or a sweep, made as they are
    read, and their summary.

    :meth:`runs` yields each item of ``items``, a :class:`ReportRun` or a
    lone :class:`IdentityReport`, once, and counts a run by its length and
    its failures and a lone report as one check; a second pass yields
    nothing.  ``skipped_pairs`` holds the (v, alpha, pole) pairs a sweep
    has passed over so far.  The counts and :meth:`summary` cover the items
    read so far, so read them after the items.
    """

    def __init__(self, items: Iterable[ReportRun | IdentityReport] = (), skipped_pairs=None):
        self._items = iter(items)
        self.skipped_pairs: list[tuple] = [] if skipped_pairs is None else skipped_pairs
        self.checked = 0
        self.failed = 0

    def runs(self) -> Iterator[ReportRun | IdentityReport]:
        for item in self._items:
            if isinstance(item, ReportRun):
                self.checked += len(item)
                self.failed += item.failed
            else:
                self.checked += 1
                self.failed += not item.passed
            yield item

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
