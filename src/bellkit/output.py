"""The CLI's output formats: one JSON writer, and CSV.

:func:`json_value` is the one converter from a report's values to JSON
form; :func:`dumps` returns the text of
``json.dumps(value, indent=2, default=json_value)``, and :func:`csv_text`
reads its cells back from that text.

CPython encodes in C only when ``indent`` is None; with ``indent=2`` the
pure-Python encoder was the largest single cost of a certify run's output.
:func:`dumps` builds the same text in fewer steps.  Strings go through the
C ``encode_basestring_ascii`` that ``json`` itself uses.  A tuple is
rendered once per depth and its text reused wherever the same object
appears again, as a plan's ``v`` and its skipped tau poles do in every
report of the plan.  Tuples are remembered by identity, never by equal
value: ``(1,)``, ``(Fraction(1),)`` and ``(True,)`` are equal but render
differently.  The memo lives for one call.  A dict value that is the same
object as the value before it reuses its text, as a passing report's
``rhs``, the same ``Fraction`` as its ``lhs``, does.

Values are told apart by their exact type, and dict keys must be strings.
Floats are refused with ``TypeError``, like any other type :func:`json_value`
does not convert, a subclass of str, int, dict, list or tuple included: no
value in this package is a float or such a subclass.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .identities import AffineForm
from .rationals import rat_str
from .reports import IdentityReport
from .sequences import SequenceSpec
from .sparsepoly import SparsePoly


def json_value(value):
    """The JSON form of a report or of a Fraction, AffineForm, SequenceSpec or
    SparsePoly, one level deep.  A report becomes a dict of
    :attr:`IdentityReport.KEYS`."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, IdentityReport):
        fields = (value.name, value.params, value.lhs, value.rhs, value.passed,
                  value.skipped_poles)
        return dict(zip(IdentityReport.KEYS, fields))
    if isinstance(value, AffineForm):
        return value.describe()
    if isinstance(value, SequenceSpec):
        return value.to_json_obj()
    if isinstance(value, SparsePoly):
        return repr(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(value) -> str:
    """``json.dumps(value, indent=2, default=json_value)``, floats and subclasses refused."""
    memo: dict[tuple[int, int], tuple[tuple, str]] = {}

    def render(value, depth: int) -> str:
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is int:
            return int.__repr__(value)
        if kind is dict:
            if not value:
                return "{}"
            inner = "\n" + "  " * (depth + 1)
            items, last, text = [], None, None
            for key, item in value.items():
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                if item is not last or text is None:
                    last, text = item, render(item, depth + 1)
                items.append(f"{encode_basestring_ascii(key)}: {text}")
            return "{" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "}"
        if kind is list:
            return sequence(value, depth)
        if kind is tuple:
            hit = memo.get((id(value), depth))
            if hit is None:
                hit = memo[id(value), depth] = (value, sequence(value, depth))
            return hit[1]
        if value is None or kind is bool:
            return "null" if value is None else "true" if value else "false"
        return render(json_value(value), depth)

    def sequence(value, depth: int) -> str:
        if not value:
            return "[]"
        inner = "\n" + "  " * (depth + 1)
        items = [render(item, depth + 1) for item in value]
        return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"

    return render(value, 0)


def csv_text(payload: dict) -> str:
    """A payload as CSV: one row per report, or one row per key of any other payload."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if "reports" in payload:
        writer.writerow(IdentityReport.KEYS)
        for rep in json.loads(dumps(payload["reports"])):
            writer.writerow(map(_csv_cell, rep.values()))
    else:
        writer.writerow(["key", "value"])
        for key, value in payload.items():
            writer.writerow([key, json.dumps(value) if isinstance(value, (list, dict)) else value])
    return out.getvalue()


def _csv_cell(value):
    """A report field as one CSV cell: params as k=v;..., skipped poles as l,m,tau;..."""
    if isinstance(value, dict):
        return ";".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, list):
        return ";".join(",".join(map(str, triple)) for triple in value)
    return value
