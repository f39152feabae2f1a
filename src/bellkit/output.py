"""The CLI's output formats: one JSON writer, and CSV.

:func:`json_value` is the one converter from a report's values to JSON
form; :func:`write` writes the text of
``json.dumps(value, indent=2, default=json_value)`` to a stream,
:func:`dumps` returns it, and :func:`csv_text` reads its cells back from
that text.

A generator that is a value of the top-level dict is written as it is
read, and a value after it is rendered only then: a ``verify`` payload
puts its reports there and its :class:`GridResult` after them, whose
summary counts the reports read.  So the writer holds one run of
reports at a time, and writes one chunk per run.  Reports that share a
``run`` object (see :class:`IdentityReport`) differ only in their
``Fraction`` params, ``lhs``, ``rhs`` and ``pass``: the first two reports
of a run tell the writer that the run has more than one report, it
renders the run's text once with holes for those values, and fills the
holes for each report.  A run is recognised by the identity of its
``run`` object, never by equal values: ``(1,)``, ``(Fraction(1),)`` and
``(True,)`` are equal but render differently.

CPython encodes in C only when ``indent`` is None; with ``indent=2`` the
pure-Python encoder was the largest single cost of a certify run's output.
The writer builds the same text in fewer steps.  Strings go through the C
``encode_basestring_ascii`` that ``json`` itself uses.  A tuple is
rendered once per depth and its text reused wherever the same object
appears again within one chunk, as a plan's ``v`` does in the summary.
Tuples are remembered by identity, never by equal value, and the memo
holds each tuple it keys by ``id`` until the chunk is written.  A dict
value that is the same object as the value before it reuses its text, as
a passing report's ``rhs``, the same ``Fraction`` as its ``lhs``, does.

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
from types import GeneratorType

from .identities import AffineForm
from .rationals import rat_str
from .reports import GridResult, IdentityReport
from .sequences import SequenceSpec
from .sparsepoly import SparsePoly

#: stand, while the text of a run of reports is made, for the values that vary
#: within it: a ``Fraction``, whose text is its ``rat_str`` in quotes, and a bool
_RATIONAL, _FLAG = object(), object()


def json_value(value):
    """The JSON form of a report or of a Fraction, AffineForm, SequenceSpec,
    SparsePoly, generator or GridResult, one level deep.  A report becomes
    a dict of :attr:`IdentityReport.KEYS`, a generator the list of what it
    yields, and a GridResult its summary of the reports read so far."""
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
    if isinstance(value, GeneratorType):
        return list(value)
    if isinstance(value, GridResult):
        return value.summary()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(value) -> str:
    """``json.dumps(value, indent=2, default=json_value)``, floats and subclasses refused."""
    out = io.StringIO()
    write(value, out)
    return out.getvalue()


def write(value, stream) -> None:
    """Write ``json.dumps(value, indent=2, default=json_value)`` to ``stream``.

    A generator that is a value of a top-level dict is written as it is
    read, one chunk per run of reports; everything else is rendered whole.
    """
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
        if value is _RATIONAL or value is _FLAG:
            # rendered JSON text holds no raw control character
            return '"\x00"' if value is _RATIONAL else "\x00"
        return render(json_value(value), depth)

    def sequence(value, depth: int) -> str:
        if not value:
            return "[]"
        inner = "\n" + "  " * (depth + 1)
        items = [render(item, depth + 1) for item in value]
        return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"

    def chunk(run: list, depth: int) -> str:
        """The text of one run of reports, or of one item, joined as list items."""
        first = run[0]
        if len(run) == 1:
            text = render(first, depth)
        else:
            holes = [key for key, item in first.params.items() if type(item) is Fraction]
            fields = json_value(first)
            fields["params"] = {key: _RATIONAL if key in holes else item
                                for key, item in first.params.items()}
            fields["lhs"] = fields["rhs"] = _RATIONAL
            fields["pass"] = _FLAG
            # KEYS puts params before lhs, rhs and pass, so the holes come in
            # that order; "%s" of a Fraction is its str, the "p/q" or "p" of rat_str
            template = render(fields, depth).replace("%", "%%").replace("\x00", "%s")
            texts = [
                template % (*[report.params[key] for key in holes], report.lhs, report.rhs,
                            "true" if report.passed else "false")
                for report in run
            ]
            text = (",\n" + "  " * depth).join(texts)
        memo.clear()
        return text

    def stream_items(items, depth: int) -> None:
        """Write a generator as a list, one chunk per run of reports."""
        inner = "\n" + "  " * (depth + 1)
        sep, run, shared = "[" + inner, [], None
        for item in items:
            key = item.run if type(item) is IdentityReport else None
            if run and (key is None or key is not shared):
                stream.write(sep + chunk(run, depth + 1))
                sep, run = "," + inner, []
            run.append(item)
            shared = key
        if run:
            stream.write(sep + chunk(run, depth + 1) + "\n" + "  " * depth + "]")
        else:
            stream.write("[]")

    if type(value) is not dict or not value:
        stream.write(render(value, 0))
        return
    opening = "{\n  "
    for key, item in value.items():
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        head = f"{opening}{encode_basestring_ascii(key)}: "
        opening = ",\n  "
        if type(item) is GeneratorType:
            stream.write(head)
            stream_items(item, 1)
        else:
            stream.write(head + render(item, 1))
    stream.write("\n}")


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
