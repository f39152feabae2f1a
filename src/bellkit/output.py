"""The CLI's output formats: one JSON writer, and CSV.

:func:`json_value` is the one converter from a report's values to JSON
form; :func:`dumps` returns the text of
``json.dumps(value, indent=2, default=json_value)``, and :func:`csv_text`
the CSV of a payload that holds no reports.

:func:`write_reports` writes a ``verify`` payload in either format as its
reports are made, one run of reports at a time, so it holds one run at
once.  Reports that share a ``run`` object (see :class:`IdentityReport`)
differ only in their ``Fraction`` params, ``lhs``, ``rhs`` and ``pass``:
the writer renders the run's text once with holes for those values, and
fills the holes for each report.  The run's text itself fills a skeleton,
the text of a report with holes for all its values, which depends only on
the report's name and param keys: it is made once per write, for a shape
met in a run of several reports or met again.  A run is recognised by the
identity of its ``run`` object, never by equal values: ``(1,)``,
``(Fraction(1),)`` and ``(True,)`` are equal but render differently.  A CSV row holds the
cells of a report's JSON object as ``json.loads`` reads them back from the
run's JSON text, so one function decides how a report is written in both
formats.

CPython encodes in C only when ``indent`` is None; with ``indent=2`` the
pure-Python encoder was the largest single cost of a certify run's output.
The writer builds the same text in fewer steps.  Strings go through the C
``encode_basestring_ascii`` that ``json`` itself uses.

Values are told apart by their exact type, and dict keys must be strings.
Floats are refused with ``TypeError``, like any other type :func:`json_value`
does not convert, a subclass of str, int, dict, list or tuple included: no
value in this package is a float or such a subclass.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .egf import TruncatedEGF
from .identities import AffineForm
from .rationals import rat_str
from .reports import GridResult, IdentityReport
from .sequences import SequenceSpec
from .sparsepoly import SparsePoly

#: where a value's own text goes in the text of a report; rendered JSON text
#: holds no raw control character
_HOLE = "\x00"


class _Hole:
    """A value that renders as :data:`_HOLE`."""


def json_value(value):
    """The JSON form of a report or of a Fraction, AffineForm, SequenceSpec,
    TruncatedEGF or SparsePoly, one level deep.  A report becomes a dict of
    :attr:`IdentityReport.KEYS`."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, IdentityReport):
        fields = (value.name, value.params, value.lhs, value.rhs, value.passed,
                  value.skipped_poles)
        return dict(zip(IdentityReport.KEYS, fields))
    if isinstance(value, AffineForm):
        return value.describe()
    if isinstance(value, (SequenceSpec, TruncatedEGF)):
        return value.to_json_obj()
    if isinstance(value, SparsePoly):
        return repr(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(value) -> str:
    """``json.dumps(value, indent=2, default=json_value)``, floats and subclasses refused."""
    return _render(value, 0)


#: the JSON text of a value of each of these exact types; a ``Fraction``'s is its
#: ``rat_str``, "p/q" or "p", in quotes
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda flag: "true" if flag else "false",
    type(None): lambda _: "null",
    Fraction: '"%s"'.__mod__,
    AffineForm: lambda alpha: encode_basestring_ascii(alpha.describe()),
    _Hole: lambda _: _HOLE,
}


def _render(value, depth: int) -> str:
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_render(item, depth + 1)}")
        inner = "\n" + "  " * (depth + 1)
        return "{" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = "\n" + "  " * (depth + 1)
        items = [encode_basestring_ascii(item) if type(item) is str else _render(item, depth + 1)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"
    return _render(json_value(value), depth)


def _skeleton(report: IdentityReport, depth: int) -> list[str]:
    """The text at ``depth`` of a report with this name and these param keys,
    split where each param value, lhs, rhs, pass and skipped_poles go."""
    hole = _Hole()
    fields = (report.name, dict.fromkeys(report.params, hole), hole, hole, hole, hole)
    return _render(dict(zip(IdentityReport.KEYS, fields)), depth).split(_HOLE)


def _run_text(run: list, depth: int, skeletons: dict) -> str:
    """The text of a run of reports at ``depth``, joined as list items.

    ``skeletons`` maps the name and param keys of each report written so far
    to its :func:`_skeleton`.  A run's values fill its skeleton once; those
    that vary within it (``Fraction`` params, lhs, rhs and pass) are left as
    holes and filled for each report.  KEYS puts params before lhs, rhs and
    pass, so the holes come in that order.
    """
    first = run[0]
    shape = (first.name, *first.params)
    parts = skeletons.get(shape)
    if parts is None:
        if len(run) == 1 and shape not in skeletons:
            # a lone report of a new shape: a skeleton pays off from the second
            skeletons[shape] = None
            return _render(first, depth)
        parts = skeletons[shape] = _skeleton(first, depth)
    shared = len(run) > 1
    values = ['"' + _HOLE + '"' if shared and type(item) is Fraction else _render(item, depth + 2)
              for item in first.params.values()]
    if shared:
        values += ['"' + _HOLE + '"', '"' + _HOLE + '"', _HOLE]
    else:
        values += [_render(first.lhs, 0), _render(first.rhs, 0), _render(first.passed, 0)]
    values.append(_render(first.skipped_poles, depth + 1))
    text = parts[0] + "".join(map(str.__add__, values, parts[1:]))
    if not shared:
        return text
    holes = [key for key, item in first.params.items() if type(item) is Fraction]
    # "%s" of a Fraction is its str, the "p/q" or "p" of rat_str, and a
    # passing report's one Fraction for both sides is turned into text once
    template = text.replace("%", "%%").replace(_HOLE, "%s")
    return (",\n" + "  " * depth).join([
        template % (*map(report.params.__getitem__, holes), (lhs := str(report.lhs)),
                    lhs if report.rhs is report.lhs else report.rhs,
                    "true" if report.passed else "false")
        for report in run
    ])


def _csv_rows(run: list, skeletons: dict):
    """The CSV rows of a run: each report's JSON object as ``json.loads`` reads
    it back, with params as k=v;... and skipped poles as l,m,tau;..."""
    for report in json.loads("[" + _run_text(run, 0, skeletons) + "]"):
        name, params, lhs, rhs, passed, poles = (report[key] for key in IdentityReport.KEYS)
        yield (name, ";".join(f"{key}={item}" for key, item in params.items()), lhs, rhs,
               passed, ";".join(",".join(map(str, triple)) for triple in poles))


def write_reports(name: str, reports, stream, fmt: str) -> bool:
    """Write the ``verify`` payload of identity ``name`` to ``stream`` as
    ``fmt``, "json" or "csv"; return whether a check failed.

    ``reports`` is a :class:`GridResult` or an iterable of reports, read
    once.  JSON is the text of ``{"command": "verify", "identity": name,
    "reports": [...], "summary": ...}``, written as the envelope, one write
    per run of reports, and the summary of the reports read; CSV is a
    header of :attr:`IdentityReport.KEYS` and one row per report.
    """
    grid = reports if isinstance(reports, GridResult) else GridResult(reports)
    # consecutive reports that share a run object; a fresh object() for a
    # report without one compares unequal to any other key, so it runs alone
    runs = (list(run) for _, run in itertools.groupby(grid, lambda r: r.run or object()))
    skeletons: dict[tuple, list[str] | None] = {}
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(IdentityReport.KEYS)
        for run in runs:
            writer.writerows(_csv_rows(run, skeletons))
    else:
        stream.write('{\n  "command": "verify",\n  "identity": '
                     f'{encode_basestring_ascii(name)},\n  "reports": ')
        opening = "[\n    "
        for run in runs:
            stream.write(opening + _run_text(run, 2, skeletons))
            opening = ",\n    "
        closing = "[]" if opening[0] == "[" else "\n  ]"
        stream.write(f'{closing},\n  "summary": {_render(grid.summary(), 1)}\n}}')
    return not grid.all_passed()


def csv_text(payload: dict) -> str:
    """A payload that holds no reports as CSV: one row per key."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in payload.items():
        structured = isinstance(value, (list, dict, SequenceSpec, TruncatedEGF))
        writer.writerow([key, json.dumps(value, default=json_value) if structured else value])
    return out.getvalue()
