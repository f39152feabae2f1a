"""The CLI's output formats: one JSON writer, and CSV.

:func:`json_value` is the one converter from a report's values to JSON
form; :func:`dumps` returns the text of
``json.dumps(value, indent=2, default=json_value)``, and :func:`csv_text`
the CSV of a payload that holds no reports.

:func:`write_reports` writes a ``verify`` payload in either format from
the runs and lone reports of a :class:`GridResult`, one at a time as the
sweep makes it, so it holds one at once.  A lone report is rendered
whole.  A run (:class:`ReportRun`) makes no report object: its
``params(tau)`` places tau, and its reports differ only in tau, ``lhs``,
``rhs`` and ``pass``, so the writer fills the run's fixed values into a
template once, with holes for those, and fills the holes once per tau.
The text it fills in is made once per call: a skeleton for each tuple of
param keys, the text of each param value other than tau and the leaves
(str, int, Fraction and the like), and the text of the taus and right
sides of the last ``sides`` list read, which consecutive runs of variants
A and B share.  Values and lists are keyed by object identity, never by
equal values: ``(1,)``, ``(Fraction(1),)`` and ``(True,)`` are equal but
render differently.  A CSV row holds the cells of a report's JSON object
as ``json.loads`` reads them back from its JSON text, so one function
decides how a report is written in both formats.

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
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .egf import TruncatedEGF
from .identities import AffineForm
from .rationals import rat_str
from .reports import GridResult, IdentityReport, ReportRun
from .sequences import SequenceSpec
from .sparsepoly import SparsePoly

#: where a value's own text goes in the text of a report; rendered JSON text
#: holds no raw control character
_HOLE = "\x00"
#: the hole of a ``Fraction``'s text, inside its quotes
_QUOTED = '"' + _HOLE + '"'


class _Hole:
    """A value that renders as :data:`_HOLE`."""


#: the tau a writer passes to a run's ``params``, and every hole of a skeleton
_TAU = _Hole()


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


def _skeleton(keys: tuple, depth: int) -> list[str]:
    """The text at ``depth`` of a report with these param keys, split where
    its name, each param value, lhs, rhs, pass and skipped_poles go."""
    fields = (_TAU, dict.fromkeys(keys, _TAU), _TAU, _TAU, _TAU, _TAU)
    return _render(dict(zip(IdentityReport.KEYS, fields)), depth).split(_HOLE)


def _run_texts(depth: int):
    """A function from a run to the text of its reports at ``depth``,
    joined as list items, and from a lone report to its own text; what it
    makes for runs is kept for one :func:`write_reports` call.

    It keeps the skeleton of each tuple of param keys, which runs of every
    name share; the text of each param value that is not tau or a leaf of
    :data:`_LEAVES` (whose text is made as fast as it is found), such as a v
    that many runs share; and the text of the last ``sides`` list of a run
    with no left side, which consecutive runs of variants A and B share.  A
    value or a list is keyed by its identity, never by equality, and held,
    so that its id is not reused within the call: ``(1,)``,
    ``(Fraction(1),)`` and ``(True,)`` are equal but render differently.  A
    run's skipped poles, its own tuple for variant C and the empty tuple
    otherwise, are rendered for each run, so the text kept does not grow
    with C's runs.  A run's name and fixed values fill its skeleton once,
    leaving holes for tau, lhs, rhs and pass; KEYS puts params before lhs,
    rhs and pass, so the holes come in that order.  The text from the first
    hole to the last becomes a ``%`` template, filled once per tau.
    """
    skeletons: dict[tuple, list[str]] = {}
    fixed: dict[int, tuple] = {}  # id -> (value, its text)
    last: list = [None, None]  # a sides list, and (tau, rhs, rhs, "true") as text for each side
    separator = ",\n" + "  " * depth

    def text_of(value) -> str:
        leaf = _LEAVES.get(type(value))
        if leaf is not None:  # made as fast as it would be found
            return leaf(value)
        held = fixed.get(id(value))
        if held is None:
            fixed[id(value)] = held = (value, _render(value, depth + 2))
        return held[1]

    def run_text(run: ReportRun | IdentityReport) -> str:
        if not isinstance(run, ReportRun):
            return _render(run, depth)
        params = run.params(_TAU)
        keys = tuple(params)
        parts = skeletons.get(keys)
        if parts is None:
            parts = skeletons[keys] = _skeleton(keys, depth)
        values = [encode_basestring_ascii(run.name)]
        values += [_QUOTED if item is _TAU else text_of(item) for item in params.values()]
        values += [_QUOTED, _QUOTED, _HOLE, _render(run.skipped_poles, depth + 1)]
        text = parts[0] + "".join(map(str.__add__, values, parts[1:]))
        # only the text from the first hole to the last is a template, so that
        # a long fixed value, such as a sequence x, is copied and never parsed
        first, end = text.index(_HOLE), text.rindex(_HOLE) + 1
        head, tail = text[:first], text[end:]
        template = text[first:end].replace("%", "%%").replace(_HOLE, "%s")
        # "%s" of a Fraction is its str, the "p/q" or "p" of rat_str
        sides = run.sides
        if run.lhs is not None:
            fills = [(str(tau), rhs if lhs is side else str(lhs), rhs, "true" if ok else "false")
                     for (tau, side), lhs, ok in zip(sides, run.lhs, run.passed)
                     for rhs in [str(side)]]
        elif sides is last[0]:
            fills = last[1]
        else:
            fills = [(str(tau), rhs, rhs, "true") for tau, side in sides for rhs in [str(side)]]
            last[:] = sides, fills
        return separator.join([head + template % fill + tail for fill in fills])

    return run_text


def _csv_rows(text: str):
    """The CSV rows of the JSON ``text`` of a run or a lone report: each
    report's JSON object as ``json.loads`` reads it back, with params as
    k=v;... and skipped poles as l,m,tau;..."""
    for report in json.loads("[" + text + "]"):
        name, params, lhs, rhs, passed, poles = (report[key] for key in IdentityReport.KEYS)
        yield (name, ";".join(f"{key}={item}" for key, item in params.items()), lhs, rhs,
               passed, ";".join(",".join(map(str, triple)) for triple in poles))


def write_reports(name: str, reports, stream, fmt: str) -> bool:
    """Write the ``verify`` payload of identity ``name`` to ``stream`` as
    ``fmt``, "json" or "csv"; return whether a check failed.

    ``reports`` is a :class:`GridResult`, whose runs and lone reports are
    read, or an iterable of them, read once.  JSON is the text of
    ``{"command": "verify", "identity": name, "reports": [...], "summary":
    ...}``, written as the envelope, one write per run or lone report, and
    the summary of those read; CSV is a header of
    :attr:`IdentityReport.KEYS` and one row per report.
    """
    grid = reports if isinstance(reports, GridResult) else GridResult(reports)
    if fmt == "csv":
        run_text = _run_texts(0)
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(IdentityReport.KEYS)
        for run in grid.runs():
            writer.writerows(_csv_rows(run_text(run)))
    else:
        run_text = _run_texts(2)
        stream.write('{\n  "command": "verify",\n  "identity": '
                     f'{encode_basestring_ascii(name)},\n  "reports": ')
        opening = "[\n    "
        for run in grid.runs():
            stream.write(opening + run_text(run))
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
